"""Channel algebra: canonical crossover mixtures and their functionals."""

import csv
import math

import numpy as np
import pytest

from treebp.bms import (
    MERGE_TOL,
    WEIGHT_FLOOR,
    DeltaDistribution,
    SurveySpec,
    bhattacharyya,
    binary_entropy,
    capacity,
    chi2_capacity,
    delta_of,
    is_trivial_survey,
    load_delta_csv,
    prob_error,
)

LOG2 = math.log(2.0)


def test_delta_of_bsc():
    dist = delta_of(SurveySpec.bsc(0.1))
    assert dist.atoms() == [(0.1, 1.0)]


def test_delta_of_bec():
    dist = delta_of(SurveySpec.bec(0.4))
    np.testing.assert_allclose(dist.deltas, [0.5, 0.0])
    np.testing.assert_allclose(dist.weights, [0.4, 0.6])


def test_delta_of_trivial():
    dist = delta_of(SurveySpec.trivial())
    assert dist.atoms() == [(0.5, 1.0)]


def test_trivial_aliases_canonicalize():
    # BSC(1/2), BEC(1) and trivial all collapse to the single useless atom
    for spec in (SurveySpec.bsc(0.5), SurveySpec.bec(1.0), SurveySpec.trivial()):
        assert delta_of(spec).atoms() == [(0.5, 1.0)]
        assert is_trivial_survey(spec)
    assert not is_trivial_survey(SurveySpec.bec(0.99))


def test_prob_error_examples():
    assert prob_error(delta_of(SurveySpec.bsc(0.1))) == pytest.approx(0.1)
    assert prob_error(delta_of(SurveySpec.bec(0.4))) == pytest.approx(0.2)
    assert prob_error(delta_of(SurveySpec.trivial())) == pytest.approx(0.5)


def test_capacity_examples():
    assert capacity(delta_of(SurveySpec.bsc(0.0))) == pytest.approx(LOG2)
    assert capacity(delta_of(SurveySpec.bec(0.4))) == pytest.approx(0.6 * LOG2)
    assert capacity(delta_of(SurveySpec.trivial())) == pytest.approx(0.0, abs=1e-15)


def test_chi2_capacity_examples():
    assert chi2_capacity(delta_of(SurveySpec.bsc(0.1))) == pytest.approx(0.64)
    assert chi2_capacity(delta_of(SurveySpec.bec(0.4))) == pytest.approx(0.6)
    assert chi2_capacity(delta_of(SurveySpec.trivial())) == pytest.approx(0.0, abs=1e-15)


def test_bhattacharyya_examples():
    assert bhattacharyya(delta_of(SurveySpec.bec(0.4))) == pytest.approx(0.4)
    assert bhattacharyya(delta_of(SurveySpec.bsc(0.1))) == pytest.approx(0.6)
    assert bhattacharyya(delta_of(SurveySpec.bsc(0.5))) == pytest.approx(1.0)


def _random_mixtures(rng, count, max_atoms=6):
    for _ in range(count):
        k = int(rng.integers(1, max_atoms + 1))
        d = rng.uniform(0.0, 0.5, size=k)
        w = rng.dirichlet(np.ones(k))
        yield DeltaDistribution(list(zip(d, w)))


def test_measure_ranges_random():
    rng = np.random.default_rng(7)
    for dist in _random_mixtures(rng, 200):
        assert 0.0 <= prob_error(dist) <= 0.5
        assert -1e-15 <= capacity(dist) <= LOG2 + 1e-15
        assert 0.0 <= chi2_capacity(dist) <= 1.0
        assert 0.0 <= bhattacharyya(dist) <= 1.0


def test_concavity_bound_random():
    # Z <= 2 sqrt(Pe (1 - Pe)) on every mixture
    rng = np.random.default_rng(8)
    for dist in _random_mixtures(rng, 200):
        pe = prob_error(dist)
        assert bhattacharyya(dist) <= 2.0 * math.sqrt(pe * (1.0 - pe)) + 1e-12


def test_endpoint_duality():
    trivial = delta_of(SurveySpec.trivial())
    assert bhattacharyya(trivial) == pytest.approx(1.0)
    assert capacity(trivial) == pytest.approx(0.0, abs=1e-15)
    rng = np.random.default_rng(9)
    for dist in _random_mixtures(rng, 100):
        if bhattacharyya(dist) >= 1.0 - 1e-12:
            assert capacity(dist) <= 1e-10


def test_atom_canonicalization():
    dist = DeltaDistribution([(0.3, 0.25), (0.3 + 1e-14, 0.25), (0.1, 0.5)])
    assert len(dist) == 2
    np.testing.assert_allclose(dist.deltas, [0.3, 0.1])
    np.testing.assert_allclose(dist.weights, [0.5, 0.5])
    assert np.all(np.diff(dist.deltas) < 0)
    assert dist.weights.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("factor", [1.1, 1.2])
def test_merge_runs_span_at_most_merge_tol(factor):
    # a chain of atoms 0.6 MERGE_TOL apart with rising weights: merging into
    # the running weighted mean let it follow the chain (67 and 60 atoms,
    # the first spanning ~85 MERGE_TOL); anchored runs merge pairs only
    deltas = 0.25 - 0.6 * MERGE_TOL * np.arange(200)
    weights = factor ** np.arange(200)
    weights /= weights.sum()
    kept = int((weights > WEIGHT_FLOOR).sum())      # 200 at 1.1, 180 at 1.2
    dist = DeltaDistribution(zip(deltas, weights))
    assert len(dist) == kept // 2
    assert len(dist) >= (100 if factor == 1.1 else 90)


def test_atom_floor_drops_and_renormalizes():
    dist = DeltaDistribution([(0.4, 1.0 - 1e-16), (0.2, 1e-16)])
    assert len(dist) == 1
    assert dist.weights[0] == pytest.approx(1.0)


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        DeltaDistribution([(0.7, 1.0)])
    with pytest.raises(ValueError):
        DeltaDistribution([(0.2, -0.5), (0.1, 1.5)])
    with pytest.raises(ValueError):
        DeltaDistribution([(0.2, 0.4)])
    with pytest.raises(ValueError):
        DeltaDistribution([])


def test_survey_spec_rejects_bad_params():
    with pytest.raises(ValueError):
        SurveySpec.bsc(0.6)
    with pytest.raises(ValueError):
        SurveySpec.bec(1.5)
    with pytest.raises(ValueError):
        SurveySpec("nonsense")


def test_survey_spec_parse_round_trip():
    for text in ("bsc:0.1", "bec:0.4", "trivial"):
        spec = SurveySpec.parse(text)
        again = SurveySpec.parse(spec.describe())
        assert delta_of(spec).atoms() == delta_of(again).atoms()
    with pytest.raises(ValueError):
        SurveySpec.parse("gauss:0.1")
    with pytest.raises(ValueError):
        SurveySpec.parse("custom:not-a-file-ref")


def save_delta_csv(dist, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["delta", "weight"])
        for d, w in dist.atoms():
            writer.writerow([repr(d), repr(w)])


def test_delta_csv_round_trip(tmp_path):
    dist = DeltaDistribution([(0.5, 0.125), (0.3712345678901234, 0.5), (0.0, 0.375)])
    path = tmp_path / "mix.csv"
    save_delta_csv(dist, path)
    back = load_delta_csv(path)
    assert back.atoms() == dist.atoms()


def test_delta_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n0.1,1.0\n")
    with pytest.raises(ValueError):
        load_delta_csv(path)


def test_binary_entropy_edges():
    assert binary_entropy(0.0) == pytest.approx(0.0, abs=1e-15)
    assert binary_entropy(1.0) == pytest.approx(0.0, abs=1e-15)
    assert binary_entropy(0.5) == pytest.approx(LOG2)
    np.testing.assert_allclose(binary_entropy(np.array([0.0, 0.5])), [0.0, LOG2])


def test_immutability():
    dist = DeltaDistribution([(0.2, 1.0)])
    with pytest.raises(AttributeError):
        dist.deltas = None
    with pytest.raises(ValueError):
        dist.weights[0] = 2.0
