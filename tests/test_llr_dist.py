"""Quantized LLR laws: conversions, transforms, convolution, functionals."""

import csv
import math
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treebp import llr_dist
from treebp.bms import (
    DeltaDistribution,
    SurveySpec,
    bhattacharyya,
    capacity,
    chi2_capacity,
    delta_of,
    prob_error,
)
from treebp.density_evolution import TreeModel
from treebp.llr_dist import (
    _EDGE_BLOCK,
    GridConfig,
    SymmetricLLRDistribution,
    SymmetryError,
    _Stack,
    _convolve,
    _deposit,
    _edge_map,
    _poisson,
    _power,
    apply_edge_map,
    convolve,
    edge_llr_map,
    flip_mix,
    from_delta,
    info_measures,
    poisson_convolve,
    poisson_truncation,
    power_convolve,
    resymmetrize,
    symmetry_defect,
    to_delta,
)

from _de_step import de_step

GRID = GridConfig()
LOG2 = math.log(2.0)


def _point(r):
    return SymmetricLLRDistribution.point(GRID, r)


def _mean(mu):
    """Mean LLR of a law with no mass at +-inf."""
    assert mu.pos_inf_mass == mu.neg_inf_mass == 0.0
    return float(np.dot(mu.masses, GRID.centers()))


def test_grid_config_validation():
    with pytest.raises(ValueError):
        GridConfig(r_max=0.0)
    with pytest.raises(ValueError):
        GridConfig(n_bins=100)
    with pytest.raises(ValueError):
        GridConfig(n_bins=1)
    assert GridConfig().centers()[GRID.center_index] == 0.0


def test_from_delta_trivial_atom():
    mu = from_delta(DeltaDistribution([(0.5, 1.0)]), GRID)
    assert mu.masses[GRID.center_index] == pytest.approx(1.0)


def test_from_delta_perfect_atom():
    mu = from_delta(DeltaDistribution([(0.0, 1.0)]), GRID)
    assert mu.pos_inf_mass == pytest.approx(1.0)
    assert mu.masses.sum() == pytest.approx(0.0, abs=1e-15)


def test_from_delta_bsc_positions():
    mu = from_delta(delta_of(SurveySpec.bsc(0.1)), GRID)
    r = math.log(9.0)
    centers = GRID.centers()
    mean = float(np.dot(mu.masses, centers))
    # mean is preserved exactly by the two-point split
    assert mean == pytest.approx(0.9 * r - 0.1 * r, abs=1e-12)
    assert mu.masses[centers < 0].sum() == pytest.approx(0.1, abs=1e-12)


def test_to_delta_round_trip_examples():
    assert to_delta(_point(0.0)).atoms() == [(0.5, 1.0)]
    assert to_delta(_point(math.inf)).atoms() == [(0.0, 1.0)]
    # off-grid atom: the two-point split keeps the LLR mean, so the error
    # in any smooth functional is second order in the grid step (~1e-5)
    dd = to_delta(from_delta(delta_of(SurveySpec.bsc(0.1)), GRID))
    assert prob_error(dd) == pytest.approx(0.1, abs=2e-5)


def test_round_trip_random_mixtures():
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = int(rng.integers(1, 5))
        d = rng.uniform(0.01, 0.5, size=k)
        w = rng.dirichlet(np.ones(k))
        dist = DeltaDistribution(list(zip(d, w)))
        back = to_delta(from_delta(dist, GRID))
        assert prob_error(back) == pytest.approx(prob_error(dist), abs=5e-5)


def test_to_delta_rejects_asymmetric_mass():
    m = np.zeros(GRID.n_bins)
    m[GRID.center_index + 100] = 0.5
    m[GRID.center_index - 100] = 0.5   # pairing demands e^{-r} ratio, not equality
    mu = SymmetricLLRDistribution(GRID, m)
    with pytest.raises(SymmetryError):
        to_delta(mu)


@lru_cache(maxsize=None)
def _saturating_law():
    """regular:4 theta=0.8 bec:0.5 after 8 steps: about half the mass at |r| > 24."""
    mu = _point(math.inf)
    for _ in range(8):
        mu = de_step(mu, TreeModel.regular(4, 0.8), SurveySpec.bec(0.5))
    return mu


def test_resymmetrize_projects_and_is_idempotent():
    # child-message law: edge map plus broadcast flip keeps the pairing
    # up to quantization; projection removes the quantization residue
    child = flip_mix(apply_edge_map(from_delta(delta_of(SurveySpec.bec(0.3)), GRID), 0.7), 0.15)
    assert symmetry_defect(child) < 5e-3
    saturating = _saturating_law()
    assert saturating.masses[np.abs(GRID.centers()) > 24].sum() > 0.4
    for mu in (child, saturating):
        fixed = resymmetrize(mu)
        assert symmetry_defect(fixed) < 1e-12
        again = resymmetrize(fixed)
        np.testing.assert_allclose(again.masses, fixed.masses, atol=1e-14)
        assert fixed.tv_distance(again) <= 1e-12


def test_info_measures_match_the_crossover_form():
    inf_atoms = flip_mix(from_delta(DeltaDistribution([(0.0, 0.7), (0.2, 0.3)]), GRID), 0.01)
    assert inf_atoms.pos_inf_mass > 0.0 and inf_atoms.neg_inf_mass > 0.0
    center = flip_mix(apply_edge_map(from_delta(delta_of(SurveySpec.bec(0.3)), GRID), 0.7), 0.15)
    assert center.masses[GRID.center_index] > 0.25
    # At saturation to_delta merges runs of atoms within MERGE_TOL in delta,
    # and 2 sqrt(delta (1 - delta)) is steep there, so its Bhattacharyya value
    # moves by ~5e-11; the grid value matches the grid sum E[exp(-R/2)].
    saturating = _saturating_law()
    for mu, z_tol in ((inf_atoms, 1e-12), (center, 1e-12), (saturating, 1e-10)):
        im, dd = info_measures(mu), to_delta(mu)
        assert im.prob_error == pytest.approx(prob_error(dd), abs=1e-12)
        assert im.capacity == pytest.approx(capacity(dd), abs=1e-12)
        assert im.chi2_capacity == pytest.approx(chi2_capacity(dd), abs=1e-12)
        assert im.bhattacharyya == pytest.approx(bhattacharyya(dd), abs=z_tol)
    im = info_measures(saturating)
    assert im.bhattacharyya == pytest.approx(im.potential_mean, abs=1e-12)


def test_edge_map_values():
    assert edge_llr_map(0.0, 0.9) == 0.0
    assert edge_llr_map(math.inf, 0.8) == pytest.approx(math.log(9.0))
    assert edge_llr_map(5.0, 0.0) == 0.0
    assert isinstance(edge_llr_map(1.0, 0.5), float)
    np.testing.assert_allclose(edge_llr_map(np.array([math.inf, -math.inf]), 0.8),
                               [math.log(9.0), -math.log(9.0)], rtol=1e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far = edge_llr_map(np.array([1000.0, -1000.0]), 0.8)
    np.testing.assert_allclose(far, [math.log(9.0), -math.log(9.0)], rtol=1e-15)
    # odd function, exactly
    r = np.concatenate([np.linspace(-8, 8, 33), np.random.default_rng(5).uniform(-40, 40, 1000)])
    assert np.array_equal(edge_llr_map(-r, 0.6), -edge_llr_map(r, 0.6))


def test_edge_map_blocks_are_elementwise_exact():
    # long inputs go through in blocks; each value must equal its own
    # one-element evaluation, across block boundaries and in a short tail
    n = 3 * _EDGE_BLOCK + 5
    r = np.random.default_rng(3).uniform(-40.0, 40.0, n)
    r[::997] = np.resize([math.inf, -math.inf, 0.0, -0.0], r[::997].size)
    got = edge_llr_map(r.reshape(1, -1, 1), 0.7)
    assert got.shape == (1, n, 1)
    want = np.array([edge_llr_map(x, 0.7) for x in r])
    assert np.array_equal(got.ravel(), want)
    assert np.array_equal(np.signbit(got.ravel()), np.signbit(want))
    assert edge_llr_map(np.empty(0), 0.7).size == 0


def _add_at_deposit(grid, positions, weights):
    # the two-pass np.add.at split the cached plan's single bincount replaces
    x = np.clip(positions, -grid.r_max, grid.r_max) / grid.step + grid.center_index
    i0 = np.clip(np.floor(x).astype(np.int64), 0, grid.n_bins - 2)
    frac = x - i0
    masses = np.zeros(grid.n_bins)
    np.add.at(masses, i0, weights * (1.0 - frac))
    np.add.at(masses, i0 + 1, weights * frac)
    return masses


@pytest.mark.parametrize("theta", [0.0, 0.6, 0.999])
def test_edge_map_plan_matches_deposit_bit_for_bit(theta):
    rng = np.random.default_rng(17)
    laws = []
    for pos, neg in [(0.0, 0.0), (0.25, 0.0), (0.0, 0.1), (0.15, 0.05)]:
        m = rng.random(GRID.n_bins) * (rng.random(GRID.n_bins) < 0.3)
        laws.append(SymmetricLLRDistribution(GRID, m * (1.0 - pos - neg) / m.sum(), pos, neg))
    stacked = _edge_map(_Stack.of(laws), theta)
    sat = edge_llr_map(math.inf, theta)
    for mu, got in zip(laws, stacked.masses):
        want = _deposit(GRID, edge_llr_map(GRID.centers(), theta), mu.masses)
        ref = _add_at_deposit(GRID, edge_llr_map(GRID.centers(), theta), mu.masses)
        if mu.pos_inf_mass or mu.neg_inf_mass:
            atoms = ([sat, -sat], [mu.pos_inf_mass, mu.neg_inf_mass])
            want += _deposit(GRID, *atoms)
            ref += _add_at_deposit(GRID, np.array(atoms[0]), np.array(atoms[1]))
        assert np.array_equal(got, want)
        assert np.array_equal(got, ref)
        assert np.array_equal(apply_edge_map(mu, theta).masses, got)
    assert not stacked.inf.any()


def test_stack_checks_every_row():
    good = SymmetricLLRDistribution.unit(GRID).masses
    for bad_row in (good * (1.0 + 2e-7), np.where(good > 0, 1.0 + 1e-9, -1e-9)):
        with pytest.raises(ValueError):
            _Stack.checked(GRID, np.stack([good, bad_row, good]))
    ok = _Stack.checked(GRID, np.stack([good, good * (1.0 + 5e-8)]))
    assert ok.masses.shape == (2, GRID.n_bins)


def test_stacked_sums_crop_each_row_to_its_own_support():
    # rows of one stack need different FFT lengths; each row's sum must
    # equal its one-row call bit for bit, a unit row stay a unit
    unit = SymmetricLLRDistribution.unit(GRID)
    laws = [unit, apply_edge_map(_point(2.0), 0.3),
            from_delta(delta_of(SurveySpec.bsc(0.01)), GRID)]
    stack, surveys = _Stack.of(laws), _Stack.of(laws[::-1])
    power, poisson = _power(stack, 3), _poisson(stack, 2.0)
    assert np.array_equal(power.masses[0], unit.masses)
    assert np.array_equal(poisson.masses[0], unit.masses)
    for out, alone in [(power, lambda mu, _: power_convolve(mu, 3)),
                       (poisson, lambda mu, _: poisson_convolve(mu, 2.0)),
                       (_convolve(stack, surveys), convolve)]:
        for row, mu, nu in zip(out.masses, laws, laws[::-1]):
            want = alone(mu, nu).masses
            nz, nz_want = np.flatnonzero(row), np.flatnonzero(want)
            assert nz_want[0] <= nz[0] and nz[-1] <= nz_want[-1]
            assert np.array_equal(row, want)


@pytest.mark.parametrize("rows", [[0, 1, 2], [0, 0], [1, 0, 1], [2, 2]])
def test_sparse_survey_sums_match_the_spectral_sum(monkeypatch, rows):
    # BEC and BSC surveys add as shifted copies, with no transform; the
    # aggregates reach +r_max, so the bec reveal (+r_max) and the bsc
    # offsets (+-46, +-47 bins) fold mass onto the boundary bins
    surveys = _Stack.of([from_delta(delta_of(SurveySpec.parse(spec)), GRID)
                         .with_infinities_clamped()
                         for spec in ("bec:0.5", "bsc:0.2", "bsc:1e-15")]).take(rows)
    aggs = _Stack.of([_saturating_law(), flip_mix(_point(29.5), 0.2),
                      poisson_convolve(apply_edge_map(_point(20.0), 0.99), 3.0)][:len(rows)])
    assert (aggs.masses[:, -48:].sum(axis=1) > 0.05).all()
    spectra, real = [], llr_dist._spectrum
    monkeypatch.setattr(llr_dist, "_spectrum", lambda s, n: spectra.append(n) or real(s, n))
    shifted = _convolve(aggs, surveys)
    assert not spectra
    monkeypatch.setattr(llr_dist, "_SHIFT_ADD_BINS", -1)
    spectral = _convolve(aggs, surveys)
    assert len(spectra) >= 2        # the sums' rows and the survey rows
    np.testing.assert_allclose(shifted.masses, spectral.masses, rtol=0.0, atol=1e-15)
    assert (shifted.masses[:, -1] > 0.05).all()


def test_edge_map_is_theta_lipschitz():
    rng = np.random.default_rng(11)
    for theta in (0.2, 0.5, 0.9, 0.99):
        a = rng.uniform(-30, 30, size=2000)
        b = rng.uniform(-30, 30, size=2000)
        lhs = np.abs(edge_llr_map(a, theta) - edge_llr_map(b, theta))
        assert np.all(lhs <= theta * np.abs(a - b) + 1e-12)


def test_apply_edge_map_examples():
    unit = SymmetricLLRDistribution.unit(GRID)
    out = apply_edge_map(unit, 0.8)
    assert out.masses[GRID.center_index] == pytest.approx(1.0)

    sat = apply_edge_map(_point(math.inf), 0.8)
    assert sat.pos_inf_mass == 0.0
    assert _mean(sat) == pytest.approx(math.log(9.0), abs=1e-12)

    squash = apply_edge_map(from_delta(delta_of(SurveySpec.bsc(0.2)), GRID), 0.0)
    assert squash.masses[GRID.center_index] == pytest.approx(1.0)

    with pytest.raises(ValueError):
        apply_edge_map(unit, 1.0)


def test_flip_mix_examples():
    mu = _point(2.0)
    same = flip_mix(mu, 0.0)
    np.testing.assert_allclose(same.masses, mu.masses)

    mixed = flip_mix(mu, 0.2)
    assert _mean(mixed) == pytest.approx(0.8 * 2.0 - 0.2 * 2.0, abs=1e-12)

    sym = flip_mix(mu, 0.5)
    np.testing.assert_allclose(sym.masses, sym.masses[::-1], atol=1e-15)

    inf = flip_mix(_point(math.inf), 0.3)
    assert inf.pos_inf_mass == pytest.approx(0.7)
    assert inf.neg_inf_mass == pytest.approx(0.3)

    with pytest.raises(ValueError):
        flip_mix(mu, 1.5)


def test_convolve_point_masses():
    out = convolve(_point(1.0), _point(2.0))
    assert _mean(out) == pytest.approx(3.0, abs=1e-12)

    mu = from_delta(delta_of(SurveySpec.bsc(0.2)), GRID)
    same = convolve(mu, SymmetricLLRDistribution.unit(GRID))
    np.testing.assert_allclose(same.masses, mu.masses, atol=1e-15)


def test_convolve_two_coin_flips():
    # atoms at +-1 land off-grid, so compare window sums around each target
    half = flip_mix(_point(1.0), 0.5)
    out = convolve(half, half)
    centers = GRID.centers()
    h = GRID.step
    for target, w in ((-2.0, 0.25), (0.0, 0.5), (2.0, 0.25)):
        window = np.abs(centers - target) <= 1.5 * h
        assert out.masses[window].sum() == pytest.approx(w, abs=1e-12)


def test_convolve_commutative_associative():
    # interior-supported laws: no boundary saturation, so the algebra is
    # exact up to float rounding
    a = from_delta(delta_of(SurveySpec.bsc(0.1)), GRID)
    b = flip_mix(_point(0.5), 0.3)
    c = from_delta(delta_of(SurveySpec.bsc(0.25)), GRID)
    ab = convolve(a, b)
    ba = convolve(b, a)
    np.testing.assert_allclose(ab.masses, ba.masses, atol=1e-15)
    left = convolve(convolve(a, b), c)
    right = convolve(a, convolve(b, c))
    np.testing.assert_allclose(left.masses, right.masses, atol=1e-12)


def test_convolve_saturates_out_of_range_mass():
    big = _point(25.0)
    out = convolve(big, big)
    assert out.masses[-1] == pytest.approx(1.0)
    assert out.masses.sum() + out.pos_inf_mass + out.neg_inf_mass == pytest.approx(1.0, abs=1e-12)


def test_convolve_rejects_infinite_atoms():
    with pytest.raises(ValueError):
        convolve(_point(math.inf), _point(1.0))


def test_power_convolve():
    mu = flip_mix(_point(1.0), 0.1)
    zero = power_convolve(mu, 0)
    assert zero.masses[GRID.center_index] == pytest.approx(1.0)
    one = power_convolve(mu, 1)
    np.testing.assert_allclose(one.masses, mu.masses)
    four = power_convolve(_point(1.5), 4)
    assert _mean(four) == pytest.approx(6.0, abs=1e-12)
    # no rounding noise off the support: the unit law stays exactly a unit
    unit = power_convolve(SymmetricLLRDistribution.unit(GRID), 5)
    assert np.count_nonzero(unit.masses) == 1 and unit.masses[GRID.center_index] > 0.0
    # the spectral power agrees with the slow fold
    slow = convolve(convolve(mu, mu), mu)
    fast = power_convolve(mu, 3)
    np.testing.assert_allclose(fast.masses, slow.masses, atol=1e-14)
    with pytest.raises(ValueError):
        power_convolve(mu, -1)


def test_poisson_convolve():
    unit = SymmetricLLRDistribution.unit(GRID)
    out0 = poisson_convolve(unit, 0.0)
    assert out0.masses[GRID.center_index] == pytest.approx(1.0)

    stay = poisson_convolve(unit, 3.0)
    assert stay.masses[GRID.center_index] == pytest.approx(1.0, abs=1e-12)
    assert np.count_nonzero(stay.masses) == 1

    # point at a: count-k atom sits at k*a with Poisson weights
    a = 1.2
    out = poisson_convolve(_point(a), 2.0)
    centers = GRID.centers()
    for k in range(5):
        idx = int(np.argmin(np.abs(centers - k * a)))
        lo = idx - 1 if idx > 0 else 0
        got = float(out.masses[lo:idx + 2].sum())
        want = math.exp(-2.0) * 2.0 ** k / math.factorial(k)
        assert got == pytest.approx(want, abs=1e-9)

    with pytest.raises(ValueError):
        poisson_convolve(unit, -1.0)


def test_power_convolve_saturates_after_the_whole_sum():
    # +-20 coins: three of them sum to 60, 20, -20, -60 with weights 1, 3, 3, 1
    # over 8; clipping partial sums at r_max = 30 would move mass off +20
    # (20 is off-grid, so compare window sums around each target)
    out = power_convolve(flip_mix(_point(20.0), 0.5), 3)
    centers = GRID.centers()
    for target, w in ((-30.0, 1 / 8), (-20.0, 3 / 8), (20.0, 3 / 8), (30.0, 1 / 8)):
        window = np.abs(centers - target) <= 3 * GRID.step
        assert out.masses[window].sum() == pytest.approx(w, abs=1e-14)


# Direct O(n^2) sums, the reference for the spectral kernel.

def _direct_convolve(m1, m2):
    """Linear convolution on the grid of m1, m2, with out-of-range mass folded."""
    n = m1.size
    full = np.convolve(m1, m2)
    start = n - 1 - (n - 1) // 2
    m = full[start:start + n].copy()
    m[0] += full[:start].sum()
    m[-1] += full[start + n:].sum()
    return m


def _truncation_loop(mean_count, tail_tol=1e-12):
    """The truncation count as first computed, for means whose loop ends."""
    pmf = cum = math.exp(-mean_count)
    b = 0
    while cum < 1.0 - tail_tol:
        b += 1
        pmf *= mean_count / b
        cum += pmf
    return b


def test_poisson_truncation_keeps_every_count_and_fails_fast():
    # 730-745.1 start from a subnormal e^-mean and still end; 720 and
    # 740.5 spun 100,000 steps before raising a RuntimeError
    for mean in [i / 2 for i in range(1, 1401)] + [730.0, 735.0, 740.0, 745.1]:
        assert poisson_truncation(mean) == _truncation_loop(mean)
    for mean in (720.0, 740.5, 800.0, 1e5, math.inf):
        with pytest.raises(ValueError, match="too large to truncate"):
            poisson_truncation(mean)


def _direct_poisson(m, mean_count, tail_tol=1e-12):
    """Poisson mixture of direct powers, truncated where P[count > B] < tail_tol
    and renormalized."""
    unit = np.zeros(m.size)
    unit[(m.size - 1) // 2] = 1.0
    pmf = cum = math.exp(-mean_count)
    acc, cur, b = pmf * unit, unit, 0
    while cum < 1.0 - tail_tol:
        b += 1
        cur = _direct_convolve(cur, m)
        pmf *= mean_count / b
        cum += pmf
        acc = acc + pmf * cur
    return acc / acc.sum()


SMALL = GridConfig(r_max=10.0, n_bins=401)


@st.composite
def _interior_laws(draw, reach=5):
    """Random nonnegative laws on at most 2 reach + 1 bins around the center of SMALL;
    every count-39 sum (the Poisson bound at mean 8, tail 1e-15) stays inside."""
    lo = draw(st.integers(-reach, reach))
    hi = draw(st.integers(lo, reach))
    w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=hi - lo + 1,
                               max_size=hi - lo + 1)))
    w[0] += 0.01
    m = np.zeros(SMALL.n_bins)
    m[SMALL.center_index + lo:SMALL.center_index + hi + 1] = w / w.sum()
    return SymmetricLLRDistribution(SMALL, m)


def _dense_law(bins):
    """A law on bins consecutive bins around the center of SMALL."""
    w = np.arange(1.0, bins + 1)
    m = np.zeros(SMALL.n_bins)
    m[SMALL.center_index - bins // 2:SMALL.center_index + bins - bins // 2] = w / w.sum()
    return SymmetricLLRDistribution(SMALL, m)


@settings(max_examples=40, deadline=None)
@given(_interior_laws(), _interior_laws())
@example(_dense_law(7), _dense_law(2 * llr_dist._SHIFT_ADD_BINS + 1))  # the spectral path
def test_convolve_matches_direct_sum(mu1, mu2):
    np.testing.assert_allclose(convolve(mu1, mu2).masses,
                               _direct_convolve(mu1.masses, mu2.masses), rtol=0, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(_interior_laws(), st.integers(2, 6))
def test_power_convolve_matches_direct_sum(mu, count):
    want = mu.masses
    for _ in range(count - 1):
        want = _direct_convolve(want, mu.masses)
    np.testing.assert_allclose(power_convolve(mu, count).masses, want, rtol=0, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(_interior_laws(), st.floats(0.5, 8.0))
def test_poisson_convolve_matches_direct_mixture(mu, mean_count):
    # Both neglect a tail of mass below the truncation tail (1e-12), but not
    # the same one: the mixture drops every count > B, the spectral sum only
    # those landing outside the support.  So the two differ by at most twice
    # the tail in total, and per bin they are compared at a tail of 1e-15,
    # below the 1e-14 tolerance.
    diff = poisson_convolve(mu, mean_count).masses - _direct_poisson(mu.masses, mean_count)
    assert np.abs(diff).sum() <= 2e-12 + 1e-14
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(llr_dist, "_POISSON_TAIL", 1e-15)
        poisson_truncation.cache_clear()
        try:
            fine = poisson_convolve(mu, mean_count)
        finally:
            poisson_truncation.cache_clear()
    np.testing.assert_allclose(fine.masses, _direct_poisson(mu.masses, mean_count, tail_tol=1e-15),
                               rtol=0, atol=1e-14)


def test_info_measures_trivial_points():
    im0 = info_measures(_point(0.0))
    assert im0.prob_error == pytest.approx(0.5)
    assert im0.bhattacharyya == pytest.approx(1.0)
    assert LOG2 - im0.capacity == pytest.approx(LOG2)

    imi = info_measures(_point(math.inf))
    assert imi.prob_error == pytest.approx(0.0, abs=1e-15)
    assert imi.bhattacharyya == pytest.approx(0.0, abs=1e-15)
    assert LOG2 - imi.capacity == pytest.approx(0.0, abs=1e-12)


def test_info_measures_bsc_derived():
    im = info_measures(from_delta(delta_of(SurveySpec.bsc(0.1)), GRID))
    assert im.prob_error == pytest.approx(0.1, abs=5e-5)
    assert im.bhattacharyya == pytest.approx(0.6, abs=5e-5)
    assert im.chi2_capacity == pytest.approx(0.64, abs=5e-5)


def test_potential_mean_matches_bhattacharyya():
    # E[exp(-R/2)] equals Z after any pipeline of transforms plus projection
    mu = from_delta(delta_of(SurveySpec.bec(0.5)), GRID).with_infinities_clamped()
    for _ in range(3):
        mu = resymmetrize(convolve(flip_mix(apply_edge_map(mu, 0.8), 0.1), mu))
        im = info_measures(mu)
        assert im.potential_mean == pytest.approx(im.bhattacharyya, abs=1e-8)


def test_pairwise_bhattacharyya_term_is_convex():
    # per-atom term -2 sqrt(d(1-d)): decreasing with second derivative >= 4
    d = np.linspace(1e-6, 0.5, 20001)
    g = -2.0 * np.sqrt(d * (1.0 - d))
    h = d[1] - d[0]
    first = np.diff(g) / h
    assert np.all(first < 0.0)
    second = np.diff(g, 2) / h / h
    assert np.all(second >= 4.0 - 1e-4)


def dump_csv(mu, path):
    """Write ``r,mass`` rows plus reserved ``+inf``/``-inf`` rows, with repr
    so a load round-trips bit-exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "mass"])
        for r, m in zip(mu.grid.centers(), mu.masses):
            writer.writerow([repr(float(r)), repr(float(m))])
        writer.writerow(["+inf", repr(mu.pos_inf_mass)])
        writer.writerow(["-inf", repr(mu.neg_inf_mass)])


def load_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader)[:2] == ["r", "mass"]
        rows = {row[0]: float(row[1]) for row in reader if row}
    pos_inf, neg_inf = rows.pop("+inf"), rows.pop("-inf")
    grid = GridConfig(r_max=float(list(rows)[-1]), n_bins=len(rows))
    return SymmetricLLRDistribution(grid, list(rows.values()), pos_inf, neg_inf)


def test_csv_round_trip_bit_exact(tmp_path):
    mu = resymmetrize(
        flip_mix(apply_edge_map(from_delta(delta_of(SurveySpec.bec(0.37)), GRID), 0.65), 0.175))
    path = tmp_path / "llr.csv"
    dump_csv(mu, path)
    back = load_csv(path)
    assert back.grid == mu.grid
    assert np.array_equal(back.masses, mu.masses)
    assert back.pos_inf_mass == mu.pos_inf_mass
    assert back.neg_inf_mass == mu.neg_inf_mass


def test_csv_round_trip_with_inf_atoms(tmp_path):
    mu = from_delta(delta_of(SurveySpec.bec(0.4)), GRID)
    path = tmp_path / "llr_inf.csv"
    dump_csv(mu, path)
    back = load_csv(path)
    assert back.pos_inf_mass == mu.pos_inf_mass
    assert np.array_equal(back.masses, mu.masses)


def test_mass_validation():
    m = np.zeros(GRID.n_bins)
    m[0] = 0.9
    with pytest.raises(ValueError):
        SymmetricLLRDistribution(GRID, m)
    m[1] = -0.1
    with pytest.raises(ValueError):
        SymmetricLLRDistribution(GRID, m)
