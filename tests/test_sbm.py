"""Two-community graph entropy: exact oracles, survey marginalization, tree link."""

import math
from dataclasses import asdict
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treebp import bms, sbm, spin_sync
from treebp._parallel import _ARENA
from treebp.bms import SurveySpec, _entropy_of_masses, _lattice_bytes, _subset_entropies
from treebp.density_evolution import DEConfig, InitCondition, bp_fixed_point
from treebp.sbm import (
    MAX_EXACT_N,
    MAX_SUBSET_N,
    SBMInstance,
    SurveyRealization,
    derivative_identity_scan,
    exact_conditional_entropy,
    exact_entropy_for_instance,
    label_loglik,
    sample_sbm,
    sample_survey,
    sbm_entropy_via_trees,
    sbm_snr,
    sbm_tree_model,
    subset_entropy_table,
    survey_averaged_entropy,
)
from treebp.spin_sync import SyncGraph, mi_root_boundary
from treebp.thresholds import survey_strength_bounds

from _sbm_oracle import (
    full_lattice_subset_entropies,
    leave_one_out_entropy,
    oracle_vs_integral,
    reference_conditional_entropy,
    sandwich_report,
    single_vertex_entropy_all_revealed,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _bincount_subset_entropies(masses, n):
    # one marginal per subset and row by a grouped sum: O(4^n), the reference
    rows = np.atleast_2d(masses)
    idx = np.arange(1 << n)
    return np.array([sum(_entropy_of_masses(np.bincount(idx & s, weights=row,
                                                        minlength=1 << n))
                         for row in rows)
                     for s in range(1 << n)])


def _brute_posterior(inst):
    n = inst.n
    pa, pb = inst.a / n, inst.b / n
    probs = {}
    for x in product((-1, 1), repeat=n):
        w = 1.0
        for i in range(n):
            for j in range(i + 1, n):
                like = pa if x[i] == x[j] else pb
                w *= like if inst.adjacency[i, j] else 1.0 - like
        probs[x] = w
    z = math.fsum(probs.values())
    return {x: w / z for x, w in probs.items()}


def _brute_survey_entropy(inst, epsilon):
    # chain rule: H(X | G, Y) = sum_S P(S) (H(X | G) - H(X_S | G))
    n = inst.n
    post = _brute_posterior(inst)
    h_subset = {}
    for mask in range(1 << n):
        marg = {}
        for x, p in post.items():
            key = tuple(x[j] for j in range(n) if mask >> j & 1)
            marg[key] = marg.get(key, 0.0) + p
        h_subset[mask] = math.fsum(-q * math.log(q) for q in marg.values() if q > 0.0)
    full = h_subset[(1 << n) - 1]
    acc = 0.0
    for mask in range(1 << n):
        m = bin(mask).count("1")
        acc += (1.0 - epsilon) ** m * epsilon ** (n - m) * (full - h_subset[mask])
    return acc


def test_sample_sbm_structure():
    inst = sample_sbm(10, 4.0, 1.0, seed=0)
    assert set(np.unique(inst.labels)) <= {-1, 1}
    assert np.array_equal(inst.adjacency, inst.adjacency.T)
    assert not inst.adjacency.diagonal().any()
    with pytest.raises(ValueError):
        sample_sbm(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        sample_sbm(5, 6.0, 1.0)


def test_sample_sbm_edge_frequencies():
    n = 200
    inst = sample_sbm(n, 20.0, 5.0, seed=1)
    iu, ju = np.triu_indices(n, k=1)
    same = inst.labels[iu] == inst.labels[ju]
    for mask, p in ((same, 20.0 / n), (~same, 5.0 / n)):
        freq = inst.adjacency[iu[mask], ju[mask]].mean()
        sigma = math.sqrt(p * (1 - p) / mask.sum())
        assert abs(freq - p) < 4.0 * sigma


def test_snr_and_tree_model_mapping():
    assert sbm_snr(4.0, 1.0) == pytest.approx(0.9, abs=1e-15)
    model = sbm_tree_model(9.0, 3.0)
    assert model.kind == "poisson"
    assert model.d == pytest.approx(6.0)
    assert model.theta == pytest.approx(0.5)
    # symmetric in the two intensities
    swap = sbm_tree_model(3.0, 9.0)
    assert swap.theta == model.theta and swap.d == model.d
    with pytest.raises(ValueError):
        sbm_tree_model(4.0, 0.0)
    with pytest.raises(ValueError):
        sbm_snr(0.0, 0.0)


def test_equal_intensities_give_uniform_posterior():
    inst = sample_sbm(6, 3.0, 3.0, seed=2)
    assert exact_entropy_for_instance(inst) == pytest.approx(6 * math.log(2.0), abs=1e-12)
    res = exact_conditional_entropy(6, 3.0, 3.0, 1.0, 4, seed=2)
    assert res.estimate == pytest.approx(math.log(2.0), abs=1e-12)
    assert res.stderr == pytest.approx(0.0, abs=1e-15)


def test_identical_graphs_read_their_own_value():
    # no edges and no survey: all 200 graphs are alike, so the mean is the
    # per-graph value exactly and the stderr is exactly zero
    res = exact_conditional_entropy(6, 0.0, 0.0, None, 200)
    assert res.estimate == exact_conditional_entropy(6, 0.0, 0.0, None, 1).estimate
    assert res.stderr == 0.0 and res.n_samples == 200


def test_full_reveal_pins_everything():
    res = exact_conditional_entropy(6, 4.0, 1.0, 0.0, 4, seed=3)
    assert res.estimate == pytest.approx(0.0, abs=1e-12)
    assert res.stderr == pytest.approx(0.0, abs=1e-15)


def test_dual_oracles_agree():
    for seed in range(4):
        inst = sample_sbm(7, 4.0, 1.0, seed=seed)
        assert exact_entropy_for_instance(inst) == pytest.approx(
            reference_conditional_entropy(inst), abs=1e-10)
        survey = sample_survey(inst, 0.4, seed=seed + 10)
        assert exact_entropy_for_instance(inst, survey) == pytest.approx(
            reference_conditional_entropy(inst, survey), abs=1e-10)


def test_exact_cap_enforced():
    with pytest.raises(ValueError):
        exact_conditional_entropy(MAX_EXACT_N + 1, 3.0, 1.0, 0.5, 2)
    with pytest.raises(ValueError):
        subset_entropy_table(sample_sbm(MAX_SUBSET_N + 1, 3.0, 1.0, seed=0))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), rows=st.integers(1, 5),
       zero_frac=st.sampled_from([0.0, 0.3, 0.9]), seed=st.integers(0, 2 ** 32 - 1))
@example(n=10, rows=1, zero_frac=0.3, seed=10)
@example(n=12, rows=3, zero_frac=0.0, seed=12)
def test_subset_lattice_matches_bincount_oracle(n, rows, zero_frac, seed):
    rng = np.random.default_rng(seed)
    masses = rng.random((rows, 1 << n))
    masses[rng.random(masses.shape) < zero_frac] = 0.0
    masses.flat[rng.integers(masses.size)] = 1.0
    masses = masses + masses[:, ::-1]     # the lattice takes flip-symmetric rows
    masses /= masses.sum()
    table = _subset_entropies(masses, n)
    assert np.abs(table - _bincount_subset_entropies(masses, n)).max() <= 1e-13
    if rows == 1:
        assert np.array_equal(_subset_entropies(masses[0], n), table)
    for block_floats in (1, 2 * 3 ** n):     # one row, then two rows per block
        with mock.patch.object(bms, "_LATTICE_FLOATS", block_floats):
            assert np.array_equal(_subset_entropies(masses, n), table)


def test_subset_lattice_in_an_arena_chunk_returns_a_heap_table():
    masses = np.random.default_rng(4).random(1 << 9)
    masses = masses + masses[::-1]
    masses /= masses.sum()
    heap = _subset_entropies(masses, 9)
    with _ARENA.chunk(_lattice_bytes(9)):
        top = _ARENA.top
        for _ in range(2):        # the second call reuses the first call's views
            table = _subset_entropies(masses, 9)
            assert _ARENA.top == top
            assert not np.shares_memory(table, _ARENA.block)
            assert np.array_equal(table, heap)


@pytest.mark.parametrize("n", range(1, MAX_SUBSET_N + 1))
def test_half_lattice_equals_the_full_lattice_on_block_model_posteriors(n):
    # a survey-free posterior reads cut counts only, so it is flip-symmetric;
    # a = n (or b = n) with a zero intensity leaves labelings of zero mass
    zero_mass = False
    for a, b in sorted({(min(5, n), min(1, n)), (n, 0), (0, n), (min(3, n), 0)}):
        for seed in range(2):
            ll = label_loglik(sample_sbm(n, a, b, seed=seed))
            masses = np.exp(ll - ll.max())
            masses /= masses.sum()
            zero_mass |= bool((masses == 0.0).any())
            assert np.array_equal(_subset_entropies(masses, n),
                                  full_lattice_subset_entropies(masses, n))
    assert zero_mass or n == 1


@pytest.mark.parametrize("spec, radius", [("path:9", 4), ("grid:3x3", 1), ("tree:2:3", 2),
                                          ("cycle:8", 2), ("path:2", 1), ("path:11", 3)])
def test_half_lattice_equals_the_full_lattice_on_spin_sync_rows(monkeypatch, spec, radius):
    # edge outcomes read spin products only, so every outcome row is flip-symmetric
    rows = []

    def checked(w, nb):
        full = full_lattice_subset_entropies(w, nb)
        for floats in (1, 2 * 3 ** nb, bms._LATTICE_FLOATS):   # one row, two, the default
            with mock.patch.object(bms, "_LATTICE_FLOATS", floats):
                assert np.array_equal(_subset_entropies(w, nb), full)
        rows.append(len(w))
        return full

    monkeypatch.setattr(spin_sync, "_subset_entropies", checked)
    for theta in (0.8, 0.3):
        result = mi_root_boundary(SyncGraph.parse(spec, radius), theta, 0.5, exact=True)
        assert result.method == "exact"
    assert len(rows) == 2 and rows[0] > 1


def test_subset_lattice_rejects_rows_that_are_not_their_reverse():
    row = np.array([0.1, 0.2, 0.3, 0.4])
    mirrored = row + row[::-1]
    assert np.array_equal(_subset_entropies(mirrored, 2),
                          full_lattice_subset_entropies(mirrored, 2))
    for masses, n in [(row, 2), (np.stack([mirrored, row]), 2), (np.ones(1), 0)]:
        with pytest.raises(ValueError, match="reverse"):
            _subset_entropies(masses, n)


def test_lattice_bytes_is_the_lattice_footprint(monkeypatch):
    # every array the lattice takes comes from its reservation, which it fills
    # but for the alignment slack
    real, high = _ARENA.empty, []

    def spy(n, dtype=np.float64):
        out = real(n, dtype)
        assert np.shares_memory(out, _ARENA.block)
        high[-1] = max(high[-1], _ARENA.top)
        return out

    monkeypatch.setattr(_ARENA, "empty", spy)
    rng = np.random.default_rng(7)
    for n, rows in [(1, 1), (1, 4), (6, 1), (6, 40), (9, 256), (12, 1), (12, 3)]:
        masses = rng.random((rows, 1 << n))
        monkeypatch.setattr(_ARENA, "block", np.empty(0, np.uint8))
        high.append(0)
        with _ARENA.chunk(_lattice_bytes(n, rows)):
            _subset_entropies(masses + masses[:, ::-1], n)
        assert 0 <= _lattice_bytes(n, rows) - high[-1] <= 128


def test_subset_table_matches_bincount_oracle_at_the_cap():
    inst = sample_sbm(MAX_SUBSET_N, 4.0, 1.0, seed=5)
    ll = label_loglik(inst)
    p = np.exp(ll - ll.max())
    oracle = _bincount_subset_entropies(p / p.sum(), MAX_SUBSET_N)
    table = subset_entropy_table(inst)
    assert table[0] == 0.0
    assert np.abs(table - oracle).max() <= 1e-13


def _matrix_form_loglik(inst):
    # x^T A x over +-1 label rows, as a matrix product; an impossible factor
    # (probability 0) adds -inf where its count is positive and 0 elsewhere
    n = inst.n
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    x = 2 * bits - 1
    adj = inst.adjacency.astype(np.int64)
    m = int(adj.sum()) // 2
    same_edges = (m + ((x @ adj) * x).sum(axis=1) // 2) // 2
    plus = bits.sum(axis=1)
    same_pairs = (plus * (plus - 1) + (n - plus) * (n - plus - 1)) // 2
    same_non = same_pairs - same_edges
    diff_edges = m - same_edges
    diff_non = n * (n - 1) // 2 - same_pairs - diff_edges
    pa, pb = inst.a / n, inst.b / n

    def term(count, possible, log):
        return count * log() if possible else np.where(count > 0, -math.inf, 0.0)

    return (term(same_edges, pa > 0, lambda: math.log(pa))
            + term(same_non, pa < 1, lambda: math.log1p(-pa))
            + term(diff_edges, pb > 0, lambda: math.log(pb))
            + term(diff_non, pb < 1, lambda: math.log1p(-pb)))


def test_label_loglik_counts_match_the_label_matrix_form():
    # the integer counts and hence every log-likelihood must agree bit for bit
    for n, a, b, seed in ((1, 0.5, 0.5, 0), (6, 3.0, 1.0, 1), (9, 5.0, 2.0, 2),
                          (12, 4.0, 1.0, 3)):
        inst = sample_sbm(n, a, b, seed=seed)
        assert np.array_equal(label_loglik(inst), _matrix_form_loglik(inst))


def _fixed_graph(n, a, b, complete):
    adj = np.full((n, n), complete) & ~np.eye(n, dtype=bool)
    return SBMInstance(n, a, b, np.ones(n, dtype=np.int8), adj)


@pytest.mark.parametrize("graphs", [
    [sample_sbm(6, 3.0, 1.0, seed=1)],
    [sample_sbm(9, 5.0, 2.0, seed=s) for s in range(3)],
    [sample_sbm(12, 4.0, 1.0, seed=s) for s in range(5)],
    [_fixed_graph(7, 0.0, 0.0, False)],
    [_fixed_graph(7, 3.0, 1.0, False)],
    [_fixed_graph(7, 7.0, 2.0, True)],
    [_fixed_graph(7, 3.0, 7.0, True)],
    [sample_sbm(8, 0.0, 3.0, seed=s) for s in range(3)],
    [sample_sbm(8, 5.0, 0.0, seed=s) for s in range(3)],
    [sample_sbm(1, 0.5, 0.5, seed=s) for s in range(2)],
    [sample_sbm(MAX_EXACT_N, 4.0, 1.0, seed=s) for s in range(2)],
], ids=["g1", "g3", "g5", "edgeless-a0-b0", "edgeless", "complete-a-n", "complete-b-n",
        "a0", "b0", "n1", "cap"])
def test_block_loglik_rows_match_one_row_calls(graphs):
    # the graphs of a case share n, a and b; a = 0, b = 0 and a or b = n
    # give -inf factors (probability 0) on edges or non-edges
    n, a, b = graphs[0].n, graphs[0].a, graphs[0].b
    none = np.zeros((len(graphs), n), dtype=bool)
    block = sbm._block_loglik(np.stack([g.adjacency for g in graphs]), n, a, b, none, none)
    assert block.shape == (len(graphs), 1 << n)
    for row, g in zip(block, graphs):
        assert np.array_equal(row, label_loglik(g))
        assert np.array_equal(row, _matrix_form_loglik(g))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 10),
       ab=st.sampled_from([(4.0, 1.0), (3.0, 0.0), ("n", 1.0), (0.0, "n")]),
       shown=st.sampled_from(["none", "all", "one erased", "random"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_restricted_enumeration_matches_full_enumeration(n, ab, shown, seed):
    # b = 0, a = n and a = 0, b = n give -inf labelings that agree with the survey
    rng = np.random.default_rng(seed)
    a, b = (float(n) if x == "n" else x for x in ab)
    inst = sbm._sample_sbm_rng(n, a, b, rng)
    revealed = {"none": np.zeros(n, dtype=bool), "all": np.ones(n, dtype=bool),
                "one erased": np.arange(n) != rng.integers(n),
                "random": rng.random(n) < 0.5}[shown]
    survey = SurveyRealization(0.5, revealed, np.where(revealed, inst.labels, 0).astype(np.int8))
    plus = survey.values > 0
    restricted = sbm._block_loglik(inst.adjacency[None], n, a, b, revealed[None], plus[None])[0]
    full = label_loglik(inst)
    agree = (np.arange(1 << n) & (revealed @ (1 << np.arange(n)))) == plus @ (1 << np.arange(n))
    masked = np.where(agree, full, -math.inf)
    assert np.array_equal(restricted[restricted > -math.inf], full[agree & (full > -math.inf)])
    assert np.array_equal(restricted, full[agree])
    expanded = np.full(1 << n, -math.inf)
    expanded[agree] = restricted
    assert np.array_equal(expanded, masked)
    assert exact_entropy_for_instance(inst, survey) == sbm._entropy_from_loglik(masked)


@pytest.mark.parametrize("n, epsilon, count, block_floats", [
    (12, 0.5, 7, 1 << 17), (12, None, 5, 1 << 17), (8, 0.3, 10, 3 << 11), (8, None, 4, 1),
])
def test_exact_chunk_blocks_match_graph_by_graph(n, epsilon, count, block_floats):
    # counts that are not a multiple of the block, blocks of 4 (n = 12), 3 and 1
    def graph_by_graph(rng):
        out = []
        for _ in range(count):
            inst = sbm._sample_sbm_rng(n, 4.0, 1.0, rng)
            survey = None if epsilon is None else sbm._sample_survey_rng(inst, epsilon, rng)
            out.append(exact_entropy_for_instance(inst, survey) / n)
        return np.array(out)

    with mock.patch.object(bms, "_LATTICE_FLOATS", block_floats):
        got = sbm._exact_entropy_chunk(np.random.default_rng(9), count, n=n, a=4.0, b=1.0,
                                       epsilon=epsilon)
    assert np.array_equal(got, graph_by_graph(np.random.default_rng(9)))


@pytest.mark.parametrize("n", [6, 8, 10])
def test_leave_one_out_terms_match_the_per_vertex_reference(n):
    table = subset_entropy_table(sample_sbm(n, 5.0, 1.0, seed=n))
    for epsilon in (0.0, 0.3, 0.5, 1.0):
        assert np.array_equal(sbm._leave_one_out_terms(table, n, epsilon),
                              [leave_one_out_entropy(table, n, u, epsilon) for u in range(n)])


def test_survey_average_matches_brute_force():
    for seed, eps in ((0, 0.3), (1, 0.7)):
        inst = sample_sbm(6, 4.0, 1.0, seed=seed)
        assert survey_averaged_entropy(inst, eps) == pytest.approx(
            _brute_survey_entropy(inst, eps), abs=1e-12)


def test_survey_average_endpoints_and_monotonicity():
    inst = sample_sbm(8, 4.0, 1.0, seed=4)
    table = subset_entropy_table(inst)
    assert survey_averaged_entropy(inst, 0.0, table) == pytest.approx(0.0, abs=1e-12)
    assert survey_averaged_entropy(inst, 1.0, table) == pytest.approx(
        exact_entropy_for_instance(inst), abs=1e-12)
    values = [survey_averaged_entropy(inst, e, table)
              for e in np.linspace(0.0, 1.0, 11)]
    assert all(values[i] <= values[i + 1] + 1e-12 for i in range(10))


def test_single_vertex_reduction_matches_leave_one_out():
    for seed in range(3):
        inst = sample_sbm(7, 5.0, 1.0, seed=seed)
        table = subset_entropy_table(inst)
        assert single_vertex_entropy_all_revealed(inst) == pytest.approx(
            leave_one_out_entropy(table, 7, 0, 0.0), abs=1e-12)


def test_derivative_identity_small_scan():
    report = derivative_identity_scan(6, 3.0, 1.0, 0.5, [0.1, 0.05], 80, seed=1)
    assert report.ok
    assert report.n_graphs == 80
    # per-graph identity: the vertex-sum difference is pure curvature
    for i in range(2):
        assert abs(report.mean_diff_sum[i]) <= abs(report.curvature_fit) * \
            report.h_values[i] ** 2 + 3.0 * report.stderr_diff_sum[i]
    doc = asdict(report)
    assert {"curvature_fit", "identity_ok", "scaling_ok", "ok"} <= set(doc)


def _chunk_counts(monkeypatch) -> list:
    """Record how many chunks each parallel_chunk_map call in sbm runs."""
    counts, real = [], sbm.parallel_chunk_map

    def spy(task, n_items, chunk_size, seed, workers=None):
        counts.append(-(-n_items // chunk_size))
        return real(task, n_items, chunk_size, seed, workers)

    monkeypatch.setattr(sbm, "parallel_chunk_map", spy)
    return counts


def test_exact_conditional_entropy_invariant_under_worker_count(monkeypatch):
    chunks = _chunk_counts(monkeypatch)
    one, two = (exact_conditional_entropy(8, 5.0, 1.0, 0.5, 600, seed=3, workers=w)
                for w in (1, 2))
    assert chunks == [3, 3]
    assert one == two


def test_derivative_identity_scan_invariant_under_worker_count(monkeypatch):
    chunks = _chunk_counts(monkeypatch)
    one, two = (derivative_identity_scan(8, 5.0, 1.0, 0.5, [0.1, 0.05], 46, seed=3, workers=w)
                for w in (1, 2))
    assert chunks == [4, 4]
    assert one == two


def test_derivative_scan_validation():
    with pytest.raises(ValueError):
        derivative_identity_scan(6, 3.0, 1.0, 0.05, [0.1], 10)
    with pytest.raises(ValueError):
        derivative_identity_scan(6, 3.0, 1.0, 0.95, [0.1], 10)
    with pytest.raises(ValueError):
        derivative_identity_scan(6, 3.0, 1.0, 0.5, [], 10)
    for h in (0.0, -0.6, -0.1, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="h_values must be one or more steps h > 0"):
            derivative_identity_scan(6, 3.0, 1.0, 0.5, [0.1, h], 10)
    with pytest.raises(ValueError):
        derivative_identity_scan(MAX_SUBSET_N + 1, 3.0, 1.0, 0.5, [0.1], 10)


def test_tree_integral_equal_intensities():
    report = sbm_entropy_via_trees(3.0, 3.0, eps_grid=9)
    assert report.integral == pytest.approx(math.log(2.0), abs=1e-12)
    assert report.band is None
    assert report.status == "ok"
    assert all(v == pytest.approx(math.log(2.0), abs=1e-12)
               for v in report.entropy_values)


def test_tree_integral_band_in_open_window():
    report = sbm_entropy_via_trees(9.0, 3.0, eps_grid=9)
    bounds = survey_strength_bounds()
    assert report.snr == pytest.approx(1.5)
    assert report.band is not None
    assert report.band["width"] == pytest.approx(bounds.xi_bound, abs=1e-15)
    assert report.band["split_eps"] == pytest.approx(bounds.z_bound, abs=1e-15)
    assert report.band["upper"] == pytest.approx(
        report.band["lower"] + report.band["width"], abs=1e-15)
    assert report.band["split_eps"] in report.eps_values
    assert report.status == "ok"
    assert report.refinement_diff == pytest.approx(
        abs(report.integral - report.integral_coarse), abs=1e-15)


def test_tree_integral_validation():
    with pytest.raises(ValueError):
        sbm_entropy_via_trees(4.0, 1.0, eps_grid=2)


def test_oracle_trend_report_shape():
    report = oracle_vs_integral([4, 6], 3.0, 1.0, eps_grid=9,
                                n_graph_samples=40, seed=0)
    assert report.n_values == [4, 6]
    assert len(report.exact_means) == 2 and len(report.gaps) == 2
    for gap, mean in zip(report.gaps, report.exact_means):
        assert gap == pytest.approx(mean - report.integral, abs=1e-12)
    inner = report.integral_report
    assert inner.n_undecided == sum(inner.flagged)
    assert {"gap_monotone", "integral_report"} <= set(asdict(report))


def test_tree_integral_flags_stalled_endpoint():
    # the fully-erased endpoint of a subcritical model creeps toward the
    # zero-information point without meeting the convergence test; the
    # point must be flagged, never silently accepted
    report = sbm_entropy_via_trees(3.0, 1.0, eps_grid=9)
    assert report.status == "undecided"
    assert report.flagged[-1] and not any(report.flagged[:-1])
    assert report.entropy_values[-1] == pytest.approx(math.log(2.0), abs=1e-5)


def test_tree_integral_meets_the_first_moment_value_below_kesten_stigum():
    """Below the Kesten-Stigum bound, (a - b)^2 < 2 (a + b), the likelihood
    ratio of the block model to the Erdos-Renyi graph of the same mean
    degree has a bounded second moment (Mossel, Neeman & Sly,
    "Reconstruction and estimation in the planted partition model", Probab.
    Theory Relat. Fields 2015).  Their KL divergence is then O(1), so
    I(X; G)/n tends to its first-moment value [a log a + b log b - (a + b)
    log((a + b)/2)]/4, and H(X | G)/n to log 2 minus it.  a=4 b=1 has SNR
    0.9; 129 points land 7.2e-6 from the limit (33 points: 2.7e-4)."""
    a, b = 4.0, 1.0
    first_moment = (a * math.log(a) + b * math.log(b) - (a + b) * math.log((a + b) / 2)) / 4
    report = sbm_entropy_via_trees(a, b, eps_grid=129)
    assert report.status == "ok"
    assert report.integral == pytest.approx(math.log(2.0) - first_moment, abs=1e-5)
    assert math.log(2.0) - first_moment == pytest.approx(0.4522162342827, abs=1e-13)


@pytest.mark.parametrize("a, b, points, status", [
    (4.0, 1.0, 33, "ok"),          # grid holds epsilon = 0 and the trivial epsilon = 1
    (9.0, 3.0, 9, "ok"),           # banded: the split point is inserted
    (3.0, 1.0, 5, "undecided"),    # the fully erased endpoint stalls
])
def test_stacked_sweep_matches_one_row_calls(monkeypatch, a, b, points, status):
    stacked, real = [], sbm._fixed_points

    def spy(*args):
        stacked.extend(real(*args))
        return stacked

    monkeypatch.setattr(sbm, "_fixed_points", spy)
    report = sbm_entropy_via_trees(a, b, eps_grid=points)
    eps = np.linspace(0.0, 1.0, points)
    if report.band is not None:
        eps = np.union1d(eps, [survey_strength_bounds().z_bound])
    cfg = DEConfig(max_depth=400, include_root_survey=False)
    lone = [bp_fixed_point(sbm_tree_model(a, b), SurveySpec.bec(float(e)),
                           InitCondition.perfect_leaves(), cfg) for e in eps]
    assert report.eps_values == [float(e) for e in eps]
    assert report.flagged == [not fp.converged for fp in lone]
    assert report.status == status
    assert [fp.depth for fp in stacked] == [fp.depth for fp in lone]
    assert report.entropy_values == [math.log(2.0) - fp.limit().capacity for fp in lone]


def test_sandwich_report_brackets():
    doc = sandwich_report(8, 4.0, 1.0, 0.5, 5, n_graph_samples=30, seed=3)
    assert doc["tree_lower"] <= doc["tree_upper"] + 1e-12
    assert doc["exact_stderr"] >= 0.0
    assert {"exact_leave_one_out", "tree_lower", "tree_upper", "within"} <= set(doc)
    with pytest.raises(ValueError):
        sandwich_report(MAX_SUBSET_N + 1, 4.0, 1.0, 0.5, 5)
