"""Two-community graph entropy: exact oracles, survey marginalization, tree link."""

import math
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treebp import bms
from treebp.bms import _entropy_of_masses, _subset_entropies
from treebp.density_evolution import DEConfig
from treebp.sbm import (
    MAX_EXACT_N,
    MAX_SUBSET_N,
    derivative_identity_scan,
    exact_conditional_entropy,
    exact_entropy_for_instance,
    label_loglik,
    oracle_vs_integral,
    reference_conditional_entropy,
    sample_sbm,
    sample_survey,
    sandwich_report,
    sbm_entropy_via_trees,
    sbm_snr,
    sbm_tree_model,
    single_vertex_entropy_all_revealed,
    subset_entropy_table,
    survey_averaged_entropy,
)
from treebp.sbm import _leave_one_out_entropy
from treebp.thresholds import survey_strength_bounds

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
    assert inst.edge_count() * 2 == int(inst.adjacency.sum())
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
def test_subset_lattice_matches_bincount_oracle(n, rows, zero_frac, seed):
    rng = np.random.default_rng(seed)
    masses = rng.random((rows, 1 << n))
    masses[rng.random(masses.shape) < zero_frac] = 0.0
    masses.flat[rng.integers(masses.size)] = 1.0
    masses /= masses.sum()
    table = _subset_entropies(masses, n)
    assert np.abs(table - _bincount_subset_entropies(masses, n)).max() <= 1e-13
    if rows == 1:
        assert np.array_equal(_subset_entropies(masses[0], n), table)
    for block_floats in (1, 2 * 3 ** n):     # one row, then two rows per block
        with mock.patch.object(bms, "_LATTICE_FLOATS", block_floats):
            assert np.array_equal(_subset_entropies(masses, n), table)


def test_subset_table_matches_bincount_oracle_at_the_cap():
    inst = sample_sbm(MAX_SUBSET_N, 4.0, 1.0, seed=5)
    ll = label_loglik(inst)
    p = np.exp(ll - ll.max())
    oracle = _bincount_subset_entropies(p / p.sum(), MAX_SUBSET_N)
    table = subset_entropy_table(inst)
    assert table[0] == 0.0
    assert np.abs(table - oracle).max() <= 1e-13


def test_label_loglik_counts_match_the_label_matrix_form():
    # x^T A x over +-1 label rows, as a matrix product: the integer counts
    # and hence every log-likelihood must agree bit for bit
    for n, a, b, seed in ((1, 0.5, 0.5, 0), (6, 3.0, 1.0, 1), (9, 5.0, 2.0, 2),
                          (12, 4.0, 1.0, 3)):
        inst = sample_sbm(n, a, b, seed=seed)
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
        pa, pb = a / n, b / n
        ll = (same_edges * math.log(pa) + same_non * math.log1p(-pa)
              + diff_edges * math.log(pb) + diff_non * math.log1p(-pb))
        assert np.array_equal(label_loglik(inst), ll)


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
            _leave_one_out_entropy(table, 7, 0, 0.0), abs=1e-12)


def test_derivative_identity_small_scan():
    report = derivative_identity_scan(6, 3.0, 1.0, 0.5, [0.1, 0.05], 80, seed=1)
    assert report.ok
    assert report.n_graphs == 80
    # per-graph identity: the vertex-sum difference is pure curvature
    for i in range(2):
        assert abs(report.mean_diff_sum[i]) <= abs(report.curvature_fit) * \
            report.h_values[i] ** 2 + 3.0 * report.stderr_diff_sum[i]
    doc = report.as_dict()
    assert {"curvature_fit", "identity_ok", "scaling_ok", "ok"} <= set(doc)


def test_derivative_scan_validation():
    with pytest.raises(ValueError):
        derivative_identity_scan(6, 3.0, 1.0, 0.05, [0.1], 10)
    with pytest.raises(ValueError):
        derivative_identity_scan(6, 3.0, 1.0, 0.95, [0.1], 10)
    with pytest.raises(ValueError):
        derivative_identity_scan(6, 3.0, 1.0, 0.5, [], 10)
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
    with pytest.raises(ValueError):
        sbm_entropy_via_trees(4.0, 1.0, eps_grid=[0.0, 0.5])
    with pytest.raises(ValueError):
        sbm_entropy_via_trees(4.0, 1.0, eps_grid=[0.1, 0.5, 1.0])
    with pytest.raises(ValueError):
        sbm_entropy_via_trees(4.0, 1.0, config=DEConfig(include_root_survey=True))


def test_oracle_trend_report_shape():
    report = oracle_vs_integral([4, 6], 3.0, 1.0, eps_grid=9,
                                n_graph_samples=40, seed=0)
    assert report.n_values == [4, 6]
    assert len(report.exact_means) == 2 and len(report.gaps) == 2
    for gap, mean in zip(report.gaps, report.exact_means):
        assert gap == pytest.approx(mean - report.integral, abs=1e-12)
    inner = report.integral_report
    assert inner.n_undecided == sum(inner.flagged)
    assert {"gap_monotone", "integral_report"} <= set(report.as_dict())


def test_tree_integral_flags_stalled_endpoint():
    # the fully-erased endpoint of a subcritical model creeps toward the
    # zero-information point without meeting the convergence test; the
    # point must be flagged, never silently accepted
    report = sbm_entropy_via_trees(3.0, 1.0, eps_grid=9)
    assert report.status == "undecided"
    assert report.flagged[-1] and not any(report.flagged[:-1])
    assert report.entropy_values[-1] == pytest.approx(math.log(2.0), abs=1e-5)


def test_sandwich_report_brackets():
    doc = sandwich_report(8, 4.0, 1.0, 0.5, 5, n_graph_samples=30, seed=3)
    assert doc["tree_lower"] <= doc["tree_upper"] + 1e-12
    assert doc["exact_stderr"] >= 0.0
    assert {"exact_leave_one_out", "tree_lower", "tree_upper", "within"} <= set(doc)
    with pytest.raises(ValueError):
        sandwich_report(MAX_SUBSET_N + 1, 4.0, 1.0, 0.5, 5)
