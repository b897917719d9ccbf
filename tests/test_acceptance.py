"""Release gate: thirteen numbered checks with pinned tolerances and budgets.

Run with -s to see one printed PASS/FAIL line per check.  Check 3 carries a
known engine-honest expected failure on its fixed-point-value clause; see the
strict xfail below.
"""

import functools
import math
import time

import numpy as np
import pytest

from treebp.bms import SurveySpec, bhattacharyya, delta_of
from treebp.density_evolution import (
    DEConfig,
    InitCondition,
    TreeModel,
    run_pair,
    uniqueness_probe,
)
from treebp.llr_dist import DeltaDistribution
from treebp.monte_carlo import (
    degradation_check,
    estimate_entropy_pair,
    majority_stats,
    wsm_probe,
)
from treebp.sbm import (
    exact_entropy_for_instance,
    sample_sbm,
    sample_survey,
    sbm_entropy_via_trees,
)
from treebp.spin_sync import SyncGraph, mi_root_boundary
from treebp.thresholds import (
    contraction_coeff,
    high_snr_threshold,
    peak_contraction_gain,
    regular_d2_window_endpoint,
    survey_strength_bounds,
)

from _de_step import tail_gap_ratios
from _sbm_oracle import oracle_vs_integral, reference_conditional_entropy


def criterion(num, label, budget_s):
    """Print one status line per check and enforce the runtime budget."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException as exc:
                elapsed = time.perf_counter() - start
                note = str(exc).splitlines()[0][:120] if str(exc) else type(exc).__name__
                print(f"criterion {num} ({label}): FAIL [{elapsed:.1f}s] {note}")
                raise
            elapsed = time.perf_counter() - start
            print(f"criterion {num} ({label}): PASS [{elapsed:.1f}s]")
            assert elapsed < budget_s, f"runtime {elapsed:.1f}s over {budget_s}s budget"
        return wrapper
    return deco


@criterion("01", "closed-form constants", 1.0)
def test_criterion_01_constants():
    bounds = survey_strength_bounds()
    assert high_snr_threshold() == pytest.approx(3.513, abs=1e-3)
    assert bounds.z_bound == pytest.approx(0.824361, abs=1e-6)
    assert bounds.pe_bound == pytest.approx(0.216967, abs=1e-6)
    assert peak_contraction_gain() == pytest.approx(2.0 / math.sqrt(math.e),
                                                   abs=1e-12)


@pytest.mark.xfail(strict=True,
                   reason="2/sqrt(e) = 1.2130613..., which is 1.32e-6 from the "
                          "five-decimal rendering 1.21306; no value can be "
                          "within 1e-6 of both")
@criterion("01", "peak gain five-decimal rendering clause", 1.0)
def test_criterion_01_peak_gain_decimal_clause():
    assert peak_contraction_gain() == pytest.approx(1.21306, abs=1e-6)


@criterion("02", "two-child window endpoint", 1.0)
def test_criterion_02_d2_endpoint():
    assert regular_d2_window_endpoint() == pytest.approx(
        (1.0 + math.sqrt(5.0)) / 2.0, abs=1e-6)


@criterion("03", "low-snr pair: gap closes, limits agree", 10.0)
def test_criterion_03_low_snr_gap():
    report = run_pair(TreeModel.regular(3, 0.5), SurveySpec.bec(0.5),
                      DEConfig(max_depth=200))
    assert report.verdict == "bi_holds"
    assert len(report.records) <= 201
    assert report.records[-1].gap < 1e-9
    final = report.records[-1]
    assert abs(final.leaves.prob_error - final.noleaves.prob_error) <= 1e-4


@pytest.mark.xfail(strict=True,
                   reason="the survey-included fixed point sits near 0.107, "
                          "not at the stated 0.5; the no-information value is "
                          "unreachable once the erasure survey observes nodes")
@criterion("03", "low-snr fixed-point value clause", 10.0)
def test_criterion_03_low_snr_pe_value():
    report = run_pair(TreeModel.regular(3, 0.5), SurveySpec.bec(0.5),
                      DEConfig(max_depth=200))
    final = report.records[-1]
    assert final.leaves.prob_error == pytest.approx(0.5, abs=1e-4)
    assert final.noleaves.prob_error == pytest.approx(0.5, abs=1e-4)


@criterion("04", "high-snr uniqueness", 30.0)
def test_criterion_04_high_snr_uniqueness():
    model = TreeModel.regular(5, 0.95)
    assert model.snr > high_snr_threshold()
    probe = uniqueness_probe(
        model, SurveySpec.trivial(),
        inits=[InitCondition.perfect_leaves(),
               InitCondition.custom(DeltaDistribution([(0.49, 1.0)]))])
    assert probe.status == "unique"
    assert probe.max_pe_diff <= 1e-3


@criterion("05", "contraction rate of the pair gap", 60.0)
def test_criterion_05_contraction_rates():
    survey = SurveySpec.bec(0.5)
    c1 = contraction_coeff(TreeModel.regular(4, 0.8), survey)
    reg = run_pair(TreeModel.regular(4, 0.8), survey)
    ratios = tail_gap_ratios(reg)
    assert ratios, "no usable tail window"
    assert max(ratios) <= 1.05 * c1

    c2 = contraction_coeff(TreeModel.poisson(4.0, 0.8), survey)
    poi = run_pair(TreeModel.poisson(4.0, 0.8), survey)
    ratios = tail_gap_ratios(poi)
    assert ratios, "no usable tail window"
    assert max(ratios) <= 1.05 * c2


@criterion("06", "gap sign and entropy sandwich on a 5x5 grid", 300.0)
def test_criterion_06_nonnegativity_sandwich_grid():
    d = 5
    for x in (0.5, 0.9, 1.5, 2.5, 4.0):
        theta = math.sqrt(x / d)
        for eps in (0.1, 0.3, 0.5, 0.7, 0.9):
            report = run_pair(TreeModel.regular(d, theta), SurveySpec.bec(eps))
            for rec in report.records:
                assert rec.gap >= -1e-8, (x, eps, rec.k)
                assert rec.noleaves.capacity <= rec.leaves.capacity + 1e-8, \
                    (x, eps, rec.k)


@criterion("07", "boundary majority moments and ratio", 120.0)
def test_criterion_07_majority_statistics():
    reg = majority_stats(TreeModel.regular(4, 0.7), 0.1, 8, 100_000, seed=9)
    assert reg.ratio_limit == pytest.approx(0.53125, abs=1e-12)
    assert abs(reg.ratio - reg.ratio_limit) <= 0.10 * reg.ratio_limit
    assert abs(reg.sample_mean - reg.closed_form_mean) <= 4.0 * reg.sample_mean_stderr
    assert abs(reg.sample_var - reg.closed_form_var) <= 4.0 * reg.sample_var_stderr

    poi = majority_stats(TreeModel.poisson(4.0, 0.7), 0.1, 8, 100_000, seed=9)
    assert poi.ratio_limit == pytest.approx(1.0 / 0.96, abs=1e-12)
    assert abs(poi.ratio - poi.ratio_limit) <= 0.10 * poi.ratio_limit
    assert abs(poi.sample_mean - poi.closed_form_mean) <= 4.0 * poi.sample_mean_stderr
    assert abs(poi.sample_var - poi.closed_form_var) <= 4.0 * poi.sample_var_stderr


@criterion("08", "coupled conditional-mean ordering", 120.0)
def test_criterion_08_degradation_bins():
    report = degradation_check(TreeModel.regular(3, 0.7), SurveySpec.bec(0.6),
                               6, 100_000, 20, seed=5)
    assert report.n_flagged == 0
    assert report.ok


def _check_mc_against_de(model, survey, depth, n_samples):
    pair = estimate_entropy_pair(model, survey, depth, n_samples, seed=42)
    report = run_pair(model, survey)
    rec = next(r for r in report.records if r.k == depth)
    h_leaves = math.log(2.0) - rec.leaves.capacity
    h_noleaves = math.log(2.0) - rec.noleaves.capacity
    assert abs(pair.leaves.estimate - h_leaves) <= \
        3.0 * pair.leaves.stderr + 1e-3
    assert abs(pair.no_leaves.estimate - h_noleaves) <= \
        3.0 * pair.no_leaves.stderr + 1e-3


@criterion("09", "sampled entropies against the deterministic pair", 180.0)
def test_criterion_09_mc_de_cross_validation():
    _check_mc_against_de(TreeModel.regular(4, 0.8), SurveySpec.bec(0.5), 8, 100_000)


# Poisson offspring with erasures (the sampler prunes below reveals) and a
# BSC survey (no node is revealed, every node is expanded).
@pytest.mark.parametrize("model, survey, depth, n_samples", [
    (TreeModel.poisson(3.0, 0.8), SurveySpec.bec(0.4), 8, 100_000),
    (TreeModel.regular(3, 0.7), SurveySpec.bsc(0.2), 6, 20_000),
], ids=["poisson-bec", "regular-bsc"])
@criterion("09", "sampled entropies against the deterministic pair, more points", 10.0)
def test_criterion_09_more_points(model, survey, depth, n_samples):
    _check_mc_against_de(model, survey, depth, n_samples)


@criterion("10", "erasure derivative identity with h^2 scaling", 300.0)
def test_criterion_10_sbm_derivative_identity():
    from treebp.sbm import derivative_identity_scan
    report = derivative_identity_scan(8, 5.0, 1.0, 0.5, [0.1, 0.05, 0.025],
                                      200, seed=0)
    assert report.ok
    assert all(report.identity_ok) and all(report.scaling_ok)
    # quartering steps should quarter the curvature term
    m = [abs(v) for v in report.mean_diff_sum]
    assert m[0] / m[1] == pytest.approx(4.0, rel=0.35)
    assert m[1] / m[2] == pytest.approx(4.0, rel=0.35)


@criterion("11", "graph entropy vs tree integral: trend and band", 600.0)
def test_criterion_11_sbm_limit_substitutes():
    # dual-implementation agreement of the exact oracle
    for seed in range(4):
        inst = sample_sbm(7, 4.0, 1.0, seed=seed)
        survey = sample_survey(inst, 0.5, seed=seed + 100)
        assert abs(exact_entropy_for_instance(inst)
                   - reference_conditional_entropy(inst)) <= 1e-10
        assert abs(exact_entropy_for_instance(inst, survey)
                   - reference_conditional_entropy(inst, survey)) <= 1e-10

    # finite-n trend next to the integral; the limit is out of desk reach,
    # so the gap sequence is reported, not closed
    trend = oracle_vs_integral([6, 8, 10, 12], 4.0, 1.0, eps_grid=33,
                               n_graph_samples=400, seed=0)
    assert len(trend.gaps) == 4
    print("    per-n gaps to the integral:",
          ["%.5f" % g for g in trend.gaps])
    assert trend.integral_report.refinement_diff < 1e-3

    banded = sbm_entropy_via_trees(9.0, 3.0, eps_grid=33)
    assert banded.band is not None
    assert banded.band["width"] <= 0.17564 + 1e-9


@criterion("12", "boundary sensitivity: contraction and separation", 120.0)
def test_criterion_12_wsm():
    contraction = wsm_probe(TreeModel.regular(2, 0.4), SurveySpec.trivial(),
                            12, 32, seed=1)
    assert contraction.regime == "contraction"
    assert contraction.measured_rate <= 0.84

    separation = wsm_probe(TreeModel.regular(3, 0.5), SurveySpec.bsc(0.49),
                           10, 200, seed=2)
    assert separation.regime == "separation"
    assert separation.status == "ok"
    assert separation.x_found is not None
    assert separation.persists


@criterion("13", "root-boundary information decay on the path", 60.0)
def test_criterion_13_spin_sync():
    values = [mi_root_boundary(SyncGraph.path(9, radius=r), 0.8, 0.9).value
              for r in (1, 2, 3, 4)]
    assert all(values[i] > values[i + 1] for i in range(3))
    zero = mi_root_boundary(SyncGraph.path(9, radius=2), 0.8, 0.0)
    assert zero.value == 0.0 and zero.method == "exact"


def test_survey_strength_consistency():
    # the three constants describe one curve: z at its bound saturates the
    # peak gain, and pe_bound realizes z_bound on the flip-probability scale
    bounds = survey_strength_bounds()
    assert bounds.z_bound * peak_contraction_gain() == pytest.approx(1.0, abs=1e-12)
    z_at_pe = bhattacharyya(delta_of(SurveySpec.bsc(bounds.pe_bound)))
    assert z_at_pe == pytest.approx(bounds.z_bound, abs=1e-12)
