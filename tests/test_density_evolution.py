"""Paired density evolution: stepping, convergence verdicts, invariants."""

import math
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest

from treebp.bms import DeltaDistribution, SurveySpec, is_trivial_survey
from treebp.cli import main
from treebp.density_evolution import (
    DEConfig,
    InitCondition,
    TreeModel,
    _fixed_points,
    _stack_step,
    bp_fixed_point,
    run_pair,
    uniqueness_probe,
)
from treebp.llr_dist import (
    GridConfig,
    SymmetricLLRDistribution,
    SymmetryError,
    _Stack,
    info_measures,
)
from treebp.sbm import sbm_tree_model
from treebp.thresholds import contraction_coeff

from _de_step import de_step, tail_gap_ratios

GRID = GridConfig()


def test_tree_model_validation():
    m = TreeModel.regular(3, 0.5)
    assert m.snr == pytest.approx(0.75)
    assert m.flip == pytest.approx(0.25)
    assert m.describe() == "regular:3"
    assert TreeModel.poisson(4.0, 0.8).describe() == "poisson:4.0"
    with pytest.raises(ValueError):
        TreeModel.regular(3, 1.0)
    with pytest.raises(ValueError):
        TreeModel.regular(2.5, 0.5)
    with pytest.raises(ValueError):
        TreeModel.regular(0, 0.5)
    for d_mean in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            TreeModel.poisson(d_mean, 0.5)
    with pytest.raises(ValueError):
        TreeModel("binary", 2, 0.5)


def test_de_config_validation():
    with pytest.raises(ValueError):
        DEConfig(max_depth=0)
    with pytest.raises(ValueError):
        DEConfig(convergence_tol=0.0)


def test_init_conditions():
    perfect = InitCondition.perfect_leaves().initial_distribution(GRID)
    assert perfect.pos_inf_mass == 1.0
    none = InitCondition.no_leaves().initial_distribution(GRID)
    assert none.masses[GRID.center_index] == 1.0
    custom = InitCondition.custom(DeltaDistribution([(0.49, 1.0)])).initial_distribution(GRID)
    assert info_measures(custom).prob_error == pytest.approx(0.49, abs=1e-6)
    with pytest.raises(ValueError):
        InitCondition("custom").initial_distribution(GRID)


def test_de_step_theta_zero_returns_survey_law():
    # theta = 0 wipes the child messages; only the node survey remains
    mu0 = InitCondition.perfect_leaves().initial_distribution(GRID)
    out = de_step(mu0, TreeModel.regular(3, 0.0), SurveySpec.bsc(0.1))
    im = info_measures(out)
    assert im.prob_error == pytest.approx(0.1, abs=1e-5)
    assert im.bhattacharyya == pytest.approx(0.6, abs=1e-5)


def test_de_step_single_child_perfect_leaf():
    # one perfectly observed child, no survey: flip-mixed saturated edge value,
    # which is exactly the law of a BSC((1 - theta)/2) observation
    mu0 = InitCondition.perfect_leaves().initial_distribution(GRID)
    out = de_step(mu0, TreeModel.regular(1, 0.8), SurveySpec.trivial())
    im = info_measures(out)
    assert im.prob_error == pytest.approx(0.1, abs=1e-5)
    assert im.bhattacharyya == pytest.approx(0.6, abs=1e-5)


def test_de_step_preserves_trivial_point():
    # unobserved boundary plus trivial survey is an exact fixed point
    unit = InitCondition.no_leaves().initial_distribution(GRID)
    out = de_step(unit, TreeModel.regular(5, 0.95), SurveySpec.trivial())
    assert out.masses[GRID.center_index] == 1.0


def test_de_step_grid_mismatch_rejected():
    other = GridConfig(r_max=20.0, n_bins=1001)
    mu = InitCondition.no_leaves().initial_distribution(other)
    with pytest.raises(ValueError):
        de_step(mu, TreeModel.regular(3, 0.5), SurveySpec.trivial(), DEConfig())


def test_run_pair_low_snr_survey_converges():
    report = run_pair(TreeModel.regular(3, 0.5), SurveySpec.bec(0.5), DEConfig())
    assert report.verdict == "bi_holds"
    assert report.converged
    assert report.final_gap < 1e-9
    assert len(report.records) - 1 <= 200
    # both boundary conditions land on the same limit
    assert report.limit_leaves.prob_error == pytest.approx(
        report.limit_noleaves.prob_error, abs=1e-8)


def test_run_pair_trivial_survey_subcritical_stalls_honestly():
    # the unobserved sequence is pinned at the exact trivial point; the
    # observed sequence creeps toward it but the per-step motion drops
    # below tolerance first, so the verdict reports the open gap instead
    # of claiming convergence
    report = run_pair(TreeModel.regular(3, 0.5), SurveySpec.trivial(), DEConfig())
    assert report.verdict == "distinct_limits"
    assert report.limit_noleaves.prob_error == pytest.approx(0.5, abs=1e-12)
    assert report.limit_leaves.prob_error == pytest.approx(0.5, abs=0.01)
    assert report.final_gap < 1e-3


def test_run_pair_high_snr_trivial_survey_distinct_limits():
    report = run_pair(TreeModel.regular(5, 0.95), SurveySpec.trivial(), DEConfig())
    assert report.verdict == "distinct_limits"
    assert report.limit_noleaves.prob_error == pytest.approx(0.5, abs=1e-12)
    assert report.limit_leaves.prob_error < 0.01


@pytest.mark.parametrize("max_depth, verdict", [(150, "undecided"), (200, "undecided"),
                                                (250, "bi_holds")])
def test_run_pair_contracting_gap_is_not_distinct(max_depth, verdict):
    # both sequences move by less than tol per step while the gap still
    # shrinks by 0.902 a step: the limits are not yet shown distinct at any
    # budget, and a budget long enough closes the gap
    cfg = DEConfig(max_depth=max_depth, include_root_survey=False)
    report = run_pair(TreeModel.regular(3, 0.60553), SurveySpec.bec(0.999), cfg)
    assert report.verdict == verdict
    if verdict == "undecided":
        assert len(report.records) == max_depth + 1
        assert all(0.90 < r.gap_ratio < 0.91 for r in report.records[-4:])


def test_run_pair_gap_invariants():
    report = run_pair(TreeModel.regular(3, 0.5), SurveySpec.bec(0.5), DEConfig())
    for r in report.records:
        assert r.gap >= -1e-8
        assert r.noleaves.capacity <= r.leaves.capacity + 1e-8
    caps = [r.leaves.capacity for r in report.records]
    capst = [r.noleaves.capacity for r in report.records]
    assert all(b <= a + 1e-8 for a, b in zip(caps, caps[1:]))
    assert all(b >= a - 1e-8 for a, b in zip(capst, capst[1:]))


def test_run_pair_tail_ratio_respects_contraction_coeff():
    report = run_pair(TreeModel.regular(3, 0.5), SurveySpec.bec(0.5), DEConfig())
    c1 = contraction_coeff(TreeModel.regular(3, 0.5), SurveySpec.bec(0.5))
    tails = tail_gap_ratios(report)
    assert tails
    assert all(r <= 1.05 * c1 for r in tails)


def test_run_pair_deterministic():
    cfg = DEConfig(max_depth=8)
    a = run_pair(TreeModel.regular(3, 0.6), SurveySpec.bec(0.4), cfg)
    b = run_pair(TreeModel.regular(3, 0.6), SurveySpec.bec(0.4), cfg)
    assert a == b


def test_run_pair_include_root_survey_flag():
    cfg_with = DEConfig(max_depth=4)
    cfg_without = DEConfig(max_depth=4, include_root_survey=False)
    with_root = run_pair(TreeModel.regular(3, 0.6), SurveySpec.bec(0.4), cfg_with)
    without_root = run_pair(TreeModel.regular(3, 0.6), SurveySpec.bec(0.4), cfg_without)
    # dropping the root observation can only reduce capacity
    for rw, ro in zip(with_root.records[1:], without_root.records[1:]):
        assert ro.leaves.capacity <= rw.leaves.capacity + 1e-12


def test_trace_csv_format(tmp_path, capsys):
    report = run_pair(TreeModel.regular(3, 0.6), SurveySpec.bec(0.4), DEConfig(max_depth=4))
    path = tmp_path / "trace.csv"
    assert main(["de", "run", "--model", "regular:3", "--theta", "0.6", "--survey", "bec:0.4",
                 "--depth", "4", "--trace-csv", str(path)]) == 2
    capsys.readouterr()
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,Pe_leaves,Pe_noleaves,C_leaves,C_noleaves,Z_leaves,Z_noleaves,gap,gap_ratio"
    assert len(lines) == len(report.records) + 1
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == report.records[0].leaves.prob_error


def check_boundary_irrelevance(model, survey, cfg=None, slack=1e-8):
    """Run the paired evolution and grade the degradation sandwich.

    The entropy gap trace is C(leaves) - C(noleaves) per depth; the sandwich
    check asserts it stays nonnegative, the monotone check that information
    shrinks along the observed sequence and grows along the unobserved one.
    Not applicable without a survey whose error probability is away from 1/2.
    """
    if is_trivial_survey(survey):
        return SimpleNamespace(status="not_applicable", entropy_gap_trace=[],
                               sandwich_ok=True, monotone_ok=True, report=None)
    report = run_pair(model, survey, cfg)
    caps = [r.leaves.capacity for r in report.records]
    capst = [r.noleaves.capacity for r in report.records]
    trace = [c - ct for c, ct in zip(caps, capst)]
    mono_ok = all(caps[i + 1] <= caps[i] + slack for i in range(len(caps) - 1)) and \
        all(capst[i + 1] >= capst[i] - slack for i in range(len(capst) - 1))
    return SimpleNamespace(status=report.verdict, entropy_gap_trace=trace,
                           sandwich_ok=all(g >= -slack for g in trace),
                           monotone_ok=mono_ok, report=report)


def test_check_boundary_irrelevance():
    verdict = check_boundary_irrelevance(TreeModel.regular(3, 0.5), SurveySpec.bec(0.5))
    assert verdict.status == "bi_holds"
    assert verdict.sandwich_ok
    assert verdict.monotone_ok
    assert verdict.entropy_gap_trace[0] == pytest.approx(math.log(2.0))
    assert verdict.entropy_gap_trace[-1] < 1e-8

    na = check_boundary_irrelevance(TreeModel.regular(3, 0.5), SurveySpec.trivial())
    assert na.status == "not_applicable"
    assert na.report is None


def _step_rows(laws):
    return _stack_step(_Stack.of(laws), TreeModel.regular(3, 0.8), [None] * len(laws))


def test_stacked_step_checks_each_row_symmetry():
    unit, perfect = (SymmetricLLRDistribution.unit(GRID),
                     SymmetricLLRDistribution.point(GRID, math.inf))
    _step_rows([unit, perfect, unit])
    with pytest.raises(SymmetryError):     # all mass at -5: far from any symmetric law
        _step_rows([unit, SymmetricLLRDistribution.point(GRID, -5.0), perfect])


def test_stacked_step_checks_each_row_mass():
    masses = np.zeros((3, GRID.n_bins))
    masses[:, GRID.center_index] = [1.0, 1.0 + 2e-7, 1.0]
    off = _Stack(GRID, masses, np.zeros((3, 2)))     # built unchecked
    with pytest.raises(ValueError, match="total mass"):
        _stack_step(off, TreeModel.regular(3, 0.8), [None] * 3)


def test_bp_fixed_point_trivial_is_exact():
    fp = bp_fixed_point(TreeModel.regular(3, 0.5), SurveySpec.trivial(),
                        InitCondition.no_leaves())
    assert fp.converged
    assert fp.depth == 1
    assert fp.limit().prob_error == 0.5
    assert fp.limit().bhattacharyya == 1.0


@pytest.mark.xfail(strict=True,
                   reason="the quantized map settles at an informative fixed point of "
                          "size O(h^2): capacity 3.66e-4 for poisson 2.5 theta 0.6 and "
                          "1.68e-4 for regular:3 theta 0.5 at 2001 bins, reported converged")
def test_survey_free_fixed_point_below_kesten_stigum_is_trivial():
    """With no survey and d theta^2 < 1 the root is not reconstructible from
    the leaves (Evans, Kenyon, Peres & Schulman, "Broadcasting on trees and
    the Ising model", Ann. Appl. Probab. 2000), so even perfect leaves
    leave the root with no information in the limit."""
    for model in (TreeModel.poisson(2.5, 0.6), TreeModel.regular(3, 0.5)):
        fp = bp_fixed_point(model, SurveySpec.trivial(), InitCondition.perfect_leaves())
        assert fp.limit().capacity < 1e-6


def test_bp_fixed_point_converges_from_custom_init():
    fp = bp_fixed_point(TreeModel.regular(3, 0.5), SurveySpec.bec(0.5),
                        InitCondition.custom(DeltaDistribution([(0.25, 1.0)])))
    assert fp.converged
    assert fp.limit().prob_error == pytest.approx(0.10710499032073385, abs=1e-6)


def test_uniqueness_probe_agreement_and_validation():
    probe = uniqueness_probe(TreeModel.regular(3, 0.5), SurveySpec.bec(0.5))
    assert probe.status == "unique"
    assert probe.max_pe_diff < 1e-8
    with pytest.raises(ValueError):
        uniqueness_probe(TreeModel.regular(3, 0.5), SurveySpec.bec(0.5),
                         [InitCondition.perfect_leaves()])


def test_uniqueness_probe_without_root_survey_skips_the_first_step():
    # a=9 b=3: the no-leaves run's first pre-survey law is the unit law it
    # started from; judging that step stopped it at depth 1, 0.37 away
    probe = uniqueness_probe(sbm_tree_model(9, 3), SurveySpec.bec(0.5),
                             cfg=DEConfig(include_root_survey=False))
    assert probe.status == "unique"
    assert probe.max_pe_diff < 1e-8
    assert min(probe.depths) > 2


def test_uniqueness_probe_high_snr_custom_inits():
    probe = uniqueness_probe(
        TreeModel.regular(5, 0.95), SurveySpec.trivial(),
        [InitCondition.perfect_leaves(),
         InitCondition.custom(DeltaDistribution([(0.49, 1.0)]))])
    assert probe.status == "unique"
    assert probe.max_pe_diff < 1e-3


@pytest.mark.parametrize("model", [TreeModel.regular(3, 0.5), TreeModel.poisson(4, 0.7),
                                   TreeModel.regular(5, 0.7)], ids=["r3", "p4", "r5"])
@pytest.mark.parametrize("survey", ["bec:0.5", "bsc:0.2", "bec:0.95"])
def test_probe_rows_equal_their_lone_runs(model, survey):
    # each stacked row takes its own FFT length, so it gets the bits of a
    # lone run whatever length the other row needs
    spec = SurveySpec.parse(survey)
    probe = uniqueness_probe(model, spec)
    lone = [bp_fixed_point(model, spec, init)
            for init in (InitCondition.perfect_leaves(), InitCondition.no_leaves())]
    assert probe.limits == [fp.limit() for fp in lone]
    assert probe.depths == [fp.depth for fp in lone]


@pytest.mark.parametrize("include_root_survey", [True, False])
def test_stacked_rows_equal_their_lone_runs(include_root_survey):
    # more rows than the stack holds, so rows enter as others converge;
    # trivial rows skip the survey sum, BEC and BSC rows add shifted copies
    # and the 6-atom survey goes through the FFT, each row as it would alone
    dense = SurveySpec.from_delta(DeltaDistribution([(0.02 * (i + 1), 1 / 6) for i in range(6)]))
    surveys = [SurveySpec.trivial(), SurveySpec.bec(0.3), SurveySpec.bsc(0.1), dense,
               SurveySpec.bec(0.8), SurveySpec.bsc(0.3)]
    inits = [InitCondition.perfect_leaves(), InitCondition.no_leaves()]
    rows = [(survey, init) for survey in surveys for init in inits]
    np.random.default_rng(5).shuffle(rows)
    model, cfg = TreeModel.regular(3, 0.6), DEConfig(max_depth=60,
                                                      include_root_survey=include_root_survey)
    stacked = _fixed_points(model, rows, cfg)
    for fp, (survey, init) in zip(stacked, rows):
        alone = bp_fixed_point(model, survey, init, cfg)
        assert (fp.trace, fp.converged, fp.init) == (alone.trace, alone.converged, alone.init)


def test_report_serialization_keys():
    report = run_pair(TreeModel.regular(3, 0.6), SurveySpec.bec(0.4), DEConfig(max_depth=3))
    doc = asdict(report)
    assert doc["model"] == "regular:3"
    assert doc["survey"] == "bec:0.4"
    assert {"verdict", "converged", "final_gap", "records",
            "limit_leaves", "limit_noleaves"} <= set(doc)
    rec = doc["records"][0]
    assert {"k", "leaves", "noleaves", "gap", "gap_ratio"} == set(rec)
    assert {"prob_error", "capacity", "chi2_capacity", "bhattacharyya",
            "potential_mean"} == set(rec["leaves"])
