"""Closed-form contraction constants and region scans."""

import math

import numpy as np
import pytest

from treebp.bms import DeltaDistribution, SurveySpec, bhattacharyya, delta_of
from treebp.density_evolution import TreeModel
from treebp.thresholds import (
    bi_region_scan,
    contraction_coeff,
    high_snr_threshold,
    peak_contraction_gain,
    region_criterion,
    regular_d2_window_endpoint,
    relaxed_contraction_bound,
    survey_strength_bounds,
)


def test_high_snr_threshold_value_and_residual():
    a = high_snr_threshold()
    assert a == pytest.approx(3.513, abs=1e-3)
    assert a * math.exp(-0.5 * (a - 1.0)) == pytest.approx(1.0, abs=1e-8)
    assert a > 1.0


def test_peak_contraction_gain():
    g = peak_contraction_gain()
    assert g == pytest.approx(2.0 / math.sqrt(math.e), abs=1e-12)
    assert g == pytest.approx(1.21306, abs=1e-5)
    # it is the max of x exp(-(x-1)/2) over x >= 0, attained at x = 2
    x = np.linspace(0.0, 10.0, 20001)
    vals = x * np.exp(-0.5 * (x - 1.0))
    assert float(vals.max()) <= g + 1e-9
    assert x[int(np.argmax(vals))] == pytest.approx(2.0, abs=1e-3)


def test_survey_strength_bounds():
    b = survey_strength_bounds()
    assert b.z_bound == pytest.approx(math.sqrt(math.e) / 2.0, abs=1e-15)
    assert b.z_bound == pytest.approx(0.824361, abs=1e-6)
    assert b.pe_bound == pytest.approx(0.5 - 0.25 * math.sqrt(4.0 - math.e), abs=1e-15)
    assert b.pe_bound == pytest.approx(0.216967, abs=1e-6)
    assert b.xi_bound == pytest.approx(1.0 - math.sqrt(math.e) / 2.0, abs=1e-15)
    assert b.xi_bound == pytest.approx(0.175639, abs=1e-6)
    # the z threshold is exactly the reciprocal of the peak gain
    assert b.z_bound * peak_contraction_gain() == pytest.approx(1.0, abs=1e-14)


def test_pe_bound_consistent_with_z_bound():
    # pe_bound solves 2 sqrt(p(1-p)) = z_bound on the informative branch
    p = survey_strength_bounds().pe_bound
    assert 2.0 * math.sqrt(p * (1.0 - p)) == pytest.approx(
        survey_strength_bounds().z_bound, abs=1e-12)


def test_regular_d2_window_endpoint():
    a = regular_d2_window_endpoint()
    assert a == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, abs=1e-6)
    # endpoint solves c1 = 1 at d=2 with a unit-strength survey
    theta = math.sqrt(a / 2.0)
    assert contraction_coeff(TreeModel.regular(2, theta), SurveySpec.trivial()) == \
        pytest.approx(1.0, abs=1e-8)


def test_contraction_coeff_regular_examples():
    c = contraction_coeff(TreeModel.regular(3, 0.5), SurveySpec.bec(0.5))
    assert c == pytest.approx(0.375, abs=1e-12)
    # trivial survey only contributes a unit factor
    c_triv = contraction_coeff(TreeModel.regular(3, 0.5), SurveySpec.trivial())
    assert c_triv == pytest.approx(0.75, abs=1e-12)
    with pytest.raises(ValueError):
        contraction_coeff(TreeModel.regular(1, 0.5), SurveySpec.trivial())


def test_contraction_coeff_regular_closed_form_above_one():
    # d=4, theta=0.8: a=2.56, factor (1-(a-1)/3)^{3/2}
    c = contraction_coeff(TreeModel.regular(4, 0.8), SurveySpec.bec(0.5))
    want = 2.56 * (1.0 - 1.56 / 3.0) ** 1.5 * 0.5
    assert c == pytest.approx(want, abs=1e-12)


def test_contraction_coeff_poisson_examples():
    # below the unit threshold the exponential factor is 1
    c = contraction_coeff(TreeModel.poisson(3.0, 0.5), SurveySpec.bec(0.5))
    assert c == pytest.approx(0.75 * 0.5, abs=1e-12)
    c2 = contraction_coeff(TreeModel.poisson(4.0, 0.8), SurveySpec.bec(0.5))
    want = 2.56 * math.exp(-4.0 * (1.0 - math.sqrt(1.0 - 1.56 / 4.0))) * 0.5
    assert c2 == pytest.approx(want, abs=1e-12)


def test_relaxed_bound_examples():
    # branching SNR 1 with a unit survey factor sits exactly on the boundary
    assert relaxed_contraction_bound(TreeModel.regular(4, 0.5), 1.0) == pytest.approx(
        1.0, abs=1e-12)
    a = high_snr_threshold()
    assert relaxed_contraction_bound(TreeModel.regular(16, math.sqrt(a) / 4.0), 1.0) == \
        pytest.approx(1.0, abs=1e-7)
    got = relaxed_contraction_bound(TreeModel.regular(4, 0.8), SurveySpec.bec(0.5))
    assert got == pytest.approx(2.56 * math.exp(-0.78) * 0.5, abs=1e-12)
    assert got == pytest.approx(0.587, abs=1e-3)


def test_relaxed_bound_dominates_both_coefficients():
    rng = np.random.default_rng(12)
    for _ in range(200):
        d = int(rng.integers(2, 9))
        theta = float(rng.uniform(0.05, 0.99))
        eps = float(rng.uniform(0.0, 1.0))
        survey = SurveySpec.bec(eps)
        relaxed = relaxed_contraction_bound(TreeModel.regular(d, theta), survey)
        assert relaxed_contraction_bound(TreeModel.poisson(d, theta), survey) == relaxed
        assert contraction_coeff(TreeModel.regular(d, theta), survey) <= relaxed + 1e-12
        assert contraction_coeff(TreeModel.poisson(d, theta), survey) <= relaxed + 1e-12


def test_relaxed_bound_shape_outside_window():
    # with a unit survey factor the bound dips below 1 exactly outside [1, a*]
    a_star = high_snr_threshold()
    for snr in (0.2, 0.9999, a_star + 1e-4, 5.0, 20.0):
        inside = 1.0 <= snr <= a_star
        value = relaxed_contraction_bound(TreeModel.poisson(25.0, math.sqrt(snr / 25.0)), 1.0)
        assert (value < 1.0) == (not inside)


def test_region_criterion_labels():
    z_bound = survey_strength_bounds().z_bound
    low = region_criterion(0.5, 0.9)
    assert low.in_region and low.criterion == "dtheta2_lt_1"
    box = region_criterion(2.0, z_bound - 1e-6)
    assert box.in_region and box.criterion == "corollary_box"
    relaxed = region_criterion(6.0, 0.99)
    assert relaxed.in_region and relaxed.criterion == "relaxed"
    out = region_criterion(2.0, 0.99)
    assert not out.in_region and out.criterion == "none"
    assert out.bound_value == pytest.approx(2.0 * math.exp(-0.5) * 0.99, abs=1e-12)


def test_region_criterion_box_is_consistent():
    # anything certified by the z box also satisfies the relaxed bound
    z_bound = survey_strength_bounds().z_bound
    rng = np.random.default_rng(13)
    for _ in range(500):
        snr = float(rng.uniform(0.0, 12.0))
        z = float(rng.uniform(0.0, z_bound))
        pt = region_criterion(snr, z)
        assert pt.in_region
        assert pt.bound_value < 1.0 + 1e-12


def test_bi_region_scan_bec_examples():
    pts = bi_region_scan([0.5, 2.0, 2.0, 2.0], [0.9, 0.824, 0.99, 0.5], family="bec")
    table = {(p.x, p.y): p for p in pts}
    assert table[(0.5, 0.9)].in_region
    assert table[(2.0, 0.824)].in_region            # inside the z box
    assert not table[(2.0, 0.99)].in_region
    assert table[(2.0, 0.99)].bound_value == pytest.approx(2.0 * math.exp(-0.5) * 0.99, abs=1e-9)
    assert table[(2.0, 0.5)].in_region              # relaxed bound 0.607 < 1 at z = 0.5


def test_bi_region_scan_grid_shape_and_monotonicity():
    xs = list(np.linspace(0.25, 6.0, 12))
    ys = list(np.linspace(0.05, 1.0, 10))
    pts = bi_region_scan(xs, ys, family="bec")
    assert len(pts) == len(xs) * len(ys)
    # shrinking the survey Z never removes a point from the region
    by_x = {}
    for p in pts:
        by_x.setdefault(p.x, []).append(p)
    for rows in by_x.values():
        rows.sort(key=lambda p: p.y)
        seen_out = False
        for p in rows:
            if not p.in_region:
                seen_out = True
            else:
                assert not seen_out or p.criterion == "dtheta2_lt_1"


def test_bi_region_scan_bms_family():
    pe_bound = survey_strength_bounds().pe_bound
    pts = bi_region_scan([2.0], [pe_bound - 1e-6, 0.49], family="bms")
    inside, outside = pts[0], pts[1]
    assert inside.in_region
    assert not outside.in_region
    with pytest.raises(ValueError):
        bi_region_scan([1.0], [0.5], family="gaussian")


def test_bi_region_scan_uses_the_region_ladder():
    # a BMS error probability y and 1 - y give the same Z, so both sit in the box
    pe_bound = survey_strength_bounds().pe_bound
    xs, ys = [0.5, 2.0, 6.0], [0.1, pe_bound + 1e-3, 0.5, 1.0 - pe_bound + 1e-3, 0.95]
    for p in bi_region_scan(xs, ys, family="bms"):
        ref = region_criterion(p.x, 2.0 * math.sqrt(p.y * (1.0 - p.y)), p.y)
        assert p == ref
        assert p.in_region == (p.bound_value < 1.0)
    labels = {p.y: p.criterion for p in bi_region_scan([2.0], ys, family="bms")}
    assert labels[0.1] == labels[0.95] == "corollary_box"


@pytest.mark.parametrize("xs, ys", [
    ([math.nan], [0.5]), ([-0.5], [0.5]), ([math.inf], [0.5]),
    ([1.0], [1.5]), ([1.0], [-0.1]), ([1.0], [math.nan]),
], ids=["nan-x", "negative-x", "infinite-x", "y-above-one", "negative-y", "nan-y"])
def test_bi_region_scan_rejects_bad_coordinates(xs, ys):
    with pytest.raises(ValueError):
        bi_region_scan(xs, ys, family="bms")
