"""Contraction coefficients and boundary-irrelevance region thresholds.

The potential-gap contraction factor of the survey broadcast recursion has
closed forms for regular and Poisson offspring.  Both are dominated by a
relaxed bound d theta^2 exp(-(d theta^2 - 1)_+ / 2) Z(W), whose supremum
over the branching number is 2/sqrt(e); the bound certifies boundary
irrelevance whenever it is below 1, and it is below 1 for every channel
once d theta^2 exceeds the root of a exp(-(a-1)/2) = 1 above 1.

contraction_coeff and relaxed_contraction_bound take the tree as a
TreeModel.  The relaxed gain is one function (_gain), read by the bound,
the region labels and the high-SNR threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bms import SurveySpec, bhattacharyya, delta_of
from .density_evolution import TreeModel

__all__ = [
    "high_snr_threshold",
    "peak_contraction_gain",
    "survey_strength_bounds",
    "SurveyStrengthBounds",
    "contraction_coeff",
    "relaxed_contraction_bound",
    "regular_d2_window_endpoint",
    "RegionPoint",
    "bi_region_scan",
]


def _bisect_downcrossing(fn, lo: float, hi: float) -> float:
    """Root of fn where it crosses from positive to negative on (lo, hi), to 1e-9.

    Plain bisection keeping the left end on the positive side, so a zero of
    fn at the left endpoint itself does not confuse the bracket.
    """
    for _ in range(200):
        if hi - lo <= 1e-9:
            break
        mid = 0.5 * (lo + hi)
        if fn(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _gain(a: float) -> float:
    """Relaxed gain a exp(-(a-1)_+ / 2) of the branching SNR a."""
    return a * math.exp(-0.5 * max(a - 1.0, 0.0))


def high_snr_threshold() -> float:
    """Unique a > 1 with a exp(-(a-1)/2) = 1, by bisection on (1, 10).

    Above this branching signal-to-noise value the relaxed contraction bound
    is below 1 for every survey channel, however weak.
    """
    return _bisect_downcrossing(lambda a: _gain(a) - 1.0, 1.0, 10.0)


def peak_contraction_gain() -> float:
    """sup over a >= 0 of a exp(-(a-1)/2), attained at a = 2: 2/sqrt(e)."""
    return 2.0 / math.sqrt(math.e)


@dataclass(frozen=True)
class SurveyStrengthBounds:
    """Survey strength levels that certify boundary irrelevance at every SNR.

    z_bound: largest Bhattacharyya coefficient, sqrt(e)/2.
    pe_bound: largest error probability for a general BMS survey,
        1/2 - sqrt(4-e)/4, from inverting Z <= 2 sqrt(pe (1-pe)).
    xi_bound: width of the entropy uncertainty band left in the unproven
        SNR window, 1 - sqrt(e)/2.
    """

    z_bound: float
    pe_bound: float
    xi_bound: float


def survey_strength_bounds() -> SurveyStrengthBounds:
    z = math.sqrt(math.e) / 2.0
    return SurveyStrengthBounds(
        z_bound=z,
        pe_bound=0.5 - 0.25 * math.sqrt(4.0 - math.e),
        xi_bound=1.0 - z,
    )


def _survey_z(survey: SurveySpec | float) -> float:
    if isinstance(survey, SurveySpec):
        return bhattacharyya(delta_of(survey))
    return float(survey)


def contraction_coeff(model: TreeModel, survey: SurveySpec | float) -> float:
    """Asymptotic potential-gap contraction factor of the model's tree.

    survey may be a SurveySpec or a Bhattacharyya coefficient directly.
    Regular trees need d >= 2.
    """
    a, d = model.snr, model.d
    excess = max(a - 1.0, 0.0)
    if model.kind == "regular":
        if d < 2:
            raise ValueError("regular offspring count must be >= 2")
        factor = (1.0 - excess / (d - 1.0)) ** ((d - 1.0) / 2.0)
    else:
        factor = math.exp(-d * (1.0 - math.sqrt(1.0 - excess / d)))
    return a * factor * _survey_z(survey)


def relaxed_contraction_bound(model: TreeModel, survey: SurveySpec | float) -> float:
    """d theta^2 exp(-(d theta^2 - 1)_+ / 2) Z(W): dominates both exact coefficients."""
    return _gain(model.snr) * _survey_z(survey)


def regular_d2_window_endpoint() -> float:
    """Upper end of the SNR window where the d = 2 coefficient is >= 1.

    Solves a sqrt(2 - a) = 1 above 1 with a perfect survey (Z = 1); the
    root is the golden ratio.
    """
    def gap(a: float) -> float:
        return contraction_coeff(TreeModel.regular(2, math.sqrt(a / 2.0)), 1.0) - 1.0

    return _bisect_downcrossing(gap, 1.0, 2.0 - 1e-12)


@dataclass(frozen=True)
class RegionPoint:
    """One cell of a boundary-irrelevance region scan.

    x is the branching SNR d theta^2; y parameterizes the survey (erasure
    probability for the BEC family, error probability for the worst-case BMS
    family).  bound_value is the relaxed contraction bound at that point;
    criterion names the weakest hypothesis that already certifies the point.
    """

    x: float
    y: float
    bound_value: float
    in_region: bool
    criterion: str


def _worst_case_z(family: str, y: float) -> float:
    if family == "bec":
        return y            # Z of BEC(eps) is eps
    if family == "bms":
        return 2.0 * math.sqrt(y * (1.0 - y))   # concavity: worst Z at given Pe
    raise ValueError("family must be 'bec' or 'bms'")


def region_criterion(snr: float, z: float, y: float | None = None) -> RegionPoint:
    """Certificate label for one (branching SNR, survey Bhattacharyya) point.

    y is only cosmetic (the survey parameter recorded in the point); the
    box test uses the Bhattacharyya coefficient itself.
    """
    bounds = survey_strength_bounds()
    value = _gain(snr) * z
    if snr < 1.0:
        crit = "dtheta2_lt_1"
    elif z < bounds.z_bound:
        crit = "corollary_box"
    elif value < 1.0:
        crit = "relaxed"
    else:
        crit = "none"
    return RegionPoint(x=float(snr), y=float(z if y is None else y),
                       bound_value=value, in_region=crit != "none", criterion=crit)


def bi_region_scan(x_values, y_values, family: str = "bec") -> list[RegionPoint]:
    """Scan the (SNR, survey strength) plane for certified boundary irrelevance.

    in_region is equivalent to bound_value < 1; criterion records which of
    the nested certificates applies first: SNR below 1, the survey-strength
    box, or the relaxed contraction bound itself.  Decreasing the survey's
    Bhattacharyya coefficient never removes a point.  Each point is
    region_criterion at the family's worst-case Z for y, so the box is a
    test on Z: BMS error probabilities y and 1 - y get the same label.
    """
    xs = np.asarray(x_values, dtype=float)
    ys = np.asarray(y_values, dtype=float)
    if not np.all((xs >= 0.0) & (xs < math.inf)):
        raise ValueError("SNR values x must be finite and non-negative")
    if not np.all((ys >= 0.0) & (ys <= 1.0)):
        raise ValueError("survey parameters y must lie in [0, 1]")
    return [region_criterion(float(x), _worst_case_z(family, float(y)), float(y))
            for x in xs for y in ys]
