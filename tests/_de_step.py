"""One density-evolution step on a single law, for tests that step by hand,
and the clean tail of a paired evolution's gap ratios."""

from __future__ import annotations

import math

from treebp.bms import SurveySpec
from treebp.density_evolution import (
    _RATIO_FLOOR,
    DEConfig,
    EvolutionReport,
    TreeModel,
    _step_views,
    _survey_distribution,
)
from treebp.llr_dist import SymmetricLLRDistribution


def de_step(mu: SymmetricLLRDistribution, model: TreeModel, survey: SurveySpec,
            cfg: DEConfig | None = None) -> SymmetricLLRDistribution:
    """Child-message law one level up, survey included at the new node."""
    cfg = cfg or DEConfig(grid=mu.grid)
    if cfg.grid != mu.grid:
        raise ValueError("grid mismatch between distribution and config")
    survey_dist = _survey_distribution(survey, mu.grid)
    return _step_views(mu, model, survey_dist)[1]


def tail_gap_ratios(report: EvolutionReport) -> list[float]:
    """Last four positive gap contraction ratios whose gap is at least 1e-13
    and whose previous gap is at least 1e-7."""
    ratios = [r.gap_ratio for r in report.records
              if math.isfinite(r.gap_ratio) and r.gap >= _RATIO_FLOOR and r.gap_ratio > 0
              and r.gap / max(r.gap_ratio, 1e-300) >= 1e-7]
    return ratios[-4:]
