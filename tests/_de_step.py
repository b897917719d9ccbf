"""One density-evolution step on a single law, for tests that step by hand."""

from __future__ import annotations

from treebp.bms import SurveySpec
from treebp.density_evolution import DEConfig, TreeModel, _step_views, _survey_distribution
from treebp.llr_dist import SymmetricLLRDistribution


def de_step(mu: SymmetricLLRDistribution, model: TreeModel, survey: SurveySpec,
            cfg: DEConfig | None = None) -> SymmetricLLRDistribution:
    """Child-message law one level up, survey included at the new node."""
    cfg = cfg or DEConfig(grid=mu.grid)
    if cfg.grid != mu.grid:
        raise ValueError("grid mismatch between distribution and config")
    survey_dist = _survey_distribution(survey, mu.grid)
    return _step_views(mu, model, survey_dist)[1]
