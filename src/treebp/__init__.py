"""Belief propagation on broadcast trees with per-node surveys.

Tooling for the binary broadcast process on regular and Poisson trees where
every node additionally emits a noisy "survey" observation of its spin:
exact channel algebra for BMS channels in crossover-mixture form, quantized
density evolution with paired boundary conditions, contraction thresholds,
Monte Carlo estimators on sampled trees, exact block-model entropy oracles,
and exact mutual-information probes for spin synchronization on small graphs.
"""

__version__ = "0.1.0"

from .bms import (
    DeltaDistribution,
    SurveySpec,
    bhattacharyya,
    capacity,
    chi2_capacity,
    delta_of,
    prob_error,
)
from .density_evolution import (
    DEConfig,
    InitCondition,
    TreeModel,
    bp_fixed_point,
    run_pair,
    uniqueness_probe,
)
from .llr_dist import GridConfig, SymmetricLLRDistribution

__all__ = [
    "DeltaDistribution",
    "SurveySpec",
    "GridConfig",
    "SymmetricLLRDistribution",
    "TreeModel",
    "DEConfig",
    "InitCondition",
    "bhattacharyya",
    "bp_fixed_point",
    "capacity",
    "chi2_capacity",
    "delta_of",
    "prob_error",
    "run_pair",
    "uniqueness_probe",
    "__version__",
]
