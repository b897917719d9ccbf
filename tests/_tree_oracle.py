"""Single-tree oracle for the batched Monte Carlo engine.

Realizes one broadcast tree at a time with every node expanded (no
pruning below revealed nodes, offspring counts from numpy's Poisson
generator, survey atoms from rng.choice) and runs the exact leaf-to-root
BP recursion on it, so tests can check the batched sampler and its upward
pass against an independent, plainly written implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from treebp.bms import DeltaDistribution, SurveySpec, delta_of, is_trivial_survey
from treebp.density_evolution import TreeModel
from treebp.llr_dist import edge_llr_map
from treebp.monte_carlo import LLR_MAX, BoundaryCondition


@dataclass
class SampledTree:
    """One realized broadcast tree, stored level by level.

    spins[j] holds the +-1 spins of depth-j nodes, parents[j] the index of
    each depth-j node's parent within depth j-1 (parents[0] is None), and
    survey_llr[j] the survey observations for j < depth (None at the leaf
    level, which carries only the boundary).
    """

    model: TreeModel
    survey: SurveySpec
    depth: int
    seed: int
    spins: list[np.ndarray]
    parents: list[np.ndarray | None]
    survey_llr: list[np.ndarray | None]

    @property
    def level_sizes(self) -> list[int]:
        return [int(s.size) for s in self.spins]

    @property
    def n_nodes(self) -> int:
        return sum(self.level_sizes)


@lru_cache(maxsize=None)
def _atom_law(survey: SurveySpec) -> DeltaDistribution | None:
    """The survey's crossover mixture, None when the survey is trivial."""
    return None if is_trivial_survey(survey) else delta_of(survey)


def _survey_llrs(rng: np.random.Generator, dist: DeltaDistribution,
                 spins: np.ndarray) -> np.ndarray:
    """Survey LLRs spin * sign * magnitude: the atom of the survey's law dist
    drawn by its weight, the sign flipped with probability delta, the
    magnitude log((1 - delta) / delta) clipped at LLR_MAX."""
    deltas = np.asarray(dist.deltas, dtype=float)[
        rng.choice(len(dist), size=spins.size, p=np.asarray(dist.weights, dtype=float))]
    sign = np.where(rng.random(spins.size) < deltas, -1.0, 1.0)
    with np.errstate(divide="ignore"):
        mags = np.minimum(np.log1p(-deltas) - np.log(deltas), LLR_MAX)
    return spins * sign * mags


def sample_tree(model: TreeModel, depth: int, survey: SurveySpec, seed: int = 0) -> SampledTree:
    """Realize one tree to the given depth with spins and surveys."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    flip = model.flip

    spins = [rng.integers(0, 2, 1, dtype=np.int8).astype(np.float64) * 2.0 - 1.0]
    parents: list[np.ndarray | None] = [None]
    for j in range(1, depth + 1):
        n_prev = spins[j - 1].size
        if model.kind == "regular":
            counts = np.full(n_prev, int(model.d), dtype=np.int64)
        else:
            counts = rng.poisson(model.d, n_prev)
        par = np.repeat(np.arange(n_prev), counts)
        flips = 1.0 - 2.0 * (rng.random(par.size) < flip)
        spins.append(spins[j - 1][par] * flips)
        parents.append(par)

    dist = _atom_law(survey)
    survey_llr: list[np.ndarray | None] = []
    for j in range(depth + 1):
        if j < depth and dist is not None:
            survey_llr.append(_survey_llrs(rng, dist, spins[j]))
        elif j < depth:
            survey_llr.append(np.zeros(spins[j].size))
        else:
            survey_llr.append(None)
    return SampledTree(model, survey, depth, seed, spins, parents, survey_llr)


def bp_upward(tree: SampledTree, boundary, include_root_survey: bool = True) -> float:
    """Exact leaf-to-root recursion on one sampled tree; returns root LLR.

    boundary is a BoundaryCondition or an explicit sequence of per-leaf
    LLRs.  Running values are saturated at +-LLR_MAX per level.
    """
    k = tree.depth
    theta = tree.model.theta
    n_leaves = tree.spins[k].size
    if not isinstance(boundary, BoundaryCondition):
        if len(boundary) != n_leaves:
            raise ValueError("custom boundary length does not match leaf count")
        r = np.array(boundary, dtype=float)
    elif boundary.kind == "perfect":
        r = tree.spins[k] * math.inf
    elif boundary.kind == "none":
        r = np.zeros(n_leaves)
    else:
        r = np.full(n_leaves, boundary.value if boundary.kind == "plus" else -boundary.value)

    if k == 0:
        return float(np.clip(r, -LLR_MAX, LLR_MAX)[0])
    for j in range(k - 1, -1, -1):
        msg = edge_llr_map(r, theta)
        r = np.bincount(tree.parents[j + 1], weights=msg,
                        minlength=tree.spins[j].size).astype(np.float64)
        if j > 0 or include_root_survey:
            r = r + tree.survey_llr[j]
        np.clip(r, -LLR_MAX, LLR_MAX, out=r)
    return float(r[0])
