"""Monte Carlo engine for surveyed broadcast trees.

Samples trees with spins and per-node surveys level by level, then runs the
exact belief-propagation recursion upward under a chosen leaf boundary
condition.  Depths 0..k-1 carry surveys (the root's controlled by a flag);
depth-k leaves carry only the boundary, matching the density evolution
convention so the two engines are directly comparable.  Root LLRs are
saturated at +-LLR_MAX nats, mirroring the evolution grid range.

Estimators are chunked: each chunk of samples draws from an RNG stream
derived from the master seed and the chunk index, and chunk results are
reduced in order, so outputs are bit-identical for any worker count.

The batched sampler never materializes leaf spins: a leaf block's
contribution to its parent reduces to the net spin sum, a binomial draw on
regular trees and a Skellam draw on Poisson trees.  Poisson quantities
come from inverse-CDF tables, one uniform per draw read off a guide
table.  Spins are +-1 int8 and flip by a product with +-1, so every
product with a spin is exact.  The sampler also
stops expanding below survey-revealed nodes.  A node whose survey
draw falls on the noiseless atom (delta = 0) knows its spin, so by the
Markov property of the broadcast its subtree tells its ancestors nothing
more: the sampler draws no children for it, and the upward pass gives it
the LLR spin * LLR_MAX (density evolution's reveal is +-infinity).  A
revealed root settles its whole tree.  The root is never pruned when its
own survey is excluded.  Surveys without a noiseless atom prune nothing
and draw exactly what the full tree draws.  The boundary-sensitivity
probe keeps every node, since it averages over whole levels.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache, partial, reduce

import numpy as np

from ._parallel import parallel_chunk_map
from .bms import SurveySpec, binary_entropy, delta_of, is_trivial_survey
from .density_evolution import TreeModel
from .llr_dist import edge_llr_map

__all__ = [
    "LLR_MAX",
    "BoundaryCondition",
    "EstimatorResult",
    "PairedEntropyEstimate",
    "DegradationBin",
    "DegradationReport",
    "MajorityReport",
    "WSMReport",
    "estimate_entropy",
    "estimate_entropy_pair",
    "degradation_check",
    "majority_stats",
    "majority_closed_forms",
    "wsm_probe",
]

LLR_MAX = 30.0

# Trees per chunk: bounded work set independent of worker count.
_CHUNK_NODE_BUDGET = 4_000_000
_CHUNK_TREE_CAP = 4096

# Count tables drop tail entries below this probability.
_TABLE_FLOOR = 2.0 ** -60

# Inverse-CDF lookups go through a guide table of this many equal bins of [0, 1).
_GUIDE_SIZE = 1 << 12


@dataclass(frozen=True)
class BoundaryCondition:
    """Leaf-level initialization for the upward recursion.

    kinds: "perfect" (leaf spin revealed, LLR = spin * infinity), "none"
    (LLR 0), and "plus"/"minus" (constant +-value regardless of spins).
    """

    kind: str
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in ("perfect", "none", "plus", "minus"):
            raise ValueError(f"unknown boundary kind {self.kind!r}")
        if self.kind in ("plus", "minus") and not self.value > 0.0:
            raise ValueError("constant boundary magnitude must be positive")

    @classmethod
    def perfect(cls) -> "BoundaryCondition":
        return cls("perfect")

    @classmethod
    def none(cls) -> "BoundaryCondition":
        return cls("none")

    @classmethod
    def plus(cls, value: float = LLR_MAX) -> "BoundaryCondition":
        return cls("plus", float(value))

    @classmethod
    def minus(cls, value: float = LLR_MAX) -> "BoundaryCondition":
        return cls("minus", float(value))

    @classmethod
    def parse(cls, text: str) -> "BoundaryCondition":
        body = text.strip().lower()
        if body == "perfect":
            return cls.perfect()
        if body == "none":
            return cls.none()
        if body.startswith("plus:"):
            return cls.plus(float(body[5:]))
        if body.startswith("minus:"):
            return cls.minus(float(body[6:]))
        if body == "plus":
            return cls.plus()
        if body == "minus":
            return cls.minus()
        raise ValueError(f"cannot parse boundary condition {text!r}")

    def describe(self) -> str:
        if self.kind in ("plus", "minus"):
            return f"{self.kind}:{self.value:g}"
        return self.kind


@dataclass(frozen=True)
class EstimatorResult:
    estimate: float
    stderr: float
    n_samples: int
    seed: int

    def as_dict(self) -> dict:
        return {"estimate": self.estimate, "stderr": self.stderr,
                "n_samples": self.n_samples, "seed": self.seed}


@dataclass(frozen=True)
class PairedEntropyEstimate:
    """Root entropy with and without leaf observations, coupled sample-wise.

    diff estimates E[H_noleaves - H_leaves] on the shared realizations; its
    stderr reflects the pairing and is the right scale for ordering checks.
    """

    leaves: EstimatorResult
    no_leaves: EstimatorResult
    diff: EstimatorResult

    def as_dict(self) -> dict:
        return {"leaves": self.leaves.as_dict(), "no_leaves": self.no_leaves.as_dict(),
                "diff": self.diff.as_dict()}


def _mean_result(values: np.ndarray, seed: int) -> EstimatorResult:
    n = values.size
    if float(values.min()) == float(values.max()):
        return EstimatorResult(float(values[0]), 0.0, n, seed)
    sd = float(np.std(values, ddof=1))
    return EstimatorResult(float(np.mean(values)), sd / math.sqrt(n), n, seed)


def _nodes_per_tree(model: TreeModel, depth: int, reveal: float,
                    include_root_survey: bool = True) -> int:
    """Expected nodes drawn per tree, sum_{j <= depth} (d (1 - reveal))^j,
    when each node is revealed, and so drawn without children, with
    probability reveal.  A root whose survey is excluded is never
    revealed: it draws all d children, each the root of a surveyed tree."""
    if not include_root_survey and reveal > 0.0 and depth > 0:
        return 1 + int(model.d * _nodes_per_tree(model, depth - 1, reveal))
    x = model.d * (1.0 - reveal)
    if x == 1.0:
        return depth + 1
    return int((x ** (depth + 1) - 1) / (x - 1)) + 1


def _chunk_trees(model: TreeModel, depth: int, reveal: float = 0.0,
                 include_root_survey: bool = True) -> int:
    nodes = _nodes_per_tree(model, depth, reveal, include_root_survey)
    return max(1, min(_CHUNK_TREE_CAP, _CHUNK_NODE_BUDGET // nodes))


def _reveal_weight(survey: SurveySpec) -> float:
    """Weight of the survey's noiseless atom (delta = 0), the last atom."""
    dist = delta_of(survey)
    return float(dist.weights[-1]) if dist.deltas[-1] == 0.0 else 0.0


def _rademacher(rng: np.random.Generator, n: int) -> np.ndarray:
    """n fair spins, +-1 as int8."""
    return 2 * rng.integers(0, 2, n, dtype=np.int8) - 1


def _flipped(spins: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The +-1 spins negated where mask holds: a product with +-1 int8,
    exact, and far cheaper than a masked np.negative."""
    return spins * (1 - 2 * mask.view(np.int8))


class _InverseCDF:
    """first + searchsorted(cdf, u, side="right") for uniforms u in [0, 1),
    through a guide table (Chen & Asau 1974; Devroye, Non-Uniform Random
    Variate Generation, III.2.4).

    The guide splits [0, 1) into G = _GUIDE_SIZE equal bins and holds the
    search result at both ends of each bin: at k/G and at the largest
    double below (k+1)/G.  The search is monotone in u, so where the two
    agree every u in the bin has that result; only uniforms in the few
    bins that a CDF entry splits are searched.  G is a power of two, so
    u * G is exact, each u lands in its own bin, and the result equals the
    binary search bit for bit.  cdf must end at 1.0.
    """

    def __init__(self, cdf: np.ndarray, first: int = 0):
        self.cdf, self.first = cdf, first
        lo = np.arange(_GUIDE_SIZE) / _GUIDE_SIZE
        at_lo = np.searchsorted(cdf, lo, side="right")
        at_hi = np.searchsorted(cdf, np.nextafter(lo + 1.0 / _GUIDE_SIZE, 0.0), side="right")
        self.guide = at_lo + first
        self.split = at_lo != at_hi

    def __call__(self, u: np.ndarray) -> np.ndarray:
        k = np.empty(u.size, dtype=np.intp)
        np.multiply(u, _GUIDE_SIZE, out=k, casting="unsafe")    # exact, then truncated
        out = self.guide[k]
        pos = np.flatnonzero(self.split[k])
        out[pos] = np.searchsorted(self.cdf, u[pos], side="right") + self.first
        return out


class _SurveySampler:
    """Draws survey LLRs W = spin * mag * (+-1), one uniform per node.

    The magnitude and the flip come from the same uniform: the component is
    read off the weight partition, the flip from the component's leading
    delta-fraction of its segment.  Magnitudes clip at LLR_MAX.

    A draw on the noiseless atom (delta exactly 0) reveals the node's spin.
    Atoms are sorted by descending delta, so that atom is the last segment
    of the partition, u >= reveal_cut.  A finite magnitude that clips at
    LLR_MAX (bsc:1e-15) is not a reveal.
    """

    def __init__(self, survey: SurveySpec):
        dist = delta_of(survey)
        self.deltas = np.asarray(dist.deltas, dtype=float)
        w = np.asarray(dist.weights, dtype=float)
        with np.errstate(divide="ignore"):
            mags = np.log1p(-self.deltas) - np.log(self.deltas)
        self.mags = np.minimum(mags, LLR_MAX)
        self.cum = np.cumsum(w)
        self.cum[-1] = 1.0
        low = self.cum - w
        self.flip_cut = low + self.deltas * w
        self.n_atoms = self.deltas.size
        self.atom_of = _InverseCDF(self.cum)
        self.reveal_cut = None
        if self.deltas[-1] == 0.0:
            self.reveal_cut = self.cum[-2] if self.n_atoms > 1 else 0.0
        # Pure erasure: one zero-magnitude atom plus one noiseless atom.
        self.erasure_like = (self.n_atoms == 2 and self.deltas[0] == 0.5
                             and self.deltas[1] == 0.0)

    def draw(self, rng: np.random.Generator,
             spins: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Survey LLRs and the mask of revealed nodes (None without a noiseless atom).

        The LLRs are written over the uniforms, which are spent by then.
        """
        u = rng.random(spins.size)
        revealed = None if self.reveal_cut is None else u >= self.reveal_cut
        if self.erasure_like:
            w = np.multiply(revealed, self.mags[1], out=u)
            w *= spins
            return w, revealed
        if self.n_atoms == 1:
            mag, cut = self.mags[0], self.flip_cut[0]
        elif self.n_atoms == 2:
            upper = u >= self.cum[0]
            mag = np.where(upper, self.mags[1], self.mags[0])
            cut = np.where(upper, self.flip_cut[1], self.flip_cut[0])
        else:
            idx = self.atom_of(u)
            mag, cut = self.mags[idx], self.flip_cut[idx]
        return np.multiply(_flipped(spins, u < cut), mag, out=u), revealed


def _poisson_pmf(lam: float) -> np.ndarray:
    """Poisson(lam) probabilities of 0..K, from log space so a large lam
    does not underflow; K lies 12 standard deviations and 40 past lam."""
    n = int(lam + 12.0 * math.sqrt(lam)) + 40
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(n)])
    return np.exp(np.arange(n) * math.log(lam) - lam - log_fact)


class _CountTable(_InverseCDF):
    """Inverse-CDF table of an integer law: a draw is one uniform and one
    guide-table lookup, the rule _SurveySampler uses for its atoms.

    Only tail entries below _TABLE_FLOOR (2^-60) are dropped, which loses
    less than 1e-15 of mass.  The kept entries are renormalized, since the
    log-space pmf sums to 1 only within about 1e-13 at a rate of 800, and
    the last CDF entry is pinned to 1.0.  Each law's table is built once
    per process and reused by every chunk.
    """

    def __init__(self, pmf: np.ndarray, first: int):
        keep = np.flatnonzero(pmf >= _TABLE_FLOOR)
        lo, hi = int(keep[0]), int(keep[-1]) + 1
        kept = pmf[lo:hi]
        cdf = np.minimum(np.cumsum(kept / kept.sum()), 1.0)
        cdf[-1] = 1.0
        super().__init__(cdf, first + lo)

    @classmethod
    @lru_cache(maxsize=16)
    def poisson(cls, lam: float) -> "_CountTable":
        return cls(_poisson_pmf(lam), 0)

    @classmethod
    @lru_cache(maxsize=16)
    def skellam(cls, lam: float, flip: float) -> "_CountTable":
        """Net spin sum, unflipped minus flipped, of a Poisson(lam) block
        whose members flip with probability flip.  By Poisson thinning the
        two counts are independent Poisson(lam (1 - flip)) and
        Poisson(lam flip), so the law is the convolution of their pmfs."""
        minus = _poisson_pmf(lam * flip)
        return cls(np.convolve(_poisson_pmf(lam * (1.0 - flip)), minus[::-1]), 1 - minus.size)

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self(rng.random(n))


def _child_sums(par: np.ndarray, msg: np.ndarray, n: int) -> np.ndarray:
    """Sum of the child messages of each of n parents, as floats even when
    there are no children (bincount returns int64 on empty input)."""
    return np.bincount(par, weights=msg, minlength=n).astype(np.float64, copy=False)


# ---------------------------------------------------------------------------
# Batched chunk engine


@dataclass
class _ChunkLevels:
    """One chunk of trees, concatenated per level, leaves kept implicit.

    Levels run 0..depth-1.  Only open (unrevealed) nodes have children:
    open_rows[j] lists the open rows of level j, or is None when the whole
    level is open.  Children are indexed by their parent's rank among the
    open rows: parents[j] is None on regular levels, where the i-th open
    node's children are the contiguous block of d entries i*d..i*d+d-1 one
    level down.  leaf_counts is None for regular trees (every block has d
    leaves) and when not asked for; the leaf aggregates describe the
    depth-k blocks per open depth-(k-1) node.
    """

    sizes: list[int]
    open_rows: list[np.ndarray | None]
    parents: list[np.ndarray | None]
    surveys: list[np.ndarray | None]
    d_children: int | None
    leaf_counts: np.ndarray | None
    leaf_spin_sums: np.ndarray | None

    def n_open(self, j: int) -> int:
        rows = self.open_rows[j]
        return self.sizes[j] if rows is None else rows.size

    def n_leaves(self) -> float:
        if self.leaf_counts is not None:
            return float(self.leaf_counts.sum())
        return float(self.d_children * self.n_open(-1))


def _sample_chunk_levels(rng, model: TreeModel, survey: SurveySpec, depth: int,
                         n_trees: int, need_leaf_spin_sums: bool,
                         need_leaf_counts: bool, include_root_survey: bool,
                         prune: bool) -> _ChunkLevels:
    """Draw a chunk top-down: spins and surveys of a level, then its open
    nodes' children.  With prune, revealed nodes stay closed (the root
    only when its survey counts); without, every node is open.  A level
    without reveals draws exactly what an unpruned level draws.  Poisson
    counts and leaf spin sums come from count tables; regular leaf sums
    keep the scalar binomial, which is faster than a table lookup.
    """
    sampler = None if is_trivial_survey(survey) else _SurveySampler(survey)
    flip = model.flip
    regular = model.kind == "regular"
    # A Skellam leaf sum carries no counts, so a Poisson chunk draws one or the other.
    assert regular or not (need_leaf_spin_sums and need_leaf_counts)
    d_int = int(model.d) if regular else None
    counts_table = None if regular else _CountTable.poisson(model.d)

    sizes: list[int] = []
    open_rows: list[np.ndarray | None] = []
    parents: list[np.ndarray | None] = []
    surveys: list[np.ndarray | None] = []
    sp, par = _rademacher(rng, n_trees), None
    for j in range(depth):
        if j > 0:
            if regular:
                sp = np.repeat(sp, d_int)
            else:
                counts = counts_table.draw(rng, sp.size)
                par = np.repeat(np.arange(sp.size), counts)
                sp = sp[par]
            sp = _flipped(sp, rng.random(sp.size) < flip)
        w, revealed = sampler.draw(rng, sp) if sampler is not None else (None, None)
        rows = None
        if (prune and revealed is not None and (j > 0 or include_root_survey)
                and revealed.any()):
            rows = np.flatnonzero(~revealed)
        sizes.append(sp.size)
        open_rows.append(rows)
        parents.append(par)
        surveys.append(w)
        if rows is not None:
            sp = sp[rows]          # from here on, the spins of open nodes only

    leaf_counts = leaf_spin_sums = None
    if depth >= 1:
        n_parents = sp.size
        if not regular and need_leaf_counts:
            leaf_counts = counts_table.draw(rng, n_parents)
        if need_leaf_spin_sums and regular:
            flipped = rng.binomial(d_int, flip, size=n_parents)
            leaf_spin_sums = sp * (d_int - 2.0 * flipped)
        elif need_leaf_spin_sums:
            leaf_spin_sums = _CountTable.skellam(model.d, flip).draw(rng, n_parents)
            leaf_spin_sums *= sp
    return _ChunkLevels(sizes, open_rows, parents, surveys,
                        d_int, leaf_counts, leaf_spin_sums)


def _aggregate_children(msg: np.ndarray, levels: _ChunkLevels, j: int) -> np.ndarray:
    """Sum child messages at level j+1 onto their open level-j parents."""
    par = levels.parents[j + 1]
    if par is None:
        return msg.reshape(-1, levels.d_children).sum(axis=1)
    return _child_sums(par, msg, levels.n_open(j))


def _upward_levels(base: np.ndarray, levels: _ChunkLevels, theta: float,
                   include_root_survey: bool):
    """Upward pass from the depth-(k-1) leaf-block sums to the root.

    Yields the saturated LLRs of each level, depth k-1 first, root last.
    Child sums land on the open rows; a closed node keeps its survey
    value spin * LLR_MAX.  Works in place, starting on ``base``, on levels
    without closed nodes.
    """
    k = len(levels.sizes)
    r = base
    for j in range(k - 1, -1, -1):
        if j < k - 1:
            r = _aggregate_children(edge_llr_map(r, theta), levels, j)
        survey = levels.surveys[j] if j > 0 or include_root_survey else None
        rows = levels.open_rows[j]
        if rows is not None:
            r, sums = survey.copy(), r
            r[rows] += sums
        elif survey is not None:
            r += survey
        np.clip(r, -LLR_MAX, LLR_MAX, out=r)
        yield r


def _boundary_base(boundary: BoundaryCondition, levels: _ChunkLevels,
                   theta: float) -> np.ndarray:
    """Leaf-block LLR sums of the open depth-(k-1) nodes."""
    n = levels.n_open(-1)
    if boundary.kind == "perfect":
        sat = edge_llr_map(math.inf, theta)
        return sat * levels.leaf_spin_sums
    if boundary.kind == "none":
        return np.zeros(n)
    per_leaf = edge_llr_map(boundary.value, theta)
    if boundary.kind == "minus":
        per_leaf = -per_leaf
    if levels.leaf_counts is None:
        return np.full(n, per_leaf * levels.d_children)
    return per_leaf * levels.leaf_counts.astype(np.float64)


def _root_deltas_chunk(rng, count, *, model, survey, depth, boundaries,
                       include_root_survey):
    if depth == 0:
        spins = _rademacher(rng, count)
        out = np.empty((len(boundaries), count))
        for i, boundary in enumerate(boundaries):
            if boundary.kind == "perfect":
                r = spins * LLR_MAX
            elif boundary.kind == "none":
                r = np.zeros(count)
            else:                    # plus or minus: the entropy sees only |r|
                r = np.full(count, min(boundary.value, LLR_MAX))
            out[i] = 1.0 / (1.0 + np.exp(np.abs(r)))
        return out

    need_sums = any(b.kind == "perfect" for b in boundaries)
    need_counts = any(b.kind in ("plus", "minus") for b in boundaries)
    levels = _sample_chunk_levels(rng, model, survey, depth, count, need_sums, need_counts,
                                  include_root_survey, prune=True)
    out = np.empty((len(boundaries), count))
    for i, boundary in enumerate(boundaries):
        base = _boundary_base(boundary, levels, model.theta)
        r = deque(_upward_levels(base, levels, model.theta, include_root_survey), maxlen=1)[0]
        out[i] = 1.0 / (1.0 + np.exp(np.abs(r)))
    return out


def _collect_root_deltas(model, survey, depth, boundaries, n_samples, seed,
                         include_root_survey, workers) -> np.ndarray:
    if n_samples < 2:
        raise ValueError("need at least two samples")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    task = partial(_root_deltas_chunk, model=model, survey=survey, depth=depth,
                   boundaries=tuple(boundaries), include_root_survey=include_root_survey)
    chunk = _chunk_trees(model, depth, _reveal_weight(survey), include_root_survey)
    parts = parallel_chunk_map(task, n_samples, chunk, seed, workers)
    return np.concatenate(parts, axis=1)


def estimate_entropy(model: TreeModel, survey: SurveySpec, depth: int,
                     boundary: BoundaryCondition, n_samples: int, seed: int = 0,
                     include_root_survey: bool = True,
                     workers: int | None = None) -> EstimatorResult:
    """Root conditional entropy in nats under one boundary condition.

    Averages the binary entropy of the exact per-sample root posterior, so
    the estimate is unbiased with variance far below direct spin counting.
    """
    deltas = _collect_root_deltas(model, survey, depth, [boundary], n_samples, seed,
                                  include_root_survey, workers)
    return _mean_result(binary_entropy(deltas[0]), seed)


def estimate_entropy_pair(model: TreeModel, survey: SurveySpec, depth: int,
                          n_samples: int, seed: int = 0,
                          include_root_survey: bool = True,
                          workers: int | None = None) -> PairedEntropyEstimate:
    """Coupled perfect-leaves / no-leaves entropy estimates on shared trees."""
    deltas = _collect_root_deltas(
        model, survey, depth,
        [BoundaryCondition.perfect(), BoundaryCondition.none()],
        n_samples, seed, include_root_survey, workers)
    h_leaves = binary_entropy(deltas[0])
    h_none = binary_entropy(deltas[1])
    return PairedEntropyEstimate(
        leaves=_mean_result(h_leaves, seed),
        no_leaves=_mean_result(h_none, seed),
        diff=_mean_result(h_none - h_leaves, seed),
    )


@dataclass(frozen=True)
class DegradationBin:
    delta_tilde_center: float
    mean_delta: float
    stderr: float
    n: int
    flagged: bool

    def as_dict(self) -> dict:
        return {"delta_tilde_center": self.delta_tilde_center, "mean_delta": self.mean_delta,
                "stderr": self.stderr, "n": self.n, "flagged": self.flagged}


@dataclass
class DegradationReport:
    """Binned check of E[delta | delta_tilde] <= delta_tilde on coupled runs.

    Bins are delta_tilde quantiles (duplicates collapsed); a bin is flagged
    when its mean delta exceeds its mean delta_tilde by more than
    3 standard errors.  Bins with fewer than two samples are skipped.
    """

    bins: list[DegradationBin]
    n_flagged: int
    n_skipped: int
    n_samples: int
    seed: int

    @property
    def ok(self) -> bool:
        return self.n_flagged == 0

    def as_dict(self) -> dict:
        return {"bins": [b.as_dict() for b in self.bins], "n_flagged": self.n_flagged,
                "n_skipped": self.n_skipped, "n_samples": self.n_samples,
                "seed": self.seed, "ok": self.ok}


def degradation_check(model: TreeModel, survey: SurveySpec, depth: int,
                      n_samples: int, n_bins: int = 20, seed: int = 0,
                      include_root_survey: bool = True,
                      workers: int | None = None) -> DegradationReport:
    if n_bins < 1:
        raise ValueError("n_bins must be positive")
    deltas = _collect_root_deltas(
        model, survey, depth,
        [BoundaryCondition.perfect(), BoundaryCondition.none()],
        n_samples, seed, include_root_survey, workers)
    dl, dt = deltas[0], deltas[1]

    edges = np.unique(np.quantile(dt, np.linspace(0.0, 1.0, n_bins + 1)))
    if edges.size < 2:
        assign = np.zeros(dt.size, dtype=np.int64)
        n_eff = 1
    else:
        assign = np.searchsorted(edges[1:-1], dt, side="right")
        n_eff = edges.size - 1

    bins: list[DegradationBin] = []
    n_skipped = 0
    counts = np.bincount(assign, minlength=n_eff)
    sum_dl = np.bincount(assign, weights=dl, minlength=n_eff)
    sum_dl2 = np.bincount(assign, weights=dl * dl, minlength=n_eff)
    sum_dt = np.bincount(assign, weights=dt, minlength=n_eff)
    for i in range(n_eff):
        n = int(counts[i])
        if n < 2:
            n_skipped += 1
            continue
        mean = sum_dl[i] / n
        var = max(sum_dl2[i] / n - mean * mean, 0.0) * n / (n - 1)
        stderr = math.sqrt(var / n)
        center = sum_dt[i] / n
        bins.append(DegradationBin(center, mean, stderr, n,
                                   flagged=mean - center > 3.0 * stderr))
    return DegradationReport(bins, sum(b.flagged for b in bins), n_skipped, n_samples, seed)


# ---------------------------------------------------------------------------
# Majority decoder statistics


def majority_closed_forms(d: float, theta: float, eta: float, depth: int,
                          kind: str = "regular") -> tuple[float, float]:
    """Exact mean and variance of the leaf vote sum given a plus root."""
    a = d * theta * theta
    mean = (1.0 - 2.0 * eta) * (d * theta) ** depth
    growth = float(depth) if abs(a - 1.0) < 1e-12 else (a ** depth - 1.0) / (a - 1.0)
    scale = (1.0 - theta * theta) if kind == "regular" else 1.0
    var = 4.0 * eta * (1.0 - eta) * d ** depth \
        + scale * (1.0 - 2.0 * eta) ** 2 * d ** depth * growth
    return mean, var


def _majority_chunk(rng, count, *, d, theta, eta, depth, kind, shift):
    flip = 0.5 * (1.0 - theta)
    nplus = np.ones(count, dtype=np.int64)
    total = np.ones(count, dtype=np.int64)
    for _ in range(depth):
        if kind == "regular":
            di = int(d)
            from_plus = rng.binomial(nplus * di, flip)
            from_minus = rng.binomial((total - nplus) * di, flip)
            nplus = nplus * di - from_plus + from_minus
            total = total * di
        else:
            nminus = total - nplus
            lam_plus = d * (nplus * (1.0 - flip) + nminus * flip)
            lam_minus = d * (nplus * flip + nminus * (1.0 - flip))
            nplus = rng.poisson(lam_plus)
            total = nplus + rng.poisson(lam_minus)
    votes_plus = rng.binomial(nplus, 1.0 - eta) + rng.binomial(total - nplus, eta)
    y = (2 * votes_plus - total).astype(np.float64) - shift
    y2 = y * y
    return (count, float(y.sum()), float(y2.sum()), float((y2 * y).sum()),
            float((y2 * y2).sum()))


@dataclass
class MajorityReport:
    """Sample moments of the noisy leaf majority vote versus closed forms."""

    kind: str
    d: float
    theta: float
    eta: float
    depth: int
    n_samples: int
    seed: int
    sample_mean: float
    sample_mean_stderr: float
    sample_var: float
    sample_var_stderr: float
    closed_form_mean: float
    closed_form_var: float
    ratio: float                      # sample var / mean^2
    ratio_closed_form: float
    ratio_limit: float | None         # large-depth limit, defined above dtheta^2 = 1
    chi2_lower_bound: float           # 1 / (ratio + 1), from the sample ratio
    chi2_lower_bound_limit: float | None

    def as_dict(self) -> dict:
        return {
            "kind": self.kind, "d": self.d, "theta": self.theta, "eta": self.eta,
            "depth": self.depth, "n_samples": self.n_samples, "seed": self.seed,
            "sample_mean": self.sample_mean, "sample_mean_stderr": self.sample_mean_stderr,
            "sample_var": self.sample_var, "sample_var_stderr": self.sample_var_stderr,
            "closed_form_mean": self.closed_form_mean, "closed_form_var": self.closed_form_var,
            "ratio": self.ratio, "ratio_closed_form": self.ratio_closed_form,
            "ratio_limit": self.ratio_limit, "chi2_lower_bound": self.chi2_lower_bound,
            "chi2_lower_bound_limit": self.chi2_lower_bound_limit,
        }


def majority_stats(d: float, theta: float, eta: float, depth: int, n_samples: int,
                   kind: str = "regular", seed: int = 0,
                   workers: int | None = None) -> MajorityReport:
    """Simulate the leaf vote sum via its level-count sufficient statistic.

    Only the per-level (plus, minus) counts are sampled, so the cost per
    tree is linear in the depth rather than the tree size.
    """
    if kind not in ("regular", "poisson"):
        raise ValueError("kind must be 'regular' or 'poisson'")
    if not 0.0 < eta < 0.5:
        raise ValueError("vote noise eta must lie in (0, 1/2)")
    if not 0.0 <= theta < 1.0:
        raise ValueError("theta must lie in [0, 1)")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if n_samples < 2:
        raise ValueError("need at least two samples")
    if kind == "regular" and int(d) != d:
        raise ValueError("regular offspring count must be an integer")

    mean_cf, var_cf = majority_closed_forms(d, theta, eta, depth, kind)
    task = partial(_majority_chunk, d=d, theta=theta, eta=eta, depth=depth,
                   kind=kind, shift=mean_cf)
    parts = parallel_chunk_map(task, n_samples, 1 << 14, seed, workers)

    n = sum(p[0] for p in parts)
    s1 = sum(p[1] for p in parts)
    s2 = sum(p[2] for p in parts)
    s3 = sum(p[3] for p in parts)
    s4 = sum(p[4] for p in parts)
    ybar = s1 / n
    mean = mean_cf + ybar
    var = (s2 - n * ybar * ybar) / (n - 1)
    mu2 = s2 / n - ybar * ybar
    mu4 = (s4 - 4.0 * ybar * s3 + 6.0 * ybar * ybar * s2 - 3.0 * n * ybar ** 4) / n
    var_stderr = math.sqrt(max(mu4 - mu2 * mu2, 0.0) / n)
    mean_stderr = math.sqrt(max(var, 0.0) / n)

    a = d * theta * theta
    ratio = var / (mean * mean) if mean != 0.0 else math.inf
    ratio_cf = var_cf / (mean_cf * mean_cf) if mean_cf != 0.0 else math.inf
    if a > 1.0:
        scale = (1.0 - theta * theta) if kind == "regular" else 1.0
        ratio_limit = scale / (a - 1.0)
        chi2_limit = 1.0 / (ratio_limit + 1.0)
    else:
        ratio_limit = None
        chi2_limit = None
    return MajorityReport(
        kind=kind, d=d, theta=theta, eta=eta, depth=depth, n_samples=n, seed=seed,
        sample_mean=mean, sample_mean_stderr=mean_stderr,
        sample_var=var, sample_var_stderr=var_stderr,
        closed_form_mean=mean_cf, closed_form_var=var_cf,
        ratio=ratio, ratio_closed_form=ratio_cf, ratio_limit=ratio_limit,
        chi2_lower_bound=1.0 / (ratio + 1.0), chi2_lower_bound_limit=chi2_limit,
    )


# ---------------------------------------------------------------------------
# Weak spatial mixing probe


def _wsm_gap_chunk(rng, count, *, model, survey, depth, magnitude, include_root_survey):
    levels = _sample_chunk_levels(rng, model, survey, depth, count,
                                  need_leaf_spin_sums=False, need_leaf_counts=True,
                                  include_root_survey=include_root_survey, prune=False)
    n_leaves = levels.n_leaves()
    plus = _boundary_base(BoundaryCondition.plus(magnitude), levels, model.theta)
    up_plus, up_minus = (_upward_levels(base, levels, model.theta, include_root_survey)
                         for base in (plus, -plus))
    stats = np.zeros((depth + 1, 3))          # per level: count, mean, sum of squared deviations
    stats[depth] = (n_leaves, 2.0 * magnitude, 0.0)
    for j, rp, rm in zip(range(depth - 1, -1, -1), up_plus, up_minus):
        g = np.abs(rp - rm)
        mean = g.mean() if g.size else 0.0
        stats[j] = (g.size, mean, np.dot(g - mean, g - mean))
    return stats


def _merge_moments(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Chan et al.'s pairwise update of rows (count, mean, M2)."""
    na, ma, sa = a.T
    nb, mb, sb = b.T
    n = na + nb
    w = nb / np.maximum(n, 1.0)
    delta = mb - ma
    return np.stack([n, ma + delta * w, sa + sb + delta * delta * na * w], axis=1)


def _wsm_min_chunk(rng, count, *, model, survey, depth, magnitude, include_root_survey):
    levels = _sample_chunk_levels(rng, model, survey, depth, count,
                                  need_leaf_spin_sums=False, need_leaf_counts=True,
                                  include_root_survey=include_root_survey, prune=False)
    base = _boundary_base(BoundaryCondition.plus(magnitude), levels, model.theta)
    mins = np.full(depth + 1, math.inf)
    mins[depth] = magnitude
    mins[depth - 1::-1] = [r.min() for r in
                           _upward_levels(base, levels, model.theta, include_root_survey)]
    return mins


@dataclass
class WSMReport:
    """Boundary sensitivity probe under extreme constant leaf conditions.

    In the contraction regime (d*theta < 1) the per-level mean gap between
    the plus- and minus-boundary runs shrinks geometrically; measured_rate
    is the worst per-level ratio and should respect the d*theta bound.  In
    the separation regime (d*theta > 1, BSC survey) the probe searches for
    a self-sustaining positive level x and verifies that every node's LLR
    stays above it under the plus boundary.
    """

    regime: str                      # "contraction" | "separation"
    dtheta: float
    depth: int
    n_samples: int
    seed: int
    boundary_magnitude: float
    level_gaps: list[float] | None = None
    level_gap_stderrs: list[float] | None = None
    measured_rate: float | None = None
    rate_bound: float | None = None
    x_found: float | None = None
    margin: float | None = None
    min_llr_by_level: list[float] | None = None
    min_llr: float | None = None
    persists: bool | None = None
    status: str = "ok"

    def as_dict(self) -> dict:
        return {
            "regime": self.regime, "dtheta": self.dtheta, "depth": self.depth,
            "n_samples": self.n_samples, "seed": self.seed,
            "boundary_magnitude": self.boundary_magnitude,
            "level_gaps": self.level_gaps, "level_gap_stderrs": self.level_gap_stderrs,
            "measured_rate": self.measured_rate, "rate_bound": self.rate_bound,
            "x_found": self.x_found, "margin": self.margin,
            "min_llr_by_level": self.min_llr_by_level, "min_llr": self.min_llr,
            "persists": self.persists, "status": self.status,
        }


def _separation_level(model: TreeModel, survey: SurveySpec,
                      n_points: int = 4000) -> tuple[float | None, float]:
    """Largest-margin x > 0 with d*F(x) - survey_cost > x, if one exists."""
    dist = delta_of(survey)
    if len(dist) != 1 or not 0.0 < dist.deltas[0] < 0.5:
        raise ValueError("separation probe needs a BSC survey")
    eta = float(dist.deltas[0])
    cost = math.log1p(-eta) - math.log(eta)
    hi = model.d * edge_llr_map(math.inf, model.theta)
    xs = np.linspace(hi / n_points, hi, n_points)
    margins = model.d * edge_llr_map(xs, model.theta) - cost - xs
    i = int(np.argmax(margins))
    if margins[i] <= 0.0:
        return None, float(margins[i])
    return float(xs[i]), float(margins[i])


def wsm_probe(model: TreeModel, survey: SurveySpec, depth: int, n_samples: int,
              seed: int = 0, boundary_magnitude: float = LLR_MAX,
              include_root_survey: bool = True,
              workers: int | None = None) -> WSMReport:
    """Probe boundary sensitivity; regime chosen by the sign of d*theta - 1."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if n_samples < 2:
        raise ValueError("need at least two samples")
    if not 0.0 < boundary_magnitude <= LLR_MAX:
        raise ValueError(f"boundary magnitude must lie in (0, {LLR_MAX:g}]")
    dtheta = model.d * model.theta
    chunk = _chunk_trees(model, depth)

    if dtheta <= 1.0:
        task = partial(_wsm_gap_chunk, model=model, survey=survey, depth=depth,
                       magnitude=boundary_magnitude,
                       include_root_survey=include_root_survey)
        parts = parallel_chunk_map(task, n_samples, chunk, seed, workers)
        stats = reduce(_merge_moments, parts)
        gaps, stderrs = [], []
        for n, mean, m2 in stats:
            gaps.append(float(mean) if n > 0 else math.nan)
            stderrs.append(math.sqrt(m2 / (n - 1) / n) if n > 1 else 0.0)
        ratios = [gaps[j] / gaps[j + 1] for j in range(depth)
                  if gaps[j + 1] > 1e-9 and not math.isnan(gaps[j])]
        rate = max(ratios) if ratios else math.nan
        return WSMReport(regime="contraction", dtheta=dtheta, depth=depth,
                         n_samples=n_samples, seed=seed,
                         boundary_magnitude=boundary_magnitude,
                         level_gaps=gaps, level_gap_stderrs=stderrs,
                         measured_rate=rate, rate_bound=dtheta, status="ok")

    if model.kind != "regular":
        raise ValueError("separation probe needs a regular offspring model")
    x_found, margin = _separation_level(model, survey)
    if x_found is None:
        return WSMReport(regime="separation", dtheta=dtheta, depth=depth,
                         n_samples=n_samples, seed=seed,
                         boundary_magnitude=boundary_magnitude,
                         x_found=None, margin=margin, persists=False,
                         status="no_separation_found")
    task = partial(_wsm_min_chunk, model=model, survey=survey, depth=depth,
                   magnitude=boundary_magnitude,
                   include_root_survey=include_root_survey)
    parts = parallel_chunk_map(task, n_samples, chunk, seed, workers)
    mins = np.full(depth + 1, math.inf)
    for p in parts:
        np.minimum(mins, p, out=mins)
    persists = bool(np.all(mins > x_found))
    return WSMReport(regime="separation", dtheta=dtheta, depth=depth,
                     n_samples=n_samples, seed=seed,
                     boundary_magnitude=boundary_magnitude,
                     x_found=x_found, margin=margin,
                     min_llr_by_level=[float(m) for m in mins], min_llr=float(mins.min()),
                     persists=persists, status="ok" if persists else "no_separation_found")
