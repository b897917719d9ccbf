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

The batched sampler never materializes leaves.  It draws every node as one
code from the product law of its edge flip, survey atom and sign, and one
statistic of its children: the child count on Poisson levels above the
deepest, the boundary's leaf statistic at the deepest level k-1.  A code
takes one uniform, read off a guide table.  A node's spin is its parent's
times its code's +-1 int8 spin, so every product with a spin is exact, and
its survey LLR is that spin times the code's signed magnitude.  The
deepest level's LLRs and messages are read off exact per-law tables.  A
chunk stores levels 0..k-2; the deepest level is folded as it is drawn,
block by block, into per-parent sums of its messages, so no array ever
holds the whole level.  The sampler also stops expanding below
survey-revealed nodes.  A node whose survey draw falls on the noiseless
atom (delta = 0) knows its spin, so by the Markov property of the
broadcast its subtree tells its ancestors nothing more: the sampler draws
no children for it, and the upward pass gives it the LLR spin * LLR_MAX
(density evolution's reveal is +-infinity).  A revealed root settles its
whole tree.  The root is never pruned when its own survey is excluded.
Surveys without a noiseless atom prune nothing and draw exactly what the
full tree draws.  The boundary-sensitivity probe keeps every node, and
reads each deepest block's LLRs as it is folded: its per-level statistics
(moments of the gap, minima) merge block by block.  A chunk's level arrays
are views of one byte block per process (_parallel._Arena), reused by
every chunk.

Every estimator, majority_stats and majority_closed_forms included, takes
the tree as a TreeModel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial, reduce

import numpy as np

from ._parallel import _ARENA, EstimatorResult, _mean_result, parallel_chunk_map
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

# The deepest level is drawn, and folded, in blocks of about this many rows.
_DRAW_BLOCK = 1 << 16

# Arena bytes reserved per node of the levels a chunk stores, with room to
# spare: untouched pages of the block cost no memory.
_ARENA_NODE_BYTES = 64


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
        kind, colon, value = text.strip().lower().partition(":")
        if kind in ("plus", "minus"):
            return cls(kind, float(value) if colon else LLR_MAX)
        if kind in ("perfect", "none") and not colon:
            return cls(kind)
        raise ValueError(f"cannot parse boundary condition {text!r}")


@dataclass(frozen=True)
class PairedEntropyEstimate:
    """Root entropy with and without leaf observations, coupled sample-wise.

    diff estimates E[H_noleaves - H_leaves] on the shared realizations; its
    stderr reflects the pairing and is the right scale for ordering checks.
    """

    leaves: EstimatorResult
    no_leaves: EstimatorResult
    diff: EstimatorResult


def _nodes_per_tree(model: TreeModel, depth: int, reveal: float,
                    include_root_survey: bool = True) -> int:
    """Expected nodes drawn per tree, sum_{j <= depth} (d (1 - reveal))^j,
    when each node is revealed, and so drawn without children, with
    probability reveal.  A root whose survey is excluded is never
    revealed: it draws all d children, each the root of a surveyed tree.
    A count past 2^28 is rejected before anything is allocated, so a
    chunk's arena, 64 B per node of the levels it stores (_arena_bytes),
    stays within 16 GiB."""
    x = model.d * (1.0 - reveal)
    try:
        if not include_root_survey and reveal > 0.0 and depth > 0:
            nodes = 1 + int(model.d * _nodes_per_tree(model, depth - 1, reveal))
        else:
            nodes = depth + 1 if x == 1.0 else int((x ** (depth + 1) - 1) / (x - 1)) + 1
    except OverflowError:                   # x^(depth+1) past the float range
        nodes = math.inf
    if nodes > 2 ** 28:
        size = f"{nodes:.3g}" if nodes < math.inf else f"{x:g}^{depth}"
        raise ValueError(f"depth {depth} needs about {size} nodes per tree, past the 2^28 limit")
    return nodes


def _chunk_trees(model: TreeModel, depth: int, reveal: float = 0.0,
                 include_root_survey: bool = True) -> int:
    nodes = _nodes_per_tree(model, depth, reveal, include_root_survey)
    return max(1, min(_CHUNK_TREE_CAP, _CHUNK_NODE_BUDGET // nodes))


def _arena_bytes(model: TreeModel, depth: int, trees: int, reveal: float = 0.0,
                 include_root_survey: bool = True) -> int:
    """Arena reservation for a chunk of trees: the levels it stores, 0..depth-2
    (the roots at depth 1, for their sums), and one draw block of the
    deepest level."""
    nodes = trees * _nodes_per_tree(model, max(depth - 2, 0), reveal, include_root_survey)
    return (nodes + _DRAW_BLOCK) * _ARENA_NODE_BYTES


def _reveal_weight(survey: SurveySpec) -> float:
    """Weight of the survey's noiseless atom (delta = 0), the last atom."""
    dist = delta_of(survey)
    return float(dist.weights[-1]) if dist.deltas[-1] == 0.0 else 0.0


class _InverseCDF:
    """searchsorted(cdf, u, side="right") for uniforms u in [0, 1), through
    a guide table (Chen & Asau 1974; Devroye, Non-Uniform Random Variate
    Generation, III.2.4).

    The guide splits [0, 1) into G = _GUIDE_SIZE equal bins.  The search is
    monotone in u, so where its results at both ends of a bin (at k/G and
    at the largest double below (k+1)/G) agree, every u in the bin has that
    result and the guide holds it; only uniforms in the few bins that a CDF
    entry splits, marked -1, are searched.  G is a power of two, so u * G is
    exact, each u lands in its own bin, and the result equals the binary
    search bit for bit.  cdf must end at 1.0.
    """

    def __init__(self, cdf: np.ndarray):
        self.cdf = cdf
        lo = np.arange(_GUIDE_SIZE) / _GUIDE_SIZE
        at_lo = np.searchsorted(cdf, lo, side="right")
        at_hi = np.searchsorted(cdf, np.nextafter(lo + 1.0 / _GUIDE_SIZE, 0.0), side="right")
        self.guide = np.where(at_lo == at_hi, at_lo, -1)

    def __call__(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        out = np.empty(u.size, dtype=np.intp) if out is None else out
        np.multiply(u, _GUIDE_SIZE, out=out, casting="unsafe")  # bins: exact, then truncated
        self.guide.take(out, out=out, mode="clip")     # each bin is read before it is written
        pos = np.flatnonzero(out < 0)
        out[pos] = np.searchsorted(self.cdf, u[pos], side="right")
        return out


def _poisson_pmf(lam: float) -> np.ndarray:
    """Poisson(lam) probabilities of 0..K, from log space so a large lam
    does not underflow; K lies 12 standard deviations and 40 past lam."""
    n = int(lam + 12.0 * math.sqrt(lam)) + 40
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(n)])
    return np.exp(np.arange(n) * math.log(lam) - lam - log_fact)


def _trimmed_law(pmf: np.ndarray, first: int) -> tuple[np.ndarray, np.ndarray]:
    """Values and probabilities of the integer law with pmf over first, first+1, ...

    Only tail entries below _TABLE_FLOOR (2^-60) are dropped, which loses
    less than 1e-15 of mass.  The kept entries are renormalized, since the
    log-space pmf sums to 1 only within about 1e-13 at a rate of 800.
    """
    keep = np.flatnonzero(pmf >= _TABLE_FLOOR)
    lo, hi = int(keep[0]), int(keep[-1]) + 1
    kept = pmf[lo:hi]
    return first + lo + np.arange(hi - lo), kept / kept.sum()


def _leaf_law(model: TreeModel, stat: str | None):
    """Values and probabilities of a block of children's statistic: its
    "net" spin sum (binomial, or Skellam on Poisson trees), its "count"
    (Poisson; fixed on regular trees), or None (one value, 0)."""
    flip = model.flip
    if stat == "net" and model.kind == "regular":
        d = int(model.d)
        try:
            return d - 2 * np.arange(d + 1), np.array(
                [math.comb(d, i) * flip ** i * (1.0 - flip) ** (d - i) for i in range(d + 1)])
        except OverflowError:   # from degree 1030 some binomial coefficient passes 2^1024
            raise OverflowError(f"regular degree {d} is past 1029, the float limit") from None
    if stat is None or model.kind == "regular":
        return np.zeros(1, dtype=np.int64), np.ones(1)
    if stat == "count":
        return _trimmed_law(_poisson_pmf(model.d), 0)
    # Net spin sum, unflipped minus flipped.  By Poisson thinning the two counts
    # are independent Poisson(d (1 - flip)) and Poisson(d flip): a Skellam law.
    minus = _poisson_pmf(model.d * flip)
    return _trimmed_law(np.convolve(_poisson_pmf(model.d * (1.0 - flip)), minus[::-1]),
                        1 - minus.size)


class _NodeCodes(_InverseCDF):
    """Product law of a node's discrete draws, drawn as one code per node.

    The draws are the edge flip (fair at a root, whose "parent" is a virtual
    +), the survey atom and sign (none without a survey) and one statistic
    of the node's children (_leaf_law): the child count on Poisson levels
    above the deepest, or the boundary's leaf statistic at the deepest
    level k-1.  A code is one uniform through the guide table.  Under
    pruning a revealed atom is a closed code, one per flip, with stat 0 and
    no children.  Per code: spin (the node's spin over its parent's, int8),
    atom and sign (atom -1 without a survey), w (the survey LLR over the
    node's spin, sign * magnitude clipped at LLR_MAX; None without a
    survey), stat, closed, and children (d or 0 on regular trees, the count
    stat on Poisson trees, None when the stat is not the count).

    tables(boundary) holds a deepest level's LLRs and edge messages, row 0
    for parent spin -1 and row 1 for +1.  Each entry is the per-node
    formula with the same float ops, edge_llr_map(clip(base + w)), so the
    sampled law is the per-node one.  Laws and tables are built once per
    process.
    """

    def __init__(self, model: TreeModel, survey: SurveySpec | None, root: bool,
                 stat: str | None, prune: bool):
        self.theta, self._tables = model.theta, {}
        atom, sign, p_survey, mags = np.array([-1]), np.array([1]), np.ones(1), None
        revealed = np.zeros(1, dtype=bool)
        if survey is not None:
            dist = delta_of(survey)
            deltas = np.asarray(dist.deltas, dtype=float)
            with np.errstate(divide="ignore"):
                mags = np.minimum(np.log1p(-deltas) - np.log(deltas), LLR_MAX)
            atom, sign = np.repeat(np.arange(deltas.size), 2), np.tile([1, -1], deltas.size)
            p_survey = np.asarray(dist.weights, dtype=float)[atom] * np.where(
                sign > 0, 1.0 - deltas[atom], deltas[atom])
            keep = p_survey > 0.0
            atom, sign, p_survey = atom[keep], sign[keep], p_survey[keep]
            revealed = prune & (deltas[atom] == 0.0)
        values, p_stat = _leaf_law(model, stat)
        f, s, v = (g.ravel() for g in np.meshgrid(np.arange(2), np.arange(atom.size),
                                                  np.arange(values.size), indexing="ij"))
        keep = ~revealed[s] | (v == 0)
        f, s, v = f[keep], s[keep], v[keep]
        self.closed = revealed[s]
        self.spin = np.array([1, -1], dtype=np.int8)[f]
        self.atom, self.sign = atom[s], sign[s]
        self.w = None if mags is None else self.sign * mags[self.atom]
        self.stat = np.where(self.closed, 0, values[v])
        flip = 0.5 if root else model.flip
        probs = (np.array([1.0 - flip, flip])[f] * p_survey[s]
                 * np.where(self.closed, 1.0, p_stat[v]))
        cdf = np.minimum(np.cumsum(probs), 1.0)
        cdf[-1] = 1.0
        super().__init__(cdf)
        regular = model.kind == "regular"
        self.children = (np.where(self.closed, 0, int(model.d) if regular else self.stat)
                         if regular or stat == "count" else None)

    @classmethod
    @lru_cache(maxsize=32)
    def of(cls, model, survey, root, stat, prune) -> "_NodeCodes":
        return cls(model, survey, root, stat, prune)

    def tables(self, boundary: BoundaryCondition) -> tuple[np.ndarray, np.ndarray]:
        if boundary not in self._tables:
            sigma = np.array([[-1], [1]]) * self.spin          # node spins, per parent spin
            if boundary.kind == "perfect":
                base = edge_llr_map(math.inf, self.theta) * (sigma * self.stat)
            elif boundary.kind == "none":
                base = np.zeros(sigma.shape)
            else:
                per_leaf = edge_llr_map(boundary.value, self.theta) * (
                    1.0 if boundary.kind == "plus" else -1.0)
                base = per_leaf * np.broadcast_to(self.children, sigma.shape)
            if self.w is not None:          # a closed code's base is 0: no leaf part
                base += sigma * self.w
            np.clip(base, -LLR_MAX, LLR_MAX, out=base)
            self._tables[boundary] = base, edge_llr_map(base, self.theta)
        return self._tables[boundary]


def _spread(values: np.ndarray, par: np.ndarray | None, d: int | None,
            out: np.ndarray) -> np.ndarray:
    """Each child's copy of its parent's value, into out: par maps children
    to parents, or is None for contiguous blocks of d children per parent."""
    if par is None:
        out.reshape(-1, d)[:] = values[:, None]
    else:
        values.take(par, out=out, mode="clip")
    return out


def _sum_per_parent(values: np.ndarray, par: np.ndarray | None, d: int | None,
                    out: np.ndarray) -> np.ndarray:
    """Sum of each parent's children's values, into out; par and d as in
    _spread.  Each sum reads only its own parent's children (in row order
    with par, by numpy's pairwise reduction with d), so a run of whole
    parents sums to the same floats alone as within its level."""
    if par is None:
        return values.reshape(-1, d).sum(axis=1, out=out)
    out[:] = np.bincount(par, weights=values, minlength=out.size)   # int64 if childless
    return out


def _parent_map(ends: np.ndarray) -> np.ndarray:
    """The parent of each row 0..ends[-1]-1, built in the arena, from the
    parents' running child counts ends: np.repeat(np.arange(ends.size),
    np.diff(ends, prepend=0)).

    ends[i] is the first row of parent i+1.  One parent boundary is
    scattered onto each such row (rows past the end land in a sink entry),
    and a running sum of the boundaries numbers every row with its parent.
    """
    par = _ARENA.empty((int(ends[-1]) if ends.size else 0) + 1, np.intp)
    par.fill(0)
    np.add.at(par, ends, 1)
    return np.cumsum(par[:-1], out=par[:-1])


# ---------------------------------------------------------------------------
# Batched chunk engine


@dataclass
class _ChunkLevels:
    """One chunk of trees, concatenated per level, leaves kept implicit.

    Levels run 0..depth-1, every node is one code of its level's law, and
    sizes[j] counts level j's nodes.  The chunk stores levels 0..depth-2:
    surveys[j] holds the survey LLRs of level j (None without a survey),
    and parents[j] maps level j to its parents' rows one level up.  It is
    None on regular levels whose parents are all open: the i-th parent's
    children are then the contiguous block of d entries i*d..i*d+d-1.  A
    closed parent has no children.

    The deepest level k-1 is drawn last, block by block (_draw_deepest),
    and each block is folded as it is drawn (_fold_deepest).  law is its
    code law, parent_spins its parents' spins (at depth 1 a virtual +
    parent per root), and ends its parents' running child counts, None
    when each parent has deepest_d contiguous children.  The fold keeps
    only sums: per boundary, each parent's sum of its children's messages
    (at depth 1 the roots' LLRs).
    """

    sizes: list[int]
    parents: list[np.ndarray | None]
    surveys: list[np.ndarray | None]
    d_children: int | None
    law: _NodeCodes
    parent_spins: np.ndarray
    ends: np.ndarray | None
    sums: list[np.ndarray] = field(default_factory=list)

    @property
    def deepest_d(self) -> int | None:
        """Children per deepest parent when ends is None: 1 at depth 1."""
        return self.d_children if len(self.sizes) > 1 else 1


def _sample_chunk_levels(rng, model: TreeModel, survey: SurveySpec, depth: int,
                         n_trees: int, stat: str | None, include_root_survey: bool,
                         prune: bool) -> _ChunkLevels:
    """Draw a chunk top-down, one code per node, each from one uniform, and
    stop at the deepest level, which _fold_deepest draws.

    A node's spin is its parent's times its code's spin, and its survey LLR
    is that spin times the code's w.  Open nodes have children, d each on
    regular trees and the code's count on Poisson trees; closed nodes have
    none.  With prune, revealed nodes are closed, the root only when its
    survey counts; without, every node is open.  The deepest codes carry
    the leaf statistic stat: None, "net" (the leaves' net spin sum) or
    "count".  At depth 1 the deepest level is the root.
    """
    regular = model.kind == "regular"
    d_int = int(model.d) if regular else None
    surveyed = None if is_trivial_survey(survey) else survey
    sizes: list[int] = []
    parents: list[np.ndarray | None] = []
    surveys: list[np.ndarray | None] = []
    sp, ends, n = np.ones(n_trees, np.int8), None, n_trees     # a virtual + parent per root
    for j in range(depth):
        law = _NodeCodes.of(model, surveyed if j > 0 or include_root_survey else None, j == 0,
                            stat if j == depth - 1 else None if regular else "count", prune)
        sizes.append(n)
        if j == depth - 1:
            break
        par = None if ends is None else _parent_map(ends)
        parents.append(par)
        codes = _ARENA.empty(n, np.intp)
        u = rng.random(out=_ARENA.empty(n))
        law(u, out=codes)
        spins = law.spin.take(codes, out=_ARENA.empty(n, np.int8), mode="clip")
        if j > 0:
            spins *= _spread(sp, par, d_int, _ARENA.empty(n, np.int8))
        sp = spins
        if law.w is None:
            surveys.append(None)
        else:   # the survey LLRs are written over the uniforms, which are spent by then
            surveys.append(law.w.take(codes, out=u, mode="clip"))
            u *= sp
        if regular and not law.closed.any():
            ends, n = None, n * d_int
        else:   # the codes are spent too: their child counts, then running sums, go over them
            ends = np.cumsum(law.children.take(codes, out=codes, mode="clip"), out=codes)
            n = int(ends[-1]) if n else 0
    return _ChunkLevels(sizes, parents, surveys, d_int, law, sp, ends)


def _draw_deepest(rng, levels: _ChunkLevels, fold) -> None:
    """Draw the deepest level block by block, handing each block to
    fold(lo, hi, plo, phi, codes, par).

    A block is rows lo..hi-1, the children of the run of whole parents
    plo..phi-1: at most _DRAW_BLOCK parents whose children end within
    _DRAW_BLOCK rows of lo, or one parent with more children.  Its
    uniforms are drawn in stream order, so its codes are those of one draw
    of the whole level.  par maps its rows to their parents, counted from
    plo; it is None when each parent has deepest_d contiguous children.
    The block's arrays are arena scratch, freed when the block ends.
    """
    law, ends, d = levels.law, levels.ends, levels.deepest_d
    n_parents = levels.parent_spins.size
    lo = plo = 0
    while plo < n_parents:
        if ends is None:
            phi = min(n_parents, plo + max(1, _DRAW_BLOCK // d))
            hi = phi * d
        else:
            phi = min(plo + _DRAW_BLOCK,
                      int(np.searchsorted(ends, lo + _DRAW_BLOCK, side="right")))
            phi = max(phi, plo + 1)
            hi = int(ends[phi - 1])
        with _ARENA.scratch():
            codes = law(rng.random(out=_ARENA.empty(hi - lo)), out=_ARENA.empty(hi - lo, np.intp))
            par = None if ends is None else _parent_map(
                np.subtract(ends[plo:phi], lo, out=_ARENA.empty(phi - plo, np.intp)))
            fold(lo, hi, plo, phi, codes, par)
        lo, plo = hi, phi


def _table_entries(table: np.ndarray, codes: np.ndarray, spins: np.ndarray,
                   par: np.ndarray | None, d: int | None, out: np.ndarray) -> np.ndarray:
    """Each node's entry of a (parent spin, code) table, into out; spins
    are the parents' spins, and par and d place the nodes as in _spread."""
    with _ARENA.scratch():
        ps = _spread(spins, par, d, _ARENA.empty(codes.size, np.int8))
        flat = np.greater(ps, 0, out=_ARENA.empty(codes.size, np.intp))    # the spin's row
        flat *= table.shape[1]
        flat += codes
        table.take(flat, out=out, mode="clip")
    return out


def _table_sums(boundary: BoundaryCondition, table: np.ndarray, codes: np.ndarray,
                spins: np.ndarray, par: np.ndarray | None, d: int | None,
                out: np.ndarray) -> np.ndarray:
    """Each parent's sum of its children's table entries, into out.

    Perfect and none tables are odd in the parent spin, so their + row is
    summed and multiplied by the parent's spin, which spares a spin gather
    per node.
    """
    odd = boundary.kind in ("perfect", "none")
    with _ARENA.scratch():
        w = _ARENA.empty(codes.size)
        if odd:
            table[1].take(codes, out=w, mode="clip")
        else:
            _table_entries(table, codes, spins, par, d, w)
        _sum_per_parent(w, par, d, out)
    if odd:
        out *= spins
    return out


def _fold_deepest(rng, levels: _ChunkLevels, boundaries, read=None) -> None:
    """Draw the deepest level and fold it into levels.sums, one per boundary:
    each parent's sum of its children's messages, or at depth 1 each
    root's LLR (its virtual parent's one child).  A parent's children all
    sit in one block, so every sum adds the same terms in the same order
    as over the whole level.  read(codes, llrs), if given, sees each
    block's codes and its nodes' LLRs, one array per boundary."""
    msg = 1 if len(levels.sizes) > 1 else 0
    tables = [levels.law.tables(b) for b in boundaries]     # (llr, msg) each
    spins, d = levels.parent_spins, levels.deepest_d
    levels.sums = [_ARENA.empty(spins.size) for _ in boundaries]

    def fold(lo, hi, plo, phi, codes, par):
        for boundary, table, sums in zip(boundaries, tables, levels.sums):
            _table_sums(boundary, table[msg], codes, spins[plo:phi], par, d, sums[plo:phi])
        if read is not None:
            read(codes, [_table_entries(table[0], codes, spins[plo:phi], par, d,
                                        _ARENA.empty(codes.size)) for table in tables])

    _draw_deepest(rng, levels, fold)


def _upward_levels(r: np.ndarray, levels: _ChunkLevels, theta: float):
    """Upward pass to the root from r, the level-(k-2) sums of the deepest
    messages, which it adds to in place.

    Yields the saturated LLRs of levels k-2, ..., 0, root last: each level
    adds its survey LLRs to its child sums and clips.  A closed node has no
    children, so it keeps its survey value spin * LLR_MAX.
    """
    k = len(levels.sizes)
    for j in range(k - 2, -1, -1):
        if j < k - 2:
            msg = edge_llr_map(r, theta, out=_ARENA.empty(r.size))
            r = _sum_per_parent(msg, levels.parents[j + 1], levels.d_children,
                                _ARENA.empty(levels.sizes[j]))
        if levels.surveys[j] is not None:
            r += levels.surveys[j]
        np.clip(r, -LLR_MAX, LLR_MAX, out=r)
        yield r


def _root_deltas_chunk(rng, count, *, model, survey, depth, boundaries,
                       include_root_survey, arena_bytes=0):
    if depth == 0:              # the root entropy sees only |r|: no spins needed
        r = np.array([LLR_MAX if b.kind == "perfect" else 0.0 if b.kind == "none"
                      else min(b.value, LLR_MAX) for b in boundaries])
        return np.repeat(1.0 / (1.0 + np.exp(r))[:, None], count, axis=1)

    kinds = {b.kind for b in boundaries}
    stat = "net" if "perfect" in kinds else "count" if kinds & {"plus", "minus"} else None
    out = np.empty((len(boundaries), count))
    with _ARENA.chunk(arena_bytes):
        levels = _sample_chunk_levels(rng, model, survey, depth, count, stat,
                                      include_root_survey, prune=True)
        _fold_deepest(rng, levels, boundaries)
        for i, sums in enumerate(levels.sums):
            with _ARENA.scratch():
                r = sums                    # at depth 1 the sums are the roots' LLRs
                for r in _upward_levels(sums, levels, model.theta):     # the root's come last
                    pass
                out[i] = 1.0 / (1.0 + np.exp(np.abs(r)))
    return out


def _collect_root_deltas(model, survey, depth, boundaries, n_samples, seed,
                         include_root_survey, workers) -> np.ndarray:
    if n_samples < 2:
        raise ValueError("need at least two samples")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    reveal = _reveal_weight(survey)
    chunk = _chunk_trees(model, depth, reveal, include_root_survey)
    task = partial(_root_deltas_chunk, model=model, survey=survey, depth=depth,
                   boundaries=tuple(boundaries), include_root_survey=include_root_survey,
                   arena_bytes=_arena_bytes(model, depth, chunk, reveal, include_root_survey))
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
    ok: bool = field(init=False)

    def __post_init__(self):
        self.ok = self.n_flagged == 0


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
    n_eff = max(edges.size - 1, 1)     # one bin when every delta_tilde is equal
    assign = np.searchsorted(edges[1:-1], dt, side="right")

    bins: list[DegradationBin] = []
    counts = np.bincount(assign, minlength=n_eff)
    sum_dl = np.bincount(assign, weights=dl, minlength=n_eff)
    sum_dl2 = np.bincount(assign, weights=dl * dl, minlength=n_eff)
    sum_dt = np.bincount(assign, weights=dt, minlength=n_eff)
    for i in np.flatnonzero(counts >= 2):
        n = int(counts[i])
        mean = sum_dl[i] / n
        var = max(sum_dl2[i] / n - mean * mean, 0.0) * n / (n - 1)
        stderr = math.sqrt(var / n)
        center = sum_dt[i] / n
        bins.append(DegradationBin(center, mean, stderr, n,
                                   flagged=mean - center > 3.0 * stderr))
    return DegradationReport(bins, sum(b.flagged for b in bins), n_eff - len(bins), n_samples,
                             seed)


# ---------------------------------------------------------------------------
# Majority decoder statistics


def _vote_scale(model: TreeModel) -> float:
    """Per-level variance factor of the vote sum: 1 - theta^2 regular, 1 Poisson."""
    return (1.0 - model.theta * model.theta) if model.kind == "regular" else 1.0


def majority_closed_forms(model: TreeModel, eta: float, depth: int) -> tuple[float, float]:
    """Exact mean and variance of the leaf vote sum given a plus root."""
    d, a = model.d, model.snr
    mean = (1.0 - 2.0 * eta) * (d * model.theta) ** depth
    growth = float(depth) if abs(a - 1.0) < 1e-12 else (a ** depth - 1.0) / (a - 1.0)
    var = 4.0 * eta * (1.0 - eta) * d ** depth \
        + _vote_scale(model) * (1.0 - 2.0 * eta) ** 2 * d ** depth * growth
    return mean, var


def _majority_chunk(rng, count, *, model, eta, depth, shift):
    d, flip = model.d, model.flip
    nplus = np.ones(count, dtype=np.int64)
    total = np.ones(count, dtype=np.int64)
    for _ in range(depth):
        if model.kind == "regular":
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


def majority_stats(model: TreeModel, eta: float, depth: int, n_samples: int,
                   seed: int = 0, workers: int | None = None) -> MajorityReport:
    """Simulate the leaf vote sum via its level-count sufficient statistic.

    Only the per-level (plus, minus) counts are sampled, so the cost per
    tree is linear in the depth rather than the tree size.  The counts are
    int64, so depths with d^depth above 2^62 are rejected.
    """
    if not 0.0 < eta < 0.5:
        raise ValueError("vote noise eta must lie in (0, 1/2)")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if n_samples < 2:
        raise ValueError("need at least two samples")
    if depth * math.log2(model.d) > 62:
        raise ValueError(f"depth {depth} needs about {model.d:g}^{depth} leaves per tree, "
                         "past the 2^62 limit of the int64 level counts")

    mean_cf, var_cf = majority_closed_forms(model, eta, depth)
    task = partial(_majority_chunk, model=model, eta=eta, depth=depth, shift=mean_cf)
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

    a = model.snr
    ratio = var / (mean * mean) if mean != 0.0 else math.inf
    ratio_cf = var_cf / (mean_cf * mean_cf) if mean_cf != 0.0 else math.inf
    if a > 1.0:
        ratio_limit = _vote_scale(model) / (a - 1.0)
        chi2_limit = 1.0 / (ratio_limit + 1.0)
    else:
        ratio_limit = None
        chi2_limit = None
    return MajorityReport(
        kind=model.kind, d=model.d, theta=model.theta,
        eta=eta, depth=depth, n_samples=n, seed=seed,
        sample_mean=mean, sample_mean_stderr=mean_stderr,
        sample_var=var, sample_var_stderr=var_stderr,
        closed_form_mean=mean_cf, closed_form_var=var_cf,
        ratio=ratio, ratio_closed_form=ratio_cf, ratio_limit=ratio_limit,
        chi2_lower_bound=1.0 / (ratio + 1.0), chi2_lower_bound_limit=chi2_limit,
    )


# ---------------------------------------------------------------------------
# Weak spatial mixing probe


def _gap_moments(rp: np.ndarray, rm: np.ndarray) -> np.ndarray:
    """(count, mean, sum of squared deviations) of |rp - rm|."""
    with _ARENA.scratch():
        g = np.subtract(rp, rm, out=_ARENA.empty(rp.size))
        np.abs(g, out=g)
        mean = g.mean() if g.size else 0.0
        g -= mean
        return np.array([g.size, mean, np.dot(g, g)])


def _merge_moments(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Chan et al.'s pairwise update of rows (count, mean, M2)."""
    na, ma, sa = a.T
    nb, mb, sb = b.T
    n = na + nb
    w = nb / np.maximum(n, 1.0)
    delta = mb - ma
    return np.stack([n, ma + delta * w, sa + sb + delta * delta * na * w], axis=-1)


def _wsm_gap_chunk(rng, count, *, model, survey, depth, magnitude, arena_bytes=0):
    stats = np.zeros((depth + 1, 3))          # per level: count, mean, sum of squared deviations
    stats[depth, 1] = 2.0 * magnitude         # the leaves; read counts them block by block

    def read(codes, llrs):
        stats[depth, 0] += np.bincount(codes, minlength=children.size) @ children
        stats[depth - 1] = _merge_moments(stats[depth - 1], _gap_moments(*llrs))

    with _ARENA.chunk(arena_bytes):
        levels = _sample_chunk_levels(rng, model, survey, depth, count, "count", True,
                                      prune=False)
        children = levels.law.children
        _fold_deepest(rng, levels, (BoundaryCondition.plus(magnitude),
                                    BoundaryCondition.minus(magnitude)), read)
        # the two passes are interleaved, so their arrays stay taken until the chunk ends
        up_plus, up_minus = (_upward_levels(sums, levels, model.theta) for sums in levels.sums)
        for j, rp, rm in zip(range(depth - 2, -1, -1), up_plus, up_minus):
            stats[j] = _gap_moments(rp, rm)
    return stats


def _wsm_min_chunk(rng, count, *, model, survey, depth, magnitude, arena_bytes=0):
    mins = np.full(depth + 1, math.inf)
    mins[depth] = magnitude

    def read(codes, llrs):
        mins[depth - 1] = llrs[0].min(initial=mins[depth - 1])

    with _ARENA.chunk(arena_bytes):
        levels = _sample_chunk_levels(rng, model, survey, depth, count, "count", True,
                                      prune=False)
        _fold_deepest(rng, levels, (BoundaryCondition.plus(magnitude),), read)
        mins[:depth - 1] = [r.min() for r in _upward_levels(levels.sums[0], levels,
                                                              model.theta)][::-1]
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


def _separation_level(model: TreeModel, survey: SurveySpec) -> tuple[float | None, float]:
    """Largest-margin x > 0 on a 4000-point grid with d*F(x) - survey_cost > x, if one exists."""
    dist = delta_of(survey)
    if len(dist) != 1 or not 0.0 < dist.deltas[0] < 0.5:
        raise ValueError("separation probe needs a BSC survey with crossover strictly "
                         "between 0 and 1/2")
    eta = float(dist.deltas[0])
    cost = math.log1p(-eta) - math.log(eta)
    hi = model.d * edge_llr_map(math.inf, model.theta)
    xs = np.linspace(hi / 4000, hi, 4000)
    margins = model.d * edge_llr_map(xs, model.theta) - cost - xs
    i = int(np.argmax(margins))
    if margins[i] <= 0.0:
        return None, float(margins[i])
    return float(xs[i]), float(margins[i])


def wsm_probe(model: TreeModel, survey: SurveySpec, depth: int, n_samples: int,
              seed: int = 0, boundary_magnitude: float = LLR_MAX,
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
    arena_bytes = _arena_bytes(model, depth, chunk)

    if dtheta <= 1.0:
        task = partial(_wsm_gap_chunk, model=model, survey=survey, depth=depth,
                       magnitude=boundary_magnitude, arena_bytes=arena_bytes)
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
                   magnitude=boundary_magnitude, arena_bytes=arena_bytes)
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
