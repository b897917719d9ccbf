"""Two-community block model oracles and the tree-side entropy integral.

Small instances are solved exactly by enumerating the label vectors a
survey allows, for a block of graphs at once: their cut edges are counted by
doubling over the erased vertices in exact integers, and the single-graph
functions are one-row calls of the block kernel.  The per-vertex survey
(reveal with probability 1 - epsilon) is handled two ways: sampled
realizations for Monte Carlo estimates, and exact marginalization through
the revelation-set expansion

    H(X | G, Y) = H(X | G) - E_S[ H(X_S | G) ],

where S is the random revealed set.  The subset marginal entropies H_S are
tabulated once per graph, all 2^n of them in one 3^n subset-sum lattice
over the posterior (O(3^n) work), which makes the erasure derivative and the
conditional entropy at any epsilon exact polynomials evaluated per graph;
the derivative identity (derivative equals the sum over vertices of the
leave-one-out conditional entropies) then holds exactly and finite
difference errors are pure O(h^2) curvature.  All n leave-one-out terms
come from one gather of the table and one (vertex, |S|) grouped sum.

The integral estimator maps (a, b) to a Poisson offspring tree with edge
correlation |a - b| / (a + b) and erasure surveys, runs density evolution
to the leaves-observed fixed point per erasure level, and integrates the
limiting root entropy over the erasure parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from . import bms
from ._parallel import _ARENA, EstimatorResult, _mean_result, parallel_chunk_map
from .bms import SurveySpec, _lattice_bytes, _popcounts, _subset_entropies
from .density_evolution import DEConfig, InitCondition, TreeModel, _fixed_points
from .thresholds import high_snr_threshold, survey_strength_bounds

__all__ = [
    "MAX_EXACT_N",
    "MAX_SUBSET_N",
    "SBMInstance",
    "SurveyRealization",
    "sample_sbm",
    "sample_survey",
    "sbm_snr",
    "sbm_tree_model",
    "exact_entropy_for_instance",
    "exact_conditional_entropy",
    "subset_entropy_table",
    "survey_averaged_entropy",
    "DerivativeReport",
    "derivative_identity_scan",
    "TreeIntegralReport",
    "sbm_entropy_via_trees",
]

# Label enumeration is 2^n; the subset lattice is 3^n, hence the lower cap.
MAX_EXACT_N = 14
MAX_SUBSET_N = 12


@dataclass(frozen=True)
class SBMInstance:
    """One realized two-community graph with its hidden labels."""

    n: int
    a: float
    b: float
    labels: np.ndarray        # (n,) int8, +-1
    adjacency: np.ndarray     # (n, n) bool, symmetric, zero diagonal


@dataclass(frozen=True)
class SurveyRealization:
    """Per-vertex reveal-or-erase observation; revealed values are true."""

    eps: float
    revealed: np.ndarray      # (n,) bool
    values: np.ndarray        # (n,) int8, +-1 where revealed else 0


def _validate_intensities(n: int, a: float, b: float) -> None:
    if n < 1:
        raise ValueError("n must be positive")
    if not (0.0 <= a <= n and 0.0 <= b <= n):
        raise ValueError("intensities must satisfy 0 <= a, b <= n")


@lru_cache(maxsize=16)
def _pairs(n: int) -> tuple:
    """Read-only (i, j) index arrays of the vertex pairs i < j."""
    pairs = np.triu_indices(n, k=1)
    for arr in pairs:
        arr.setflags(write=False)
    return pairs


def _sample_sbm_rng(n: int, a: float, b: float, rng: np.random.Generator) -> SBMInstance:
    labels = (rng.integers(0, 2, n, dtype=np.int8) * 2 - 1).astype(np.int8)
    iu, ju = _pairs(n)
    coins = rng.random(iu.size) < np.where(labels[iu] == labels[ju], a / n, b / n)
    adj = np.zeros((n, n), dtype=bool)
    adj[iu, ju] = coins
    adj |= adj.T
    return SBMInstance(n, float(a), float(b), labels, adj)


def sample_sbm(n: int, a: float, b: float, seed: int = 0) -> SBMInstance:
    """Uniform labels, independent edge coins at a/n within and b/n across."""
    _validate_intensities(n, a, b)
    return _sample_sbm_rng(n, a, b, np.random.default_rng(np.random.SeedSequence(seed)))


def _sample_survey_rng(inst: SBMInstance, eps: float,
                       rng: np.random.Generator) -> SurveyRealization:
    revealed = rng.random(inst.n) >= eps
    values = np.where(revealed, inst.labels, 0).astype(np.int8)
    return SurveyRealization(float(eps), revealed, values)


def sample_survey(inst: SBMInstance, eps: float, seed: int = 0) -> SurveyRealization:
    if not 0.0 <= eps <= 1.0:
        raise ValueError("erasure parameter must lie in [0, 1]")
    return _sample_survey_rng(inst, eps, np.random.default_rng(np.random.SeedSequence(seed)))


def sbm_snr(a: float, b: float) -> float:
    """Signal-to-noise ratio (a - b)^2 / (2 (a + b)) of the pair."""
    if a + b <= 0:
        raise ValueError("a + b must be positive")
    return (a - b) ** 2 / (2.0 * (a + b))


def sbm_tree_model(a: float, b: float) -> TreeModel:
    """Local tree limit: Poisson mean (a+b)/2, correlation |a-b|/(a+b)."""
    if a + b <= 0:
        raise ValueError("a + b must be positive")
    theta = abs(a - b) / (a + b)
    if theta >= 1.0:
        raise ValueError("one intensity is zero; the tree correlation degenerates")
    return TreeModel.poisson(0.5 * (a + b), theta)


# ---------------------------------------------------------------------------
# Exact enumeration oracle

def _count_log(count: np.ndarray, logp: float) -> np.ndarray:
    # count * logp with the 0 * (-inf) = 0 convention for impossible factors
    if math.isinf(logp):
        return np.where(count > 0, -math.inf, 0.0)
    return count * logp


def _block_loglik(adjs: np.ndarray, n: int, a: float, b: float, revealed: np.ndarray,
                  plus: np.ndarray) -> np.ndarray:
    """Unnormalized log-posterior of G graphs, (G, 2^k), at the labelings that
    agree with their surveys, given as (G, n) masks of the revealed and the
    revealed +1 vertices; every row erases k vertices (none revealed: 2^n).

    Bit j of a labeling set means vertex j is +1; entry s sets the erased
    vertices of the bits of s, so entries run in increasing labeling order.
    Cut (disagreeing) edges are exact integers: the revealed labeling's
    count, then doubling over the erased vertices only, as setting v on a
    labeling x adds deg(v) - 2 popcount(x & N(v)), N(v) the neighbour
    bitmask.  Non-edges contribute their exact (1 - a/n) / (1 - b/n) factors.
    """
    if n > MAX_EXACT_N:
        raise ValueError(f"exact enumeration is capped at n = {MAX_EXACT_N}")
    adjs = adjs.astype(np.int64)
    deg = adjs.sum(axis=2)
    pc = _popcounts(n)
    erased = np.nonzero(~revealed)[1].reshape(len(adjs), -1)
    k = erased.shape[1]
    shown = (adjs @ plus[..., None])[..., 0]        # +1 revealed neighbours
    g = np.arange(len(adjs))[:, None]
    gain = (deg - 2 * shown)[g, erased]             # x's revealed part, then its erased bits
    erased_nbrs = adjs[g[..., None], erased[..., None], erased[:, None]] @ (1 << np.arange(k))
    diff_edges = np.empty((len(adjs), 1 << k), dtype=np.int64)
    diff_edges[:, 0] = (plus * (deg - shown)).sum(axis=1)  # the revealed labeling cuts
    for i in range(k):
        lo = 1 << i
        step = np.add(diff_edges[:, :lo], gain[:, i, None], out=diff_edges[:, lo:2 * lo])
        step -= 2 * pc[np.arange(lo) & erased_nbrs[:, i, None]]
    n_pairs = n * (n - 1) // 2
    same_edges = deg.sum(axis=1, keepdims=True) // 2 - diff_edges
    ones = plus.sum(axis=1, keepdims=True) + pc[:1 << k]     # labels +1
    same_pairs = n_pairs - ones * (n - ones)

    # the four terms are added in place, in order, to hold few block-sized arrays
    pa, pb = a / n, b / n
    ll = _count_log(same_edges, math.log(pa) if pa > 0 else -math.inf)
    ll += _count_log(same_pairs - same_edges, math.log1p(-pa) if pa < 1 else -math.inf)
    ll += _count_log(diff_edges, math.log(pb) if pb > 0 else -math.inf)
    ll += _count_log(n_pairs - same_pairs - diff_edges, math.log1p(-pb) if pb < 1 else -math.inf)
    return ll


def label_loglik(inst: SBMInstance) -> np.ndarray:
    """_block_loglik's one row for one graph and no survey: all 2^n labelings."""
    none = np.zeros((1, inst.n), dtype=bool)
    return _block_loglik(inst.adjacency[None], inst.n, inst.a, inst.b, none, none)[0]


def _logsumexp(v: np.ndarray) -> float:
    """log sum exp(v), shifted by the largest entry; -inf entries add 0."""
    m = float(v.max())
    return m + math.log(float(np.exp(v - m).sum()))


def _entropy_from_loglik(ll: np.ndarray) -> float:
    finite = ll > -math.inf
    vals = ll[finite]
    if vals.size == 0:
        raise ValueError("no labeling is consistent with the conditioning")
    z = _logsumexp(vals)
    p = np.exp(vals - z)
    return float(z - np.dot(p, vals))


def exact_entropy_for_instance(inst: SBMInstance,
                               survey: SurveyRealization | None = None) -> float:
    """H(X | G, Y=y) in nats for one instance, by enumeration of the labelings
    that agree with the survey."""
    if survey is None:
        return _entropy_from_loglik(label_loglik(inst))
    row = _block_loglik(inst.adjacency[None], inst.n, inst.a, inst.b,
                        survey.revealed[None], (survey.values > 0)[None])
    return _entropy_from_loglik(row[0])


def _exact_entropy_chunk(rng, count, *, n, a, b, epsilon):
    adjs = np.empty((count, n, n), dtype=bool)
    revealed, plus = np.zeros((2, count, n), dtype=bool)
    for t in range(count):                          # graph, then its survey
        inst = _sample_sbm_rng(n, a, b, rng)
        adjs[t] = inst.adjacency
        if epsilon is not None:
            survey = _sample_survey_rng(inst, epsilon, rng)
            revealed[t], plus[t] = survey.revealed, survey.values > 0
    erased = n - revealed.sum(axis=1)
    out = np.empty(count)
    for k in np.flatnonzero(np.bincount(erased)):   # np.unique imports numpy.ma (0.5 MB)
        group = np.flatnonzero(erased == k)
        block = max(1, bms._LATTICE_FLOATS >> (k + 3))  # at most eight 2^k temporaries a graph
        for s in range(0, group.size, block):
            part = group[s:s + block]
            ll = _block_loglik(adjs[part], n, a, b, revealed[part], plus[part])
            out[part] = [_entropy_from_loglik(row) / n for row in ll]
    return out


def exact_conditional_entropy(n: int, a: float, b: float, epsilon: float | None,
                              n_graph_samples: int, seed: int = 0,
                              workers: int | None = None) -> EstimatorResult:
    """Per-vertex H(X | G, Y) in nats, exact inner entropy, sampled (G, Y)."""
    _validate_intensities(n, a, b)
    if n > MAX_EXACT_N:
        raise ValueError(f"exact enumeration is capped at n = {MAX_EXACT_N}")
    if epsilon is not None and not 0.0 <= epsilon <= 1.0:
        raise ValueError("erasure parameter must lie in [0, 1]")
    if n_graph_samples < 1:
        raise ValueError("n_graph_samples must be positive")
    chunk = max(1, min(256, 2_000_000 // (1 << n)))
    task = partial(_exact_entropy_chunk, n=n, a=a, b=b, epsilon=epsilon)
    vals = np.concatenate(parallel_chunk_map(task, n_graph_samples, chunk, seed, workers))
    return _mean_result(vals, seed)


# ---------------------------------------------------------------------------
# Exact survey marginalization via subset entropy tables

def subset_entropy_table(inst: SBMInstance) -> np.ndarray:
    """Marginal entropy H(X_S | G) for every vertex subset S (bitmask index)."""
    n = inst.n
    if n > MAX_SUBSET_N:
        raise ValueError(f"subset tables are capped at n = {MAX_SUBSET_N}")
    ll = label_loglik(inst)
    out = _subset_entropies(np.exp(ll - _logsumexp(ll)), n)
    out[0] = 0.0
    return out


def _grouped_by_popcount(table: np.ndarray, n: int) -> np.ndarray:
    return np.bincount(_popcounts(n), weights=table, minlength=n + 1)


@lru_cache(maxsize=32)
def _erasure_weights(eps_values: tuple, k: int) -> np.ndarray:
    """Read-only table: row m holds (1 - e)^m e^(k - m) for each e of eps_values."""
    weights = np.array([[(1.0 - e) ** m * e ** (k - m) for e in eps_values] for m in range(k + 1)])
    weights.setflags(write=False)
    return weights


def _erasure_sums(by_count: np.ndarray, eps_values) -> np.ndarray:
    """Row i: sum over m <= k of (1 - e)^m e^(k - m) by_count[..., m], e = eps_values[i],
    k the last index of by_count, added in m order like a scalar loop."""
    acc = 0.0
    for m, weights in enumerate(_erasure_weights(tuple(eps_values), by_count.shape[-1] - 1)):
        acc = acc + np.multiply.outer(weights, by_count[..., m])
    return acc


def survey_averaged_entropy(inst: SBMInstance, epsilon: float,
                            table: np.ndarray | None = None) -> float:
    """H(X | G, Y^eps) in nats, exactly marginalized over survey outcomes."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("erasure parameter must lie in [0, 1]")
    if table is None:
        table = subset_entropy_table(inst)
    return float(table[-1] - _erasure_sums(_grouped_by_popcount(table, inst.n), [epsilon])[0])


@lru_cache(maxsize=8)
def _leave_one_out_plan(n: int) -> tuple:
    """Read-only gather indices (n, 2, 2^(n-1)) of S + u and S, S running over
    the subsets without u in increasing order, and bincount keys u * n + |S|."""
    u = np.arange(n)[:, None]
    j = np.arange(1 << (n - 1))
    rest = (j >> u << (u + 1)) | (j & ((1 << u) - 1))     # a zero bit put in at u
    index = np.stack([rest | (1 << u), rest], axis=1)
    keys = (u * n + _popcounts(n)[rest]).ravel()
    for arr in (index, keys):
        arr.setflags(write=False)
    return index, keys


def _leave_one_out_terms(table: np.ndarray, n: int, epsilon: float) -> np.ndarray:
    """H(X_u | G, Y^eps of the other vertices) for every vertex u, exact:
    the gains table[S + u] - table[S] weighed by |S|."""
    index, keys = _leave_one_out_plan(n)
    pair = table[index]
    by_vertex = np.bincount(keys, weights=(pair[:, 0] - pair[:, 1]).ravel(), minlength=n * n)
    return _erasure_sums(by_vertex.reshape(n, n), [epsilon])[0]


# ---------------------------------------------------------------------------
# Derivative identity


def _derivative_chunk(rng, count, *, n, a, b, epsilon, h_values):
    steps = [e for h in h_values for e in (epsilon + h, epsilon - h)]
    diff_first = np.empty((len(h_values), count))   # derivative minus n * first-vertex term
    diff_sum = np.empty((len(h_values), count))     # derivative minus the vertex sum
    with _ARENA.chunk(_lattice_bytes(n)):
        for t in range(count):
            table = subset_entropy_table(_sample_sbm_rng(n, a, b, rng))
            vertex_terms = _leave_one_out_terms(table, n, epsilon)
            entropies = table[-1] - _erasure_sums(_grouped_by_popcount(table, n), steps)
            lhs = (entropies[0::2] - entropies[1::2]) / (2.0 * np.array(h_values))
            diff_first[:, t] = lhs - n * vertex_terms[0]
            diff_sum[:, t] = lhs - sum(vertex_terms.tolist())   # in vertex order, not pairwise
    return diff_first, diff_sum


@dataclass
class DerivativeReport:
    """Finite-difference derivative of the survey entropy vs the identity.

    diff_first compares against n times the first vertex's leave-one-out
    entropy (which matches the derivative only on ensemble average);
    diff_sum compares against the vertex sum, which the derivative equals
    exactly per graph, so diff_sum is pure O(h^2) curvature.  curvature_fit
    is the least-squares h^2 coefficient of mean_diff_sum.  Both verdicts allow
    rounding: the two entropies are at most n log 2, each off by about its ulp,
    so their difference over 2h is off by about n log 2 2^-52 / h.
    """

    n: int
    a: float
    b: float
    epsilon: float
    h_values: list[float]
    n_graphs: int
    seed: int
    mean_diff_first: list[float]
    stderr_diff_first: list[float]
    mean_diff_sum: list[float]
    stderr_diff_sum: list[float]
    curvature_fit: float
    identity_ok: list[bool]      # |mean_diff_first| <= |C| h^2 + 3 stderr + rounding
    scaling_ok: list[bool]       # |mean_diff_sum - C h^2| <= 3 stderr + rounding
    ok: bool = field(init=False)

    def __post_init__(self):
        self.ok = all(self.identity_ok) and all(self.scaling_ok)


def derivative_identity_scan(n: int, a: float, b: float, epsilon: float,
                             h_values, n_graph_samples: int, seed: int = 0,
                             workers: int | None = None) -> DerivativeReport:
    """Check the derivative identity on shared graphs across step sizes."""
    _validate_intensities(n, a, b)
    if n > MAX_SUBSET_N:
        raise ValueError(f"subset tables are capped at n = {MAX_SUBSET_N}")
    h_values = [float(h) for h in h_values]
    # h alone first (epsilon +- h inside (0, 1) needs h < 1/2), so a bad epsilon is named
    if not h_values or not all(0.0 < h < 0.5 for h in h_values):
        raise ValueError("h_values must be one or more steps h > 0 with epsilon +- h "
                         "inside (0, 1)")
    if min(h_values) < 1e-75:    # the curvature fit divides by the sum of h^4
        raise ValueError("h_values must be at least 1e-75 each, so that h^4 stays a normal float")
    if not all(0.0 < epsilon - h and epsilon + h < 1.0 for h in h_values):
        raise ValueError("epsilon +- h must lie inside (0, 1) for every step h")
    if n_graph_samples < 2:
        raise ValueError("need at least two graph samples")

    chunk = max(1, min(64, 1_000_000 // (1 << (2 * min(n, 10)))))
    task = partial(_derivative_chunk, n=n, a=a, b=b, epsilon=epsilon,
                   h_values=tuple(h_values))
    parts = parallel_chunk_map(task, n_graph_samples, chunk, seed, workers)
    diff_first, diff_sum = (np.concatenate(d, axis=1) for d in zip(*parts))

    n_graphs = diff_first.shape[1]
    mean_first = diff_first.mean(axis=1)
    se_first = diff_first.std(axis=1, ddof=1) / math.sqrt(n_graphs)
    mean_sum = diff_sum.mean(axis=1)
    se_sum = diff_sum.std(axis=1, ddof=1) / math.sqrt(n_graphs)

    h2 = np.array(h_values) ** 2
    fit = float(np.dot(mean_sum, h2) / np.dot(h2, h2))
    rounding = n * math.log(2.0) * 2.0 ** -52 / np.array(h_values)
    identity_ok = (np.abs(mean_first) <= abs(fit) * h2 + 3.0 * se_first + rounding).tolist()
    scaling_ok = (np.abs(mean_sum - fit * h2) <= 3.0 * se_sum + rounding).tolist()
    return DerivativeReport(
        n=n, a=a, b=b, epsilon=epsilon, h_values=h_values, n_graphs=n_graphs,
        seed=seed,
        mean_diff_first=[float(x) for x in mean_first],
        stderr_diff_first=[float(x) for x in se_first],
        mean_diff_sum=[float(x) for x in mean_sum],
        stderr_diff_sum=[float(x) for x in se_sum],
        curvature_fit=fit, identity_ok=identity_ok, scaling_ok=scaling_ok,
    )


# ---------------------------------------------------------------------------
# Tree-side integral


def _trapezoid(y: np.ndarray, x: np.ndarray) -> float:
    return float(0.5 * np.sum(np.diff(x) * (y[:-1] + y[1:])))


@dataclass
class TreeIntegralReport:
    """Erasure integral of the limiting leaves-observed root entropy.

    When the tree signal-to-noise ratio falls strictly between 1 and the
    high-SNR threshold, the reported value is a bracket: [integral,
    integral + band_width], the upper slack coming from the survey-strength
    bound on the unresolved uniqueness window (split at the critical
    erasure level, which is inserted into the grid).
    """

    a: float
    b: float
    d_mean: float
    theta: float
    snr: float
    eps_values: list[float]
    entropy_values: list[float]
    flagged: list[bool]
    integral: float
    integral_coarse: float
    refinement_diff: float
    band: dict | None
    n_undecided: int
    status: str = field(init=False)

    def __post_init__(self):
        self.status = "ok" if self.n_undecided == 0 else "undecided"


def sbm_entropy_via_trees(a: float, b: float, eps_grid: int = 33) -> TreeIntegralReport:
    """Integrate the tree fixed-point root entropy over the erasure level.

    eps_grid is the number of points of a uniform [0, 1] grid, each
    integrand a leaves-observed bp_fixed_point (which selects the lower
    fixed point) with the root's own survey excluded, to depth 400.
    """
    model = sbm_tree_model(a, b)
    snr = sbm_snr(a, b)
    if eps_grid < 3:
        raise ValueError("need at least three quadrature points")
    base = np.linspace(0.0, 1.0, eps_grid)

    bounds = survey_strength_bounds()
    banded = 1.0 < snr < high_snr_threshold()
    split = bounds.z_bound
    eps = np.union1d(base, [split]) if banded else base

    fps = _fixed_points(model, [(SurveySpec.bec(float(e)), InitCondition.perfect_leaves())
                                for e in eps], DEConfig(max_depth=400, include_root_survey=False))
    values = np.array([math.log(2.0) - fp.limit().capacity for fp in fps])
    flagged = [not fp.converged for fp in fps]

    integral = _trapezoid(values, eps)
    # Coarse pass: every other point of the requested grid, endpoints and
    # the split point kept, reusing the already-computed integrand values.
    coarse_mask = (eps[:, None] == np.r_[base[::2], 1.0, split]).any(axis=1)
    integral_coarse = _trapezoid(values[coarse_mask], eps[coarse_mask])

    band = None
    if banded:
        band = {
            "lower": integral,
            "upper": integral + bounds.xi_bound,
            "width": bounds.xi_bound,
            "split_eps": split,
        }
    return TreeIntegralReport(
        a=a, b=b, d_mean=model.d, theta=model.theta, snr=snr,
        eps_values=[float(e) for e in eps],
        entropy_values=[float(v) for v in values],
        flagged=flagged,
        integral=integral, integral_coarse=integral_coarse,
        refinement_diff=abs(integral - integral_coarse),
        band=band, n_undecided=sum(flagged),
    )
