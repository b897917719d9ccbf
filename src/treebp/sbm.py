"""Two-community block model oracles and the tree-side entropy integral.

Small instances are solved exactly by enumerating all 2^n label vectors.
The per-vertex survey (reveal with probability 1 - epsilon) is handled two
ways: sampled realizations for Monte Carlo estimates, and exact
marginalization through the revelation-set expansion

    H(X | G, Y) = H(X | G) - E_S[ H(X_S | G) ],

where S is the random revealed set.  The subset marginal entropies H_S are
tabulated once per graph, all 2^n of them in one 3^n subset-sum lattice
over the posterior (O(3^n) work), which makes the erasure derivative and the
conditional entropy at any epsilon exact polynomials evaluated per graph;
the derivative identity (derivative equals the sum over vertices of the
leave-one-out conditional entropies) then holds exactly and finite
difference errors are pure O(h^2) curvature.

The integral estimator maps (a, b) to a Poisson offspring tree with edge
correlation |a - b| / (a + b) and erasure surveys, runs density evolution
to the leaves-observed fixed point per erasure level, and integrates the
limiting root entropy over the erasure parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import product

import numpy as np

from ._parallel import parallel_chunk_map
from .bms import SurveySpec, _subset_entropies
from .density_evolution import DEConfig, InitCondition, TreeModel, bp_fixed_point
from .monte_carlo import EstimatorResult
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
    "reference_conditional_entropy",
    "subset_entropy_table",
    "survey_averaged_entropy",
    "single_vertex_entropy_all_revealed",
    "DerivativeReport",
    "derivative_identity_scan",
    "TreeIntegralReport",
    "sbm_entropy_via_trees",
    "OracleTrendReport",
    "oracle_vs_integral",
    "sandwich_report",
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

    def edge_count(self) -> int:
        return int(self.adjacency.sum()) // 2


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


def _sample_sbm_rng(n: int, a: float, b: float, rng: np.random.Generator) -> SBMInstance:
    labels = (rng.integers(0, 2, n, dtype=np.int8) * 2 - 1).astype(np.int8)
    iu, ju = np.triu_indices(n, k=1)
    same = labels[iu] == labels[ju]
    thresh = np.where(same, a / n, b / n)
    coins = rng.random(iu.size) < thresh
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

@lru_cache(maxsize=8)
def _popcounts(n: int) -> np.ndarray:
    idx = np.arange(1 << n, dtype=np.int64)
    pc = np.zeros(1 << n, dtype=np.int64)
    for j in range(n):
        pc += (idx >> j) & 1
    return pc


def _count_log(count: np.ndarray, logp: float) -> np.ndarray:
    # count * logp with the 0 * (-inf) = 0 convention for impossible factors
    if math.isinf(logp):
        return np.where(count > 0, -math.inf, 0.0)
    return count * logp


def label_loglik(inst: SBMInstance, survey: SurveyRealization | None = None) -> np.ndarray:
    """Unnormalized log-posterior over all 2^n label vectors.

    Bit j of the vector index set means vertex j has label +1.  Non-edges
    contribute their exact (1 - a/n) / (1 - b/n) factors.  Labelings that
    contradict a revealed survey value get -inf.
    """
    n = inst.n
    if n > MAX_EXACT_N:
        raise ValueError(f"exact enumeration is capped at n = {MAX_EXACT_N}")
    idx = np.arange(1 << n, dtype=np.int64)
    edges_i, edges_j = np.nonzero(np.triu(inst.adjacency))
    m = edges_i.size
    n_pairs = n * (n - 1) // 2

    diff_edges = np.zeros(1 << n, dtype=np.int64)
    for i, j in zip(edges_i, edges_j):
        diff_edges += ((idx >> i) ^ (idx >> j)) & 1
    same_edges = m - diff_edges
    row = 2 * _popcounts(n) - n                  # sum over vertices of x_i
    q_all = (row * row - n) // 2                 # sum over all pairs of x_i x_j
    same_pairs = (n_pairs + q_all) // 2
    same_non = same_pairs - same_edges
    diff_non = (n_pairs - same_pairs) - diff_edges

    pa, pb = inst.a / n, inst.b / n
    with np.errstate(divide="ignore"):
        ll = (_count_log(same_edges, math.log(pa) if pa > 0 else -math.inf)
              + _count_log(same_non, math.log1p(-pa) if pa < 1 else -math.inf)
              + _count_log(diff_edges, math.log(pb) if pb > 0 else -math.inf)
              + _count_log(diff_non, math.log1p(-pb) if pb < 1 else -math.inf))

    if survey is not None:
        revealed_bits = 0
        need_bits = 0
        for j in range(n):
            if survey.revealed[j]:
                revealed_bits |= 1 << j
                if survey.values[j] > 0:
                    need_bits |= 1 << j
        ll = np.where((idx & revealed_bits) == need_bits, ll, -math.inf)
    return ll


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
    """H(X | G, Y=y) in nats for one instance, by full enumeration."""
    return _entropy_from_loglik(label_loglik(inst, survey))


def reference_conditional_entropy(inst: SBMInstance,
                                  survey: SurveyRealization | None = None) -> float:
    """Independent check oracle: pure-Python linear-domain enumeration.

    Walks label vectors with itertools, multiplies raw edge/non-edge
    probabilities, and accumulates with math.fsum.  Shares no code path
    with label_loglik.
    """
    n = inst.n
    pa, pb = inst.a / n, inst.b / n
    adj = inst.adjacency
    weights = []
    for x in product((-1, 1), repeat=n):
        if survey is not None:
            ok = True
            for j in range(n):
                if survey.revealed[j] and x[j] != survey.values[j]:
                    ok = False
                    break
            if not ok:
                continue
        w = 1.0
        for i in range(n):
            for j in range(i + 1, n):
                if x[i] == x[j]:
                    w *= pa if adj[i, j] else 1.0 - pa
                else:
                    w *= pb if adj[i, j] else 1.0 - pb
        weights.append(w)
    z = math.fsum(weights)
    if z <= 0.0:
        raise ValueError("no labeling is consistent with the conditioning")
    terms = [-(w / z) * math.log(w / z) for w in weights if w > 0.0]
    return math.fsum(terms)


def _exact_entropy_chunk(rng, count, *, n, a, b, epsilon):
    out = np.empty(count)
    for t in range(count):
        inst = _sample_sbm_rng(n, a, b, rng)
        survey = None if epsilon is None else _sample_survey_rng(inst, epsilon, rng)
        out[t] = exact_entropy_for_instance(inst, survey) / n
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
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
    return EstimatorResult(mean, stderr, int(vals.size), seed)


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


def survey_averaged_entropy(inst: SBMInstance, epsilon: float,
                            table: np.ndarray | None = None) -> float:
    """H(X | G, Y^eps) in nats, exactly marginalized over survey outcomes."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("erasure parameter must lie in [0, 1]")
    n = inst.n
    if table is None:
        table = subset_entropy_table(inst)
    by_count = _grouped_by_popcount(table, n)
    full = table[-1]
    acc = 0.0
    for m_rev in range(n + 1):
        acc += (1.0 - epsilon) ** m_rev * epsilon ** (n - m_rev) * by_count[m_rev]
    return float(full - acc)


@lru_cache(maxsize=64)
def _subsets_without(n: int, u: int) -> tuple:
    """(subsets S not holding vertex u, |S|)."""
    rest = np.flatnonzero((np.arange(1 << n) >> u & 1) == 0)
    return rest, _popcounts(n)[rest]


def _leave_one_out_entropy(table: np.ndarray, n: int, u: int, epsilon: float) -> float:
    """H(X_u | G, Y^eps over the other vertices), exact."""
    rest, rest_sizes = _subsets_without(n, u)
    gains = table[rest | (1 << u)] - table[rest]
    by_count = np.bincount(rest_sizes, weights=gains, minlength=n)
    acc = 0.0
    for m_rev in range(n):
        acc += (1.0 - epsilon) ** m_rev * epsilon ** (n - 1 - m_rev) * by_count[m_rev]
    return float(acc)


def single_vertex_entropy_all_revealed(inst: SBMInstance) -> float:
    """H(X_1 | G, all other labels) from per-pair posterior odds.

    Independent reduction used to cross-check the subset-table route at
    the zero-erasure limit.
    """
    ll = label_loglik(inst)
    z = _logsumexp(ll[ll > -math.inf])
    p = np.exp(ll - z)
    size = ll.size
    lo = np.arange(size, dtype=np.int64)
    lo = lo[(lo & 1) == 0]
    hi = lo | 1
    acc = 0.0
    for i, j in zip(lo, hi):
        w = p[i] + p[j]
        if w <= 0.0:
            continue
        q = p[j] / w
        if 0.0 < q < 1.0:
            acc += w * (-(q * math.log(q) + (1 - q) * math.log(1 - q)))
    return acc


# ---------------------------------------------------------------------------
# Derivative identity


def _derivative_chunk(rng, count, *, n, a, b, epsilon, h_values):
    n_h = len(h_values)
    diff_first = np.empty((n_h, count))   # derivative minus n * first-vertex term
    diff_sum = np.empty((n_h, count))     # derivative minus the vertex sum
    for t in range(count):
        inst = _sample_sbm_rng(n, a, b, rng)
        table = subset_entropy_table(inst)
        vertex_terms = [_leave_one_out_entropy(table, n, u, epsilon) for u in range(n)]
        first = n * vertex_terms[0]
        total = float(sum(vertex_terms))
        for i, h in enumerate(h_values):
            lhs = (survey_averaged_entropy(inst, epsilon + h, table)
                   - survey_averaged_entropy(inst, epsilon - h, table)) / (2.0 * h)
            diff_first[i, t] = lhs - first
            diff_sum[i, t] = lhs - total
    return diff_first, diff_sum


@dataclass
class DerivativeReport:
    """Finite-difference derivative of the survey entropy vs the identity.

    diff_first compares against n times the first vertex's leave-one-out
    entropy (which matches the derivative only on ensemble average);
    diff_sum compares against the vertex sum, which the derivative equals
    exactly per graph, so diff_sum is pure O(h^2) curvature.  curvature_fit
    is the least-squares h^2 coefficient of mean_diff_sum.
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
    identity_ok: list[bool]      # |mean_diff_first| <= |C| h^2 + 3 stderr
    scaling_ok: list[bool]       # |mean_diff_sum - C h^2| <= 3 stderr

    @property
    def ok(self) -> bool:
        return all(self.identity_ok) and all(self.scaling_ok)

    def as_dict(self) -> dict:
        return {
            "n": self.n, "a": self.a, "b": self.b, "epsilon": self.epsilon,
            "h_values": self.h_values, "n_graphs": self.n_graphs, "seed": self.seed,
            "mean_diff_first": self.mean_diff_first,
            "stderr_diff_first": self.stderr_diff_first,
            "mean_diff_sum": self.mean_diff_sum,
            "stderr_diff_sum": self.stderr_diff_sum,
            "curvature_fit": self.curvature_fit,
            "identity_ok": self.identity_ok, "scaling_ok": self.scaling_ok,
            "ok": self.ok,
        }


def derivative_identity_scan(n: int, a: float, b: float, epsilon: float,
                             h_values, n_graph_samples: int, seed: int = 0,
                             workers: int | None = None) -> DerivativeReport:
    """Check the derivative identity on shared graphs across step sizes."""
    _validate_intensities(n, a, b)
    if n > MAX_SUBSET_N:
        raise ValueError(f"subset tables are capped at n = {MAX_SUBSET_N}")
    h_values = [float(h) for h in h_values]
    if not h_values:
        raise ValueError("need at least one step size")
    hmax = max(h_values)
    if not (0.0 < epsilon - hmax and epsilon + hmax < 1.0):
        raise ValueError("epsilon +- h must stay inside (0, 1)")
    if n_graph_samples < 2:
        raise ValueError("need at least two graph samples")

    chunk = max(1, min(64, 1_000_000 // (1 << (2 * min(n, 10)))))
    task = partial(_derivative_chunk, n=n, a=a, b=b, epsilon=epsilon,
                   h_values=tuple(h_values))
    parts = parallel_chunk_map(task, n_graph_samples, chunk, seed, workers)
    diff_first = np.concatenate([p[0] for p in parts], axis=1)
    diff_sum = np.concatenate([p[1] for p in parts], axis=1)

    n_graphs = diff_first.shape[1]
    mean_first = diff_first.mean(axis=1)
    se_first = diff_first.std(axis=1, ddof=1) / math.sqrt(n_graphs)
    mean_sum = diff_sum.mean(axis=1)
    se_sum = diff_sum.std(axis=1, ddof=1) / math.sqrt(n_graphs)

    h2 = np.array(h_values) ** 2
    fit = float(np.dot(mean_sum, h2) / np.dot(h2, h2))
    identity_ok = [bool(abs(mean_first[i]) <= abs(fit) * h2[i] + 3.0 * se_first[i])
                   for i in range(len(h_values))]
    scaling_ok = [bool(abs(mean_sum[i] - fit * h2[i]) <= 3.0 * se_sum[i])
                  for i in range(len(h_values))]
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

    @property
    def status(self) -> str:
        return "ok" if self.n_undecided == 0 else "undecided"

    def as_dict(self) -> dict:
        return {
            "a": self.a, "b": self.b, "d_mean": self.d_mean, "theta": self.theta,
            "snr": self.snr, "eps_values": self.eps_values,
            "entropy_values": self.entropy_values, "flagged": self.flagged,
            "integral": self.integral, "integral_coarse": self.integral_coarse,
            "refinement_diff": self.refinement_diff, "band": self.band,
            "n_undecided": self.n_undecided, "status": self.status,
        }


def sbm_entropy_via_trees(a: float, b: float, eps_grid=33,
                          config: DEConfig | None = None) -> TreeIntegralReport:
    """Integrate the tree fixed-point root entropy over the erasure level.

    eps_grid is either a point count for a uniform [0, 1] grid or an
    explicit grid.  The root's own survey is excluded from the integrand;
    leaves-observed initialization selects the lower fixed point.
    """
    model = sbm_tree_model(a, b)
    snr = sbm_snr(a, b)
    if isinstance(eps_grid, int):
        if eps_grid < 3:
            raise ValueError("need at least three quadrature points")
        base = np.linspace(0.0, 1.0, eps_grid)
    else:
        base = np.asarray(sorted(float(e) for e in eps_grid))
        if base.size < 3 or base[0] != 0.0 or base[-1] != 1.0:
            raise ValueError("explicit grids must span [0, 1] with >= 3 points")

    bounds = survey_strength_bounds()
    banded = 1.0 < snr < high_snr_threshold()
    split = bounds.z_bound
    eps = np.union1d(base, [split]) if banded else base

    if config is None:
        config = DEConfig(max_depth=400, include_root_survey=False)
    elif config.include_root_survey:
        raise ValueError("the integrand excludes the root survey")

    values = np.empty(eps.size)
    flagged = []
    for i, e in enumerate(eps):
        fp = bp_fixed_point(model, SurveySpec.bec(float(e)),
                            InitCondition.perfect_leaves(), config)
        values[i] = math.log(2.0) - fp.limit().capacity
        flagged.append(not fp.converged)

    integral = _trapezoid(values, eps)
    # Coarse pass: every other point of the requested grid, endpoints and
    # the split point kept, reusing the already-computed integrand values.
    keep = {round(float(e), 15) for e in base[::2]}
    keep.update((0.0, 1.0))
    if banded:
        keep.add(round(split, 15))
    coarse_mask = np.array([round(float(e), 15) in keep for e in eps])
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


@dataclass
class OracleTrendReport:
    """Exact finite-n per-vertex entropies next to the tree integral."""

    a: float
    b: float
    n_values: list[int]
    exact_means: list[float]
    exact_stderrs: list[float]
    integral: float
    gaps: list[float]
    gap_monotone: bool
    integral_report: TreeIntegralReport

    def as_dict(self) -> dict:
        return {
            "a": self.a, "b": self.b, "n_values": self.n_values,
            "exact_means": self.exact_means, "exact_stderrs": self.exact_stderrs,
            "integral": self.integral, "gaps": self.gaps,
            "gap_monotone": self.gap_monotone,
            "integral_report": self.integral_report.as_dict(),
        }


def oracle_vs_integral(n_list, a: float, b: float, eps_grid=33,
                       n_graph_samples: int = 400, seed: int = 0,
                       workers: int | None = None) -> OracleTrendReport:
    """Trend table: exact H(X|G)/n per n against the tree integral.

    No tolerance is asserted; desk-scale n cannot reach the limit.  The
    gap sequence makes the finite-size drift visible.
    """
    n_list = [int(n) for n in n_list]
    report = sbm_entropy_via_trees(a, b, eps_grid)
    means, stderrs, gaps = [], [], []
    for n in n_list:
        res = exact_conditional_entropy(n, a, b, None, n_graph_samples,
                                        seed=seed + n, workers=workers)
        means.append(res.estimate)
        stderrs.append(res.stderr)
        gaps.append(res.estimate - report.integral)
    mono = all(abs(gaps[i + 1]) <= abs(gaps[i]) + 1e-12 for i in range(len(gaps) - 1))
    return OracleTrendReport(a=a, b=b, n_values=n_list, exact_means=means,
                             exact_stderrs=stderrs, integral=report.integral,
                             gaps=gaps, gap_monotone=mono, integral_report=report)


def sandwich_report(n: int, a: float, b: float, epsilon: float, depth: int,
                    n_graph_samples: int = 100, seed: int = 0) -> dict:
    """Exact leave-one-out entropy against the two tree-window entropies.

    The tree quantities (leaves observed / unobserved, root survey
    excluded) should bracket the graph quantity up to finite-n error; this
    is a trend report, not an assertion.
    """
    if n > MAX_SUBSET_N:
        raise ValueError(f"subset tables are capped at n = {MAX_SUBSET_N}")

    def chunk(rng, count):
        vals = np.empty(count)
        for t in range(count):
            inst = _sample_sbm_rng(n, a, b, rng)
            table = subset_entropy_table(inst)
            vals[t] = _leave_one_out_entropy(table, n, 0, epsilon)
        return vals

    vals = np.concatenate(parallel_chunk_map(chunk, n_graph_samples, 64, seed, workers=1))
    exact_mean = float(vals.mean())
    exact_stderr = float(vals.std(ddof=1) / math.sqrt(vals.size))

    from .density_evolution import run_pair

    model = sbm_tree_model(a, b)
    cfg = DEConfig(max_depth=depth, include_root_survey=False)
    rep = run_pair(model, SurveySpec.bec(epsilon), cfg)
    rec = rep.records[min(depth, len(rep.records) - 1)]
    lower = math.log(2.0) - rec.leaves.capacity
    upper = math.log(2.0) - rec.noleaves.capacity
    return {
        "n": n, "a": a, "b": b, "epsilon": epsilon, "depth": depth,
        "exact_leave_one_out": exact_mean, "exact_stderr": exact_stderr,
        "tree_lower": lower, "tree_upper": upper,
        "within": bool(lower - 3 * exact_stderr <= exact_mean
                       <= upper + 3 * exact_stderr),
    }
