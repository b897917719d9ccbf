"""Independent oracles for the exact two-community entropy code.

Each shares no code path with the enumeration it checks: a pure-Python
linear-domain enumeration of every labeling, and the zero-erasure
single-vertex entropy read off per-pair posterior odds.  Also the
per-vertex leave-one-out entropy, one vertex at a time, as the reference
for the all-vertex terms of the derivative scan, and two trend reports:
exact finite-n entropies next to the tree integral and next to the two
tree-window entropies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from treebp._parallel import parallel_chunk_map
from treebp.bms import SurveySpec, _popcounts
from treebp.density_evolution import DEConfig, run_pair
from treebp.sbm import (
    MAX_SUBSET_N,
    SBMInstance,
    SurveyRealization,
    TreeIntegralReport,
    _logsumexp,
    _sample_sbm_rng,
    exact_conditional_entropy,
    label_loglik,
    sbm_entropy_via_trees,
    sbm_tree_model,
    subset_entropy_table,
)


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


def leave_one_out_entropy(table: np.ndarray, n: int, u: int, epsilon: float) -> float:
    """H(X_u | G, Y^eps over the other vertices), exact, from a subset table."""
    rest = np.flatnonzero((np.arange(1 << n) >> u & 1) == 0)
    gains = table[rest | (1 << u)] - table[rest]
    by_count = np.bincount(_popcounts(n)[rest], weights=gains, minlength=n)
    acc = 0.0
    for m_rev in range(n):
        acc += (1.0 - epsilon) ** m_rev * epsilon ** (n - 1 - m_rev) * by_count[m_rev]
    return float(acc)


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
            vals[t] = leave_one_out_entropy(table, n, 0, epsilon)
        return vals

    vals = np.concatenate(parallel_chunk_map(chunk, n_graph_samples, 64, seed, workers=1))
    exact_mean = float(vals.mean())
    exact_stderr = float(vals.std(ddof=1) / math.sqrt(vals.size))

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
