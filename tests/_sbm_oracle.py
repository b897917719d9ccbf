"""Independent oracles for the exact two-community entropy code.

Each shares no code path with the enumeration it checks: a pure-Python
linear-domain enumeration of every labeling, and the zero-erasure
single-vertex entropy read off per-pair posterior odds.  Also the full
3^n subset lattice, the bit-for-bit reference of the half lattice, and the
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

from treebp._parallel import _ARENA, parallel_chunk_map
from treebp.bms import SurveySpec, _lattice_rows, _popcounts
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


def full_lattice_subset_entropies(masses: np.ndarray, n_bits: int) -> np.ndarray:
    """Entry S: sum over rows of the entropy of the marginal keeping the bits of S.

    masses is (rows, 2**n_bits) or (2**n_bits,); bit j of S is bit j of the
    mass index.  The up pass, the 3^n subset-sum transform, splits the leading
    bit axis (bit n-1 first) into slots [bit 0, bit 1, summed out] ahead of
    the slots made, (rows, R, 3, 3^i), writing runs of 3^i cells; the down
    pass folds the row-summed -t log t back, trailing slot (bit n-1) first,
    slot 2 = bit not in S, 0 + 1 = in S, each bit behind the bits folded,
    (F, 2, P), ending in bitmask order.  Layout aside, each sum adds its
    terms in that bit order.  The lattice pair and the multi-row sum come
    from _ARENA (the heap outside a chunk), freed on return; the table is not.

    This is the full 3^n lattice that bms._subset_entropies builds half of:
    it takes any rows, and the half lattice must equal it bit for bit.
    """
    rows = np.asarray(masses, dtype=float).reshape(-1, 1 << n_bits)
    cells = 3 ** n_bits
    block = _lattice_rows(n_bits, len(rows))
    with _ARENA.scratch():
        acc = _ARENA.empty(cells) if len(rows) > 1 else None
        # the passes alternate between the two rows of the pair
        lattice = _ARENA.empty(2 * block * cells).reshape(2, -1)
        for start in range(0, len(rows), block):
            t = rows[start:start + block]
            for i in range(n_bits):
                pair = t.reshape(len(t), 2, -1, 3 ** i)
                up = lattice[i % 2, :3 * pair[:, 0].size].reshape(len(t), -1, 3, 3 ** i)
                up[:, :, 0] = pair[:, 0]
                up[:, :, 1] = pair[:, 1]
                np.add(pair[:, 0], pair[:, 1], out=up[:, :, 2])
                t = up.reshape(len(t), -1)
            ent = lattice[n_bits % 2, :t.size].reshape(t.shape)
            with np.errstate(divide="ignore", invalid="ignore"):   # an unmasked log is faster
                ent = np.multiply(np.log(t, out=ent), t, out=ent)
            ent[t == 0.0] = 0.0             # 0 log 0 = 0 where the log left nan
            if start:
                ent[0] += acc   # axis-0 sums add rows in order: any block size agrees
            h = ent[0] if acc is None else ent.sum(axis=0, out=acc)
        h = np.negative(h, out=h)
        for i in range(n_bits):
            trio = h.reshape(1 << i, -1, 3)
            down = lattice[(n_bits + 1 + i) % 2, :2 * trio[..., 0].size].reshape(1 << i, 2, -1)
            down[:, 0] = trio[..., 2]
            np.add(trio[..., 0], trio[..., 1], out=down[:, 1])
            h = down.reshape(-1)
        return h.copy()


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
