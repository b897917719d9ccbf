"""Independent oracles for the exact two-community entropy code.

Each shares no code path with the enumeration it checks: a pure-Python
linear-domain enumeration of every labeling, and the zero-erasure
single-vertex entropy read off per-pair posterior odds.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from treebp.sbm import SBMInstance, SurveyRealization, _logsumexp, label_loglik


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
