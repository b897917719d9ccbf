"""Root-versus-boundary information on the small balls of observation graphs.

Uniform spins sit on the vertices, each edge reports the product of its
endpoint spins through a symmetric flip channel, and each vertex survey
reveals its spin or erases it.  The quantity of interest is the mutual
information between the root spin and the spins on the boundary of the
radius-n ball, conditioned on everything observed inside the ball.  On
amenable graphs this decays with the radius; on trees above the
reconstruction threshold it does not, which is the shipped contrast case.

The exact path enumerates spin assignments, edge outcomes, and revelation
subsets.  All four conditional entropies are joint entropies of the edge
outcomes with a subset of the spins, and one pass of the 3^n subset
lattice over the joint table gives that entropy for every subset at once.
When the observation space is too large to enumerate, observations are
sampled and the inner mutual information stays exact per realization,
at four bincounts per sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain, islice

import numpy as np

from ._parallel import _ARENA, _mean_result, parallel_chunk_map
from .bms import _entropy_of_masses, _lattice_bytes, _popcounts, _subset_entropies

__all__ = [
    "MAX_BALL",
    "MAX_ENUM_PATTERNS",
    "SyncGraph",
    "MIResult",
    "mi_root_boundary",
]

MAX_BALL = 20              # spin enumeration cap: 2^|ball| assignments
MAX_ENUM_PATTERNS = 4096   # exact-mode cap on 2^|edges| and 2^|ball| each
_MAX_ENUM_PRODUCT = 1 << 22


@dataclass(frozen=True)
class SyncGraph:
    """The radius ball around a root: all of a graph that the information reads.

    vertices holds the ball's graph ids in ascending order, boundary those at
    distance radius, and edges every graph edge between two ball vertices, in
    the graph's own edge order.  Each family writes its ball down directly
    and stops past MAX_BALL vertices, so a graph of any size costs its ball.
    """

    vertices: tuple
    boundary: tuple
    edges: tuple
    root: int
    radius: int

    @classmethod
    def _ball(cls, reach, owned, root: int, radius: int) -> "SyncGraph":
        """reach yields the ball's (vertex, distance) pairs, ids ascending;
        owned(v) lists the edges v opens in the graph's edge order, of which
        those that leave the ball (or the graph) are dropped."""
        if radius < 1:
            raise ValueError("radius must be at least 1")
        pairs = list(islice(reach, MAX_BALL + 1))
        if len(pairs) > MAX_BALL:
            raise ValueError(f"ball has more than {MAX_BALL} vertices; "
                             f"enumeration is capped at {MAX_BALL}")
        inside = tuple(v for v, _ in pairs)
        inset = set(inside)
        return cls(inside, tuple(v for v, d in pairs if d == radius),
                   tuple(e for v in inside for e in owned(v) if inset.issuperset(e)),
                   root, radius)

    @classmethod
    def path(cls, k: int, radius: int = 1) -> "SyncGraph":
        if k < 2:
            raise ValueError("path needs at least two vertices")
        root = k // 2
        ids = range(max(0, root - radius), min(k, root + radius + 1))
        return cls._ball(((v, abs(v - root)) for v in ids), lambda v: [(v, v + 1)],
                         root, radius)

    @classmethod
    def cycle(cls, k: int, radius: int = 1) -> "SyncGraph":
        if k < 3:
            raise ValueError("cycle needs at least three vertices")
        ids = chain(range(min(radius, k - 1) + 1), range(max(radius + 1, k - radius), k))
        return cls._ball(((v, min(v, k - v)) for v in ids), lambda v: [(v, (v + 1) % k)],
                         0, radius)

    @classmethod
    def grid(cls, rows: int, cols: int, radius: int = 1) -> "SyncGraph":
        if rows < 1 or cols < 1 or rows * cols < 2:
            raise ValueError("grid needs at least two vertices")
        r0, c0 = rows // 2, cols // 2

        def reach():
            # row major; every row within the radius holds column c0
            for r in range(max(0, r0 - radius), min(rows, r0 + radius + 1)):
                span = radius - abs(r - r0)
                for c in range(max(0, c0 - span), min(cols, c0 + span + 1)):
                    yield r * cols + c, abs(r - r0) + abs(c - c0)

        def owned(v):
            # the right edge, unless v ends its row, then the down edge
            return [(v, v + 1), (v, v + cols)] if (v + 1) % cols else [(v, v + cols)]

        return cls._ball(reach(), owned, r0 * cols + c0, radius)

    @classmethod
    def tree(cls, arity: int, depth: int, radius: int = 1) -> "SyncGraph":
        if arity < 1 or depth < 1:
            raise ValueError("tree needs arity and depth at least one")

        def reach():
            # nodes numbered breadth first: node j > 0 hangs below node (j - 1) // arity
            start, width = 0, 1
            for level in range(min(radius, depth) + 1):
                for v in range(start, start + width):
                    yield v, level
                start, width = start + width, width * arity

        return cls._ball(reach(), lambda j: [((j - 1) // arity, j)] if j else [], 0, radius)

    @classmethod
    def parse(cls, text: str, radius: int = 1) -> "SyncGraph":
        """'path:9', 'cycle:8', 'grid:3x4', 'tree:2:3'."""
        family, _, sizes = text.strip().lower().partition(":")
        build, count = {"path": (cls.path, 1), "cycle": (cls.cycle, 1),
                        "grid": (cls.grid, 2), "tree": (cls.tree, 2)}.get(family, (None, 0))
        try:
            args = [int(x) for x in sizes.split("x" if family == "grid" else ":")]
        except ValueError:
            args = []
        if build is None or len(args) != count:
            raise ValueError(f"cannot parse graph spec {text!r}")
        return build(*args, radius)


@dataclass(frozen=True)
class MIResult:
    """Mutual information estimate in nats with its provenance."""

    value: float
    stderr: float
    method: str          # "exact" or "sampled"
    n_samples: int
    ball_size: int
    boundary_size: int
    n_edges: int


def _ball_tables(graph: SyncGraph):
    """Local indexing, sign columns per ball edge, root/boundary masks."""
    index = {v: i for i, v in enumerate(graph.vertices)}
    nb = len(index)
    idx = np.arange(1 << nb, dtype=np.int64)
    bits = (idx >> np.arange(nb)[:, None]).astype(np.int8) & 1   # the cast keeps the low bit
    ends = np.array([[index[u], index[v]] for u, v in graph.edges], dtype=np.intp).reshape(-1, 2)
    edge_signs = 1 - 2 * (bits[ends[:, 0]] ^ bits[ends[:, 1]])   # spin product of each edge
    boundary_mask = sum(1 << index[v] for v in graph.boundary)
    return (nb, idx, edge_signs, index[graph.root], boundary_mask, len(graph.boundary),
            len(graph.edges))


def _masked_entropy_sum(weights: np.ndarray, keys: np.ndarray, size: int) -> float:
    grouped = np.bincount(keys, weights=weights, minlength=size)
    return _entropy_of_masses(grouped)


def _mi_exact(tables, theta: float, epsilon: float) -> MIResult:
    """Exact enumeration over the ball tables; mi_root_boundary checks the caps first."""
    nb, idx, edge_signs, root_local, d_mask, n_bnd, ne = tables
    delta = (1.0 - theta) / 2.0
    size = 1 << nb

    # joint mass of (spins, edge outcomes): rows indexed by outcome words
    w = np.full((1 << ne, size), 0.5 ** nb)
    for e in range(ne):
        out_sign = ((np.arange(1 << ne) >> e) & 1) * 2 - 1
        match = np.equal.outer(out_sign, edge_signs[e])
        w *= np.where(match, 1.0 - delta, delta)

    o_bit = 1 << root_local
    pop = _popcounts(nb)
    weight = (1.0 - epsilon) ** pop * epsilon ** (nb - pop)

    # h[S] = H(edge outcomes, spins in S); the gain is I(o; D | outcomes, spins in s)
    with _ARENA.chunk(_lattice_bytes(nb, len(w))):
        h = _subset_entropies(w, nb)
    gain = h[idx | o_bit] + h[idx | d_mask] - h[idx | o_bit | d_mask] - h
    total = weight @ gain
    return MIResult(float(total), 0.0, "exact", 0, nb, n_bnd, ne)


def _mi_sample_chunk(rng, count, *, graph, theta, epsilon):
    nb, idx, edge_signs, root_local, d_mask, _, ne = _ball_tables(graph)
    delta = (1.0 - theta) / 2.0
    size = 1 << nb
    o_bit = 1 << root_local
    out = np.empty(count)
    for t in range(count):
        spins = rng.integers(0, 2, nb) * 2 - 1
        word = int(np.sum((spins > 0) * (1 << np.arange(nb))))
        flips = rng.random(ne) < delta
        lik = np.full(size, 0.5 ** nb)
        for e in range(ne):
            y = int(edge_signs[e, word]) * (-1 if flips[e] else 1)
            lik *= np.where(edge_signs[e] == y, 1.0 - delta, delta)
        revealed = rng.random(nb) >= epsilon
        s_mask = int(np.sum(revealed * (1 << np.arange(nb))))
        need = word & s_mask
        weights = np.where((idx & s_mask) == need, lik, 0.0)
        # unnormalized identity: z * MI = N(S|o) + N(S|D) - N(S|o|D) - N(S)
        gain = (_masked_entropy_sum(weights, idx & (s_mask | o_bit), size)
                + _masked_entropy_sum(weights, idx & (s_mask | d_mask), size)
                - _masked_entropy_sum(weights, idx & (s_mask | o_bit | d_mask), size)
                - _masked_entropy_sum(weights, idx & s_mask, size))
        out[t] = gain / float(weights.sum())
    return out


def mi_root_boundary(graph: SyncGraph, theta: float, epsilon: float,
                     exact: bool | None = None, n_obs_samples: int = 20000,
                     seed: int = 0, workers: int | None = None) -> MIResult:
    """I(root spin; boundary spins | ball observations) in nats.

    exact=None picks exact enumeration when the observation space fits,
    otherwise samples observations; the inner information is exact either
    way.  Erasure zero and independent edges are returned as exact zeros.
    """
    if not 0.0 <= theta < 1.0:
        raise ValueError("theta must lie in [0, 1)")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("erasure parameter must lie in [0, 1]")
    tables = _ball_tables(graph)
    nb, _, _, _, d_mask, n_bnd, ne = tables
    if epsilon == 0.0 or theta == 0.0 or d_mask == 0:
        return MIResult(0.0, 0.0, "exact", 0, nb, n_bnd, ne)

    can_exact = ((1 << nb) <= MAX_ENUM_PATTERNS and (1 << ne) <= MAX_ENUM_PATTERNS
                 and (1 << (nb + ne)) <= _MAX_ENUM_PRODUCT)
    if exact is None:
        exact = can_exact
    if exact:
        if not can_exact:
            raise ValueError("exact is out of reach: the observation space is too large "
                             "to enumerate")
        return _mi_exact(tables, theta, epsilon)

    if n_obs_samples < 2:
        raise ValueError("n_obs_samples must be at least two")
    task = partial(_mi_sample_chunk, graph=graph, theta=theta, epsilon=epsilon)
    vals = np.concatenate(parallel_chunk_map(task, n_obs_samples, 512, seed, workers))
    est = _mean_result(vals, seed)
    return MIResult(est.estimate, est.stderr, "sampled", est.n_samples, nb, n_bnd, ne)
