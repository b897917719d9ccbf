"""Root-versus-boundary information on small observation graphs.

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

import math
from collections import deque
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from ._parallel import parallel_chunk_map
from .bms import _entropy_of_masses, _subset_entropies

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
    """Finite graph with a designated root and observation radius."""

    n_vertices: int
    edges: tuple
    root: int
    radius: int

    def __post_init__(self):
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices) or u == v:
                raise ValueError(f"bad edge ({u}, {v})")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add(key)
        if not 0 <= self.root < self.n_vertices:
            raise ValueError("root out of range")
        if self.radius < 1:
            raise ValueError("radius must be at least 1")
        if self._distances() is None:
            raise ValueError("graph must be connected")

    def _adjacency(self) -> list:
        adj = [[] for _ in range(self.n_vertices)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def _distances(self) -> list | None:
        dist = [-1] * self.n_vertices
        dist[self.root] = 0
        queue = deque([self.root])
        adj = self._adjacency()
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return None if any(d < 0 for d in dist) else dist

    def ball(self) -> tuple:
        """(ball vertices, boundary vertices, ball edges) at self.radius."""
        dist = self._distances()
        inside = [v for v in range(self.n_vertices) if dist[v] <= self.radius]
        boundary = [v for v in inside if dist[v] == self.radius]
        inset = set(inside)
        edges = [(u, v) for u, v in self.edges if u in inset and v in inset]
        return inside, boundary, edges

    def with_radius(self, radius: int) -> "SyncGraph":
        return replace(self, radius=radius)

    @classmethod
    def path(cls, k: int, radius: int = 1) -> "SyncGraph":
        if k < 2:
            raise ValueError("path needs at least two vertices")
        edges = tuple((i, i + 1) for i in range(k - 1))
        return cls(k, edges, k // 2, radius)

    @classmethod
    def cycle(cls, k: int, radius: int = 1) -> "SyncGraph":
        if k < 3:
            raise ValueError("cycle needs at least three vertices")
        edges = tuple((i, (i + 1) % k) for i in range(k))
        return cls(k, edges, 0, radius)

    @classmethod
    def grid(cls, rows: int, cols: int, radius: int = 1) -> "SyncGraph":
        if rows < 1 or cols < 1 or rows * cols < 2:
            raise ValueError("grid needs at least two vertices")
        def vid(r, c):
            return r * cols + c
        edges = []
        for r in range(rows):
            for c in range(cols):
                if c + 1 < cols:
                    edges.append((vid(r, c), vid(r, c + 1)))
                if r + 1 < rows:
                    edges.append((vid(r, c), vid(r + 1, c)))
        return cls(rows * cols, tuple(edges), vid(rows // 2, cols // 2), radius)

    @classmethod
    def tree(cls, arity: int, depth: int, radius: int = 1) -> "SyncGraph":
        if arity < 1 or depth < 1:
            raise ValueError("tree needs arity and depth at least one")
        edges = []
        level = [0]
        nxt = 1
        for _ in range(depth):
            new_level = []
            for parent in level:
                for _ in range(arity):
                    edges.append((parent, nxt))
                    new_level.append(nxt)
                    nxt += 1
            level = new_level
        return cls(nxt, tuple(edges), 0, radius)

    @classmethod
    def parse(cls, text: str, radius: int = 1) -> "SyncGraph":
        """'path:9', 'cycle:8', 'grid:3x4', 'tree:2:3'."""
        parts = text.strip().lower().split(":")
        try:
            if parts[0] == "path" and len(parts) == 2:
                return cls.path(int(parts[1]), radius)
            if parts[0] == "cycle" and len(parts) == 2:
                return cls.cycle(int(parts[1]), radius)
            if parts[0] == "grid" and len(parts) == 2:
                r, c = parts[1].split("x")
                return cls.grid(int(r), int(c), radius)
            if parts[0] == "tree" and len(parts) == 3:
                return cls.tree(int(parts[1]), int(parts[2]), radius)
        except ValueError as exc:
            raise ValueError(f"cannot parse graph spec {text!r}: {exc}") from None
        raise ValueError(f"cannot parse graph spec {text!r}")

    def describe(self) -> str:
        return (f"graph(n={self.n_vertices}, edges={len(self.edges)}, "
                f"root={self.root}, radius={self.radius})")


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

    def as_dict(self) -> dict:
        return {
            "value": self.value, "stderr": self.stderr, "method": self.method,
            "n_samples": self.n_samples, "ball_size": self.ball_size,
            "boundary_size": self.boundary_size, "n_edges": self.n_edges,
        }


def _ball_tables(graph: SyncGraph):
    """Local indexing, sign columns per ball edge, root/boundary masks."""
    inside, boundary, edges = graph.ball()
    index = {v: i for i, v in enumerate(inside)}
    nb = len(inside)
    if nb > MAX_BALL:
        raise ValueError(f"ball has {nb} vertices; enumeration is capped at {MAX_BALL}")
    idx = np.arange(1 << nb, dtype=np.int64)
    spin_bits = [((idx >> i) & 1) * 2 - 1 for i in range(nb)]
    edge_signs = np.empty((len(edges), 1 << nb), dtype=np.int8)
    for e, (u, v) in enumerate(edges):
        edge_signs[e] = spin_bits[index[u]] * spin_bits[index[v]]
    root_local = index[graph.root]
    boundary_mask = 0
    for v in boundary:
        boundary_mask |= 1 << index[v]
    return nb, idx, edge_signs, root_local, boundary_mask, len(boundary), len(edges)


def _masked_entropy_sum(weights: np.ndarray, keys: np.ndarray, size: int) -> float:
    grouped = np.bincount(keys, weights=weights, minlength=size)
    return _entropy_of_masses(grouped)


def _mi_exact(graph: SyncGraph, theta: float, epsilon: float) -> MIResult:
    nb, idx, edge_signs, root_local, d_mask, n_bnd, ne = _ball_tables(graph)
    if (1 << nb) > MAX_ENUM_PATTERNS or (1 << ne) > MAX_ENUM_PATTERNS \
            or (1 << (nb + ne)) > _MAX_ENUM_PRODUCT:
        raise ValueError("observation space too large for exact enumeration")
    delta = (1.0 - theta) / 2.0
    size = 1 << nb

    # joint mass of (spins, edge outcomes): rows indexed by outcome words
    w = np.full((1 << ne, size), 0.5 ** nb)
    for e in range(ne):
        out_sign = ((np.arange(1 << ne) >> e) & 1) * 2 - 1
        match = np.equal.outer(out_sign, edge_signs[e])
        w *= np.where(match, 1.0 - delta, delta)

    o_bit = 1 << root_local
    pop = np.zeros(size, dtype=np.int64)
    for j in range(nb):
        pop += (idx >> j) & 1
    weight = (1.0 - epsilon) ** pop * epsilon ** (nb - pop)

    # h[S] = H(edge outcomes, spins in S); the gain is I(o; D | outcomes, spins in s)
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
    nb, _, _, _, d_mask, n_bnd, ne = _ball_tables(graph)
    if epsilon == 0.0 or theta == 0.0 or d_mask == 0:
        return MIResult(0.0, 0.0, "exact", 0, nb, n_bnd, ne)

    can_exact = ((1 << nb) <= MAX_ENUM_PATTERNS and (1 << ne) <= MAX_ENUM_PATTERNS
                 and (1 << (nb + ne)) <= _MAX_ENUM_PRODUCT)
    if exact is None:
        exact = can_exact
    if exact:
        return _mi_exact(graph, theta, epsilon)

    if n_obs_samples < 2:
        raise ValueError("n_obs_samples must be at least two")
    task = partial(_mi_sample_chunk, graph=graph, theta=theta, epsilon=epsilon)
    vals = np.concatenate(parallel_chunk_map(task, n_obs_samples, 512, seed, workers))
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(vals.size))
    return MIResult(mean, stderr, "sampled", int(vals.size), nb, n_bnd, ne)
