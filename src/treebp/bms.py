"""Binary memoryless symmetric (BMS) channel algebra.

Every BMS channel handled by this package is kept in standard form: the law
of a random crossover probability on [0, 1/2] (a finite mixture of BSCs).
All channel functionals are expectations of per-atom quantities under that
law, so an atom list is a complete representation.  Capacities and entropies
are in nats throughout.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._parallel import _ARENA

__all__ = [
    "DeltaDistribution",
    "SurveySpec",
    "delta_of",
    "prob_error",
    "capacity",
    "chi2_capacity",
    "bhattacharyya",
    "binary_entropy",
    "is_trivial_survey",
    "load_delta_csv",
]

MERGE_TOL = 1e-12      # atoms closer than this in delta are merged
WEIGHT_FLOOR = 1e-15   # atoms lighter than this are dropped before renormalizing
_MASS_SLACK = 1e-8     # input weights must sum to 1 within this
_RANGE_SLACK = 1e-9


def _xlogx(p: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p > 0.0, p * np.log(p), 0.0)


def binary_entropy(p):
    """Binary entropy in nats, elementwise, with 0 log 0 = 0."""
    p = np.asarray(p, dtype=float)
    out = -(_xlogx(p) + _xlogx(1.0 - p))
    return out if out.ndim else float(out)


def _entropy_of_masses(p: np.ndarray) -> float:
    """Shannon entropy -sum p log p of a mass vector, nats, with 0 log 0 = 0."""
    nz = p[p > 0.0]
    return -float(nz @ np.log(nz))


@lru_cache(maxsize=8)
def _popcounts(n_bits: int) -> np.ndarray:
    """Read-only table of the set-bit count of every index below 2**n_bits."""
    idx = np.arange(1 << n_bits, dtype=np.int64)
    pc = np.zeros(1 << n_bits, dtype=np.int64)
    for j in range(n_bits):
        pc += (idx >> j) & 1
    pc.setflags(write=False)
    return pc


_LATTICE_FLOATS = 1 << 17   # lattice entries per row block (1 MB), at least one row


def _lattice_rows(n_bits: int, rows: int) -> int:
    """Mass rows per lattice block: at most _LATTICE_FLOATS cells, at least one row."""
    return min(max(1, _LATTICE_FLOATS // 3 ** n_bits), rows)


def _lattice_bytes(n_bits: int, rows: int = 1) -> int:
    """Arena bytes _subset_entropies takes for rows mass rows, alignment included."""
    return 16 * (2 * _lattice_rows(n_bits, rows) + (rows > 1)) * 3 ** (n_bits - 1) + 128


def _subset_entropies(masses: np.ndarray, n_bits: int) -> np.ndarray:
    """Entry S: sum over rows of the entropy of the marginal keeping the bits of S.

    masses is (rows, 2**n_bits) or (2**n_bits,), n_bits >= 1, each row its own
    reverse; bit j of S is bit j of the mass index.  Each bit's slots run [bit 0,
    summed out, bit 1], so flipping every bit reverses the lattice, and the up
    pass, the 3^n subset-sum transform, builds the bit 0 = 0 third A alone: it
    splits the leading bit axis (bit n-1 first) into slots ahead of the slots made,
    (rows, R, 3, 3^i), writing runs of 3^i cells; bit 0 summed out is A + A
    reversed.  The down pass folds the row-summed -t log t of both thirds back,
    trailing slot (bit n-1) first, slot 1 = bit not in S, 0 + 2 = in S, (F, 2, P),
    and doubles A's fold for bit 0 in S.  Each sum adds its terms in bit order, a
    mirror cell's in swapped order, as the full lattice does.  The lattice pair and
    the multi-row sum come from _ARENA (the heap outside a chunk), freed on return.
    """
    rows = np.asarray(masses, dtype=float).reshape(-1, 1 << n_bits)
    if n_bits < 1 or not np.array_equal(rows, rows[:, ::-1]):
        raise ValueError("the subset lattice needs n_bits >= 1 and rows equal to their reverse")
    half = 3 ** (n_bits - 1)
    block = _lattice_rows(n_bits, len(rows))
    with _ARENA.scratch():
        acc = _ARENA.empty(2 * half).reshape(2, half) if len(rows) > 1 else None
        # the passes alternate between the two rows of the pair
        lattice = _ARENA.empty(4 * block * half).reshape(2, -1)
        for start in range(0, len(rows), block):
            t = rows[start:start + block, 0::2]
            pair_rows = lattice[:, :2 * half * len(t)].reshape(2, len(t), 2, half)
            for i in range(n_bits - 1):        # the last pass writes A at pair_rows[n % 2, :, 0]
                pair = t.reshape(len(t), 2, -1, 3 ** i)
                up = pair_rows[i % 2, :, 0, :3 * pair[0, 0].size].reshape(len(t), -1, 3, 3 ** i)
                up[:, :, 0] = pair[:, 0]
                np.add(pair[:, 0], pair[:, 1], out=up[:, :, 1])
                up[:, :, 2] = pair[:, 1]
                t = up.reshape(len(t), -1)
            halves = pair_rows[n_bits % 2]
            halves[:, 0] = t                   # a no-op but at n_bits = 1
            np.add(t, t[:, ::-1], out=halves[:, 1])
            ent = pair_rows[(n_bits + 1) % 2]
            with np.errstate(divide="ignore", invalid="ignore"):   # an unmasked log is faster
                ent = np.multiply(np.log(halves, out=ent), halves, out=ent)
            ent[halves == 0.0] = 0.0        # 0 log 0 = 0 where the log left nan
            if start:
                ent[0] += acc   # axis-0 sums add rows in order: any block size agrees
            h = ent[0] if acc is None else ent.sum(axis=0, out=acc)
        h = np.negative(h, out=h).reshape(-1)
        for i in range(n_bits - 1):
            trio = h.reshape(2 << i, -1, 3)
            down = lattice[(n_bits + i) % 2, :2 * trio[..., 0].size].reshape(2 << i, 2, -1)
            down[:, 0] = trio[..., 1]
            np.add(trio[..., 0], trio[..., 2], out=down[:, 1])
            h = down.reshape(-1)
        return np.stack([h[h.size // 2:], h[:h.size // 2] * 2.0], axis=1).ravel()


class DeltaDistribution:
    """Finite mixture of BSC crossover probabilities.

    Atoms are stored sorted by descending delta with strictly distinct
    deltas.  Construction canonicalizes: deltas are clipped to [0, 1/2],
    weights below ``WEIGHT_FLOOR`` are dropped, each run of atoms within
    ``MERGE_TOL`` of the run's first atom is merged into one (weight-averaged
    delta), and the weights are renormalized to sum to exactly 1.  Instances
    are immutable.
    """

    __slots__ = ("deltas", "weights")

    def __init__(self, atoms) -> None:
        pairs = [(float(d), float(w)) for d, w in atoms]
        if not pairs:
            raise ValueError("DeltaDistribution needs at least one atom")
        d = np.array([p[0] for p in pairs], dtype=float)
        w = np.array([p[1] for p in pairs], dtype=float)
        if not (np.isfinite(d).all() and np.isfinite(w).all()):
            raise ValueError("delta atoms and their weights must be finite numbers")
        if np.any(d < -_RANGE_SLACK) or np.any(d > 0.5 + _RANGE_SLACK):
            raise ValueError("delta atoms must lie in [0, 1/2]")
        if np.any(w < -_RANGE_SLACK):
            raise ValueError("atom weights must be nonnegative")
        d = np.clip(d, 0.0, 0.5)
        w = np.clip(w, 0.0, None)

        keep = w > WEIGHT_FLOOR
        d, w = d[keep], w[keep]
        if d.size == 0:
            raise ValueError("all atom weights are below the weight floor")
        total = float(w.sum())
        if abs(total - 1.0) > _MASS_SLACK:
            raise ValueError(f"atom weights sum to {total!r}, expected 1")

        order = np.argsort(-d, kind="stable")
        d, w = d[order], w[order]
        md, mw = [d[0]], [w[0]]
        anchor = d[0]          # first atom of the current run: no run spans more than MERGE_TOL
        for di, wi in zip(d[1:], w[1:]):
            if anchor - di <= MERGE_TOL:
                tot = mw[-1] + wi
                md[-1] = (md[-1] * mw[-1] + di * wi) / tot
                mw[-1] = tot
            else:
                anchor = di
                md.append(di)
                mw.append(wi)
        deltas = np.array(md, dtype=float)
        weights = np.array(mw, dtype=float)
        weights /= weights.sum()
        deltas.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "deltas", deltas)
        object.__setattr__(self, "weights", weights)

    def __setattr__(self, name, value):  # immutable after construction
        raise AttributeError("DeltaDistribution is immutable")

    def __reduce__(self):  # slots + frozen setattr defeat default pickling
        return (self.__class__, (self.atoms(),))

    def atoms(self) -> list[tuple[float, float]]:
        return list(zip(self.deltas.tolist(), self.weights.tolist()))

    def __len__(self) -> int:
        return int(self.deltas.size)

    def __repr__(self) -> str:
        inner = ", ".join(f"({d:.6g}, {w:.6g})" for d, w in self.atoms())
        return f"DeltaDistribution([{inner}])"


@dataclass(frozen=True)
class SurveySpec:
    """Per-node survey channel: BSC, erasure, trivial, or a custom mixture.

    ``parse`` accepts the text forms ``bsc:ALPHA``, ``bec:EPS``, ``trivial``
    and ``custom:@FILE.csv`` (CSV with header ``delta,weight``).
    """

    kind: str
    param: float = 0.0
    custom: DeltaDistribution | None = None

    def __post_init__(self):
        if self.kind == "bsc":
            if not 0.0 <= self.param <= 0.5:
                raise ValueError("BSC crossover must lie in [0, 1/2]")
        elif self.kind == "bec":
            if not 0.0 <= self.param <= 1.0:
                raise ValueError("erasure probability must lie in [0, 1]")
        elif self.kind == "trivial":
            pass
        elif self.kind == "custom":
            if self.custom is None:
                raise ValueError("custom survey needs a DeltaDistribution")
        else:
            raise ValueError(f"unknown survey kind {self.kind!r}")

    @classmethod
    def bsc(cls, alpha: float) -> "SurveySpec":
        return cls("bsc", float(alpha))

    @classmethod
    def bec(cls, eps: float) -> "SurveySpec":
        return cls("bec", float(eps))

    @classmethod
    def trivial(cls) -> "SurveySpec":
        return cls("trivial")

    @classmethod
    def from_delta(cls, dist: DeltaDistribution) -> "SurveySpec":
        return cls("custom", 0.0, dist)

    @classmethod
    def parse(cls, text: str) -> "SurveySpec":
        text = text.strip()
        if text == "trivial":
            return cls.trivial()
        if ":" not in text:
            raise ValueError(f"cannot parse survey spec {text!r}")
        kind, _, arg = text.partition(":")
        if kind == "bsc":
            return cls.bsc(float(arg))
        if kind == "bec":
            return cls.bec(float(arg))
        if kind == "custom":
            if not arg.startswith("@"):
                raise ValueError("custom survey must reference a file: custom:@file.csv")
            return cls.from_delta(load_delta_csv(arg[1:]))
        raise ValueError(f"cannot parse survey spec {text!r}")

    def describe(self) -> str:
        if self.kind == "trivial":
            return "trivial"
        if self.kind == "custom":
            return "custom:" + ",".join(f"{d:.12g}@{w:.12g}" for d, w in self.custom.atoms())
        return f"{self.kind}:{self.param:.12g}"


def delta_of(spec: SurveySpec) -> DeltaDistribution:
    """Crossover-mixture form of a survey channel.

    A BEC splits into a perfect atom and a useless atom; BEC(1) and BSC(1/2)
    both canonicalize to the single trivial atom at 1/2.
    """
    if spec.kind == "bsc":
        return DeltaDistribution([(spec.param, 1.0)])
    if spec.kind == "bec":
        return DeltaDistribution([(0.5, spec.param), (0.0, 1.0 - spec.param)])
    if spec.kind == "trivial":
        return DeltaDistribution([(0.5, 1.0)])
    return spec.custom


# Per-atom terms: each channel functional is E[term(delta)] under the
# crossover law, whatever form (atom list or LLR grid) the law is kept in.
_TERMS = {
    "prob_error": lambda d: d,
    "capacity": lambda d: math.log(2.0) - binary_entropy(d),
    "chi2_capacity": lambda d: (1.0 - 2.0 * d) ** 2,
    "bhattacharyya": lambda d: 2.0 * np.sqrt(d * (1.0 - d)),
}


def _expect(name: str, deltas, weights) -> float:
    """E[term(delta)] of the named functional over weighted crossover atoms."""
    return float(np.dot(weights, _TERMS[name](deltas)))


def prob_error(dist: DeltaDistribution) -> float:
    """MAP error probability of the channel: E[delta]."""
    return _expect("prob_error", dist.deltas, dist.weights)


def capacity(dist: DeltaDistribution) -> float:
    """Channel capacity in nats: E[log 2 - h_b(delta)]."""
    return _expect("capacity", dist.deltas, dist.weights)


def chi2_capacity(dist: DeltaDistribution) -> float:
    """Chi-square capacity: E[(1 - 2 delta)^2]."""
    return _expect("chi2_capacity", dist.deltas, dist.weights)


def bhattacharyya(dist: DeltaDistribution) -> float:
    """Bhattacharyya coefficient: E[2 sqrt(delta (1 - delta))]."""
    return _expect("bhattacharyya", dist.deltas, dist.weights)


def is_trivial_survey(spec: SurveySpec) -> bool:
    """True when the survey carries no information (error probability 1/2)."""
    return prob_error(delta_of(spec)) >= 0.5 - 1e-12


def load_delta_csv(path) -> DeltaDistribution:
    """Read a crossover mixture from a CSV file with header ``delta,weight``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header[:2]] != ["delta", "weight"]:
            raise ValueError(f"{path}: expected header 'delta,weight'")
        atoms = []
        for row in filter(None, reader):
            if len(row) < 2:
                raise ValueError(f"{path}, line {reader.line_num}: expected two fields, delta,weight")
            atoms.append((float(row[0]), float(row[1])))
    return DeltaDistribution(atoms)
