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

import numpy as np

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
    "save_delta_csv",
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


_LATTICE_FLOATS = 1 << 17   # lattice entries per row block (1 MB), at least one row


def _subset_entropies(masses: np.ndarray, n_bits: int) -> np.ndarray:
    """Entry S: sum over rows of the entropy of the marginal keeping the bits of S.

    masses is (rows, 2**n_bits) or (2**n_bits,); bit j of S is bit j of the
    mass index.  The up pass, the 3^n subset-sum transform, turns each leading
    bit axis into trailing slots [bit 0, bit 1, summed out]; the down pass
    folds the row-summed -t log t back: slot 2 = bit not in S, 0 + 1 = in S.
    """
    rows = np.asarray(masses, dtype=float).reshape(-1, 1 << n_bits)
    cells = 3 ** n_bits
    block = max(1, _LATTICE_FLOATS // cells)
    acc = np.zeros(cells)
    lattice = np.empty((2, min(block, len(rows)) * cells))    # the passes alternate
    for start in range(0, len(rows), block):
        t = rows[start:start + block]
        for i in range(n_bits):
            pair = t.reshape(len(t), 2, -1)
            up = lattice[i % 2, :3 * pair[:, 0].size].reshape(len(t), pair.shape[2], 3)
            up[..., 0] = pair[:, 0]
            up[..., 1] = pair[:, 1]
            np.add(pair[:, 0], pair[:, 1], out=up[..., 2])
            t = up.reshape(len(t), -1)
        ent = lattice[n_bits % 2, :t.size].reshape(t.shape)
        ent.fill(0.0)
        np.log(t, out=ent, where=t > 0.0)
        ent *= t
        ent[0] += acc           # axis-0 sums add rows in order: any block size agrees
        acc = ent.sum(axis=0)
    h = -acc
    for _ in range(n_bits):
        trio = h.reshape(3, -1)
        down = np.empty((trio.shape[1], 2))
        down[:, 0] = trio[2]
        np.add(trio[0], trio[1], out=down[:, 1])
        h = down.reshape(-1)
    return h


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

    @classmethod
    def point(cls, delta: float) -> "DeltaDistribution":
        return cls([(delta, 1.0)])

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
        atoms = [(float(row[0]), float(row[1])) for row in reader if row]
    return DeltaDistribution(atoms)


def save_delta_csv(dist: DeltaDistribution, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["delta", "weight"])
        for d, w in dist.atoms():
            writer.writerow([repr(d), repr(w)])
