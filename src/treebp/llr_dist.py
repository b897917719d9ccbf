"""Quantized symmetric log-likelihood-ratio distributions.

A BMS channel conditioned on the + input induces an LLR law satisfying the
pairing mass(-r) = exp(-r) mass(r).  We keep such laws on a uniform grid
over [-r_max, r_max] with an odd bin count (so 0 is a bin center), plus two
reserved atoms at +inf and -inf for perfectly informative observations.

Grid placement uses mean-preserving two-point splitting: an off-grid atom is
divided between its two neighboring bin centers so that the mean LLR is kept
exactly.  Sums of grid positions land back on the grid, so convolution is
exact apart from boundary saturation, which folds out-of-range mass onto the
outermost bins.

Bins at +r and -r form a pair, which reads as one crossover atom at
delta = 1/(1+e^r) carrying the pair's mass.  The projection onto the exactly
paired cone splits each pair's mass in place as (1-delta, delta), so it moves
no mass between pairs and is idempotent; density evolution applies it after
every step to stop quantization drift of the symmetry.  Channel functionals
are read off the same pairs.  The crossover-mixture form (DeltaDistribution)
is only an import and export format.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import expit

from .bms import _TERMS, DeltaDistribution, _expect

__all__ = [
    "GridConfig",
    "SymmetricLLRDistribution",
    "SymmetryError",
    "InfoMeasures",
    "from_delta",
    "to_delta",
    "apply_edge_map",
    "edge_llr_map",
    "flip_mix",
    "convolve",
    "power_convolve",
    "poisson_convolve",
    "entropy",
    "info_measures",
    "resymmetrize",
    "dump_csv",
    "load_csv",
]

_MASS_SLACK = 1e-7
_INF_FLOOR = 1e-15
DEFAULT_SYMMETRY_TOL = 0.05  # quantization alone can displace ~h/4 of pairing mass


class SymmetryError(ValueError):
    """Raised when a distribution is too far from any valid symmetric law."""


@dataclass(frozen=True)
class GridConfig:
    """Uniform symmetric LLR grid: n_bins centers spanning [-r_max, r_max]."""

    r_max: float = 30.0
    n_bins: int = 2001

    def __post_init__(self):
        if not self.r_max > 0:
            raise ValueError("r_max must be positive")
        if self.n_bins < 3 or self.n_bins % 2 == 0:
            raise ValueError("n_bins must be odd and at least 3")

    @property
    def step(self) -> float:
        return 2.0 * self.r_max / (self.n_bins - 1)

    @property
    def center_index(self) -> int:
        return (self.n_bins - 1) // 2

    def centers(self) -> np.ndarray:
        return _centers(self.r_max, self.n_bins)


@lru_cache(maxsize=32)
def _centers(r_max: float, n_bins: int) -> np.ndarray:
    c = np.linspace(-r_max, r_max, n_bins)
    c.setflags(write=False)
    return c


def _deposit(grid: GridConfig, positions, weights) -> np.ndarray:
    """Mean-preserving linear split of weighted atoms onto the grid.

    Positions beyond +-r_max saturate onto the boundary bins.  Positions are
    mapped through x = r/step + center_index so that r = 0 hits the center
    bin exactly in floating point.
    """
    r = np.asarray(positions, dtype=float)
    w = np.asarray(weights, dtype=float)
    masses = np.zeros(grid.n_bins)
    if r.size == 0:
        return masses
    x = np.clip(r, -grid.r_max, grid.r_max) / grid.step + grid.center_index
    i0 = np.floor(x).astype(np.int64)
    np.clip(i0, 0, grid.n_bins - 2, out=i0)
    frac = x - i0
    np.add.at(masses, i0, w * (1.0 - frac))
    np.add.at(masses, i0 + 1, w * frac)
    return masses


class SymmetricLLRDistribution:
    """Probability masses on a GridConfig plus reserved +-inf atoms.

    Immutable once built.  Total mass must be 1 and every mass nonnegative;
    tiny negative rounding residue is clipped at construction.
    """

    __slots__ = ("grid", "masses", "pos_inf_mass", "neg_inf_mass")

    def __init__(self, grid: GridConfig, masses, pos_inf_mass: float = 0.0,
                 neg_inf_mass: float = 0.0) -> None:
        m = np.array(masses, dtype=float)
        if m.shape != (grid.n_bins,):
            raise ValueError("masses must match the grid bin count")
        if float(m.min(initial=0.0)) < -1e-12 or pos_inf_mass < -1e-12 or neg_inf_mass < -1e-12:
            raise ValueError("negative probability mass")
        np.clip(m, 0.0, None, out=m)
        pos_inf_mass = max(float(pos_inf_mass), 0.0)
        neg_inf_mass = max(float(neg_inf_mass), 0.0)
        total = float(m.sum()) + pos_inf_mass + neg_inf_mass
        if abs(total - 1.0) > _MASS_SLACK:
            raise ValueError(f"total mass {total!r} is not 1")
        m.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "masses", m)
        object.__setattr__(self, "pos_inf_mass", pos_inf_mass)
        object.__setattr__(self, "neg_inf_mass", neg_inf_mass)

    def __setattr__(self, name, value):
        raise AttributeError("SymmetricLLRDistribution is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def unit(cls, grid: GridConfig) -> "SymmetricLLRDistribution":
        """Point mass at LLR 0 (the trivial observation)."""
        m = np.zeros(grid.n_bins)
        m[grid.center_index] = 1.0
        return cls(grid, m)

    @classmethod
    def point(cls, grid: GridConfig, r: float) -> "SymmetricLLRDistribution":
        if math.isinf(r):
            if r > 0:
                return cls(grid, np.zeros(grid.n_bins), pos_inf_mass=1.0)
            return cls(grid, np.zeros(grid.n_bins), neg_inf_mass=1.0)
        return cls(grid, _deposit(grid, [r], [1.0]))

    # -- simple queries ----------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.pos_inf_mass <= _INF_FLOOR and self.neg_inf_mass <= _INF_FLOOR

    def total_mass(self) -> float:
        return float(self.masses.sum()) + self.pos_inf_mass + self.neg_inf_mass

    def mean(self) -> float:
        if not self.is_finite:
            raise ValueError("mean undefined with mass at +-inf")
        return float(np.dot(self.masses, self.grid.centers()))

    def potential_mean(self) -> float:
        """E[exp(-R/2)]; the +inf atom contributes 0."""
        if self.neg_inf_mass > _INF_FLOOR:
            return math.inf
        c = self.grid.centers()
        return float(np.dot(self.masses, np.exp(-0.5 * c)))

    def prob_negative(self) -> float:
        """Mass strictly below 0 plus half the mass at 0 (MAP error split)."""
        c = self.grid.center_index
        return float(self.masses[:c].sum()) + 0.5 * float(self.masses[c]) + self.neg_inf_mass

    def with_infinities_clamped(self) -> "SymmetricLLRDistribution":
        """Fold the +-inf atoms onto the outermost grid bins."""
        if self.is_finite and self.pos_inf_mass == 0.0 and self.neg_inf_mass == 0.0:
            return self
        m = self.masses.copy()
        m[-1] += self.pos_inf_mass
        m[0] += self.neg_inf_mass
        return SymmetricLLRDistribution(self.grid, m)

    def tv_distance(self, other: "SymmetricLLRDistribution") -> float:
        if self.grid != other.grid:
            raise ValueError("grid mismatch")
        d = float(np.abs(self.masses - other.masses).sum())
        d += abs(self.pos_inf_mass - other.pos_inf_mass)
        d += abs(self.neg_inf_mass - other.neg_inf_mass)
        return 0.5 * d

    def __repr__(self) -> str:
        return (f"SymmetricLLRDistribution(n_bins={self.grid.n_bins}, "
                f"r_max={self.grid.r_max}, pos_inf={self.pos_inf_mass:.3g}, "
                f"neg_inf={self.neg_inf_mass:.3g})")


@dataclass(frozen=True)
class InfoMeasures:
    """Channel functionals of one LLR law (nats)."""

    prob_error: float
    capacity: float
    chi2_capacity: float
    bhattacharyya: float
    potential_mean: float

    def as_dict(self) -> dict:
        return {
            "prob_error": self.prob_error,
            "capacity": self.capacity,
            "chi2_capacity": self.chi2_capacity,
            "bhattacharyya": self.bhattacharyya,
            "potential_mean": self.potential_mean,
        }


# -- conversions -----------------------------------------------------------

def from_delta(dist: DeltaDistribution, grid: GridConfig) -> SymmetricLLRDistribution:
    """LLR law of a crossover mixture conditioned on the + input.

    An atom at delta produces +-log((1-delta)/delta) with probabilities
    (1-delta, delta); delta = 0 maps to the +inf atom.
    """
    d = dist.deltas
    w = dist.weights
    finite = d > _INF_FLOOR
    pos_inf = float(w[~finite].sum())
    df, wf = d[finite], w[finite]
    r = np.log1p(-df) - np.log(df)
    positions = np.concatenate([r, -r])
    weights = np.concatenate([wf * (1.0 - df), wf * df])
    masses = _deposit(grid, positions, weights)
    return SymmetricLLRDistribution(grid, masses, pos_inf_mass=pos_inf)


def _pairs(mu: SymmetricLLRDistribution, symmetry_tol: float = math.inf):
    """Read a law on its +-r bin pairs, checking the pairing first.

    Returns (r, pair, center, inf, defect): the positive centers, the pair
    masses mass(r) + mass(-r), the center mass, the total infinite mass and
    the symmetry defect.  A defect beyond ``symmetry_tol`` means the masses
    cannot have come from a valid symmetric law and raises SymmetryError.
    """
    c = mu.grid.center_index
    hi = mu.masses[c + 1:]
    lo = mu.masses[:c][::-1]
    r = mu.grid.centers()[c + 1:]
    pair = hi + lo
    defect = float(np.abs(lo - expit(-r) * pair).sum()) + mu.neg_inf_mass
    if defect > symmetry_tol:
        raise SymmetryError(f"symmetry defect {defect:.3g} exceeds tolerance {symmetry_tol:.3g}")
    return r, pair, float(mu.masses[c]), mu.pos_inf_mass + mu.neg_inf_mass, defect


def _atoms(mu: SymmetricLLRDistribution, symmetry_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Crossover atoms (deltas, weights): one per pair, then center and infinity."""
    r, pair, center, inf, _ = _pairs(mu, symmetry_tol)
    return np.append(expit(-r), (0.5, 0.0)), np.append(pair, (center, inf))


def symmetry_defect(mu: SymmetricLLRDistribution) -> float:
    """L1 distance from the exactly paired cone (mass(-r) = e^-r mass(r))."""
    return _pairs(mu)[-1]


def to_delta(mu: SymmetricLLRDistribution,
             symmetry_tol: float = DEFAULT_SYMMETRY_TOL) -> DeltaDistribution:
    """Crossover-mixture form of a symmetric LLR law.

    Paired bins at +-r merge into one atom at delta = 1/(1+e^r); a defect
    beyond ``symmetry_tol`` raises SymmetryError.
    """
    return DeltaDistribution(zip(*_atoms(mu, symmetry_tol)))


def resymmetrize(mu: SymmetricLLRDistribution,
                 symmetry_tol: float = DEFAULT_SYMMETRY_TOL) -> SymmetricLLRDistribution:
    """Project onto the exactly paired cone by splitting each pair in place.

    The pair at +-r keeps its mass, divided as expit(r) : expit(-r); the
    center stays, both infinite atoms fold onto +inf, and the total is
    renormalized to 1 to absorb rounding drift of the convolutions.
    """
    r, pair, center, inf, _ = _pairs(mu, symmetry_tol)
    c = mu.grid.center_index
    m = np.empty(mu.grid.n_bins)
    m[c + 1:] = expit(r) * pair
    m[c - 1::-1] = expit(-r) * pair
    m[c] = center
    total = float(m.sum()) + inf
    return SymmetricLLRDistribution(mu.grid, m / total, pos_inf_mass=inf / total)


# -- transforms ------------------------------------------------------------

def edge_llr_map(r, theta: float):
    """LLR transform across one broadcast edge: 2 artanh(theta tanh(r/2)).

    Evaluated as sign(r) log((a + b e^-|r|) / (b + a e^-|r|)) with
    a = 1 + theta, b = 1 - theta: one exp and one log, exact at +-inf,
    free of overflow and exactly odd.  Contracts by a factor theta in the
    Lipschitz sense and saturates at +-log(a/b).
    """
    x = np.asarray(r, dtype=float)
    flat = x.reshape(-1)
    a, b = 1.0 + theta, 1.0 - theta
    u = np.abs(flat)            # in place from here on: MC calls this on big arrays
    np.negative(u, out=u)
    np.exp(u, out=u)
    out = b * u
    out += a
    u *= a
    u += b
    out /= u
    np.log(out, out=out)
    np.copysign(out, flat, out=out)
    return out.reshape(x.shape) if x.ndim else float(out[0])


def apply_edge_map(mu: SymmetricLLRDistribution, theta: float) -> SymmetricLLRDistribution:
    """Pushforward of an LLR law through the edge transform."""
    if not 0.0 <= theta < 1.0:
        raise ValueError("theta must lie in [0, 1)")
    grid = mu.grid
    positions = edge_llr_map(grid.centers(), theta)
    masses = _deposit(grid, positions, mu.masses)
    sat = edge_llr_map(math.inf, theta)
    if mu.pos_inf_mass > 0.0 or mu.neg_inf_mass > 0.0:
        masses += _deposit(grid, [sat, -sat], [mu.pos_inf_mass, mu.neg_inf_mass])
    return SymmetricLLRDistribution(grid, masses)


def flip_mix(mu: SymmetricLLRDistribution, delta: float) -> SymmetricLLRDistribution:
    """Mixture of mu and its reflection: sign flipped with probability delta."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError("flip probability must lie in [0, 1]")
    m = (1.0 - delta) * mu.masses + delta * mu.masses[::-1]
    pos = (1.0 - delta) * mu.pos_inf_mass + delta * mu.neg_inf_mass
    neg = (1.0 - delta) * mu.neg_inf_mass + delta * mu.pos_inf_mass
    return SymmetricLLRDistribution(mu.grid, m, pos_inf_mass=pos, neg_inf_mass=neg)


def convolve(mu1: SymmetricLLRDistribution,
             mu2: SymmetricLLRDistribution) -> SymmetricLLRDistribution:
    """Law of the sum of two independent LLRs on the shared grid.

    Grid sums land exactly on the grid; mass outside [-r_max, r_max]
    saturates onto the boundary bins.  Infinite atoms are rejected: only
    depth-0 initial conditions may carry them.
    """
    if mu1.grid != mu2.grid:
        raise ValueError("grid mismatch")
    if not (mu1.is_finite and mu2.is_finite):
        raise ValueError("convolve requires finite LLR laws")
    grid = mu1.grid
    full = np.convolve(mu1.masses, mu2.masses)
    start = grid.n_bins - 1 - grid.center_index
    m = full[start:start + grid.n_bins].copy()
    m[0] += full[:start].sum()
    m[-1] += full[start + grid.n_bins:].sum()
    return SymmetricLLRDistribution(grid, m)


def power_convolve(mu: SymmetricLLRDistribution, count: int) -> SymmetricLLRDistribution:
    """count-fold self-convolution by iterated doubling; count = 0 is the unit."""
    if count < 0 or int(count) != count:
        raise ValueError("count must be a nonnegative integer")
    count = int(count)
    if count == 0:
        return SymmetricLLRDistribution.unit(mu.grid)
    result = None
    base = mu
    e = count
    while True:
        if e & 1:
            result = base if result is None else convolve(result, base)
        e >>= 1
        if not e:
            return result
        base = convolve(base, base)


def poisson_convolve(mu: SymmetricLLRDistribution, mean_count: float,
                     tail_tol: float = 1e-12) -> SymmetricLLRDistribution:
    """Poisson(mean_count) mixture of self-convolutions.

    The count is truncated at the smallest B with P[count > B] < tail_tol
    and the mixture weights are renormalized.
    """
    if mean_count < 0:
        raise ValueError("mean_count must be nonnegative")
    if not 0.0 < tail_tol <= 1e-6:
        raise ValueError("tail_tol must lie in (0, 1e-6]")
    if not mu.is_finite:
        raise ValueError("poisson_convolve requires a finite LLR law")
    grid = mu.grid
    if mean_count == 0.0:
        return SymmetricLLRDistribution.unit(grid)

    pmf = math.exp(-mean_count)
    cum = pmf
    acc = np.zeros(grid.n_bins)
    acc[grid.center_index] = pmf
    cur = SymmetricLLRDistribution.unit(grid)
    b = 0
    while cum < 1.0 - tail_tol:
        b += 1
        if b > 100000:
            raise RuntimeError("poisson truncation failed to terminate")
        cur = convolve(cur, mu)
        pmf *= mean_count / b
        cum += pmf
        acc += pmf * cur.masses
    acc /= acc.sum()
    return SymmetricLLRDistribution(grid, acc)


# -- functionals -----------------------------------------------------------

def info_measures(mu: SymmetricLLRDistribution,
                  symmetry_tol: float = DEFAULT_SYMMETRY_TOL) -> InfoMeasures:
    """All channel functionals, read off the grid's bin pairs; potential_mean
    is the grid expectation E[exp(-R/2)] and equals the Bhattacharyya value
    exactly on re-symmetrized laws."""
    d, w = _atoms(mu, symmetry_tol)
    return InfoMeasures(**{name: _expect(name, d, w) for name in _TERMS},
                        potential_mean=mu.potential_mean())


def entropy(mu: SymmetricLLRDistribution,
            symmetry_tol: float = DEFAULT_SYMMETRY_TOL) -> float:
    """Conditional entropy of the broadcast bit given the observation, nats."""
    return math.log(2.0) - _expect("capacity", *_atoms(mu, symmetry_tol))


# -- serialization ---------------------------------------------------------

def dump_csv(mu: SymmetricLLRDistribution, path) -> None:
    """Write ``r,mass`` rows plus reserved ``+inf``/``-inf`` rows.

    Values are written with repr so a load round-trips bit-exactly.
    """
    centers = mu.grid.centers()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "mass"])
        for r, m in zip(centers, mu.masses):
            writer.writerow([repr(float(r)), repr(float(m))])
        writer.writerow(["+inf", repr(mu.pos_inf_mass)])
        writer.writerow(["-inf", repr(mu.neg_inf_mass)])


def load_csv(path) -> SymmetricLLRDistribution:
    rows = []
    pos_inf = neg_inf = 0.0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header[:2]] != ["r", "mass"]:
            raise ValueError(f"{path}: expected header 'r,mass'")
        for row in reader:
            if not row:
                continue
            key, val = row[0].strip(), float(row[1])
            if key == "+inf":
                pos_inf = val
            elif key == "-inf":
                neg_inf = val
            else:
                rows.append((float(key), val))
    if not rows:
        raise ValueError(f"{path}: no grid rows")
    r_max = rows[-1][0]
    grid = GridConfig(r_max=r_max, n_bins=len(rows))
    masses = np.array([m for _, m in rows])
    return SymmetricLLRDistribution(grid, masses, pos_inf_mass=pos_inf, neg_inf_mass=neg_inf)
