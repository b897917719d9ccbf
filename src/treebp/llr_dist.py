"""Quantized symmetric log-likelihood-ratio distributions.

A BMS channel conditioned on the + input induces an LLR law satisfying the
pairing mass(-r) = exp(-r) mass(r).  We keep such laws on a uniform grid
over [-r_max, r_max] with an odd bin count (so 0 is a bin center), plus two
reserved atoms at +inf and -inf for perfectly informative observations.

Grid placement uses mean-preserving two-point splitting: an off-grid atom is
divided between its two neighboring bin centers so that the mean LLR is kept
exactly.  Sums of grid positions land back on the grid.  Sums of independent
LLRs (pairs, fixed powers, compound Poisson) are taken by FFT on a zero-padded
grid long enough that the sum does not wrap; offsets outside the sum's exact
support are then set to exactly 0, and out-of-range mass is folded onto the
outermost bins once, after the full sum.

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
_EDGE_BLOCK = 1 << 13        # edge_llr_map elements per block (64 kB)
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


@lru_cache(maxsize=32)
def _crossovers(r_max: float, n_bins: int) -> np.ndarray:
    """delta = 1/(1+e^r) = q/(1+q), q = e^-r, at the positive centers r."""
    q = np.exp(-_centers(r_max, n_bins)[(n_bins + 1) // 2:])
    d = q / (1.0 + q)
    d.setflags(write=False)
    return d


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

    Returns (delta, pair, center, inf, defect): the crossover 1/(1+e^r) of
    each positive center r, the pair masses mass(r) + mass(-r), the center
    mass, the total infinite mass and the symmetry defect.  A defect beyond
    ``symmetry_tol`` means the masses cannot have come from a valid
    symmetric law and raises SymmetryError.
    """
    c = mu.grid.center_index
    hi = mu.masses[c + 1:]
    lo = mu.masses[:c][::-1]
    delta = _crossovers(mu.grid.r_max, mu.grid.n_bins)
    pair = hi + lo
    defect = float(np.abs(lo - delta * pair).sum()) + mu.neg_inf_mass
    if defect > symmetry_tol:
        raise SymmetryError(f"symmetry defect {defect:.3g} exceeds tolerance {symmetry_tol:.3g}")
    return delta, pair, float(mu.masses[c]), mu.pos_inf_mass + mu.neg_inf_mass, defect


def _atoms(mu: SymmetricLLRDistribution, symmetry_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Crossover atoms (deltas, weights): one per pair, then center and infinity."""
    delta, pair, center, inf, _ = _pairs(mu, symmetry_tol)
    return np.append(delta, (0.5, 0.0)), np.append(pair, (center, inf))


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

    The pair at +-r keeps its mass, divided as 1 - delta : delta; the
    center stays, both infinite atoms fold onto +inf, and the total is
    renormalized to 1 to absorb rounding drift of the convolutions.
    """
    delta, pair, center, inf, _ = _pairs(mu, symmetry_tol)
    c = mu.grid.center_index
    m = np.empty(mu.grid.n_bins)
    m[c + 1:] = (1.0 - delta) * pair
    m[c - 1::-1] = delta * pair
    m[c] = center
    total = float(m.sum()) + inf
    return SymmetricLLRDistribution(mu.grid, m / total, pos_inf_mass=inf / total)


# -- transforms ------------------------------------------------------------

def edge_llr_map(r, theta: float):
    """LLR transform across one broadcast edge: 2 artanh(theta tanh(r/2)).

    Evaluated as sign(r) log((a + b e^-|r|) / (b + a e^-|r|)) with
    a = 1 + theta, b = 1 - theta: one exp and one log, exact at +-inf,
    free of overflow and exactly odd.  Contracts by a factor theta in the
    Lipschitz sense and saturates at +-log(a/b).  Long inputs (MC levels)
    go through in blocks of _EDGE_BLOCK so the chain of passes stays in
    cache; each element sees the same operations either way.
    """
    x = np.asarray(r, dtype=float)
    flat = x.reshape(-1)
    a, b = 1.0 + theta, 1.0 - theta
    out = np.empty(flat.size)
    scratch = np.empty(min(flat.size, _EDGE_BLOCK))
    for lo in range(0, flat.size, _EDGE_BLOCK):
        src, dst = flat[lo:lo + _EDGE_BLOCK], out[lo:lo + _EDGE_BLOCK]
        u = scratch[:src.size]
        np.abs(src, out=u)
        np.negative(u, out=u)
        np.exp(u, out=u)
        np.multiply(u, b, out=dst)
        dst += a
        u *= a
        u += b
        dst /= u
        np.log(dst, out=dst)
        np.copysign(dst, src, out=dst)
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


def _support(mu: SymmetricLLRDistribution) -> tuple[int, int]:
    """Offsets (lo, hi) from the center bin of the first and last nonzero bins."""
    nz = np.flatnonzero(mu.masses)
    c = mu.grid.center_index
    return int(nz[0]) - c, int(nz[-1]) - c


def _spectral_sum(laws, lo: int, hi: int, combine) -> SymmetricLLRDistribution:
    """Law of a sum of independent LLRs, computed in the Fourier domain.

    Each law is placed circularly (center bin at index 0) on a zero-padded
    power-of-two length that holds every offset of the inputs and of the sum
    without wrapping; ``combine`` maps the input spectra to the spectrum of
    the sum, whose exact support is [lo, hi].  After the inverse transform,
    offsets outside [lo, hi] are dropped (they hold only rounding noise),
    rounding negatives are clipped, mass beyond +-r_max is folded onto the
    boundary bins once, after the whole sum, and the total is renormalized
    to 1 (for a Poisson sum this restores the neglected tail, as a truncated
    mixture would).
    """
    grid = laws[0].grid
    c = grid.center_index
    supports = [_support(mu) for mu in laws]
    reach = max(-lo, hi, *(max(-a, b) for a, b in supports))
    size = 1 << (2 * reach + 1).bit_length()          # power of two >= 2 reach + 2
    spectra = []
    for mu, (a, b) in zip(laws, supports):
        x = np.zeros(size)
        x[np.arange(a, b + 1) % size] = mu.masses[c + a:c + b + 1]
        spectra.append(np.fft.rfft(x))
    offsets = np.arange(lo, hi + 1)
    vals = np.fft.irfft(combine(*spectra), size)[offsets % size]
    np.clip(vals, 0.0, None, out=vals)
    bins = np.clip(offsets + c, 0, grid.n_bins - 1)
    m = np.bincount(bins, weights=vals, minlength=grid.n_bins)
    return SymmetricLLRDistribution(grid, m / m.sum())


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
    (lo1, hi1), (lo2, hi2) = _support(mu1), _support(mu2)
    return _spectral_sum((mu1, mu2), lo1 + lo2, hi1 + hi2, np.multiply)


def power_convolve(mu: SymmetricLLRDistribution, count: int) -> SymmetricLLRDistribution:
    """count-fold self-convolution, F^count in the Fourier domain; count = 0
    is the unit and count = 1 returns mu itself."""
    if count < 0 or int(count) != count:
        raise ValueError("count must be a nonnegative integer")
    count = int(count)
    if count == 0:
        return SymmetricLLRDistribution.unit(mu.grid)
    if count == 1:
        return mu
    lo, hi = _support(mu)
    return _spectral_sum((mu,), count * lo, count * hi, lambda f: f ** count)


def poisson_convolve(mu: SymmetricLLRDistribution, mean_count: float,
                     tail_tol: float = 1e-12) -> SymmetricLLRDistribution:
    """Poisson(mean_count) mixture of self-convolutions (compound Poisson law).

    Computed in closed form as exp(mean_count (F - 1)) in the Fourier
    domain.  ``tail_tol`` sizes the zero padding: with B the smallest count
    such that P[count > B] < tail_tol, no term with count <= B wraps around,
    so the neglected (wrapped or dropped) mass stays below tail_tol.
    """
    if mean_count < 0:
        raise ValueError("mean_count must be nonnegative")
    if not 0.0 < tail_tol <= 1e-6:
        raise ValueError("tail_tol must lie in (0, 1e-6]")
    if not mu.is_finite:
        raise ValueError("poisson_convolve requires a finite LLR law")
    if mean_count == 0.0:
        return SymmetricLLRDistribution.unit(mu.grid)
    pmf = cum = math.exp(-mean_count)
    b = 0
    while cum < 1.0 - tail_tol:
        b += 1
        if b > 100000:
            raise RuntimeError("poisson truncation failed to terminate")
        pmf *= mean_count / b
        cum += pmf
    lo, hi = _support(mu)
    return _spectral_sum((mu,), min(b * lo, 0), max(b * hi, 0),
                         lambda f: np.exp(mean_count * (f - 1.0)))


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
