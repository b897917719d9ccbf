"""Quantized symmetric log-likelihood-ratio distributions.

A BMS channel conditioned on the + input induces an LLR law satisfying the
pairing mass(-r) = exp(-r) mass(r).  We keep such laws on a uniform grid
over [-r_max, r_max] with an odd bin count (so 0 is a bin center), plus two
reserved atoms at +inf and -inf for perfectly informative observations.

Grid placement uses mean-preserving two-point splitting: an off-grid atom is
divided between its two neighboring bin centers so that the mean LLR is kept
exactly.  Sums of grid positions land back on the grid.  A pair sum whose
second law is sparse (every BEC or BSC survey has 1-4 nonzero bins) is added
directly, as weighted, shifted copies of the first law, with mass beyond
+-r_max folded onto the outermost bins.  Other sums of independent LLRs (fixed powers,
compound Poisson, pairs with a dense second law) are taken by FFT on a
zero-padded grid long enough that the sum does not wrap; offsets outside the
sum's exact support are then set to exactly 0, and out-of-range mass is
folded onto the outermost bins once, after the full sum.

Bins at +r and -r form a pair, which reads as one crossover atom at
delta = 1/(1+e^r) carrying the pair's mass.  The projection onto the exactly
paired cone splits each pair's mass in place as (1-delta, delta), so it moves
no mass between pairs and is idempotent; density evolution applies it after
every step to stop quantization drift of the symmetry.  Channel functionals
are read off the same pairs.  The crossover-mixture form (DeltaDistribution)
is only an import and export format.

Every transform runs on a stack of laws, one per row (``_Stack``), with
each row checked, cropped and folded on its own, and an FFT sum taken at
each row's own length; the single-law functions are one-row calls.  Row for
row, a stack gives the bits of a one-row call, whatever the other rows.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bms import _TERMS, DeltaDistribution

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
    "poisson_truncation",
    "info_measures",
    "resymmetrize",
]

_MASS_SLACK = 1e-7
_INF_FLOOR = 1e-15
_POISSON_TAIL = 1e-12        # poisson_convolve neglects less than this much mass
_EDGE_BLOCK = 1 << 13        # edge_llr_map elements per block (64 kB)
DEFAULT_SYMMETRY_TOL = 0.05  # quantization alone can displace ~h/4 of pairing mass
# A pair sum whose second law has at most this many nonzero bins is taken as
# shifted adds.  On the default grid, for one row, a shifted add costs about
# 14 us and a spectral sum about 0.25-0.3 ms.  A 20-step Poisson(4) `de run` with a custom
# survey took 0.040 s by shifted adds against 0.044 s by FFT at 8 atoms (30
# bins), but 0.069 s against 0.052 s at 16 atoms (56 bins).  BEC and BSC
# surveys have 1-4 bins; only custom mixtures of 5 or more atoms (at most 4
# bins an atom) can exceed the cut.
_SHIFT_ADD_BINS = 16


class SymmetryError(ValueError):
    """Raised when a distribution is too far from any valid symmetric law."""


@dataclass(frozen=True)
class GridConfig:
    """Uniform symmetric LLR grid: n_bins centers spanning [-r_max, r_max]."""

    r_max: float = 30.0
    n_bins: int = 2001

    def __post_init__(self):
        if not 0 < self.r_max < math.inf:
            raise ValueError("r_max must be positive and finite")
        if self.r_max > 1400.0:    # exp(r_max / 2), the weight of bin -r_max, overflows at 1419.6
            raise ValueError("r_max must be at most 1400")
        if self.n_bins < 3 or self.n_bins % 2 == 0:
            raise ValueError("n_bins must be odd and at least 3")
        if self.step < sys.float_info.min:    # a subnormal step breaks the deposit's arithmetic
            raise ValueError(f"grid step {self.step:.3g} is below the smallest normal float")

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


@lru_cache(maxsize=32)
def _terms(grid: GridConfig) -> tuple[dict, np.ndarray]:
    """What the functionals dot a law with: each _TERMS entry at the crossover
    atoms (one per pair, then center and infinity), and exp(-r/2) at the centers."""
    d = np.append(_crossovers(grid.r_max, grid.n_bins), (0.5, 0.0))
    terms = {name: term(d) for name, term in _TERMS.items()}
    half = np.exp(-0.5 * grid.centers())
    for v in (*terms.values(), half):
        v.setflags(write=False)
    return terms, half


def _deposit_plan(grid: GridConfig, positions) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bins [i0, i0 + 1] and fractions (1 - frac, frac) of the mean-preserving
    linear split of atoms at positions onto the grid.

    Positions beyond +-r_max saturate onto the boundary bins.  Positions are
    mapped through x = r/step + center_index so that r = 0 hits the center
    bin exactly in floating point.
    """
    r = np.asarray(positions, dtype=float)
    x = np.clip(r, -grid.r_max, grid.r_max) / grid.step + grid.center_index
    i0 = np.floor(x).astype(np.int64)
    np.clip(i0, 0, grid.n_bins - 2, out=i0)
    frac = x - i0
    return np.concatenate([i0, i0 + 1]), 1.0 - frac, frac


def _deposit_rows(grid: GridConfig, plan, weights: np.ndarray) -> np.ndarray:
    """Rows of atom weights (rows, atoms) split onto the grid by a plan, in order as np.add.at."""
    bins, left, right = plan
    rows, n = len(weights), grid.n_bins
    flat = (bins + n * np.arange(rows)[:, None]).ravel()
    w = np.concatenate([weights * left, weights * right], axis=1).ravel()
    return np.bincount(flat, weights=w, minlength=rows * n).reshape(rows, n)


def _deposit(grid: GridConfig, positions, weights) -> np.ndarray:
    """Mean-preserving linear split of weighted atoms onto the grid."""
    return _deposit_rows(grid, _deposit_plan(grid, positions), np.asarray(weights, float)[None])[0]


class _Stack:
    """Rows of LLR laws on one grid: masses (rows, n_bins), and inf (rows, 2)
    holding each row's +inf and -inf atoms.

    Built from rows already checked (``of``, ``take``) or through ``checked``,
    which checks every row as SymmetricLLRDistribution does.  The masses are
    frozen because ``row`` hands out views of them, and a
    SymmetricLLRDistribution must stay immutable.
    """

    __slots__ = ("grid", "masses", "inf")

    def __init__(self, grid: GridConfig, masses: np.ndarray, inf: np.ndarray) -> None:
        masses.setflags(write=False)
        self.grid, self.masses, self.inf = grid, masses, inf

    @classmethod
    def checked(cls, grid: GridConfig, masses: np.ndarray, inf=None) -> "_Stack":
        """No mass below -1e-12, rounding negatives clipped (in place), and each
        row's total within _MASS_SLACK of 1."""
        inf = np.zeros((len(masses), 2)) if inf is None else inf
        low = min(masses.min(initial=0.0), inf.min(initial=0.0))
        if low < -1e-12:
            raise ValueError("negative probability mass")
        if low < 0.0:
            np.maximum(masses, 0.0, out=masses)
            np.maximum(inf, 0.0, out=inf)
        off = [t for t in (masses.sum(axis=1) + inf.sum(axis=1)).tolist()
               if abs(t - 1.0) > _MASS_SLACK]
        if off:
            raise ValueError(f"total mass {off[0]!r} is not 1")
        return cls(grid, masses, inf)

    @classmethod
    def of(cls, laws) -> "_Stack":
        grid = laws[0].grid
        if any(mu.grid != grid for mu in laws):
            raise ValueError("grid mismatch")
        return cls(grid, np.array([mu.masses for mu in laws]),
                   np.array([(mu.pos_inf_mass, mu.neg_inf_mass) for mu in laws]))

    @property
    def is_finite(self) -> bool:
        return bool(self.inf.max(initial=0.0) <= _INF_FLOOR)

    def take(self, rows) -> "_Stack":
        return _Stack(self.grid, self.masses[rows], self.inf[rows])

    def row(self, i: int, mu=None) -> "SymmetricLLRDistribution":
        """Row i as a law, filled into mu when given."""
        mu = object.__new__(SymmetricLLRDistribution) if mu is None else mu
        for name, value in zip(mu.__slots__, (self.grid, self.masses[i],
                                              float(self.inf[i, 0]), float(self.inf[i, 1]))):
            object.__setattr__(mu, name, value)
        return mu


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
        inf = np.array([[pos_inf_mass, neg_inf_mass]], dtype=float)
        _Stack.checked(grid, m[None], inf).row(0, self)

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

    def with_infinities_clamped(self) -> "SymmetricLLRDistribution":
        """Fold the +-inf atoms onto the outermost grid bins."""
        if self.pos_inf_mass == 0.0 and self.neg_inf_mass == 0.0:
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


def _pairs(s: _Stack, symmetry_tol: float = math.inf):
    """Read each row on its +-r bin pairs, checking the pairing first.

    Returns (delta, pair, center, inf, defect): the crossover 1/(1+e^r) of
    each positive center r, and per row the pair masses mass(r) + mass(-r),
    the center mass, the total infinite mass and the symmetry defect.  A
    row's defect beyond ``symmetry_tol`` means its masses cannot have come
    from a valid symmetric law and raises SymmetryError.
    """
    c = s.grid.center_index
    hi = s.masses[:, c + 1:]
    lo = s.masses[:, c - 1::-1]
    delta = _crossovers(s.grid.r_max, s.grid.n_bins)
    pair = hi + lo
    defect = np.abs(lo - delta * pair).sum(axis=1) + s.inf[:, 1]
    worst = float(defect.max())
    if worst > symmetry_tol:
        raise SymmetryError(f"symmetry defect {worst:.3g} exceeds tolerance {symmetry_tol:.3g}")
    return delta, pair, s.masses[:, c], s.inf[:, 0] + s.inf[:, 1], defect


def symmetry_defect(mu: SymmetricLLRDistribution) -> float:
    """L1 distance from the exactly paired cone (mass(-r) = e^-r mass(r))."""
    return float(_pairs(_Stack.of([mu]))[-1][0])


def to_delta(mu: SymmetricLLRDistribution) -> DeltaDistribution:
    """Crossover-mixture form of a symmetric LLR law.

    Paired bins at +-r merge into one atom at delta = 1/(1+e^r); a defect
    beyond DEFAULT_SYMMETRY_TOL raises SymmetryError.
    """
    delta, pair, center, inf, _ = _pairs(_Stack.of([mu]), DEFAULT_SYMMETRY_TOL)
    return DeltaDistribution(zip(np.append(delta, (0.5, 0.0)),
                                 np.append(pair[0], (center[0], inf[0]))))


def _resymmetrize(s: _Stack) -> _Stack:
    delta, pair, center, inf, _ = _pairs(s, DEFAULT_SYMMETRY_TOL)
    c = s.grid.center_index
    m = np.empty(s.masses.shape)
    m[:, c + 1:] = (1.0 - delta) * pair
    m[:, c - 1::-1] = delta * pair
    m[:, c] = center
    total = m.sum(axis=1) + inf
    return _Stack.checked(s.grid, m / total[:, None],
                          np.column_stack([inf / total, np.zeros(len(m))]))


def resymmetrize(mu: SymmetricLLRDistribution) -> SymmetricLLRDistribution:
    """Project onto the exactly paired cone by splitting each pair in place.

    The pair at +-r keeps its mass, divided as 1 - delta : delta; the
    center stays, both infinite atoms fold onto +inf, and the total is
    renormalized to 1 to absorb rounding drift of the convolutions.
    """
    return _resymmetrize(_Stack.of([mu])).row(0)


# -- transforms ------------------------------------------------------------

def edge_llr_map(r, theta: float, out: np.ndarray | None = None):
    """LLR transform across one broadcast edge: 2 artanh(theta tanh(r/2)).

    Evaluated as sign(r) log((a + b e^-|r|) / (b + a e^-|r|)) with
    a = 1 + theta, b = 1 - theta: one exp and one log, exact at +-inf,
    free of overflow and exactly odd.  Contracts by a factor theta in the
    Lipschitz sense and saturates at +-log(a/b).  Long inputs (MC levels)
    go through in blocks of _EDGE_BLOCK so the chain of passes stays in
    cache; each element sees the same operations either way.  An array r
    may give out, a contiguous float array of its shape that does not
    overlap it, to receive the result.
    """
    x = np.asarray(r, dtype=float)
    flat = x.reshape(-1)
    a, b = 1.0 + theta, 1.0 - theta
    out = np.empty(flat.size) if out is None else out.reshape(-1)
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


@lru_cache(maxsize=32)
def _edge_plan(grid: GridConfig, theta: float) -> tuple:
    """Deposit plans of the edge transform for the grid centers and for the
    +-inf atoms (which land at +-log((1+theta)/(1-theta)))."""
    if not 0.0 <= theta < 1.0:
        raise ValueError("theta must lie in [0, 1)")
    sat = edge_llr_map(math.inf, theta)
    plans = (_deposit_plan(grid, edge_llr_map(grid.centers(), theta)),
             _deposit_plan(grid, [sat, -sat]))
    for a in (*plans[0], *plans[1]):
        a.setflags(write=False)
    return plans


def _edge_map(s: _Stack, theta: float) -> _Stack:
    body, inf = _edge_plan(s.grid, theta)
    m = _deposit_rows(s.grid, body, s.masses)
    if s.inf.any():
        m += _deposit_rows(s.grid, inf, s.inf)
    return _Stack.checked(s.grid, m)


def apply_edge_map(mu: SymmetricLLRDistribution, theta: float) -> SymmetricLLRDistribution:
    """Pushforward of an LLR law through the edge transform."""
    return _edge_map(_Stack.of([mu]), theta).row(0)


def _flip_mix(s: _Stack, delta: float) -> _Stack:
    m = (1.0 - delta) * s.masses + delta * s.masses[:, ::-1]
    return _Stack.checked(s.grid, m, (1.0 - delta) * s.inf + delta * s.inf[:, ::-1])


def flip_mix(mu: SymmetricLLRDistribution, delta: float) -> SymmetricLLRDistribution:
    """Mixture of mu and its reflection: sign flipped with probability delta."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError("flip probability must lie in [0, 1]")
    return _flip_mix(_Stack.of([mu]), delta).row(0)


def _support(s: _Stack) -> tuple[np.ndarray, np.ndarray]:
    """Per row, offsets (lo, hi) from the center bin of the first and last
    nonzero bins."""
    nz = s.masses != 0.0
    c = s.grid.center_index
    return nz.argmax(axis=1) - c, nz.shape[1] - 1 - nz[:, ::-1].argmax(axis=1) - c


def _spectrum(s: _Stack, size: int) -> np.ndarray:
    """Row spectra of s placed circularly (center bin at index 0) on length
    size, exact for each row whose support lies within (-size/2, size/2)."""
    c = s.grid.center_index
    k = min(size // 2 - 1, c)
    x = np.zeros((len(s.masses), size))
    x[:, :k + 1] = s.masses[:, c:c + k + 1]
    x[:, size - k:] = s.masses[:, c - k:c]
    return np.fft.rfft(x, axis=1)


def _spectral_sum(s: _Stack, bounds, combine, reach=0) -> np.ndarray:
    """Row masses of sums of independent LLRs, computed in the Fourier domain.

    ``bounds`` maps the rows' supports to the exact supports [lo, hi] of the
    sums, ``combine(F, size, rows)`` returns the spectra of the sums from the
    spectra F of those rows at FFT length size (it may overwrite F), and
    ``reach`` is the farthest offset of any other summand, per row.  Each row
    takes the shortest power-of-two length that holds its offsets without
    wrapping, and the rows of one length share one transform.  Only a row's
    [lo, hi] is kept, rounding negatives are clipped, mass beyond +-r_max is
    folded, in offset order, onto the boundary bins once, after the whole
    sum, and each total is renormalized to 1 (for a Poisson sum this
    restores the neglected tail, as a truncated mixture would).
    """
    c = s.grid.center_index
    a, b = _support(s)
    lo, hi = bounds(a, b)
    reach = np.maximum(np.maximum(np.maximum(-lo, hi), np.maximum(-a, b)), reach).tolist()
    sizes = [1 << (2 * r + 1).bit_length() for r in reach]      # powers of two >= 2 reach + 2
    m = np.zeros(s.masses.shape)
    for size in set(sizes):
        rows = [i for i, z in enumerate(sizes) if z == size]
        x = _spectrum(s if len(rows) == len(sizes) else s.take(rows), size)
        for i, y in zip(rows, np.fft.irfft(combine(x, size, rows), size, axis=1)):
            l, h = int(lo[i]), int(hi[i])
            v = np.concatenate((y[l:], y[:h + 1])) if l < 0 <= h else y[l % size:h % size + 1]
            np.maximum(v, 0.0, out=v)
            m[i, c + max(l, -c):c + min(h, c) + 1] += v[max(l, -c) - l:min(h, c) - l + 1]
            if l < -c:
                m[i, 0] = np.cumsum(v[:-c - l + 1])[-1]
            if h > c:
                m[i, -1] = np.cumsum(v[c - l:])[-1]
    return m / m.sum(axis=1, keepdims=True)


def _shifted_sum(m: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Sum over bins j of the rows of masses m shifted by bin j's offset and
    weighted by w[:, j], with mass beyond +-r_max folded onto the boundary
    bins, each total renormalized to 1."""
    n = m.shape[1]
    out = np.zeros(m.shape)
    bins = np.flatnonzero(w.any(axis=0))
    for d, wj in zip((bins - (n - 1) // 2).tolist(), w[:, bins].T[:, :, None]):
        if d >= 0:
            out[:, d:] += wj * m[:, :n - d]
            out[:, -1:] += wj * m[:, n - d:].sum(axis=1, keepdims=True)
        else:
            out[:, :d] += wj * m[:, -d:]
            out[:, :1] += wj * m[:, :-d].sum(axis=1, keepdims=True)
    return out / out.sum(axis=1, keepdims=True)


def _convolve(s: _Stack, other: _Stack) -> _Stack:
    """Row i of s plus an independent draw from row i of other.

    A row whose draw is sparse (at most _SHIFT_ADD_BINS nonzero bins, as
    every BEC/BSC survey is) adds it exactly, as weighted shifted copies;
    a denser draw goes through the spectral sum, its spectrum taken anew
    at each call.
    """
    if not (s.is_finite and other.is_finite):
        raise ValueError("convolve requires finite LLR laws")
    w = other.masses
    if np.count_nonzero(w.any(axis=0)) <= _SHIFT_ADD_BINS:      # every row is sparse
        return _Stack.checked(s.grid, _shifted_sum(s.masses, w))
    sparse = np.count_nonzero(w, axis=1) <= _SHIFT_ADD_BINS
    m = np.empty(s.masses.shape)
    m[sparse] = _shifted_sum(s.masses[sparse], w[sparse])
    dense = other.take(~sparse)
    a, b = _support(dense)
    m[~sparse] = _spectral_sum(s.take(~sparse), lambda lo, hi: (lo + a, hi + b),
                               lambda f, n, i: np.multiply(f, _spectrum(dense.take(i), n), out=f),
                               reach=np.maximum(-a, b))
    return _Stack.checked(s.grid, m)


def convolve(mu1: SymmetricLLRDistribution,
             mu2: SymmetricLLRDistribution) -> SymmetricLLRDistribution:
    """Law of the sum of two independent LLRs on the shared grid.

    Grid sums land exactly on the grid; mass outside [-r_max, r_max]
    saturates onto the boundary bins.  Infinite atoms are rejected: only
    depth-0 initial conditions may carry them.
    """
    if mu1.grid != mu2.grid:
        raise ValueError("grid mismatch")
    return _convolve(_Stack.of([mu1]), _Stack.of([mu2])).row(0)


def _power(s: _Stack, count: int) -> _Stack:
    if count == 1:
        return s
    return _Stack.checked(s.grid, _spectral_sum(s, lambda lo, hi: (count * lo, count * hi),
                                                lambda f, *_: np.power(f, count, out=f)))


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
    return _power(_Stack.of([mu]), count).row(0)


@lru_cache(maxsize=32)
def poisson_truncation(mean_count: float) -> int:
    """Smallest B with P[Poisson(mean_count) > B] < _POISSON_TAIL, which sizes poisson_convolve's
    padding; past a mean of about 740 the terms underflow first (ValueError)."""
    pmf = cum = math.exp(-mean_count)
    b = 0
    while cum < 1.0 - _POISSON_TAIL:
        if pmf == 0.0:
            raise ValueError(f"Poisson mean {mean_count:g} is too large to truncate "
                             "(its probabilities underflow)")
        b += 1
        pmf *= mean_count / b
        cum += pmf
    return b


def _poisson(s: _Stack, mean_count: float) -> _Stack:
    if not s.is_finite:
        raise ValueError("poisson_convolve requires a finite LLR law")
    b = poisson_truncation(mean_count)
    return _Stack.checked(s.grid, _spectral_sum(
        s, lambda lo, hi: (np.minimum(b * lo, 0), np.maximum(b * hi, 0)),
        lambda f, *_: np.exp(np.multiply(mean_count, np.subtract(f, 1.0, out=f), out=f), out=f)))


def poisson_convolve(mu: SymmetricLLRDistribution, mean_count: float) -> SymmetricLLRDistribution:
    """Poisson(mean_count) mixture of self-convolutions (compound Poisson law).

    Computed in closed form as exp(mean_count (F - 1)) in the Fourier
    domain.  _POISSON_TAIL sizes the zero padding: with B the smallest count
    such that P[count > B] < _POISSON_TAIL, no term with count <= B wraps
    around, so the neglected (wrapped or dropped) mass stays below it.
    """
    if mean_count < 0:
        raise ValueError("mean_count must be nonnegative")
    if mean_count == 0.0:
        return SymmetricLLRDistribution.unit(mu.grid)
    return _poisson(_Stack.of([mu]), mean_count).row(0)


# -- functionals -----------------------------------------------------------

def _info(s: _Stack) -> list[InfoMeasures]:
    _, pair, center, inf, _ = _pairs(s, DEFAULT_SYMMETRY_TOL)
    terms, half = _terms(s.grid)
    weights = np.column_stack([pair, center, inf])
    out = []
    for i, w in enumerate(weights):
        pm = math.inf if s.inf[i, 1] > _INF_FLOOR else float(np.dot(s.masses[i], half))
        out.append(InfoMeasures(**{name: float(np.dot(w, t)) for name, t in terms.items()},
                                potential_mean=pm))
    return out


def info_measures(mu: SymmetricLLRDistribution) -> InfoMeasures:
    """All channel functionals, read off the grid's bin pairs; potential_mean
    is the grid expectation E[exp(-R/2)] and equals the Bhattacharyya value
    exactly on re-symmetrized laws."""
    return _info(_Stack.of([mu]))[0]
