"""Density evolution for broadcast trees with per-node surveys.

One evolution step maps the LLR law at depth k to the law at depth k+1:
each child message passes through the edge transform, picks up the
broadcast flip, the offspring aggregate is a (fixed or Poisson) convolution
power, and the node's own survey LLR is added.  Two boundary conditions are
tracked in parallel: leaves observed perfectly (point mass at +inf) and
leaves unobserved (point mass at 0).  The Bhattacharyya functional is the
potential whose gap between the two sequences certifies that the boundary
stops mattering when it contracts to zero.

Depth-k reports cover surveys at depths 0..k-1 of the depth-k window; the
flag include_root_survey only controls whether the depth-0 (root) survey
enters the reported law, which is what block-model integrands need to turn
off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .bms import DeltaDistribution, SurveySpec, bhattacharyya, delta_of, is_trivial_survey
from .llr_dist import (
    GridConfig,
    InfoMeasures,
    SymmetricLLRDistribution,
    _Stack,
    _convolve,
    _edge_map,
    _flip_mix,
    _info,
    _poisson,
    _power,
    _resymmetrize,
    apply_edge_map,
    convolve,
    flip_mix,
    from_delta,
    info_measures,
    poisson_convolve,
    power_convolve,
    resymmetrize,
)

__all__ = [
    "TreeModel",
    "DEConfig",
    "InitCondition",
    "DepthRecord",
    "EvolutionReport",
    "FixedPointResult",
    "UniquenessReport",
    "run_pair",
    "bp_fixed_point",
    "uniqueness_probe",
]

# Gap ratios are only meaningful while the gap sits well above the floating
# point noise floor of the Bhattacharyya sums.
_RATIO_FLOOR = 1e-13
# Live rows of a fixed-point stack: a step costs about 0.24 ms plus 0.15 ms a
# row, and 4 rows keep its arrays near 1 MB (33 rows took 5 MB more peak memory).
_STACK_ROWS = 4


@dataclass(frozen=True)
class TreeModel:
    """Offspring law and edge flip strength of the broadcast tree."""

    kind: str          # "regular" | "poisson"
    d: float           # offspring count (regular) or mean offspring (poisson)
    theta: float       # edge correlation, flip probability (1 - theta)/2

    def __post_init__(self):
        if self.kind not in ("regular", "poisson"):
            raise ValueError("kind must be 'regular' or 'poisson'")
        if not 0.0 <= self.theta < 1.0:
            raise ValueError("theta must lie in [0, 1)")
        if self.kind == "regular":
            if int(self.d) != self.d or self.d < 1:
                raise ValueError("regular offspring count must be an integer >= 1")
        elif not 0.0 < self.d < math.inf:
            raise ValueError("mean offspring count must be positive and finite")

    @classmethod
    def regular(cls, d: int, theta: float) -> "TreeModel":
        return cls("regular", float(d), float(theta))

    @classmethod
    def poisson(cls, d_mean: float, theta: float) -> "TreeModel":
        return cls("poisson", float(d_mean), float(theta))

    @property
    def flip(self) -> float:
        return 0.5 * (1.0 - self.theta)

    @property
    def snr(self) -> float:
        return self.d * self.theta * self.theta

    def describe(self) -> str:
        d = int(self.d) if self.kind == "regular" else self.d
        return f"{self.kind}:{d}"


@dataclass(frozen=True)
class DEConfig:
    grid: GridConfig = field(default_factory=GridConfig)
    max_depth: int = 200
    convergence_tol: float = 1e-9
    include_root_survey: bool = True

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if not 0.0 < self.convergence_tol < 1.0:
            raise ValueError("convergence_tol must lie in (0, 1)")


@dataclass(frozen=True)
class InitCondition:
    """Depth-0 law: leaves observed, unobserved, or a custom channel."""

    kind: str                                # "perfect_leaves" | "no_leaves" | "custom"
    delta: DeltaDistribution | None = None

    @classmethod
    def perfect_leaves(cls) -> "InitCondition":
        return cls("perfect_leaves")

    @classmethod
    def no_leaves(cls) -> "InitCondition":
        return cls("no_leaves")

    @classmethod
    def custom(cls, delta: DeltaDistribution) -> "InitCondition":
        return cls("custom", delta)

    def initial_distribution(self, grid: GridConfig) -> SymmetricLLRDistribution:
        if self.kind == "perfect_leaves":
            return SymmetricLLRDistribution.point(grid, math.inf)
        if self.kind == "no_leaves":
            return SymmetricLLRDistribution.unit(grid)
        if self.kind == "custom":
            if self.delta is None:
                raise ValueError("custom init needs a DeltaDistribution")
            return from_delta(self.delta, grid)
        raise ValueError(f"unknown init kind {self.kind!r}")

    def describe(self) -> str:
        if self.kind == "custom":
            return "custom:" + ",".join(f"{d:.6g}@{w:.6g}" for d, w in self.delta.atoms())
        return self.kind


def _survey_distribution(survey: SurveySpec, grid: GridConfig) -> SymmetricLLRDistribution | None:
    """Grid LLR law of the survey, infinities folded onto the boundary bins.

    Returns None for a trivial survey so steps can skip the convolution.
    """
    if is_trivial_survey(survey):
        return None
    return from_delta(delta_of(survey), grid).with_infinities_clamped()


def _step_views(mu: SymmetricLLRDistribution, model: TreeModel,
                survey_dist: SymmetricLLRDistribution | None
                ) -> tuple[SymmetricLLRDistribution, SymmetricLLRDistribution]:
    """One evolution step; returns (without, with) the new node's own survey."""
    child = flip_mix(apply_edge_map(mu, model.theta), model.flip)
    if model.kind == "regular":
        agg = power_convolve(child, int(model.d))
    else:
        agg = poisson_convolve(child, model.d)
    agg = resymmetrize(agg)
    if survey_dist is None:
        return agg, agg
    return agg, resymmetrize(convolve(agg, survey_dist))


def _stack_step(mu: _Stack, model: TreeModel, surveys) -> tuple[_Stack, _Stack]:
    """_step_views on every row of a stack, row i's survey being the grid law
    surveys[i] (None: trivial).  The survey rows are stacked anew at every
    step, so nothing is kept from one step to the next."""
    child = _flip_mix(_edge_map(mu, model.theta), model.flip)
    agg = _resymmetrize(_power(child, int(model.d)) if model.kind == "regular"
                        else _poisson(child, model.d))
    have = [i for i, law in enumerate(surveys) if law is not None]
    if not have:
        return agg, agg
    post = _resymmetrize(_convolve(agg.take(have), _Stack.of([surveys[i] for i in have])))
    if len(have) == len(agg.masses):
        return agg, post
    m, inf = agg.masses.copy(), agg.inf.copy()
    m[have], inf[have] = post.masses, post.inf
    return agg, _Stack(agg.grid, m, inf)


@dataclass(frozen=True)
class DepthRecord:
    k: int
    leaves: InfoMeasures
    noleaves: InfoMeasures
    gap: float
    gap_ratio: float     # nan when the previous gap sits at the noise floor


@dataclass
class EvolutionReport:
    """Paired evolution trace plus convergence verdicts.

    verdict is one of: "bi_holds" (gap closed and both sequences settled),
    "distinct_limits" (both sequences settled and the gap stopped
    contracting: its last four finite ratios are all >= 1 - tol),
    "undecided" (depth budget exhausted first, or the gap still closing).
    model and survey are the describe() strings of the tree model and survey.
    """

    model: str
    theta: float
    survey: str
    include_root_survey: bool
    convergence_tol: float
    records: list[DepthRecord]
    verdict: str
    converged: bool
    sequences_converged: bool
    limit_leaves: InfoMeasures = field(init=False)
    limit_noleaves: InfoMeasures = field(init=False)
    final_gap: float = field(init=False)

    def __post_init__(self):
        last = self.records[-1]
        self.limit_leaves, self.limit_noleaves = last.leaves, last.noleaves
        self.final_gap = last.gap

    @property
    def undecided(self) -> bool:
        return self.verdict == "undecided"


def _sequence_change(prev: InfoMeasures, cur: InfoMeasures) -> float:
    return max(abs(cur.prob_error - prev.prob_error),
               abs(cur.bhattacharyya - prev.bhattacharyya))


def run_pair(model: TreeModel, survey: SurveySpec, cfg: DEConfig | None = None) -> EvolutionReport:
    """Evolve perfect-leaf and no-leaf boundary conditions side by side.

    Stops once the potential gap and the successive changes of both
    sequences drop below the tolerance, or at max_depth.
    """
    cfg = cfg or DEConfig()
    grid = cfg.grid
    survey_dist = _survey_distribution(survey, grid)

    mu = InitCondition.perfect_leaves().initial_distribution(grid)
    mut = InitCondition.no_leaves().initial_distribution(grid)

    records: list[DepthRecord] = []
    im, imt = info_measures(mu), info_measures(mut)
    gap = imt.bhattacharyya - im.bhattacharyya
    records.append(DepthRecord(0, im, imt, gap, math.nan))

    converged = False
    seq_done = False
    for _ in range(cfg.max_depth):
        pre, mu = _step_views(mu, model, survey_dist)
        pret, mut = _step_views(mut, model, survey_dist)
        prev, prevt = im, imt
        im = info_measures(mu if cfg.include_root_survey else pre)
        imt = info_measures(mut if cfg.include_root_survey else pret)
        prev_gap = gap
        gap = imt.bhattacharyya - im.bhattacharyya
        ratio = gap / prev_gap if prev_gap > _RATIO_FLOOR else math.nan
        records.append(DepthRecord(len(records), im, imt, gap, ratio))

        change = max(_sequence_change(prev, im), _sequence_change(prevt, imt))
        seq_done = change < cfg.convergence_tol
        if seq_done and abs(gap) < cfg.convergence_tol:
            converged = True
            break

    # A settled pair whose gap still contracts geometrically is not yet distinct.
    tail = [r.gap_ratio for r in records if math.isfinite(r.gap_ratio)][-4:]
    if converged:
        verdict = "bi_holds"
    elif seq_done and all(ratio >= 1.0 - cfg.convergence_tol for ratio in tail):
        verdict = "distinct_limits"
    else:
        verdict = "undecided"
    return EvolutionReport(
        model=model.describe(),
        theta=model.theta,
        survey=survey.describe(),
        include_root_survey=cfg.include_root_survey,
        convergence_tol=cfg.convergence_tol,
        records=records,
        verdict=verdict,
        converged=converged,
        sequences_converged=seq_done,
    )


@dataclass
class FixedPointResult:
    trace: list[InfoMeasures]
    converged: bool
    init: str
    depth: int

    def limit(self) -> InfoMeasures:
        return self.trace[-1]


def _fixed_points(model: TreeModel, rows, cfg: DEConfig) -> list[FixedPointResult]:
    """Iterate rows of (survey, initial condition) until each row's
    functionals stall, as one stack of at most _STACK_ROWS live rows.

    Rows enter, their laws built, weakest survey first (largest
    Bhattacharyya, 1 for a trivial survey; ties in input order), so the
    slowest start first.  A row that converges or reaches max_depth
    leaves, with its survey law, and the next waiting row takes its place.
    Every row gets the bits of its lone run."""
    grid = cfg.grid
    waiting = iter(sorted(range(len(rows)), key=lambda i: -bhattacharyya(delta_of(rows[i][0]))))
    traces, converged = [None] * len(rows), [False] * len(rows)
    live, surveys, mu = [], [], None
    # Without the root survey the trace holds pre-survey laws, and its first
    # step aggregates the initial law without the survey the later steps
    # add: from no leaves it repeats the unit law, which is no fixed point.
    first_judged = 1 if cfg.include_root_survey else 2
    while True:
        new = list(islice(waiting, _STACK_ROWS - len(live)))
        if new:
            surveys += [_survey_distribution(rows[r][0], grid) for r in new]
            start = _Stack.of([rows[r][1].initial_distribution(grid) for r in new])
            for r, im in zip(new, _info(start)):
                traces[r] = [im]
            mu = start if not live else _Stack(grid, np.concatenate([mu.masses, start.masses]),
                                               np.concatenate([mu.inf, start.inf]))
            live += new
        if not live:
            break
        pre, mu = _stack_step(mu, model, surveys)
        keep = []
        for j, (r, cur) in enumerate(zip(live, _info(mu if cfg.include_root_survey else pre))):
            prev = traces[r][-1]
            traces[r].append(cur)
            change = max(abs(cur.prob_error - prev.prob_error),
                         abs(cur.bhattacharyya - prev.bhattacharyya),
                         abs(cur.capacity - prev.capacity))
            converged[r] = len(traces[r]) > first_judged and change < cfg.convergence_tol
            if not (converged[r] or len(traces[r]) > cfg.max_depth):
                keep.append(j)
        if len(keep) < len(live):
            mu, live, surveys = mu.take(keep), [live[j] for j in keep], [surveys[j] for j in keep]
    return [FixedPointResult(trace=trace, converged=done, init=init.describe(),
                             depth=len(trace) - 1)
            for trace, done, (_, init) in zip(traces, converged, rows)]


def bp_fixed_point(model: TreeModel, survey: SurveySpec, init: InitCondition,
                   cfg: DEConfig | None = None) -> FixedPointResult:
    """Iterate a single boundary condition until the functionals stall."""
    return _fixed_points(model, [(survey, init)], cfg or DEConfig())[0]


@dataclass
class UniquenessReport:
    """Numerical fixed-point multiplicity probe (evidence, not a proof).

    status: "unique" | "multiple_candidates" | "undecided".
    """

    status: str
    max_pe_diff: float
    max_z_diff: float
    inits: list[str]
    limits: list[InfoMeasures]
    depths: list[int]


def uniqueness_probe(model: TreeModel, survey: SurveySpec,
                     inits: list[InitCondition] | None = None,
                     cfg: DEConfig | None = None) -> UniquenessReport:
    """Run several initial conditions and compare their limits.

    Limits further apart than 10x the convergence tolerance flag multiple
    candidates; any non-converged run makes the probe undecided.
    """
    cfg = cfg or DEConfig()
    if inits is None:
        inits = [InitCondition.perfect_leaves(), InitCondition.no_leaves()]
    if len(inits) < 2:
        raise ValueError("uniqueness probe needs at least two initial conditions")
    results = _fixed_points(model, [(survey, init) for init in inits], cfg)
    limits = [r.limit() for r in results]
    pe = [im.prob_error for im in limits]
    z = [im.bhattacharyya for im in limits]
    max_pe, max_z = max(pe) - min(pe), max(z) - min(z)
    if not all(r.converged for r in results):
        status = "undecided"
    elif max(max_pe, max_z) > 10.0 * cfg.convergence_tol:
        status = "multiple_candidates"
    else:
        status = "unique"
    return UniquenessReport(status=status, max_pe_diff=max_pe, max_z_diff=max_z,
                            inits=[r.init for r in results], limits=limits,
                            depths=[r.depth for r in results])
