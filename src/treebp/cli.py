"""Single command line entry point for every engine in the package.

Subcommands are grouped by module: de (density evolution), thresholds
(closed-form constants and region scans), mc (tree sampling estimators),
sbm (block-model oracles and the tree integral), spin-sync (exact
mutual-information checks).  Every run prints or writes a JSON document
embedding the resolved configuration, the seed, and the package version,
so any output is reproducible from the file alone.  Exit codes: 0 for a
decided run, 2 for a mathematically honest "undecided", 1 for errors,
each error being a one-line diagnostic naming the offending parameter.

Each command function takes the parsed namespace and returns
(results, exit code, CSV table or None); main() checks that the output
paths' directories are writable before the run and writes the results
after it, and de run's --trace-csv table goes through the same CSV
writer.  Results are
library result objects, serialized as their dataclass fields.  The
envelope's config is the namespace minus _NOT_CONFIG.  A --config file's
lines are parsed as flags placed ahead of the typed ones, so any flag on
the command line wins.

The parser is built once per process and never changed after that.  Each
command imports its engine (monte_carlo, sbm, spin_sync, thresholds) when
it runs, so importing this module loads only what the package loads.
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import fields, is_dataclass

from . import __version__
from .bms import SurveySpec, bhattacharyya, delta_of, is_trivial_survey
from .density_evolution import DEConfig, TreeModel, run_pair, uniqueness_probe
from .llr_dist import GridConfig, SymmetryError, poisson_truncation

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNDECIDED = 2

# Namespace entries that steer a run without changing its results.
_NOT_CONFIG = frozenset({"func", "tool", "command", "out", "config", "workers", "trace_csv"})


# Library fields set by one flag each, so their errors can name the flag alone.
_FIELD_FLAGS = {"max_depth": "--depth", "convergence_tol": "--tol", "r_max": "--grid-rmax",
                "n_bins": "--grid-bins", "theta": "--theta", "h_values": "--h", "exact": "--exact"}


class CliError(Exception):
    """One-line user-facing diagnostic; must name the offending parameter."""


@contextmanager
def _blame(flags: str, errors=(ValueError, OSError)):
    """Re-raise library errors of the given kinds as a CliError naming flags.

    A message that starts with a field of _FIELD_FLAGS whose flag is among
    flags names that flag in place of the field ("--tol must lie in
    (0, 1)"); any other message is prefixed with flags.
    """
    try:
        yield
    except errors as exc:
        text = str(exc)
        field = text.split(" ", 1)[0]
        flag = _FIELD_FLAGS.get(field)
        if flag in flags.split("/"):
            raise CliError(flag + text[len(field):]) from None
        raise CliError(f"{flags}: {text}") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)

    def parse_known_args(self, args=None, namespace=None):
        # Command parsers own --config and receive only their own arguments.
        if any(action.dest == "config" for action in self._actions):
            args = [*self._config_args(args), *args]
        return super().parse_known_args(args, namespace)

    def _config_args(self, args) -> list[str]:
        """The --config file's key=value lines as --flag=value arguments.

        They go ahead of the typed arguments, and argparse keeps a flag's
        last value, so a typed flag in any form wins over the file, and a
        required flag the file sets is satisfied.  Values pass through
        verbatim, each through its flag's type= like a typed value.
        """
        try:
            path = _config_probe().parse_known_args(args)[0].config
        except argparse.ArgumentError as exc:
            raise CliError(str(exc)) from None
        if path is None:
            return []
        with _blame("--config"), open(path) as fh:
            lines = fh.read().splitlines()
        flags = {a.dest: a.option_strings[0] for a in self._actions
                 if a.option_strings and a.dest != "help"}
        out = []
        for ln, raw in enumerate(lines, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CliError(f"--config: line {ln} is not key=value: {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            dest = key.replace("-", "_")
            if dest == "config":
                raise CliError("--config: config files cannot nest")
            if dest not in flags:
                raise CliError(f"--config: line {ln}: unknown key {key!r}")
            out.append(f"{flags[dest]}={value}")
        return out


@functools.cache
def _config_probe() -> argparse.ArgumentParser:
    probe = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    probe.add_argument("--config")
    return probe


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")


def _float_or_none(text: str) -> float | None:
    if text.strip().lower() == "none":
        return None
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number or none, got {text!r}") from None


def _parse_model(text: str, theta: float) -> TreeModel:
    parts = text.strip().split(":")
    with _blame("--model/--theta"):
        if parts[0] == "regular" and len(parts) == 2:
            return TreeModel.regular(int(parts[1]), theta)
        if parts[0] == "poisson" and len(parts) == 2:
            return TreeModel.poisson(float(parts[1]), theta)
    raise CliError(f"--model: cannot parse {text!r} (want regular:D or poisson:D)")


def _parse_survey(text: str) -> SurveySpec:
    with _blame("--survey"):
        return SurveySpec.parse(text)


def _de_config(args, **extra) -> DEConfig:
    with _blame("--grid-bins/--grid-rmax"):
        grid = GridConfig(r_max=args.grid_rmax, n_bins=args.grid_bins)
    with _blame("--depth/--tol"):
        return DEConfig(grid=grid, max_depth=args.depth, convergence_tol=args.tol, **extra)


def _check_truncation(model: TreeModel) -> None:
    """Name --model, before density evolution, for a Poisson mean it cannot truncate."""
    if model.kind == "poisson":
        with _blame("--model"):
            poisson_truncation(model.d)


# ---------------------------------------------------------------------------
# de

def _cmd_de_run(args):
    survey = _parse_survey(args.survey)
    model = _parse_model(args.model, args.theta)
    cfg = _de_config(args, include_root_survey=args.include_root_survey)
    if is_trivial_survey(survey) and model.snr <= 1.0:
        # Below the reconstruction threshold with no survey the uniform
        # fixed point is exact; the quantized engine would stall just shy
        # of it, so report the closed-form verdict instead of iterating.
        results = {
            "verdict": "trivial_fixed_point",
            "method": "subcritical_shortcut",
            "snr": model.snr,
            "limit": {"prob_error": 0.5, "capacity": 0.0,
                      "chi2_capacity": 0.0, "bhattacharyya": 1.0},
        }
        return results, EXIT_OK, None
    _check_truncation(model)
    with _blame("--grid-bins/--grid-rmax", SymmetryError):   # the grid too coarse to stay paired
        report = run_pair(model, survey, cfg)
    if args.trace_csv:
        _write_csv("--trace-csv", args.trace_csv, (
            ["k", "Pe_leaves", "Pe_noleaves", "C_leaves", "C_noleaves",
             "Z_leaves", "Z_noleaves", "gap", "gap_ratio"],
            [[r.k, repr(r.leaves.prob_error), repr(r.noleaves.prob_error),
              repr(r.leaves.capacity), repr(r.noleaves.capacity),
              repr(r.leaves.bhattacharyya), repr(r.noleaves.bhattacharyya),
              repr(r.gap), repr(r.gap_ratio)] for r in report.records]))
    results = {**_fields(report), "method": "density_evolution"}
    return results, EXIT_UNDECIDED if report.undecided else EXIT_OK, None


def _cmd_de_probe(args):
    from .thresholds import region_criterion
    survey = _parse_survey(args.survey)
    model = _parse_model(args.model, args.theta)
    cfg = _de_config(args)
    z = bhattacharyya(delta_of(survey))
    region = region_criterion(model.snr, z)
    _check_truncation(model)
    with _blame("--grid-bins/--grid-rmax", SymmetryError):
        probe = uniqueness_probe(model, survey, cfg=cfg)
    certified = region.criterion != "none"
    if certified and probe.status == "unique":
        verdict, code = "certified_unique", EXIT_OK
    elif certified:
        # theory says unique but the engine disagrees or ran out of depth
        verdict, code = "conflict", EXIT_UNDECIDED
    else:
        verdict, code = f"uncertified_{probe.status}", EXIT_UNDECIDED
    results = {
        "verdict": verdict,
        "snr": model.snr,
        "survey_bhattacharyya": z,
        "region_criterion": region.criterion,
        "region_bound_value": region.bound_value,
        "probe": probe,
    }
    return results, code, None


# ---------------------------------------------------------------------------
# thresholds

def _cmd_thresholds_constants(args):
    from .thresholds import (high_snr_threshold, peak_contraction_gain,
                             regular_d2_window_endpoint, survey_strength_bounds)
    bounds = survey_strength_bounds()
    results = {
        "alpha_star": high_snr_threshold(),
        "z_bound": bounds.z_bound,
        "pe_bound": bounds.pe_bound,
        "xi_bound": bounds.xi_bound,
        "peak_gain": peak_contraction_gain(),
        "d2_window_endpoint": regular_d2_window_endpoint(),
    }
    return results, EXIT_OK, None


def _cmd_thresholds_region(args):
    from .thresholds import bi_region_scan
    if args.x_steps < 1 or args.y_steps < 1:
        raise CliError("--x-steps/--y-steps: must be positive")
    xs = [args.x_min + i * (args.x_max - args.x_min) / max(args.x_steps - 1, 1)
          for i in range(args.x_steps)]
    ys = [args.y_min + i * (args.y_max - args.y_min) / max(args.y_steps - 1, 1)
          for i in range(args.y_steps)]
    with _blame("--x-min/--x-max/--y-min/--y-max"):
        points = bi_region_scan(xs, ys, family=args.family)
    table = (["x", "y", "bound_value", "in_region", "criterion"],
             [[repr(p.x), repr(p.y), repr(p.bound_value), p.in_region, p.criterion]
              for p in points])
    return {"points": points}, EXIT_OK, table


# ---------------------------------------------------------------------------
# mc

def _cmd_mc_entropy(args):
    from .monte_carlo import BoundaryCondition, estimate_entropy, estimate_entropy_pair
    survey = _parse_survey(args.survey)
    model = _parse_model(args.model, args.theta)
    common = dict(seed=args.seed, include_root_survey=args.include_root_survey,
                  workers=args.workers)
    if args.boundary == "pair":
        with _blame("--model", OverflowError), _blame("--depth/--samples"):
            pair = estimate_entropy_pair(model, survey, args.depth, args.samples, **common)
        return pair, EXIT_OK, None
    with _blame("--boundary"):
        boundary = BoundaryCondition.parse(args.boundary)
    with _blame("--model", OverflowError), _blame("--depth/--samples"):
        res = estimate_entropy(model, survey, args.depth, boundary, args.samples, **common)
    return {"entropy": res}, EXIT_OK, None


def _cmd_mc_majority(args):
    from .monte_carlo import majority_stats
    model = _parse_model(args.model, args.theta)
    with _blame("--eta/--depth/--samples"):
        report = majority_stats(model, args.eta, args.depth, args.samples,
                                seed=args.seed, workers=args.workers)
    return report, EXIT_OK, None


def _cmd_mc_wsm(args):
    from .monte_carlo import wsm_probe
    survey = _parse_survey(args.survey)
    model = _parse_model(args.model, args.theta)
    with _blame("--model/--survey/--depth/--samples/--boundary-llr"):
        report = wsm_probe(model, survey, args.depth, args.samples, seed=args.seed,
                           boundary_magnitude=args.boundary_llr, workers=args.workers)
    code = EXIT_UNDECIDED if report.status == "no_separation_found" else EXIT_OK
    return report, code, None


def _cmd_mc_degradation(args):
    from .monte_carlo import degradation_check
    survey = _parse_survey(args.survey)
    model = _parse_model(args.model, args.theta)
    with _blame("--model", OverflowError), _blame("--depth/--samples/--bins"):
        report = degradation_check(model, survey, args.depth, args.samples,
                                   n_bins=args.bins, seed=args.seed, workers=args.workers)
    return report, EXIT_OK, None


# ---------------------------------------------------------------------------
# sbm

def _cmd_sbm_exact(args):
    from .sbm import exact_conditional_entropy
    with _blame("--n/--a/--b/--eps/--graphs"):
        res = exact_conditional_entropy(args.n, args.a, args.b, args.eps, args.graphs,
                                        seed=args.seed, workers=args.workers)
    return {"entropy_per_vertex": res}, EXIT_OK, None


def _cmd_sbm_integral(args):
    from .sbm import sbm_entropy_via_trees
    with _blame("--a/--b/--eps-points"):
        report = sbm_entropy_via_trees(args.a, args.b, args.eps_points)
    table = (["eps", "entropy", "flagged"],
             [[repr(e), repr(h), f] for e, h, f in
              zip(report.eps_values, report.entropy_values, report.flagged)])
    return report, EXIT_UNDECIDED if report.status == "undecided" else EXIT_OK, table


def _cmd_sbm_derivative(args):
    from .sbm import derivative_identity_scan
    with _blame("--n/--a/--b/--eps/--h/--graphs"):
        h_values = [float(h) for h in args.h.split(",") if h]
        report = derivative_identity_scan(args.n, args.a, args.b, args.eps, h_values,
                                          args.graphs, seed=args.seed, workers=args.workers)
    return report, EXIT_OK, None


# ---------------------------------------------------------------------------
# spin-sync

def _cmd_spin_sync_mi(args):
    from .spin_sync import SyncGraph, mi_root_boundary
    with _blame("--graph/--radius"):
        graph = SyncGraph.parse(args.graph, radius=args.radius)
    exact = {"auto": None, "yes": True, "no": False}[args.exact]
    with _blame("--theta/--eps/--samples/--exact"):
        res = mi_root_boundary(graph, args.theta, args.eps, exact=exact,
                               n_obs_samples=args.samples, seed=args.seed,
                               workers=args.workers)
    table = (["radius", "value", "stderr", "method", "ball_size", "boundary_size", "n_edges"],
             [[args.radius, repr(res.value), repr(res.stderr), res.method,
               res.ball_size, res.boundary_size, res.n_edges]])
    return res, EXIT_OK, table


# Commands whose results also come as a CSV table (--out *.csv).
_TABLE_COMMANDS = frozenset({"_cmd_thresholds_region", "_cmd_sbm_integral", "_cmd_spin_sync_mi"})


# ---------------------------------------------------------------------------
# parser assembly

def _flags(*parents) -> argparse.ArgumentParser:
    """A parent parser for flags that several commands share."""
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


@functools.cache
def build_parser() -> _Parser:
    """The one parser of this process; parsing never changes it."""
    common = _flags()
    common.add_argument("--seed", type=_nonneg_int, default=0,
                        help="deterministic seed (non-negative integer)")
    common.add_argument("--config", help="flat key=value file; explicit flags win")
    common.add_argument("--out", help="output path (.json report, .csv where tabular)")
    workers = _flags()
    workers.add_argument("--workers", type=int, default=None,
                         help="worker processes (default: all cores; result invariant)")
    grid = _flags()
    grid.add_argument("--grid-bins", type=int, default=2001,
                      help="quantization bins (odd integer >= 3)")
    grid.add_argument("--grid-rmax", type=float, default=30.0,
                      help="grid saturation magnitude (> 0, at most 1400)")
    model = _flags()
    model.add_argument("--model", required=True, help="regular:D or poisson:D")
    theta = _flags()
    theta.add_argument("--theta", type=float, required=True, help="edge correlation in [0,1)")
    survey = _flags()
    survey.add_argument("--survey", required=True,
                        help="bsc:p | bec:eps | trivial | custom:@file.csv")
    root_survey = _flags()
    root_survey.add_argument("--include-root-survey", type=_parse_bool, default=True,
                             help="count the root's own survey (true/false)")
    de_flags = _flags(model, theta, survey, grid)
    de_flags.add_argument("--tol", type=float, default=1e-9, help="convergence tolerance (> 0)")
    trees = _flags(model, theta)
    trees.add_argument("--depth", type=int, required=True,
                       help="tree depth (>= 1; entropy and degradation take 0)")
    trees.add_argument("--samples", type=int, default=100_000, help="tree samples (>= 2)")

    top = _Parser(prog="treebp", description=__doc__.splitlines()[0])
    top.add_argument("--version", action="version", version=f"treebp {__version__}")
    tools = top.add_subparsers(dest="tool", required=True)

    def area(name, help):
        return tools.add_parser(name, help=help).add_subparsers(dest="command", required=True)

    def command(group, name, func, help, *parents):
        p = group.add_parser(name, help=help, parents=[*parents, common])
        p.set_defaults(func=func.__name__)     # main looks the command up when it runs
        return p

    de = area("de", "density evolution")
    p = command(de, "run", _cmd_de_run, "paired evolution from both boundary extremes",
                de_flags, root_survey)
    p.add_argument("--depth", type=int, default=200, help="maximum depth (>= 1)")
    p.add_argument("--trace-csv", help="write the per-depth trace to this CSV path")
    p = command(de, "probe", _cmd_de_probe, "fixed-point uniqueness probe with certification",
                de_flags)
    p.add_argument("--depth", type=int, default=400, help="maximum depth (>= 1)")

    th = area("thresholds", "closed-form constants and regions")
    command(th, "constants", _cmd_thresholds_constants, "threshold constants as JSON")
    p = command(th, "region", _cmd_thresholds_region,
                "certified boundary-irrelevance region scan")
    p.add_argument("--x-min", type=float, default=0.25, help="min branching SNR")
    p.add_argument("--x-max", type=float, default=4.0, help="max branching SNR")
    p.add_argument("--x-steps", type=int, default=16, help="SNR grid points")
    p.add_argument("--y-min", type=float, default=0.05, help="min survey parameter")
    p.add_argument("--y-max", type=float, default=0.95, help="max survey parameter")
    p.add_argument("--y-steps", type=int, default=10, help="survey grid points")
    p.add_argument("--family", default="bec", choices=("bec", "bms"), help="survey family")

    mc = area("mc", "sampled-tree estimators")
    p = command(mc, "entropy", _cmd_mc_entropy, "root conditional entropy estimates",
                trees, survey, root_survey, workers)
    p.add_argument("--boundary", default="pair",
                   help="pair | perfect | none | plus:B | minus:B")
    p = command(mc, "majority", _cmd_mc_majority, "boundary majority vote statistics", trees,
                workers)
    p.add_argument("--eta", type=float, required=True,
                   help="leaf observation flip probability in (0, 1/2)")
    p = command(mc, "wsm", _cmd_mc_wsm, "boundary sensitivity probe", trees, survey,
                workers)
    p.add_argument("--boundary-llr", type=float, default=30.0,
                   help="boundary magnitude B for the +-B runs (> 0)")
    p = command(mc, "degradation", _cmd_mc_degradation,
                "binned leaves-vs-none ordering check", trees, survey, workers)
    p.add_argument("--bins", type=int, default=20, help="quantile bins (>= 1)")

    sbm = area("sbm", "block-model oracles")
    p = command(sbm, "exact", _cmd_sbm_exact, "exact small-n conditional entropy", workers)
    p.add_argument("--n", type=int, required=True, help="vertices (<= 14)")
    p.add_argument("--a", type=float, required=True, help="within intensity (0 <= a <= n)")
    p.add_argument("--b", type=float, required=True, help="across intensity (0 <= b <= n)")
    p.add_argument("--eps", type=_float_or_none, default=None,
                   help="survey erasure in [0,1], or none for no survey")
    p.add_argument("--graphs", type=int, default=200, help="graph samples (>= 1)")
    p = command(sbm, "integral", _cmd_sbm_integral, "tree-side entropy integral over erasure")
    p.add_argument("--a", type=float, required=True, help="within intensity (> 0)")
    p.add_argument("--b", type=float, required=True, help="across intensity (> 0)")
    p.add_argument("--eps-points", type=int, default=33,
                   help="quadrature points on [0, 1] (>= 3)")
    p = command(sbm, "derivative", _cmd_sbm_derivative, "erasure derivative identity check",
                workers)
    p.add_argument("--n", type=int, required=True, help="vertices (<= 12)")
    p.add_argument("--a", type=float, required=True, help="within intensity")
    p.add_argument("--b", type=float, required=True, help="across intensity")
    p.add_argument("--eps", type=float, required=True, help="erasure level in (0, 1)")
    p.add_argument("--h", default="0.05",
                   help="step size(s), comma separated, eps +- h inside (0, 1)")
    p.add_argument("--graphs", type=int, default=200, help="graph samples (>= 2)")

    ss = area("spin-sync", "root-boundary information checks")
    p = command(ss, "mi", _cmd_spin_sync_mi, "root-boundary mutual information on a ball",
                theta, workers)
    p.add_argument("--graph", required=True, help="path:K | cycle:K | grid:RxC | tree:ARITY:DEPTH")
    p.add_argument("--eps", type=float, required=True, help="survey erasure in [0,1]")
    p.add_argument("--radius", type=int, default=1, help="ball radius (>= 1)")
    p.add_argument("--samples", type=int, default=20_000,
                   help="observation samples when not exact (>= 2)")
    p.add_argument("--exact", default="auto", choices=("auto", "yes", "no"), help="exact mode")
    return top


# ---------------------------------------------------------------------------
# output

def _fields(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _json_default(obj):
    """Result objects serialize as their fields, numpy scalars as Python scalars."""
    if is_dataclass(obj):
        return _fields(obj)
    item = getattr(obj, "item", None)
    if callable(item):
        return item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _write_csv(flag: str, path: str, table) -> None:
    header, rows = table
    with _blame(flag), open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _check_writable(flag: str, path: str | None) -> None:
    """Fail before the run, naming flag, when path is a directory or its
    directory is missing or not writable."""
    if not path:
        return
    directory = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code, directory = errno.EISDIR, path
    elif not os.path.isdir(directory):
        code = errno.ENOTDIR if os.path.exists(directory) else errno.ENOENT
    elif not os.access(directory, os.W_OK | os.X_OK):
        code = errno.EACCES
    else:
        return
    with _blame(flag):
        raise OSError(code, os.strerror(code), directory)


def _write_output(args, results, table) -> None:
    """The CSV table for --out *.csv, else the JSON envelope to --out or stdout."""
    if args.out and args.out.endswith(".csv"):
        _write_csv("--out", args.out, table)
        return
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool": "treebp",
        "version": __version__,
        "command": f"{args.tool} {args.command}",
        "config": {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG},
        "seed": args.seed,
        "results": results,
    }
    text = json.dumps(doc, sort_keys=True, indent=2, default=_json_default) + "\n"
    if args.out:
        with _blame("--out"), open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.out and args.out.endswith(".csv") and args.func not in _TABLE_COMMANDS:
            raise CliError(f"--out: '{args.tool} {args.command}' has no CSV table; "
                           "give a .json path")
        _check_writable("--out", args.out)
        _check_writable("--trace-csv", getattr(args, "trace_csv", None))
        results, code, table = globals()[args.func](args)
        _write_output(args, results, table)
        return code
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
