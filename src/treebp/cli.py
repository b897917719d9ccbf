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
(results, exit code, CSV table or None); main() alone writes the output.
The envelope's config is the namespace minus _NOT_CONFIG, and --config
files set parser defaults, so any flag on the command line wins.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import contextmanager

from . import __version__
from .bms import SurveySpec, bhattacharyya, delta_of, is_trivial_survey
from .density_evolution import DEConfig, TreeModel, run_pair, uniqueness_probe
from .llr_dist import GridConfig
from .monte_carlo import (BoundaryCondition, degradation_check, estimate_entropy,
                          estimate_entropy_pair, majority_stats, wsm_probe)
from .sbm import (derivative_identity_scan, exact_conditional_entropy,
                  sbm_entropy_via_trees)
from .spin_sync import SyncGraph, mi_root_boundary
from .thresholds import (bi_region_scan, high_snr_threshold, peak_contraction_gain,
                         region_criterion, regular_d2_window_endpoint,
                         survey_strength_bounds)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNDECIDED = 2

# Namespace entries that steer a run without changing its results.
_NOT_CONFIG = frozenset({"func", "tool", "command", "out", "config", "workers", "trace_csv"})


# Library fields set by one flag each, so their errors can name the flag alone.
_FIELD_FLAGS = {"max_depth": "--depth", "convergence_tol": "--tol", "r_max": "--grid-rmax",
                "n_bins": "--grid-bins", "theta": "--theta"}


class CliError(Exception):
    """One-line user-facing diagnostic; must name the offending parameter."""


@contextmanager
def _blame(flags: str):
    """Re-raise library ValueError/OSError as a CliError naming flags.

    A message that starts with a field of _FIELD_FLAGS whose flag is among
    flags names that flag in place of the field ("--tol must lie in
    (0, 1)"); any other message is prefixed with flags.
    """
    try:
        yield
    except (ValueError, OSError) as exc:
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
            self._apply_config(args)
        return super().parse_known_args(args, namespace)

    def _apply_config(self, args) -> None:
        """Load --config key=value lines as this parser's defaults.

        Defaults go through each flag's type= like typed values, and a flag
        the file supplies is no longer required.  This mutates the parser,
        so build a fresh one per parse (main does).
        """
        probe = argparse.ArgumentParser(add_help=False, exit_on_error=False)
        probe.add_argument("--config")
        try:
            path = probe.parse_known_args(args)[0].config
        except argparse.ArgumentError as exc:
            raise CliError(str(exc)) from None
        if path is None:
            return
        with _blame("--config"), open(path) as fh:
            lines = fh.read().splitlines()
        actions = {a.dest: a for a in self._actions if a.option_strings and a.dest != "help"}
        values = {}
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
            if dest not in actions:
                raise CliError(f"--config: line {ln}: unknown key {key!r}")
            values[dest] = value
            actions[dest].required = False
        self.set_defaults(**values)


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
    report = run_pair(model, survey, cfg)
    if args.trace_csv:
        report.write_trace_csv(args.trace_csv)
    results = report.as_dict()
    results["method"] = "density_evolution"
    return results, EXIT_UNDECIDED if report.undecided else EXIT_OK, None


def _cmd_de_probe(args):
    survey = _parse_survey(args.survey)
    model = _parse_model(args.model, args.theta)
    cfg = _de_config(args)
    z = bhattacharyya(delta_of(survey))
    region = region_criterion(model.snr, z)
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
        "probe": probe.as_dict(),
    }
    return results, code, None


# ---------------------------------------------------------------------------
# thresholds

def _cmd_thresholds_constants(args):
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
    if args.x_steps < 1 or args.y_steps < 1:
        raise CliError("--x-steps/--y-steps: must be positive")
    xs = [args.x_min + i * (args.x_max - args.x_min) / max(args.x_steps - 1, 1)
          for i in range(args.x_steps)]
    ys = [args.y_min + i * (args.y_max - args.y_min) / max(args.y_steps - 1, 1)
          for i in range(args.y_steps)]
    with _blame("--family"):
        points = bi_region_scan(xs, ys, family=args.family)
    table = (["x", "y", "bound_value", "in_region", "criterion"],
             [[repr(p.x), repr(p.y), repr(p.bound_value), p.in_region, p.criterion]
              for p in points])
    return {"points": [p.__dict__ for p in points]}, EXIT_OK, table


# ---------------------------------------------------------------------------
# mc

def _cmd_mc_entropy(args):
    survey = _parse_survey(args.survey)
    model = _parse_model(args.model, args.theta)
    common = dict(seed=args.seed, include_root_survey=args.include_root_survey,
                  workers=args.workers)
    if args.boundary == "pair":
        with _blame("--depth/--samples"):
            pair = estimate_entropy_pair(model, survey, args.depth, args.samples, **common)
        return pair.as_dict(), EXIT_OK, None
    with _blame("--boundary"):
        boundary = BoundaryCondition.parse(args.boundary)
    with _blame("--depth/--samples"):
        res = estimate_entropy(model, survey, args.depth, boundary, args.samples, **common)
    return {"entropy": res.as_dict()}, EXIT_OK, None


def _cmd_mc_majority(args):
    model = _parse_model(args.model, args.theta)
    with _blame("--eta/--depth/--samples"):
        report = majority_stats(model.d, args.theta, args.eta, args.depth, args.samples,
                                kind=model.kind, seed=args.seed, workers=args.workers)
    return report.as_dict(), EXIT_OK, None


def _cmd_mc_wsm(args):
    survey = _parse_survey(args.survey)
    model = _parse_model(args.model, args.theta)
    with _blame("--model/--survey/--depth/--samples/--boundary-llr"):
        report = wsm_probe(model, survey, args.depth, args.samples, seed=args.seed,
                           boundary_magnitude=args.boundary_llr, workers=args.workers)
    code = EXIT_UNDECIDED if report.status == "no_separation_found" else EXIT_OK
    return report.as_dict(), code, None


def _cmd_mc_degradation(args):
    survey = _parse_survey(args.survey)
    model = _parse_model(args.model, args.theta)
    with _blame("--depth/--samples/--bins"):
        report = degradation_check(model, survey, args.depth, args.samples,
                                   n_bins=args.bins, seed=args.seed, workers=args.workers)
    return report.as_dict(), EXIT_OK, None


# ---------------------------------------------------------------------------
# sbm

def _cmd_sbm_exact(args):
    with _blame("--n/--a/--b/--eps/--graphs"):
        res = exact_conditional_entropy(args.n, args.a, args.b, args.eps, args.graphs,
                                        seed=args.seed, workers=args.workers)
    return {"entropy_per_vertex": res.as_dict()}, EXIT_OK, None


def _cmd_sbm_integral(args):
    with _blame("--a/--b/--eps-points"):
        report = sbm_entropy_via_trees(args.a, args.b, args.eps_points)
    table = (["eps", "entropy", "flagged"],
             [[repr(e), repr(h), f] for e, h, f in
              zip(report.eps_values, report.entropy_values, report.flagged)])
    return report.as_dict(), EXIT_UNDECIDED if report.status == "undecided" else EXIT_OK, table


def _cmd_sbm_derivative(args):
    with _blame("--n/--a/--b/--eps/--h/--graphs"):
        h_values = [float(h) for h in args.h.split(",") if h]
        report = derivative_identity_scan(args.n, args.a, args.b, args.eps, h_values,
                                          args.graphs, seed=args.seed, workers=args.workers)
    return report.as_dict(), EXIT_OK, None


# ---------------------------------------------------------------------------
# spin-sync

def _cmd_spin_sync_mi(args):
    with _blame("--graph/--radius"):
        graph = SyncGraph.parse(args.graph, radius=args.radius)
    exact = {"auto": None, "yes": True, "no": False}.get(args.exact)
    if args.exact not in ("auto", "yes", "no"):
        raise CliError(f"--exact: expected auto, yes, or no, got {args.exact!r}")
    with _blame("--theta/--eps/--graph/--samples"):
        res = mi_root_boundary(graph, args.theta, args.eps, exact=exact,
                               n_obs_samples=args.samples, seed=args.seed,
                               workers=args.workers)
    table = (["radius", "value", "stderr", "method", "ball_size", "boundary_size", "n_edges"],
             [[args.radius, repr(res.value), repr(res.stderr), res.method,
               res.ball_size, res.boundary_size, res.n_edges]])
    return res.as_dict(), EXIT_OK, table


# Commands whose results also come as a CSV table (--out *.csv).
_TABLE_COMMANDS = frozenset({_cmd_thresholds_region, _cmd_sbm_integral, _cmd_spin_sync_mi})


# ---------------------------------------------------------------------------
# parser assembly

def _flags(*parents) -> argparse.ArgumentParser:
    """A parent parser for flags that several commands share."""
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


def build_parser() -> _Parser:
    common = _flags()
    common.add_argument("--seed", type=int, default=0, help="deterministic seed (integer)")
    common.add_argument("--config", help="flat key=value file; explicit flags win")
    common.add_argument("--out", help="output path (.json report, .csv where tabular)")
    workers = _flags()
    workers.add_argument("--workers", type=int, default=None,
                         help="worker processes (default: all cores; result invariant)")
    grid = _flags()
    grid.add_argument("--grid-bins", type=int, default=2001,
                      help="quantization bins (odd integer >= 3)")
    grid.add_argument("--grid-rmax", type=float, default=30.0,
                      help="grid saturation magnitude (> 0)")
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
        p.set_defaults(func=func)
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
    p.add_argument("--family", default="bec", help="survey family: bec or bms")

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
    p.add_argument("--exact", default="auto", help="auto | yes | no")
    return top


# ---------------------------------------------------------------------------
# output

def _json_default(obj):
    item = getattr(obj, "item", None)
    if callable(item):
        return item()        # numpy scalars keep their Python type
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _write_output(args, results: dict, table) -> None:
    """The CSV table for --out *.csv, else the JSON envelope to --out or stdout."""
    if args.out and args.out.endswith(".csv"):
        header, rows = table
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
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
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.out and args.out.endswith(".csv") and args.func not in _TABLE_COMMANDS:
            raise CliError(f"--out: '{args.tool} {args.command}' has no CSV table; "
                           "give a .json path")
        results, code, table = args.func(args)
        _write_output(args, results, table)
        return code
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
