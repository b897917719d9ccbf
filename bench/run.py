"""treebp benchmark: CLI workloads end to end, plus a traced per-layer pass.

Run from the repository root (Python 3.10+, numpy, scipy; nothing to build):

    python3 bench/run.py --workload de-poisson --seed 1 --seconds 20 --trace 0

Each workload is a fixed list of ``treebp`` command lines, run in process as
``treebp.cli.main(argv)`` calls by a single caller, back to back: a closed
loop with one client, every command with ``--workers 1`` where it takes the
flag (the reference box has 2 cores).  Every ``--seed`` passed to a command
is derived from the workload seed; the DE and spin-sync commands take none.
Every command's output is checked against a reference recorded in
``references.json``; a command whose exit code is not 0 or whose check fails
counts as failed.

``--trace 0`` times passes until the next one would overrun ``--seconds``
(at least one pass) and reports the end-to-end metrics: the median pass
time, set-up time, peak memory and the share of commands that passed.
``--trace 1`` runs the same untraced passes, then the extra measurements of
the workload, then one traced pass (see spans.py), and reports the per-layer
metrics.  The last stdout line is the result object; the line before it is
the run's provenance.  A full report, and in traced runs the spans, are
written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("de-poisson", "de-regular", "mc-tree", "exact-oracles")
SETUP_REPEATS = 5

# README: quantized laws built from off-grid atoms carry an O(h^2) error of
# about 6e-6 at the default grid.
DE_TOL = 1e-5
SPIN_SYNC_TOL = 1e-9
MC_SIGMAS, MC_SLACK = 3.0, 1e-3
EXACT_SIGMAS = 4.0

REGULAR5_X = (0.5, 0.9, 1.5, 2.5, 4.0)
REGULAR5_EPS = (0.1, 0.3, 0.5, 0.7, 0.9)

REFS = json.loads((BENCH / "references.json").read_text())


@dataclass(frozen=True)
class Sizes:
    """Problem sizes that do not change what a workload exercises."""

    eps_points: int = 33        # sbm integral quadrature points
    regular_grid: int = 25      # criterion-06 grid points run (of 25)
    bec_trees: int = 2000       # mc entropy, regular:4 bec:0.5 depth 8
    bsc_trees: int = 3000       # mc entropy, poisson:4 bsc:0.2 depth 7
    exact_graphs: int = 400     # sbm exact, n = 12
    derivative_graphs: int = 200  # sbm derivative, n = 10


FULL = Sizes()


@dataclass
class Op:
    """One command line and the check its output must pass."""

    kind: str                                   # e.g. "de_run"
    argv: list
    check: Callable[[dict], list]               # results -> problems
    info: dict = field(default_factory=dict)    # sizes and computed counters
    expect_text: str | None = None              # output must match byte for byte


@dataclass
class OpResult:
    op: Op
    seconds: float
    code: int | None
    text: str
    problems: list

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    def results(self) -> dict:
        return json.loads(self.text)["results"]


# ---------------------------------------------------------------------------
# Checks


def _near(problems: list, what: str, value: float, ref: float, tol: float) -> None:
    if not abs(value - ref) <= tol:
        problems.append(f"{what} {value!r} differs from reference {ref!r} by more than {tol:.3g}")


def de_error(kind: str, key: str, res: dict) -> float:
    """Largest deviation of a DE output from its recorded reference."""
    if kind == "sbm_integral":
        return abs(res["integral"] - REFS["sbm_integral"][key])
    ref = REFS["de_run"][key]
    return max(abs(res["limit_leaves"]["capacity"] - ref["capacity_leaves"]),
               abs(res["limit_noleaves"]["capacity"] - ref["capacity_noleaves"]))


def _de_run(model: str, theta: str, survey: str) -> Op:
    key = f"{model} {theta} {survey}"

    def check(res):
        problems = []
        if res["verdict"] != REFS["de_run"][key]["verdict"]:
            problems.append(f"verdict {res['verdict']}")
        err = de_error("de_run", key, res)
        if not err <= DE_TOL:
            problems.append(f"limit capacity off its reference by {err:.3g}")
        return problems

    return Op("de_run", ["de", "run", "--model", model, "--theta", theta, "--survey", survey],
              check, {"ref": key})


def _sbm_integral(a: int, b: int, points: int) -> Op:
    key = f"{a} {b} {points}"

    def check(res):
        problems = [] if res["n_undecided"] == 0 else [f"{res['n_undecided']} undecided"]
        _near(problems, "integral", res["integral"], REFS["sbm_integral"][key], DE_TOL)
        return problems

    return Op("sbm_integral", ["sbm", "integral", "--a", str(a), "--b", str(b),
                               "--eps-points", str(points)], check, {"ref": key})


def _nominal_nodes(d: int, depth: int) -> int:
    """Full-tree node count with d children per node (mean d for Poisson)."""
    return (d ** (depth + 1) - 1) // (d - 1)


def _mc_entropy(model: str, d: int, survey: str, depth: int, trees: int, seed: int) -> Op:
    key = f"{model} 0.8 {survey} {depth}"
    argv = ["mc", "entropy", "--model", model, "--theta", "0.8", "--survey", survey,
            "--depth", str(depth), "--samples", str(trees), "--seed", str(seed),
            "--workers", "1"]

    def check(res):
        problems = []
        h_leaves, h_none = REFS["mc_entropy_de"][key]
        for side, ref in (("leaves", h_leaves), ("no_leaves", h_none)):
            est = res[side]
            _near(problems, f"{side} entropy", est["estimate"], ref,
                  MC_SIGMAS * est["stderr"] + MC_SLACK)
            if est["n_samples"] != trees:
                problems.append(f"{side} n_samples {est['n_samples']}")
        return problems

    return Op("mc_entropy", argv, check,
              {"trees": trees, "nominal_nodes": trees * _nominal_nodes(d, depth),
               "survey": survey.split(":")[0]})


def _sbm_exact(graphs: int, seed: int) -> Op:
    ref, ref_se = REFS["sbm_exact"]["12 4 1 0.5"]

    def check(res):
        est = res["entropy_per_vertex"]
        problems = [] if est["n_samples"] == graphs else [f"n_samples {est['n_samples']}"]
        _near(problems, "entropy per vertex", est["estimate"], ref,
              EXACT_SIGMAS * math.hypot(est["stderr"], ref_se))
        return problems

    return Op("sbm_exact", ["sbm", "exact", "--n", "12", "--a", "4", "--b", "1",
                            "--eps", "0.5", "--graphs", str(graphs), "--seed", str(seed),
                            "--workers", "1"], check, {"graphs": graphs})


def _sbm_derivative(graphs: int, seed: int) -> Op:
    def check(res):
        return [] if res["ok"] else [f"identity_ok {res['identity_ok']} "
                                     f"scaling_ok {res['scaling_ok']}"]

    return Op("sbm_derivative", ["sbm", "derivative", "--n", "10", "--a", "5", "--b", "1",
                                 "--eps", "0.5", "--h", "0.1,0.05,0.025",
                                 "--graphs", str(graphs), "--seed", str(seed),
                                 "--workers", "1"], check, {"graphs": graphs})


def _spin_sync_mi() -> Op:
    key = "path:9 0.8 0.9 4"

    def check(res):
        problems = [] if res["method"] == "exact" else [f"method {res['method']}"]
        _near(problems, "mutual information", res["value"], REFS["spin_sync_mi"][key],
              SPIN_SYNC_TOL)
        return problems

    return Op("spin_sync_mi", ["spin-sync", "mi", "--graph", "path:9", "--theta", "0.8",
                               "--eps", "0.9", "--radius", "4", "--workers", "1"], check)


def workload_ops(workload: str, seed: int, sizes: Sizes = FULL) -> list:
    """The workload's command lines, with every --seed derived from seed."""
    seeds = random.Random(seed)

    def draw() -> int:
        return seeds.randrange(2 ** 31)

    if workload == "de-poisson":
        return [_sbm_integral(4, 1, sizes.eps_points),
                _de_run("poisson:4", "0.8", "bec:0.5")]
    if workload == "de-regular":
        grid = [_de_run("regular:5", repr(math.sqrt(x / 5)), f"bec:{eps}")
                for x in REGULAR5_X for eps in REGULAR5_EPS]
        return grid[:sizes.regular_grid] + [_de_run("regular:4", "0.8", "bec:0.5")]
    if workload == "mc-tree":
        return [_mc_entropy("regular:4", 4, "bec:0.5", 8, sizes.bec_trees, draw()),
                _mc_entropy("poisson:4", 4, "bsc:0.2", 7, sizes.bsc_trees, draw())]
    if workload == "exact-oracles":
        return [_sbm_exact(sizes.exact_graphs, draw()),
                _sbm_derivative(sizes.derivative_graphs, draw()),
                _spin_sync_mi()]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Running


def run_op(op: Op, cli_main, wrap=None) -> OpResult:
    """Run one command in process; any exception is a failed command."""
    out = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = wrap("cli", cli_main, op.argv) if wrap else cli_main(op.argv)
    except Exception:  # keep measuring the other commands; the failure is counted
        traceback.print_exc()
        code = None
    seconds = perf_counter() - t0
    text = out.getvalue()
    if code != 0:
        problems = [f"exit code {code}"]
    else:
        try:
            problems = op.check(json.loads(text)["results"])
        except (ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if op.expect_text is not None and text != op.expect_text:
            problems.append("output differs from the --workers 1 output")
    if problems:
        print(f"FAILED {' '.join(op.argv)}: {'; '.join(problems)}", file=sys.stderr)
    return OpResult(op, seconds, code, text, problems)


def timed_passes(ops: list, seconds: float, cli_main) -> list:
    """Closed loop: passes back to back while the next fits in the budget."""
    passes = []
    start = perf_counter()
    while True:
        passes.append([run_op(op, cli_main) for op in ops])
        last = sum(r.seconds for r in passes[-1])
        if perf_counter() - start + last > seconds:
            return passes


def measure_setup(repeats: int) -> float:
    """Median time for a fresh interpreter to start and import treebp.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", "import treebp.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)   # fills the bytecode cache
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def mc_extras(first_pass: list, cli_main) -> list:
    """The pair commands again under --boundary perfect, and the BEC one on
    two workers.

    --boundary perfect draws the same trees, leaf sums included, as the pair
    and runs one of its two upward passes, so its leaves estimate must equal
    the pair's exactly.  The two-worker output must be byte-identical to the
    one-worker output.
    """
    extras = []
    for r in first_pass:
        pair = None if r.failed else r.results()

        def same_trees(res, pair=pair):
            if pair is None:
                return ["pair run failed"]
            return [] if res["entropy"] == pair["leaves"] else [
                "--boundary perfect estimate differs from the pair's leaves"]

        extras.append(run_op(Op("mc_entropy_perfect", r.op.argv + ["--boundary", "perfect"],
                                same_trees, r.op.info), cli_main))
        if r.op.info["survey"] == "bec":
            argv = list(r.op.argv)
            argv[argv.index("--workers") + 1] = "2"
            extras.append(run_op(Op("mc_entropy_w2", argv, lambda res: [], r.op.info,
                                    expect_text=r.text), cli_main))
    return extras


# ---------------------------------------------------------------------------
# Metrics


def _pass_seconds(results: list) -> float:
    return sum(r.seconds for r in results)


def end_to_end(passes: list, setup_s: float) -> dict:
    results = [r for p in passes for r in p]
    return {
        "wall_s": statistics.median(_pass_seconds(p) for p in passes),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": sum(not r.failed for r in results) / len(results),
    }


def per_layer(passes: list, extras: list, traced: list, tracer) -> dict:
    """Per-layer values; 0 where the workload does not reach the layer and
    None where a traced library function no longer exists."""
    first = passes[0]

    def op_s(i: int) -> float:
        return statistics.median(p[i].seconds for p in passes)

    def kind_s(*kinds: str) -> float:
        return statistics.median(sum(r.seconds for r in p if r.op.kind in kinds)
                                 for p in passes)

    def index(kind: str, **info) -> list:
        return [i for i, r in enumerate(first) if r.op.kind == kind and not r.failed
                and all(r.op.info.get(k) == v for k, v in info.items())]

    def calls(name: str):
        return tracer.calls[name] if name in tracer.wrapped else None

    def probe(name: str, needs: str):
        return tracer.probes[name] if needs in tracer.wrapped else None

    v = {
        "llr_dist.convolve.calls": calls("llr_dist.convolve"),
        "llr_dist.convolve.self_s": tracer.self_s("llr_dist.convolve"),
        "llr_dist.convolve.macs": probe("llr_dist.convolve.macs", "llr_dist.convolve"),
        "llr_dist.poisson_convolve.self_s": tracer.self_s("llr_dist.poisson_convolve"),
        "llr_dist.power_convolve.self_s": tracer.self_s("llr_dist.power_convolve"),
        "llr_dist.resymmetrize.calls": calls("llr_dist.resymmetrize"),
        "llr_dist.resymmetrize.self_s": tracer.self_s("llr_dist.resymmetrize"),
        "llr_dist.to_delta.self_s": tracer.self_s("llr_dist.to_delta"),
        "llr_dist.from_delta.self_s": tracer.self_s("llr_dist.from_delta"),
        "llr_dist.edge_map.self_s": tracer.self_s("llr_dist.apply_edge_map",
                                                  "llr_dist.flip_mix"),
        "llr_dist.info_measures.self_s": tracer.self_s("llr_dist.info_measures"),
        "llr_dist.self_s": tracer.layer_self_s("llr_dist"),
        "bms.delta_distribution.calls": calls("bms.delta_distribution"),
        "bms.delta_distribution.self_s": tracer.self_s("bms.delta_distribution"),
        "bms.functionals.self_s": tracer.self_s("bms.prob_error", "bms.capacity",
                                                "bms.chi2_capacity", "bms.bhattacharyya"),
        "density_evolution.self_s": tracer.layer_self_s("density_evolution"),
        "thresholds.self_s": tracer.layer_self_s("thresholds"),
        "monte_carlo.self_s": tracer.layer_self_s("monte_carlo"),
        "sbm.self_s": tracer.layer_self_s("sbm"),
        "sbm.label_loglik.self_s": tracer.self_s("sbm.label_loglik"),
        "sbm.subset_entropy_table.calls": calls("sbm.subset_entropy_table"),
        "sbm.subset_entropy_table.self_s": tracer.self_s("sbm.subset_entropy_table"),
        "spin_sync.mi.self_s": tracer.self_s("spin_sync.mi_root_boundary"),
        "cli.self_s": tracer.self_s("cli"),
        "trace.overhead_s": _pass_seconds(traced) - statistics.median(
            _pass_seconds(p) for p in passes),
        "trace.probe_s": tracer.probe_ns / 1e9,
        "trace.spans": len(tracer.spans),
    }
    for name in ("pre_projection_defect_max", "saturated_mass_max",
                 "projection_idempotence_tv"):
        v[f"llr_dist.{name}"] = probe(f"llr_dist.{name}", "llr_dist.resymmetrize")
    n_delta = v["bms.delta_distribution.calls"]
    atoms = tracer.probes["bms.delta_distribution.atoms"]
    v["bms.delta_distribution.atoms_mean"] = None if n_delta is None else atoms / max(n_delta, 1)

    steps = tracer.probes["density_evolution.steps"]
    de_ops = index("de_run") + index("sbm_integral")
    v["density_evolution.steps"] = steps
    v["density_evolution.undecided"] = tracer.probes["density_evolution.undecided"]
    v["density_evolution.ms_per_step"] = (
        1000.0 * kind_s("de_run", "sbm_integral") / steps if steps else 0.0)
    v["density_evolution.ref_abs_err"] = max(
        (de_error(first[i].op.kind, first[i].op.info["ref"], first[i].results())
         for i in de_ops), default=0.0)
    v["sbm.integral.points"] = sum(len(first[i].results()["eps_values"])
                                   for i in index("sbm_integral"))

    for kind in ("de_run", "sbm_integral", "mc_entropy", "sbm_exact", "sbm_derivative",
                 "spin_sync_mi"):
        v[f"cli.{kind}.s"] = kind_s(kind)

    for survey in ("bec", "bsc"):
        ix = index("mc_entropy", survey=survey)
        nodes = sum(first[i].op.info["nominal_nodes"] for i in ix)
        v[f"monte_carlo.{survey}.ns_per_node"] = (
            1e9 * sum(op_s(i) for i in ix) / nodes if nodes else 0.0)
    v["monte_carlo.nominal_nodes"] = sum(first[i].op.info["nominal_nodes"]
                                         for i in index("mc_entropy"))
    bec = index("mc_entropy", survey="bec")
    v["monte_carlo.stderr"] = first[bec[0]].results()["leaves"]["stderr"] if bec else 0.0
    # pair = sampling + two upward passes; --boundary perfect = sampling + one
    singles = [r for r in extras if r.op.kind == "mc_entropy_perfect" and not r.failed]
    pair_s = sum(op_s(i) for i in index("mc_entropy")) if singles else 0.0
    single_s = sum(r.seconds for r in singles)
    nodes = v["monte_carlo.nominal_nodes"]
    v["monte_carlo.upward.ns_per_node"] = 1e9 * (pair_s - single_s) / nodes if singles else 0.0
    v["monte_carlo.sample.ns_per_node"] = (1e9 * (2 * single_s - pair_s) / nodes
                                           if singles else 0.0)

    w2 = [r for r in extras if r.op.kind == "mc_entropy_w2"]
    v["parallel.speedup_w2"] = op_s(bec[0]) / w2[0].seconds if w2 and bec else 0.0
    v["parallel.invariant"] = float(not w2[0].failed) if w2 else 0.0

    exact = index("sbm_exact")
    v["sbm.exact.graphs_per_s"] = (first[exact[0]].op.info["graphs"] / op_s(exact[0])
                                   if exact else 0.0)
    patterns = sum(2 ** (res["ball_size"] + res["n_edges"])
                   for res in (first[i].results() for i in index("spin_sync_mi")))
    v["spin_sync.patterns"] = patterns
    v["spin_sync.table_bytes"] = 8 * patterns       # one float64 joint table

    everything = [r for p in passes for r in p] + extras + traced
    v["failed_frac"] = sum(r.failed for r in everything) / len(everything)
    v["attempted"] = len(everything)
    return v


COMPUTED = ["llr_dist.convolve.macs", "monte_carlo.nominal_nodes",
            "monte_carlo.bec.ns_per_node", "monte_carlo.bsc.ns_per_node",
            "monte_carlo.sample.ns_per_node", "monte_carlo.upward.ns_per_node",
            "spin_sync.patterns", "spin_sync.table_bytes"]


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        return (git / head[5:]).read_text().strip()
    except OSError:
        return None


def provenance(workload: str, seed: int, sizes: Sizes, ops: list) -> dict:
    import platform

    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "load": "closed loop, 1 client, --workers 1",
        "sizes": asdict(sizes),
        "commands": [" ".join(op.argv) for op in ops],
        "computed": COMPUTED,
        "claim": None,
    }


# ---------------------------------------------------------------------------
# Entry point


def main(argv=None, sizes: Sizes = FULL, out_dir: Path = OUT) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "treebp" / "cli.py").is_file():
        print(f"error: no treebp sources under {SRC}", file=sys.stderr)
        return 2

    ops = workload_ops(args.workload, args.seed, sizes)
    setup_s = None if args.trace else measure_setup(SETUP_REPEATS)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from treebp import cli

    passes = timed_passes(ops, args.seconds, cli.main)
    results = [r for p in passes for r in p]
    if args.trace:
        from spans import Tracer

        extras = mc_extras(passes[0], cli.main) if args.workload == "mc-tree" else []
        tracer = Tracer()
        tracer.install()
        try:
            traced = [run_op(op, cli.main, tracer.span) for op in ops]
        finally:
            tracer.uninstall()
        values = per_layer(passes, extras, traced, tracer)
        results += extras + traced
    else:
        values = end_to_end(passes, setup_s)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    failed = sum(r.failed for r in results)
    prov = provenance(args.workload, args.seed, sizes, ops)

    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"provenance": prov, "values": values, "attempted": len(results),
              "failed": failed,
              "ops": [{"argv": r.op.argv, "seconds": r.seconds, "code": r.code,
                       "problems": r.problems} for r in results]}
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        tracer.write(out_dir / f"{stem}-spans.json")

    print(json.dumps({"provenance": prov}))
    print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
