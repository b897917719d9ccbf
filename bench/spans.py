"""In-memory span tracer for the treebp library, installed from outside.

The tracer wraps every public module-level function of the listed treebp
modules, plus ``bms.DeltaDistribution.__init__``.  Modules that import a
function by name (``from .llr_dist import convolve``) hold their own
reference, so each wrapper is bound under every name in every loaded treebp
module that refers to the original object; callers therefore reach the
wrapper whichever name they look up.

Each call records one span ``(name, parent, start_ns, end_ns)`` in a list
kept in memory; ``write`` dumps the list once, at the end of a run.  A
span's self time is its duration minus the time covered by its child spans.

Numerical-health probes run on the laws the wrappers see, with tracing
paused and their cost booked as a child of the enclosing span, so they do
not inflate any layer's self time.  A probe whose library function no
longer exists is skipped; the metrics that need it read as missing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

# _parallel is left unwrapped: with --workers 1 it only loops over chunks, and
# a span around it would take the chunks' work away from the calling layer.
TRACED_MODULES = ("bms", "llr_dist", "density_evolution", "thresholds",
                  "monte_carlo", "sbm", "spin_sync")


def _public_functions(module) -> list[str]:
    return [name for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__]


class Tracer:
    """Records spans, call counts, self times and probe values."""

    def __init__(self) -> None:
        self.spans: list = []
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.probe_ns = 0
        self.probes: dict = defaultdict(float)   # name -> max or sum, see _probe_*
        self.wrapped: set = set()
        self._stack: list = []                   # [span index, child ns]
        self._paused = False
        self._restore: list = []                 # (owner, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"treebp.{name}") for name in TRACED_MODULES}
        loaded = [m for n, m in sys.modules.items()
                  if m is not None and (n == "treebp" or n.startswith("treebp."))]
        hooks = self._hooks(modules)
        for short, module in modules.items():
            for fname in _public_functions(module):
                name = f"{short}.{fname}"
                original = getattr(module, fname)
                pre, post = hooks.get(name, (None, None))
                wrapper = self._wrap(original, name, pre, post)
                for owner in loaded:
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            self._patch(owner, attr, wrapper)
                self.wrapped.add(name)
        cls = getattr(modules["bms"], "DeltaDistribution", None)
        if cls is not None:
            self._patch(cls, "__init__", self._wrap(cls.__init__, "bms.delta_distribution",
                                                    None, self._probe_atoms))
            self.wrapped.add("bms.delta_distribution")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- spans -------------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named name."""
        self.wrapped.add(name)
        return self._wrap(fn, name, None, None)(*args, **kwargs)

    def _wrap(self, fn, name, pre, post):
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            if pre is not None:
                self._run_probe(pre, args)
            frame = [len(spans), 0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[frame[0]] = (name, parent, t0, t1)
                self.calls[name] += 1
                self.self_ns[name] += (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
            if post is not None:
                self._run_probe(post, args, result)
            return result

        return wrapper

    def _run_probe(self, probe, *args) -> None:
        self._paused = True
        t0 = perf_counter_ns()
        try:
            probe(*args)
        finally:
            dt = perf_counter_ns() - t0
            self._paused = False
            self.probe_ns += dt
            if self._stack:
                self._stack[-1][1] += dt

    # -- probes --------------------------------------------------------------

    def _hooks(self, modules) -> dict:
        """Probes by span name; a probe whose function is gone is never used."""
        llr = modules["llr_dist"]
        hooks = {"llr_dist.convolve": (self._probe_macs, None)}
        if hasattr(llr, "symmetry_defect") and hasattr(llr, "resymmetrize"):
            defect, project = llr.symmetry_defect, llr.resymmetrize

            def before(args):
                mu = args[0]
                self._max("llr_dist.pre_projection_defect_max", defect(mu))
                self._max("llr_dist.saturated_mass_max",
                          float(mu.masses[0] + mu.masses[-1]))

            def after(args, result):
                self._max("llr_dist.projection_idempotence_tv",
                          result.tv_distance(project(result)))

            hooks["llr_dist.resymmetrize"] = (before, after)
        hooks["density_evolution.run_pair"] = (None, self._probe_pair)
        hooks["density_evolution.bp_fixed_point"] = (None, self._probe_fixed_point)
        return hooks

    def _max(self, name, value) -> None:
        self.probes[name] = max(self.probes[name], float(value))

    def _probe_macs(self, args) -> None:
        self.probes["llr_dist.convolve.macs"] += args[0].masses.size * args[1].masses.size

    def _probe_atoms(self, args, _result) -> None:
        self.probes["bms.delta_distribution.atoms"] += len(args[0])

    def _probe_pair(self, _args, report) -> None:
        self.probes["density_evolution.steps"] += len(report.records) - 1
        self.probes["density_evolution.undecided"] += report.undecided

    def _probe_fixed_point(self, _args, result) -> None:
        self.probes["density_evolution.steps"] += result.depth
        self.probes["density_evolution.undecided"] += not result.converged

    # -- output --------------------------------------------------------------

    def self_s(self, *names: str) -> float | None:
        """Summed self time in seconds; None if any name was never wrapped."""
        if any(n not in self.wrapped for n in names):
            return None
        return sum(self.self_ns[n] for n in names) / 1e9

    def layer_self_s(self, prefix: str) -> float:
        return sum(ns for n, ns in self.self_ns.items() if n.startswith(prefix + ".")) / 1e9

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "start_ns", "end_ns"],
                       "spans": self.spans}, fh, separators=(",", ":"))
