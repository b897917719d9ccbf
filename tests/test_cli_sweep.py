"""The CLI boundary as a property: one odd flag value at a time, every command.

Each call must either exit 0 or 2 with a JSON document on stdout, or exit 1
with exactly one stderr line that names the replaced flag.  No call may
print a traceback or raise a warning.  The base runs are tiny and no odd
value is a large valid size, so the sweep runs in seconds.
"""

import contextlib
import io
import json
import re
import warnings

import pytest

from treebp.cli import build_parser, main

ODD_VALUES = ("abc", "nan", "-1", "", "inf", "-inf", "0", "1e308", "1e-308", "2")

# Flags that name files; their failures are covered in test_cli.py.
PATH_FLAGS = {"--config", "--out", "--trace-csv"}

BASE = {
    ("de", "run"): ["--model", "regular:3", "--theta", "0.5", "--survey", "bec:0.5",
                    "--depth", "5"],
    ("de", "probe"): ["--model", "regular:3", "--theta", "0.5", "--survey", "bec:0.5",
                      "--depth", "5"],
    ("thresholds", "constants"): [],
    ("thresholds", "region"): ["--x-steps", "3", "--y-steps", "3"],
    ("mc", "entropy"): ["--model", "regular:2", "--theta", "0.5", "--survey", "bec:0.5",
                        "--depth", "3", "--samples", "20", "--workers", "1"],
    ("mc", "majority"): ["--model", "regular:2", "--theta", "0.5", "--eta", "0.1",
                         "--depth", "3", "--samples", "20", "--workers", "1"],
    ("mc", "wsm"): ["--model", "regular:2", "--theta", "0.3", "--survey", "bsc:0.2",
                    "--depth", "3", "--samples", "20", "--workers", "1"],
    ("mc", "degradation"): ["--model", "regular:2", "--theta", "0.5", "--survey", "bec:0.5",
                            "--depth", "3", "--samples", "40", "--bins", "4",
                            "--workers", "1"],
    ("sbm", "exact"): ["--n", "6", "--a", "3", "--b", "1", "--eps", "0.5", "--graphs", "4",
                       "--workers", "1"],
    ("sbm", "integral"): ["--a", "4", "--b", "1", "--eps-points", "3"],
    ("sbm", "derivative"): ["--n", "6", "--a", "4", "--b", "1", "--eps", "0.5",
                            "--graphs", "4", "--workers", "1"],
    ("spin-sync", "mi"): ["--graph", "path:5", "--theta", "0.8", "--eps", "0.5",
                          "--workers", "1"],
}

# Valid graphs whose size alone is out of reach, with the flag to blame.
GRAPH_CASES = [
    (["--graph", "grid:6x6", "--radius", "5", "--theta", "0.5", "--eps", "0.5"], "--radius"),
    (["--graph", "grid:4x4", "--radius", "3", "--theta", "0.5", "--eps", "0.5",
      "--exact", "yes"], "--exact"),
    # huge but valid graphs: only the ball is built, so these end at once
    (["--graph", "tree:2:22", "--radius", "22", "--theta", "0.5", "--eps", "0.5"], "--radius"),
    (["--graph", "grid:100000x100000", "--radius", "100000", "--theta", "0.5", "--eps", "0.5"],
     "--radius"),
]

# Extreme but valid trees for every command with --model: a degree past the
# float binomial, a Poisson mean past truncation, and x = d (1 - reveal) = 1.02
# (bec:0.51 reveals 0.49), whose depth-900 tree would be 2.8e9 nodes.
MODEL_CASES = [
    ["--model", "regular:1100", "--theta", "0.01", "--survey", "bsc:0.2", "--depth", "1"],
    ["--model", "poisson:800", "--theta", "0.01", "--survey", "bsc:0.2", "--depth", "1"],
    ["--model", "regular:2", "--theta", "0.5", "--survey", "bec:0.51", "--depth", "900"],
]


def _value_flags(command) -> list[str]:
    """Every flag of the command that takes a value, from the parser itself."""
    tool, name = command
    top = build_parser()
    area = top._subparsers._group_actions[0].choices[tool]
    sub = area._subparsers._group_actions[0].choices[name]
    return sorted(a.option_strings[0] for a in sub._actions
                  if a.option_strings and a.nargs is None and a.dest != "help"
                  and a.option_strings[0] not in PATH_FLAGS)


def _with(base: list[str], flag: str, value: str) -> list[str]:
    """base with flag's value replaced by value (appended when base lacks flag)."""
    argv = list(base)
    if flag in argv:
        at = argv.index(flag)
        del argv[at:at + 2]
    return argv + [f"{flag}={value}"]


def _judge(argv: list[str], *flags: str) -> str | None:
    """None when the call keeps the contract, else what went wrong; an error
    must name one of flags."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:     # any escape breaks the contract
            return f"raised {type(exc).__name__}: {exc}"
    out, err = out.getvalue(), err.getvalue()
    if caught:
        return f"warned {caught[0].category.__name__}: {caught[0].message}"
    if code in (0, 2):
        try:
            json.loads(out)
        except ValueError:
            return f"exit {code} without JSON"
        return None if err == "" else f"exit {code} with stderr {err!r}"
    if code != 1:
        return f"exit {code}"
    if out or err.count("\n") != 1 or not err.startswith("error: ") or "Traceback" in err:
        return f"not a one-line error: {err!r}"
    if not any(re.search(rf"(?<![\w-]){re.escape(f)}(?![\w-])", err) for f in flags):
        return f"error does not name {'/'.join(flags)}: {err!r}"
    return None


@pytest.mark.parametrize("command", list(BASE), ids=" ".join)
def test_one_odd_flag_value_is_json_or_a_one_line_error(command):
    failures = []
    for flag in _value_flags(command):
        for value in ODD_VALUES:
            argv = [*command, *_with(BASE[command], flag, value)]
            problem = _judge(argv, flag)
            if problem:
                failures.append(f"{' '.join(argv)}: {problem}")
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("argv, flag", GRAPH_CASES, ids=["ball-cap", "exact-cap", "huge-tree", "huge-grid"])
def test_graphs_out_of_reach_name_their_flag(argv, flag):
    assert _judge(["spin-sync", "mi", *argv], flag) is None


@pytest.mark.parametrize("case", MODEL_CASES,
                         ids=["regular-1100", "poisson-800", "regular-2-deep"])
def test_extreme_models_are_json_or_name_model_or_depth(case):
    failures = []
    for command, base in BASE.items():
        flags = _value_flags(command)
        if "--model" not in flags:
            continue
        argv = list(base)
        for flag, value in zip(case[::2], case[1::2]):
            if flag in flags:
                argv = _with(argv, flag, value)
        problem = _judge([*command, *argv], "--model", "--depth")
        if problem:
            failures.append(f"{' '.join([*command, *argv])}: {problem}")
    assert not failures, "\n".join(failures)
