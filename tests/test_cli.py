"""Command-line surface: exit codes, JSON envelope, config merging, artifacts."""

import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import treebp
from treebp import cli, llr_dist
from treebp.bms import load_delta_csv
from treebp.cli import main
from treebp.llr_dist import GridConfig, from_delta


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


def test_readme_examples_parse():
    # the README's example commands, parsed but not run, stay in step with the parser
    readme = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    commands = [shlex.split(line)[1:] for line in readme if line.startswith("treebp ")]
    assert len(commands) == 12
    for argv in commands:
        assert cli.build_parser().parse_args(argv).func in vars(cli)


def test_constants_envelope(capsys):
    code, doc = run_json(capsys, "thresholds", "constants")
    assert code == 0
    assert set(doc) == {"schema_version", "tool", "version", "command",
                        "config", "seed", "results"}
    assert doc["tool"] == "treebp" and doc["command"] == "thresholds constants"
    assert doc["schema_version"] == 1 and doc["seed"] == 0
    # the exact floats, so a refactor of the gain or the bisection shows
    assert doc["results"] == {
        "alpha_star": 3.5128624170611147, "d2_window_endpoint": 1.6180339888663369,
        "pe_bound": 0.21696751825751576, "peak_gain": 1.2130613194252668,
        "xi_bound": 0.1756393646499359, "z_bound": 0.8243606353500641}
    assert doc["results"]["peak_gain"] == 2.0 / math.sqrt(math.e)


def test_de_run_trivial_subcritical(capsys):
    code, doc = run_json(capsys, "de", "run", "--model", "regular:3",
                         "--theta", "0.5", "--survey", "trivial")
    assert code == 0
    assert doc["results"]["verdict"] == "trivial_fixed_point"
    assert doc["results"]["limit"]["prob_error"] == 0.5


def test_de_run_supercritical_pair(capsys, tmp_path):
    trace = tmp_path / "trace.csv"
    code, doc = run_json(capsys, "de", "run", "--model", "regular:3",
                         "--theta", "0.5", "--survey", "bec:0.5",
                         "--trace-csv", str(trace))
    assert code == 0
    assert doc["results"]["verdict"] == "bi_holds"
    header = trace.read_text().splitlines()[0]
    assert header == ("k,Pe_leaves,Pe_noleaves,C_leaves,C_noleaves,"
                      "Z_leaves,Z_noleaves,gap,gap_ratio")


def test_de_probe_conjectured_gap_is_undecided(capsys):
    code, doc = run_json(capsys, "de", "probe", "--model", "regular:4",
                         "--theta", "0.75", "--survey", "bec:0.95")
    assert code == 2
    assert doc["results"]["region_criterion"] == "none"
    assert doc["results"]["verdict"].startswith("uncertified")


def test_unknown_flag_names_it(capsys):
    code, out, err = run_cli(capsys, "de", "run", "--model", "regular:3",
                             "--theta", "0.5", "--survey", "trivial",
                             "--bogus", "1")
    assert code == 1
    assert "--bogus" in err or "bogus" in err


def test_bad_parameter_names_flag(capsys):
    code, _, err = run_cli(capsys, "de", "run", "--model", "regular:3",
                           "--theta", "1.2", "--survey", "trivial")
    assert code == 1 and "theta" in err
    code, _, err = run_cli(capsys, "de", "run", "--model", "weird:3",
                           "--theta", "0.5", "--survey", "trivial")
    assert code == 1 and "--model" in err
    for d_mean in ("nan", "inf"):
        code, _, err = run_cli(capsys, "mc", "majority", "--model", f"poisson:{d_mean}",
                               "--theta", "0.5", "--eta", "0.1", "--depth", "3")
        assert code == 1 and err.startswith("error: --model/--theta: ")
    code, _, err = run_cli(capsys, "mc", "entropy", "--model", "regular:3",
                           "--theta", "0.5", "--survey", "bec:0.5",
                           "--depth", "2", "--boundary", "sideways")
    assert code == 1 and "--boundary" in err
    code, _, err = run_cli(capsys, "spin-sync", "mi", "--graph", "path:9",
                           "--theta", "0.8", "--eps", "0.9", "--exact", "maybe")
    assert code == 1 and "--exact" in err
    code, _, err = run_cli(capsys)
    assert code == 1
    for command in ("run", "probe"):
        code, _, err = run_cli(capsys, "de", command, "--model", "regular:3",
                               "--theta", "0.5", "--survey", "trivial", "--tol", "2")
        assert code == 1 and "--tol" in err
        code, _, err = run_cli(capsys, "de", command, "--model", "regular:3",
                               "--theta", "0.5", "--survey", "trivial", "--depth", "0")
        assert code == 1 and "--depth" in err
    code, _, err = run_cli(capsys, "de", "run", "--model", "regular:3", "--theta", "0.5",
                           "--survey", "trivial", "--include-root-survey", "maybe")
    assert code == 1 and "--include-root-survey" in err
    code, _, err = run_cli(capsys, "sbm", "exact", "--n", "6", "--a", "3", "--b", "1",
                           "--eps", "half")
    assert code == 1 and "--eps" in err
    for h in ("0", "-0.6"):
        code, out, err = run_cli(capsys, "sbm", "derivative", "--n", "6", "--a", "3",
                                 "--b", "1", "--eps", "0.5", "--h", f"0.1,{h}",
                                 "--graphs", "4", "--workers", "1")
        assert code == 1 and out == ""
        assert err == ("error: --h must be one or more steps h > 0 with epsilon +- h "
                       "inside (0, 1)\n")


@pytest.mark.parametrize("flag, value, message", [
    ("--tol", "2", "--tol must lie in (0, 1)"),
    ("--grid-bins", "4", "--grid-bins must be odd and at least 3"),
    ("--depth", "0", "--depth must be at least 1"),
])
def test_library_errors_name_one_flag(capsys, flag, value, message):
    code, out, err = run_cli(capsys, "de", "run", "--model", "regular:3", "--theta", "0.5",
                             "--survey", "trivial", flag, value)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"       # the flag alone, no library field name


def fresh_python(code: str) -> str:
    """stdout of code run in a new interpreter that imports this treebp."""
    src = str(Path(treebp.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True).stdout


def test_import_loads_no_scipy():
    code = ("import sys, treebp.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert fresh_python(code).strip() == "[]"


ENGINES = ("treebp.monte_carlo", "treebp.sbm", "treebp.spin_sync", "treebp.thresholds")


@pytest.mark.parametrize("argv, absent", [
    ((), (*ENGINES, "multiprocessing")),
    (("de", "run", "--model", "regular:3", "--theta", "0.6", "--survey", "bec:0.5",
      "--depth", "50"), (*ENGINES, "multiprocessing")),
    (("sbm", "integral", "--a", "4", "--b", "1", "--eps-points", "5"),
     ("treebp.monte_carlo", "treebp.spin_sync", "multiprocessing")),
    (("sbm", "exact", "--n", "5", "--a", "3", "--b", "1", "--graphs", "2", "--workers", "1"),
     ("treebp.monte_carlo", "treebp.spin_sync", "multiprocessing")),
], ids=["import", "de-run", "sbm-integral", "sbm-exact"])
def test_commands_import_only_their_engine(argv, absent):
    code = ("import contextlib, io, sys, treebp.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert not {list(argv)!r} or treebp.cli.main({list(argv)!r}) == 0\n"
            f"print([m for m in {absent!r} if m in sys.modules])")
    assert fresh_python(code).strip() == "[]"


def test_reruns_are_byte_identical(capsys):
    argv = ("mc", "entropy", "--model", "regular:3", "--theta", "0.7",
            "--survey", "bec:0.6", "--depth", "3", "--samples", "2000",
            "--seed", "3")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_dense_custom_survey_output_is_pinned(capsys, tmp_path):
    # 64 atoms give the survey law far more nonzero bins than a pair sum
    # takes by shifted adds, so every survey sum goes through the FFT; the
    # stdout (path aside) is pinned from the code before shifted adds existed
    path = tmp_path / "dense.csv"
    path.write_text("delta,weight\n" + "".join(f"{(i + 1) / 130!r},{1 / 64!r}\n"
                                               for i in range(64)))
    code, out, _ = run_cli(capsys, "de", "run", "--model", "poisson:4", "--theta", "0.6",
                           "--survey", f"custom:@{path}")
    assert code == 0
    doc = json.loads(out)["results"]
    assert doc["limit_leaves"]["capacity"] == 0.4380307236062677
    assert doc["limit_noleaves"]["capacity"] == 0.43803072346142247
    digest = hashlib.sha256(out.replace(str(path), "dense.csv").encode()).hexdigest()
    assert digest == "a0d53a90f922802bed4e28932ebad0b6d981d13922a2359efdc5d25c09c42ea8"


def test_dense_custom_survey_probe_is_pinned(capsys, tmp_path):
    # six atoms give the survey law 24 nonzero bins, so both rows of the probe
    # take their survey sums by FFT; pinned from the code that kept the survey
    # spectra between steps
    path = tmp_path / "six.csv"
    path.write_text("delta,weight\n0.01,0.2\n0.05,0.1\n0.12,0.3\n0.2,0.15\n0.33,0.15\n0.45,0.1\n")
    law = from_delta(load_delta_csv(path), GridConfig())
    assert np.count_nonzero(law.masses) > llr_dist._SHIFT_ADD_BINS
    code, out, _ = run_cli(capsys, "de", "probe", "--model", "poisson:4", "--theta", "0.7",
                           "--survey", f"custom:@{path}")
    assert code == 0
    digest = hashlib.sha256(out.replace(str(path), "six.csv").encode()).hexdigest()
    assert digest == "eeeb6d38ddec61b157a2e0ccc91e8a44d00096588f2ec9b7c853b97329bc2185"


@pytest.mark.parametrize("argv, digest", [
    (("sbm", "exact", "--n", "12", "--a", "4", "--b", "1", "--eps", "0.5", "--graphs", "40"),
     "fef1185dbf51b61e0ecbe187d56be8e9ed43d476b07ea9489dcd5abc6baacb06"),
    (("sbm", "exact", "--n", "8", "--a", "5", "--b", "0", "--graphs", "40"),
     "a4634b17fafb0830540a88fbd06dd916698e33841c1754e142fade142f5d5e08"),
    (("sbm", "derivative", "--n", "10", "--a", "5", "--b", "1", "--eps", "0.5",
      "--h", "0.1,0.05,0.025", "--graphs", "12"),
     "dae8596e2c74750f546624b69c55354bcec9afecb63a8e65d1c7fdffdb5a44d0"),
])
def test_exact_oracle_output_is_pinned(capsys, argv, digest):
    # pinned from the graph-by-graph enumeration and the per-vertex
    # leave-one-out loop that the block kernels replaced
    code, out, _ = run_cli(capsys, *argv, "--workers", "1")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ("--n", "1", "--a", "1", "--b", "0", "--h", "0.1", "--graphs", "4"),
    ("--n", "3", "--a", "3", "--b", "0", "--h", "0.1,0.05", "--graphs", "6"),
])
def test_derivative_verdicts_allow_rounding_when_every_graph_agrees(capsys, argv):
    # at n = 1 H is eps log 2, and at n = 3 with a = 3, b = 0 every graph gives
    # the same difference: stderr 0 leaves the verdicts to rounding alone
    code, doc = run_json(capsys, "sbm", "derivative", *argv, "--eps", "0.5", "--workers", "1")
    res = doc["results"]
    steps = len(res["h_values"])
    assert code == 0
    assert res["stderr_diff_first"] == res["stderr_diff_sum"] == [0.0] * steps
    assert res["identity_ok"] == res["scaling_ok"] == [True] * steps
    assert res["ok"] is True


@pytest.mark.parametrize("argv, digest", [
    (("sbm", "integral", "--a", "4", "--b", "1"),
     "2db257b7bd66fd0c9125fee7afc090a9bceb3694643da6c399f5ab8138642750"),
    (("sbm", "integral", "--a", "9", "--b", "3"),
     "7447e565d1581adf4daf13296653ac69252deffc9ac2f6a218d7e5e0c7686fc3"),
])
def test_sbm_integral_output_is_pinned(capsys, argv, digest):
    # pinned from the sweep that stepped trivial and surveyed rows in
    # separate stacks and gave the rows of a stack one FFT length
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, code, check, digest", [
    (("de", "probe", "--model", "regular:3", "--theta", "0.5", "--survey", "bec:0.5",
      "--depth", "1"), 2,
     lambda r: r["verdict"] == "conflict" and r["probe"]["status"] == "undecided",
     "8343a114973fe84a5093de1180e56264c5844f80c91936814f0d187de8a86874"),
    (("de", "probe", "--model", "regular:3", "--theta", "0.8", "--survey", "trivial"), 2,
     lambda r: (r["verdict"] == "uncertified_multiple_candidates"
                and r["probe"]["depths"] == [25, 1]
                and round(r["probe"]["max_pe_diff"], 4) == 0.4459),
     "b51d986c77b1a5dd4bf3689d480cc62f4cb453387fcea9297826940ab13b7a7b"),
    (("mc", "wsm", "--model", "regular:2", "--theta", "0.8", "--survey", "bsc:0.1",
      "--depth", "12", "--samples", "500", "--seed", "8", "--workers", "1"), 2,
     lambda r: (r["status"] == "no_separation_found" and r["x_found"] is None
                and round(r["margin"], 4) == -1.3611),
     "b9b2e445971e5942b3ec4264b922cd692a249c218f7ecaed8acea5880da1a2a5"),
    (("mc", "degradation", "--model", "poisson:2", "--theta", "0.5", "--survey", "bsc:0.3",
      "--depth", "3", "--samples", "40", "--bins", "30", "--seed", "4", "--workers", "1"), 0,
     lambda r: r["n_skipped"] == 15 and len(r["bins"]) == 9,
     "e15b5fd47f7c37288a59696be855b78c726ba096461a7ac63dc18e0b3171df40"),
    (("mc", "degradation", "--model", "poisson:2", "--theta", "0.5", "--survey", "bsc:0.3",
      "--depth", "3", "--samples", "5", "--bins", "20", "--seed", "4", "--workers", "1"), 0,
     lambda r: r["n_skipped"] == 20 and r["bins"] == [],
     "dc21263bdb13eea5ee641bc2dbd3e08c9cfc306fd24811bac4910df613e5057c"),
    (("mc", "entropy", "--model", "regular:3", "--theta", "0.5", "--survey", "bec:0.5",
      "--depth", "4", "--samples", "2000", "--seed", "3", "--boundary", "minus",
      "--workers", "1"), 0,
     lambda r: r["entropy"]["n_samples"] == 2000,
     "04dca0ae214566ec05dc6e5a7eaa6060e1ffee110dea83fca77d4b59a20037f9"),
    (("spin-sync", "mi", "--graph", "tree:2:3", "--radius", "3", "--theta", "0.8",
      "--eps", "0.9", "--samples", "300", "--workers", "1"), 0,
     lambda r: r["method"] == "sampled" and r["n_samples"] == 300,
     "ab6dd876e62b9cc4fa37f6b8e3182ad214f2000f987ce8173a3225dd6450c207"),
    # balls strictly inside their graphs, one a family, pinned before the graph held only its ball
    (("spin-sync", "mi", "--graph", "path:11", "--radius", "3", "--theta", "0.8", "--eps", "0.9"), 0,
     lambda r: r["method"] == "exact" and (r["ball_size"], r["n_edges"]) == (7, 6),
     "0338d5286fdf934af3931d95e4ffe50220749a07dfe005457dc19d03e47b41da"),
    (("spin-sync", "mi", "--graph", "cycle:10", "--radius", "2", "--theta", "0.8", "--eps", "0.9"),
     0, lambda r: r["method"] == "exact" and (r["ball_size"], r["n_edges"]) == (5, 4),
     "1cf61ffcf17b4d25cace008f9a723c7ff449fae5810a9a521d453c215b30443b"),
    (("spin-sync", "mi", "--graph", "grid:5x5", "--radius", "1", "--theta", "0.8", "--eps", "0.9"),
     0, lambda r: r["method"] == "exact" and (r["ball_size"], r["boundary_size"]) == (5, 4),
     "90cad626ca4f700c86855d3713483a63aec1ef290118c5cf31de6cd43e3afb35"),
    (("spin-sync", "mi", "--graph", "tree:2:4", "--radius", "2", "--theta", "0.8", "--eps", "0.9"),
     0, lambda r: r["method"] == "exact" and (r["ball_size"], r["boundary_size"]) == (7, 4),
     "555cd6c6efd4de5d0f5ef5f6a9a465f848b37c69f1c68c6f02b36e1e6c705286"),
    (("spin-sync", "mi", "--graph", "grid:5x5", "--radius", "2", "--theta", "0.8", "--eps", "0.9",
      "--samples", "300", "--workers", "1"), 0,
     lambda r: r["method"] == "sampled" and (r["ball_size"], r["n_edges"]) == (13, 16),
     "b92e912fddde89a0eb9cd67c36f05a7ca8dfb5af5bad7575e20211cb418ee24a"),
    # banded, with an even point count: the coarse pass keeps 1.0 and the split
    (("sbm", "integral", "--a", "9", "--b", "3", "--eps-points", "8"), 0,
     lambda r: r["band"] is not None and len(r["eps_values"]) == 9,
     "8faca7ec1cb1f8c3251f5532597d9253ddbbb0ac477347e5bd9d5866fd77d005"),
], ids=["probe-conflict", "probe-multiple", "wsm-no-separation", "degradation-skips",
        "degradation-all-skipped", "entropy-minus", "mi-sampled", "mi-path-ball", "mi-cycle-ball",
        "mi-grid-ball", "mi-tree-ball", "mi-grid-ball-sampled", "integral-even-banded"])
def test_rarely_taken_branches_are_pinned(capsys, argv, code, check, digest):
    # branches the rest of the suite never reaches, pinned from the code
    # before their loops and prefix tests were folded away
    got, out, err = run_cli(capsys, *argv)
    assert got == code and err == ""
    assert check(json.loads(out)["results"])
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_worker_count_does_not_change_output(capsys):
    # 732 trees a chunk, so four chunks for the two workers to split
    from treebp.density_evolution import TreeModel
    from treebp.monte_carlo import _chunk_trees

    assert _chunk_trees(TreeModel.poisson(4.0, 0.8), 6) == 732
    argv = ("mc", "entropy", "--model", "poisson:4", "--theta", "0.8",
            "--survey", "bsc:0.2", "--depth", "6", "--samples", "2500",
            "--seed", "3")
    _, base, _ = run_cli(capsys, *argv)
    _, multi, _ = run_cli(capsys, *argv, "--workers", "2")
    assert base == multi


@pytest.mark.parametrize("argv", [
    # 300 graphs at n = 12 make two chunks of 256; n = 10 derivative chunks hold one graph
    ("sbm", "exact", "--n", "12", "--a", "4", "--b", "1", "--eps", "0.5",
     "--graphs", "300", "--seed", "4"),
    ("sbm", "derivative", "--n", "10", "--a", "5", "--b", "1", "--eps", "0.5",
     "--h", "0.1,0.05,0.025", "--graphs", "130", "--seed", "4"),
], ids=["exact", "derivative"])
def test_exact_oracles_worker_count_does_not_change_output(capsys, tmp_path, argv):
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.json"
        code, _, _ = run_cli(capsys, *argv, "--workers", workers, "--out", str(out))
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_config_file_merging(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\ntheta=0.3\nsamples=500\n")
    code, doc = run_json(capsys, "mc", "majority", "--model", "regular:3",
                         "--theta", "0.6", "--eta", "0.1", "--depth", "2",
                         "--config", str(cfg))
    assert code == 0
    assert doc["config"]["theta"] == 0.6       # explicit flag wins
    assert doc["config"]["samples"] == 500     # file fills the rest

    bad = tmp_path / "bad.cfg"
    bad.write_text("just a line without equals\n")
    code, _, err = run_cli(capsys, "mc", "majority", "--model", "regular:3",
                           "--theta", "0.6", "--eta", "0.1", "--depth", "2",
                           "--config", str(bad))
    assert code == 1 and "--config" in err
    code, _, err = run_cli(capsys, "mc", "majority", "--model", "regular:3",
                           "--theta", "0.6", "--eta", "0.1", "--depth", "2",
                           "--config", str(tmp_path / "missing.cfg"))
    assert code == 1 and "--config" in err


@pytest.mark.parametrize("model, depth", [("regular:4", "600"), ("regular:4", "40"),
                                          ("regular:4", "32"), ("poisson:4", "32"),
                                          ("regular:2", "63")])
def test_majority_depth_past_int64_counts_is_one_line_error(capsys, model, depth):
    code, out, err = run_cli(capsys, "mc", "majority", "--model", model, "--theta", "0.7",
                             "--eta", "0.1", "--depth", depth, "--samples", "100")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "--depth" in err and "Traceback" not in err
    assert err.startswith(f"error: --eta/--depth/--samples: depth {depth} ")


def test_json_out_file(capsys, tmp_path):
    out = tmp_path / "constants.json"
    code, stdout, _ = run_cli(capsys, "thresholds", "constants",
                              "--out", str(out))
    assert code == 0 and stdout == ""
    doc = json.loads(out.read_text())
    assert doc["command"] == "thresholds constants"


def test_region_csv(capsys, tmp_path):
    out = tmp_path / "region.csv"
    code, _, _ = run_cli(capsys, "thresholds", "region", "--x-steps", "4",
                         "--y-steps", "3", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,bound_value,in_region,criterion"
    assert len(lines) == 1 + 12


def test_spin_sync_mi_value(capsys):
    code, doc = run_json(capsys, "spin-sync", "mi", "--graph", "path:9",
                         "--theta", "0.8", "--eps", "0.9", "--radius", "2")
    assert code == 0
    assert doc["results"]["method"] == "exact"
    assert doc["results"]["value"] == pytest.approx(0.24091005, abs=1e-6)


def test_sbm_exact_and_validation(capsys):
    code, doc = run_json(capsys, "sbm", "exact", "--n", "6", "--a", "3",
                         "--b", "1", "--eps", "none", "--graphs", "20")
    assert code == 0
    assert doc["config"]["eps"] is None
    assert doc["results"]["entropy_per_vertex"]["n_samples"] == 20
    code, _, err = run_cli(capsys, "sbm", "exact", "--n", "15", "--a", "3",
                           "--b", "1", "--graphs", "5")
    assert code == 1 and "--n" in err


def test_sbm_integral_flags_propagate_to_exit_code(capsys):
    code, doc = run_json(capsys, "sbm", "integral", "--a", "3", "--b", "1",
                         "--eps-points", "5")
    assert code == 2
    assert doc["results"]["status"] == "undecided"


def test_mc_entropy_single_boundary(capsys):
    code, doc = run_json(capsys, "mc", "entropy", "--model", "regular:2",
                         "--theta", "0.6", "--survey", "bec:0.5",
                         "--depth", "2", "--samples", "500",
                         "--boundary", "plus:2.0")
    assert code == 0
    assert "entropy" in doc["results"]


def write_config(tmp_path, **values):
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{key}={value}\n" for key, value in values.items()))
    return str(path)


MAJORITY = ("mc", "majority", "--model", "regular:3", "--eta", "0.1", "--depth", "2",
            "--samples", "200")


@pytest.mark.parametrize("theta_flag", [("--theta=0.5",), ("--thet", "0.5")])
def test_config_loses_to_every_flag_form(capsys, tmp_path, theta_flag):
    cfg = write_config(tmp_path, theta=0.7)
    code, doc = run_json(capsys, *MAJORITY, *theta_flag, "--config", cfg)
    assert code == 0 and doc["config"]["theta"] == 0.5


def test_config_equals_form_is_read(capsys, tmp_path):
    cfg = write_config(tmp_path, samples=500)
    code, doc = run_json(capsys, *MAJORITY[:-2], "--theta", "0.5", f"--config={cfg}")
    assert code == 0 and doc["config"]["samples"] == 500


def test_config_takes_envelope_keys(capsys, tmp_path):
    cfg = write_config(tmp_path, grid_bins=1001, **{"grid-rmax": 20.0})
    code, doc = run_json(capsys, "de", "run", "--model", "regular:3", "--theta", "0.5",
                         "--survey", "trivial", "--config", cfg)
    assert code == 0
    assert doc["config"]["grid_bins"] == 1001 and doc["config"]["grid_rmax"] == 20.0


@pytest.mark.parametrize("argv", [
    ("de", "run", "--model", "regular:3", "--theta", "0.5", "--survey", "trivial",
     "--include-root-survey", "false", "--grid-bins", "1001"),
    ("mc", "entropy", "--model", "regular:2", "--theta", "0.6", "--survey", "bec:0.5",
     "--depth", "2", "--samples", "300", "--boundary", "plus:2.0", "--seed", "4"),
    ("sbm", "exact", "--n", "5", "--a", "3", "--b", "1", "--eps", "none", "--graphs", "8"),
])
def test_envelope_config_reproduces_the_run(capsys, tmp_path, argv):
    code, out, _ = run_cli(capsys, *argv)
    config = json.loads(out)["config"]
    cfg = write_config(tmp_path, **config)
    code2, out2, err = run_cli(capsys, *argv[:2], "--config", cfg)
    assert err == "" and (code2, out2) == (code, out)


def test_required_flags_may_come_from_config(capsys, tmp_path):
    cfg = write_config(tmp_path, model="regular:2", theta=0.6, survey="bec:0.5", depth=2)
    code, doc = run_json(capsys, "mc", "entropy", "--samples", "300", "--config", cfg)
    assert code == 0
    assert doc["config"]["model"] == "regular:2" and doc["config"]["depth"] == 2
    code, _, err = run_cli(capsys, "mc", "entropy", "--samples", "300")
    assert code == 1 and "--model" in err


@pytest.mark.parametrize("line", ["config=other.cfg", "bogus=1", "func=print"])
def test_config_rejects_nesting_and_unknown_keys(capsys, tmp_path, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli(capsys, *MAJORITY, "--theta", "0.5", "--config", str(cfg))
    assert code == 1 and out == "" and "--config" in err


def test_parser_carries_nothing_between_calls(capsys, tmp_path):
    # one parser serves every call in a process: a file's values, and the
    # required flags it satisfied, must not leak into the next call
    majority = (*MAJORITY[:-2], "--workers", "1")
    calls = [(*majority, "--config", write_config(tmp_path, theta=0.5, samples=500)),
             majority,
             (*majority, "--theta", "0.5")]
    forward = [run_cli(capsys, *argv) for argv in calls]
    backward = [run_cli(capsys, *argv) for argv in reversed(calls)][::-1]
    assert forward == backward
    (code, out, err), (code2, out2, err2), (code3, out3, err3) = forward
    assert code == 0 and err == "" and json.loads(out)["config"]["samples"] == 500
    assert code2 == 1 and out2 == "" and err2 == "error: the following arguments are required: --theta\n"
    assert code3 == 0 and err3 == "" and json.loads(out3)["config"]["samples"] == 100_000


def test_help_is_the_same_on_every_call(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    commands = sorted({argv[:2] for argv, _ in ENVELOPE_CONFIGS})
    assert len(commands) == 12

    def help_text(argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        return capsys.readouterr().out

    for argv in [(), *commands]:
        first = help_text(argv)
        assert first.startswith("usage: treebp") and help_text(argv) == first


def test_config_values_pass_through_verbatim(capsys, tmp_path):
    typed = run_cli(capsys, *MAJORITY, "--theta", "-0.5")
    assert typed == (1, "", "error: --theta must lie in [0, 1)\n")
    assert run_cli(capsys, *MAJORITY, "--config", write_config(tmp_path, theta=-0.5)) == typed
    spaced = tmp_path / "a survey dir"
    spaced.mkdir()
    path = spaced / "law.csv"
    path.write_text("delta,weight\n0.1,0.5\n0.3,0.5\n")
    argv = ("de", "run", "--model", "regular:3", "--theta", "0.6", "--depth", "20")
    code, out, err = run_cli(capsys, *argv, "--config",
                             write_config(tmp_path, survey=f"custom:@{path}"))
    assert code == 0 and err == ""
    assert json.loads(out)["config"]["survey"] == f"custom:@{path}"
    assert run_cli(capsys, *argv, "--survey", f"custom:@{path}") == (code, out, err)


@pytest.mark.parametrize("argv", [
    ("de", "run", "--model", "regular:3", "--theta", "0.5", "--survey", "trivial"),
    ("sbm", "exact", "--n", "5", "--a", "3", "--b", "1", "--graphs", "4"),
    ("thresholds", "constants"),
])
def test_out_csv_needs_a_table(capsys, tmp_path, argv):
    out = tmp_path / "result.csv"
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 1 and stdout == "" and "--out" in err
    assert not out.exists()


@pytest.mark.parametrize("command, extra", [
    ("entropy", ()), ("wsm", ()), ("degradation", ("--bins", "2")),
])
def test_mc_samples_below_two_rejected(capsys, command, extra):
    code, out, err = run_cli(capsys, "mc", command, "--model", "regular:2",
                             "--theta", "0.4", "--survey", "bec:0.5", "--depth", "2",
                             "--samples", "1", *extra)
    assert code == 1 and out == "" and "--samples" in err


# The envelope config each subcommand writes; saved result files rely on
# exactly these keys and values.
ENVELOPE_CONFIGS = [
    (("de", "run", "--model", "regular:3", "--theta", "0.5", "--survey", "trivial",
      "--trace-csv", "{tmp}/trace.csv"),
     {"depth": 200, "grid_bins": 2001, "grid_rmax": 30.0, "include_root_survey": True,
      "model": "regular:3", "seed": 0, "survey": "trivial", "theta": 0.5, "tol": 1e-09}),
    (("de", "probe", "--model", "regular:4", "--theta", "0.75", "--survey", "bec:0.95",
      "--depth", "20", "--grid-bins", "501"),
     {"depth": 20, "grid_bins": 501, "grid_rmax": 30.0, "model": "regular:4", "seed": 0,
      "survey": "bec:0.95", "theta": 0.75, "tol": 1e-09}),
    (("thresholds", "constants"), {"seed": 0}),
    (("thresholds", "region", "--x-steps", "5", "--y-steps", "4"),
     {"family": "bec", "seed": 0, "x_max": 4.0, "x_min": 0.25, "x_steps": 5,
      "y_max": 0.95, "y_min": 0.05, "y_steps": 4}),
    (("mc", "entropy", "--model", "regular:3", "--theta", "0.7", "--survey", "bec:0.6",
      "--depth", "3", "--samples", "300", "--seed", "3", "--workers", "1"),
     {"boundary": "pair", "depth": 3, "include_root_survey": True, "model": "regular:3",
      "samples": 300, "seed": 3, "survey": "bec:0.6", "theta": 0.7}),
    (("mc", "majority", "--model", "regular:3", "--theta", "0.6", "--eta", "0.1",
      "--depth", "3", "--samples", "2000", "--seed", "2", "--workers", "1"),
     {"depth": 3, "eta": 0.1, "model": "regular:3", "samples": 2000, "seed": 2,
      "theta": 0.6}),
    (("mc", "wsm", "--model", "regular:2", "--theta", "0.4", "--survey", "trivial",
      "--depth", "4", "--samples", "300", "--seed", "1", "--workers", "1"),
     {"boundary_llr": 30.0, "depth": 4, "model": "regular:2", "samples": 300, "seed": 1,
      "survey": "trivial", "theta": 0.4}),
    (("mc", "degradation", "--model", "regular:3", "--theta", "0.7", "--survey", "bec:0.6",
      "--depth", "3", "--samples", "2000", "--bins", "5", "--seed", "9", "--workers", "1"),
     {"bins": 5, "depth": 3, "model": "regular:3", "samples": 2000, "seed": 9,
      "survey": "bec:0.6", "theta": 0.7}),
    (("sbm", "exact", "--n", "6", "--a", "3", "--b", "1", "--eps", "none", "--graphs", "30",
      "--seed", "7", "--workers", "1"),
     {"a": 3.0, "b": 1.0, "eps": None, "graphs": 30, "n": 6, "seed": 7}),
    (("sbm", "integral", "--a", "3", "--b", "1", "--eps-points", "5"),
     {"a": 3.0, "b": 1.0, "eps_points": 5, "seed": 0}),
    (("sbm", "derivative", "--n", "6", "--a", "3", "--b", "1", "--eps", "0.5",
      "--h", "0.1,0.05", "--graphs", "80", "--seed", "2", "--workers", "1"),
     {"a": 3.0, "b": 1.0, "eps": 0.5, "graphs": 80, "h": "0.1,0.05", "n": 6, "seed": 2}),
    (("spin-sync", "mi", "--graph", "path:9", "--theta", "0.8", "--eps", "0.9",
      "--radius", "2", "--workers", "1"),
     {"eps": 0.9, "exact": "auto", "graph": "path:9", "radius": 2, "samples": 20000,
      "seed": 0, "theta": 0.8}),
]


@pytest.mark.parametrize("argv, config", ENVELOPE_CONFIGS,
                         ids=[" ".join(argv[:2]) for argv, _ in ENVELOPE_CONFIGS])
def test_envelope_config_keys_and_values(capsys, tmp_path, argv, config):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    _, doc = run_json(capsys, *argv)
    assert doc["command"] == " ".join(argv[:2])
    assert json.dumps(doc["config"], sort_keys=True) == json.dumps(config, sort_keys=True)


def key_paths(value, path=""):
    """Dotted key paths of a JSON value; the dicts of a list share one `[]` path."""
    if isinstance(value, dict):
        return set().union(*(key_paths(v, f"{path}.{k}" if path else k)
                             for k, v in value.items()))
    if isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
        shapes = [key_paths(v, path + "[]") for v in value]
        assert all(shape == shapes[0] for shape in shapes), path
        return shapes[0]
    return {path}


def under(prefix, keys):
    return {f"{prefix}.{key}" for key in keys}


INFO = ("bhattacharyya", "capacity", "chi2_capacity", "potential_mean", "prob_error")
ESTIMATE = ("estimate", "n_samples", "seed", "stderr")

# Every subcommand's `results` key set, nested objects included: saved result
# files are read by these keys.
RESULT_KEYS = [
    (("de", "run", "--model", "regular:3", "--theta", "0.5", "--survey", "trivial"),
     {"verdict", "method", "snr"}
     | under("limit", ("prob_error", "capacity", "chi2_capacity", "bhattacharyya"))),
    (("de", "run", "--model", "regular:3", "--theta", "0.5", "--survey", "bec:0.5",
      "--grid-bins", "201", "--depth", "3"),
     {"model", "theta", "survey", "include_root_survey", "convergence_tol", "verdict",
      "converged", "sequences_converged", "final_gap", "method",
      "records[].k", "records[].gap", "records[].gap_ratio"}
     | under("limit_leaves", INFO) | under("limit_noleaves", INFO)
     | under("records[].leaves", INFO) | under("records[].noleaves", INFO)),
    (("de", "probe", "--model", "regular:4", "--theta", "0.75", "--survey", "bec:0.95",
      "--depth", "20", "--grid-bins", "501"),
     {"verdict", "snr", "survey_bhattacharyya", "region_criterion", "region_bound_value"}
     | under("probe", ("status", "max_pe_diff", "max_z_diff", "inits", "depths"))
     | under("probe.limits[]", INFO)),
    (("thresholds", "constants"),
     {"alpha_star", "z_bound", "pe_bound", "xi_bound", "peak_gain", "d2_window_endpoint"}),
    (("thresholds", "region", "--x-steps", "3", "--y-steps", "2"),
     under("points[]", ("x", "y", "bound_value", "in_region", "criterion"))),
    (("mc", "entropy", "--model", "regular:3", "--theta", "0.7", "--survey", "bec:0.6",
      "--depth", "3", "--samples", "300", "--seed", "3", "--workers", "1"),
     under("leaves", ESTIMATE) | under("no_leaves", ESTIMATE) | under("diff", ESTIMATE)),
    (("mc", "entropy", "--model", "regular:2", "--theta", "0.6", "--survey", "bec:0.5",
      "--depth", "2", "--samples", "300", "--boundary", "plus:2.0", "--workers", "1"),
     under("entropy", ESTIMATE)),
    (("mc", "majority", "--model", "regular:3", "--theta", "0.6", "--eta", "0.1",
      "--depth", "3", "--samples", "2000", "--seed", "2", "--workers", "1"),
     {"kind", "d", "theta", "eta", "depth", "n_samples", "seed", "sample_mean",
      "sample_mean_stderr", "sample_var", "sample_var_stderr", "closed_form_mean",
      "closed_form_var", "ratio", "ratio_closed_form", "ratio_limit", "chi2_lower_bound",
      "chi2_lower_bound_limit"}),
    (("mc", "wsm", "--model", "regular:2", "--theta", "0.4", "--survey", "trivial",
      "--depth", "4", "--samples", "300", "--seed", "1", "--workers", "1"),
     {"regime", "dtheta", "depth", "n_samples", "seed", "boundary_magnitude", "level_gaps",
      "level_gap_stderrs", "measured_rate", "rate_bound", "x_found", "margin",
      "min_llr_by_level", "min_llr", "persists", "status"}),
    (("mc", "degradation", "--model", "regular:3", "--theta", "0.7", "--survey", "bec:0.6",
      "--depth", "3", "--samples", "2000", "--bins", "5", "--seed", "9", "--workers", "1"),
     {"n_flagged", "n_skipped", "n_samples", "seed", "ok"}
     | under("bins[]", ("delta_tilde_center", "mean_delta", "stderr", "n", "flagged"))),
    (("sbm", "exact", "--n", "6", "--a", "3", "--b", "1", "--eps", "none", "--graphs", "30",
      "--seed", "7", "--workers", "1"),
     under("entropy_per_vertex", ESTIMATE)),
    (("sbm", "integral", "--a", "5", "--b", "1", "--eps-points", "5"),
     {"a", "b", "d_mean", "theta", "snr", "eps_values", "entropy_values", "flagged",
      "integral", "integral_coarse", "refinement_diff", "n_undecided", "status"}
     | under("band", ("lower", "upper", "width", "split_eps"))),
    (("sbm", "derivative", "--n", "6", "--a", "3", "--b", "1", "--eps", "0.5",
      "--h", "0.1,0.05", "--graphs", "80", "--seed", "2", "--workers", "1"),
     {"n", "a", "b", "epsilon", "h_values", "n_graphs", "seed", "mean_diff_first",
      "stderr_diff_first", "mean_diff_sum", "stderr_diff_sum", "curvature_fit",
      "identity_ok", "scaling_ok", "ok"}),
    (("spin-sync", "mi", "--graph", "path:9", "--theta", "0.8", "--eps", "0.9",
      "--radius", "2", "--workers", "1"),
     {"value", "stderr", "method", "n_samples", "ball_size", "boundary_size", "n_edges"}),
]


@pytest.mark.parametrize("argv, keys", RESULT_KEYS,
                         ids=[" ".join(argv[:2]) + f"-{i}" for i, (argv, _) in
                              enumerate(RESULT_KEYS)])
def test_results_key_set_is_pinned(capsys, argv, keys):
    _, doc = run_json(capsys, *argv)
    assert key_paths(doc["results"]) == keys


@pytest.mark.parametrize("argv", [
    ("mc", "entropy", "--model", "regular:3", "--theta", "0.5", "--survey", "bec:0.5",
     "--depth", "2", "--samples", "100"),
    ("sbm", "exact", "--n", "5", "--a", "3", "--b", "1", "--graphs", "4"),
    ("spin-sync", "mi", "--graph", "path:5", "--theta", "0.5", "--eps", "0.5",
     "--exact", "no", "--samples", "100"),
    MAJORITY + ("--theta", "0.5"),
], ids=["mc-entropy", "sbm-exact", "spin-sync-mi", "mc-majority"])
def test_negative_seed_names_seed(capsys, tmp_path, argv):
    for extra in (("--seed", "-1"), ("--config", write_config(tmp_path, seed=-1))):
        code, out, err = run_cli(capsys, *argv, *extra)
        assert code == 1 and out == ""
        assert err == "error: argument --seed: expected a non-negative integer, got '-1'\n"


@pytest.mark.parametrize("argv, flag", [
    (("thresholds", "constants", "--out", "{missing}/x.json"), "--out"),
    (("thresholds", "region", "--x-steps", "2", "--y-steps", "2", "--out",
      "{missing}/x.csv"), "--out"),
    (("de", "run", "--model", "regular:3", "--theta", "0.5", "--survey", "bec:0.5",
      "--depth", "3", "--trace-csv", "{missing}/t.csv"), "--trace-csv"),
])
def test_write_failures_name_their_flag(capsys, tmp_path, argv, flag):
    argv = [a.replace("{missing}", str(tmp_path / "missing")) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {flag}: [Errno 2] No such file or directory")


@pytest.mark.parametrize("argv, flag", [
    (("sbm", "integral", "--a", "4", "--b", "1", "--out", "{missing}/x.json"), "--out"),
    (("sbm", "integral", "--a", "4", "--b", "1", "--out", "{file}/x.json"), "--out"),
    (("sbm", "integral", "--a", "4", "--b", "1", "--out", "{dir}"), "--out"),
    (("de", "run", "--model", "regular:3", "--theta", "0.5", "--survey", "bec:0.5",
      "--trace-csv", "{missing}/t.csv"), "--trace-csv"),
    (("de", "run", "--model", "regular:3", "--theta", "0.5", "--survey", "bec:0.5",
      "--trace-csv", "{dir}"), "--trace-csv"),
], ids=["out-missing-dir", "out-under-a-file", "out-is-a-dir", "trace-csv-missing-dir",
        "trace-csv-is-a-dir"])
def test_unwritable_output_fails_before_the_run(capsys, monkeypatch, tmp_path, argv, flag):
    (tmp_path / "file").write_text("")
    argv = [a.format(missing=tmp_path / "missing", file=tmp_path / "file", dir=tmp_path)
            for a in argv]
    calls = []
    for name in ("_cmd_sbm_integral", "_cmd_de_run"):
        monkeypatch.setattr(cli, name, lambda args: calls.append(args))
    code, out, err = run_cli(capsys, *argv)
    assert calls == []
    assert code == 1 and out == ""
    reason = ("Is a directory" if argv[-1] == str(tmp_path) else
              "Not a directory" if "/file/" in argv[-1] else "No such file or directory")
    assert err.startswith(f"error: {flag}: [Errno ") and reason in err


def test_infinite_grid_rmax_rejected(capsys):
    code, out, err = run_cli(capsys, "de", "run", "--model", "regular:3", "--theta", "0.5",
                             "--survey", "bec:0.5", "--grid-rmax", "inf")
    assert code == 1 and out == ""
    assert err == "error: --grid-rmax must be positive and finite\n"


@pytest.mark.parametrize("argv, start", [
    (("de", "run", "--model", "poisson:800", "--theta", "0.01", "--survey", "bec:0.5"),
     "error: --model: Poisson mean 800 is too large to truncate"),
    (("de", "probe", "--model", "poisson:800", "--theta", "0.01", "--survey", "bec:0.5"),
     "error: --model: Poisson mean 800 is too large to truncate"),
    (("sbm", "integral", "--a", "1480", "--b", "1"),
     "error: --a/--b/--eps-points: Poisson mean 740.5 is too large to truncate"),
    (("sbm", "integral", "--a", "1", "--b", "100000"),
     "error: --a/--b/--eps-points: Poisson mean 50000.5 is too large to truncate"),
    (("de", "run", "--model", "regular:3", "--theta", "0.5", "--survey", "bec:0.5",
      "--grid-rmax", "1e308"), "error: --grid-rmax must be at most 1400"),
    (("mc", "wsm", "--model", "regular:2", "--theta", "0.5", "--survey", "bec:0.5",
      "--depth", "100000", "--samples", "10"),
     "error: --model/--survey/--depth/--samples/--boundary-llr: depth 100000 needs about"),
    # 2^41 nodes a tree: rejected before the arena is sized, whatever memory overcommit allows
    (("mc", "wsm", "--model", "regular:2", "--theta", "0.5", "--survey", "bec:0.5",
      "--depth", "40", "--samples", "10"),
     "error: --model/--survey/--depth/--samples/--boundary-llr: depth 40 needs about"),
    # a 1.4-nat step quantizes away more pairing mass than the symmetry tolerance
    (("de", "run", "--model", "regular:3", "--theta", "0.5", "--survey", "bec:0.5",
      "--grid-rmax", "1400", "--depth", "5"),
     "error: --grid-bins/--grid-rmax: symmetry defect 0.0502 exceeds tolerance 0.05"),
    (("de", "probe", "--model", "regular:3", "--theta", "0.5", "--survey", "bec:0.5",
      "--grid-rmax", "1400", "--depth", "5"),
     "error: --grid-bins/--grid-rmax: symmetry defect 0.0502 exceeds tolerance 0.05"),
    # a subnormal grid step ended in "negative probability mass", naming no flag
    (("de", "run", "--model", "regular:3", "--theta", "0.5", "--survey", "bec:0.5",
      "--grid-rmax", "1e-308"),
     "error: --grid-bins/--grid-rmax: grid step 1e-311 is below the smallest normal float"),
    (("de", "probe", "--model", "regular:3", "--theta", "0.5", "--survey", "bec:0.5",
      "--grid-rmax", "1e-308"),
     "error: --grid-bins/--grid-rmax: grid step 1e-311 is below the smallest normal float"),
    # h^2 underflowed to 0: a RuntimeWarning and a NaN curvature fit, exit 0
    (("sbm", "derivative", "--n", "6", "--a", "4", "--b", "1", "--eps", "0.5",
      "--graphs", "4", "--h", "1e-308"), "error: --h must be at least 1e-75 each"),
    # an erasure level too close to 0 for the default step blamed --h alone
    (("sbm", "derivative", "--n", "6", "--a", "4", "--b", "1", "--eps", "1e-308",
      "--graphs", "4"), "error: --n/--a/--b/--eps/--h/--graphs: epsilon +- h must lie inside"),
    (("spin-sync", "mi", "--graph", "grid:6x6", "--radius", "5", "--theta", "0.5",
      "--eps", "0.5"), "error: --graph/--radius: "),
    (("spin-sync", "mi", "--graph", "grid:4x4", "--radius", "3", "--theta", "0.5",
      "--eps", "0.5", "--exact", "yes"), "error: --exact is out of reach: "),
    # graph errors read as themselves, not as a spec that failed to parse
    (("spin-sync", "mi", "--graph", "grid:6x6", "--radius", "5", "--theta", "0.5",
      "--eps", "0.5"),
     "error: --graph/--radius: ball has more than 20 vertices; enumeration is capped at 20"),
    (("spin-sync", "mi", "--graph", "path:1", "--theta", "0.5", "--eps", "0.5"),
     "error: --graph/--radius: path needs at least two vertices"),
    # a binomial coefficient of the leaf law overflowed the float in a traceback
    (("mc", "entropy", "--model", "regular:1100", "--theta", "0.01", "--survey", "bsc:0.2",
      "--depth", "1", "--samples", "10"),
     "error: --model: regular degree 1100 is past 1029"),
    # a NaN delta ran as a perfect reveal, and a NaN weight was dropped silently
    (("de", "run", "--model", "regular:3", "--theta", "0.5", "--survey", "custom:@nan-delta.csv",
      "--depth", "30"), "error: --survey: delta atoms and their weights must be finite numbers"),
    (("de", "run", "--model", "regular:3", "--theta", "0.5", "--survey", "custom:@nan-weight.csv",
      "--depth", "30"), "error: --survey: delta atoms and their weights must be finite numbers"),
    # an IndexError traceback
    (("de", "run", "--model", "regular:3", "--theta", "0.5", "--survey", "custom:@short-row.csv"),
     "error: --survey: short-row.csv, line 2: expected two fields, delta,weight"),
    # a third field was dropped, an extra header field ignored, and a non-number named
    # neither the file nor the line
    (("de", "run", "--model", "regular:3", "--theta", "0.5", "--survey", "custom:@long-row.csv",
      "--depth", "3"), "error: --survey: long-row.csv, line 2: expected two fields, delta,weight"),
    (("de", "run", "--model", "regular:3", "--theta", "0.5", "--survey",
      "custom:@long-header.csv", "--depth", "3"),
     "error: --survey: long-header.csv, line 1: expected header 'delta,weight'"),
    (("de", "run", "--model", "regular:3", "--theta", "0.5", "--survey",
      "custom:@trailing-comma.csv", "--depth", "3"),
     "error: --survey: trailing-comma.csv, line 2: expected two fields, delta,weight"),
    (("de", "run", "--model", "regular:3", "--theta", "0.5", "--survey", "custom:@not-a-number.csv",
      "--depth", "3"),
     "error: --survey: not-a-number.csv, line 2: expected two numbers, got '0.1,abc'"),
    # both are BSC surveys, outside the open crossover range the probe needs
    (("mc", "wsm", "--model", "regular:3", "--theta", "0.9", "--survey", "bsc:0",
      "--depth", "3", "--samples", "2"),
     "error: --model/--survey/--depth/--samples/--boundary-llr: separation probe needs a BSC "
     "survey with crossover strictly between 0 and 1/2"),
    (("mc", "wsm", "--model", "regular:3", "--theta", "0.9", "--survey", "bsc:0.5",
      "--depth", "3", "--samples", "2"),
     "error: --model/--survey/--depth/--samples/--boundary-llr: separation probe needs a BSC "
     "survey with crossover strictly between 0 and 1/2"),
], ids=["de-run-poisson", "de-probe-poisson", "integral-a", "integral-b", "rmax", "wsm-depth",
        "wsm-arena", "de-run-symmetry", "de-probe-symmetry", "de-run-tiny-rmax",
        "de-probe-tiny-rmax", "derivative-tiny-h", "derivative-eps", "mi-ball-cap",
        "mi-exact-cap", "mi-ball-size", "mi-path-size", "mc-leaf-law-degree", "nan-delta",
        "nan-weight", "short-row", "long-row", "long-header", "trailing-comma", "not-a-number",
        "wsm-bsc-0", "wsm-bsc-half"])
def test_boundary_defects_are_one_line_errors(capsys, recwarn, monkeypatch, tmp_path, argv, start):
    monkeypatch.chdir(tmp_path)
    for name, text in (("nan-delta.csv", "nan,0.5\n0.3,0.5\n"), ("nan-weight.csv", "0.1,nan\n0.3,1.0\n"),
                       ("short-row.csv", "0.1\n"), ("long-row.csv", "0.1,0.5,7\n"),
                       ("trailing-comma.csv", "0.1,1.0,\n"), ("not-a-number.csv", "0.1,abc\n")):
        (tmp_path / name).write_text("delta,weight\n" + text)
    (tmp_path / "long-header.csv").write_text("delta,weight,extra\n0.1,1.0\n")
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith(start)
    assert not recwarn.list


def test_largest_grid_rmax_runs_without_warnings(capsys, recwarn):
    # exp(r_max / 2) stays finite; 20001 bins keep the symmetry defect in bounds
    code, out, err = run_cli(capsys, "de", "run", "--model", "regular:3", "--theta", "0.5",
                             "--survey", "bec:0.5", "--grid-rmax", "1400",
                             "--grid-bins", "20001", "--depth", "5")
    assert code in (0, 2) and err == "" and json.loads(out)["results"]
    assert not recwarn.list


@pytest.mark.parametrize("argv", [
    ("--x-min", "nan", "--x-steps", "2", "--y-steps", "1"),
    ("--family", "bec", "--y-min", "1.5", "--y-max", "1.5", "--x-min", "0.5",
     "--x-max", "0.5"),
    ("--family", "bms", "--y-max", "1.5"),
], ids=["nan-snr", "bec-above-one", "bms-above-one"])
def test_region_rejects_bad_coordinates(capsys, argv):
    code, out, err = run_cli(capsys, "thresholds", "region", *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: --x-min/--x-max/--y-min/--y-max: ")
