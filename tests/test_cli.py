"""Command-line surface: exit codes, JSON envelope, config merging, artifacts."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import treebp
from treebp.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


def test_constants_envelope(capsys):
    code, doc = run_json(capsys, "thresholds", "constants")
    assert code == 0
    assert set(doc) == {"schema_version", "tool", "version", "command",
                        "config", "seed", "results"}
    assert doc["tool"] == "treebp" and doc["command"] == "thresholds constants"
    assert doc["schema_version"] == 1 and doc["seed"] == 0
    res = doc["results"]
    assert res["alpha_star"] == pytest.approx(3.51286, abs=1e-5)
    assert res["z_bound"] == pytest.approx(0.824361, abs=1e-6)
    assert res["pe_bound"] == pytest.approx(0.216967, abs=1e-6)
    assert res["peak_gain"] == pytest.approx(2.0 / math.sqrt(math.e), abs=1e-12)


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


def test_import_loads_no_scipy():
    src = str(Path(treebp.__file__).resolve().parents[1])
    code = ("import sys, treebp.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_reruns_are_byte_identical(capsys):
    argv = ("mc", "entropy", "--model", "regular:3", "--theta", "0.7",
            "--survey", "bec:0.6", "--depth", "3", "--samples", "2000",
            "--seed", "3")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_worker_count_does_not_change_output(capsys):
    argv = ("mc", "entropy", "--model", "regular:3", "--theta", "0.7",
            "--survey", "bec:0.6", "--depth", "3", "--samples", "2000",
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
