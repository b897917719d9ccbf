"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

TINY = run.Sizes(eps_points=5, regular_grid=2, bec_trees=40, bsc_trees=40,
                 exact_graphs=16, derivative_graphs=16)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _result(capsys, tmp_path, workload, trace, seed=3):
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace)], sizes=TINY, out_dir=tmp_path) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.fixture(autouse=True)
def _one_setup_start(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(capsys, tmp_path, workload, trace):
    result = _result(capsys, tmp_path, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    assert (tmp_path / f"{workload}-seed3-trace{trace}.json").is_file()


@pytest.mark.parametrize("workload, table, key, field", [
    ("exact-oracles", "spin_sync_mi", "path:9 0.8 0.9 4", None),
    ("de-regular", "de_run", "regular:4 0.8 bec:0.5", "capacity_leaves"),
])
def test_wrong_reference_fails_the_op(capsys, tmp_path, monkeypatch, workload, table, key,
                                      field):
    refs = json.loads(json.dumps(run.REFS))
    if field is None:
        refs[table][key] += 1e-6
    else:
        refs[table][key][field] += 1e-3
    monkeypatch.setattr(run, "REFS", refs)
    result = _result(capsys, tmp_path, workload, 0)
    assert not result["correct"]
    assert result["failed"] == 1
    assert result["metrics"]["pass_frac"]["value"] < 1.0


def test_seed_derives_command_seeds():
    argvs = [[op.argv for op in run.workload_ops("mc-tree", s)] for s in (5, 5, 6)]
    assert argvs[0] == argvs[1] != argvs[2]
    assert all("--seed" not in op.argv for op in run.workload_ops("de-regular", 5))


def test_missing_library_function_reads_null(capsys, tmp_path, monkeypatch):
    import treebp.llr_dist

    monkeypatch.delattr(treebp.llr_dist, "poisson_convolve")
    result = _result(capsys, tmp_path, "de-regular", 1)
    assert result["correct"]
    assert result["metrics"]["llr_dist.poisson_convolve.self_s"]["value"] is None
    assert result["metrics"]["llr_dist.convolve.calls"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "mc-tree",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
