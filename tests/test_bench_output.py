"""The benchmark's traced runs end in strict JSON with every metric a number.

bench/run.py prints its result object as the last stdout line.  A public
library function the tracer wraps that has gone missing reads null, and a
non-finite value prints as a bare NaN or Infinity; either would break the
comparison of per-layer metrics across commits.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import run  # noqa: E402

TINY = run.Sizes(eps_points=5, regular_grid=2, bec_trees=40, bsc_trees=40,
                 exact_graphs=16, derivative_graphs=16)


def _reject(constant):
    raise ValueError(f"non-finite JSON constant {constant}")


@pytest.mark.parametrize("workload", ["de-poisson", "de-regular", "mc-tree", "exact-oracles"])
def test_traced_run_prints_every_metric_as_a_number(capsys, tmp_path, workload):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", "1"], sizes=TINY, out_dir=tmp_path) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1],
                        parse_constant=_reject)
    # at TINY sizes the 40-tree MC reference checks can miss by chance, so
    # correctness is asserted where the checks are deterministic
    if workload.startswith("de-"):
        assert result["correct"]
    missing = [name for name, m in result["metrics"].items() if m["value"] is None]
    assert not missing
