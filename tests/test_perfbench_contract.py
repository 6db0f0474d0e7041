"""The per-layer metrics the benchmark declares can all be measured.

``perfbench`` wraps package functions by name; a renamed or removed
function leaves its metrics unmeasured (None) while the run itself still
succeeds.  This runs the benchmark's traced pieces on a small critical
value, on a small experiment cell and on a small ``test`` run with a
learning stretch, and checks that every metric ``BENCHMARK.json``
declares comes out a finite number.
"""

import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

# A critical value alone, a small experiment cell, which runs every
# data-path layer the benchmark's observers read (projection, long-run
# variance, the cell's result rows), and a test on CSV files, which runs
# the file ingestion and the test itself.
COMMANDS = {
    "critval": ["critval", "--kind", "q-breve", "--K", "2"],
    "experiment": ["experiment", "--cases", "I", "--dims", "2", "--replications", "20",
                   "--n-grid", "500", "--n-rep", "1000", "--workers", "1", "--seed", "3",
                   "--out-csv", "cell.csv"],
    "test": ["test", "--data", "sample_1.csv", "sample_2.csv", "--v", "v.txt",
             "--kind", "v-breve", "--learning-length", "20", "--n-grid", "500",
             "--n-rep", "1000", "--workers", "1", "--seed", "3"],
}


def _write_test_files(directory):
    """Two samples of 300 rows and d = 3, and a projection vector, for ``test``."""
    rng = np.random.default_rng(3)
    for j in (1, 2):
        np.savetxt(directory / f"sample_{j}.csv", rng.standard_normal((300, 3)), delimiter=",")
    np.savetxt(directory / "v.txt", [0.2, 0.3, 0.5])


@pytest.mark.parametrize("command", COMMANDS)
def test_every_declared_layer_metric_is_measured(tmp_path, monkeypatch, command):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")

    _write_test_files(tmp_path)
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(PERFBENCH / "traced.py"), "run", "--spans", str(spans),
                    "--", *COMMANDS[command]],
                   cwd=tmp_path, env=env, capture_output=True, timeout=120, check=True)
    scaling = run.scaling_times((1, 100), 1, tmp_path)
    imports, _ = run.import_times(tmp_path)
    trace = json.loads(spans.read_text())
    metrics, _ = run.traced.layer_metrics(trace, 1.0, 1.0, scaling, imports)
    if command == "test":  # a wrap that is never called reads 0, not "not measured"
        assert {"cli.load_bundle", "cptest.run_test"} <= {s[1] for s in trace["spans"]}

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    unmeasured = {name: value for name, (value, _) in metrics.items()
                  if not (isinstance(value, (int, float)) and math.isfinite(value))}
    assert unmeasured == {}
