"""The per-layer metrics the benchmark declares can all be measured.

``perfbench`` wraps package functions by name; a renamed or removed
function leaves its metrics unmeasured (None) while the run itself still
succeeds.  This runs the benchmark's traced pieces on a small critical
value and on a small experiment cell, and checks that every metric
``BENCHMARK.json`` declares comes out a finite number.
"""

import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

# A critical value alone, and a small experiment cell, which runs every
# data-path layer the benchmark's observers read (projection, long-run
# variance, the cell's result rows).
COMMANDS = {
    "critval": ["critval", "--kind", "q-breve", "--K", "2"],
    "experiment": ["experiment", "--cases", "I", "--dims", "2", "--replications", "20",
                   "--n-grid", "500", "--n-rep", "1000", "--workers", "1", "--seed", "3",
                   "--out-csv", "cell.csv"],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_every_declared_layer_metric_is_measured(tmp_path, monkeypatch, command):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")

    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(PERFBENCH / "traced.py"), "run", "--spans", str(spans),
                    "--", *COMMANDS[command]],
                   cwd=tmp_path, env=env, capture_output=True, timeout=120, check=True)
    scaling = run.scaling_times((1, 100), 1, tmp_path)
    imports, _ = run.import_times(tmp_path)
    metrics, _ = run.traced.layer_metrics(json.loads(spans.read_text()), 1.0, 1.0, scaling,
                                          imports)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    unmeasured = {name: value for name, (value, _) in metrics.items()
                  if not (isinstance(value, (int, float)) and math.isfinite(value))}
    assert unmeasured == {}
