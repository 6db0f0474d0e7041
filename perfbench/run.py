#!/usr/bin/env python3
"""Closed-loop benchmark of the covcusum command-line interface.

    python3 perfbench/run.py --workload critval-k6 --seed 2024 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 7

Run it from anywhere inside a checkout that holds ``src/covcusum``; it
exits with code 2 when the sources are not there. One client runs one
fresh ``python -m covcusum.cli`` process at a time and starts the next
only when the last has ended (a closed loop). A run repeats the workload's
command until ``--seconds`` have passed and it ran the workload's least
number of times, and every invocation's output must equal the first one's
(all use the same seed).

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median wall
seconds of one invocation), ``peak_rss_mb`` (median peak resident memory,
from ``os.wait4``) and ``setup_s`` (median wall seconds of a fresh
``python -c "import covcusum.cli"``, three times per run). ``--trace 1``
runs the command once untraced and once under ``traced.py``, and reports
the per-layer metrics. Invocations that exit non-zero or fail an output
check count as failed; ``fail_frac`` is failed / attempted.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The whole result, with the
machine, the versions, the input digests and every invocation, is written
to ``.perfbench_out/<workload>-seed<seed>-trace<0|1>.json`` at the root of
the checkout, next to the spans of a traced run.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import inputs
import traced

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
TRACED = Path(__file__).resolve().parent / "traced.py"

SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
# No new invocation starts once the run could pass this many seconds,
# which keeps a run well inside the 180 s a run may take.
RUN_LIMIT_S = 150.0
INVOCATION_TIMEOUT_S = 170.0
# Replications of the uncached simulation timed for limits.scaling_eff_2w:
# five blocks of 2048, so both workers get whole blocks.
SCALING_N_REP = 10240

# Criterion 1 of the acceptance suite: 95% q-breve critical value for K = 6.
CRITVAL_BAND = (7.08 - 0.15, 7.08 + 0.15)
# Rejection rates of 1000 null replications at level 0.95 must lie within
# five binomial standard errors of 0.05.
CELL_REPS = 1000
CELL_BAND_HALF = 5 * math.sqrt(0.05 * 0.95 / CELL_REPS)


def _critval_args(seed, work, inv):
    return ["critval", "--kind", "q-breve", "--K", "6", "--level", "0.95",
            "--n-grid", "2000", "--n-rep", "100000", "--workers", "2",
            "--seed", str(seed), "--out", str(inv / "critval.csv")]


def _critval_read(inv):
    text = (inv / "critval.csv").read_text()
    value = float(list(csv.DictReader(text.splitlines()))[0]["value"])
    lo, hi = CRITVAL_BAND
    problems = [] if lo <= value <= hi else [f"critical value {value} outside [{lo}, {hi}]"]
    return text, problems


def _cell_args(seed, work, inv):
    return ["experiment", "--cases", "IV", "--dims", "10", "--scenario", "none",
            "--tests", "q-breve,v-breve", "--replications", str(CELL_REPS),
            "--n-grid", "1000", "--n-rep", "10000", "--workers", "2",
            "--seed", str(seed), "--out-csv", str(inv / "cell.csv")]


def _cell_read(inv):
    rows = list(csv.DictReader((inv / "cell.csv").read_text().splitlines()))
    problems = []
    if sorted(r["test"] for r in rows) != ["q-breve", "v-breve"]:
        problems.append(f"expected one q-breve and one v-breve row, got {len(rows)} rows")
    for r in rows:
        rate = float(r["rate"])
        if abs(rate - 0.05) > CELL_BAND_HALF:
            problems.append(f"{r['test']} rejection rate {rate} outside 0.05 +- {CELL_BAND_HALF:.4f}")
    key = json.dumps([{k: v for k, v in r.items() if k != "wall_time"} for r in rows])
    return key, problems


def _wide_args(seed, work, inv):
    return ["test", "--kind", "v-breve", "--data", *work["data"], "--v", work["v"],
            "--n-grid", "1000", "--n-rep", "10000", "--workers", "2",
            "--seed", str(seed), "--out", str(inv / "report.json")]


def _wide_read(inv):
    text = (inv / "report.json").read_text()
    report = json.loads(text)
    problems = [f"{k} is not finite: {report.get(k)!r}"
                for k in ("statistic", "critical_value")
                if not isinstance(report.get(k), (int, float)) or not math.isfinite(report[k])]
    return text, problems


def _wide_prepare(seed, work_dir):
    t0 = time.perf_counter()
    data, v = inputs.make_test_wide(seed, str(work_dir))
    gen_s = time.perf_counter() - t0
    files = {Path(p).name: {"bytes": os.path.getsize(p), "sha256": inputs.sha256(p)}
             for p in [*data, v]}
    return {"data": data, "v": v, "gen_s": gen_s, "files": files}


# name -> (input maker, CLI arguments, output reader, (K, n_grid) of its limit
# law, least untraced invocations per run). Why each workload was chosen is
# recorded in BENCHMARK.json. The host's speed drifts by up to 1.5x over tens
# of seconds, and Python-bound work feels it most, so cell-iv and test-wide
# take the median of three and four invocations; critval-k6, numpy-bound and
# steadier, fits one into the time budget of a run.
WORKLOADS = {
    "critval-k6": (None, _critval_args, _critval_read, (6, 2000), 1),
    "cell-iv": (None, _cell_args, _cell_read, (4, 1000), 3),
    "test-wide": (_wide_prepare, _wide_args, _wide_read, (4, 1000), 4),
}


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def invoke(argv, log_path, stderr_path=None):
    """Run one process to its end; returns (wall s, peak RSS MB, exit code)."""
    with open(log_path, "wb") as log, \
            open(stderr_path or os.devnull, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=log,
                                stderr=err if stderr_path else subprocess.STDOUT)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def import_times(work_dir):
    """Median cumulative -X importtime seconds per module, and the lines behind them."""
    runs, lines = [], []
    for i in range(IMPORTTIME_REPEATS):
        err = work_dir / f"importtime-{i}.txt"
        invoke([sys.executable, "-X", "importtime", "-c", "import covcusum.cli"],
               work_dir / f"importtime-{i}.out", err)
        times = {}
        for line in err.read_text().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                name = parts[2].strip()
                times.setdefault(name, int(parts[1]) / 1e6)
                if name.startswith("covcusum") or name == "scipy.signal":
                    lines.append(line)
        runs.append(times)
    keys = {k for r in runs for k in r if k.startswith("covcusum")}
    return {k: statistics.median(r.get(k, 0.0) for r in runs) for k in keys}, lines


def scaling_times(law, seed, work_dir):
    """Seconds of one uncached path simulation with 1 and with 2 workers."""
    k, n_grid = law
    out = work_dir / "scaling.json"
    invoke([sys.executable, str(TRACED), "scaling", "--K", str(k), "--n-grid", str(n_grid),
            "--n-rep", str(SCALING_N_REP), "--seed", str(seed), "--out", str(out)],
           work_dir / "scaling.out")
    return json.loads(out.read_text()) if out.exists() else {}


def tail_summary(values):
    """Median plus the highest percentile with at least ten samples beyond it."""
    out = {"n": len(values), "median": statistics.median(values)}
    for p in (99.9, 99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            out[f"p{p:g}"] = statistics.quantiles(values, n=1000, method="inclusive")[
                round(p * 10) - 1]
            break
    return out


def environment(seed):
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "seed": seed,
        "src_sha256": hashlib.sha256(b"".join(
            p.read_bytes() for p in sorted((SRC / "covcusum").glob("*.py")))).hexdigest(),
        "git_commit": "unknown (not a git checkout)",
        "git_dirty": None,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                "unknown")
    except OSError:
        pass
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
        dirty = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                               capture_output=True, text=True)
        if head.returncode == 0:
            env["git_commit"] = head.stdout.strip()
            env["git_dirty"] = bool(dirty.stdout.strip())
    return env


def run_workload(name, seed, seconds, trace):
    prepare, make_args, read, law, least = WORKLOADS[name]
    started = time.perf_counter()
    env = environment(seed)
    env["loadavg_before"] = os.getloadavg()
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}"
    work_dir = OUT / f"{stem}-work-{os.getpid()}"
    work_dir.mkdir()
    result = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": env}
    try:
        work = prepare(seed, work_dir) if prepare else {}
        if work:
            result["inputs"] = {"gen_s": work["gen_s"], "files": work["files"]}

        setup = []
        if not trace:
            for i in range(SETUP_REPEATS):
                setup.append(invoke([sys.executable, "-c", "import covcusum.cli"],
                                    work_dir / f"setup-{i}.out")[0])

        invocations = []

        def one(i, traced_run=False):
            inv = work_dir / f"inv-{i}"
            inv.mkdir()
            cli_args = make_args(seed, work, inv)
            if traced_run:
                argv = [sys.executable, str(TRACED), "run", "--spans",
                        str(inv / "spans.json"), "--", *cli_args]
            else:
                argv = [sys.executable, "-m", "covcusum.cli", *cli_args]
            wall, rss, rc = invoke(argv, inv / "stdout.txt")
            record = {"traced": traced_run, "wall_s": wall, "peak_rss_mb": rss,
                      "exit_code": rc, "problems": [], "key": None}
            if rc != 0:
                log = (inv / "stdout.txt").read_text(errors="replace")
                record["problems"].append(f"exit code {rc}: {log[-400:]}")
            else:
                try:
                    record["key"], record["problems"] = read(inv)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    record["problems"].append(f"unreadable output: {exc!r}")
            invocations.append(record)
            return inv

        loop_start = time.perf_counter()
        one(0)
        while not trace and (len(invocations) < least or
                             time.perf_counter() - loop_start < seconds) and \
                time.perf_counter() - started + invocations[-1]["wall_s"] <= RUN_LIMIT_S:
            one(len(invocations))

        if trace:
            spans_path = one(len(invocations), traced_run=True) / "spans.json"
            spans = json.loads(spans_path.read_text()) if spans_path.exists() else None
            if spans is not None:
                shutil.copy(spans_path, OUT / f"{stem}-spans.json")
            result["scaling"] = scaling = scaling_times(law, seed, work_dir)
            imports, env["importtime_lines"] = import_times(work_dir)

        # Every invocation with one seed must give the same output.
        reference = next((r["key"] for r in invocations if r["key"] is not None), None)
        for r in invocations:
            if r["key"] is not None and r["key"] != reference:
                r["problems"].append("output differs from the first invocation")
        failed = sum(1 for r in invocations if r["problems"])
        untraced = [r for r in invocations if not r["traced"]]
        walls = [r["wall_s"] for r in untraced]

        if trace:
            metrics, result["layer_shares"] = traced.layer_metrics(
                spans, statistics.median(walls), invocations[-1]["wall_s"],
                scaling, imports) if spans is not None else ({}, {})
        else:
            metrics = {
                "wall_s": (statistics.median(walls), "s"),
                "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in untraced), "MB"),
                "setup_s": (statistics.median(setup), "s"),
            }
            result["wall_s_summary"] = tail_summary(walls)
            result["setup_s_runs"] = setup
        env["loadavg_after"] = os.getloadavg()
        result.update(attempted=len(invocations), failed=failed,
                      fail_frac=failed / len(invocations),
                      invocations=[{k: v for k, v in r.items() if k != "key"}
                                   for r in invocations],
                      metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
    return result


def print_human(result):
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}")
    for name, m in result["metrics"].items():
        value = "not measured" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:34s} {value:>14s} {m['unit']}")
    summary = result.get("wall_s_summary")
    if summary:
        tail = [f"{k} {v:.6g} s" for k, v in summary.items() if k.startswith("p")]
        print(f"  wall_s over n={summary['n']} invocations: median {summary['median']:.6g} s; "
              + (", ".join(tail) if tail else
                 "no percentile has >= 10 samples beyond it at this n"))
    if result.get("layer_shares"):
        print("  self-time shares of cli.main: " + ", ".join(
            f"{k} {v:.1%}" for k, v in result["layer_shares"].items()))
    print(f"  fail_frac {result['failed']}/{result['attempted']} = {result['fail_frac']:.6g}")
    for r in result["invocations"]:
        for p in r["problems"]:
            print(f"  FAILED: {p}")
    if "inputs" in result:
        print(f"  inputs generated in {result['inputs']['gen_s']:.3f} s "
              "(not part of wall_s or setup_s)")
        for fname, f in result["inputs"]["files"].items():
            print(f"    {fname} {f['bytes']} bytes sha256 {f['sha256']}")
    env = result["environment"]
    print(f"  env: nproc {env['nproc']}, {env['cpu_model']}, python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, load {env['loadavg_before']} -> "
          f"{env['loadavg_after']}, commit {env['git_commit']} dirty {env['git_dirty']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description="covcusum CLI benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if opts.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "covcusum" / "cli.py").is_file():
        print(f"error: no covcusum sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if opts.workload == "all" else [opts.workload]
    results = []
    for name in names:
        result = run_workload(name, opts.seed, opts.seconds, opts.trace)
        print_human(result)
        results.append(result)
    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{r['workload']}.{k}" if prefix else k: v
                    for r in results for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
