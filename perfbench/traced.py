"""Traced in-process run of the covcusum CLI, and the per-layer metrics.

Run as a program, it replaces public functions of the package's modules
with timing wrappers, calls ``covcusum.cli.main`` with the given
arguments and, when main returns, writes every span to a JSON file:

    python3 perfbench/traced.py run --spans FILE -- critval --kind q-breve ...

A span is (id, name, start ns, end ns, parent id, counts). Counts are
taken at the same boundary from the call's arguments or result, such as
the N x d cells a projection multiplied. Nothing under ``src/`` changes;
a function that no longer exists is listed as missing, and the metrics
that need it read "not measured".

    python3 perfbench/traced.py scaling --K 6 --n-grid 2000 --n-rep 10240 --seed 1 --out FILE

times ``limits.simulate_path_extrema`` uncached with one worker and with
two, for the 2-worker scaling efficiency.

The parent (``run.py``) imports this file for ``layer_metrics``, which
turns the spans into the per-layer metrics.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import itertools
import json
import os
import statistics
import sys
import threading
import time
import weakref
from collections import defaultdict

MODULES = ("cli", "simgen", "sumproc", "lrv", "limits", "cptest", "harness")


def _bundle_bytes(args, kwargs, result):
    paths = list(args[0] if args else kwargs.get("data_paths", ()))
    v_path = args[1] if len(args) > 1 else kwargs.get("v_path")
    if v_path:
        paths.append(v_path)
    return {"bytes": sum(os.path.getsize(p) for p in paths)}


def _project_cells(args, kwargs, result):
    shape = getattr(args[0] if args else kwargs.get("sample"), "shape", ())
    return {"cells": int(shape[0]) * int(shape[1])} if len(shape) == 2 else {}


def _lrv_lags(args, kwargs, result):
    lags = getattr(result, "n_lags", None)
    return {} if lags is None else {"n_lags": int(lags)}


class _ExtremaObserver:
    """Marks whether a simulate_path_extrema call computed or hit a cache.

    A call is warm when it returns an object an earlier call returned.
    Weak references keep a freed object's reused id from counting.
    """

    def __init__(self):
        self.seen = {}

    def __call__(self, args, kwargs, result):
        ref = self.seen.get(id(result))
        cold = ref is None or ref() is not result
        try:
            self.seen[id(result)] = weakref.ref(result)
        except TypeError:
            pass
        info = {"cold": cold}
        if cold:
            arrays = [getattr(result, a, None) for a in ("bm_max", "bm_min", "bb_max", "bb_min")]
            arrays = [a for a in arrays if a is not None]
            info["bytes"] = sum(a.nbytes for a in arrays)
            if arrays:
                n_rep, k = arrays[0].shape
                n_grid = getattr(result, "n_grid", 0)
                info["steps"] = int(n_rep) * int(k) * int(n_grid)
        return info


def _cell_reps(args, kwargs, result):
    try:
        return {"reps": int(result[0].n_rep)}
    except (AttributeError, IndexError, TypeError):
        return {}


# The public functions wrapped, as module.function.
WRAPPED = (
    "cli.main", "cli.load_bundle",
    "harness.run_experiment", "harness.run_cell",
    "simgen.gen_ar1_panel", "simgen.gen_dirichlet_projection",
    "sumproc.project", "sumproc.bridge_process", "sumproc.d_process",
    "sumproc.pooled_d_grid_max", "sumproc.per_sample_max_sq",
    "lrv.lrv_estimate",
    "cptest.run_test",
    "limits.critical_value", "limits.simulate_path_extrema",
    "limits.functional_draws", "limits.empirical_quantile",
)


class Tracer:
    """Holds spans in memory; one call stack per thread gives the parents."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, module, attr, name, observe=None):
        original = getattr(module, attr, None)
        if not callable(original):
            self.missing.append(name)
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            info = observe(args, kwargs, result) if observe else {}
            tracer.spans.append((span_id, name, start, end, parent, info))
            return result

        setattr(module, attr, wrapper)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self):
        observers = {
            "cli.load_bundle": _bundle_bytes,
            "harness.run_cell": _cell_reps,
            "sumproc.project": _project_cells,
            "lrv.lrv_estimate": _lrv_lags,
            "limits.simulate_path_extrema": _ExtremaObserver(),
        }
        for name in WRAPPED:
            mod_name, attr = name.split(".")
            module = importlib.import_module(f"covcusum.{mod_name}")
            self.wrap(module, attr, name, observers.get(name))


def _run(opts):
    tracer = Tracer()
    tracer.install()
    from covcusum import cli

    rc = cli.main(opts.cli_args) if "cli.main" not in tracer.missing else 2
    with open(opts.spans, "w") as fh:
        json.dump({"rc": rc, "missing": tracer.missing, "spans": tracer.spans}, fh)
    return rc


def _scaling(opts):
    from covcusum import limits

    times = {}
    try:
        # Warm the allocator and the generator code before timing.
        limits.simulate_path_extrema(1, opts.n_grid, 2048, opts.seed, workers=2, cache=False)
        for workers in (1, 2):
            t0 = time.perf_counter()
            limits.simulate_path_extrema(opts.K, opts.n_grid, opts.n_rep, opts.seed,
                                         workers=workers, cache=False)
            times[str(workers)] = time.perf_counter() - t0
    except (AttributeError, TypeError) as exc:
        times = {"error": f"{type(exc).__name__}: {exc}"}
    with open(opts.out, "w") as fh:
        json.dump(times, fh)
    return 0


# ------------------------------------------------------------ derivation


def _covered_ns(span, kids):
    """Length of the union of the children's intervals inside ``span``."""
    total, cursor = 0, span[2]
    for kid in sorted(kids, key=lambda s: s[2]):
        lo, hi = max(kid[2], cursor), min(kid[3], span[3])
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def layer_metrics(trace, untraced_wall_s, traced_wall_s, scaling, imports):
    """Per-layer metrics from a spans file plus the side measurements.

    Returns ({name: (value or None, unit)}, {module: share of cli.main}).
    None means "not measured". Means and rates of a function that ran
    zero times read 0. A module's self time is the sum of its spans' self
    times, and its share is that over the time in ``cli.main``.
    """
    spans = trace["spans"]
    missing = set(trace["missing"])
    by_name = defaultdict(list)
    kids = defaultdict(list)
    for s in spans:
        by_name[s[1]].append(s)
        kids[s[4]].append(s)
    dur = {s[0]: s[3] - s[2] for s in spans}
    self_ns = {s[0]: dur[s[0]] - _covered_ns(s, kids[s[0]]) for s in spans}

    def total_s(name):
        return sum(dur[s[0]] for s in by_name[name]) / 1e9

    def count(name):
        return len(by_name[name])

    def mean_ms(name, ids=None):
        ids = [s[0] for s in by_name[name]] if ids is None else ids
        return statistics.fmean(dur[i] for i in ids) / 1e6 if ids else 0.0

    def info_sum(name, key):
        return sum(s[5].get(key, 0) for s in by_name[name])

    def ratio(a, b):
        return a / b if b else 0.0

    tests = count("cptest.run_test")
    cold = [s for s in by_name["limits.simulate_path_extrema"] if s[5].get("cold")]
    cold_s = sum(dur[s[0]] for s in cold) / 1e9
    warm_cv = [s[0] for s in by_name["limits.critical_value"]
               if not any(k[1] == "limits.simulate_path_extrema" and k[5].get("cold")
                          for k in kids[s[0]])]
    lags = [s[5]["n_lags"] for s in by_name["lrv.lrv_estimate"] if "n_lags" in s[5]]
    reps = info_sum("harness.run_cell", "reps")
    main_s = total_s("cli.main")
    t1, t2 = scaling.get("1"), scaling.get("2")

    m = {}

    def put(name, value, unit, needs=()):
        m[name] = (None if missing.intersection(needs) else value, unit)

    for key in ("cli", "simgen", "limits"):
        put(f"setup.import_{key}_s", imports.get(f"covcusum.{key}"), "s")
    put("cli.load_bundle_s", total_s("cli.load_bundle"), "s", ["cli.load_bundle"])
    put("cli.ingest_mb_per_s",
        ratio(info_sum("cli.load_bundle", "bytes") / 1e6, total_s("cli.load_bundle")),
        "MB/s", ["cli.load_bundle"])
    put("simgen.gen_ar1_panel_ms", mean_ms("simgen.gen_ar1_panel"), "ms",
        ["simgen.gen_ar1_panel"])
    put("simgen.gen_ar1_panel_calls", count("simgen.gen_ar1_panel"), "count",
        ["simgen.gen_ar1_panel"])
    put("sumproc.project_ms", mean_ms("sumproc.project"), "ms", ["sumproc.project"])
    put("sumproc.project_calls_per_test", ratio(count("sumproc.project"), tests), "count",
        ["sumproc.project", "cptest.run_test"])
    put("sumproc.project_melems_per_s",
        ratio(info_sum("sumproc.project", "cells") / 1e6, total_s("sumproc.project")),
        "Melem/s", ["sumproc.project"])
    put("lrv.lrv_estimate_ms", mean_ms("lrv.lrv_estimate"), "ms", ["lrv.lrv_estimate"])
    put("lrv.calls_per_test", ratio(count("lrv.lrv_estimate"), tests), "count",
        ["lrv.lrv_estimate", "cptest.run_test"])
    put("lrv.n_lags_mean", statistics.fmean(lags) if lags else 0.0, "count",
        ["lrv.lrv_estimate"])
    extrema = ["limits.simulate_path_extrema"]
    put("limits.simulate_path_extrema_s", total_s(extrema[0]), "s", extrema)
    put("limits.path_steps_per_s", ratio(sum(s[5].get("steps", 0) for s in cold), cold_s),
        "steps/s", extrema)
    put("limits.scaling_eff_2w", t1 / (2 * t2) if t1 and t2 else None, "ratio")
    put("limits.extrema_mb", sum(s[5].get("bytes", 0) for s in cold) / 1e6, "MB", extrema)
    put("limits.critical_value_calls", count("limits.critical_value"), "count",
        ["limits.critical_value"])
    put("limits.critical_value_ms", mean_ms("limits.critical_value", warm_cv), "ms",
        ["limits.critical_value"])
    run_test = [s[0] for s in by_name["cptest.run_test"]]
    put("cptest.run_test_ms", mean_ms("cptest.run_test"), "ms", ["cptest.run_test"])
    put("cptest.self_ms",
        statistics.fmean(self_ns[i] for i in run_test) / 1e6 if run_test else 0.0,
        "ms", ["cptest.run_test"])
    put("harness.run_cell_s", total_s("harness.run_cell"), "s", ["harness.run_cell"])
    put("harness.self_s",
        sum(self_ns[s[0]] for s in spans if s[1].startswith("harness.")) / 1e9, "s",
        ["harness.run_cell", "harness.run_experiment"])
    put("harness.rep_ms", ratio(total_s("harness.run_cell") * 1e3, reps), "ms",
        ["harness.run_cell"])
    put("trace.overhead_frac", (traced_wall_s - untraced_wall_s) / untraced_wall_s, "ratio")
    put("layer.setup_s", traced_wall_s - main_s, "s", ["cli.main"])
    shares = {}
    for mod in MODULES:
        mod_s = sum(self_ns[s[0]] for s in spans if s[1].startswith(mod + ".")) / 1e9
        put(f"layer.{mod}_self_s", mod_s, "s")
        shares[mod] = ratio(mod_s, main_s)
    return m, shares


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("run")
    p.add_argument("--spans", required=True)
    p.add_argument("cli_args", nargs=argparse.REMAINDER)
    p.set_defaults(func=_run)
    p = sub.add_parser("scaling")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--n-grid", type=int, required=True)
    p.add_argument("--n-rep", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_scaling)
    opts = parser.parse_args(argv)
    if opts.mode == "run" and opts.cli_args[:1] == ["--"]:
        opts.cli_args = opts.cli_args[1:]
    return opts.func(opts)


if __name__ == "__main__":
    sys.exit(main())
