"""Command-line front end: simulate, test, critval, experiment.

Machine-readable output uses 17 significant digits so that replaying a
printed seed reproduces it byte-identically; human-readable tables use 4.
Exit codes: 0 success, 1 operational error, 2 invalid configuration.

Input files: a sample CSV has one row per time point and one column per
coordinate; a vector file has one value per line.  Blank lines are
skipped, and a first line that is not numeric is a header.  Cells are
parsed by numpy; a non-numeric or non-finite cell, or a row of another
width, is refused with ``file:line``.  ``--n-rep`` is read by the ``v``
kinds only.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import secrets
import sys

import numpy as np

from . import cptest, harness, limits, lrv, simgen, sumproc
from .errors import ConfigurationError, CovCusumError, IngestionError


def _data_lines(fh, linenos):
    """Yield the data lines of ``fh``, recording the physical number of each."""
    for lineno, line in enumerate(fh, start=1):
        if not line.strip() or (lineno == 1 and not _is_numeric(line)):
            continue
        linenos.append(lineno)
        yield line


def _is_numeric(line):
    try:
        np.loadtxt([line], delimiter=",", comments=None)
    except ValueError:
        return False
    return True


def _load_matrix(path):
    """Rows of numbers from a CSV file, refusing bad input with ``file:line``."""
    linenos = []
    with open(path) as fh:
        lines = _data_lines(fh, linenos)
        first = next(lines, None)
        if first is None:
            raise IngestionError(f"{path}: no data rows")
        try:
            values = np.loadtxt(itertools.chain([first], lines), delimiter=",",
                                ndmin=2, comments=None)
        except ValueError as exc:
            # loadtxt parses each line before pulling the next: the last recorded is bad.
            reason = str(exc).split(" at row")[0]
            raise IngestionError(f"{path}:{linenos[-1]}: {reason}") from exc
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        raise IngestionError(
            f"{path}:{linenos[int(np.argmax(bad))]}: non-finite value (nan or inf)")
    return values


def _load_vector(path, expected_d):
    values = _load_matrix(path)
    if values.shape[1] != 1:
        raise IngestionError(
            f"{path}: expected one value per line, got {values.shape[1]} columns")
    if len(values) != expected_d:
        raise IngestionError(
            f"{path}: projection vector has length {len(values)}, expected {expected_d}")
    return values[:, 0]


def load_bundle(data_paths, v_path=None, w_path=None):
    """Load sample CSVs and vector files as ``(samples, v, w)``; see the module docstring."""
    samples = [_load_matrix(p) for p in data_paths]
    d = samples[0].shape[1]
    for path, y in zip(data_paths, samples):
        if y.shape[1] != d:
            raise IngestionError(
                f"{path}: has {y.shape[1]} columns but first sample has {d}")
    v = _load_vector(v_path, d) if v_path else None
    w = _load_vector(w_path, d) if w_path else None
    return samples, v, w


def parse_config_file(path):
    """Flat key-value config with dotted section prefixes.

    Lines are ``section.key = value``; '#' starts a comment; values may be
    comma-separated lists.  Returns a flat dict of strings.
    """
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _floats(text):
    return tuple(float(x) for x in str(text).split(","))


def _spread(text, n):
    """A comma list as given, or a scalar repeated ``n`` times."""
    return _floats(text) if "," in str(text) else (float(text),) * n


def _ints(text):
    return tuple(int(x) for x in str(text).split(","))


def _resolve_seed(args):
    if args.seed is not None:
        return int(args.seed)
    seed = secrets.randbits(63)
    print(f"seed: {seed}")
    return seed


def _critval_seed(args):
    """The seed of a Monte Carlo critical value; corrected kinds draw none."""
    return _resolve_seed(args) if limits.method_of(args.kind) == "mc" else 0


def _fmt(x, digits=17):
    return f"{x:.{digits}g}"


# ---------------------------------------------------------------- simulate


def _cmd_simulate(args):
    cfg_values = parse_config_file(args.config) if args.config else {}

    def get(key, fallback=None):
        flag = getattr(args, key, None)
        if flag is not None:
            return flag
        return cfg_values.get(f"panel.{key}", fallback)

    seed = _resolve_seed(args) if args.seed is not None or "panel.seed" not in cfg_values \
        else int(cfg_values["panel.seed"])
    K = int(get("K", 1))
    d = int(get("d", 1))
    N = _ints(get("N", "100"))
    kwargs = dict(K=K, d=d, N=N, rho0=_spread(get("rho0", "0"), d),
                  sigma0=_spread(get("sigma0", "1"), K), seed=seed,
                  burn_in=int(get("burn_in", simgen.DEFAULT_BURN_IN)))
    for key, n in (("rho1", d), ("sigma1", K)):
        if get(key) is not None:
            kwargs[key] = _spread(get(key), n)
    tau = get("tau")
    if tau is not None:
        kwargs["tau"] = _ints(tau)

    config = simgen.PanelConfig(**kwargs)
    panel = simgen.gen_ar1_panel(config, rep=args.rep)
    os.makedirs(args.out_dir, exist_ok=True)
    paths = simgen.export_panel_csv(panel, args.out_dir)
    for p in paths:
        print(p)
    return 0


# -------------------------------------------------------------------- test


def _cmd_test(args):
    seed = _critval_seed(args)
    if args.v is None:
        raise ConfigurationError("test requires a projection vector (--v)")
    samples, v, w = load_bundle(args.data, args.v, args.w)
    pair = sumproc.ProjectionPair.from_vectors(v, w)
    targets = None
    if args.targets is not None:
        values = _floats(args.targets)
        if len(values) != len(samples):
            raise ConfigurationError(
                f"got {len(values)} targets for {len(samples)} samples")
        targets = sumproc.TargetBilinear(values=list(values))
    spec = cptest.TestSpec(
        kind=args.kind, projection=pair, level=args.level, targets=targets,
        lrv_mode=args.lrv_mode, learning_length=args.learning_length,
        n_grid=args.n_grid, n_rep=args.n_rep, seed=seed)
    report = cptest.run_test(samples, spec, workers=args.workers)

    print(f"kind            {report.kind}")
    print(f"statistic       {report.statistic:.4g}")
    print(f"critical value  {report.critical_value:.4g} ({report.method})")
    print(f"level           {report.level:.4g}")
    print(f"reject          {report.reject}")
    for j, s in enumerate(report.per_sample):
        print(f"sample {j + 1}: alpha_sq={s.alpha_sq:.4g} "
              f"bandwidth={s.bandwidth:.4g} argmax_k={s.argmax_k}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.to_json(indent=2))
            fh.write("\n")
    return 0


# ----------------------------------------------------------------- critval


def _cmd_critval(args):
    seed = _critval_seed(args)
    req = limits.CritValRequest(
        kind=args.kind, K=args.K, level=args.level,
        alpha_weights=_floats(args.alpha) if args.alpha else None,
        kappa=_floats(args.kappa) if args.kappa else None,
        n_grid=args.n_grid, n_rep=args.n_rep, seed=seed)
    (row,) = limits.critical_value_table([req], workers=args.workers)
    kind, K, level, value, n_grid, n_rep, row_seed, method = row
    print(f"{kind} K={K} level={level:.4g}: {value:.4g} ({method})")
    if args.out:
        # csv writes None as an empty cell: n_rep and seed of a "corrected"
        # value did not enter it.
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["kind", "K", "level", "value", "n_grid", "n_rep", "seed", "method"])
            writer.writerow([kind, K, _fmt(level), _fmt(value), n_grid, n_rep, row_seed, method])
    return 0


# -------------------------------------------------------------- experiment


def _cmd_experiment(args):
    seed = _resolve_seed(args)
    cfg = harness.ExperimentConfig(
        replications=args.replications,
        cases=tuple(args.cases.split(",")),
        dims=_ints(args.dims),
        scenario=args.scenario,
        change_times=_ints(args.change_times),
        tests=tuple(args.tests.split(",")),
        lrv_mode=args.lrv_mode,
        learning_length=args.learning_length,
        level=args.level,
        seed=seed,
        critval_n_grid=args.n_grid,
        critval_n_rep=args.n_rep,
        workers=args.workers)
    results = harness.run_experiment(cfg)
    for r in results:
        ct = "-" if r.change_time is None else r.change_time
        print(f"case {r.case} d={r.d} {r.scenario} t={ct} {r.test}: "
              f"rate={r.rate:.4g} (se {r.stderr:.4g}, n={r.n_rep})")
    if args.out_csv:
        harness.results_to_csv(results, args.out_csv)
    if args.out_json:
        harness.results_to_json(results, args.out_json)
    return 0


# ------------------------------------------------------------------ parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="covcusum",
        description="Covariance change-point tests for K-sample vector time series")
    sub = parser.add_subparsers(dest="command", required=True)

    def seeded(p):
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed; omitted seeds derive from entropy and are printed")

    def common(p):
        seeded(p)
        p.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                       help="threads simulating the paths of a v-kind critical value")
        p.add_argument("--level", type=float, default=0.95)
        p.add_argument("--n-grid", type=int, default=limits.DEFAULT_N_GRID,
                       help="grid points of the supremum the critical value is for")
        p.add_argument("--n-rep", type=int, default=limits.DEFAULT_N_REP,
                       help="simulated replications (v kinds only)")

    p = sub.add_parser("simulate", help="generate a synthetic panel as CSVs")
    seeded(p)
    p.add_argument("--config", default=None, help="key-value config file")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--rep", type=int, default=0)
    for flag in ("K", "d", "rho0", "rho1", "sigma0", "sigma1"):
        p.add_argument(f"--{flag}", default=None)
    p.add_argument("--N", default=None, help="comma-separated sample sizes")
    p.add_argument("--tau", default=None, help="comma-separated change indices")
    p.add_argument("--burn-in", dest="burn_in", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("test", help="run a change-point test on CSV data")
    common(p)
    p.add_argument("--data", nargs="+", required=True, help="one CSV per sample")
    p.add_argument("--v", default=None, help="projection vector file, one value per line")
    p.add_argument("--w", default=None, help="second vector file (defaults to --v)")
    p.add_argument("--kind", required=True, choices=limits.KINDS)
    p.add_argument("--targets", default=None,
                   help="comma-separated per-sample target bilinear forms (q/v kinds)")
    p.add_argument("--lrv-mode", default=lrv.MODE_IN_SAMPLE,
                   choices=(lrv.MODE_IN_SAMPLE, lrv.MODE_LEARNING))
    p.add_argument("--learning-length", type=int, default=None)
    p.add_argument("--out", default=None, help="write the report as JSON")
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("critval", help="critical values of the limit laws")
    common(p)
    p.add_argument("--kind", required=True, choices=limits.KINDS)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--alpha", default=None, help="comma-separated per-sample scales")
    p.add_argument("--kappa", default=None, help="comma-separated size fractions")
    p.add_argument("--out", default=None, help="write a CSV table")
    p.set_defaults(func=_cmd_critval)

    p = sub.add_parser("experiment", help="run a Monte Carlo size/power study")
    common(p)
    p.add_argument("--replications", type=int, default=1000)
    p.add_argument("--cases", default="I")
    p.add_argument("--dims", default="10")
    p.add_argument("--scenario", default="none", choices=harness.SCENARIOS)
    p.add_argument("--change-times", default="600")
    p.add_argument("--tests", default="q-breve,v-breve")
    p.add_argument("--lrv-mode", default=lrv.MODE_IN_SAMPLE,
                   choices=(lrv.MODE_IN_SAMPLE, lrv.MODE_LEARNING))
    p.add_argument("--learning-length", type=int, default=500)
    p.add_argument("--out-csv", default=None)
    p.add_argument("--out-json", default=None)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (CovCusumError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
