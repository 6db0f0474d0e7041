"""Command-line front end: simulate, test, critval, experiment.

Machine-readable output uses 17 significant digits so that replaying a
printed seed reproduces it byte-identically; human-readable tables use 4.
Exit codes: 0 success, 1 operational error, 2 invalid configuration.

Importing ``covcusum`` loads no layer.  This module loads ``limits``,
``simgen`` and ``sumproc``, all that ``critval`` and ``simulate`` run;
``test`` imports ``cptest`` (and ``lrv``), ``experiment`` ``harness``.

Input files: a sample CSV has one row per time point and one column per
coordinate; a vector file has one value per line.  Blank lines are
skipped, and a first line that is not numeric after any byte-order mark
is a header.  Cells are parsed by numpy; a non-numeric or non-finite
cell, or a row of another width, is refused with ``file:line``, and a
refusal about one sample names its ``--data`` file.  ``--n-rep`` is read
by the ``v`` kinds only.

``test`` streams each ``--data`` file in blocks of ``BLOCK_ROWS`` data
lines, projecting each block as soon as it is parsed, so a sample costs
O(BLOCK_ROWS d + N) memory.  ``sumproc.project`` reduces each row on its
own, so the product series does not depend on the block size.  With
``--workers`` above 1, ``test`` parses up to that many ``--data`` files
at once, each in its own process.  The function that reads a file refuses
it, and refusals come in file order: the numbers and the first refusal are
the same for every worker count.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import os
import random
import sys

import numpy as np

from . import limits, simgen, sumproc
from .errors import ConfigurationError, CovCusumError, IngestionError


# Data lines parsed and projected at a time: a block of a wide sample
# stays near a megabyte, and each block costs one ``np.loadtxt`` call.
BLOCK_ROWS = 64


def _data_lines(fh, linenos):
    """Yield the data lines of ``fh``, recording the physical number of each."""
    for lineno, line in enumerate(fh, start=1):
        line = line.removeprefix("\ufeff") if lineno == 1 else line  # a byte-order mark
        if line.isspace() or (lineno == 1 and not _is_numeric(line)):
            continue
        linenos.append(lineno)
        yield line


def _is_numeric(line):
    try:
        np.loadtxt([line], delimiter=",", comments=None)
    except ValueError:
        return False
    return True


def _row_blocks(path):
    """Successive (rows, d) blocks of a CSV file, refusing bad input with ``file:line``.

    A block holds ``BLOCK_ROWS`` data lines; the last may hold fewer.
    """
    linenos = []
    width = None
    with open(path) as fh:
        lines = _data_lines(fh, linenos)
        # Peek first: loadtxt warns on an empty block.
        for first in lines:
            del linenos[:-1]
            n_cols = first.count(",") + 1  # loadtxt's field count, delimiter "," and no quotes
            if width is not None and n_cols != width:
                raise IngestionError(
                    f"{path}:{linenos[0]}: the number of columns changed from {width} to {n_cols}")
            try:
                block = np.loadtxt(
                    itertools.chain([first], itertools.islice(lines, BLOCK_ROWS - 1)),
                    delimiter=",", ndmin=2, comments=None)
            except ValueError as exc:
                # loadtxt parses each line before pulling the next: the last recorded is bad.
                reason = str(exc).split(" at row")[0]
                raise IngestionError(f"{path}:{linenos[-1]}: {reason}") from exc
            bad = ~np.isfinite(block).all(axis=1)
            if bad.any():
                raise IngestionError(
                    f"{path}:{linenos[int(np.argmax(bad))]}: non-finite value (nan or inf)")
            width = block.shape[1]
            yield block
    if width is None:
        raise IngestionError(f"{path}: no data rows")


def _load_matrix(path):
    """Rows of numbers from a CSV file, refusing bad input with ``file:line``."""
    return np.concatenate(list(_row_blocks(path)))


def _load_vector(path, expected_d):
    values = _load_matrix(path)
    if values.shape[1] != 1:
        raise IngestionError(
            f"{path}: expected one value per line, got {values.shape[1]} columns")
    if len(values) != expected_d:
        raise IngestionError(
            f"{path}: projection vector has length {len(values)}, expected {expected_d}")
    if not values.any():
        raise IngestionError(f"{path}: projection vector must not be all-zero")
    return values[:, 0]


def _sample_products(j, path, pair, learning_length=None):
    """Sample ``j``'s (N,) products through ``pair``, streamed from ``path`` in blocks; refuses
    a width other than ``pair.d``, a non-finite product (by file row) and N <= learning_length."""
    blocks = _row_blocks(path)
    first = next(blocks)
    if first.shape[1] != pair.d:
        raise IngestionError(f"{path}: has {first.shape[1]} columns but first sample has {pair.d}")
    products = np.concatenate(
        [sumproc.project(block, pair) for block in itertools.chain([first], blocks)])
    if not (finite := np.isfinite(products)).all():
        raise CovCusumError(f"{path}: sample {j + 1}: non-finite product at observation "
                            f"{np.argmin(finite) + 1}", sample_index=j)
    if learning_length is not None and learning_length >= len(products):
        raise ConfigurationError(f"{path}: learning_length {learning_length} invalid for sample "
                                 f"{j + 1} of size {len(products)}", sample_index=j)
    return products


def load_bundle(data_paths, v_path, w_path=None, workers=1, learning_length=None):
    """Product series of sample CSVs through vector files, as ``(products, pair)``.

    Each file is streamed through ``sumproc.project`` in blocks, so no
    (N, d) sample is held.  The vectors are read after the first block
    of the first file, which gives d; see the module docstring.  Each
    file is then read and refused by ``_sample_products`` on ``min(workers,
    K)`` processes (``limits.process_map``), in file order: the first
    refusal is that of the first bad file, be it a sample no longer than
    ``learning_length``, and the products are the same for any worker count.
    """
    workers = min(limits.check_workers(workers), len(data_paths))
    d = next(_row_blocks(data_paths[0])).shape[1]
    pair = sumproc.ProjectionPair.from_vectors(
        _load_vector(v_path, d), _load_vector(w_path, d) if w_path else None)
    args = (range(len(data_paths)), data_paths, itertools.repeat(pair),
            itertools.repeat(learning_length))
    with limits.process_map(workers) as map_:
        return list(map_(_sample_products, *args)), pair


# The panel settings ``simulate`` reads from a config file.
CONFIG_KEYS = {f"panel.{name}" for name in
               ("K", "d", "N", "rho0", "rho1", "sigma0", "sigma1", "tau", "burn_in", "seed")}


def parse_config_file(path):
    """Flat key-value config of ``simulate``'s panel settings.

    Lines are ``panel.key = value``; '#' starts a comment; values may be
    comma-separated lists.  A key outside ``CONFIG_KEYS``, or one set
    twice, is refused with ``file:line``.  Returns a flat dict of strings.
    """
    out, set_at = {}, {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ConfigurationError(f"{path}:{lineno}: unknown setting {key!r}")
            if key in set_at:
                raise ConfigurationError(
                    f"{path}:{lineno}: setting {key!r} already set at line {set_at[key]}")
            set_at[key] = lineno
            out[key] = value
    return out


def _number(item, name, kind=float):
    """``item`` as a ``kind``; a malformed item is refused naming setting ``name``."""
    try:
        return kind(item)
    except ValueError:
        raise ConfigurationError(
            f"{name}: {str(item).strip()!r} is not {'an integer' if kind is int else 'a number'}"
        ) from None


def _numbers(text, name, kind=float):
    """The comma-separated items of ``text``, each read by ``_number``."""
    return tuple(_number(x, name, kind) for x in str(text).split(","))


def _spread(text, name, n, kind=float):
    """A comma list as given, or a scalar repeated ``n`` times, each item a ``kind``."""
    return _numbers(text, name, kind) if "," in str(text) else (_number(text, name, kind),) * n


def _resolve_seed(args):
    if args.seed is not None:
        return int(args.seed)
    seed = random.SystemRandom().getrandbits(63)
    print(f"seed: {seed}")
    return seed


def _fmt(x, digits=17):
    return f"{x:.{digits}g}"


# ---------------------------------------------------------------- simulate


def _cmd_simulate(args):
    cfg_values = parse_config_file(args.config) if args.config else {}

    def get(key, fallback=None):
        """Setting ``key`` and the name it came by: its flag, else its config key."""
        flag = getattr(args, key)
        if flag is not None:
            return flag, "--" + key.replace("_", "-")
        return cfg_values.get(f"panel.{key}", fallback), f"panel.{key}"

    K = _number(*get("K", 1), int)
    d = _number(*get("d", 1), int)
    kwargs = dict(K=K, d=d, N=_spread(*get("N", "100"), K, int),
                  rho0=_spread(*get("rho0", "0"), d), sigma0=_spread(*get("sigma0", "1"), K),
                  burn_in=_number(*get("burn_in", simgen.DEFAULT_BURN_IN), int))
    for key, n, kind in (("rho1", d, float), ("sigma1", K, float), ("tau", K, int)):
        text, name = get(key)
        if text is not None:
            kwargs[key] = _spread(text, name, n, kind)

    config = simgen.PanelConfig(**kwargs)  # refused settings draw no seed
    if args.rep < 0:
        raise ConfigurationError(f"reps must be non-negative, got {args.rep}")
    text, name = get("seed")
    seed = _resolve_seed(args) if text is None else _number(text, name, int)
    config = dataclasses.replace(config, seed=seed)
    samples = simgen.gen_ar1_panel(config, rep=args.rep)
    os.makedirs(args.out_dir, exist_ok=True)
    paths = simgen.export_panel_csv(samples, args.out_dir)
    for p in paths:
        print(p)
    return 0


# -------------------------------------------------------------------- test


def _cmd_test(args):
    from . import cptest

    if args.v is None:
        raise ConfigurationError("test requires a projection vector (--v)")
    limits.check_workers(args.workers)
    targets = None if args.targets is None else list(_numbers(args.targets, "--targets"))
    if targets is not None and len(targets) != len(args.data):
        raise ConfigurationError(
            f"--targets: got {len(targets)} values for {len(args.data)} --data files")
    if args.learning_length is not None and args.learning_length < 1:
        raise ConfigurationError(f"--learning-length must be >= 1, got {args.learning_length}")
    spec = cptest.TestSpec(kind=args.kind, level=args.level, targets=targets,
                           n_grid=args.n_grid, n_rep=args.n_rep)  # refused settings draw no seed
    if spec.seed is not None:  # a law that reads no seed draws none
        spec = dataclasses.replace(spec, seed=_resolve_seed(args))
    L = args.learning_length
    products, _ = load_bundle(args.data, args.v, args.w, args.workers, L)
    try:
        learning = None if L is None else [p[:L] for p in products]
        report = cptest.run_test([p[L:] for p in products], spec, learning)
    except CovCusumError as exc:
        if exc.sample_index is None:
            raise
        raise type(exc)(f"{args.data[exc.sample_index]}: {exc}", exc.sample_index) from exc

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
    limits.check_workers(args.workers)
    alpha = _numbers(args.alpha, "--alpha") if args.alpha else None
    kappa = _numbers(args.kappa, "--kappa") if args.kappa else None
    level = limits.check_level(args.level)
    law = limits.NullLaw(args.kind, args.K, args.n_grid, args.n_rep)
    weights = law.weights(alpha, kappa)  # refused: draws no seed
    if law.seed is not None:
        law = dataclasses.replace(law, seed=_resolve_seed(args))
    value = limits.critical_value(law, level, weights)
    print(f"{law.kind} K={law.K} level={level:.4g}: {value:.4g} ({law.method})")
    if args.out:
        # An n_rep or seed that did not enter the value is None: an empty cell.
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["kind", "K", "level", "value", "n_grid", "n_rep", "seed", "method"])
            writer.writerow([law.kind, law.K, _fmt(level), _fmt(value), law.n_grid,
                             law.n_rep, law.seed, law.method])
    return 0


# -------------------------------------------------------------- experiment


def _cmd_experiment(args):
    from . import harness

    cfg = harness.ExperimentConfig(
        replications=args.replications,
        cases=tuple(map(str.strip, args.cases.split(","))),
        dims=_numbers(args.dims, "--dims", int),
        scenario=args.scenario,
        change_times=(None if args.change_times is None
                      else _numbers(args.change_times, "--change-times", int)),
        tests=tuple(map(str.strip, args.tests.split(","))),
        learning_length=args.learning_length,
        level=args.level,
        critval_n_grid=args.n_grid,
        critval_n_rep=args.n_rep,
        workers=args.workers)
    cfg = dataclasses.replace(cfg, seed=_resolve_seed(args))
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
        p.add_argument("--workers", type=int, default=1,
                       help="test: processes parsing --data files at once; experiment: "
                            "processes running a cell's batches at once; critval: "
                            "checked, changes nothing.  A pool of forked processes starts in "
                            "about 15 ms; the numbers are the same for every count")
        p.add_argument("--level", type=float, default=0.95)
        p.add_argument("--n-grid", type=int, default=limits.DEFAULT_N_GRID,
                       help="grid points of the supremum the critical value is for")
        p.add_argument("--n-rep", type=int, default=limits.DEFAULT_N_REP,
                       help="exact draws of the per-sample extrema (v kinds only)")

    p = sub.add_parser("simulate", help="generate a synthetic panel as CSVs")
    seeded(p)
    p.add_argument("--config", default=None, help="key-value config file")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--rep", type=int, default=0)
    for flag in ("K", "d", "rho0", "rho1", "sigma0", "sigma1"):
        p.add_argument(f"--{flag}", default=None)
    p.add_argument("--N", default=None, help="sample size, or comma-separated sizes per sample")
    p.add_argument("--tau", default=None,
                   help="change index, or comma-separated indices per sample")
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
    p.add_argument("--learning-length", type=int, default=None,
                   help="leading rows per sample that estimate the LRV and are not tested")
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
    p.add_argument("--scenario", default="none", choices=simgen.SCENARIOS)
    p.add_argument("--change-times", default=None,
                   help=f"comma-separated change time instants in [1, {simgen.HORIZON}) "
                        f"(change scenarios only; default {simgen.DEFAULT_CHANGE_TIME})")
    p.add_argument("--tests", default="q-breve,v-breve")
    p.add_argument("--learning-length", type=int, default=None,
                   help="time instants of separate learning data that estimate the LRV")
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
