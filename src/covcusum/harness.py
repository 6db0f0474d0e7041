"""Monte Carlo size/power experiments for the change-point tests.

Reproduces the K=4 AR(1) study design at configurable (desk) scale:
four sample-size cases over a horizon of 1200 time instants, per-sample
innovation scales, coordinate-dependent AR coefficients, changes injected
in either the innovation scale or the coefficients after a given time
instant, and long-run variances estimated in-sample or on learning
blocks of their own.

A cell generates its replications in batches through
``simgen.gen_ar1_blocks``: replication r is rep 2r of the panel config
and rep 2r + 1 of the learning config, whatever the batch.  Each sample's
rows are projected as a small block of the recursion makes them, every
replication through its own pair, into an (R, N_j) or (R, L_j) array.
``PANEL_CHUNK_BYTES`` bounds memory for any count and any d.  The tests,
specified once per cell, run on the whole batch at once
(``cptest.run_batch``).  A batch is one task: a cell adds up the
rejections of its batches, run on one pool of forked processes for the
grid (``limits.process_map``), and on none for a grid of one-batch cells.
Results do not depend on the batch or block size or the worker count.
A cell's configs and its batch size come from one place, ``_cell_configs``.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import cptest, limits, simgen, sumproc
from .errors import ConfigurationError
from .simgen import DEFAULT_CHANGE_TIME, HORIZON, SCENARIOS

CASE_SIZES = {
    "I": (100, 120, 70, 90),
    "II": (300, 250, 350, 180),
    "III": (500, 450, 550, 600),
    "IV": (1000, 900, 1100, 950),
}
SIGMA_PRE = (1.0, 1.5, 0.7, 1.0)
SIGMA_POST = (1.0, 0.7, 1.2, 1.0)

# Bounds a batch's innovations, products and state, and separately its row block, at any d.
PANEL_CHUNK_BYTES = 4 * 2 ** 20

MODE_IN_SAMPLE = "in-sample"
MODE_LEARNING = "learning-sample"


def rho_pre(d: int) -> np.ndarray:
    """Pre-change AR coefficients 0.1 + 0.5 v / d for v = 1..d."""
    return 0.1 + 0.5 * np.arange(1, d + 1) / d


def rho_post(d: int) -> np.ndarray:
    """Post-change AR coefficients 0.4 + 0.5 v / d for v = 1..d."""
    return 0.4 + 0.5 * np.arange(1, d + 1) / d


def sampling_rates(sizes: Sequence[int]) -> tuple:
    """Per-sample rates omega_j = N_j / T implied by the sizes."""
    return tuple(n / HORIZON for n in sizes)


def change_time_mapping(time_instant: float, sizes: Sequence[int]) -> tuple:
    """Map a physical change time to per-sample indices floor(omega_j t).

    omega_j = N_j / HORIZON (``sampling_rates``), so a sample larger than
    the horizon is refused.  Clamped into [1, N_j]; a time at the end of
    the horizon maps to N_j.
    """
    taus = []
    for omega, n in zip(sampling_rates(sizes), sizes):
        if not 0.0 < omega <= 1.0:
            raise ConfigurationError(f"sampling rate {omega} outside (0, 1]")
        tau = int(math.floor(omega * time_instant))
        taus.append(min(max(tau, 1), n))
    return tuple(taus)


@dataclass
class ExperimentConfig:
    replications: int = 1000
    cases: tuple = ("I",)
    dims: tuple = (10,)
    scenario: str = "none"
    change_times: Optional[tuple] = None  # time instants; None: DEFAULT_CHANGE_TIME
    tests: tuple = limits.BRIDGE_KINDS
    learning_length: Optional[int] = None  # time instants; None: in-sample
    level: float = 0.95
    seed: int = 0
    critval_n_grid: int = limits.DEFAULT_N_GRID
    critval_n_rep: Optional[int] = limits.DEFAULT_N_REP  # None unless a v kind reads it
    workers: int = 1

    def __post_init__(self):
        for name in ("cases", "dims", "change_times", "tests"):  # not read one character a time
            if isinstance(value := getattr(self, name), str):
                raise ConfigurationError(f"{name} must be a sequence, not the string {value!r}")
        self.replications = limits.whole_number(self.replications, "replications")
        if self.replications < 1:
            raise ConfigurationError("replications must be >= 1")
        if self.scenario not in SCENARIOS:
            raise ConfigurationError(f"unknown scenario {self.scenario!r}")
        if self.scenario == "none":
            if self.change_times is not None:
                raise ConfigurationError("change_times apply to the change scenarios only")
        else:
            if self.change_times is None:
                self.change_times = (DEFAULT_CHANGE_TIME,)
            self.change_times = tuple(limits.whole_number(t, "change_times")
                                      for t in self.change_times)
            if not self.change_times or any(not 1 <= t < HORIZON for t in self.change_times):
                raise ConfigurationError(
                    f"change_times must lie in [1, {HORIZON}), got {self.change_times}")
        if not self.cases:
            raise ConfigurationError("cases must name at least one case")
        for c in self.cases:
            if c not in CASE_SIZES:
                raise ConfigurationError(f"unknown case {c!r}")
        self.dims = tuple(limits.whole_number(d, "dims") for d in self.dims)
        if min(self.dims, default=0) < 1:
            raise ConfigurationError("dims must be >= 1")
        if not self.tests:
            raise ConfigurationError("tests must name at least one kind")
        if bad := [t for t in self.tests if t not in limits.BRIDGE_KINDS]:
            raise ConfigurationError(f"experiment supports the target-free kinds, got {bad[0]!r}")
        specs = [cptest.TestSpec(t, self.level, n_grid=self.critval_n_grid,
                                 n_rep=self.critval_n_rep) for t in self.tests]
        self.level, self.critval_n_grid = specs[0].level, specs[0].n_grid
        self.critval_n_rep = next((s.n_rep for s in specs if s.n_rep is not None), None)
        self.seed = limits.check_seed(self.seed)  # it drives the panels, whatever the kinds
        for name in ("cases", "dims", "change_times", "tests"):  # no cell or rate twice
            values = getattr(self, name) or ()
            if twice := [v for i, v in enumerate(values) if v in values[:i]]:
                raise ConfigurationError(f"{name} name {twice[0]!r} twice")
        self.workers = limits.check_workers(self.workers)
        if self.learning_length is not None:
            self.learning_length = limits.whole_number(self.learning_length, "learning_length")
            if self.learning_length < 1:
                raise ConfigurationError("learning_length must be >= 1 time instant")


@dataclass
class CellResult:
    """Rejection rate of one test on one cell.

    ``wall_time`` is the wall time of the whole cell in seconds, shared by
    all its tests: they run on one summary of each batch of panels.
    """

    case: str
    d: int
    scenario: str
    change_time: Optional[int]
    test: str
    lrv_mode: str
    rate: float
    stderr: float
    n_rep: int
    wall_time: float
    seed: int


def _cell_configs(case, d, change_time, cfg, cell_index):
    """A cell's panel configs on its seed, the tested one first and the learning one last if
    any, and its replications per batch: ``PANEL_CHUNK_BYTES`` over one replication's share."""
    sizes = CASE_SIZES[case]
    common = dict(K=4, d=d, rho0=tuple(rho_pre(d)), sigma0=SIGMA_PRE,
                  seed=limits.child_seed(cfg.seed, cell_index))
    change = {}
    if cfg.scenario == "sigma-change":
        change = dict(sigma1=SIGMA_POST, tau=change_time_mapping(change_time, sizes))
    elif cfg.scenario == "coefficient-change":
        change = dict(rho1=tuple(rho_post(d)), tau=change_time_mapping(change_time, sizes))
    configs = [simgen.PanelConfig(N=sizes, **common, **change)]
    if cfg.learning_length is not None:
        learning_sizes = tuple(max(int(math.floor(omega * cfg.learning_length)), 4)
                               for omega in sampling_rates(sizes))
        configs.append(simgen.PanelConfig(N=learning_sizes, **common))
    per_rep = sum(8 * (c.K * (c.burn_in + max(c.N) + 4 * c.d) + sum(c.N)) for c in configs)
    return configs, max(1, PANEL_CHUNK_BYTES // per_rep)


def _batch(configs, block):
    """The products of the replications of ``block``, a range of them, in a cell of ``configs``.

    Replication r is rep 2r of the tested config and rep 2r + 1 of the learning
    config, if any, projected through r's own pair: one (R, N_j) array per sample
    and one (R, L_j) array per learning block or None.  Per sample, it holds T
    innovations, N_j products and 4 d of state (rho, step, a row, the pair); a
    row block takes a quarter of the budget.
    """
    d, seed = configs[0].d, configs[0].seed
    pair = sumproc.ProjectionPair.from_vectors(np.stack(
        [simgen.gen_dirichlet_projection(d, limits.child_seed(seed, r + 1)) for r in block]))
    products = [[np.empty((len(block), m)) for m in c.N] for c in configs]
    for i, c in enumerate(configs):
        rows = np.empty((min(max(1, PANEL_CHUNK_BYTES // (32 * c.K * len(block) * d)),
                             c.burn_in + max(c.N)), c.K, len(block), d))
        for s, y in simgen.gen_ar1_blocks(c, [2 * r + i for r in block], rows):
            for j, m in enumerate(c.N):
                lo, hi = max(s, 0), min(s + len(y), m)
                if lo < hi:
                    products[i][j][:, lo:hi] = sumproc.project(y[lo - s:hi - s, j], pair)
    return products[0], products[1] if len(configs) > 1 else None


def _rejections(configs, specs, block):
    """Rejections of each of ``specs`` among the replications ``block`` of a cell, one batch."""
    batch, learning = _batch(configs, block)
    return [int(np.count_nonzero(r.reject)) for r in cptest.run_batch(batch, specs, learning)]


def run_cell(case, d, change_time, cfg: ExperimentConfig, cell_index, map_=map):
    """Run every test of ``cfg`` on one cell, its batches through ``map_``; ``change_time``
    is None under ``none``."""
    t0 = time.perf_counter()
    configs, size = _cell_configs(case, d, change_time, cfg, cell_index)
    seed = configs[0].seed
    specs = [cptest.TestSpec(kind=t, level=cfg.level, n_grid=cfg.critval_n_grid,
                             n_rep=cfg.critval_n_rep, seed=seed) for t in cfg.tests]
    n = cfg.replications
    batches = map_(functools.partial(_rejections, configs, specs),
                   (range(a, min(a + size, n)) for a in range(0, n, size)))
    rejections = [sum(counts) for counts in zip(*batches)]

    wall_time = time.perf_counter() - t0
    results = []
    for t, r in zip(cfg.tests, rejections):
        p = r / n
        results.append(CellResult(
            case=case, d=d, scenario=cfg.scenario, change_time=change_time,
            test=t, lrv_mode=MODE_IN_SAMPLE if cfg.learning_length is None else MODE_LEARNING,
            rate=p, stderr=math.sqrt(p * (1 - p) / n),
            n_rep=n, wall_time=wall_time, seed=seed))
    return results


def run_experiment(cfg: ExperimentConfig):
    """Run the full grid of cells; the same grid and master seed give the same rows.

    Cell i draws from ``child_seed(seed, i)``, i its place in (cases x dims x
    change times) order, so cells appended after the last leave the earlier rows
    unchanged.  The grid's one pool has ``workers`` processes, or fewer if no
    cell has that many batches, and is none if that is one; its processes take
    the next batch as they finish one.  The rows are the same.
    """
    cells = list(enumerate(itertools.product(cfg.cases, cfg.dims, cfg.change_times or (None,))))
    batches = max(-(-cfg.replications // _cell_configs(case, d, ct, cfg, i)[1])
                  for i, (case, d, ct) in cells)
    with limits.process_map(min(cfg.workers, batches)) as map_:
        return [row for i, (case, d, ct) in cells for row in run_cell(case, d, ct, cfg, i, map_)]


def results_to_csv(results, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["case", "d", "scenario", "change_time", "test",
                         "lrv_mode", "rate", "stderr", "n_rep", "wall_time", "seed"])
        for r in results:
            writer.writerow([r.case, r.d, r.scenario,
                             "" if r.change_time is None else r.change_time,
                             r.test, r.lrv_mode,
                             f"{r.rate:.17g}", f"{r.stderr:.17g}",
                             r.n_rep, f"{r.wall_time:.3f}", r.seed])


def results_to_json(results, path):
    with open(path, "w") as fh:
        json.dump([r.__dict__ for r in results], fh, indent=2)
