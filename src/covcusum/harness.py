"""Monte Carlo size/power experiments for the change-point tests.

Reproduces the K=4 AR(1) study design at configurable (desk) scale:
four sample-size cases over a horizon of 1200 time instants, per-sample
innovation scales, coordinate-dependent AR coefficients, changes injected
in either the innovation scale or the coefficients after a given time
instant, and long-run variances estimated in-sample or on learning
blocks, whose products go in front of the samples' (``cptest`` splits
them off).

A cell generates its replications in batches through
``simgen.gen_ar1_panels``: replication r is rep 2r of the panel config
and rep 2r + 1 of the learning config, whatever the batch.  A batch holds
as many replications as fit the generator buffers, whose views are the
samples, into ``PANEL_CHUNK_BYTES``: memory is bounded for any count.
The tests, specified once per cell, run once per replication on its
samples projected once through that replication's pair.  Results do not
depend on the batch size.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import cptest, limits, simgen, sumproc
from .errors import ConfigurationError

HORIZON = 1200
CASE_SIZES = {
    "I": (100, 120, 70, 90),
    "II": (300, 250, 350, 180),
    "III": (500, 450, 550, 600),
    "IV": (1000, 900, 1100, 950),
}
DEFAULT_CHANGE_TIME = 600
SIGMA_PRE = (1.0, 1.5, 0.7, 1.0)
SIGMA_POST = (1.0, 0.7, 1.2, 1.0)

# Generator buffer of one batch of replications, (T, K, R, d) float64.
PANEL_CHUNK_BYTES = 16 * 2 ** 20

SCENARIOS = ("none", "sigma-change", "coefficient-change")
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


def change_time_mapping(time_instant: float, rates: Sequence[float],
                        sizes: Sequence[int]) -> tuple:
    """Map a physical change time to per-sample indices floor(omega_j t).

    Clamped into [1, N_j]; a time at the end of the horizon maps to N_j.
    """
    taus = []
    for omega, n in zip(rates, sizes):
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
    critval_n_rep: int = limits.DEFAULT_N_REP
    workers: int = 1

    def __post_init__(self):
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
            if not self.change_times or any(not 1 <= t < HORIZON for t in self.change_times):
                raise ConfigurationError(
                    f"change_times must lie in [1, {HORIZON}), got {self.change_times}")
        for c in self.cases:
            if c not in CASE_SIZES:
                raise ConfigurationError(f"unknown case {c!r}")
        if min(self.dims, default=0) < 1:
            raise ConfigurationError("dims must be >= 1")
        if not self.tests:
            raise ConfigurationError("tests must name at least one kind")
        for t in self.tests:
            if t not in limits.BRIDGE_KINDS:
                raise ConfigurationError(
                    f"experiment supports the target-free kinds, got {t!r}")
            limits.check_settings(t, self.level, self.critval_n_grid, self.critval_n_rep,
                                  self.seed)
        limits._check_workers(self.workers)
        if self.learning_length is not None and self.learning_length < 1:
            raise ConfigurationError("learning_length must be >= 1 time instant")


@dataclass
class CellResult:
    """Rejection rate of one test on one cell.

    ``wall_time`` is the wall time of the whole cell in seconds, shared by
    all its tests: they run on one summary of each replication's panel.
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


def _cell_seed(master_seed, cell_index):
    ss = np.random.SeedSequence(int(master_seed), spawn_key=(int(cell_index),))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _panel_config(case, d, scenario, change_time):
    sizes = CASE_SIZES[case]
    rates = sampling_rates(sizes)
    kwargs = dict(K=4, d=d, N=sizes, rho0=tuple(rho_pre(d)), sigma0=SIGMA_PRE)
    if scenario == "sigma-change":
        kwargs.update(sigma1=SIGMA_POST,
                      tau=change_time_mapping(change_time, rates, sizes))
    elif scenario == "coefficient-change":
        kwargs.update(rho1=tuple(rho_post(d)),
                      tau=change_time_mapping(change_time, rates, sizes))
    return kwargs


def _learning_sizes(case, cfg):
    rates = sampling_rates(CASE_SIZES[case])
    return tuple(max(int(math.floor(omega * cfg.learning_length)), 4)
                 for omega in rates)


def _panels(panel_cfg, learning_cfg, n, d, seed):
    """Yield the product panel of each replication r < n, generated in batches.

    Replication r's samples are rep 2r of ``panel_cfg``, and its learning
    blocks, if there is a ``learning_cfg``, rep 2r + 1 of that.  Both are
    projected through r's own Dirichlet pair, learning products in front.
    A batch holds as many replications as fit PANEL_CHUNK_BYTES of
    generator buffer, and is released before the next is generated.
    """
    configs = [c for c in (panel_cfg, learning_cfg) if c is not None]
    per_rep = sum(8 * c.K * c.d * (c.burn_in + max(c.N)) for c in configs)
    chunk = max(1, PANEL_CHUNK_BYTES // per_rep)
    for first in range(0, n, chunk):
        block = range(first, min(first + chunk, n))
        panels = simgen.gen_ar1_panels(panel_cfg, [2 * r for r in block])
        learning = ([None] * len(block) if learning_cfg is None
                    else simgen.gen_ar1_panels(learning_cfg, [2 * r + 1 for r in block]))
        for r, samples, blocks in zip(block, panels, learning):
            w = simgen.gen_dirichlet_projection(d, _cell_seed(seed, r + 1))
            pair = sumproc.ProjectionPair.from_vectors(w)
            products = [sumproc.project(y, pair) for y in samples]
            if blocks is not None:
                products = [np.concatenate([sumproc.project(b, pair), p])
                            for b, p in zip(blocks, products)]
            yield products
        del panels, learning, samples, blocks


def run_cell(case, d, change_time, cfg: ExperimentConfig, cell_index):
    """Run every test of ``cfg`` on one cell; ``change_time`` is None under ``none``."""
    t0 = time.perf_counter()
    seed = _cell_seed(cfg.seed, cell_index)
    base_kwargs = _panel_config(case, d, cfg.scenario, change_time)
    panel_cfg = simgen.PanelConfig(seed=seed, **base_kwargs)
    learning_sizes = learning_cfg = None
    if cfg.learning_length is not None:
        learning_sizes = _learning_sizes(case, cfg)
        learning_cfg = simgen.PanelConfig(
            K=4, d=d, N=learning_sizes,
            rho0=base_kwargs["rho0"], sigma0=SIGMA_PRE, seed=seed)

    specs = [cptest.TestSpec(kind=t, level=cfg.level, n_grid=cfg.critval_n_grid,
                             n_rep=cfg.critval_n_rep, seed=seed)
             for t in cfg.tests]
    rejections = {t: 0 for t in cfg.tests}
    for panel in _panels(panel_cfg, learning_cfg, cfg.replications, d, seed):
        reports = cptest.run_tests(panel, specs, learning_length=learning_sizes,
                                   workers=cfg.workers)
        for t, report in zip(cfg.tests, reports):
            rejections[t] += int(report.reject)

    wall_time = time.perf_counter() - t0
    results = []
    n = cfg.replications
    for t in cfg.tests:
        p = rejections[t] / n
        results.append(CellResult(
            case=case, d=d, scenario=cfg.scenario, change_time=change_time,
            test=t, lrv_mode=MODE_IN_SAMPLE if cfg.learning_length is None else MODE_LEARNING,
            rate=p, stderr=math.sqrt(p * (1 - p) / n),
            n_rep=n, wall_time=wall_time, seed=seed))
    return results


def run_experiment(cfg: ExperimentConfig):
    """Run the full grid of cells; deterministic for a fixed master seed.

    Each cell draws from its own seed stream, so adding or removing cells
    never perturbs the others.
    """
    cells = itertools.product(cfg.cases, cfg.dims, cfg.change_times or (None,))
    return [row for i, (case, d, ct) in enumerate(cells)
            for row in run_cell(case, d, ct, cfg, i)]


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
