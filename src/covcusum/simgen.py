"""Synthetic K-sample AR(1) panel generation and Dirichlet projection draws.

A panel is a list of K sample arrays, one row per time point.  Each
sample j consists of N_j observations of a d-dimensional vector whose
coordinates are AR(1) processes with coordinate-specific coefficients, all
driven by one shared scalar innovation sequence per sample.  An optional
regime switch (AR coefficients and/or innovation scale) can be injected
after a per-sample change index.

Each sample of each replication draws from its own ``limits.stream``,
keyed (sample index, replication id), so independent replications can be
generated in any order, on any number of workers, with identical results.
Settings are read by ``limits``' ``whole_number`` and ``real_vector``: a
bad one is refused, never truncated.

``gen_ar1_blocks`` runs the recursion ``y[t] = rho * y[t-1] + eps[t]``
from rest, one Python loop over time vectorised across (sample,
replication, coordinate), through a caller's block of rows, yielding it
each time it is full.  Every sample starts at row 0, and ``rho`` switches
per sample at ``burn_in + tau``.  One multiply and one add per step is the
exact arithmetic of the order-1 transposed direct-form filter
(``scipy.signal.lfilter``).  ``gen_ar1_panels`` runs many replications in
one block of every row, whose views are its samples; ``gen_ar1_panel`` one.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import limits
from .errors import ConfigurationError, ShapeError

DEFAULT_BURN_IN = 500
# A study spans HORIZON time instants; a scenario names the regime switch (sigma1
# or rho1) injected after a change time instant, DEFAULT_CHANGE_TIME unless given.
HORIZON = 1200
DEFAULT_CHANGE_TIME = 600
SCENARIOS = ("none", "sigma-change", "coefficient-change")


@dataclass(frozen=True)
class PanelConfig:
    """Configuration for one K-sample AR(1) panel, each setting an int or a tuple.

    ``rho0``/``rho1`` are per-coordinate AR coefficients (length d, in
    (-1, 1)), ``sigma0``/``sigma1`` per-sample innovation standard
    deviations (length K, positive), ``tau`` per-sample change indices:
    observation ``tau[j]`` is the last one generated under the pre-change
    regime.
    """

    K: int
    d: int
    N: tuple
    rho0: tuple
    sigma0: tuple
    rho1: Optional[tuple] = None
    sigma1: Optional[tuple] = None
    tau: Optional[tuple] = None
    burn_in: int = DEFAULT_BURN_IN
    seed: int = 0

    def __post_init__(self):
        for name, least, rule in (("K", 1, ">= 1"), ("d", 1, ">= 1"),
                                  ("burn_in", 0, "non-negative")):
            value = limits.whole_number(getattr(self, name), name)
            if value < least:
                raise ConfigurationError(f"{name} must be {rule}, got {value}")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "seed", limits.check_seed(self.seed))
        K, d = self.K, self.d
        for name, length, low, high, rule in (
                ("N", K, 0.0, math.inf, "K positive whole numbers"),
                ("rho0", d, -1.0, 1.0, "d reals in (-1, 1)"),
                ("sigma0", K, 0.0, math.inf, "K positive finite reals"),
                ("rho1", d, -1.0, 1.0, "d reals in (-1, 1)"),
                ("sigma1", K, 0.0, math.inf, "K positive finite reals"),
                ("tau", K, 0.0, math.inf, "K positive whole numbers")):
            value = getattr(self, name)
            if value is not None or name in ("N", "rho0", "sigma0"):  # the change is optional
                value = limits.real_vector(value, length, name, low, high, rule)
                if name in ("N", "tau"):
                    value = tuple(limits.whole_number(v, name) for v in value)
                object.__setattr__(self, name, value)

        if self.tau is not None:
            for j, (t, n) in enumerate(zip(self.tau, self.N)):
                if t > n:
                    raise ConfigurationError(f"tau[{j}]={t} out of range [1, {n}]")
            if self.rho1 is None and self.sigma1 is None:
                raise ConfigurationError("tau given but neither rho1 nor sigma1 present")


def gen_ar1_blocks(config: PanelConfig, reps: Sequence[int], rows: np.ndarray):
    """Fill ``rows``, (B >= 1, K, R, d), with rows of the recursion; yield (s, block) when full.

    The block, ``rows`` or last its head, holds observations s, s + 1, ... (burn-in below 0).
    """
    reps = [limits.whole_number(rep, "reps") for rep in reps]
    if min(reps, default=0) < 0:
        raise ConfigurationError(f"reps must be non-negative, got {min(reps)}")
    if np.shape(rows)[1:] != (config.K, len(reps), config.d) or len(rows) < 1:
        raise ShapeError(f"rows must be (B >= 1, K={config.K}, R={len(reps)}, d={config.d}), "
                         f"got {np.shape(rows)}")
    burn_in = config.burn_in
    T = burn_in + max(config.N)
    eps = np.zeros((T, config.K, len(reps)))
    for j, n in enumerate(config.N):
        sd = np.full(burn_in + n, config.sigma0[j])
        if config.tau is not None and config.sigma1 is not None:
            sd[burn_in + config.tau[j]:] = config.sigma1[j]
        for i, rep in enumerate(reps):
            eps[:len(sd), j, i] = limits.stream(config.seed, j, rep).standard_normal(len(sd)) * sd

    # y[t] = rho * y[t-1] + eps[t]: the arithmetic of an order-1 IIR filter started from rest.
    rho = np.broadcast_to(config.rho0, rows.shape[1:]).copy()  # full: one contiguous multiply
    changes = set(config.tau or ()) if config.rho1 is not None else set()  # where rho switches
    step = np.zeros(rows.shape[1:])  # rho * y[t-1], zero before row 0
    for t0 in range(0, T, len(rows)):
        y = rows[:T - t0]
        y[:] = eps[t0:t0 + len(y), ..., None]  # one broadcast beats a fill per draw
        for i in range(len(y)):
            y[i] += step
            if t0 + i + 1 - burn_in in changes:  # the samples that switch from the next row on
                rho[np.equal(config.tau, t0 + i + 1 - burn_in)] = config.rho1
            np.multiply(rho, y[i], out=step)
        yield t0 - burn_in, y


def gen_ar1_panels(config: PanelConfig, reps: Sequence[int]) -> list:
    """Generate the samples of replications ``reps`` of ``config`` together.

    Returns a batch: one (N_j, R, d) array per sample, R = ``len(reps)``,
    whose ``[:, i]`` is sample j of the panel ``gen_ar1_panel(config,
    reps[i])`` returns.  Each replication draws from its own (seed,
    sample, rep) streams, so how replications are grouped into calls
    never changes a panel.  The recursion fills one (T, K, R, d) block y,
    T = ``burn_in + max(N)``, and sample j is its view ``y[burn_in:burn_in + N_j, j]``.
    """
    reps = list(reps)  # any iterable, read once
    y = np.empty((config.burn_in + max(config.N), config.K, len(reps), config.d))
    next(gen_ar1_blocks(config, reps, y))  # the one block
    return [y[config.burn_in:config.burn_in + n, j] for j, n in enumerate(config.N)]


def gen_ar1_panel(config: PanelConfig, rep: int = 0) -> list:
    """Generate one panel, a list of K samples, bit-reproducible for fixed seed.

    One scalar innovation per (sample, time) drives all d coordinates.
    ``rep`` selects an independent replication stream for Monte Carlo use.
    """
    return [y[:, 0] for y in gen_ar1_panels(config, [rep])]


def gen_dirichlet_projection(d: int, seed: int) -> np.ndarray:
    """Draw a random point on the probability simplex in R^d.

    Concentration parameters are themselves drawn uniformly from [0, 1];
    the vector is Gamma(theta_v, 1) draws normalized by their sum, hence
    non-negative with l1 norm one.
    """
    if (d := limits.whole_number(d, "d")) < 1:
        raise ConfigurationError("d must be >= 1")
    rng = limits.stream(seed)
    theta = rng.uniform(size=d)
    g = rng.gamma(shape=theta)
    total = g.sum()
    if total <= 0.0:  # small-theta draws underflow to 0: 0.13% of all at d = 1,
        return np.full(d, 1.0 / d)  # where [1.0] is also what the draw gives
    return g / total


def ar1_bilinear_target(rho, sigma, v, w) -> float:
    """Stationary value of v' Cov(Y) w for the shared-innovation AR(1) model.

    With one innovation sequence driving all coordinates,
    Cov(Y^(a), Y^(b)) = sigma^2 / (1 - rho_a * rho_b).  ``rho`` holds one or
    more reals in (-1, 1), ``sigma`` is a positive finite real, and ``v``
    and ``w`` hold as many finite reals as ``rho``; anything else is refused
    by name.
    """
    try:
        d = max(len(rho), 1)
    except TypeError:  # a scalar, refused below
        d = 1
    rho = np.array(limits.real_vector(rho, d, "rho", -1.0, 1.0, "one or more reals in (-1, 1)"))
    (sigma,) = limits.real_vector((sigma,), 1, "sigma", 0.0, math.inf, "a positive finite real")
    v, w = (np.array(limits.real_vector(x, d, name, -math.inf, math.inf,
                                        f"as many finite reals as rho ({d})"))
            for x, name in ((v, "v"), (w, "w")))
    cov = sigma ** 2 / (1.0 - np.outer(rho, rho))
    return float(v @ cov @ w)


def export_panel_csv(samples, directory):
    """Write one CSV per sample, sample_<j>.csv (rows=time, cols=coordinates, no header)."""
    paths = []
    for j, y in enumerate(samples):
        path = os.path.join(str(directory), f"sample_{j + 1}.csv")
        np.savetxt(path, y, delimiter=",", fmt="%.17g")
        paths.append(path)
    return paths
