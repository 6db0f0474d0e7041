"""Synthetic K-sample AR(1) panel generation and Dirichlet projection draws.

A panel is a list of K sample arrays, one row per time point.  Each
sample j consists of N_j observations of a d-dimensional vector whose
coordinates are AR(1) processes with coordinate-specific coefficients, all
driven by one shared scalar innovation sequence per sample.  An optional
regime switch (AR coefficients and/or innovation scale) can be injected
after a per-sample change index.

All randomness is keyed by (seed, sample index, replication id) through
``numpy.random.SeedSequence`` feeding the counter-based Philox generator,
so independent replications can be generated in any order, on any number
of workers, with identical results.

``gen_ar1_panels`` generates the panels of many replications in one
batch.  It runs the plain recursion ``y[t] = rho * y[t-1] + eps[t]`` from
rest as one Python loop over time, vectorised across (sample,
replication, coordinate), in one buffer whose views are the samples.
The K samples are aligned at their last row; the rows before a sample
starts hold zeros, which the recursion keeps exactly zero, and ``rho``
switches per sample at ``burn_in + tau``.  One multiply and one add per
step is the exact arithmetic of the order-1 transposed direct-form filter
(``scipy.signal.lfilter``), which earlier versions ran per sample and
coordinate: panels are bitwise the same.
``gen_ar1_panel`` is the batch of one replication.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError

DEFAULT_BURN_IN = 500


def _as_float_vector(x, length, name):
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1 or arr.size != length:
        raise ConfigurationError(f"{name} must have length {length}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True)
class PanelConfig:
    """Configuration for one K-sample AR(1) panel.

    ``rho0``/``rho1`` are per-coordinate AR coefficients (length d),
    ``sigma0``/``sigma1`` per-sample innovation standard deviations
    (length K), ``tau`` per-sample change indices: observation ``tau[j]``
    is the last one generated under the pre-change regime.
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
        if self.K < 1:
            raise ConfigurationError("K must be >= 1")
        if self.d < 1:
            raise ConfigurationError("d must be >= 1")
        N = tuple(int(n) for n in np.atleast_1d(self.N))
        if len(N) != self.K or any(n < 1 for n in N):
            raise ConfigurationError(f"N must be {self.K} positive integers, got {self.N}")
        object.__setattr__(self, "N", N)

        rho0 = _as_float_vector(self.rho0, self.d, "rho0")
        if np.any(np.abs(rho0) >= 1.0):
            raise ConfigurationError("rho0 entries must satisfy |rho| < 1")
        object.__setattr__(self, "rho0", tuple(rho0))

        sigma0 = _as_float_vector(self.sigma0, self.K, "sigma0")
        if np.any(sigma0 <= 0.0):
            raise ConfigurationError("sigma0 entries must be strictly positive")
        object.__setattr__(self, "sigma0", tuple(sigma0))

        if self.rho1 is not None:
            rho1 = _as_float_vector(self.rho1, self.d, "rho1")
            if np.any(np.abs(rho1) >= 1.0):
                raise ConfigurationError("rho1 entries must satisfy |rho| < 1")
            object.__setattr__(self, "rho1", tuple(rho1))
        if self.sigma1 is not None:
            sigma1 = _as_float_vector(self.sigma1, self.K, "sigma1")
            if np.any(sigma1 <= 0.0):
                raise ConfigurationError("sigma1 entries must be strictly positive")
            object.__setattr__(self, "sigma1", tuple(sigma1))

        if self.tau is not None:
            tau = tuple(int(t) for t in np.atleast_1d(self.tau))
            if len(tau) != self.K:
                raise ConfigurationError(f"tau must have length {self.K}")
            for j, t in enumerate(tau):
                if not 1 <= t <= self.N[j]:
                    raise ConfigurationError(
                        f"tau[{j}]={t} out of range [1, {self.N[j]}]"
                    )
            if self.rho1 is None and self.sigma1 is None:
                raise ConfigurationError("tau given but neither rho1 nor sigma1 present")
            object.__setattr__(self, "tau", tau)

        if self.burn_in < 0:
            raise ConfigurationError("burn_in must be non-negative")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")


def sample_rng(seed, sample, rep=0):
    """Deterministic per-(seed, sample, replication) Philox generator."""
    ss = np.random.SeedSequence(int(seed), spawn_key=(int(sample), int(rep)))
    return np.random.Generator(np.random.Philox(ss))


def gen_ar1_panels(config: PanelConfig, reps: Sequence[int]) -> list:
    """Generate the panels of replications ``reps`` of ``config`` together.

    A panel is a list of K (N_j, d) sample arrays.  Panel ``i`` holds the
    values ``gen_ar1_panel(config, reps[i])`` returns:
    each replication draws from its own (seed, sample, rep) streams, so
    how replications are grouped into calls never changes a panel.  One
    step of the recursion updates every (sample, replication, coordinate)
    at once in a (T, K, R, d) buffer y, T = ``burn_in + max(N)`` and
    R = ``len(reps)``; callers bound its size by choosing R.  Sample j of
    panel i is the view ``y[T - N_j:, j, i]``, not a copy.
    """
    if min(reps, default=0) < 0:
        raise ConfigurationError(f"reps must be non-negative, got {min(reps)}")
    K, d, burn_in = config.K, config.d, config.burn_in
    R = len(reps)
    totals = [burn_in + n for n in config.N]
    T = max(totals)
    starts = [T - n for n in totals]  # samples are aligned at their last row

    eps = np.zeros((K, R, T))
    for j in range(K):
        sd = np.full(totals[j], config.sigma0[j])
        if config.tau is not None and config.sigma1 is not None:
            sd[burn_in + config.tau[j]:] = config.sigma1[j]
        for i, rep in enumerate(reps):
            draws = sample_rng(config.seed, j, rep).standard_normal(totals[j])
            eps[j, i, starts[j]:] = draws * sd

    # y[t] = rho * y[t-1] + eps[t]: the arithmetic of an order-1 IIR filter
    # started from rest, so rows before a sample's start stay exactly zero.
    y = np.empty((T, K, R, d))
    y[:] = eps.transpose(2, 0, 1)[..., None]  # one broadcast beats a fill per draw
    rho = np.empty((K, R, d))  # full shape: each step is one contiguous multiply
    rho[:] = np.asarray(config.rho0)
    switch = {}  # row -> samples whose coefficients change from that row on
    if config.tau is not None and config.rho1 is not None:
        for j in range(K):
            switch.setdefault(starts[j] + burn_in + config.tau[j], []).append(j)
    step = np.empty((K, R, d))
    for t in range(1, T):
        for j in switch.get(t, ()):
            rho[j] = config.rho1
        np.multiply(rho, y[t - 1], out=step)
        y[t] += step
    return [[y[T - n:, j, i] for j, n in enumerate(config.N)] for i in range(R)]


def gen_ar1_panel(config: PanelConfig, rep: int = 0) -> list:
    """Generate one panel, a list of K samples, bit-reproducible for fixed seed.

    One scalar innovation per (sample, time) drives all d coordinates.
    ``rep`` selects an independent replication stream for Monte Carlo use.
    """
    return gen_ar1_panels(config, [rep])[0]


def gen_dirichlet_projection(d: int, seed: int) -> np.ndarray:
    """Draw a random point on the probability simplex in R^d.

    Concentration parameters are themselves drawn uniformly from [0, 1];
    the vector is Gamma(theta_v, 1) draws normalized by their sum, hence
    non-negative with l1 norm one.
    """
    if d < 1:
        raise ConfigurationError("d must be >= 1")
    if d == 1:
        return np.ones(1)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
    theta = rng.uniform(size=d)
    g = rng.gamma(shape=theta)
    total = g.sum()
    if total <= 0.0:  # all-zero draw has probability zero but guard anyway
        return np.full(d, 1.0 / d)
    return g / total


def ar1_bilinear_target(rho, sigma, v, w) -> float:
    """Stationary value of v' Cov(Y) w for the shared-innovation AR(1) model.

    With one innovation sequence driving all coordinates,
    Cov(Y^(a), Y^(b)) = sigma^2 / (1 - rho_a * rho_b).
    """
    rho = np.asarray(rho, dtype=float)
    cov = sigma ** 2 / (1.0 - np.outer(rho, rho))
    return float(np.asarray(v) @ cov @ np.asarray(w))


def export_panel_csv(samples, directory, prefix="sample"):
    """Write one CSV per sample (rows=time, cols=coordinates, no header)."""
    import os

    paths = []
    for j, y in enumerate(samples):
        path = os.path.join(str(directory), f"{prefix}_{j + 1}.csv")
        np.savetxt(path, y, delimiter=",", fmt="%.17g")
        paths.append(path)
    return paths
