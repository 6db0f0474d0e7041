"""Synthetic K-sample AR(1) panel generation and Dirichlet projection draws.

Each sample j consists of N_j observations of a d-dimensional vector whose
coordinates are AR(1) processes with coordinate-specific coefficients, all
driven by one shared scalar innovation sequence per sample.  An optional
regime switch (AR coefficients and/or innovation scale) can be injected
after a per-sample change index.

All randomness is keyed by (seed, sample index, replication id) through
``numpy.random.SeedSequence`` feeding the counter-based Philox generator,
so independent replications can be generated in any order, on any number
of workers, with identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass
class Panel:
    """K observation matrices (N_j rows, d columns) plus the generating config."""

    samples: list
    config: PanelConfig

    @property
    def K(self):
        return len(self.samples)

    @property
    def sizes(self):
        return tuple(s.shape[0] for s in self.samples)


def sample_rng(seed, sample, rep=0):
    """Deterministic per-(seed, sample, replication) Philox generator."""
    ss = np.random.SeedSequence(int(seed), spawn_key=(int(sample), int(rep)))
    return np.random.Generator(np.random.Philox(ss))


def _ar1_filter(eps, rho, y_prev):
    """Run d AR(1) recursions y_i = rho_v * y_{i-1} + eps_i sharing eps.

    ``y_prev`` is the state before the first innovation.  Returns an
    (len(eps), d) matrix.
    """
    # Imported here: scipy.signal takes most of a second to import, and
    # commands that generate no panel should not pay it.
    from scipy.signal import lfilter

    n = eps.shape[0]
    d = rho.shape[0]
    out = np.empty((n, d))
    for v in range(d):
        zi = np.array([rho[v] * y_prev[v]])
        out[:, v], _ = lfilter([1.0], [1.0, -rho[v]], eps, zi=zi)
    return out


def gen_ar1_panel(config: PanelConfig, rep: int = 0) -> Panel:
    """Generate one panel from ``config``, bit-reproducible for fixed seed.

    One scalar innovation per (sample, time) drives all d coordinates.
    ``rep`` selects an independent replication stream for Monte Carlo use.
    """
    rho0 = np.asarray(config.rho0)
    rho1 = np.asarray(config.rho1) if config.rho1 is not None else rho0
    samples = []
    for j in range(config.K):
        rng = sample_rng(config.seed, j, rep)
        n_obs = config.N[j]
        n_total = config.burn_in + n_obs
        sd = np.full(n_total, config.sigma0[j])
        tau = config.tau[j] if config.tau is not None else None
        if tau is not None and config.sigma1 is not None:
            sd[config.burn_in + tau:] = config.sigma1[j]
        eps = rng.standard_normal(n_total) * sd

        y0 = np.zeros(config.d)
        if tau is None or config.rho1 is None:
            y = _ar1_filter(eps, rho0, y0)
        else:
            # Parameter switch at i = tau + 1; state carries over, no re-burn-in.
            split = config.burn_in + tau
            pre = _ar1_filter(eps[:split], rho0, y0)
            post = _ar1_filter(eps[split:], rho1, pre[-1] if split else y0)
            y = np.vstack([pre, post])
        samples.append(y[config.burn_in:])
    return Panel(samples=samples, config=config)


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


def export_panel_csv(panel: Panel, directory, prefix="sample"):
    """Write one CSV per sample (rows=time, cols=coordinates, no header)."""
    import os

    paths = []
    for j, y in enumerate(panel.samples):
        path = os.path.join(str(directory), f"{prefix}_{j + 1}.csv")
        np.savetxt(path, y, delimiter=",", fmt="%.17g")
        paths.append(path)
    return paths
