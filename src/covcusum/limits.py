"""Limit distributions and critical values of the four null functionals.

Closed-form series for the suprema of |Brownian motion| and |Brownian
bridge| on [0, 1] give the critical values of the sum-of-squares kinds
``q`` and ``q-breve`` without simulation: their null law is the K-fold
convolution of one data-free law, sup|B|^2 or sup|bridge|^2.  The paper's
statistics take the supremum over a grid of ``n_grid`` points, which sits
below the continuous one by about beta / sqrt(n_grid) with
beta = -zeta(1/2) / sqrt(2 pi) (Broadie, Glasserman & Kou 1997, Math.
Finance 7:325), so the law used is that of (sup - beta / sqrt(n_grid))^2.
These values depend on (kind, K, level, n_grid) only; method "corrected".

The pooled kinds ``v`` and ``v-breve`` weight the samples by the data, so
they are simulated (method "mc").  Their K-dimensional grid suprema
separate per coordinate, so the simulation only needs the per-path
extrema of each independent motion/bridge, drawn on a pool of ``workers``
threads with the same numbers for any worker count.

This module owns every memo of a critical value, and both are exact:
``_corrected_quantile`` is memoized on its arguments, and the most recent
few extrema simulations on (K, n_grid, n_rep, seed).  The data-dependent
weights of the v kinds are applied afresh on each request, which is cheap.
Callers ask ``critical_value`` and keep no cache of their own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError

KINDS = ("q", "v", "q-breve", "v-breve")
DEFAULT_N_GRID = 2000
DEFAULT_N_REP = 100_000
_BLOCK = 2048
# Rows of a block simulated at a time, so a block never holds an
# n_block x n_grid matrix.
_CHUNK = 64
_EXTREMA_CACHE_SIZE = 4

_SERIES_TOL = 1e-14

CORRECTED_KINDS = ("q", "q-breve")
# -zeta(1/2) / sqrt(2 pi): the grid maximum of a Brownian motion with n
# steps sits this many multiples of 1/sqrt(n) below the continuous one.
BGK_BETA = 0.5825971579390106
# Step of the y-grid on which the one-sample law is tabulated, and the
# mass the table may leave out beyond its end.
_TABLE_STEP = 1e-3
_TABLE_TAIL = 1e-13


def sup_abs_bm_cdf(y: float) -> float:
    """P(sup_{[0,1]} |B|^2 <= y) for standard Brownian motion.

    Alternating reflection series, evaluated until terms drop below 1e-14.
    The argument is the bound on the squared supremum.
    """
    if y < 0.0:
        raise ValueError(f"argument must be non-negative, got {y}")
    if y == 0.0:
        return 0.0
    total = 0.0
    l = 0
    while True:
        term = (-1.0) ** l / (2 * l + 1) * math.exp(-((2 * l + 1) ** 2) * math.pi ** 2 / (8.0 * y))
        total += term
        if abs(term) < _SERIES_TOL:
            break
        l += 1
    return min(max(4.0 / math.pi * total, 0.0), 1.0)


def sup_abs_bb_cdf(y: float) -> float:
    """P(sup_{[0,1]} |bridge|^2 <= y), the Kolmogorov law in squared form."""
    if y <= 0.0:
        raise ValueError(f"argument must be positive, got {y}")
    total = 0.0
    l = 1
    while True:
        term = math.exp(-((2 * l - 1) ** 2) * math.pi ** 2 / (8.0 * y))
        total += term
        if term < _SERIES_TOL:
            break
        l += 1
    return min(math.sqrt(2.0 * math.pi / y) * total, 1.0)


def _series_terms(y_max: float) -> int:
    # Enough terms that the first one left out, exp(-(2l+1)^2 pi^2 / (8 y)),
    # is below exp(-40) for every argument up to y_max.
    return int(math.sqrt(320.0 * y_max) / math.pi) // 2 + 2


def _sup_abs_bm_cdf_array(y: np.ndarray) -> np.ndarray:
    """``sup_abs_bm_cdf`` for an array of positive arguments."""
    y = np.asarray(y, dtype=float)
    total = np.zeros_like(y)
    for l in range(_series_terms(float(y.max()))):
        total += (-1.0) ** l / (2 * l + 1) * np.exp(-((2 * l + 1) ** 2) * math.pi ** 2 / (8.0 * y))
    return np.clip(4.0 / math.pi * total, 0.0, 1.0)


def _sup_abs_bb_cdf_array(y: np.ndarray) -> np.ndarray:
    """``sup_abs_bb_cdf`` for an array of positive arguments."""
    y = np.asarray(y, dtype=float)
    total = np.zeros_like(y)
    for l in range(1, _series_terms(float(y.max())) + 1):
        total += np.exp(-((2 * l - 1) ** 2) * math.pi ** 2 / (8.0 * y))
    return np.minimum(np.sqrt(2.0 * math.pi / y) * total, 1.0)


def _table_end(kind: str) -> float:
    """A bound y on sup^2 with P(sup^2 > y) <= _TABLE_TAIL.

    P(sup|B| > x) <= 4 P(B(1) > x) <= 4 phi(x) for x >= 1 (reflection), and
    P(sup|bridge| > x) <= 2 exp(-2 x^2) (first term of the alternating
    Kolmogorov series).
    """
    if kind == "q":
        return 2.0 * math.log(4.0 / (math.sqrt(2.0 * math.pi) * _TABLE_TAIL))
    return math.log(2.0 / _TABLE_TAIL) / 2.0


def _one_sample_table(kind: str, n_grid: int, step: float) -> np.ndarray:
    """P(X <= i * step) for i = 0..n, X = max(sup - beta/sqrt(n_grid), 0)^2."""
    cdf = _sup_abs_bm_cdf_array if kind == "q" else _sup_abs_bb_cdf_array
    n = math.ceil(_table_end(kind) / step)
    shift = BGK_BETA / math.sqrt(n_grid)
    return cdf((np.sqrt(np.arange(n + 1) * step) + shift) ** 2)


@functools.lru_cache(maxsize=64)
def _corrected_quantile(kind: str, K: int, level: float, n_grid: int,
                        step: float = _TABLE_STEP) -> float:
    """Level-quantile of the sum of K independent copies of X.

    X is the one-sample law of ``_one_sample_table``.  Its cell masses on
    the y-grid are convolved K-fold by FFT, exactly (the transform is long
    enough that nothing wraps around).  A sum of K cell indices m stands
    for the interval of sums around (m + (K + 1) / 2) * step, where the
    cumulative mass through m is placed; the quantile interpolates
    linearly between those points.  The result does not depend on any
    seed or replication count; it is memoized on the exact arguments.
    """
    cdf = _one_sample_table(kind, n_grid, step)
    mass = np.diff(cdf)
    mass[0] += cdf[0]
    n_sum = K * (len(mass) - 1) + 1
    n_fft = 1 << (n_sum - 1).bit_length()
    sum_mass = np.fft.irfft(np.fft.rfft(mass, n_fft) ** K, n_fft)[:n_sum]
    sum_cdf = np.cumsum(np.maximum(sum_mass, 0.0))
    m = int(np.searchsorted(sum_cdf, level))
    if not 0 < m < n_sum:
        raise ConfigurationError(f"level {level} is beyond the tabulated law")
    lo, hi = sum_cdf[m - 1], sum_cdf[m]
    return float(step * (m - 1 + (K + 1) / 2 + (level - lo) / (hi - lo)))


def method_of(kind: str) -> str:
    """How ``critical_value`` obtains the value for ``kind``."""
    return "corrected" if kind in CORRECTED_KINDS else "mc"


@dataclass(frozen=True)
class CritValRequest:
    kind: str
    K: int
    level: float
    alpha_weights: Optional[tuple] = None
    kappa: Optional[tuple] = None
    n_grid: int = DEFAULT_N_GRID
    n_rep: int = DEFAULT_N_REP
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown statistic kind {self.kind!r}")
        if self.K < 1:
            raise ConfigurationError("K must be >= 1")
        if not 0.0 < self.level < 1.0:
            raise ConfigurationError(f"level must be in (0, 1), got {self.level}")
        if self.n_grid < 100:
            raise ConfigurationError("n_grid must be >= 100")
        if method_of(self.kind) == "mc" and self.n_rep < 1000:
            raise ConfigurationError("n_rep must be >= 1000")
        if self.alpha_weights is not None:
            aw = tuple(float(a) for a in np.atleast_1d(self.alpha_weights))
            if len(aw) != self.K or any(a <= 0 for a in aw):
                raise ConfigurationError("alpha_weights must be K positive reals")
            object.__setattr__(self, "alpha_weights", aw)
        if self.kappa is not None:
            kp = tuple(float(k) for k in np.atleast_1d(self.kappa))
            if len(kp) != self.K or any(k <= 0 for k in kp):
                raise ConfigurationError("kappa must be K positive reals")
            if sum(kp) > 1.0 + 1e-9:
                raise ConfigurationError("kappa entries must sum to at most 1")
            object.__setattr__(self, "kappa", kp)


@dataclass
class PathExtrema:
    """Per-replication, per-sample extrema of B and its bridge on [0, 1].

    Arrays have shape (n_rep, K).  These are sufficient for every grid
    supremum used here: sup |B| = max(bm_max, -bm_min) and the pooled
    supremum of a positively weighted sum separates per coordinate.
    """

    bm_max: np.ndarray
    bm_min: np.ndarray
    bb_max: np.ndarray
    bb_min: np.ndarray
    n_grid: int
    seed: int

    @property
    def n_rep(self):
        return self.bm_max.shape[0]

    @property
    def K(self):
        return self.bm_max.shape[1]


def _block_extrema(seed, block_index, j, n_block, n_grid):
    """Extrema of n_block paths from the (seed, block, sample) stream.

    Paths are drawn ``_CHUNK`` rows at a time from one generator, which
    yields the same numbers as drawing the whole block at once.
    """
    ss = np.random.SeedSequence(int(seed), spawn_key=(int(block_index), int(j)))
    rng = np.random.Generator(np.random.Philox(ss))
    root_n = math.sqrt(n_grid)
    t = np.arange(1, n_grid + 1) / n_grid
    out = np.empty((4, n_block))
    paths = np.empty((min(_CHUNK, n_block), n_grid))
    drift = np.empty_like(paths)
    for lo in range(0, n_block, _CHUNK):
        hi = min(lo + _CHUNK, n_block)
        p, dr = paths[: hi - lo], drift[: hi - lo]
        rng.standard_normal(out=p)
        p /= root_n
        np.cumsum(p, axis=1, out=p)
        np.maximum(p.max(axis=1), 0.0, out=out[0, lo:hi])
        np.minimum(p.min(axis=1), 0.0, out=out[1, lo:hi])
        np.multiply(p[:, -1:], t, out=dr)
        p -= dr
        np.maximum(p.max(axis=1), 0.0, out=out[2, lo:hi])
        np.minimum(p.min(axis=1), 0.0, out=out[3, lo:hi])
    return tuple(out)


# Insertion-ordered; holds at most _EXTREMA_CACHE_SIZE entries, oldest
# evicted first.
_extrema_cache: dict = {}


def _check_workers(workers):
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")


def simulate_path_extrema(K: int, n_grid: int, n_rep: int, seed: int,
                          workers: int = 1, cache: bool = True) -> PathExtrema:
    """Simulate per-path extrema for K independent motions and bridges.

    Replications are generated in fixed-size blocks keyed by
    (seed, block index, sample index), on a pool of at most ``workers``
    threads, so the result is identical for any worker count.  The latest
    few results are memoized on (K, n_grid, n_rep, seed).
    """
    _check_workers(workers)
    key = (K, n_grid, n_rep, seed)
    if cache and key in _extrema_cache:
        return _extrema_cache[key]

    n_blocks = (n_rep + _BLOCK - 1) // _BLOCK
    arrays = [np.empty((n_rep, K)) for _ in range(4)]

    def fill(b, j):
        lo = b * _BLOCK
        hi = min(lo + _BLOCK, n_rep)
        parts = _block_extrema(seed, b, j, hi - lo, n_grid)
        for arr, part in zip(arrays, parts):
            arr[lo:hi, j] = part

    tasks = [(b, j) for b in range(n_blocks) for j in range(K)]
    # Imported on first use, to keep it out of every command's start-up.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        list(pool.map(lambda t: fill(*t), tasks))

    out = PathExtrema(*arrays, n_grid=n_grid, seed=seed)
    if cache:
        _extrema_cache[key] = out
        while len(_extrema_cache) > _EXTREMA_CACHE_SIZE:
            del _extrema_cache[next(iter(_extrema_cache))]
    return out


def functional_draws(req: CritValRequest, extrema: PathExtrema) -> np.ndarray:
    """Per-replication draws of the requested null functional."""
    if extrema.K < req.K:
        raise ConfigurationError("extrema were simulated for fewer samples than requested")
    bm_max = extrema.bm_max[:, : req.K]
    bm_min = extrema.bm_min[:, : req.K]
    bb_max = extrema.bb_max[:, : req.K]
    bb_min = extrema.bb_min[:, : req.K]
    if req.kind == "q":
        return (np.maximum(bm_max, -bm_min) ** 2).sum(axis=1)
    if req.kind == "q-breve":
        return (np.maximum(bb_max, -bb_min) ** 2).sum(axis=1)
    # Pooled kinds: sup over the grid of |sum_j c_j B_j(s_j)| with positive
    # weights c_j = alpha_j sqrt(kappa_j) separates per coordinate.
    if req.alpha_weights is None or req.kappa is None:
        raise ConfigurationError(f"kind {req.kind!r} requires alpha_weights and kappa")
    c = np.asarray(req.alpha_weights) * np.sqrt(np.asarray(req.kappa))
    if req.kind == "v":
        hi, lo = bm_max, bm_min
    else:
        hi, lo = bb_max, bb_min
    return np.maximum(hi @ c, -(lo @ c))


def empirical_quantile(draws: np.ndarray, level: float) -> float:
    """Order statistic at ceil(level * n); deterministic and conservative."""
    n = len(draws)
    k = min(max(math.ceil(level * n), 1), n)
    return float(np.partition(draws, k - 1)[k - 1])


def critical_value(req: CritValRequest, workers: int = 1) -> float:
    """Critical value of the requested statistic at its level.

    The q kinds use ``_corrected_quantile``, which ignores ``req.seed``,
    ``req.n_rep`` and ``workers``; the v kinds are Monte Carlo quantiles
    of extrema simulated on ``workers`` threads.  A worker count below 1 is
    a ``ConfigurationError`` for every kind.
    """
    _check_workers(workers)
    if method_of(req.kind) == "corrected":
        return _corrected_quantile(req.kind, req.K, req.level, req.n_grid)
    extrema = simulate_path_extrema(req.K, req.n_grid, req.n_rep, req.seed, workers=workers)
    return empirical_quantile(functional_draws(req, extrema), req.level)


def critical_value_table(requests, workers: int = 1):
    """Rows (kind, K, level, value, n_grid, n_rep, seed, method) for CSV export.

    ``n_rep`` and ``seed`` are None on "corrected" rows, whose value they
    did not enter.
    """
    rows = []
    for req in requests:
        method = method_of(req.kind)
        mc = method == "mc"
        rows.append((req.kind, req.K, req.level, critical_value(req, workers=workers),
                     req.n_grid, req.n_rep if mc else None, req.seed if mc else None, method))
    return rows
