"""Limit distributions and critical values of the four null functionals.

One series per law gives the suprema of |Brownian motion| (reflection
series, ``sup_abs_bm_cdf``) and |Brownian bridge| (Kolmogorov series,
``sup_abs_bb_cdf``) on [0, 1], for a float or an array alike.  They give
the critical values of the sum-of-squares kinds ``q`` and ``q-breve``
without simulation: their null law is the K-fold convolution of one
data-free law, sup|B|^2 or sup|bridge|^2.  The paper's
statistics take the supremum over a grid of ``n_grid`` points, which sits
below the continuous one by about beta / sqrt(n_grid) with
beta = -zeta(1/2) / sqrt(2 pi) (Broadie, Glasserman & Kou 1997, Math.
Finance 7:325), so the law used is that of (sup - beta / sqrt(n_grid))^2.
These values depend on (kind, K, level, n_grid) only; method "corrected".

The pooled kinds ``v`` and ``v-breve`` weight the samples by the data,
c_j = alpha_j sqrt(kappa_j).  Their grid supremum separates per
coordinate: it is max(sum_j c_j M+_j, sum_j c_j M-_j), where (M+, M-) is
the (max, -min) pair of one motion or bridge.  ``draw_extrema`` draws
those pairs exactly from their joint law (method "exact-mc"): M+ from its
marginal, M- from its conditional law given M+ through a quantile table
built on first use and Newton steps on the series.  Each draw is
shifted by the same beta / sqrt(n_grid), and the critical value is the
Monte Carlo quantile of the weighted sums.  Each block of draws comes
from its own ``stream``.  ``simulate_path_extrema`` still simulates the
paths themselves, on ``process_map`` of ``workers`` processes, and
returns the same (M+, M-) pair of each law; it is the tests' oracle, and
no critical value uses it.

This module owns every random ``stream`` and ``child_seed``, and the
readers of every setting: ``check_level`` refuses a level outside (0, 1)
for ``covcusum critval``, ``cptest.TestSpec`` and
``harness.ExperimentConfig`` alike, ``check_seed`` a seed outside
[0, 2**64) for them, ``simgen.PanelConfig`` and every stream,
``check_workers`` a worker count below 1 (``process_map`` starts every
process pool), ``whole_number`` an integer setting that is a bool, a
fraction or below its least value, ``real_vector`` a vector setting
(weights here, the panel coefficients and scales of ``simgen.PanelConfig``)
of another length or with an entry out of range or not a real, and
``real_array`` an array argument of any layer that is complex, not numeric
or of another ndim.  It owns every memo of a critical value, and all are
exact ``functools.lru_cache`` memos on their arguments: the quantile
tables, and the few most recently used sum CDFs of the q kinds' laws
(``_sum_cdf``), draw sets (``draw_extrema``) and path sets
(``simulate_path_extrema``).  Memoized arrays, and the mapping that holds a
path set, are read-only, so that no caller can change a later result by
writing into one.  A ``NullLaw`` is complete or refused when made, and says
how its critical values are reached: its ``method``, and the ``n_rep`` and
``seed`` it reads, None for the q kinds.  ``TestSpec`` and
``ExperimentConfig`` read their critical-value settings through one, and
hold None for a setting it does not read.  ``covcusum critval`` asks one law
for its ``weights``, the c_j of a pooled kind's K ``alpha_weights`` and
``kappa``, and for its ``quantile``, which takes K weights or an (R, K)
array of them, one row per replication of a batch.  Callers ask a law, or
``critical_value`` of one, and keep no cache of their own.
"""

from __future__ import annotations

import contextlib
import functools
import math
import numbers
import types
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigurationError, ShapeError

KINDS = ("q", "v", "q-breve", "v-breve")
# Pooled kinds take one grid maximum over all samples; bridge kinds recenter
# by the endpoint and need no target; corrected kinds have a closed-form
# critical value (``NullLaw.method``).
POOLED_KINDS = ("v", "v-breve")
BRIDGE_KINDS = ("q-breve", "v-breve")
CORRECTED_KINDS = ("q", "q-breve")
DEFAULT_N_GRID = 2000
DEFAULT_N_REP = 100_000
_BLOCK = 2048
# Rows of a block simulated at a time, so a block never holds an
# n_block x n_grid matrix.
_CHUNK = 64
_EXTREMA_CACHE_SIZE = 4
_PATH_STREAMS = 0x70617468  # "path" in ASCII; see ``stream``

# -zeta(1/2) / sqrt(2 pi): the grid maximum of a Brownian motion with n
# steps sits this many multiples of 1/sqrt(n) below the continuous one.
BGK_BETA = 0.5825971579390106
# Step of the y-grid on which the one-sample law is tabulated, and the
# mass the table may leave out beyond its end.
_TABLE_STEP = 1e-3
_TABLE_TAIL = 1e-13


def _series_terms(y: np.ndarray) -> int:
    # Enough terms that the first one left out, exp(-(2l+1)^2 pi^2 / (8 y)),
    # is below exp(-40) for every finite argument.
    y_max = float(np.max(y, initial=0.0, where=np.isfinite(y)))
    return int(math.sqrt(320.0 * y_max) / math.pi) // 2 + 2


def sup_abs_bm_cdf(y):
    """P(sup_{[0,1]} |B|^2 <= y) for standard Brownian motion.

    Alternating reflection series in the bound ``y`` on the squared
    supremum, a float or an array (same shape back): 0 at y = 0, 1 at inf.
    """
    y = real_array(y, "bound") + 0.0  # -0.0 reads as 0.0
    if np.isnan(y).any() or y.min(initial=math.inf) < 0.0:
        raise ConfigurationError(f"argument must be non-negative and not nan, got {y}")
    total = np.zeros_like(y)
    with np.errstate(divide="ignore"):  # y = 0: exp(-inf) = 0
        for l in range(_series_terms(y)):
            total += (-1.0) ** l / (2 * l + 1) * np.exp(-((2 * l + 1) ** 2) * math.pi ** 2 / (8.0 * y))
    out = np.where(np.isinf(y), 1.0, np.clip(4.0 / math.pi * total, 0.0, 1.0))
    return float(out) if out.ndim == 0 else out


def sup_abs_bb_cdf(y):
    """P(sup_{[0,1]} |bridge|^2 <= y), the Kolmogorov law in squared form.

    Theta-function series for ``y`` in (0, inf], a float or an array alike.
    """
    y = real_array(y, "bound")
    if np.isnan(y).any() or y.min(initial=math.inf) <= 0.0:
        raise ConfigurationError(f"argument must be positive and not nan, got {y}")
    total = np.zeros_like(y)
    for l in range(1, _series_terms(y) + 1):
        total += np.exp(-((2 * l - 1) ** 2) * math.pi ** 2 / (8.0 * y))
    out = np.where(np.isinf(y), 1.0, np.minimum(np.sqrt(2.0 * math.pi / y) * total, 1.0))
    return float(out) if out.ndim == 0 else out


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
    cdf = sup_abs_bm_cdf if kind == "q" else sup_abs_bb_cdf
    n = math.ceil(_table_end(kind) / step)
    shift = BGK_BETA / math.sqrt(n_grid)
    return cdf((np.sqrt(np.arange(n + 1) * step) + shift) ** 2)


@functools.lru_cache(maxsize=_EXTREMA_CACHE_SIZE)
def _sum_cdf(kind: str, K: int, n_grid: int, step: float, /) -> np.ndarray:
    """The read-only CDF, at each sum m, of the K cell indices of K independent copies of X:
    the cell masses of ``_one_sample_table``, convolved K-fold by FFT, exactly (the
    transform is long enough that nothing wraps around)."""
    cdf = _one_sample_table(kind, n_grid, step)
    mass = np.diff(cdf)
    mass[0] += cdf[0]
    n_sum = K * (len(mass) - 1) + 1
    n_fft = 1 << (n_sum - 1).bit_length()
    sum_mass = np.fft.irfft(np.fft.rfft(mass, n_fft) ** K, n_fft)[:n_sum]
    sum_cdf = np.cumsum(np.maximum(sum_mass, 0.0))
    sum_cdf.flags.writeable = False
    return sum_cdf


def _corrected_quantile(kind: str, K: int, level: float, n_grid: int,
                        step: float = _TABLE_STEP) -> float:
    """Level-quantile of the sum of K copies of X, which depends on no seed or replication
    count: a sum m of cell indices stands for the sums around (m + (K + 1) / 2) * step,
    where ``_sum_cdf`` places the mass through m; it interpolates linearly between them."""
    sum_cdf = _sum_cdf(kind, K, n_grid, step)
    m = int(np.searchsorted(sum_cdf, level))
    if not 0 < m < len(sum_cdf):
        raise ConfigurationError(f"level {level} is beyond the tabulated law")
    lo, hi = sum_cdf[m - 1], sum_cdf[m]
    return float(step * (m - 1 + (K + 1) / 2 + (level - lo) / (hi - lo)))


def whole_number(value, name: str, low: Optional[int] = None) -> int:
    """``value``, an integral real of at least ``low``, as an int, or a refusal naming ``name``."""
    if (isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real)
            or not float(value).is_integer()):
        raise ConfigurationError(f"{name} must be a whole number, got {value!r}")
    if low is not None and value < low:
        raise ConfigurationError(f"{name} must be >= {low}, got {int(value)}")
    return int(value)


def real_array(values, what: str, ndims=None) -> np.ndarray:
    """``values`` as a float array, uncopied if it is one, or a ``ShapeError`` naming
    ``what``: not numeric, complex, or of an ndim not in ``ndims`` (an int, a tuple, or
    None for any)."""
    try:
        out = None if np.iscomplexobj(values) else np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"not a numeric {what}: {exc}") from None
    if out is None:
        raise ShapeError(f"not a real {what}")
    dims = (ndims,) if isinstance(ndims, int) else ndims
    if dims is not None and out.ndim not in dims:
        raise ShapeError(f"expected a {' or '.join(f'{d}-d' for d in dims)} {what}, "
                         f"got ndim={out.ndim}")
    return out


def real_vector(values, length: int, name: str, low: float, high: float, rule: str) -> tuple:
    """``values``, ``length`` reals in the open interval (low, high), as floats; anything
    else (a value outside, a bool or non-real entry, a scalar) is refused stating ``rule``."""
    try:  # a non-real entry reads as nan, which no interval holds
        out = tuple(float(v) if isinstance(v, numbers.Real) and not isinstance(v, bool)
                    else math.nan for v in values)
    except (TypeError, OverflowError):
        out = ()
    if len(out) != length or not all(low < v < high for v in out):
        raise ConfigurationError(f"{name} must be {rule}, got {values!r}")
    return out


def check_seed(seed) -> int:
    """``seed``, a whole number in [0, 2**64), as an int; anything else is refused.

    ``SeedSequence`` pads a seed below 2**128 to four words before the key
    and a wider one not, so a wider seed could draw another key's stream:
    ``stream(7 + (5 << 128))`` would be ``stream(7, 5)``.
    """
    if (seed := whole_number(seed, "seed")) < 0:
        raise ConfigurationError(f"seed must be non-negative, got {seed}")
    if seed >= 2**64:
        raise ConfigurationError(f"seed must be below 2**64, got {seed}")
    return seed


def _key_word(k) -> int:
    if (k := whole_number(k, "key", 0)) >= 2**32:
        raise ConfigurationError(f"key must be below 2**32, got {k}")
    return k


def stream(seed, *key) -> np.random.Generator:
    """The Philox generator of ``SeedSequence(seed, spawn_key=key)``; a bad word is refused.

    Every draw comes from one, and the key spaces never meet, for they differ
    in length: panel innovations are keyed (sample, rep) (``simgen``), the
    extrema of ``_fill_blocks`` (_PATH_STREAMS, block, sample), a Dirichlet
    projection ().  Distinct (seed, key) give independent streams, for
    ``check_seed`` reads the seed and each key word is below 2**32
    (``SeedSequence`` splits a wider word, so ``stream(7, 2**32 + 5)`` would be
    ``stream(7, 5, 1)``).  Cell and projection seeds come from ``child_seed``.
    """
    ss = np.random.SeedSequence(check_seed(seed),
                                spawn_key=tuple(map(_key_word, key)))
    return np.random.Generator(np.random.Philox(ss))


def child_seed(seed, i) -> int:
    """The i-th 64-bit seed derived from ``seed``, as a cell's from its experiment's."""
    ss = np.random.SeedSequence(check_seed(seed), spawn_key=(_key_word(i),))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def check_level(level) -> float:
    """``level``, a real in (0, 1), as a float; anything else is refused."""
    if not (isinstance(level, numbers.Real) and 0.0 < level < 1.0):
        raise ConfigurationError(f"level must be in (0, 1), got {level!r}")
    return float(level)


def _block_extrema(seed, block_index, j, n_block, n_grid):
    """(M+, M-) of n_block motions, then of their bridges, from the
    (seed, _PATH_STREAMS, block, sample) stream, each on a grid of n_grid steps.

    Paths are drawn ``_CHUNK`` rows at a time from one generator, which
    yields the same numbers as drawing the whole block at once.
    """
    rng = stream(seed, _PATH_STREAMS, block_index, j)
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
        np.maximum(-p.min(axis=1), 0.0, out=out[1, lo:hi])
        np.multiply(p[:, -1:], t, out=dr)
        p -= dr
        np.maximum(p.max(axis=1), 0.0, out=out[2, lo:hi])
        np.maximum(-p.min(axis=1), 0.0, out=out[3, lo:hi])
    return tuple(out)


def check_workers(workers) -> int:
    """``workers`` as an int; a count that is not a whole number of at least 1 is refused."""
    return whole_number(workers, "workers", 1)


@contextlib.contextmanager
def process_map(workers):
    """The builtin ``map`` for one worker, else the ``map`` of a pool of ``workers`` forked
    processes, shut down on leaving without starting its queued tasks.

    A fork pool runs its first tasks in about 15 ms, a forkserver one in 0.4 s.  The
    package starts no thread and OpenBLAS stops its own at a fork, so the process forks
    with one thread, and no child holds a lock another thread took.
    """
    if workers == 1:
        yield map
        return
    # Imported on first use, to keep them out of every command's start-up.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        yield pool.map
    finally:
        pool.shutdown(cancel_futures=True)  # a refusal waits for no later task


def _fill_blocks(arrays, block, map_=map):
    """Fill (n_rep, K) ``arrays`` in blocks of _BLOCK rows per sample.

    ``block(b, j, n)`` returns one part per array: the n replications of
    block b of sample j, drawn from their own (seed, block, sample) stream.
    ``map_(block, bs, js, ns)`` runs the (block, sample) tasks and returns
    their parts in task order, which are written here; so the result is the
    same through any map that runs them all.  The filled arrays are read-only.
    """
    n_rep, K = arrays[0].shape
    tasks = [(b, j, min(_BLOCK, n_rep - b * _BLOCK))
             for b in range((n_rep + _BLOCK - 1) // _BLOCK) for j in range(K)]
    for (b, j, n), parts in zip(tasks, map_(block, *zip(*tasks))):
        for arr, part in zip(arrays, parts):
            arr[b * _BLOCK:b * _BLOCK + n, j] = part
    for arr in arrays:
        arr.flags.writeable = False


def simulate_path_extrema(K: int, n_grid: int, n_rep: int, seed: int,
                          workers: int = 1, cache: bool = True) -> types.MappingProxyType:
    """Simulate (M+, M-) of K independent motions and bridges on n_grid steps.

    Returns a read-only mapping {"bm": (M+, M-), "bb": (M+, M-)} of
    read-only (n_rep, K) arrays, as ``draw_extrema`` returns them for one
    law.  Replications are generated by ``_fill_blocks`` on ``process_map``
    of at most ``workers`` processes, with the same numbers for any worker
    count.  With ``cache`` the few most recently used results are memoized
    on (K, n_grid, n_rep, seed, workers).
    """
    workers = check_workers(workers)
    return (_path_extrema if cache else _path_extrema.__wrapped__)(K, n_grid, n_rep, seed, workers)


@functools.lru_cache(maxsize=_EXTREMA_CACHE_SIZE)
def _path_extrema(K, n_grid, n_rep, seed, workers):
    arrays = [np.empty((n_rep, K)) for _ in range(4)]
    n_tasks = (n_rep + _BLOCK - 1) // _BLOCK * K  # those of ``_fill_blocks``
    with process_map(min(workers, n_tasks)) as map_:
        _fill_blocks(arrays, functools.partial(_block_extrema, seed, n_grid=n_grid), map_)
    return types.MappingProxyType({"bm": tuple(arrays[:2]), "bb": tuple(arrays[2:])})


def empirical_quantile(draws: np.ndarray, level: float) -> float:
    """Order statistic at ceil(level * n) of a non-empty 1-d ``draws``; deterministic and
    conservative.  A level outside (0, 1) is refused."""
    draws, level = real_array(draws, "set of draws", 1), check_level(level)
    if not (n := len(draws)):
        raise ShapeError("empty set of draws")
    k = min(max(math.ceil(level * n), 1), n)
    return float(np.partition(draws, k - 1)[k - 1])


# ------------------------------------------------ exact draws of the extrema
#
# (M+, M-) = (max, -min) of one motion ("bm") or bridge ("bb") on [0, 1].
# M+ is drawn from its marginal, M- from its conditional law given M+ = a,
# G(b | a) = d_a F(a, b) / f(a), through a table of its quantile function
# and Newton steps on the series.

# Steps of the quantile table in sqrt(a) and in logit(u); u is kept within
# [_U_CLAMP, 1 - _U_CLAMP], and a row at most _A_MAX[law] is read, which
# M+ exceeds with probability below 1e-10.
_T_STEP = 0.04
_W_STEP = 0.5
_U_CLAMP = 1e-10
_A_MAX = {"bm": 6.5, "bb": 3.5}
# How far out the reflections of each law's series reach, in units of x
# in exp(-2 x^2) (bridge) and exp(-x^2 / 2) (motion): exp(-32) either way.
_SERIES_REACH = {"bm": 8.0, "bb": 4.0}
# Exponents are floored here: exp of an argument whose result underflows
# is 50 times slower than exp(-700) = 1e-304, which is as good as zero.
_EXP_FLOOR = -700.0
_SERIES_CHUNK = 512
_NEWTON_TOL = 3e-4


def _conditional_cdf(law: str, a, b):
    """G(b | a), 1 - G(b | a) and dG/db of M- given M+ = a, for a > 0.

    With s = a + b the range, both laws are sums over reflections m s +- a:

    - Bridge: F(a, b) = sum_k [exp(-2 k^2 s^2) - exp(-2 (k s + a)^2)]
      (Feller 1951; Kuiper's statistic) and f(a) = 4 h(a), h(x) = x exp(-2 x^2),
      give G = 1 + sum_{m>=1} [(m+1) h(ms+a) + (m-1) h(ms-a) - 2m h(ms)] / h(a).
    - Motion: F(a, b) = sum_k [Phi(a - 2ks) - Phi(-b - 2ks) - Phi(-a - 2ks)
      + Phi(-b - 2a - 2ks)] (two-barrier images; Borodin & Salminen) and
      f(a) = 2 phi(a) give G = 1 + sum_{m>=1} (-1)^m [(m+1) phi(ms+a)
      - (m-1) phi(ms-a)] / phi(a).

    The sum is -(1 - G), returned on its own so that the upper tail keeps
    its relative precision.  Terms run to m s = _SERIES_REACH[law] + 2 s at
    the least range s of a chunk; the first term left out is of order
    exp(-32) of the leading one.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    shape = a.shape
    a, b = a.ravel(), b.ravel()
    # Chunks of similar range, each summed only as far as its least range needs.
    order = np.argsort(a + b, kind="stable")
    rest, dens = np.empty(a.size), np.empty(a.size)
    for lo in range(0, a.size, _SERIES_CHUNK):
        idx = order[lo:lo + _SERIES_CHUNK]
        rest[idx], dens[idx] = _series(law, a[idx], b[idx])
    return (1.0 + rest).reshape(shape), (-rest).reshape(shape), dens.reshape(shape)


def _series(law, a, b):
    """The sum -(1 - G) and dG/db of ``_conditional_cdf`` at 1-D a and b."""
    s = a + b
    m = np.arange(1.0, int(_SERIES_REACH[law] / float(np.min(s))) + 3)
    n_shift = 3 if law == "bb" else 2
    shift = np.repeat([1.0, -1.0, 0.0][:n_shift], len(m))
    m = np.tile(m, n_shift)
    x = np.multiply.outer(m, s)
    x += np.multiply.outer(shift, a)  # the reflections m s + shift a
    e = x * x
    e -= a * a
    if law == "bb":
        coef = np.where(shift == 0.0, -2.0 * m, m + shift)
        e *= -2.0
        np.exp(np.maximum(e, _EXP_FLOOR, out=e), out=e)
        val = x * e
        x *= val
        x *= -4.0
        x += e  # (1 - 4 x^2) exp(-2 x^2)
        return coef @ val / a, (coef * m) @ x / a
    coef = (1.0 - 2.0 * (m % 2)) * (m + shift) * shift
    e *= -0.5
    np.exp(np.maximum(e, _EXP_FLOOR, out=e), out=e)
    x *= e
    return coef @ e, -((coef * m) @ x)


def _newton(law, a, y, w, max_steps):
    """Solve logit G(exp(y) | a) = w for y by Newton steps on log b.

    ``a``, ``y`` and ``w`` broadcast to the shape of the result.  Each
    entry takes steps until one is below _NEWTON_TOL, which leaves an error
    of the order of its square, or until ``max_steps``.
    """
    shape = np.broadcast_shapes(np.shape(a), np.shape(y), np.shape(w))
    a, w = (np.broadcast_to(x, shape).ravel() for x in (a, w))
    y = np.array(np.broadcast_to(y, shape)).ravel()
    todo = np.arange(y.size)
    for _ in range(max_steps):
        b = np.exp(y[todo])
        G, Gc, g = _conditional_cdf(law, a[todo], b)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = (np.log(G) - np.log(Gc) - w[todo]) * G * Gc / (g * b)
        step = np.clip(np.nan_to_num(step, nan=0.0), -1.0, 1.0)
        y[todo] -= step
        todo = todo[np.abs(step) > _NEWTON_TOL]
        if not todo.size:
            break
    return y.reshape(shape)


@functools.lru_cache(maxsize=None)
def _quantile_table(law: str) -> np.ndarray:
    """log G^{-1}(u | a) at a = ((i + 1/2) _T_STEP)^2 and logit u = w_j.

    Built on first use.  Each row starts from a 64-point geometric grid in
    b, and ``_newton`` takes it from there.  The table depends on the law
    only.
    """
    n_t = int(math.sqrt(_A_MAX[law]) / _T_STEP) + 3
    a = ((np.arange(n_t) + 0.5) * _T_STEP)[:, None] ** 2
    w = _w_nodes()
    # P(M+ + M- < 0.3) < 1e-20: no quantile in the table lies below it.
    grid = np.geomspace(np.maximum(0.3 - a[:, 0], 1e-14), 8.0, 64, axis=1)
    G, Gc, _ = _conditional_cdf(law, a, grid)
    score = np.log(np.maximum(G, 1e-300)) - np.log(np.maximum(Gc, 1e-300))
    y = np.stack([np.interp(w, sc, np.log(gr)) for sc, gr in zip(score, grid)])
    table = _newton(law, a, y, w, 12)
    table.flags.writeable = False
    return table


def _w_nodes():
    w_max = math.log((1.0 - _U_CLAMP) / _U_CLAMP)
    n = int(w_max / _W_STEP) + 3
    return np.arange(-n, n + 1) * _W_STEP


def _lagrange_weights(x, n):
    """Cubic Lagrange weights (4, len(x)) on nodes i-1..i+2 around x, i in [1, n - 3]."""
    i = np.clip(np.floor(x).astype(np.intp), 1, n - 3)
    t = x - i
    return i, np.stack([-t * (t - 1) * (t - 2) / 6, (t + 1) * (t - 1) * (t - 2) / 2,
                        -(t + 1) * t * (t - 2) / 2, (t + 1) * t * (t - 1) / 6])


def _conditional_quantile(law: str, a: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The b with G(b | a) = u: bicubic table lookup, then ``_newton``."""
    table = _quantile_table(law)
    n_t, n_w = table.shape
    u = np.clip(u, _U_CLAMP, 1.0 - _U_CLAMP)
    w = np.log(u) - np.log1p(-u)
    i, wa = _lagrange_weights(np.sqrt(np.minimum(a, _A_MAX[law])) / _T_STEP - 0.5, n_t)
    j, ww = _lagrange_weights(w / _W_STEP + (n_w - 1) / 2, n_w)
    stencil = (np.arange(4)[:, None] * n_w + np.arange(4))[:, :, None]
    cells = table.ravel()[(i - 1) * n_w + (j - 1) + stencil]  # (4, 4, len(a))
    y = (wa * (cells * ww).sum(axis=1)).sum(axis=0)
    polish = a > 0.0  # the bridge's series divides by a
    if polish.any():
        y[polish] = _newton(law, a[polish], y[polish], w[polish], 4)
    return np.exp(y)


def _block_draws(law, seed, block_index, j, n_block):
    """(M+, M-) of n_block motions or bridges from the (seed, _PATH_STREAMS, block, sample) stream.

    Bridge: P(M+ > a) = exp(-2 a^2), so M+ = sqrt(E / 2) with E standard
    exponential.  Motion: M+ = |B(1)| in law (reflection), half-normal.
    """
    rng = stream(seed, _PATH_STREAMS, block_index, j)
    if law == "bb":
        a = np.sqrt(0.5 * rng.standard_exponential(n_block))
    else:
        a = np.abs(rng.standard_normal(n_block))
    return a, _conditional_quantile(law, a, rng.random(n_block))


@functools.lru_cache(maxsize=_EXTREMA_CACHE_SIZE)
def draw_extrema(law: str, K: int, n_rep: int, seed: int, /):
    """Exact draws of (M+, M-) for K independent motions ("bm") or bridges ("bb").

    Returns two read-only (n_rep, K) arrays, drawn block by block by
    ``_fill_blocks``.  The few most recently used results are memoized on
    (law, K, n_rep, seed), which are positional so that a draw set has one key.
    """
    arrays = (np.empty((n_rep, K)), np.empty((n_rep, K)))
    _fill_blocks(arrays, functools.partial(_block_draws, law, seed))
    return arrays


@dataclass(frozen=True)
class NullLaw:
    """The null law of ``kind``'s statistic for K samples on a grid of ``n_grid`` points;
    a setting it reads is refused when made.

    ``method`` says how its quantiles are reached: "corrected" for the q kinds,
    whose ``n_rep`` and ``seed`` are None whatever was given, for they read
    neither, and "exact-mc" for the v kinds.
    """

    kind: str
    K: int
    n_grid: int = DEFAULT_N_GRID
    n_rep: Optional[int] = DEFAULT_N_REP
    seed: Optional[int] = 0
    method: str = field(init=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown statistic kind {self.kind!r}")
        if (n_grid := whole_number(self.n_grid, "n_grid")) < 100:
            raise ConfigurationError("n_grid must be >= 100")
        corrected = self.kind in CORRECTED_KINDS
        if not corrected and (n_rep := whole_number(self.n_rep, "n_rep")) < 1000:
            raise ConfigurationError("n_rep must be >= 1000")
        for name, value in (("K", whole_number(self.K, "K", 1)), ("n_grid", n_grid),
                            ("n_rep", None if corrected else n_rep),
                            ("seed", None if corrected else check_seed(self.seed)),
                            ("method", "corrected" if corrected else "exact-mc")):
            object.__setattr__(self, name, value)

    def weights(self, alpha_weights=None, kappa=None) -> Optional[np.ndarray]:
        """The K weights c_j = alpha_j sqrt(kappa_j) of a pooled kind's law, else None; a
        pooled kind requires K ``alpha_weights`` and ``kappa``, any other takes neither."""
        pooled = self.kind in POOLED_KINDS
        if (alpha_weights is not None, kappa is not None) != (pooled, pooled):
            raise ConfigurationError(
                f"kind {self.kind!r} " + ("requires alpha_weights and kappa" if pooled
                                          else "takes no alpha_weights or kappa"))
        if not pooled:
            return None
        rule = "K positive finite reals"
        alpha_weights = real_vector(alpha_weights, self.K, "alpha_weights", 0.0, math.inf, rule)
        kappa = real_vector(kappa, self.K, "kappa", 0.0, math.inf, rule)
        if sum(kappa) > 1.0 + 1e-9:
            raise ConfigurationError("kappa entries must sum to at most 1")
        return np.multiply(alpha_weights, np.sqrt(kappa))

    def quantile(self, level: float, weights=None) -> float | np.ndarray:
        """The level-quantile; the v kinds weight sample j by c_j = alpha_j sqrt(kappa_j).

        K weights give a float, and an (R, K) array gives an (R,) array whose
        entry r is the float that row r alone gives.  A level outside (0, 1) is
        refused, and so is a row of weights that is not K positive finite reals,
        or whose quantile overflows, by its index in a stack; the q kinds take none.
        """
        level = check_level(level)
        if self.method == "corrected":
            if weights is not None:
                raise ConfigurationError(f"kind {self.kind!r} takes no weights")
            return _corrected_quantile(self.kind, self.K, level, self.n_grid)
        stack = np.asarray(weights, dtype=object).ndim == 2
        name = "weights row {}" if stack else "weights"
        rows = [real_vector(c, self.K, name.format(r), 0.0, math.inf, "K positive finite reals")
                for r, c in enumerate(weights if stack else [weights])]
        shift = BGK_BETA / math.sqrt(self.n_grid)  # once per call, for every row
        hi, lo = (np.maximum(a - shift, 0.0) for a in draw_extrema(
            "bb" if self.kind in BRIDGE_KINDS else "bm", self.K, self.n_rep, self.seed))
        # The grid supremum of |sum_j c_j B_j(s_j)| with positive c_j separates
        # per coordinate.  One matrix-vector product per row keeps each row's bits.
        with np.errstate(over="ignore"):  # an infinite quantile is refused below
            values = np.array([empirical_quantile(np.maximum(hi @ c, lo @ c), level)
                               for c in rows])
        if not (finite := np.isfinite(values)).all():
            r = int(np.argmin(finite))
            raise ConfigurationError(f"{name.format(r)} overflow the quantile, got {rows[r]}")
        return values if stack else float(values[0])


def critical_value(law: NullLaw, level: float, weights=None) -> float:
    """The critical value of ``law`` at ``level``: its quantile, weighted by ``weights``."""
    return law.quantile(level, weights)
