"""Long-run variance estimation for the projected product series.

Kernel-weighted sum of sample autocovariances with quadratic-spectral
weights and an AR(1) plug-in bandwidth in the Andrews style.  The scale
estimated here standardizes the partial-sum processes of ``sumproc``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLrvError, ShapeError
from .limits import real_array, whole_number

QS_BANDWIDTH_CONST = 1.3221
RHO_CLAMP = 0.97
# QS weights are negligible beyond three bandwidths.
TRUNCATION_BANDWIDTHS = 3.0


@dataclass
class LrvEstimate:
    """One series' estimate; from ``lrv_estimates``, each field holds one entry per series."""

    alpha_sq: float
    bandwidth: float
    n_lags: int
    rho_clamped: bool = False


def autocov_hat(p, h: int) -> float:
    """Lag-h sample autocovariance of the product series, divisor N.

    Centered at the overall mean; the divisor is N (not N - h), matching
    the partial-sum scaling the estimate standardizes.
    """
    p = real_array(p, "product series", 1)
    n, h = len(p), whole_number(h, "lag")
    if not 0 <= h < n:
        raise ShapeError(f"lag {h} out of range for series of length {n}")
    return float(_autocov(p - p.mean(), h))


def _autocov(c: np.ndarray, h: int) -> np.ndarray:
    """Lag-h autocovariance of each already centered series along the last axis of ``c``.

    Each series is reduced on its own, so its value does not depend on
    the other series of a batch.
    """
    n = c.shape[-1]
    return np.einsum("...i,...i->...", c[..., : n - h], c[..., h:]) / n


def qs_weight(x):
    """Quadratic spectral kernel, k(0) = 1, symmetric, |k| <= 1.

    ``x`` is a float or an array (same shape back).
    """
    x = real_array(x, "kernel argument")
    z = 6.0 * math.pi * x / 5.0
    # Taylor branch: sin(z)/z - cos(z) cancels catastrophically near 0.
    near = 1.0 - z ** 2 / 10.0 + z ** 4 / 280.0
    with np.errstate(divide="ignore", invalid="ignore"):  # x = 0 takes the Taylor branch
        far = 25.0 / (12.0 * math.pi ** 2 * x ** 2) * (np.sin(z) / z - np.cos(z))
    out = np.where(np.abs(z) < 1e-3, near, far)
    return float(out) if out.ndim == 0 else out


def qs_bandwidth(rho, n: int):
    """Bandwidth rule 1.3221 (a(2) n)^{1/5} with AR(1) plug-in a(2), for a float or an array."""
    a2 = 4.0 * rho ** 2 / (1.0 - rho) ** 4
    return QS_BANDWIDTH_CONST * (a2 * n) ** 0.2


def lrv_estimate(p) -> LrvEstimate:
    """Kernel long-run variance estimate of the product series ``p``; see ``lrv_estimates``."""
    est = lrv_estimates(real_array(p, "product series", 1)[None])
    return LrvEstimate(alpha_sq=float(est.alpha_sq[0]), bandwidth=float(est.bandwidth[0]),
                       n_lags=int(est.n_lags[0]), rho_clamped=bool(est.rho_clamped[0]))


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused below, not warned
def lrv_estimates(p) -> LrvEstimate:
    """Kernel long-run variance estimates of the rows of the (R, N) array ``p``.

    alpha_sq = Gamma(0) + 2 sum_{h=1}^{m} k(h / S) Gamma(h) per row, with
    the QS kernel and the AR(1) plug-in bandwidth S of the row's lag-1
    autocorrelation, clamped to [-0.97, 0.97] to stay finite on
    near-unit-root series; m = min(ceil(3 S), N - 1), and S = 0 gives
    Gamma(0).  Gamma(h) is computed for every row up to the largest m,
    and each row's weights beyond its own m are zero.  Returns an
    ``LrvEstimate`` of (R,) arrays; row r equals the estimate of row r
    alone.  A constant row, a non-finite Gamma(0) (finite products can
    overflow it) or a result that is not positive and finite raises
    ``DegenerateLrvError``.
    """
    p = real_array(p, "product series", 2)
    n = p.shape[1]
    if n < 4:
        raise ShapeError(f"need at least 4 observations, got {n}")
    c = p - p.mean(axis=1, keepdims=True)
    g0 = _autocov(c, 0)
    if np.any(g0 <= 0.0):
        raise DegenerateLrvError("constant product series: long-run variance undefined")
    if not np.all(g0 < math.inf):
        raise DegenerateLrvError(f"non-finite autocovariance {float(g0[~(g0 < math.inf)][0])!r}")

    rho = _autocov(c, 1) / g0
    bw = qs_bandwidth(np.clip(rho, -RHO_CLAMP, RHO_CLAMP), n)
    m = np.minimum(np.ceil(TRUNCATION_BANDWIDTHS * bw), n - 1).astype(int)
    h = np.arange(1, m.max() + 1)
    inside = h <= m[:, None]
    x = np.divide(h, bw[:, None], out=np.zeros(inside.shape), where=inside)
    weights = np.where(inside, 2.0 * qs_weight(x), 0.0)
    total = g0
    for i, lag in enumerate(h):
        total = total + weights[:, i] * _autocov(c, lag)

    bad = ~((0.0 < total) & (total < math.inf))
    if bad.any():
        raise DegenerateLrvError(
            f"non-positive or non-finite long-run variance {float(total[bad][0])!r}")
    return LrvEstimate(alpha_sq=total, bandwidth=bw, n_lags=m, rho_clamped=np.abs(rho) > RHO_CLAMP)
