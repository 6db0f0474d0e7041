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

QS_BANDWIDTH_CONST = 1.3221
RHO_CLAMP = 0.97
# QS weights are negligible beyond three bandwidths.
TRUNCATION_BANDWIDTHS = 3.0


@dataclass
class LrvEstimate:
    alpha_sq: float
    bandwidth: float
    n_lags: int
    rho_clamped: bool = False


def autocov_hat(p, h: int) -> float:
    """Lag-h sample autocovariance of the product series, divisor N.

    Centered at the overall mean; the divisor is N (not N - h), matching
    the partial-sum scaling the estimate standardizes.
    """
    p = np.asarray(p, dtype=float)
    n = len(p)
    if not 0 <= h < n:
        raise ShapeError(f"lag {h} out of range for series of length {n}")
    return _autocov(p - p.mean(), h)


def _autocov(c: np.ndarray, h: int) -> float:
    """Lag-h autocovariance of the already centered series ``c``."""
    return float(c[: len(c) - h] @ c[h:]) / len(c)


def qs_weight(x: float) -> float:
    """Quadratic spectral kernel, k(0) = 1, symmetric, |k| <= 1."""
    z = 6.0 * math.pi * x / 5.0
    if abs(z) < 1e-3:
        # Taylor branch: sin(z)/z - cos(z) cancels catastrophically near 0.
        return 1.0 - z ** 2 / 10.0 + z ** 4 / 280.0
    return 25.0 / (12.0 * math.pi ** 2 * x ** 2) * (math.sin(z) / z - math.cos(z))


def qs_bandwidth(rho: float, n: int) -> float:
    """Bandwidth rule 1.3221 (a(2) n)^{1/5} with AR(1) plug-in a(2)."""
    a2 = 4.0 * rho ** 2 / (1.0 - rho) ** 4
    return QS_BANDWIDTH_CONST * (a2 * n) ** 0.2


def _ar1_bandwidth(c: np.ndarray, g0: float):
    """QS bandwidth from the lag-1 autocorrelation of the centered series
    ``c``, clamped to [-0.97, 0.97] to stay finite on near-unit-root series,
    and whether it was clamped."""
    rho = _autocov(c, 1) / g0
    clamped = min(max(rho, -RHO_CLAMP), RHO_CLAMP)
    return qs_bandwidth(clamped, len(c)), abs(rho) > RHO_CLAMP


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused below, not warned
def lrv_estimate(p) -> LrvEstimate:
    """Kernel long-run variance estimate of the product series ``p``.

    alpha_sq = Gamma(0) + 2 sum_{h=1}^{m} k(h / S) Gamma(h) with the QS
    kernel, the AR(1) bandwidth S of ``_ar1_bandwidth`` and
    m = min(ceil(3 S), N - 1); S = 0 gives Gamma(0).  A constant series, a
    non-finite Gamma(0) (finite products can overflow it) or a result that
    is not positive and finite raises ``DegenerateLrvError``.
    """
    p = np.asarray(p, dtype=float)
    n = len(p)
    if n < 4:
        raise ShapeError(f"need at least 4 observations, got {n}")
    c = p - p.mean()
    g0 = _autocov(c, 0)
    if g0 <= 0.0:
        raise DegenerateLrvError("constant product series: long-run variance undefined")
    if not g0 < math.inf:
        raise DegenerateLrvError(f"non-finite autocovariance {g0!r}")

    bw, rho_clamped = _ar1_bandwidth(c, g0)
    m = min(math.ceil(TRUNCATION_BANDWIDTHS * bw), n - 1)
    total = g0
    for h in range(1, m + 1):
        total += 2.0 * qs_weight(h / bw) * _autocov(c, h)

    if not 0.0 < total < math.inf:
        raise DegenerateLrvError(f"non-positive or non-finite long-run variance {total!r}")
    return LrvEstimate(alpha_sq=float(total), bandwidth=bw, n_lags=m,
                       rho_clamped=rho_clamped)
