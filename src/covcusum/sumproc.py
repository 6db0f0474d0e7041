"""Projected product series, their running sums and deviations, grid maxima.

The monitored scalar per observation is p_i = (v'Y_i)(w'Y_i); its running
sums S_k reproduce the bilinear form of the unnormalized sample covariance
partial sums.  No d x d matrix is ever materialized: projecting first costs
O(N d) instead of O(N d^2) and gives identical values by bilinearity.
Each row is reduced on its own, so a sample streamed through ``project``
in row blocks gives the bits of the whole sample projected at once.
``unscaled_deviation`` of S = ``kahan_cumsum(project(...))`` gives the
deviation from a target, or the bridge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateLrvError, ShapeError


def kahan_cumsum(values: np.ndarray) -> np.ndarray:
    """Compensated running sums with a leading zero: out[k] = sum(values[:k]).

    The sequential running sums of ``np.cumsum`` are corrected by the
    running sum of each step's exact rounding error (TwoSum), so every
    prefix is as accurate as if summed in twice the working precision
    (Ogita, Rump & Oishi 2005, Sum2).
    """
    values = np.asarray(values, dtype=float)
    out = np.zeros(len(values) + 1)
    np.cumsum(values, out=out[1:])
    prev, total = out[:-1], out[1:]
    added = total - prev
    err = (prev - (total - added)) + (values - added)
    total += np.cumsum(err)
    return out


@dataclass(frozen=True)
class ProjectionPair:
    """A pair of weight vectors with their recorded l1 norms."""

    v: np.ndarray
    w: np.ndarray
    l1_v: float
    l1_w: float

    @classmethod
    def from_vectors(cls, v, w=None):
        v = np.asarray(v, dtype=float)
        w = v if w is None else np.asarray(w, dtype=float)
        if v.ndim != 1 or w.ndim != 1 or v.shape != w.shape:
            raise ShapeError(f"v and w must be 1-d of equal length, got {v.shape}, {w.shape}")
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(w))):
            raise ShapeError("projection vectors must be finite")
        l1_v = float(np.abs(v).sum())
        l1_w = float(np.abs(w).sum())
        if l1_v == 0.0 or l1_w == 0.0:
            raise ShapeError("projection vectors must not be all-zero")
        return cls(v=v, w=w, l1_v=l1_v, l1_w=l1_w)

    @property
    def d(self):
        return self.v.shape[0]


def project(sample: np.ndarray, pair: ProjectionPair) -> np.ndarray:
    """Product series p = (Yv) * (Yw) of one observation matrix (rows=time).

    Each row's dot products are reduced within that row (``einsum``, not
    BLAS, whose blocking depends on the whole matrix), so projecting a
    sample in row blocks and concatenating gives the same bits as
    projecting it whole.  An overflow is left to ``cptest``, which
    refuses a non-finite product naming its observation.
    """
    sample = np.asarray(sample, dtype=float)
    if sample.ndim != 2:
        raise ShapeError(f"sample must be a 2-d matrix, got ndim={sample.ndim}")
    if sample.shape[1] != pair.d:
        raise ShapeError(
            f"sample has {sample.shape[1]} columns but projection vectors have length {pair.d}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        yv = np.einsum("ij,j->i", sample, pair.v)
        yw = yv if pair.w is pair.v else np.einsum("ij,j->i", sample, pair.w)
        return yv * yw


def _cumulative_target(target, n):
    """Running sums of the target sequence, length n + 1, leading zero."""
    if np.ndim(target) == 0:
        return float(target) * np.arange(n + 1)
    target = np.asarray(target, dtype=float)
    if target.shape != (n,):
        raise ShapeError(f"target length {target.shape} does not match sample length {n}")
    return kahan_cumsum(target)


def unscaled_deviation(s: np.ndarray, target=None) -> np.ndarray:
    """Partial-sum deviation S_k - sum_{i<=k} target_i, or the bridge S_k - (k/N) S_N.

    ``s`` = S_0..S_N, from ``kahan_cumsum``.  Length N + 1 for k = 0..N,
    not yet scaled: the sum-of-squares kinds divide it by sqrt(N), the
    pooled kinds by sqrt(N_total).  With ``target=None`` the deviation is
    target-free and both endpoints are zero bit-exactly; otherwise entry 0
    is exactly zero.
    """
    n = len(s) - 1
    if n < 1:
        raise ShapeError("empty sample")
    if target is None:
        out = s - (np.arange(n + 1) / n) * s[n]
        out[n] = 0.0
    else:
        out = s - _cumulative_target(target, n)
    out[0] = 0.0
    return out


def pooled_d_grid_max(processes: Sequence[np.ndarray]):
    """Maximum of |sum_j f_j(k_j)| over the full product grid.

    Because the objective is additive across samples, the grid maximum
    separates: it is the larger of sum_j max f_j and sum_j max(-f_j),
    computable in O(sum_j N_j) instead of O(prod_j N_j).  Returns
    (value, multi-index); per-sample argmax ties break to the smallest
    index, and a tie between the two branches resolves to the positive one.
    """
    if not processes:
        raise ShapeError("no processes given")
    pos_total = 0.0
    neg_total = 0.0
    pos_idx = []
    neg_idx = []
    for f in processes:
        f = np.asarray(f, dtype=float)
        if f.ndim != 1 or len(f) < 1:
            raise ShapeError("each process must be a non-empty 1-d array")
        i_max = int(np.argmax(f))
        i_min = int(np.argmin(f))
        pos_total += f[i_max]
        neg_total += -f[i_min]
        pos_idx.append(i_max)
        neg_idx.append(i_min)
    if pos_total >= neg_total:
        return pos_total, tuple(pos_idx)
    return neg_total, tuple(neg_idx)


def per_sample_max_sq(process: np.ndarray, alpha: float):
    """Maximum squared standardized value max_k (f(k)/alpha)^2 with argmax."""
    if not alpha > 0.0:
        raise DegenerateLrvError(f"scale must be positive, got {alpha}")
    f = np.asarray(process, dtype=float)
    sq = (f / alpha) ** 2
    i = int(np.argmax(sq))
    return float(sq[i]), i
