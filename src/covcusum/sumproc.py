"""Projected product series, their running sums and deviations, grid maxima.

The monitored scalar per observation is p_i = (v'Y_i)(w'Y_i); its running
sums S_k reproduce the bilinear form of the unnormalized sample covariance
partial sums.  No d x d matrix is ever materialized: projecting first costs
O(N d) instead of O(N d^2) and gives identical values by bilinearity.
Each row is reduced on its own, so a sample streamed through ``project``
in row blocks gives the bits of the whole sample projected at once.
``unscaled_deviation`` of S = ``kahan_cumsum(project(...))`` gives the
deviation from a target, or the bridge.

A batch of R replications of a sample travels as one array with a
leading replication axis: ``project`` maps an (N, R, d) batch to (R, N)
product series, and the running sums, deviations and maxima below work
along the last axis, so row r carries the bits replication r would have
on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DegenerateLrvError, ShapeError
from .limits import real_array


def kahan_cumsum(values: np.ndarray) -> np.ndarray:
    """Compensated running sums with a leading zero: out[..., k] = sum(values[..., :k]).

    The sequential running sums of ``np.cumsum`` are corrected by the
    running sum of each step's exact rounding error (TwoSum), so every
    prefix is as accurate as if summed in twice the working precision
    (Ogita, Rump & Oishi 2005, Sum2).
    """
    values = real_array(values, "series", (1, 2))
    out = np.zeros(values.shape[:-1] + (values.shape[-1] + 1,))
    np.cumsum(values, axis=-1, out=out[..., 1:])
    prev, total = out[..., :-1], out[..., 1:]
    added = total - prev
    err = total - added
    np.subtract(prev, err, out=err)  # prev - (total - added), in place to bound a batch's memory
    np.subtract(values, added, out=added)
    err += added
    total += np.cumsum(err, axis=-1, out=added)
    return out


@dataclass(frozen=True)
class ProjectionPair:
    """A pair of weight vectors with their recorded l1 norms.

    The vectors are d-vectors, or (R, d) stacks whose row r projects
    replication r of a batch, with one norm per row.
    """

    v: np.ndarray
    w: np.ndarray
    l1_v: float
    l1_w: float

    @classmethod
    def from_vectors(cls, v, w=None):
        v = real_array(v, "projection vector", (1, 2))
        w = v if w is None else real_array(w, "projection vector", (1, 2))
        if v.shape != w.shape:
            raise ShapeError(
                f"v and w must be 1-d, or (R, d) stacks, of equal shape, got {v.shape}, {w.shape}")
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(w))):
            raise ShapeError("projection vectors must be finite")
        l1_v = np.abs(v).sum(axis=-1)
        l1_w = np.abs(w).sum(axis=-1)
        if np.any(l1_v == 0.0) or np.any(l1_w == 0.0):
            raise ShapeError("projection vectors must not be all-zero")
        if v.ndim == 1:
            l1_v, l1_w = float(l1_v), float(l1_w)
        return cls(v=v, w=w, l1_v=l1_v, l1_w=l1_w)

    @property
    def d(self):
        return self.v.shape[-1]


def project(sample: np.ndarray, pair: ProjectionPair) -> np.ndarray:
    """Product series p = (Yv) * (Yw) of one observation matrix (rows=time).

    A batch of R replications is an (N, R, d) array, such as a sample's
    view in a row block of the recursion, projected through (R, d) stacks
    into an (R, N) array whose row r is replication r's series.  Each
    row's dot products are reduced within that row (``einsum``, not
    BLAS, whose blocking depends on the whole matrix), so projecting a
    sample in row blocks and concatenating, or in a batch, gives the
    same bits as projecting it whole and alone.  An overflow is left to
    ``cptest``, which refuses a non-finite product naming its observation.
    """
    sample = real_array(sample, "sample")
    if sample.shape[1:] != pair.v.shape:
        raise ShapeError(f"a sample of shape {sample.shape} does not fit projection vectors "
                         f"of shape {pair.v.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        # Reduced in the sample's memory order, then laid out one series per row.
        yv = np.einsum("n...d,...d->n...", sample, pair.v, out=np.empty(sample.shape[:-1]))
        yw = yv if pair.w is pair.v else np.einsum("n...d,...d->n...", sample, pair.w)
        return np.ascontiguousarray(np.moveaxis(np.multiply(yv, yw, out=yv), 0, -1))


def unscaled_deviation(s: np.ndarray, target=None) -> np.ndarray:
    """Partial-sum deviation S_k - k * target, or the bridge S_k - (k/N) S_N.

    ``s`` = S_0..S_N along its last axis, from ``kahan_cumsum``; one real
    ``target`` serves every row of a batch.  Length N + 1 for k = 0..N,
    not yet scaled: the sum-of-squares kinds divide it by sqrt(N), the
    pooled kinds by sqrt(N_total).  With ``target=None`` the deviation is
    target-free and both endpoints are zero bit-exactly; otherwise entry 0
    is exactly zero.
    """
    s = real_array(s, "partial sums", (1, 2))
    n = s.shape[-1] - 1
    if n < 1:
        raise ShapeError("empty sample")
    if target is None:
        out = s - (np.arange(n + 1) / n) * s[..., n:]
        out[..., n] = 0.0
    else:
        out = s - real_array(target, "target", 0) * np.arange(n + 1)
    out[..., 0] = 0.0
    return out


def pooled_d_grid_max(processes: Iterable[np.ndarray]):
    """Maximum of |sum_j f_j(k_j)| over the full product grid, one process at a time.

    Because the objective is additive across samples, the grid maximum
    separates: it is the larger of sum_j max f_j and sum_j max(-f_j),
    computable in O(sum_j N_j) instead of O(prod_j N_j).  Returns
    (value, multi-index); per-sample argmax ties break to the smallest
    index, and a tie between the two branches resolves to the positive one.
    For (R, N_j + 1) batches the value is an (R,) array and the indices
    an (R, K) one.
    """
    pos_total = 0.0
    neg_total = 0.0
    pos_idx = []
    neg_idx = []
    for f in processes:
        if (f := real_array(f, "process", (1, 2))).shape[-1] < 1:
            raise ShapeError("each process must be a non-empty 1-d array or (R, N) batch")
        i_max = np.argmax(f, axis=-1)
        i_min = np.argmin(f, axis=-1)
        pos_total = pos_total + _take(f, i_max)
        neg_total = neg_total - _take(f, i_min)
        pos_idx.append(i_max)
        neg_idx.append(i_min)
    if not pos_idx:
        raise ShapeError("no processes given")
    pos = pos_total >= neg_total
    value = np.where(pos, pos_total, neg_total)
    idx = np.where(pos[..., None], np.stack(pos_idx, axis=-1), np.stack(neg_idx, axis=-1))
    if value.ndim == 0:
        return float(value), tuple(int(i) for i in idx)
    return value, idx


def per_sample_max_sq(process: np.ndarray, alpha):
    """Maximum squared standardized value max_k (f(k)/alpha)^2 with argmax.

    For an (R, N + 1) batch ``alpha`` holds one scale per row, and the
    values and argmax indices are (R,) arrays.
    """
    if (process := real_array(process, "process", (1, 2))).shape[-1] < 1:
        raise ShapeError("the process must be a non-empty 1-d array or (R, N) batch")
    alpha = real_array(alpha, "scale", process.ndim - 1)
    bad = ~((alpha > 0.0) & (alpha < np.inf))
    if bad.any():
        raise DegenerateLrvError(f"scale must be positive and finite, got {float(alpha[bad][0])}")
    sq = np.divide(process, alpha[..., None])
    sq *= sq
    i = np.argmax(sq, axis=-1)
    if sq.ndim == 1:
        return float(sq[i]), int(i)
    return _take(sq, i), i


def _take(f, i):
    """f[..., i] with one index per row."""
    return np.take_along_axis(f, i[..., None], axis=-1)[..., 0]
