"""The four covariance change-point tests.

Sum-of-squares statistics (one maximally selected CUSUM per sample,
standardized by its long-run variance, then summed) and pooled statistics
(grid maximum of the summed partial-sum deviations).  The "-breve"
variants recenter by the in-sample endpoint and therefore need no target
bilinear form; the plain variants require known targets.  A panel is a
list of K product series p = (Yv)(Yw), one per sample, all projected by
the caller through one pair of weight vectors (``sumproc.project``); a
``TestSpec`` holds one test's settings.  Long-run variances are always
estimated: from the tested products, or from ``learning_length`` leading
products of each series, which are then not tested.  Refusals count
samples and observations from 1, as ``covcusum test`` numbers its files,
and a refusal about one sample keeps its 0-based ``sample_index``.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from . import limits, lrv, sumproc
from .errors import ConfigurationError, CovCusumError, DegenerateLrvError, ShapeError


@dataclass
class TestSpec:
    __test__ = False  # keep pytest from collecting this dataclass

    kind: str
    level: float = 0.95
    targets: Optional[Sequence] = None  # one float or length-N_j array per sample
    n_grid: int = limits.DEFAULT_N_GRID
    n_rep: int = limits.DEFAULT_N_REP
    seed: int = 0

    def __post_init__(self):
        limits.check_settings(self.kind, self.level, self.n_grid, self.n_rep, self.seed)
        bridge = self.kind in limits.BRIDGE_KINDS
        if not bridge and self.targets is None:
            raise ConfigurationError(f"kind {self.kind!r} requires targets")
        if bridge and self.targets is not None:
            raise ConfigurationError(f"kind {self.kind!r} forbids targets")
        for j, target in enumerate(() if bridge else self.targets, start=1):
            if not np.all(np.isfinite(target)):
                raise ConfigurationError(f"sample {j}: target is not finite")


@dataclass
class PerSampleInfo:
    alpha_sq: float
    bandwidth: float
    argmax_k: int


@dataclass
class TestReport:
    statistic: float
    critical_value: float
    level: float
    reject: bool
    per_sample: list
    sample_sizes: tuple
    kind: str
    seed: Optional[int]  # None when the critical value used no seed
    method: str  # how the critical value was obtained: "corrected" or "mc"

    def to_dict(self):
        return asdict(self)

    def to_json(self, **kwargs):
        return json.dumps(self.to_dict(), **kwargs)


@contextlib.contextmanager
def _naming_sample(j):
    """Prefix a refusal raised while handling list index j with ``sample j + 1:``."""
    try:
        yield
    except (DegenerateLrvError, ShapeError) as exc:
        raise type(exc)(f"sample {j + 1}: {exc}", sample_index=j) from exc


def _series(panel):
    """The panel's product series as float arrays; each must be 1-d and finite."""
    series = [np.asarray(p, dtype=float) for p in panel]
    for j, p in enumerate(series):
        if p.ndim != 1:
            raise ShapeError(f"sample {j + 1}: expected a 1-d product series, "
                             f"got ndim={p.ndim}", sample_index=j)
        bad = np.flatnonzero(~np.isfinite(p))
        if bad.size:
            raise CovCusumError(f"sample {j + 1}: non-finite product at observation "
                                f"{bad[0] + 1}", sample_index=j)
    return series


def _split_learning(series, learning_length):
    """Split ``learning_length`` leading products off each series.

    Returns the stretches that estimate the long-run variances and those
    that enter the test; without a length they are the same.
    """
    if learning_length is None:
        return series, series
    lengths = np.atleast_1d(learning_length).astype(int)
    if lengths.size not in (1, len(series)):
        raise ConfigurationError(
            f"got {lengths.size} learning lengths for {len(series)} samples")
    learning, tested = [], []
    for j, (p, L) in enumerate(zip(series, np.resize(lengths, len(series)))):
        if not 0 < L < len(p):
            raise ConfigurationError(
                f"learning_length {L} invalid for sample {j + 1} of size {len(p)}",
                sample_index=j)
        learning.append(p[:L])
        tested.append(p[L:])
    return learning, tested


@dataclass
class PanelSummary:
    """Per-sample quantities that every statistic kind is a function of.

    ``sums[j]`` holds the running sums of sample j's tested products and
    ``lrv[j]`` the estimate that standardizes them, positive and finite.
    """

    sizes: tuple
    sums: list
    lrv: list


def _summarize(panel, learning_length) -> PanelSummary:
    """Running sums of each tested stretch and its long-run variance.

    A series that is not 1-d or not finite, or a stretch too short to
    estimate from, raises ``CovCusumError`` naming the sample.
    """
    learning, tested = _split_learning(_series(panel), learning_length)
    ests = []
    for j, p in enumerate(learning):
        with _naming_sample(j):
            ests.append(lrv.lrv_estimate(p))
    return PanelSummary(sizes=tuple(len(p) for p in tested),
                        sums=[sumproc.kahan_cumsum(p) for p in tested], lrv=ests)


def _statistic(summary, spec):
    """Value of ``spec.kind`` on the summary, with per-sample argmax indices."""
    K = len(summary.sizes)
    targets = [None] * K if spec.targets is None else list(spec.targets)
    if len(targets) != K:
        raise ConfigurationError(f"got {len(targets)} targets for {K} samples")
    devs = []
    for j, (s, t) in enumerate(zip(summary.sums, targets)):
        with _naming_sample(j):
            devs.append(sumproc.unscaled_deviation(s, t))
    if spec.kind in limits.POOLED_KINDS:
        root_total = math.sqrt(sum(summary.sizes))
        return sumproc.pooled_d_grid_max([f / root_total for f in devs])
    stat = 0.0
    argmax = []
    for f, n, est in zip(devs, summary.sizes, summary.lrv):
        val, k = sumproc.per_sample_max_sq(f / math.sqrt(n), math.sqrt(est.alpha_sq))
        stat += val
        argmax.append(k)
    return stat, argmax


def _evaluate(summary, spec, workers) -> TestReport:
    stat, argmax = _statistic(summary, spec)
    alphas = kappas = None
    if spec.kind in limits.POOLED_KINDS:
        n_total = sum(summary.sizes)
        alphas = tuple(math.sqrt(e.alpha_sq) for e in summary.lrv)
        kappas = tuple(n / n_total for n in summary.sizes)
    crit = limits.critical_value(limits.CritValRequest(
        kind=spec.kind, K=len(summary.sizes), level=spec.level,
        alpha_weights=alphas, kappa=kappas,
        n_grid=spec.n_grid, n_rep=spec.n_rep, seed=spec.seed), workers)
    method = limits.method_of(spec.kind)
    infos = [PerSampleInfo(alpha_sq=e.alpha_sq, bandwidth=e.bandwidth, argmax_k=k)
             for e, k in zip(summary.lrv, argmax)]
    return TestReport(statistic=float(stat), critical_value=float(crit),
                      level=spec.level, reject=bool(stat > crit),
                      per_sample=infos, sample_sizes=summary.sizes,
                      kind=spec.kind, seed=spec.seed if method == "mc" else None,
                      method=method)


def run_tests(panel, specs: Sequence[TestSpec],
              learning_length: Optional[Sequence[int]] = None, workers: int = 1) -> list:
    """Run several tests on one panel, summarizing each sample once.

    ``panel`` is a list of K product series, ``sumproc.project`` of each
    sample through one pair of weight vectors.  ``learning_length``
    leading products per series (one int, or one per sample) estimate the
    long-run variance and are not tested; None estimates it in-sample.
    Returns one report per spec, equal to what ``run_test`` returns for
    it.  ``workers`` threads simulate a v kind's critical value; the
    reports do not depend on it.
    """
    summary = _summarize(panel, learning_length)
    return [_evaluate(summary, spec, workers) for spec in specs]


def run_test(panel, spec: TestSpec, learning_length: Optional[Sequence[int]] = None,
             workers: int = 1) -> TestReport:
    """Run the test named by ``spec.kind`` on a K-sample panel; see ``run_tests``."""
    return run_tests(panel, [spec], learning_length, workers)[0]
