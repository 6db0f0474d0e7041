"""The four covariance change-point tests.

Sum-of-squares statistics (one maximally selected CUSUM per sample,
standardized by its long-run variance, then summed) and pooled statistics
(grid maximum of the summed partial-sum deviations).  The "-breve"
variants recenter by the in-sample endpoint and therefore need no target
bilinear form; the plain variants require known targets.  A panel is a
list of K observation matrices, all projected through the one pair of
weight vectors passed with it; a ``TestSpec`` holds one test's settings.
Long-run variances are always estimated: from the tested data, or from
``learning_length`` leading rows of each sample, which are then not
tested.
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
        if self.kind not in limits.KINDS:
            raise ConfigurationError(f"unknown statistic kind {self.kind!r}")
        bridge = self.kind in limits.BRIDGE_KINDS
        if not bridge and self.targets is None:
            raise ConfigurationError(f"kind {self.kind!r} requires targets")
        if bridge and self.targets is not None:
            raise ConfigurationError(f"kind {self.kind!r} forbids targets")
        for j, target in enumerate(() if bridge else self.targets):
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
    """Prefix a refusal raised while handling sample j with ``sample j:``."""
    try:
        yield
    except DegenerateLrvError as exc:
        raise DegenerateLrvError(f"sample {j}: {exc}", sample_index=j) from exc
    except ShapeError as exc:
        raise ShapeError(f"sample {j}: {exc}") from exc


def _split_learning(samples, learning_length):
    """Carve ``learning_length`` leading rows off each sample.

    Returns the learning blocks (None without a length) and the stretches
    that enter the test.
    """
    if learning_length is None:
        return None, samples
    lengths = np.atleast_1d(learning_length).astype(int)
    if lengths.size not in (1, len(samples)):
        raise ConfigurationError(
            f"got {lengths.size} learning lengths for {len(samples)} samples")
    blocks, rest = [], []
    for j, (y, L) in enumerate(zip(samples, np.resize(lengths, len(samples)))):
        if not 0 < L < y.shape[0]:
            raise ConfigurationError(
                f"learning_length {L} invalid for sample {j} of size {y.shape[0]}"
            )
        blocks.append(y[:L])
        rest.append(y[L:])
    return blocks, rest


@dataclass
class PanelSummary:
    """Per-sample quantities that every statistic kind is a function of.

    ``projected[j]`` is sample j's tested stretch after projection and
    ``lrv[j]`` the estimate that standardizes it, positive and finite.
    """

    sizes: tuple
    projected: list
    lrv: list


def _project_finite(y, pair, j, stretch):
    """Project sample j's ``stretch`` and refuse non-finite products."""
    ps = sumproc.project(y, pair)
    bad = np.flatnonzero(~np.isfinite(ps.p))
    if bad.size:
        raise CovCusumError(
            f"sample {j}: non-finite projected product at {stretch} observation {bad[0]}")
    return ps


def _summarize(samples, pair, learning_length) -> PanelSummary:
    """Project each tested sample once and estimate its long-run variance.

    In-sample estimates reuse the tested projection; only a learning block
    is projected separately.  A non-finite projected product, or a stretch
    too short to estimate from, raises ``CovCusumError`` naming the sample.
    """
    blocks, data = _split_learning(samples, learning_length)
    projected, ests = [], []
    for j, y in enumerate(data):
        with _naming_sample(j):
            ps = _project_finite(y, pair, j, "tested")
            source = ps if blocks is None else _project_finite(blocks[j], pair, j, "learning")
            est = lrv.lrv_estimate(source.p)
            # Finite products can still overflow the kernel sum.
            if not 0.0 < est.alpha_sq < math.inf:
                raise DegenerateLrvError(f"degenerate long-run variance {est.alpha_sq!r}")
        projected.append(ps)
        ests.append(est)
    return PanelSummary(sizes=tuple(ps.n for ps in projected),
                        projected=projected, lrv=ests)


def _statistic(summary, spec):
    """Value of ``spec.kind`` on the summary, with per-sample argmax indices."""
    K = len(summary.sizes)
    targets = [None] * K if spec.targets is None else list(spec.targets)
    if len(targets) != K:
        raise ConfigurationError(f"got {len(targets)} targets for {K} samples")
    devs = []
    for j, (ps, t) in enumerate(zip(summary.projected, targets)):
        with _naming_sample(j):
            devs.append(sumproc.unscaled_deviation(ps, t))
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


def run_tests(panel, projection: sumproc.ProjectionPair, specs: Sequence[TestSpec],
              learning_length: Optional[Sequence[int]] = None, workers: int = 1) -> list:
    """Run several tests on one panel, projecting each sample once.

    ``panel`` is a list of K observation matrices (rows are time points),
    all projected through the one pair ``projection``.  ``learning_length``
    leading rows per sample (one int, or one per sample) estimate the
    long-run variance and are not tested; None estimates it in-sample.
    Returns one report per spec, equal to what ``run_test`` returns for
    it.  ``workers`` threads simulate a v kind's critical value; the
    reports do not depend on it.
    """
    if not isinstance(projection, sumproc.ProjectionPair):
        raise ConfigurationError(
            f"projection must be one ProjectionPair, got {type(projection).__name__}")
    samples = [np.asarray(s, dtype=float) for s in panel]
    summary = _summarize(samples, projection, learning_length)
    return [_evaluate(summary, spec, workers) for spec in specs]


def run_test(panel, projection: sumproc.ProjectionPair, spec: TestSpec,
             learning_length: Optional[Sequence[int]] = None, workers: int = 1) -> TestReport:
    """Run the test named by ``spec.kind`` on a K-sample panel; see ``run_tests``."""
    return run_tests(panel, projection, [spec], learning_length, workers)[0]
