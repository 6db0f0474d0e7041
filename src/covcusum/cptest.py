"""The four covariance change-point tests.

Sum-of-squares statistics (one maximally selected CUSUM per sample,
standardized by its long-run variance, then summed) and pooled statistics
(grid maximum of the summed partial-sum deviations).  The "-breve"
variants recenter by the in-sample endpoint and therefore need no target
bilinear form; the plain variants require known targets.  A panel is a
list of K product series p = (Yv)(Yw), one per sample, all projected by
the caller through one pair of weight vectors (``sumproc.project``); a
``TestSpec`` holds one test's settings, and ``TestSpec.law(K)`` is the null
law of its statistic for K samples.  Long-run variances are always
estimated: from the tested products, or from a learning series per
sample, projected through the same pair and not tested.  Refusals count
samples and observations from 1, as ``covcusum test`` numbers its files,
and a refusal about one sample keeps its 0-based ``sample_index``.

One pipeline serves one panel and a batch of R panels alike: sample j of
a batch is an (R, N_j) array whose row r is replication r's series, and
``run_batch`` tests every row at once.  It computes each sample's running
sums and long-run variance once per batch, and every spec reads them.  A
refusal about a learning series reads ``sample j: learning series: ...``.
``run_tests`` is the batch of one panel, so a replication tested in a
batch gets the report it gets alone, bit for bit.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from . import limits, lrv, sumproc
from .errors import ConfigurationError, CovCusumError, ShapeError


@dataclass
class TestSpec:
    """One test's settings, each read, or refused, when the spec is made.

    A plain kind (``q``, ``v``) compares sample j's running sums with k times
    its target, the in-control bilinear form v'Gamma_j(0)w
    (``simgen.ar1_bilinear_target``); the bridge kinds take no targets.
    """

    __test__ = False  # keep pytest from collecting this dataclass

    kind: str
    level: float = 0.95
    targets: Optional[Sequence] = None  # one real per sample, kept as a tuple of floats
    n_grid: int = limits.DEFAULT_N_GRID
    n_rep: Optional[int] = limits.DEFAULT_N_REP  # n_rep and seed: None if the law reads neither
    seed: Optional[int] = 0

    def __post_init__(self):
        self.n_grid, self.n_rep, self.seed = (law := self.law(1)).n_grid, law.n_rep, law.seed
        self.level = limits.check_level(self.level)
        bridge = self.kind in limits.BRIDGE_KINDS
        if bridge != (self.targets is None):
            raise ConfigurationError(
                f"kind {self.kind!r} {'forbids' if bridge else 'requires'} targets")
        if not bridge:  # read by position, so a mapping, a set, an iterator or a scalar is refused
            ordered = isinstance(self.targets, Sequence) or np.ndim(self.targets) == 1
            self.targets = limits.real_vector(self.targets, len(self.targets) if ordered else -1,
                                              "targets", -math.inf, math.inf,
                                              "one finite real per sample")

    def law(self, K: int) -> limits.NullLaw:
        """The null law of this test's statistic for K samples."""
        return limits.NullLaw(self.kind, K, self.n_grid, self.n_rep, self.seed)


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
    method: str  # how the critical value was obtained: "corrected" or "exact-mc"

    def to_dict(self):
        return asdict(self)

    def to_json(self, **kwargs):
        return json.dumps(self.to_dict(), **kwargs)


@contextlib.contextmanager
def _naming_sample(j, label=""):
    """Prefix a refusal raised while handling list index j with ``sample j + 1: label``."""
    try:
        yield
    except CovCusumError as exc:
        raise type(exc)(f"sample {j + 1}: {label}{exc}", sample_index=j) from exc


def _as_batch(panel, ndim=2, label=""):
    """Each series, real and ``ndim``-d or refused naming its sample, as an (R, N_j) array."""
    series = []
    for j, p in enumerate(panel):
        with _naming_sample(j, label):
            series.append(np.atleast_2d(limits.real_array(p, "product series", ndim)))
    return series


def _series(batch, label="", replications=None):
    """The batch's (R, N_j) product series as float arrays, each finite; R >= 1 for all,
    ``replications`` if given (a learning batch's: the tested batch's)."""
    series = _as_batch(batch, label=label)
    if not series:
        raise ConfigurationError("a panel needs at least one sample")
    if replications is not None and len(series[0]) != replications:
        raise ShapeError(f"{len(series[0])} learning replications, but the batch has "
                         f"{replications}")
    if not len(series[0]):
        raise ShapeError("a batch needs at least one replication")
    for j, p in enumerate(series):
        with _naming_sample(j, label):
            if len(p) != len(series[0]):
                raise ShapeError(f"{len(p)} replications, but sample 1 has {len(series[0])}")
            if not (finite := np.isfinite(p)).all():
                raise CovCusumError(
                    f"non-finite product at observation {np.argmin(finite) % p.shape[1] + 1}")
    return series


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused below
def _statistic(sums, sizes, ests, spec):
    """Values of ``spec.kind``, (R,), with (R, K) argmax indices, from each sample's
    (R, N_j + 1) running sums and the long-run variance estimates that standardize them.

    A value that overflows is refused: by its sample if that sample's squared
    standardized maximum (the sum-of-squares kinds) or its deviation (the pooled
    kinds) does, else by its kind.  A bridge kind refuses a sample of one
    observation, whose bridge is identically zero.
    """
    K = len(sizes)
    targets = [None] * K if spec.targets is None else spec.targets
    if len(targets) != K:
        raise ConfigurationError(f"got {len(targets)} targets for {K} samples")
    pooled = spec.kind in limits.POOLED_KINDS
    root_total = math.sqrt(sum(sizes))

    def scaled_deviations():
        # One (R, N_j + 1) deviation at a time, scaled in place, so that a
        # batch holds few such arrays at once.
        for j, (s, t, n) in enumerate(zip(sums, targets, sizes)):
            with _naming_sample(j):
                if t is None and n == 1:
                    raise ShapeError("a bridge needs at least 2 observations, got 1")
                f = sumproc.unscaled_deviation(s, t)
            f /= root_total if pooled else math.sqrt(n)
            yield f

    if pooled:
        stat, argmax = sumproc.pooled_d_grid_max(scaled_deviations())
        if not np.isfinite(stat).all():  # scan for the sample at fault on this path only
            for j, f in enumerate(scaled_deviations()):
                if not np.isfinite(f).all():
                    raise CovCusumError(f"sample {j + 1}: deviation overflows", sample_index=j)
    else:
        stat, argmax = 0.0, []
        for j, (f, est) in enumerate(zip(scaled_deviations(), ests)):
            val, k = sumproc.per_sample_max_sq(f, np.sqrt(est.alpha_sq))
            if not np.isfinite(val).all():  # the maximum of a non-finite row is not finite
                raise CovCusumError(f"sample {j + 1}: squared standardized deviation "
                                    "overflows", sample_index=j)
            stat = stat + val
            argmax.append(k)
        argmax = np.stack(argmax, axis=-1)
    if not np.isfinite(stat).all():
        raise CovCusumError(f"the {spec.kind} statistic overflows")
    return stat, argmax


@dataclass
class BatchReport:
    """One test on a batch of R panels: entry r of each array belongs to panel r.

    ``alpha_sq``, ``bandwidth`` and ``argmax_k`` are (R, K) arrays.
    """

    statistic: np.ndarray
    critical_value: np.ndarray
    reject: np.ndarray
    alpha_sq: np.ndarray
    bandwidth: np.ndarray
    argmax_k: np.ndarray
    spec: TestSpec
    sample_sizes: tuple
    law: limits.NullLaw  # whose quantiles are the critical values

    def report(self, r: int) -> TestReport:
        """Panel r's ``TestReport``."""
        infos = [PerSampleInfo(alpha_sq=float(a), bandwidth=float(b), argmax_k=int(k))
                 for a, b, k in zip(self.alpha_sq[r], self.bandwidth[r], self.argmax_k[r])]
        return TestReport(statistic=float(self.statistic[r]),
                          critical_value=float(self.critical_value[r]),
                          level=self.spec.level, reject=bool(self.reject[r]),
                          per_sample=infos, sample_sizes=self.sample_sizes,
                          kind=self.spec.kind, seed=self.law.seed, method=self.law.method)


def run_batch(batch, specs: Sequence[TestSpec], learning=None) -> list:
    """Run several tests on every panel of a batch, summarizing each sample once.

    ``batch`` holds one (R, N_j) array per sample, row r of which is
    panel r's product series.  ``learning`` holds one (R, L_j) array per
    sample, whose rows estimate the long-run variances and are not
    tested; None estimates them in-sample.  Returns one ``BatchReport``
    per spec.
    """
    tested = _series(batch)
    if learning is not None and len(learning) != len(tested):
        raise ConfigurationError(f"got {len(learning)} learning series for {len(tested)} samples")
    label = "" if learning is None else "learning series: "
    learning = tested if learning is None else _series(learning, label, len(tested[0]))
    ests = []
    for j, p in enumerate(learning):
        with _naming_sample(j, label):
            ests.append(lrv.lrv_estimates(p))
    sizes = tuple(p.shape[1] for p in tested)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        sums = [sumproc.kahan_cumsum(p) for p in tested]
    for j, s in enumerate(sums):
        if not np.isfinite(s[:, -1]).all():  # a running sum, once not finite, stays so
            raise CovCusumError(f"sample {j + 1}: running sums overflow", sample_index=j)
    R, K = len(tested[0]), len(sizes)
    alpha_sq = np.stack([e.alpha_sq for e in ests], axis=-1)
    bandwidth = np.stack([e.bandwidth for e in ests], axis=-1)
    reports = []
    for spec in specs:
        stat, argmax = _statistic(sums, sizes, ests, spec)  # refuses an empty sample first
        # Row r weights replication r's pooled law: c_j = alpha_j sqrt(N_j / N).
        weights = (np.sqrt(alpha_sq) * np.sqrt([n / sum(sizes) for n in sizes])
                   if spec.kind in limits.POOLED_KINDS else None)
        law = spec.law(K)
        crit = np.full(R, law.quantile(spec.level, weights))
        reports.append(BatchReport(statistic=stat, critical_value=crit, reject=stat > crit,
                                   alpha_sq=alpha_sq, bandwidth=bandwidth, argmax_k=argmax,
                                   spec=spec, sample_sizes=sizes, law=law))
    return reports


def run_tests(panel, specs: Sequence[TestSpec], learning=None) -> list:
    """Run several tests on one panel, summarizing each sample once.

    ``panel`` is a list of K product series, ``sumproc.project`` of each
    sample through one pair of weight vectors, and ``learning`` None or
    K more, projected through the same pair, that estimate the long-run
    variances instead; they are tested as a batch of one
    (``run_batch``).  Returns one report per spec, equal to what
    ``run_test`` returns for it.
    """
    learning = None if learning is None else _as_batch(learning, 1, "learning series: ")
    return [b.report(0) for b in run_batch(_as_batch(panel, 1), specs, learning)]


def run_test(panel, spec: TestSpec, learning=None) -> TestReport:
    """Run the test named by ``spec.kind`` on a K-sample panel; see ``run_tests``."""
    return run_tests(panel, [spec], learning)[0]
