import collections
import itertools
import math
import re

import numpy as np
import pytest

from covcusum import cptest, harness, limits, lrv, simgen, sumproc
from covcusum.cptest import TestSpec
from covcusum.errors import ConfigurationError, CovCusumError, DegenerateLrvError, ShapeError
from covcusum.sumproc import ProjectionPair
from panels import products

SMALL = dict(n_grid=500, n_rep=20_000)

PAIR_1D = ProjectionPair.from_vectors([1.0])
PAIR_2D = ProjectionPair.from_vectors([0.5, 0.5])


def tiny_panel():
    # One sample, products p = (1, 4), running sums (0, 1, 5).
    return [np.array([[1.0], [2.0]])]


def random_panel(K, n, d, seed):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((n, d)) for _ in range(K)]


def fix_scales(monkeypatch, *alpha_sq):
    """Patch ``lrv_estimates`` to give each sample the scales ``alpha_sq`` in turn, cycling."""
    scales = itertools.cycle(alpha_sq)
    monkeypatch.setattr(lrv, "lrv_estimates", lambda p: lrv.LrvEstimate(
        alpha_sq=np.full(len(p), next(scales)), bandwidth=np.zeros(len(p)),
        n_lags=np.zeros(len(p), dtype=int)))


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            TestSpec(kind="w")

    @pytest.mark.parametrize("kind, bad, match", [
        ("v-breve", dict(level=1.5), "level"), ("q-breve", dict(level=0.0), "level"),
        ("v-breve", dict(n_grid=5), "n_grid"), ("q-breve", dict(n_grid=99), "n_grid"),
        ("v-breve", dict(n_rep=3), "n_rep"), ("v-breve", dict(seed=-1), "seed"),
        ("q-breve", dict(n_grid=1000.5), "n_grid"), ("v-breve", dict(seed=True), "seed"),
        # A level that is not a real used to raise a bare TypeError.
        ("q-breve", dict(level="0.5"), r"level must be in \(0, 1\), got '0.5'"),
        ("v-breve", dict(level=None), r"level must be in \(0, 1\), got None"),
        ("q-breve", dict(level=[0.5]), r"level must be in \(0, 1\), got \[0.5\]"),
        ("v-breve", dict(level=0.95 + 0j), r"level must be in \(0, 1\), got \(0.95\+0j\)")])
    def test_critical_value_settings_refused_at_construction(self, kind, bad, match):
        with pytest.raises(ConfigurationError, match=match):
            TestSpec(kind=kind, **bad)

    def test_level_read_as_a_float(self):
        assert type(TestSpec(kind="q-breve", level=np.float32(0.5)).level) is float

    def test_n_rep_read_by_mc_kinds_only(self):
        # A q kind's law reads neither n_rep nor seed, so the spec holds None for both,
        # and a seed it would refuse is not read either, as by the law.
        spec = TestSpec(kind="q-breve", n_rep=2.5, seed=9)
        assert (spec.n_rep, spec.seed) == (None, None) and spec.law(3).method == "corrected"
        assert TestSpec(kind="q", targets=[1.0], seed=-1).seed is None
        spec = TestSpec(kind="v-breve", n_rep=3000.0, seed=9)
        assert (spec.n_rep, spec.seed) == (3000, 9) and type(spec.n_rep) is int
        assert spec.law(3) == limits.NullLaw("v-breve", 3, spec.n_grid, 3000, 9)

    def test_plain_kinds_require_targets(self):
        for kind in ("q", "v"):
            with pytest.raises(ConfigurationError, match="targets"):
                TestSpec(kind=kind)

    def test_breve_kinds_forbid_targets(self):
        for kind in ("q-breve", "v-breve"):
            with pytest.raises(ConfigurationError, match="targets"):
                TestSpec(kind=kind, targets=[1.0])

    @pytest.mark.parametrize("kind", ["q", "v"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, np.array([1.0, np.nan]),
                                     np.array([-np.inf, 1.0])],
                             ids=["float-nan", "float-inf", "array-nan", "array-inf"])
    def test_non_finite_targets_refused(self, kind, bad):
        with pytest.raises(ConfigurationError,
                           match=r"^targets must be one finite real per sample, got \[1.0, "):
            TestSpec(kind=kind, targets=[1.0, bad])

    @pytest.mark.parametrize("kind", ["q", "v"])
    @pytest.mark.parametrize("targets, match", [
        (["x"], "got ['x']"),
        ([1.0, None], "got [1.0, None]"),
        (5, "got 5"),
        (np.array(5.0), "got array(5.)")],
        ids=["string", "none", "scalar", "0-d-array"])
    def test_non_real_targets_refused(self, kind, targets, match):
        # Refused when the spec is made, not by numpy's TypeError or enumerate's.
        with pytest.raises(ConfigurationError, match=re.escape(
                f"targets must be one finite real per sample, {match}")):
            TestSpec(kind=kind, targets=targets)

    @pytest.mark.parametrize("kind", ["q", "v"])
    @pytest.mark.parametrize("targets", [{0: 5.0}, {5.0}, (t for t in [5.0])],
                             ids=["mapping", "set", "iterator"])
    def test_unordered_targets_refused(self, kind, targets):
        # A mapping was read by its keys (target 0, not 5.0), a set has no sample
        # order, and an iterator was used up here, so the test then saw no target.
        with pytest.raises(ConfigurationError,
                           match="^targets must be one finite real per sample, got "):
            TestSpec(kind=kind, targets=targets)

    @pytest.mark.parametrize("kind", ["q", "v"])
    def test_ordered_targets_give_the_same_bits(self, kind):
        panel = [np.random.default_rng(3).normal(5.0, 1.0, 200)]
        reports = [cptest.run_test(panel, TestSpec(kind=kind, targets=t, n_grid=500,
                                                   n_rep=2000, seed=1)).to_dict()
                   for t in ([5.0], (5.0,), np.array([5.0]), [5], [np.float32(5.0)])]
        assert all(r == reports[0] for r in reports)

    @pytest.mark.parametrize("kind", ["q", "v"])
    def test_targets_kept_as_a_tuple_of_floats(self, kind):
        spec = TestSpec(kind=kind, targets=np.array([1, 2]))
        assert spec.targets == (1.0, 2.0) and all(type(t) is float for t in spec.targets)

    @pytest.mark.parametrize("kind", ["q", "v"])
    @pytest.mark.parametrize("container", [list, np.array], ids=["list", "array"])
    def test_targets_changed_after_the_spec_leave_its_report(self, kind, container):
        # The spec held the caller's targets and read them when the test ran, so a
        # target changed to nan afterwards made the statistic nan and the test accept.
        panel = [np.random.default_rng(8).normal(1.0, 1.0, 150) for _ in range(2)]
        targets = container([1.0, 1.0])
        spec = TestSpec(kind=kind, targets=targets, n_grid=500, n_rep=2000, seed=1)
        before = cptest.run_test(panel, spec).to_dict()
        targets[1] = np.nan
        assert cptest.run_test(panel, spec).to_dict() == before
        assert math.isfinite(before["statistic"])

    @pytest.mark.parametrize("kind", ["q", "v"])
    @pytest.mark.parametrize("bad", [np.ones(3), np.ones((2, 3)), [[1.0, 2.0]], np.array(2.0)],
                             ids=["vector", "array", "nested", "0-d-array"])
    def test_matrix_target_refused_when_spec_made(self, kind, bad):
        # A target is one real per sample: a length-N_j target sequence was read as
        # the running sums of time-varying targets, and a 2-d one refused when the test ran.
        with pytest.raises(ConfigurationError, match=r"^targets must be one finite real per "
                                                     r"sample, got \[1.0, "):
            TestSpec(kind=kind, targets=[1.0, bad])

    @pytest.mark.parametrize("kind", limits.KINDS)
    def test_matrix_panel_refused_naming_sample(self, kind):
        # The tests take product series; a panel of observation matrices
        # is refused, whatever the kind, naming the sample (counted from 1).
        targets = None if kind in limits.BRIDGE_KINDS else [1.0, 1.0]
        panel = [np.array([1.0, 4.0]), np.array([[1.0], [2.0]])]
        with pytest.raises(ShapeError, match="sample 2: expected a 1-d product series"):
            cptest.run_test(panel, TestSpec(kind=kind, targets=targets))


    @pytest.mark.parametrize("run, error, match, index", [
        (lambda spec: cptest.run_test([], spec), ConfigurationError,
         "a panel needs at least one sample", None),
        (lambda spec: cptest.run_batch([np.zeros(5)], [spec]), ShapeError,
         "sample 1: expected a 2-d product series, got ndim=1", 0),
        (lambda spec: cptest.run_test([np.arange(1.0, 7.0), [1, 2, "x", 4, 5, 6]], spec),
         ShapeError, "sample 2: not a numeric product series: could not convert", 1),
        (lambda spec: cptest.run_test([np.arange(1.0, 7.0)] * 2, spec,
                                      [[1, 2, "x", 4, 5, 6], np.arange(1.0, 7.0)]),
         ShapeError, "sample 1: learning series: not a numeric product series: could not convert",
         0),
        (lambda spec: cptest.run_batch([np.ones((2, 6)), [[1, 2, 3, "x", 5, 6]] * 2], [spec]),
         ShapeError, "sample 2: not a numeric product series: could not convert", 1),
        # A complex series used to be tested on its real part, with a ComplexWarning.
        (lambda spec: cptest.run_test([np.arange(1.0, 7.0) + 5j, np.arange(1.0, 7.0)], spec),
         ShapeError, "^sample 1: not a real product series$", 0),
        (lambda spec: cptest.run_test([np.arange(1.0, 7.0), [1, 2, 3 + 1j, 4, 5, 6]], spec),
         ShapeError, "^sample 2: not a real product series$", 1),
        # A batch of no replications used to fail in lrv_estimates with numpy's ValueError.
        (lambda spec: cptest.run_batch([np.zeros((0, 50)), np.zeros((0, 60))], [spec]),
         ShapeError, "^a batch needs at least one replication$", None)],
        ids=["empty-panel", "1-d-in-batch", "non-numeric", "non-numeric-learning",
             "non-numeric-in-batch", "complex", "complex-list", "no-replications"])
    def test_malformed_panel_refused(self, run, error, match, index):
        # A non-numeric series is refused naming its sample, not by numpy's bare ValueError.
        with pytest.raises(error, match=match) as exc:
            run(TestSpec(kind="q-breve", seed=5, **SMALL))
        assert exc.value.sample_index == index


class TestHandValues:
    def test_q_breve_tiny(self, monkeypatch):
        # Bridge (0, -1.5/sqrt(2), 0) with unit scale: max square 1.125.
        fix_scales(monkeypatch, 1.0)
        spec = TestSpec(kind="q-breve", seed=1, **SMALL)
        rep = cptest.run_test(products(tiny_panel(), PAIR_1D), spec)
        assert rep.statistic == pytest.approx(1.125, rel=1e-12)
        assert rep.per_sample[0].argmax_k == 1
        assert rep.sample_sizes == (2,)

    def test_v_breve_tiny(self, monkeypatch):
        fix_scales(monkeypatch, 1.0)
        spec = TestSpec(kind="v-breve", seed=1, **SMALL)
        rep = cptest.run_test(products(tiny_panel(), PAIR_1D), spec)
        assert rep.statistic == pytest.approx(1.5 / math.sqrt(2), rel=1e-12)

    def test_q_matches_q_breve_when_target_is_mean(self, monkeypatch):
        # Centering at the in-sample mean product reproduces the bridge.
        fix_scales(monkeypatch, 1.0)
        spec_q = TestSpec(kind="q", targets=[2.5], seed=1, **SMALL)
        rep = cptest.run_test(products(tiny_panel(), PAIR_1D), spec_q)
        assert rep.statistic == pytest.approx(1.125, rel=1e-12)

    def test_v_with_zero_target(self, monkeypatch):
        # Plain pooled deviation from target 0: max |s_k| / sqrt(2) = 5/sqrt(2).
        fix_scales(monkeypatch, 1.0)
        spec = TestSpec(kind="v", targets=[0.0], seed=1, **SMALL)
        rep = cptest.run_test(products(tiny_panel(), PAIR_1D), spec)
        assert rep.statistic == pytest.approx(5.0 / math.sqrt(2), rel=1e-12)


class TestInvariances:
    def test_q_breve_invariant_under_projection_scaling(self):
        panel = random_panel(2, 80, 3, seed=5)
        v = np.array([0.2, 0.5, 0.3])
        spec = TestSpec(kind="q-breve", seed=2, **SMALL)
        ra = cptest.run_test(products(panel, ProjectionPair.from_vectors(v)), spec)
        rb = cptest.run_test(products(panel, ProjectionPair.from_vectors(7.0 * v)), spec)
        # The products scale by 49 and alpha^2 by 49^2; the ratio cancels.
        assert rb.statistic == pytest.approx(ra.statistic, rel=1e-10)

    def test_v_breve_argmax_invariant_under_projection_scaling(self):
        panel = random_panel(3, 40, 2, seed=6)
        v = np.array([0.6, 0.4])
        spec = TestSpec(kind="v-breve", seed=2, **SMALL)
        ra = cptest.run_test(products(panel, ProjectionPair.from_vectors(v)), spec)
        rb = cptest.run_test(products(panel, ProjectionPair.from_vectors(3.0 * v)), spec)
        assert [s.argmax_k for s in ra.per_sample] == \
               [s.argmax_k for s in rb.per_sample]

    def test_decision_consistency(self):
        panel = random_panel(2, 100, 2, seed=7)
        spec = TestSpec(kind="q-breve", seed=3, **SMALL)
        rep = cptest.run_test(products(panel, PAIR_2D), spec)
        assert rep.reject == (rep.statistic > rep.critical_value)
        assert rep.critical_value > 0


def brute_force_v_breve(samples, pair):
    """Independent route to the pooled bridge statistic on small panels."""
    n_total = sum(y.shape[0] for y in samples)
    procs = []
    for y in samples:
        s = np.concatenate([[0.0], np.cumsum((y @ pair.v) * (y @ pair.w))])
        n = len(s) - 1
        procs.append(s - np.arange(n + 1) / n * s[n])
    best = 0.0
    for idx in itertools.product(*[range(len(f)) for f in procs]):
        best = max(best, abs(sum(f[i] for f, i in zip(procs, idx))))
    return best / math.sqrt(n_total)


class TestBruteForceEquivalence:
    def test_v_breve_matches_brute_force(self, monkeypatch):
        fix_scales(monkeypatch, 1.0)
        rng = np.random.default_rng(11)
        pair = ProjectionPair.from_vectors([0.7, 0.3])
        for trial in range(25):
            K = int(rng.integers(1, 4))
            samples = [rng.standard_normal((int(rng.integers(5, 16)), 2))
                       for _ in range(K)]
            spec = TestSpec(kind="v-breve", seed=4, **SMALL)
            rep = cptest.run_test(products(samples, pair), spec)
            assert rep.statistic == pytest.approx(
                brute_force_v_breve(samples, pair), rel=1e-10)


class TestLearningMode:
    def test_learning_series_not_tested(self):
        p = products(random_panel(2, 200, 2, seed=8), PAIR_2D)
        spec = TestSpec(kind="q-breve", seed=5, **SMALL)
        rep = cptest.run_test([x[50:] for x in p], spec, [x[:50] for x in p])
        # Only the tested series count towards the sample sizes.
        assert rep.sample_sizes == (150, 150)

    def test_explicit_learning_data(self, monkeypatch):
        # Learning products kept apart estimate the long-run variance.
        pair = ProjectionPair.from_vectors([0.5, 0.5])
        sample = random_panel(1, 100, 2, seed=9)[0]
        learn = random_panel(1, 400, 2, seed=10)[0]
        spec = TestSpec(kind="q-breve", seed=5, **SMALL)
        rep = cptest.run_test(products([sample], pair), spec, products([learn], pair))
        assert rep.sample_sizes == (100,)
        alpha_sq = lrv.lrv_estimate(sumproc.project(learn, pair)).alpha_sq
        assert rep.per_sample[0].alpha_sq == alpha_sq
        # The tested stretch is the sample itself.
        fix_scales(monkeypatch, alpha_sq)
        assert rep.statistic == cptest.run_test(products([sample], pair), spec).statistic

    def test_empty_tested_series_refused(self):
        p = products(random_panel(1, 50, 2, seed=1), PAIR_2D)[0]
        spec = TestSpec(kind="q-breve", seed=5, **SMALL)
        with pytest.raises(ShapeError, match="sample 1: empty sample"):
            cptest.run_test([p[50:]], spec, [p])

    def test_learning_count_other_than_k_refused(self):
        p = products(random_panel(3, 80, 2, seed=1), PAIR_2D)
        spec = TestSpec(kind="q-breve", seed=5, **SMALL)
        with pytest.raises(ConfigurationError, match="got 2 learning series for 3 samples"):
            cptest.run_test(p, spec, p[:2])

    @pytest.mark.parametrize("rows", [2, 0])
    def test_learning_replications_other_than_batch_refused(self, rows):
        # A learning batch of no replications was refused as if the batch had none.
        rng = np.random.default_rng(9)
        batch = [rng.standard_normal((3, 50)) ** 2 for _ in range(2)]
        spec = TestSpec(kind="q-breve", seed=6, **SMALL)
        with pytest.raises(ShapeError,
                           match=f"^{rows} learning replications, but the batch has 3$"):
            cptest.run_batch(batch, [spec], [p[:rows] for p in batch])

    def test_non_finite_learning_product_names_sample(self):
        p = products(random_panel(2, 80, 2, seed=3), PAIR_2D)
        learning = [x.copy() for x in p]
        learning[1][6] = np.inf
        spec = TestSpec(kind="q-breve", seed=6, **SMALL)
        with pytest.raises(CovCusumError,
                           match="sample 2: learning series: non-finite product at "
                                 "observation 7") as exc:
            cptest.run_test(p, spec, learning)
        assert exc.value.sample_index == 1

    def test_short_learning_series_refused(self):
        p = products(random_panel(2, 80, 2, seed=3), PAIR_2D)
        spec = TestSpec(kind="q-breve", seed=6, **SMALL)
        with pytest.raises(ShapeError, match="sample 2: learning series: need at least 4 "
                                             "observations, got 3"):
            cptest.run_test(p, spec, [p[0], p[1][:3]])


class TestDegenerate:
    def test_constant_sample_raises_with_index(self):
        panel = [np.random.default_rng(0).standard_normal((50, 1)),
                 np.ones((50, 1))]
        spec = TestSpec(kind="q-breve", seed=6, **SMALL)
        with pytest.raises(DegenerateLrvError) as exc:
            cptest.run_test(products(panel, PAIR_1D), spec)
        assert exc.value.sample_index == 1

    @pytest.mark.parametrize("learning_length, message", [
        (None, "sample 2: non-finite"), (20, "sample 2: learning series: non-finite")],
        ids=["in-sample", "learning-sample"])
    def test_nan_sample_raises_naming_sample(self, learning_length, message):
        panel = random_panel(2, 80, 2, seed=3)
        panel[1][5, 0] = np.nan
        spec = TestSpec(kind="q-breve", seed=6, **SMALL)
        p = products(panel, PAIR_2D)
        L = learning_length or 0
        learning = None if learning_length is None else [x[:L] for x in p]
        with pytest.raises(CovCusumError, match=message):
            cptest.run_test([x[L:] for x in p], spec, learning)

    def test_short_sample_raises_naming_sample(self):
        panel = random_panel(2, 30, 1, seed=3)
        panel[1] = panel[1][:3]
        spec = TestSpec(kind="q-breve", seed=6, **SMALL)
        with pytest.raises(ShapeError, match="sample 2: need at least 4 observations, got 3"):
            cptest.run_test(products(panel, PAIR_1D), spec)

    def test_nonpositive_override_rejected(self, monkeypatch):
        # An estimate that is not in (0, inf) never standardizes a statistic.
        fix_scales(monkeypatch, 0.0)
        spec = TestSpec(kind="q-breve", seed=6, **SMALL)
        with pytest.raises(DegenerateLrvError):
            cptest.run_test(products(tiny_panel(), PAIR_1D), spec)

    def test_degenerate_estimate_raises_with_index(self):
        # Products alternate 1, 2: the kernel estimate is non-positive, so
        # lrv_estimate refuses it instead of returning a scale.
        alternating = np.sqrt(np.tile([1.0, 2.0], 50)).reshape(100, 1)
        spec = TestSpec(kind="q-breve", seed=6, **SMALL)
        with pytest.raises(DegenerateLrvError) as exc:
            cptest.run_test(products([alternating], PAIR_1D), spec)
        assert exc.value.sample_index == 0


class TestOverflow:
    # Finite products whose running sums, or statistic, overflow: with long-run
    # variances from a learning series nothing else refused them, and the report
    # read a nan statistic that accepted, or an inf one that rejected.

    @pytest.mark.parametrize("kind", limits.KINDS)
    def test_running_sums_overflow_names_sample(self, kind):
        rng = np.random.default_rng(21)
        batch = [rng.standard_normal((2, 300)) ** 2, rng.standard_normal((2, 300)) ** 2]
        batch[1][1] = 1.7e307 * (1.0 + 0.01 * rng.standard_normal(300))  # replication 2 only
        learning = [rng.standard_normal((2, 200)) for _ in batch]
        spec = TestSpec(kind=kind, targets=[1.0, 1.0] if kind in ("q", "v") else None,
                        seed=3, **SMALL)
        with pytest.raises(CovCusumError, match="^sample 2: running sums overflow$") as exc:
            cptest.run_batch(batch, [spec], learning)
        assert exc.value.sample_index == 1

    @pytest.mark.parametrize("kind", ["q", "q-breve"])
    def test_squared_deviation_overflow_names_sample(self, kind):
        # Running sums near 3e307 are finite; their squared standardized maximum is not.
        rng = np.random.default_rng(22)
        panel = [rng.standard_normal(300) ** 2, 1e305 * (1.0 + 0.01 * rng.standard_normal(300))]
        learning = [rng.standard_normal(200) for _ in panel]
        spec = TestSpec(kind=kind, targets=[1.0, 1.0] if kind == "q" else None, **SMALL)
        with pytest.raises(CovCusumError, match="^sample 2: squared standardized deviation "
                                                "overflows$") as exc:
            cptest.run_test(panel, spec, learning)
        assert exc.value.sample_index == 1

    def test_pooled_deviation_overflow_names_sample(self):
        # Finite running sums less 300 times a target of 1e306 leave the finite floats.
        panel = [np.random.default_rng(23).standard_normal(300) ** 2] * 2
        spec = TestSpec(kind="v", targets=[1.0, 1e306], **SMALL)
        with pytest.raises(CovCusumError, match="^sample 2: deviation overflows$") as exc:
            cptest.run_test(panel, spec)
        assert exc.value.sample_index == 1

    @pytest.mark.parametrize("kind, c", [("q", 1.2e154),("q-breve", 1.2e154), ("v", 1.5e308),
                                         ("v-breve", 1.5e308)])
    def test_statistic_overflow_names_the_statistic(self, monkeypatch, kind, c):
        # Each of three samples gives a finite part, over a third of the largest
        # float, so no sample is at fault and the sum overflows.
        fix_scales(monkeypatch, 1.0)
        panel = [np.array([c, -c])] * 3
        spec = TestSpec(kind=kind, targets=[0.0] * 3 if kind in ("q", "v") else None, **SMALL)
        with pytest.raises(CovCusumError, match=f"^the {kind} statistic overflows$") as exc:
            cptest.run_test(panel, spec)
        assert exc.value.sample_index is None


class TestCriticalValue:
    def test_memo_matches_fresh_value(self, monkeypatch):
        # The two weight vectors agree to 4 significant figures; the second
        # critical value must not be served from the first one's entry.
        panel = random_panel(2, 60, 1, seed=15)
        spec = TestSpec(kind="v-breve", seed=4242, **SMALL)
        reports = []
        for a in (1.0, 1.00002):
            fix_scales(monkeypatch, a, 1.0)
            reports.append(cptest.run_test(products(panel, PAIR_1D), spec))
        law = limits.NullLaw("v-breve", 2, seed=4242, **SMALL)
        fresh = limits.critical_value(
            law, 0.95, law.weights(alpha_weights=(math.sqrt(1.00002), 1.0), kappa=(0.5, 0.5)))
        assert reports[1].critical_value == fresh
        assert reports[0].critical_value != fresh

    def test_report_names_method_and_the_seed_it_used(self):
        panel = random_panel(2, 60, 1, seed=15)
        for kind, method, seed in (("q-breve", "corrected", None), ("v-breve", "exact-mc", 4242)):
            report = cptest.run_test(products(panel, PAIR_1D),
                                     TestSpec(kind=kind, seed=4242, **SMALL))
            assert (report.method, report.seed) == (method, seed)
            assert (report.to_dict()["method"], report.to_dict()["seed"]) == (method, seed)


class TestSizeBracket:
    def test_all_four_kinds_hold_level_on_iid_data(self):
        # iid N(0,1) coordinates: v' Cov w = v'w exactly, so the plain
        # kinds get true targets.  At level 0.05 each rejection rate over
        # 500 replications must land in a loose bracket around the level.
        K, n, d = 2, 120, 2
        pair = ProjectionPair.from_vectors([0.5, 0.5])
        target = 0.5  # v'v for v = (0.5, 0.5)
        rng = np.random.default_rng(321)
        panels = [[rng.standard_normal((n, d)) for _ in range(K)]
                  for _ in range(500)]
        for kind in ("q", "q-breve", "v", "v-breve"):
            targets = [target] * K if kind in ("q", "v") else None
            spec = TestSpec(kind=kind, level=0.95, targets=targets, seed=10, **SMALL)
            rate = np.mean([cptest.run_test(products(p, pair), spec).reject for p in panels])
            assert 0.02 <= rate <= 0.09, (kind, rate)


class TestPowerOrdering:
    def test_rejections_monotone_in_change_magnitude(self):
        # Same seeds, growing scale break: the rejection count over fixed
        # replication batches never decreases with the break size.
        n, tau = 120, 60
        pair = ProjectionPair.from_vectors([1.0])
        spec = TestSpec(kind="q-breve", seed=11, **SMALL)
        counts = []
        for sigma1 in (1.3, 1.8, 2.6):
            cfg = simgen.PanelConfig(K=1, d=1, N=(n,), rho0=(0.2,),
                                     sigma0=(1.0,), tau=(tau,),
                                     sigma1=(sigma1,), seed=77)
            (batch,) = simgen.gen_ar1_panels(cfg, range(500))
            counts.append(sum(cptest.run_test(products([y], pair), spec).reject
                              for y in batch.transpose(1, 0, 2)))
        assert counts == sorted(counts)


    def test_scale_break_inflates_both_statistics(self):
        n = 600
        null_cfg = simgen.PanelConfig(K=1, d=2, N=(n,), rho0=(0.3, 0.3),
                                      sigma0=(1.0,), seed=31)
        alt_cfg = simgen.PanelConfig(K=1, d=2, N=(n,), rho0=(0.3, 0.3),
                                     sigma0=(1.0,), tau=(n // 2,),
                                     sigma1=(3.0,), seed=31)
        pair = ProjectionPair.from_vectors([0.5, 0.5])
        for kind in ("q-breve", "v-breve"):
            spec = TestSpec(kind=kind, seed=7, **SMALL)
            s_null = cptest.run_test(products(simgen.gen_ar1_panel(null_cfg), pair),
                                     spec).statistic
            s_alt = cptest.run_test(products(simgen.gen_ar1_panel(alt_cfg), pair),
                                    spec).statistic
            assert s_alt > 3.0 * s_null


class TestBatch:
    KINDS_SPECS = [TestSpec(kind=kind, seed=3, n_grid=500, n_rep=2000,
                            targets=[1.6, 3.5, 0.8, 1.6] if kind in ("q", "v") else None)
                   for kind in limits.KINDS]

    @pytest.mark.parametrize("learning_length", [None, 20], ids=["in-sample", "learning"])
    def test_every_replication_equals_its_panel_alone(self, learning_length):
        # Case I, d = 3: each replication of a batch gets, bit for bit, the
        # report run_tests gives its panel alone.
        d, reps = 3, [0, 1, 2, 3]
        cfg = simgen.PanelConfig(K=4, d=d, N=harness.CASE_SIZES["I"],
                                 rho0=tuple(harness.rho_pre(d)), sigma0=harness.SIGMA_PRE,
                                 seed=21)
        samples = simgen.gen_ar1_panels(cfg, reps)
        vectors = np.stack([simgen.gen_dirichlet_projection(d, 40 + r) for r in reps])
        batch = [sumproc.project(y, ProjectionPair.from_vectors(vectors)) for y in samples]
        L = learning_length or 0
        learning = None if learning_length is None else [b[:, :L] for b in batch]
        results = cptest.run_batch([b[:, L:] for b in batch], self.KINDS_SPECS, learning)
        for r in range(len(reps)):
            panel = products([y[:, r] for y in samples], ProjectionPair.from_vectors(vectors[r]))
            assert all(np.array_equal(p, b[r]) for p, b in zip(panel, batch))
            alone = cptest.run_tests([p[L:] for p in panel], self.KINDS_SPECS,
                                     None if learning is None else [p[:L] for p in panel])
            for result, report in zip(results, alone):
                assert result.report(r) == report
                assert result.statistic[r] == report.statistic
                assert result.critical_value[r] == report.critical_value
                assert result.reject[r] == report.reject
                for j, info in enumerate(report.per_sample):
                    assert (result.alpha_sq[r, j], result.bandwidth[r, j],
                            result.argmax_k[r, j]) == (info.alpha_sq, info.bandwidth,
                                                       info.argmax_k)

    def test_refusal_in_one_replication_names_its_sample(self):
        rng = np.random.default_rng(9)
        batch = [rng.standard_normal((3, 50)) ** 2 for _ in range(3)]
        spec = TestSpec(kind="q-breve", seed=6, **SMALL)
        cptest.run_batch(batch, [spec])
        bad = [p.copy() for p in batch]
        bad[1][1, 7] = np.inf
        with pytest.raises(CovCusumError, match="sample 2: non-finite product at observation 8"
                           ) as exc:
            cptest.run_batch(bad, [spec])
        assert exc.value.sample_index == 1
        constant = [p.copy() for p in batch]
        constant[2][1] = 4.0
        with pytest.raises(DegenerateLrvError, match="sample 3: constant product series") as exc:
            cptest.run_batch(constant, [spec])
        assert exc.value.sample_index == 2

    @pytest.mark.parametrize("learning_length", [None, 20], ids=["in-sample", "learning"])
    @pytest.mark.parametrize("kinds", [["q-breve"], limits.KINDS], ids=["one-spec", "four-kinds"])
    def test_sums_and_lrv_taken_once_per_sample(self, monkeypatch, kinds, learning_length):
        # However many specs read them, each sample's running sums and long-run
        # variance are taken once; a scalar target takes no running sums of its own.
        calls = collections.Counter()
        for module, name in ((lrv, "lrv_estimates"), (sumproc, "kahan_cumsum")):
            monkeypatch.setattr(module, name, lambda *a, f=getattr(module, name), name=name:
                                calls.update([name]) or f(*a))
        K, L = 3, learning_length or 0
        rng = np.random.default_rng(4)
        batch = [rng.standard_normal((2, 60)) ** 2 for _ in range(K)]
        specs = [TestSpec(kind=kind, seed=3, n_grid=500, n_rep=2000,
                          targets=[1.0] * K if kind in ("q", "v") else None) for kind in kinds]
        learning = None if learning_length is None else [p[:, :L] for p in batch]
        assert len(cptest.run_batch([p[:, L:] for p in batch], specs, learning)) == len(kinds)
        assert calls == {"lrv_estimates": K, "kahan_cumsum": K}

    @pytest.mark.parametrize("kind", limits.BRIDGE_KINDS)
    def test_one_observation_bridge_refused_naming_sample(self, kind):
        # The bridge of one observation is identically zero: the statistic read 0 and
        # accepted whatever the data.  A plain kind's deviation is not zero there.
        rng = np.random.default_rng(10)
        batch = [rng.standard_normal((2, n)) ** 2 for n in (5, 1, 5)]
        learning = [rng.standard_normal((2, 60)) ** 2 for _ in batch]
        with pytest.raises(ShapeError, match="^sample 2: a bridge needs at least 2 "
                                             "observations, got 1$") as exc:
            cptest.run_batch(batch, [TestSpec(kind=kind, seed=3, **SMALL)], learning)
        assert exc.value.sample_index == 1
        cptest.run_batch(batch, [TestSpec(kind="q", targets=[1.0] * 3, **SMALL)], learning)

    def test_samples_of_unequal_replication_counts_refused(self):
        batch = [np.ones((3, 50)), np.ones((2, 50))]
        with pytest.raises(ShapeError, match="sample 2: 2 replications, but sample 1 has 3"):
            cptest.run_batch(batch, [TestSpec(kind="q-breve", seed=6, **SMALL)])


class TestDispatchAndReport:
    def test_run_tests_matches_run_test(self):
        panel = random_panel(3, 70, 2, seed=12)
        pair = ProjectionPair.from_vectors([0.6, 0.4])
        targets = [0.52, 0.5, 0.55]
        specs = [TestSpec(kind=kind, seed=8,
                          targets=targets if kind in ("q", "v") else None, **SMALL)
                 for kind in ("q", "q-breve", "v", "v-breve")]
        together = cptest.run_tests(products(panel, pair), specs)
        assert [r.to_dict() for r in together] == \
               [cptest.run_test(products(panel, pair), spec).to_dict() for spec in specs]

    def test_report_json_round_trip(self):
        import json

        panel = random_panel(2, 60, 1, seed=13)
        spec = TestSpec(kind="v-breve", seed=9, **SMALL)
        rep = cptest.run_test(products(panel, PAIR_1D), spec)
        d = json.loads(rep.to_json())
        assert d["kind"] == "v-breve"
        assert d["sample_sizes"] == [60, 60]
        assert len(d["per_sample"]) == 2
        assert d["reject"] == rep.reject

    @pytest.mark.parametrize("kind", ["q", "v"])
    @pytest.mark.parametrize("count", [2, 4])
    def test_wrong_target_count_rejected(self, kind, count):
        panel = random_panel(3, 30, 1, seed=14)
        spec = TestSpec(kind=kind, targets=[1.0] * count, seed=9, **SMALL)
        with pytest.raises(ConfigurationError, match=f"got {count} targets for 3 samples"):
            cptest.run_test(products(panel, PAIR_1D), spec)
