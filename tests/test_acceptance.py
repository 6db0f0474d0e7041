"""End-to-end acceptance checks.

Each test exercises one advertised capability at desk scale and prints a
single PASS/FAIL line; run with ``pytest -v tests/test_acceptance.py``.
The Monte Carlo tolerances are wide enough for the replication counts
used here, so a failure indicates a real defect, not noise.
"""

import itertools
import math
import time

import numpy as np
import pytest
import scipy.stats

from covcusum import cli, cptest, harness, limits, lrv, simgen, sumproc
from covcusum.limits import NullLaw
from covcusum.sumproc import ProjectionPair
from panels import products


def _verdict(num, name, ok, detail=""):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_pooled_sum_critical_value():
    t0 = time.time()
    law = NullLaw("q-breve", 6, n_grid=2000, n_rep=100_000, seed=2024)
    value = limits.critical_value(law, 0.95)
    elapsed = time.time() - t0
    ok = abs(value - 7.08) <= 0.15 and elapsed <= 60.0
    _verdict(1, "six-sample critical value", ok,
             f"(value {value:.4g}, target 7.08 +- 0.15, {elapsed:.1f}s)")


def test_criterion_2_bridge_supremum_law(bridge_suprema):
    series_at_95 = limits.sup_abs_bb_cdf(1.358 ** 2)
    ok_series = abs(series_at_95 - 0.95) <= 0.001

    sup_bb = bridge_suprema  # seed 2025, shared with test_limits
    # Probes span the upper-quantile region the tests actually read; the
    # body of the law carries a known downward discretization bias of the
    # supremum that exceeds the tolerance at this grid resolution.
    worst = 0.0
    for x in np.linspace(1.2, 2.1, 10):
        diff = np.mean(sup_bb <= x) - limits.sup_abs_bb_cdf(x ** 2)
        worst = max(worst, abs(diff))
    ok = ok_series and worst <= 0.01
    _verdict(2, "bridge supremum distribution", ok,
             f"(series cdf {series_at_95:.5f}, worst MC gap {worst:.4f})")


def test_criterion_3_empirical_size_in_sample():
    t0 = time.time()
    cfg = harness.ExperimentConfig(
        replications=2000, cases=("I",), dims=(10,), scenario="none", seed=303)
    rows = {r.test: r.rate for r in harness.run_experiment(cfg)}
    elapsed = time.time() - t0
    ok = (abs(rows["q-breve"] - 0.0227) <= 0.015
          and abs(rows["v-breve"] - 0.0310) <= 0.015
          and elapsed <= 600.0)
    _verdict(3, "empirical size at desk scale", ok,
             f"(q-breve {rows['q-breve']:.4f} vs 0.0227, "
             f"v-breve {rows['v-breve']:.4f} vs 0.0310, {elapsed:.0f}s)")


def test_criterion_4_power_scale_change_learning():
    cfg = harness.ExperimentConfig(
        replications=1000, cases=("I",), dims=(10,), scenario="sigma-change",
        change_times=(600,), learning_length=500,
        seed=404)
    rows = {r.test: r.rate for r in harness.run_experiment(cfg)}
    ok = (abs(rows["q-breve"] - 0.9602) <= 0.05
          and abs(rows["v-breve"] - 0.5020) <= 0.07)
    _verdict(4, "power against a mid-stream scale change", ok,
             f"(q-breve {rows['q-breve']:.4f} vs 0.9602, "
             f"v-breve {rows['v-breve']:.4f} vs 0.5020)")


def test_criterion_5_grid_max_brute_force_equality(monkeypatch):
    # A unit scale for every sample, which lrv_estimate would refuse to
    # estimate from the shortest (2-row) samples.
    monkeypatch.setattr(lrv, "lrv_estimates", lambda p: lrv.LrvEstimate(
        alpha_sq=np.ones(len(p)), bandwidth=np.zeros(len(p)),
        n_lags=np.zeros(len(p), dtype=int)))
    rng = np.random.default_rng(505)
    pair = ProjectionPair.from_vectors([0.6, 0.4])
    failures = 0
    for _ in range(200):
        K = int(rng.integers(1, 4))
        samples = [rng.standard_normal((int(rng.integers(2, 16)), 2))
                   for _ in range(K)]
        n_total = sum(y.shape[0] for y in samples)
        procs = []
        for y in samples:
            s = sumproc.kahan_cumsum(sumproc.project(y, pair))
            n = len(s) - 1
            f = s - np.arange(n + 1) / n * s[n]
            f[0] = 0.0
            f[n] = 0.0
            procs.append(f / math.sqrt(n_total))
        val, _ = sumproc.pooled_d_grid_max(procs)
        brute = max(abs(sum(f[i] for f, i in zip(procs, idx)))
                    for idx in itertools.product(*[range(len(f)) for f in procs]))
        spec = cptest.TestSpec(kind="v-breve", seed=1, n_grid=500, n_rep=20_000)
        stat = cptest.run_test(products(samples, pair), spec).statistic
        if not (val == brute and stat == brute):
            failures += 1
    _verdict(5, "separable grid maximum equals enumeration", failures == 0,
             f"({200 - failures}/200 instances exact)")


def test_criterion_6_bridge_and_projection_invariances():
    rng = np.random.default_rng(606)
    endpoints_exact = True
    for _ in range(50):
        y = rng.standard_normal((int(rng.integers(2, 40)), 1))
        delta = sumproc.unscaled_deviation(
            sumproc.kahan_cumsum(sumproc.project(y, ProjectionPair.from_vectors([1.0]))))
        endpoints_exact &= delta[0] == 0.0 and delta[-1] == 0.0

    panel = [rng.standard_normal((90, 3)) for _ in range(2)]
    v = np.array([0.2, 0.5, 0.3])
    small = dict(n_grid=500, n_rep=20_000, seed=2)

    def breve_stats():
        return (cptest.run_test(products(panel, ProjectionPair.from_vectors(v)),
                                cptest.TestSpec(kind="q-breve", **small)).statistic,
                cptest.run_test(products(panel, ProjectionPair.from_vectors(v)),
                                cptest.TestSpec(kind="v-breve", **small)).statistic)

    before = breve_stats()
    # Interleave a target-dependent run; the target-free statistics must
    # not move under any choice of target values.
    cptest.run_test(products(panel, ProjectionPair.from_vectors(v)), cptest.TestSpec(
        kind="q", targets=list(rng.standard_normal(2)), **small))
    after = breve_stats()
    target_free = before == after

    scaled = cptest.run_test(products(panel, ProjectionPair.from_vectors(9.0 * v)),
                             cptest.TestSpec(kind="q-breve", **small)).statistic
    scale_gap = abs(scaled - before[0]) / before[0]
    ok = endpoints_exact and target_free and scale_gap <= 1e-10
    _verdict(6, "bridge endpoints and invariances", ok,
             f"(scaling gap {scale_gap:.2e})")


def test_criterion_7_long_run_variance_consistency():
    x = np.random.default_rng(707).standard_normal(100_000)
    est = lrv.lrv_estimate(x ** 2)
    ok = abs(est.alpha_sq - 2.0) <= 0.2
    _verdict(7, "long-run variance of squared normals", ok,
             f"(estimate {est.alpha_sq:.4f}, target 2 +- 10%)")


def _true_alpha_sq(rho, sigma, v):
    """Long-run variance of the projected products for the shared-innovation
    AR(1) panel: the projection is a Gaussian linear process x, so the
    products x^2 have long-run variance 2 * sum_h gamma_x(h)^2."""
    rho = np.asarray(rho)
    gamma0 = sigma ** 2 * (v @ (1.0 / (1.0 - np.outer(rho, rho))) @ v)
    total = gamma0 ** 2
    cross = 1.0 / (1.0 - np.outer(rho, rho))
    for h in range(1, 400):
        gh = sigma ** 2 * (v @ (cross * rho[np.newaxis, :] ** h) @ v)
        total += 2.0 * gh ** 2
    return 2.0 * total


def test_criterion_8_pooled_endpoint_normality():
    d = 10
    sizes = harness.CASE_SIZES["III"]
    rho = harness.rho_pre(d)
    v = simgen.gen_dirichlet_projection(d, 808)
    cfg = simgen.PanelConfig(K=4, d=d, N=sizes, rho0=tuple(rho),
                             sigma0=harness.SIGMA_PRE, seed=808)
    targets = [simgen.ar1_bilinear_target(rho, s, v, v) for s in harness.SIGMA_PRE]
    denom = math.sqrt(sum(_true_alpha_sq(rho, s, v) * n
                          for s, n in zip(harness.SIGMA_PRE, sizes)))
    pair = ProjectionPair.from_vectors(v)
    z = np.empty(5000)
    for first in range(0, len(z), 50):
        reps = range(first, first + 50)
        batch = simgen.gen_ar1_panels(cfg, reps)
        for i, r in enumerate(reps):
            num = sum(sumproc.kahan_cumsum(sumproc.project(y[:, i], pair))[-1] - n * t
                      for y, n, t in zip(batch, sizes, targets))
            z[r] = num / denom
    ks = scipy.stats.kstest(z, "norm").statistic
    _verdict(8, "pooled endpoint central limit behavior", ks < 0.05,
             f"(KS distance {ks:.4f})")


def test_criterion_9_worker_count_determinism(tmp_path):
    outputs = []
    for workers in (1, 2, 8):
        limits.draw_extrema.cache_clear()
        out = tmp_path / f"crit-{workers}.csv"
        rc = cli.main(["critval", "--kind", "v-breve", "--K", "3",
                       "--alpha", "1.0,1.5,0.7", "--kappa", "0.3,0.3,0.4",
                       "--seed", "909", "--workers", str(workers),
                       "--n-grid", "1000", "--n-rep", "50000",
                       "--out", str(out)])
        assert rc == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    _verdict(9, "seeded replay across worker counts", ok)
