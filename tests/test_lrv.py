import math

import numpy as np
import pytest

from covcusum import lrv, simgen
from covcusum.errors import DegenerateLrvError, ShapeError


class TestAutocovHat:
    def test_constant_series_is_zero(self):
        p = np.full(10, 3.7)
        for h in range(5):
            assert lrv.autocov_hat(p, h) == pytest.approx(0.0, abs=1e-28)

    def test_hand_example_lag0(self):
        assert lrv.autocov_hat(np.array([1.0, 2.0, 3.0]), 0) == pytest.approx(2 / 3)

    def test_hand_example_lag1(self):
        assert lrv.autocov_hat(np.array([1.0, 2.0, 3.0]), 1) == pytest.approx(0.0, abs=1e-15)

    def test_lag_out_of_range(self):
        with pytest.raises(ShapeError):
            lrv.autocov_hat(np.array([1.0, 2.0, 3.0]), 3)

    def test_divisor_is_n(self):
        # For h = n-1 only one product remains; divisor stays n.
        p = np.array([1.0, 0.0, 0.0, 5.0])
        mu = p.mean()
        expected = (1.0 - mu) * (5.0 - mu) / 4
        assert lrv.autocov_hat(p, 3) == pytest.approx(expected)


class TestQsWeight:
    def test_normalization_at_zero(self):
        assert lrv.qs_weight(0.0) == 1.0

    def test_closed_form_point(self):
        # At x = 5/6 the oscillating argument is pi, giving 3 / pi^2.
        assert lrv.qs_weight(5 / 6) == pytest.approx(3 / math.pi ** 2, rel=1e-12)

    def test_symmetry(self):
        for x in (0.3, 5 / 6, 2.1):
            assert lrv.qs_weight(-x) == pytest.approx(lrv.qs_weight(x), rel=1e-14)

    def test_bounded_by_one(self):
        xs = np.linspace(-10, 10, 2001)
        vals = [lrv.qs_weight(x) for x in xs]
        assert max(abs(v) for v in vals) <= 1.0 + 1e-12

    def test_continuity_at_zero(self):
        assert lrv.qs_weight(1e-8) == pytest.approx(1.0, abs=1e-6)


class TestBandwidth:
    def test_zero_rho_gives_zero_bandwidth(self):
        assert lrv.qs_bandwidth(0.0, 1000) == 0.0

    def test_closed_form_arithmetic(self):
        # rho = 0.5, n = 1000: 1.3221 * (16 * 1000)^(1/5).
        assert lrv.qs_bandwidth(0.5, 1000) == pytest.approx(
            1.3221 * 16000 ** 0.2, rel=1e-12)
        assert lrv.qs_bandwidth(0.5, 1000) == pytest.approx(9.1641, abs=1e-3)

    def test_andrews_on_iid_series_small(self):
        rng = np.random.default_rng(0)
        p = rng.standard_normal(5000)
        bw = lrv.lrv_estimate(p).bandwidth
        # iid: rho_hat near zero, bandwidth small.
        assert bw < 2.0

    def test_rho_clamped(self):
        # Near-unit-root products: estimated rho beyond the clamp must be
        # treated as 0.97.
        n = 2000
        p = np.cumsum(np.random.default_rng(1).standard_normal(n)) + 1e4
        est = lrv.lrv_estimate(p)
        assert est.bandwidth == pytest.approx(lrv.qs_bandwidth(0.97, n), rel=1e-9)
        assert est.rho_clamped

    def test_too_short_rejected(self):
        with pytest.raises(ShapeError):
            lrv.lrv_estimate(np.array([1.0, 2.0, 1.5]))


class TestLrvEstimate:
    def test_iid_squared_normals(self):
        # p = x^2 for x iid N(0,1): long-run variance is Var(x^2) = 2.
        rng = np.random.default_rng(2)
        x = rng.standard_normal(100_000)
        est = lrv.lrv_estimate(x ** 2)
        assert est.alpha_sq == pytest.approx(2.0, rel=0.10)

    def test_zero_lag1_autocovariance_gives_zero_bandwidth(self):
        # Lag-1 autocovariance of [1, 0, -1, 0] is exactly 0, so the AR(1)
        # bandwidth is 0 and the estimate is Gamma(0) = 2 / 4.
        p = np.array([1.0, 0.0, -1.0, 0.0])
        assert lrv.autocov_hat(p, 1) == 0.0
        est = lrv.lrv_estimate(p)
        assert est.alpha_sq == 0.5
        assert est.bandwidth == 0.0
        assert est.n_lags == 0
        assert not est.rho_clamped

    def test_constant_series_degenerate(self):
        with pytest.raises(DegenerateLrvError):
            lrv.lrv_estimate(np.full(100, 2.0))

    def test_non_positive_kernel_sum_refused(self):
        # Alternating products: the autocovariances alternate in sign at
        # nearly full size, and the kernel sum is not positive.
        with pytest.raises(DegenerateLrvError, match="non-positive"):
            lrv.lrv_estimate(np.tile([1.0, 2.0], 50))

    def test_overflowing_autocovariance_refused(self):
        # Finite products whose squares overflow: refused, not a ValueError
        # from the bandwidth or a RuntimeWarning.
        with pytest.raises(DegenerateLrvError, match="non-finite autocovariance"):
            lrv.lrv_estimate(np.array([1e200, -1e200, 1e200, -1e200, 3e200]))

    def test_scale_equivariance(self):
        rng = np.random.default_rng(3)
        p = rng.standard_normal(2000) ** 2
        base = lrv.lrv_estimate(p).alpha_sq
        scaled = lrv.lrv_estimate(3.0 * p).alpha_sq
        assert scaled == pytest.approx(9.0 * base, rel=1e-10)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        p = rng.standard_normal(2000) ** 2
        base = lrv.lrv_estimate(p).alpha_sq
        shifted = lrv.lrv_estimate(p + 17.0).alpha_sq
        assert shifted == pytest.approx(base, rel=1e-8)

    def test_ar1_consistency(self):
        # For projected AR(1) products the estimate must stabilize; check
        # against a long-run variance obtained from non-overlapping batch
        # means, an estimator independent of the kernel route.
        cfg = simgen.PanelConfig(K=1, d=1, N=(100_000,), rho0=(0.5,),
                                 sigma0=(1.0,), seed=8)
        y = simgen.gen_ar1_panel(cfg)[0][:, 0]
        p = y * y
        est = lrv.lrv_estimate(p)
        b = 500
        batches = p[: (len(p) // b) * b].reshape(-1, b).mean(axis=1)
        batch_lrv = b * batches.var()
        assert est.alpha_sq == pytest.approx(batch_lrv, rel=0.15)
