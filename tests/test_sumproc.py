import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covcusum import simgen, sumproc
from covcusum.errors import DegenerateLrvError, ShapeError
from covcusum.sumproc import ProjectionPair


def scaled(s, target=None):
    """The deviation scaled by 1/sqrt(N), as the sum-of-squares kinds use it."""
    return sumproc.unscaled_deviation(s, target) / math.sqrt(len(s) - 1)


class TestProject:
    def test_zero_matrix(self):
        pair = ProjectionPair.from_vectors([1.0, 2.0])
        p = sumproc.project(np.zeros((4, 2)), pair)
        s = sumproc.kahan_cumsum(p)
        assert np.all(p == 0)
        assert np.all(s == 0)
        assert len(s) == 5

    def test_hand_example_1d(self):
        pair = ProjectionPair.from_vectors([1.0])
        p = sumproc.project(np.array([[1.0], [2.0]]), pair)
        np.testing.assert_array_equal(p, [1.0, 4.0])
        np.testing.assert_array_equal(sumproc.kahan_cumsum(p), [0.0, 1.0, 5.0])

    def test_hand_example_2d(self):
        pair = ProjectionPair.from_vectors([1.0, 0.0], [0.0, 1.0])
        p = sumproc.project(np.array([[1.0, 2.0], [3.0, 4.0]]), pair)
        np.testing.assert_array_equal(p, [2.0, 12.0])
        np.testing.assert_array_equal(sumproc.kahan_cumsum(p), [0.0, 2.0, 14.0])

    def test_dimension_mismatch(self):
        pair = ProjectionPair.from_vectors([1.0, 2.0])
        with pytest.raises(ShapeError):
            sumproc.project(np.zeros((4, 3)), pair)

    def test_bilinearity_in_v(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal((50, 4))
        v = rng.standard_normal(4)
        w = rng.standard_normal(4)
        base = sumproc.project(y, ProjectionPair.from_vectors(v, w))
        scaled = sumproc.project(y, ProjectionPair.from_vectors(2.0 * v, w))
        np.testing.assert_allclose(scaled, 2.0 * base, rtol=1e-15)
        np.testing.assert_allclose(sumproc.kahan_cumsum(scaled),
                                   2.0 * sumproc.kahan_cumsum(base), rtol=1e-12)

    @pytest.mark.parametrize("d", [1, 10, 2000])
    @pytest.mark.parametrize("layout", ["contiguous", "generator-view"])
    def test_row_splits_give_identical_bits(self, d, layout):
        # A streamed projection (cli.load_bundle) must equal the whole one.
        rng = np.random.default_rng(d)
        if layout == "contiguous":
            y = rng.standard_normal((150, d)) * 10.0 ** rng.uniform(-3, 3, size=d)
        else:
            cfg = simgen.PanelConfig(K=2, d=d, N=(90, 150), rho0=(0.3,) * d,
                                     sigma0=(1.0, 2.0), seed=d)
            y = simgen.gen_ar1_panels(cfg, [0, 1])[1][:, 1]
            assert not y.flags.c_contiguous
        pair = ProjectionPair.from_vectors(rng.standard_normal(d), rng.dirichlet(np.ones(d)))
        whole = sumproc.project(y, pair)
        random_cuts = sorted(rng.choice(149, 9, replace=False) + 1)
        for cuts in ([1], [64, 128], [1, 2, 3, 67], random_cuts):
            parts = np.split(y, cuts)
            np.testing.assert_array_equal(
                np.concatenate([sumproc.project(part, pair) for part in parts]), whole)

    def test_partial_sum_consistency(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal((100, 3))
        pair = ProjectionPair.from_vectors(rng.standard_normal(3))
        p = sumproc.project(y, pair)
        s = sumproc.kahan_cumsum(p)
        np.testing.assert_allclose(np.diff(s), p, atol=1e-12)
        assert s[0] == 0.0


class TestProjectionPair:
    def test_l1_norms_recorded(self):
        pair = ProjectionPair.from_vectors([1.0, -2.0], [0.5, 0.5])
        assert pair.l1_v == pytest.approx(3.0, abs=1e-12)
        assert pair.l1_w == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(ShapeError):
            ProjectionPair.from_vectors([0.0, 0.0])

    @pytest.mark.parametrize("vectors, match", [
        (([1, 2], [1, 2, 3]), r"v and w must be 1-d, or \(R, d\) stacks, of equal shape"),
        (([1, np.nan],), "projection vectors must be finite"),
        # A complex entry used to raise a bare TypeError, and a complex array
        # was cast to its real part.
        (([0.5 + 1j, 0.5],), "^not a real projection vector$"),
        (([0.5, 0.5], np.array([0.5, 0.5j])), "^not a real projection vector$"),
        ((["x", 0.5],), "^not a numeric projection vector: could not convert")],
        ids=["shape", "non-finite", "complex", "complex-array", "non-numeric"])
    def test_malformed_vectors_refused(self, vectors, match):
        with pytest.raises(ShapeError, match=match):
            ProjectionPair.from_vectors(*vectors)


class TestDProcess:
    def test_zero_data_zero_target(self):
        s = np.array([0.0, 0.0, 0.0])
        np.testing.assert_array_equal(scaled(s, 0.0), [0.0, 0.0, 0.0])

    def test_hand_example_zero_target(self):
        s = np.array([0.0, 1.0, 5.0])
        np.testing.assert_allclose(
            scaled(s, 0.0), [0.0, 1 / math.sqrt(2), 5 / math.sqrt(2)])

    def test_hand_example_constant_target(self):
        s = np.array([0.0, 1.0, 5.0])
        np.testing.assert_allclose(
            scaled(s, 2.5), [0.0, -1.5 / math.sqrt(2), 0.0], atol=1e-15)

    @pytest.mark.parametrize("target", [np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0])],
                             ids=["length-N", "length-N+1"])
    def test_sequence_target_refused(self, target):
        # A target is one real: S_k - k * target, not the running sums of a sequence.
        s = np.array([0.0, 1.0, 5.0])
        with pytest.raises(ShapeError, match="^expected a 0-d target, got ndim=1$"):
            scaled(s, target)


class TestBridgeProcess:
    def test_endpoints_bit_exact_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = rng.integers(1, 30)
            s = np.concatenate([[0.0], np.cumsum(rng.standard_normal(n))])
            delta = scaled(s)
            assert delta[0] == 0.0
            assert delta[-1] == 0.0

    def test_hand_example(self):
        s = np.array([0.0, 1.0, 5.0])
        np.testing.assert_allclose(
            scaled(s), [0.0, -1.5 / math.sqrt(2), 0.0], atol=1e-15)
        assert scaled(s)[1] == pytest.approx(-1.06066, abs=1e-5)

    def test_empty_sample_rejected(self):
        with pytest.raises(ShapeError):
            scaled(np.array([0.0]))

    def test_independent_of_targets(self):
        # The bridge (no target) is a pure function of the running sums; a
        # deviation from a target computed in between leaves it unchanged.
        s = np.array([0.0, 3.0, 1.0, 4.0])
        before = scaled(s).copy()
        _ = scaled(s, 123.4)
        np.testing.assert_array_equal(scaled(s), before)


def brute_force_grid_max(processes):
    best = -1.0
    best_idx = None
    for idx in itertools.product(*[range(len(f)) for f in processes]):
        val = abs(sum(f[i] for f, i in zip(processes, idx)))
        if val > best:
            best = val
            best_idx = idx
    return best, best_idx


class TestPooledGridMax:
    def test_all_zero(self):
        val, idx = sumproc.pooled_d_grid_max([np.zeros(4), np.zeros(3)])
        assert val == 0.0
        assert idx == (0, 0)

    def test_hand_example(self):
        f1 = np.array([0.0, 1.0, -2.0])
        f2 = np.array([0.0, -3.0, 2.0])
        val, idx = sumproc.pooled_d_grid_max([f1, f2])
        assert val == 5.0
        assert idx == (2, 1)

    @pytest.mark.parametrize("processes, match", [
        ([np.zeros((2, 2, 2))], "expected a 1-d or 2-d process, got ndim=3"),
        ([], "no processes given")], ids=["3-d", "none"])
    def test_malformed_processes_refused(self, processes, match):
        with pytest.raises(ShapeError, match=match):
            sumproc.pooled_d_grid_max(processes)

    def test_matches_brute_force_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            K = rng.integers(1, 4)
            processes = []
            for _ in range(K):
                n = rng.integers(1, 21)
                f = rng.standard_normal(n + 1)
                f[0] = 0.0
                processes.append(f)
            val, idx = sumproc.pooled_d_grid_max(processes)
            bval, _ = brute_force_grid_max(processes)
            assert val == pytest.approx(bval, abs=1e-12)
            assert val == pytest.approx(
                abs(sum(f[i] for f, i in zip(processes, idx))), abs=1e-12)

    def test_argmax_invariant_under_positive_scaling(self):
        rng = np.random.default_rng(4)
        processes = [np.concatenate([[0.0], rng.standard_normal(10)]) for _ in range(3)]
        _, idx = sumproc.pooled_d_grid_max(processes)
        _, idx_scaled = sumproc.pooled_d_grid_max([7.5 * f for f in processes])
        assert idx == idx_scaled

    @given(st.lists(
        st.lists(st.floats(-100, 100), min_size=1, max_size=12).map(
            lambda xs: np.concatenate([[0.0], np.asarray(xs)])),
        min_size=1, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_separability_property(self, processes):
        val, _ = sumproc.pooled_d_grid_max(processes)
        bval, _ = brute_force_grid_max(processes)
        assert val == pytest.approx(bval, abs=1e-9)


class TestPerSampleMaxSq:
    def test_zero_process(self):
        val, k = sumproc.per_sample_max_sq(np.zeros(5), 1.0)
        assert val == 0.0
        assert k == 0

    def test_hand_bridge_value(self):
        delta = np.array([0.0, -1.5 / math.sqrt(2), 0.0])
        val, k = sumproc.per_sample_max_sq(delta, 1.0)
        assert val == pytest.approx(1.125)
        assert k == 1

    def test_scaling_invariance(self):
        f = np.array([0.0, 2.0, -3.0, 1.0])
        base, k0 = sumproc.per_sample_max_sq(f, 1.7)
        scaled, k1 = sumproc.per_sample_max_sq(5.0 * f, 5.0 * 1.7)
        assert scaled == pytest.approx(base, rel=1e-12)
        assert k0 == k1

    def test_nonpositive_scale_rejected(self):
        # An infinite scale would standardize every deviation to 0, an accept.
        for scale in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(DegenerateLrvError, match="scale must be positive and finite"):
                sumproc.per_sample_max_sq(np.array([0.0, 5.0, 0.0]), scale)

    def test_argmax_smallest_index_on_tie(self):
        f = np.array([0.0, 2.0, -2.0])
        _, k = sumproc.per_sample_max_sq(f, 1.0)
        assert k == 1


def test_kahan_cumsum_matches_fsum():
    rng = np.random.default_rng(5)
    p = rng.standard_normal(1000) * 10.0 ** rng.integers(-8, 8, size=1000)
    s = sumproc.kahan_cumsum(p)
    assert s[0] == 0.0
    assert s[-1] == pytest.approx(math.fsum(p), rel=1e-12)


def test_kahan_cumsum_keeps_what_cancellation_would_lose():
    assert sumproc.kahan_cumsum([1.0, 1e100, 1.0, -1e100])[-1] == 2.0


def test_kahan_cumsum_every_prefix_within_sum2_bound():
    # Ogita, Rump & Oishi (2005): |result - sum| <= eps |sum| + gamma_{n-1}^2 sum |p|,
    # with eps = 2^-53 and gamma_n = n eps / (1 - n eps).
    rng = np.random.default_rng(5)
    p = rng.standard_normal(1000) * 10.0 ** rng.integers(-8, 8, size=1000)
    s = sumproc.kahan_cumsum(p)
    eps = 2.0 ** -53
    for k in range(len(p) + 1):
        exact = math.fsum(p[:k])
        gamma = max(k - 1, 0) * eps / (1 - max(k - 1, 0) * eps)
        bound = eps * abs(exact) + gamma ** 2 * math.fsum(np.abs(p[:k]))
        assert abs(s[k] - exact) <= bound
