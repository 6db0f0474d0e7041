import contextlib
import functools
import math

import numpy as np
import pytest
import scipy.optimize
import scipy.special
import scipy.stats
from scipy.integrate import quad

from covcusum import limits
from covcusum.errors import ConfigurationError, CovCusumError, ShapeError
from covcusum.limits import DEFAULT_N_GRID, DEFAULT_N_REP, NullLaw

SMALL = dict(n_grid=500, n_rep=20_000)


class TestSupAbsBmCdf:
    def test_zero(self):
        assert limits.sup_abs_bm_cdf(0.0) == 0.0

    def test_negative_zero_is_zero(self):
        # exp(-c / -0.0) = exp(+inf) turned the series into nan, with a warning.
        assert limits.sup_abs_bm_cdf(-0.0) == 0.0
        np.testing.assert_array_equal(limits.sup_abs_bm_cdf(np.array([-0.0, 0.0])), [0.0, 0.0])

    def test_total_mass(self):
        assert limits.sup_abs_bm_cdf(1e6) == pytest.approx(1.0, abs=1e-12)

    def test_95_point(self):
        assert limits.sup_abs_bm_cdf(2.2414 ** 2) == pytest.approx(0.95, abs=5e-4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            limits.sup_abs_bm_cdf(-0.1)

    def test_monotone(self):
        ys = np.linspace(0.01, 10.0, 200)
        vals = [limits.sup_abs_bm_cdf(y) for y in ys]
        assert np.all(np.diff(vals) >= -1e-14)

    def test_dominated_by_terminal_value(self):
        # sup |B| stochastically dominates |B(1)|, so its cdf lies below
        # the half-normal cdf erf(sqrt(y / 2)).
        for y in (0.5, 1.0, 2.0, 4.0):
            assert limits.sup_abs_bm_cdf(y) <= math.erf(math.sqrt(y / 2)) + 1e-12


class TestSupAbsBbCdf:
    def test_kolmogorov_95_point(self):
        assert limits.sup_abs_bb_cdf(1.358 ** 2) == pytest.approx(0.95, abs=1e-3)

    def test_small_argument(self):
        assert limits.sup_abs_bb_cdf(0.25) == pytest.approx(0.0361, abs=5e-4)

    def test_against_scipy_kolmogorov(self):
        # Independent oracle: scipy's Kolmogorov survival function uses the
        # alternating-series form, not the theta-function form used here.
        for x in (0.4, 0.6, 0.8, 1.0, 1.358, 2.0):
            assert limits.sup_abs_bb_cdf(x ** 2) == pytest.approx(
                1.0 - scipy.special.kolmogorov(x), abs=1e-10)

    def test_monotone(self):
        assert limits.sup_abs_bb_cdf(1.0) < limits.sup_abs_bb_cdf(2.0)

    @pytest.mark.parametrize("y", [0.0, -0.0])
    def test_nonpositive_rejected(self, y):
        with pytest.raises(ValueError):
            limits.sup_abs_bb_cdf(y)


class TestSimulatedPaths:
    def test_mean_sup_bridge_matches_series(self):
        # E sup|bridge| = integral of the survival function; quadrature of
        # the series cdf is the independent oracle.
        # Fine grid: the supremum of a discretized path is biased low by
        # O(1/sqrt(n_grid)), which would dominate at coarse resolution.
        hi, lo = limits.simulate_path_extrema(1, 20_000, 20_000, seed=4, workers=2,
                                              cache=False)["bb"]
        sup_bb = np.maximum(hi[:, 0], lo[:, 0])
        expected, _ = quad(lambda x: 1.0 - limits.sup_abs_bb_cdf(x ** 2), 1e-9, 10.0)
        assert sup_bb.mean() == pytest.approx(expected, abs=0.01)

    @pytest.mark.parametrize("n_block", [1, 64, 130, 200])
    def test_block_extrema_match_full_matrix_reference(self, n_block):
        # The block is filled in row chunks; the numbers must equal those of
        # one full-matrix draw from the same (seed, block, sample) stream.
        seed, b, j, n_grid = 5, 3, 1, 300
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(seed, spawn_key=(limits._PATH_STREAMS, b, j))))
        paths = np.cumsum(rng.standard_normal((n_block, n_grid)) / math.sqrt(n_grid), axis=1)
        ref = [np.maximum(paths.max(axis=1), 0.0), np.maximum(-paths.min(axis=1), 0.0)]
        paths -= paths[:, -1:] * (np.arange(1, n_grid + 1) / n_grid)
        ref += [np.maximum(paths.max(axis=1), 0.0), np.maximum(-paths.min(axis=1), 0.0)]
        got = limits._block_extrema(seed, b, j, n_block, n_grid)
        for g, r in zip(got, ref):
            assert np.array_equal(g, r)


    @pytest.mark.parametrize("seed", [42, 3386250816931739734])
    def test_paths_never_reuse_panel_streams(self, seed):
        # A seed shared by a panel and a critical value (the README quick
        # start, an experiment cell) must not give the paths the draws of
        # the panel's innovations.
        hi, lo = limits.simulate_path_extrema(1, 100, 1, seed, cache=False)["bm"]
        walk = np.cumsum(limits.stream(seed, 0, 0).standard_normal(100) / 10.0)
        assert (hi[0, 0], lo[0, 0]) != (max(walk.max(), 0.0), max(-walk.min(), 0.0))


class TestExtremaCache:
    @pytest.mark.parametrize("memo_name,call,pairs", [
        ("_path_extrema", lambda seed: limits.simulate_path_extrema(1, 100, 1000, seed=seed),
         lambda r: [r["bm"], r["bb"]]),
        ("draw_extrema", lambda seed: limits.draw_extrema("bb", 1, 1000, seed), lambda r: [r]),
        ("_sum_cdf", lambda seed: limits._sum_cdf("q-breve", 2, 100 + seed, limits._TABLE_STEP),
         lambda r: [(r,)]),
    ], ids=["paths", "draws", "sum-cdfs"])
    def test_cache_is_bounded_and_evicted_keys_replay(self, memo_name, call, pairs):
        memo = getattr(limits, memo_name)
        memo.cache_clear()
        first = call(0)
        for seed in range(1, 3 * limits._EXTREMA_CACHE_SIZE):
            latest = call(seed)
            assert memo.cache_info().currsize <= limits._EXTREMA_CACHE_SIZE
        assert memo.cache_info().maxsize == limits._EXTREMA_CACHE_SIZE
        assert call(seed) is latest
        misses = memo.cache_info().misses
        again = call(0)  # evicted: drawn afresh
        assert memo.cache_info().misses == misses + 1
        assert again is not first
        assert all(np.array_equal(x, y)
                   for p, q in zip(pairs(again), pairs(first)) for x, y in zip(p, q))
        memo.cache_clear()

    def test_memoized_arrays_are_read_only(self):
        # Writing into a returned array would change every later critical
        # value that reads the memo; it is refused instead.
        law = NullLaw("v-breve", 2, n_grid=500, n_rep=2000, seed=23)
        weights = law.weights((1.0, 1.5), (0.5, 0.5))
        limits.draw_extrema.cache_clear()
        before = limits.critical_value(law, 0.95, weights)
        memos = [*limits.draw_extrema("bb", 2, 2000, 23), limits._quantile_table("bb"),
                 *limits.simulate_path_extrema(1, 100, 1000, seed=23)["bb"],
                 limits._sum_cdf("q-breve", 2, 500, limits._TABLE_STEP)]
        for a in memos:
            with pytest.raises(ValueError, match="read-only"):
                a *= 2.0
        assert limits.critical_value(law, 0.95, weights) == before
        limits.draw_extrema.cache_clear()  # redrawn through the quantile table
        assert limits.critical_value(law, 0.95, weights) == before
        limits.draw_extrema.cache_clear()
        limits._path_extrema.cache_clear()

    @pytest.mark.parametrize("cache", [True, False])
    def test_path_set_mapping_is_read_only(self, cache):
        # A plain dict let r["bb"] = None make every later cached call return None.
        limits._path_extrema.cache_clear()
        r = limits.simulate_path_extrema(1, 100, 1000, seed=0, cache=cache)
        with pytest.raises(TypeError):
            r["bb"] = None
        with pytest.raises(TypeError):
            del r["bm"]
        again = limits.simulate_path_extrema(1, 100, 1000, seed=0, cache=cache)
        assert sorted(again) == ["bb", "bm"]
        for law in ("bm", "bb"):
            assert all(np.array_equal(x, y) for x, y in zip(again[law], r[law]))
            assert (again[law][0] is r[law][0]) is cache
        limits._path_extrema.cache_clear()


    def test_shift_made_per_call_leaves_the_memo_unshifted(self):
        # One draw set serves two n_grid: each value is the quantile of a
        # fresh shift, and the memoized draws stay read-only and unshifted.
        limits.draw_extrema.cache_clear()
        hi, lo = limits.draw_extrema("bb", 2, 2000, 31)
        before = [a.copy() for a in (hi, lo)]
        c = np.array([1.0, 1.5]) * np.sqrt([0.5, 0.5])
        for n_grid in (500, 2000):
            shift = limits.BGK_BETA / math.sqrt(n_grid)
            fresh = [np.maximum(a - shift, 0.0) for a in before]
            law = NullLaw("v-breve", 2, n_grid, 2000, 31)
            assert limits.critical_value(law, 0.95, law.weights((1.0, 1.5), (0.5, 0.5))) == \
                limits.empirical_quantile(
                np.maximum(fresh[0] @ c, fresh[1] @ c), 0.95)
        hits = limits.draw_extrema.cache_info().hits
        memo = limits.draw_extrema("bb", 2, 2000, 31)
        assert limits.draw_extrema.cache_info().hits == hits + 1
        assert all(m is a for m, a in zip(memo, (hi, lo)))
        for m, b in zip(memo, before):
            assert np.array_equal(m, b)
            with pytest.raises(ValueError, match="read-only"):
                m *= 2.0
        limits.draw_extrema.cache_clear()

    def test_draws_memoized_on_one_key(self):
        # Positional-only arguments: a keyword spelling cannot memoize the
        # same draw set a second time.
        with pytest.raises(TypeError):
            limits.draw_extrema("bb", 1, 1000, seed=0)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker counts ``limits.process_map`` is entered with; each maps serially."""
    sizes = []

    @contextlib.contextmanager
    def recording_map(workers):
        sizes.append(workers)
        yield map

    monkeypatch.setattr(limits, "process_map", recording_map)
    return sizes


class TestWorkers:
    def test_pool_is_bounded_by_task_count(self, pool_sizes):
        # n_rep 3000 is two blocks; with K = 2 that is four tasks.
        for workers in (1, 3, 1000):
            limits.simulate_path_extrema(2, 100, 3000, seed=1, workers=workers, cache=False)
        assert pool_sizes == [1, 3, 4]

    def test_paths_independent_of_worker_count(self):
        # Two blocks of two samples: four tasks, run on one, two or eight processes.
        ref = limits.simulate_path_extrema(2, 100, 3000, seed=1, workers=1, cache=False)
        for workers in (2, 8):
            got = limits.simulate_path_extrema(2, 100, 3000, seed=1, workers=workers, cache=False)
            for law in ("bm", "bb"):
                assert all(np.array_equal(g, r) for g, r in zip(got[law], ref[law]))

    @pytest.mark.parametrize("workers", [0, -1, 1.5, True])
    def test_worker_count_below_one_refused_before_any_pool(self, pool_sizes, workers):
        with pytest.raises(ConfigurationError, match="workers"):
            limits.simulate_path_extrema(1, 100, 1000, seed=1, workers=workers, cache=False)
        assert pool_sizes == []


@pytest.fixture(scope="module")
def oracle_extrema():
    return limits.simulate_path_extrema(4, 1000, 100_000, seed=99, workers=2, cache=False)


# The y-grid on which the series are checked against independent formulas.
SERIES_YS = np.concatenate([np.linspace(0.01, 2.0, 200), np.linspace(2.0, 70.0, 300)])


class TestCorrectedLaw:
    def test_array_series_match_scalar(self):
        for cdf in (limits.sup_abs_bm_cdf, limits.sup_abs_bb_cdf):
            arr = cdf(SERIES_YS)
            assert isinstance(arr, np.ndarray) and arr.shape == SERIES_YS.shape
            assert cdf(SERIES_YS.reshape(20, 25)).shape == (20, 25)
            for y, a in zip(SERIES_YS, arr):
                value = cdf(float(y))
                assert type(value) is float
                assert abs(value - a) <= 1e-15

    def test_bb_series_matches_kstwobign(self):
        expected = scipy.stats.kstwobign.cdf(np.sqrt(SERIES_YS))
        assert np.max(np.abs(limits.sup_abs_bb_cdf(SERIES_YS) - expected)) <= 1e-12

    def test_bm_series_matches_gaussian_image_sum(self):
        # P(sup|B| <= x) = sum_k (-1)^k [Phi((2k+1) x) - Phi((2k-1) x)].
        x = np.sqrt(SERIES_YS)
        k = np.arange(-50, 51)[:, None]
        terms = (-1.0) ** k * (scipy.stats.norm.cdf((2 * k + 1) * x)
                               - scipy.stats.norm.cdf((2 * k - 1) * x))
        expected = terms.sum(axis=0)
        assert np.max(np.abs(limits.sup_abs_bm_cdf(SERIES_YS) - expected)) <= 1e-12

    @pytest.mark.parametrize("shape", [(0,), (2, 0)])
    @pytest.mark.parametrize("cdf", [limits.sup_abs_bm_cdf, limits.sup_abs_bb_cdf])
    def test_empty_array_keeps_its_shape(self, cdf, shape):
        assert cdf(np.empty(shape)).shape == shape

    def test_array_arguments_keep_the_scalar_refusals(self):
        np.testing.assert_array_equal(limits.sup_abs_bm_cdf(np.array([0.0, 0.0])), [0.0, 0.0])
        assert limits.sup_abs_bm_cdf(np.array([0.0, 4.0]))[1] == pytest.approx(
            limits.sup_abs_bm_cdf(4.0), abs=1e-15)
        with pytest.raises(ValueError):
            limits.sup_abs_bm_cdf(np.array([1.0, -0.1]))
        with pytest.raises(ValueError):
            limits.sup_abs_bb_cdf(np.array([1.0, 0.0]))

    @pytest.mark.parametrize("cdf", [limits.sup_abs_bm_cdf, limits.sup_abs_bb_cdf])
    def test_infinite_argument_gives_one(self, cdf):
        value = cdf(math.inf)
        assert type(value) is float and value == 1.0
        out = cdf(np.array([1.0, np.inf]))
        assert out[1] == 1.0
        assert abs(out[0] - cdf(1.0)) <= 1e-15

    @pytest.mark.parametrize("cdf", [limits.sup_abs_bm_cdf, limits.sup_abs_bb_cdf])
    @pytest.mark.parametrize("y", [math.nan, np.array([1.0, np.nan])], ids=["float", "array"])
    def test_nan_refused_naming_nan(self, cdf, y):
        with pytest.raises(ValueError, match="nan"):
            cdf(y)

    @pytest.mark.parametrize("cdf, y", [
        (limits.sup_abs_bm_cdf, -0.1), (limits.sup_abs_bm_cdf, math.nan),
        (limits.sup_abs_bb_cdf, 0.0), (limits.sup_abs_bb_cdf, np.array([1.0, -0.1]))],
        ids=["bm-negative", "bm-nan", "bb-zero", "bb-negative-entry"])
    def test_bound_out_of_domain_is_a_package_refusal(self, cdf, y):
        # These were plain ValueErrors, which a caller catching CovCusumError missed.
        with pytest.raises(CovCusumError, match="^argument must be "):
            cdf(y)

    @pytest.mark.parametrize("kind", limits.CORRECTED_KINDS)
    def test_table_leaves_out_at_most_1e12(self, kind):
        table = limits._one_sample_table(kind, 2000, limits._TABLE_STEP)
        assert 1.0 - table[-1] <= 1e-12
        # Independent of the series: the reflection and Kolmogorov tail
        # bounds at the table's last argument.
        x = math.sqrt((len(table) - 1) * limits._TABLE_STEP)
        if kind == "q":
            bound = 4.0 * scipy.stats.norm.sf(x)
        else:
            bound = 2.0 * math.exp(-2.0 * x * x)
        assert bound <= 1e-12

    @pytest.mark.parametrize("kind,K", [("q", 1), ("q-breve", 1), ("q-breve", 6)])
    def test_quantile_converged_in_table_step(self, kind, K):
        coarse = limits._corrected_quantile(kind, K, 0.95, 2000)
        fine = limits._corrected_quantile(kind, K, 0.95, 2000, step=limits._TABLE_STEP / 20)
        assert abs(coarse - fine) <= 1e-4

    @pytest.mark.parametrize("kind", limits.CORRECTED_KINDS)
    def test_k1_is_the_shifted_series_quantile(self, kind):
        # For one sample the quantile is (x - beta / sqrt(n_grid))^2 where
        # the series cdf of sup^2 reaches the level at x^2.
        cdf = limits.sup_abs_bm_cdf if kind == "q" else limits.sup_abs_bb_cdf
        x = scipy.optimize.brentq(lambda x: cdf(x * x) - 0.95, 1.0, 3.0, xtol=1e-14)
        expected = (x - limits.BGK_BETA / math.sqrt(2000)) ** 2
        assert limits._corrected_quantile(kind, 1, 0.95, 2000) == pytest.approx(expected, abs=1e-5)

    @pytest.mark.parametrize("kind", limits.CORRECTED_KINDS)
    @pytest.mark.parametrize("K", [1, 4])
    def test_inside_mc_order_statistic_interval(self, oracle_extrema, kind, K):
        # 99% distribution-free interval for the 0.95 quantile of the
        # n_grid = 1000 law from 1e5 simulated draws of sum_j sup|B_j|^2;
        # K = 1 uses column 0.
        law = NullLaw(kind, K, 1000)
        hi, lo = oracle_extrema["bm" if kind == "q" else "bb"]
        draws = np.sort((np.maximum(hi[:, :K], lo[:, :K]) ** 2).sum(axis=1))
        n = len(draws)
        lo = int(scipy.stats.binom.ppf(0.005, n, 0.95))
        hi = int(scipy.stats.binom.ppf(0.995, n, 0.95)) + 1
        value = limits.critical_value(law, 0.95)
        assert draws[lo - 1] <= value <= draws[hi - 1]

    @pytest.mark.parametrize("kind", limits.CORRECTED_KINDS)
    def test_independent_of_seed_and_n_rep(self, kind, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("q kinds must not simulate")

        monkeypatch.setattr(limits, "simulate_path_extrema", no_simulation)
        monkeypatch.setattr(limits, "draw_extrema", no_simulation)
        values = {limits.critical_value(NullLaw(kind, 3, 1000, n_rep, seed), 0.95)
                  for seed in (0, 7, 2024) for n_rep in (1000, 100_000)}
        assert len(values) == 1

    def test_memoized_on_exact_arguments(self, monkeypatch):
        # One sum CDF per (kind, K, n_grid): a second level of a law is a search in it.
        limits._sum_cdf.cache_clear()
        tables = []
        table = limits._one_sample_table
        monkeypatch.setattr(limits, "_one_sample_table",
                            lambda *args: tables.append(args) or table(*args))
        first = limits.critical_value(NullLaw("q-breve", 3, 700), 0.95)
        again = limits.critical_value(NullLaw("q-breve", 3, 700, 5000, 9), 0.95)
        assert again == first and len(tables) == 1
        lower = limits.critical_value(NullLaw("q-breve", 3, 700), 0.9)
        assert lower < first and len(tables) == 1
        other = limits.critical_value(NullLaw("q-breve", 3, 701), 0.95)
        assert other != first and len(tables) == 2
        with pytest.raises(TypeError):  # positional only, so that a law has one key
            limits._sum_cdf("q-breve", 3, 700, step=limits._TABLE_STEP)
        limits._sum_cdf.cache_clear()

    def test_level_beyond_table_rejected(self):
        with pytest.raises(ConfigurationError, match="beyond the tabulated law"):
            limits.critical_value(NullLaw("q-breve", 2), 1.0 - 1e-15)

    def test_method_names(self):
        laws = [limits.NullLaw(k, 2, 500, 2000, 7) for k in limits.KINDS]
        assert [law.method for law in laws] == ["corrected", "exact-mc", "corrected", "exact-mc"]
        assert [(law.n_rep, law.seed) for law in laws] == [(None, None), (2000, 7)] * 2
        # A q-kind law holds neither, whatever was given; a v-kind law holds the defaults.
        for n_rep, seed in ((100_000, 0), (2.5, 2**70), (None, None)):
            law = limits.NullLaw("q-breve", 2, 500, n_rep, seed)
            assert (law.n_rep, law.seed) == (None, None)
            assert law == limits.NullLaw("q-breve", 2, 500, 1000, 3)
        assert NullLaw("q", 2, n_rep=2.5, seed=9) == NullLaw("q", 2, DEFAULT_N_GRID, None, None)
        assert NullLaw("v", 2) == NullLaw("v", 2, DEFAULT_N_GRID, DEFAULT_N_REP, 0)

    @pytest.mark.parametrize("args, match", [
        (("bogus", 2, 500, 2000, 3), "^unknown statistic kind 'bogus'$"),
        (("v-breve", 2, 5, 2000, 3), "^n_grid must be >= 100$"),
        (("v-breve", 2, 500, 10, 3), "^n_rep must be >= 1000$"),
        (("q-breve", 2.5, 2000, None, None), "^K must be a whole number, got 2.5$"),
        (("v-breve", 0, 500, 2000, 3), "^K must be >= 1"),
        (("v", 2, 500, 2000, -1), "^seed must be non-negative, got -1$")],
        ids=["kind", "n_grid", "n_rep", "fractional-K", "no-samples", "seed"])
    def test_law_refuses_settings_at_construction(self, args, match):
        # These gave the motion law's value, a value at n_grid 5 or from 10 draws, a bare
        # AttributeError, the weights' refusal, or a refusal only when draws were made.
        with pytest.raises(ConfigurationError, match=match):
            limits.NullLaw(*args)


def _joint_cdf(law, a, b):
    """P(M+ < a, M- < b) of one bridge ("bb") or motion ("bm") on [0, 1].

    Written from the closed forms, independently of ``limits``: Feller's
    series for the bridge, the two-barrier image sum for the motion.
    """
    s = a + b
    k = np.arange(-60, 61)
    if law == "bb":
        return np.sum(np.exp(-2.0 * (k * s) ** 2) - np.exp(-2.0 * (k * s + a) ** 2))
    phi = scipy.stats.norm.cdf
    return np.sum(phi(a - 2 * k * s) - phi(-b - 2 * k * s)
                  - phi(-a - 2 * k * s) + phi(-b - 2 * a - 2 * k * s))


def _marginal_density(law, a):
    return 4.0 * a * math.exp(-2.0 * a * a) if law == "bb" else 2.0 * scipy.stats.norm.pdf(a)


def _max_at(law, u1):
    """M+ at marginal probability u1: inverse of 1 - exp(-2 a^2), or of the half-normal."""
    if law == "bb":
        return math.sqrt(-math.log1p(-u1) / 2.0)
    return float(scipy.stats.norm.ppf((1.0 + u1) / 2.0))


def _bisect_conditional(law, a, u, steps=60):
    """b with G(b | a) = u, by bisection on ``limits._conditional_cdf``."""
    lo, hi = np.zeros_like(a), np.full_like(a, 10.0)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        G, Gc, _ = limits._conditional_cdf(law, a, mid)
        below = np.where(u < 0.5, G < u, Gc > 1.0 - u)
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _kuiper_cdf(x):
    k = np.arange(1, 200)[:, None]
    x = np.atleast_1d(x)[None, :]
    return 1.0 - 2.0 * np.sum((4.0 * k * k * x * x - 1.0) * np.exp(-2.0 * k * k * x * x), axis=0)


class TestExactDraws:
    @pytest.mark.parametrize("law", ["bm", "bb"])
    def test_conditional_cdf_is_the_derivative_of_the_joint_law(self, law):
        h = 1e-5
        for a in (0.05, 0.3, 1.0, 2.5):
            for b in (0.1, 0.4, 1.0, 2.0):
                G, Gc, g = limits._conditional_cdf(law, a, b)
                d_a = (_joint_cdf(law, a + h, b) - _joint_cdf(law, a - h, b)) / (2 * h)
                assert G == pytest.approx(d_a / _marginal_density(law, a), abs=1e-6)
                assert G + Gc == pytest.approx(1.0, abs=1e-12)
                up, down = (limits._conditional_cdf(law, a, b + e)[0] for e in (h, -h))
                assert g == pytest.approx((up - down) / (2 * h), rel=1e-5, abs=1e-7)

    @pytest.mark.parametrize("law", ["bm", "bb"])
    def test_table_inverse_matches_bisection_on_the_series(self, law):
        # Both tails of M- and of M+, and an M+ below 0.02.
        a = np.array([_max_at(law, u1) for u1 in (1e-4, 0.02, 0.5, 0.98, 1 - 1e-6)])
        u = np.array([1e-9, 1e-6, 0.01, 0.5, 0.99, 1 - 1e-6, 1 - 1e-9])
        a, u = (x.ravel() for x in np.meshgrid(a, u))
        assert a.min() < 0.02
        np.testing.assert_allclose(limits._conditional_quantile(law, a, u),
                                   _bisect_conditional(law, a, u), rtol=0, atol=1e-6)

    def test_bridge_range_follows_kuiper_law(self):
        # M+ + M- of a bridge has Kuiper's law.  1.95 / sqrt(n) is the 0.1%
        # critical value of the Kolmogorov-Smirnov distance.
        hi, lo = limits.draw_extrema("bb", 1, 40_000, 11)
        ks = scipy.stats.kstest((hi + lo)[:, 0], _kuiper_cdf).statistic
        assert ks <= 1.95 / math.sqrt(40_000)

    @pytest.mark.parametrize("kind", limits.POOLED_KINDS)
    def test_k1_inside_order_statistic_interval_of_the_shifted_series(self, kind):
        # For one sample the statistic is max(sup|B| - beta / sqrt(n_grid), 0),
        # and the critical value is its k-th order statistic of n draws, at
        # which the law's cdf is Beta(k, n + 1 - k) distributed.
        law = NullLaw(kind, 1, seed=31)
        cdf = limits.sup_abs_bb_cdf if kind == "v-breve" else limits.sup_abs_bm_cdf
        shift = limits.BGK_BETA / math.sqrt(law.n_grid)
        p = cdf((limits.critical_value(law, 0.95, law.weights((1.0,), (1.0,))) + shift) ** 2)
        n = law.n_rep
        k = math.ceil(0.95 * n)
        assert (scipy.stats.beta.ppf(0.005, k, n + 1 - k) <= p
                <= scipy.stats.beta.ppf(0.995, k, n + 1 - k))

    @pytest.mark.parametrize("kind", limits.POOLED_KINDS)
    @pytest.mark.parametrize("K", [1, 4])
    def test_inside_path_mc_order_statistic_interval(self, oracle_extrema, kind, K):
        # 99% distribution-free interval for the 0.95 quantile of the
        # n_grid = 1000 pooled supremum from 1e5 simulated paths (seed 99),
        # weighted as in a Case IV cell.  The exact draws use another seed,
        # and 4e5 of them, so that their own error is half the oracle's.
        alpha = np.array([1.0, 1.5, 0.7, 1.0][:K])
        sizes = np.array([1000, 900, 1100, 950][:K])
        kappa = sizes / sizes.sum()
        c = alpha * np.sqrt(kappa)
        hi, lo = oracle_extrema["bb" if kind == "v-breve" else "bm"]
        draws = np.sort(np.maximum(hi[:, :K] @ c, lo[:, :K] @ c))
        n = len(draws)
        first = int(scipy.stats.binom.ppf(0.005, n, 0.95))
        last = int(scipy.stats.binom.ppf(0.995, n, 0.95)) + 1
        law = NullLaw(kind, K, 1000, 400_000, 2026)
        value = limits.critical_value(law, 0.95, law.weights(tuple(alpha), tuple(kappa)))
        assert draws[first - 1] <= value <= draws[last - 1]

    @pytest.mark.parametrize("seed", [42, 3386250816931739734])
    def test_draws_never_reuse_panel_streams(self, seed):
        # A motion's M+ is |z| for the first normal z of its stream; a panel's
        # first innovation is the first normal of the (seed, 0, 0) stream.
        hi, _ = limits.draw_extrema("bm", 1, 1, seed)
        assert hi[0, 0] != abs(limits.stream(seed, 0, 0).standard_normal())
        limits.draw_extrema.cache_clear()


class TestCriticalValue:
    def test_q_breve_k1_matches_kolmogorov_square(self):
        law = NullLaw("q-breve", 1, seed=7)
        assert limits.critical_value(law, 0.95) == pytest.approx(1.358 ** 2, rel=0.02)

    def test_v_breve_k1_matches_kolmogorov(self):
        law = NullLaw("v-breve", 1, seed=7)
        assert limits.critical_value(law, 0.95, law.weights((1.0,), (1.0,))) == \
            pytest.approx(1.358, rel=0.02)

    def test_q_k1_matches_reflection_law(self):
        law = NullLaw("q", 1, seed=7)
        assert limits.critical_value(law, 0.95) == pytest.approx(2.2414 ** 2, rel=0.02)

    def test_quantile_monotone_in_level(self):
        vals = []
        for level in (0.8, 0.9, 0.95, 0.99):
            vals.append(limits.critical_value(NullLaw("q-breve", 3, seed=11, **SMALL), level))
        assert vals == sorted(vals)

    def test_alpha_scaling_exact_for_fixed_seed(self):
        law = NullLaw("v-breve", 2, seed=13, **SMALL)
        base = law.weights((1.0, 2.0), (0.5, 0.5))
        scaled = law.weights((3.0, 6.0), (0.5, 0.5))
        assert limits.critical_value(law, 0.95, scaled) == pytest.approx(
            3.0 * limits.critical_value(law, 0.95, base), rel=1e-12)

    def test_draws_independent_of_task_order(self):
        # Each (block, sample) task draws from its own stream, so running the
        # tasks backwards, as a pool might finish them, gives the same bits.
        limits.draw_extrema.cache_clear()
        arrays = (np.empty((5000, 3)), np.empty((5000, 3)))

        def backwards(fn, *columns):  # runs the last task first, returns in task order
            return list(map(fn, *(c[::-1] for c in columns)))[::-1]

        limits._fill_blocks(arrays, functools.partial(limits._block_draws, "bb", 17), backwards)
        drawn = limits.draw_extrema("bb", 3, 5000, 17)
        assert all(np.array_equal(a, d) for a, d in zip(arrays, drawn))
        limits.draw_extrema.cache_clear()

    @pytest.mark.parametrize("kind", limits.POOLED_KINDS)
    def test_weight_stack_equals_one_request_per_row(self, kind):
        # An (R, K) array of weights is R critical values in one quantile call, bit
        # for bit, at either n_grid of one draw set.
        alphas = np.random.default_rng(3).uniform(0.2, 3.0, size=(5, 3))
        kappa = (0.2, 0.3, 0.5)
        limits.draw_extrema.cache_clear()
        for n_grid in (500, 2000):
            law = limits.NullLaw(kind, 3, n_grid, 2000, 29)
            got = law.quantile(0.95, alphas * np.sqrt(kappa))
            rows = [limits.critical_value(law, 0.95, law.weights(tuple(a), kappa))
                    for a in alphas]
            assert got.shape == (5,)
            assert np.array_equal(got, rows)
        limits.draw_extrema.cache_clear()

    @pytest.mark.parametrize("stack", [[[1.0, 1.5], [0.5, 2.0]], [[1.0, 1.5]] * 3,
                                       np.ones((2, 2)), np.zeros((0, 2))],
                             ids=["K-rows", "3-rows", "array", "no-rows"])
    def test_weight_stack_refused_by_weights(self, stack):
        # ``weights`` makes one row of K weights; a stack of rows is ``quantile``'s to take.
        with pytest.raises(ConfigurationError,
                           match="alpha_weights must be K positive finite reals, got"):
            NullLaw("v-breve", 2).weights(stack, (0.5, 0.5))

    @pytest.mark.parametrize("kind", limits.KINDS)
    @pytest.mark.parametrize("level", [1.5, 1.0, 0.0, -0.2, math.nan])
    def test_law_refuses_level_outside_unit_interval(self, kind, level):
        # The exact-mc law returned its largest or smallest draw, or numpy's bare
        # ValueError at nan; the corrected law refused with its own text.
        law = limits.NullLaw(kind, 2, 500, 1000, 3)
        with pytest.raises(ConfigurationError, match=r"^level must be in \(0, 1\), got "):
            law.quantile(level, (1.0, 1.5))

    @pytest.mark.parametrize("weights", [(1.0, -1.0), (1.0, math.nan), (1.0, math.inf),
                                         (1.0, 1.0, 1.0), None],
                             ids=["negative", "nan", "inf", "three", "none"])
    def test_law_refuses_weights_not_k_positive_finite_reals(self, weights):
        # These gave a value of a law the separation does not hold for, a nan that
        # every statistic is accepted against, inf, or numpy's bare ValueError.
        law = limits.NullLaw("v-breve", 2, 500, 1000, 3)
        with pytest.raises(ConfigurationError,
                           match=r"^weights must be K positive finite reals, got "):
            law.quantile(0.95, weights)

    def test_law_names_the_bad_row_of_a_weight_stack(self):
        law = limits.NullLaw("v", 2, 500, 1000, 3)
        stack = np.array([[1.0, 1.5], [0.5, 2.0], [0.5, math.nan], [1.0, 1.0]])
        with pytest.raises(ConfigurationError,
                           match=r"^weights row 2 must be K positive finite reals, got "):
            law.quantile(0.95, stack)
        assert law.quantile(0.95, stack[:2]).shape == (2,)
        limits.draw_extrema.cache_clear()

    def test_missing_weights_rejected(self):
        with pytest.raises(ConfigurationError, match="requires alpha_weights and kappa"):
            NullLaw("v", 2, seed=1, **SMALL).weights()

    @pytest.mark.parametrize("kind", limits.KINDS)
    @pytest.mark.parametrize("given", ["alpha_weights", "kappa"])
    def test_incomplete_or_surplus_weights_refused(self, kind, given):
        # A pooled kind needs both weights, a corrected kind takes neither.
        with pytest.raises(ConfigurationError, match=f"kind '{kind}' (requires|takes no)"):
            NullLaw(kind, 1).weights(**{given: (1.0,)})

    def test_invalid_laws_and_weights_rejected(self):
        with pytest.raises(ConfigurationError):
            NullLaw("bogus", 1)
        with pytest.raises(ConfigurationError, match="K must be >= 1"):
            NullLaw("q", 0)
        with pytest.raises(ConfigurationError):
            limits.critical_value(NullLaw("q", 1), 1.5)
        for bad in ("0.5", None, [0.5], 0.95 + 0j):  # used to raise a bare TypeError
            with pytest.raises(ConfigurationError, match=r"level must be in \(0, 1\), got "):
                limits.critical_value(NullLaw("q", 1), bad)
        with pytest.raises(ConfigurationError):
            NullLaw("q", 1, n_grid=10)
        with pytest.raises(ConfigurationError, match="^kappa entries must sum to at most 1$"):
            NullLaw("v", 2).weights((1.0, 1.0), (0.9, 0.9))
        # A string, bool or complex entry used to be read as a float or to
        # raise numpy's ValueError; 10**400 overflows a float.
        for bad in (0.0, -1.0, math.nan, math.inf, "x", "0.5", True, 0.5 + 0j, 10 ** 400):
            with pytest.raises(ConfigurationError,
                               match="alpha_weights must be K positive finite reals, got"):
                NullLaw("v", 2).weights((1.0, bad), (0.5, 0.5))
            with pytest.raises(ConfigurationError,
                               match="kappa must be K positive finite reals, got"):
                NullLaw("v", 2).weights((1.0, 1.0), (bad, 0.5))
        with pytest.raises(ConfigurationError, match="alpha_weights must be K positive"):
            NullLaw("v", 1).weights(1.0, (1.0,))
        with pytest.raises(ConfigurationError, match="seed"):
            NullLaw("v-breve", 1, seed=-1)

    @pytest.mark.parametrize("name, value", [
        ("seed", 1.5), ("seed", True), ("n_grid", 1000.5), ("n_rep", 2000.5),
        ("K", 2.5), ("K", np.bool_(True)), ("K", "2"), ("seed", "1"), ("n_grid", math.nan),
        # simgen.sample_rng(1.5, 0) used to be the stream of seed 1.
        ("stream", (1.5, 0)), ("stream", (True, 0)), ("stream", (1, 0.9))])
    def test_integer_setting_not_a_whole_number_refused(self, name, value):
        # seed 1.5 used to give seed 1's value, and K 2.5 an AttributeError.
        if name == "stream":
            with pytest.raises(ConfigurationError, match=r"(seed|key) must be a whole number"):
                limits.stream(*value)
            return
        settings = dict(kind="v-breve", K=2, n_rep=2000, seed=1)
        with pytest.raises(ConfigurationError, match=f"{name} must be a whole number, got "):
            NullLaw(**{**settings, name: value})

    @pytest.mark.parametrize("refuse", [lambda: limits.stream(1, -1),
                                        lambda: limits.stream(1, 0, -3),
                                        lambda: limits.child_seed(1, -1)],
                             ids=["stream", "second-word", "child-seed"])
    def test_negative_stream_key_refused(self, refuse):
        # numpy's SeedSequence raised a bare "expected non-negative integer".
        with pytest.raises(ConfigurationError, match=r"^key must be >= 0, got -[13]$"):
            refuse()

    def test_seed_of_2_to_the_64_or_more_refused(self):
        # SeedSequence pads a seed below 2**128 to four words before the key
        # and a wider one not: this seed drew the normals of (7, _PATH_STREAMS, 3, 1).
        wide = 7 + (limits._PATH_STREAMS << 128)
        assert limits.stream(7, limits._PATH_STREAMS, 3, 1).standard_normal() == \
            np.random.Generator(np.random.Philox(np.random.SeedSequence(
                wide, spawn_key=(3, 1)))).standard_normal()
        for refuse in (lambda: limits.stream(wide, 3, 1), lambda: limits.stream(2**64),
                       lambda: limits.child_seed(2**64, 0),
                       lambda: NullLaw("v-breve", 1, seed=2**64)):
            with pytest.raises(ConfigurationError, match=r"^seed must be below 2\*\*64, got "):
                refuse()
        assert limits.check_seed(np.uint64(2**64 - 1)) == 2**64 - 1
        limits.stream(2**64 - 1, 3, 1)

    def test_stream_key_word_of_2_to_the_32_or_more_refused(self):
        # SeedSequence splits a wider key word into 32-bit words: stream(7, 2**32 + 5)
        # drew the normals of stream(7, 5, 1), and child_seed(7, 2**32 + 5) was key (5, 1)'s.
        def sequence(*key):
            return np.random.SeedSequence(7, spawn_key=key)

        assert np.random.Generator(np.random.Philox(sequence(2**32 + 5))).standard_normal() \
            == limits.stream(7, 5, 1).standard_normal()
        assert np.array_equal(sequence(2**32 + 5).generate_state(1, dtype=np.uint64),
                              sequence(5, 1).generate_state(1, dtype=np.uint64))
        for refuse in (lambda: limits.stream(7, 2**32), lambda: limits.stream(7, 2**64),
                       lambda: limits.stream(7, 5, 2**32), lambda: limits.stream(7, 5, 2**64),
                       lambda: limits.child_seed(7, 2**32), lambda: limits.child_seed(7, 2**64)):
            with pytest.raises(ConfigurationError, match=r"^key must be below 2\*\*32, got "):
                refuse()
        limits.stream(7, 2**32 - 1, 2**32 - 1)
        limits.child_seed(7, 2**32 - 1)

    def test_unread_n_rep_not_checked_and_not_held(self):
        law = NullLaw("q-breve", 1, n_rep=2.5)
        assert (law.n_rep, law.seed) == (None, None)

    @pytest.mark.parametrize("kind", ["q-breve", "v-breve"])
    def test_integral_floats_and_numpy_integers_are_those_ints(self, kind):
        pooled = kind == "v-breve"
        law = NullLaw(kind, 2, 500, 2000, 1)
        weights = law.weights((1.0, 1.5), (0.5, 0.5)) if pooled else None
        for K, n_grid, n_rep, seed in [(2.0, 500.0, 2000.0, 1.0),
                                       (np.int64(2), np.int32(500), np.int64(2000), np.uint8(1))]:
            same = NullLaw(kind, K, n_grid, n_rep, seed)
            assert same == law
            read = ("K", "n_grid") + (("n_rep", "seed") if pooled else ())
            assert all(type(getattr(same, f)) is int for f in read)
            assert limits.critical_value(same, 0.95, weights) == \
                limits.critical_value(law, 0.95, weights)

    def test_empirical_quantile_convention(self):
        draws = np.arange(1.0, 101.0)
        # ceil(0.95 * 100) = 95th order statistic.
        assert limits.empirical_quantile(draws, 0.95) == 95.0

    @pytest.mark.parametrize("level", [2.0, -1.0, math.nan])
    def test_empirical_quantile_refuses_level_outside_unit_interval(self, level):
        # Levels 2 and -1 gave the largest and the smallest draw, nan numpy's bare ValueError.
        with pytest.raises(ConfigurationError, match=r"^level must be in \(0, 1\), got "):
            limits.empirical_quantile(np.arange(1.0, 11.0), level)

    def test_empirical_quantile_refuses_no_draws(self):
        # No draws used to raise a bare IndexError.
        with pytest.raises(ShapeError, match="^empty set of draws$"):
            limits.empirical_quantile(np.array([]), 0.5)


def test_series_vs_monte_carlo_cdf_agreement(bridge_suprema):
    # Discretization biases the supremum low, so the empirical cdf may sit
    # slightly above the series but must never fall more than 0.001 below.
    # Probe the upper-tail region where critical values are read off; in
    # the body of the law the known downward discretization bias of the
    # supremum shifts the empirical cdf up by more than 0.01 at this grid.
    # The draw (seed 2025) is shared with acceptance criterion 2.
    sup_bb = bridge_suprema
    probes = np.linspace(1.2, 2.1, 10)
    for x in probes:
        emp = np.mean(sup_bb <= x)
        ser = limits.sup_abs_bb_cdf(x ** 2)
        assert emp >= ser - 0.001
        assert abs(emp - ser) <= 0.01


def test_critical_value_increases_with_level():
    values = [limits.critical_value(NullLaw("q-breve", 2, seed=23, **SMALL), lv)
              for lv in (0.9, 0.95)]
    assert values[0] < values[1]
