import hashlib

import numpy as np
import pytest

from covcusum import simgen
from covcusum.errors import ConfigurationError, ShapeError


def make_config(**overrides):
    kwargs = dict(K=1, d=1, N=(100,), rho0=(0.5,), sigma0=(1.0,), seed=1)
    kwargs.update(overrides)
    return simgen.PanelConfig(**kwargs)


class TestPanelConfig:
    def test_rejects_nonstationary_rho(self):
        with pytest.raises(ConfigurationError, match="rho0"):
            make_config(rho0=(1.0,))

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ConfigurationError, match="sigma0"):
            make_config(sigma0=(0.0,))

    def test_rejects_tau_out_of_range(self):
        with pytest.raises(ConfigurationError, match="tau"):
            make_config(tau=(101,), sigma1=(2.0,))

    def test_rejects_tau_without_post_change_params(self):
        with pytest.raises(ConfigurationError, match="tau"):
            make_config(tau=(50,))

    def test_rejects_wrong_length_n(self):
        with pytest.raises(ConfigurationError, match="N"):
            make_config(K=2, N=(100,), sigma0=(1.0, 1.0))

    @pytest.mark.parametrize("overrides, match", [
        # Each of these used to be truncated (seed 1.5 gave seed 1's panel,
        # N 50.9 gave 50) or to fail later with a TypeError or ValueError.
        (dict(seed=1.5), "seed must be a whole number, got 1.5"),
        (dict(seed=True), "seed must be a whole number, got True"),
        (dict(N=(50.9,)), "N must be a whole number, got 50.9"),
        (dict(N=(True,)), r"N must be K positive whole numbers, got \(True,\)"),
        (dict(N=100), "N must be K positive whole numbers, got 100"),
        (dict(tau=(20.7,), sigma1=(2.0,)), "tau must be a whole number, got 20.7"),
        (dict(tau=(0,), sigma1=(2.0,)), "tau must be K positive whole numbers"),
        (dict(burn_in=2.5), "burn_in must be a whole number, got 2.5"),
        (dict(d=2.5, rho0=(0.1, 0.2)), "d must be a whole number, got 2.5"),
        (dict(K="2"), "K must be a whole number, got '2'"),
        (dict(rho0=("x",)), r"rho0 must be d reals in \(-1, 1\), got \('x',\)"),
        (dict(rho0=("0.5",)), "rho0 must be d reals"),
        (dict(rho0=(0.1, 0.2)), "rho0 must be d reals"),
        (dict(rho1=(np.nan,), tau=(50,)), "rho1 must be d reals"),
        (dict(sigma0=(1 + 0j,)), "sigma0 must be K positive finite reals"),
        (dict(sigma1=(np.inf,), tau=(50,)), "sigma1 must be K positive finite reals, got"),
        (dict(seed=2**64), r"seed must be below 2\*\*64, got 18446744073709551616"),
    ], ids=["seed-fraction", "seed-bool", "N-fraction", "N-bool", "N-scalar", "tau-fraction",
            "tau-zero", "burn-in-fraction", "d-fraction", "K-string", "rho0-not-a-number",
            "rho0-string", "rho0-length", "rho1-nan", "sigma0-complex", "sigma1-inf",
            "seed-2-to-the-64"])
    def test_setting_refused_naming_it(self, overrides, match):
        with pytest.raises(ConfigurationError, match=match):
            make_config(**overrides)


class TestGenAr1Panel:
    def test_sample_shapes_match_config(self):
        # The four uneven sample sizes of the smallest study case.
        cfg = simgen.PanelConfig(K=4, d=3, N=(100, 120, 70, 90),
                                 rho0=(0.1, 0.2, 0.3), sigma0=(1, 1.5, 0.7, 1),
                                 seed=5)
        panel = simgen.gen_ar1_panel(cfg)
        assert tuple(map(len, panel)) == (100, 120, 70, 90)
        for y in panel:
            assert y.shape[1] == 3
            assert np.all(np.isfinite(y))

    def test_white_noise_case(self):
        cfg = make_config(rho0=(0.0,), N=(100_000,))
        y = simgen.gen_ar1_panel(cfg)[0][:, 0]
        assert abs(y.mean()) < 0.02
        assert abs(y.var() - 1.0) < 0.02
        lag1 = np.corrcoef(y[:-1], y[1:])[0, 1]
        assert abs(lag1) < 0.01

    def test_ar1_stationary_variance(self):
        # Var = sigma^2 / (1 - rho^2) = 4/3 for rho = 0.5.
        cfg = make_config(N=(100_000,), seed=7)
        y = simgen.gen_ar1_panel(cfg)[0][:, 0]
        assert y.var() == pytest.approx(4.0 / 3.0, rel=0.02)

    def test_determinism(self):
        cfg = make_config(K=2, d=2, N=(50, 60), rho0=(0.3, -0.4),
                          sigma0=(1.0, 2.0))
        a = simgen.gen_ar1_panel(cfg, rep=3)
        b = simgen.gen_ar1_panel(cfg, rep=3)
        for ya, yb in zip(a, b):
            np.testing.assert_array_equal(ya, yb)

    def test_replications_differ(self):
        cfg = make_config()
        a = simgen.gen_ar1_panel(cfg, rep=0)[0]
        b = simgen.gen_ar1_panel(cfg, rep=1)[0]
        assert not np.array_equal(a, b)

    def test_shared_innovation_across_coordinates(self):
        # With equal rho all coordinates see the same innovation stream,
        # hence are identical.
        cfg = make_config(d=3, rho0=(0.5, 0.5, 0.5))
        y = simgen.gen_ar1_panel(cfg)[0]
        np.testing.assert_array_equal(y[:, 0], y[:, 1])
        np.testing.assert_array_equal(y[:, 0], y[:, 2])

    def test_sigma_change_injection(self):
        n = 30_000
        tau = 10_000
        cfg = make_config(N=(n,), tau=(tau,), sigma1=(2.0,), seed=11)
        y = simgen.gen_ar1_panel(cfg)[0][:, 0]
        post_var = y[tau + 200:].var()  # skip the transition
        expected = 4.0 / (1 - 0.25)
        assert post_var == pytest.approx(expected, rel=0.05)
        pre_var = y[:tau].var()
        assert pre_var == pytest.approx(4.0 / 3.0, rel=0.05)

    def test_coefficient_change_injection(self):
        n = 30_000
        tau = 10_000
        cfg = make_config(N=(n,), tau=(tau,), rho1=(0.9,), seed=13)
        y = simgen.gen_ar1_panel(cfg)[0][:, 0]
        assert y[tau + 500:].var() == pytest.approx(1.0 / (1 - 0.81), rel=0.05)


CASE_I = dict(K=4, d=3, N=(100, 120, 70, 90), rho0=(0.15, 0.4, 0.6),
              sigma0=(1.0, 1.5, 0.7, 1.0), seed=9)


class TestGenAr1Panels:
    @pytest.mark.parametrize("overrides", [
        {},
        dict(sigma1=(1.0, 0.7, 1.2, 1.0), tau=(50, 60, 35, 45)),
        dict(rho1=(0.45, -0.7, 0.9), tau=(50, 60, 35, 45)),
        dict(rho1=(0.45, -0.7, 0.9), tau=(1, 1, 1, 1)),
        dict(rho1=(0.45, -0.7, 0.9), sigma1=(2.0, 0.5, 1.0, 3.0), tau=(100, 120, 70, 90)),
        dict(burn_in=0, rho1=(0.45, -0.7, 0.9), tau=(1, 120, 2, 45)),
        dict(K=1, d=1, N=(120,), rho0=(0.2,), sigma0=(1.0,), tau=(60,), sigma1=(2.6,)),
        dict(d=1, rho0=(-0.5,), rho1=(0.5,), tau=(1, 120, 35, 90)),
    ], ids=["null", "sigma-change", "coefficient-change", "tau-1", "tau-N",
            "burn-in-0", "K-1", "d-1"])
    def test_batch_equals_one_panel_per_call(self, overrides):
        cfg = simgen.PanelConfig(**{**CASE_I, **overrides})
        reps = [5, 0, 3]
        batch = simgen.gen_ar1_panels(cfg, iter(reps))  # any iterable of reps, read once
        assert [y.shape for y in batch] == [(n, len(reps), cfg.d) for n in cfg.N]
        for i, rep in enumerate(reps):
            alone = simgen.gen_ar1_panel(cfg, rep)
            assert tuple(map(len, alone)) == cfg.N
            for y, ref in zip(batch, alone):
                assert ref.shape == (len(ref), cfg.d)
                assert np.array_equal(y[:, i], ref)

    def test_batch_samples_view_one_buffer(self):
        # The K samples of every replication are views of the batch's one
        # generator buffer, not copies of it.
        cfg = simgen.PanelConfig(**CASE_I)
        batch = simgen.gen_ar1_panels(cfg, [5, 0, 3])
        buffer = batch[0].base
        assert buffer.shape == (cfg.burn_in + max(cfg.N), cfg.K, 3, cfg.d)
        assert all(y.base is buffer for y in batch)

    # sha256 of one small panel's bytes per scenario, as the earlier
    # generator (scipy.signal.lfilter per sample and coordinate) made them.
    GOLDEN = {
        "none": "87a338c7e1f7f58b64352dedc21fc9ac9577f8e49b6df4aad53090b23a7a5819",
        "sigma-change": "de0d6cf5afe53c23d6ef1e4f3f06e1633eec356c5a65fbebf0d846d539606450",
        "coefficient-change":
            "5056e2005e090def35e29ebf71fc69afcbfe4e42a4c47d7b48e5b134f711581d",
    }

    @pytest.mark.parametrize("scenario", sorted(GOLDEN))
    def test_panel_bytes_are_pinned(self, scenario):
        kwargs = dict(K=2, d=3, N=(12, 9), rho0=(0.1, 0.4, -0.3), sigma0=(1.0, 1.5),
                      burn_in=5, seed=2024)
        if scenario == "sigma-change":
            kwargs.update(sigma1=(2.0, 0.5), tau=(6, 4))
        elif scenario == "coefficient-change":
            kwargs.update(rho1=(0.7, -0.2, 0.5), tau=(6, 4))
        cfg = simgen.PanelConfig(**kwargs)
        for panel in (simgen.gen_ar1_panel(cfg, 3),
                      [y[:, 1] for y in simgen.gen_ar1_panels(cfg, [1, 3])]):
            digest = hashlib.sha256(b"".join(y.tobytes() for y in panel))
            assert digest.hexdigest() == self.GOLDEN[scenario]


    @pytest.mark.parametrize("number", [float, np.int64], ids=["integral-float", "numpy"])
    def test_integral_settings_give_the_plain_int_bytes(self, number):
        kwargs = dict(K=2, d=3, N=(12, 9), rho0=(0.1, 0.4, -0.3), sigma0=(1.0, 1.5),
                      rho1=(0.7, -0.2, 0.5), tau=(6, 4), burn_in=5, seed=2024)
        cfg = simgen.PanelConfig(**kwargs)
        same = simgen.PanelConfig(**{**kwargs, "N": (number(12), number(9)),
                                     "burn_in": number(5), "seed": number(2024)})
        assert same == cfg
        assert all(type(n) is int for n in (*same.N, same.burn_in, same.seed))
        for y, ref in zip(simgen.gen_ar1_panels(same, [number(3)]), simgen.gen_ar1_panels(cfg, [3])):
            assert y.tobytes() == ref.tobytes()
        digest = hashlib.sha256(b"".join(y.tobytes() for y in simgen.gen_ar1_panel(same, 3)))
        assert digest.hexdigest() == self.GOLDEN["coefficient-change"]
        assert np.array_equal(simgen.gen_dirichlet_projection(number(3), number(2024)),
                              simgen.gen_dirichlet_projection(3, 2024))


@pytest.mark.parametrize("call, match", [
    (lambda: simgen.gen_ar1_panels(make_config(), [0.5]), "reps must be a whole number, got 0.5"),
    (lambda: simgen.gen_ar1_panels(make_config(), [-1]), "reps must be non-negative"),
    (lambda: simgen.gen_dirichlet_projection(3, 1.5), "seed must be a whole number, got 1.5"),
    (lambda: simgen.gen_dirichlet_projection(3, -1), "seed must be non-negative, got -1"),
    (lambda: simgen.gen_dirichlet_projection(2.5, 1), "d must be a whole number, got 2.5"),
], ids=["reps-fraction", "reps-negative", "seed-fraction", "seed-negative", "d-fraction"])
def test_generator_argument_refused_naming_it(call, match):
    # reps 0.5 used to give rep 0's panel and seed 1.5 seed 1's vector.
    with pytest.raises(ConfigurationError, match=match):
        call()


class TestDirichletProjection:
    def test_single_component_is_degenerate(self):
        # g / sum(g) is exactly 1 for any positive draw g.
        for seed in range(200):
            np.testing.assert_array_equal(simgen.gen_dirichlet_projection(1, seed), [1.0])

    def test_simplex_constraint(self):
        w = simgen.gen_dirichlet_projection(10, 42)
        assert np.all(w >= 0)
        assert abs(w.sum() - 1.0) <= 1e-12

    def test_l2_norm_below_l1_in_high_dim(self):
        l2 = []
        for s in range(1000):
            w = simgen.gen_dirichlet_projection(1000, s)
            assert abs(w.sum() - 1.0) <= 1e-12
            l2.append(np.linalg.norm(w))
        assert np.mean(l2) < 1.0

    def test_zero_dim_rejected(self):
        with pytest.raises(ConfigurationError):
            simgen.gen_dirichlet_projection(0, 1)

    def test_deterministic(self):
        a = simgen.gen_dirichlet_projection(20, 9)
        b = simgen.gen_dirichlet_projection(20, 9)
        np.testing.assert_array_equal(a, b)


class TestBilinearTarget:
    def test_matches_empirical_covariance(self):
        d = 3
        rho = np.array([0.2, 0.5, 0.8])
        cfg = simgen.PanelConfig(K=1, d=d, N=(200_000,), rho0=tuple(rho),
                                 sigma0=(1.3,), seed=21)
        y = simgen.gen_ar1_panel(cfg)[0]
        v = np.array([0.5, 0.25, 0.25])
        target = simgen.ar1_bilinear_target(rho, 1.3, v, v)
        empirical = np.mean((y @ v) ** 2)
        assert empirical == pytest.approx(target, rel=0.03)

    # rho = 1 used to return inf with a divide-by-zero warning, a short v a raw
    # matmul error, and sigma = nan a nan target.
    @pytest.mark.parametrize("rho, sigma, v, w, match", [
        ([1.0], 1.0, [1.0], [1.0], r"rho must be one or more reals in \(-1, 1\), got \[1.0\]"),
        ([-1.5, 0.2], 1.0, [1.0, 0.0], [1.0, 0.0], "rho must be one or more reals"),
        (0.5, 1.0, [1.0], [1.0], "rho must be one or more reals"),
        ([], 1.0, [], [], "rho must be one or more reals"),
        ([0.5], float("nan"), [1.0], [1.0], r"sigma must be a positive finite real, got \(nan,\)"),
        ([0.5], 0.0, [1.0], [1.0], "sigma must be a positive finite real"),
        ([0.5], float("inf"), [1.0], [1.0], "sigma must be a positive finite real"),
        ([0.5, 0.2], 1.0, [1.0], [1.0, 0.0],
         r"v must be as many finite reals as rho \(2\), got \[1.0\]"),
        ([0.5], 1.0, [1.0], [1.0, 0.0], r"w must be as many finite reals as rho \(1\)"),
        ([0.5], 1.0, [np.inf], [1.0], "v must be as many finite reals as rho"),
        ([0.5], 1.0, [1.0], [np.nan], "w must be as many finite reals as rho"),
    ], ids=["rho-one", "rho-below", "rho-scalar", "rho-empty", "sigma-nan", "sigma-zero",
            "sigma-inf", "v-short", "w-long", "v-inf", "w-nan"])
    def test_bad_input_refused_by_name(self, rho, sigma, v, w, match):
        with pytest.raises(ConfigurationError, match=match):
            simgen.ar1_bilinear_target(rho, sigma, v, w)


def test_export_panel_csv_round_trip(tmp_path):
    cfg = simgen.PanelConfig(K=2, d=2, N=(5, 7), rho0=(0.1, 0.2),
                             sigma0=(1.0, 1.0), seed=3)
    panel = simgen.gen_ar1_panel(cfg)
    paths = simgen.export_panel_csv(panel, tmp_path)
    assert len(paths) == 2
    for path, y in zip(paths, panel):
        loaded = np.loadtxt(path, delimiter=",")
        np.testing.assert_array_equal(loaded, y)


@pytest.mark.parametrize("shape", [(0, 1, 1, 1), (4, 2, 1, 1), (4, 1, 1, 3), (4, 1, 2, 1)],
                         ids=["no-rows", "wrong-K", "wrong-d", "wrong-R"])
def test_row_buffer_of_another_shape_refused(shape):
    # Two replication columns for one rep would both get that rep's innovations.
    with pytest.raises(ShapeError, match=r"rows must be \(B >= 1, K=1, R=1, d=1\)"):
        next(simgen.gen_ar1_blocks(make_config(), [0], np.empty(shape)))
