import csv
import dataclasses
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from covcusum import harness, limits, simgen, sumproc
from covcusum.errors import ConfigurationError
from covcusum.harness import ExperimentConfig

FAST = dict(critval_n_grid=500, critval_n_rep=20_000)


class TestDesignConstants:
    def test_case_sizes(self):
        assert harness.CASE_SIZES["I"] == (100, 120, 70, 90)
        assert harness.CASE_SIZES["IV"] == (1000, 900, 1100, 950)

    def test_rho_grids(self):
        d = 10
        pre = harness.rho_pre(d)
        post = harness.rho_post(d)
        assert pre[0] == pytest.approx(0.15)
        assert pre[-1] == pytest.approx(0.6)
        np.testing.assert_allclose(post - pre, 0.3)

    def test_sampling_rates(self):
        rates = harness.sampling_rates(harness.CASE_SIZES["I"])
        assert rates == (100 / 1200, 120 / 1200, 70 / 1200, 90 / 1200)


class TestChangeTimeMapping:
    def test_case_one_midpoint(self):
        assert harness.change_time_mapping(600, harness.CASE_SIZES["I"]) == (50, 60, 35, 45)

    def test_end_of_horizon_maps_to_full_size(self):
        sizes = harness.CASE_SIZES["II"]
        assert harness.change_time_mapping(1200, sizes) == sizes

    def test_early_time_clamped_to_one(self):
        assert harness.change_time_mapping(0.5, (100,)) == (1,)

    def test_bad_rate_rejected(self):
        # A sample of 1800 over the 1200-instant horizon has rate 1.5.
        with pytest.raises(ConfigurationError, match="sampling rate 1.5 outside"):
            harness.change_time_mapping(600, (1800,))


class TestExperimentConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.level == 0.95

    def test_rejects_unknown_case(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(cases=("V",))

    def test_rejects_unknown_scenario(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(scenario="drift")

    def test_rejects_target_dependent_tests(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(tests=("q",))

    def test_rejects_zero_replications(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(replications=0)

    @pytest.mark.parametrize("bad, match", [
        (dict(critval_n_grid=10), "n_grid"), (dict(critval_n_rep=10), "n_rep"),
        (dict(level=1.5), "level"), (dict(workers=0), "workers"),
        # A level that is not a real used to raise a bare TypeError.
        (dict(level="0.5"), "level must be in"), (dict(level=None), "level must be in"),
        (dict(level=[0.5]), "level must be in"), (dict(level=0.95 + 0j), "level must be in"),
        (dict(learning_length=0), "learning_length"), (dict(dims=(10, 0)), "dims"),
        (dict(scenario="sigma-change", change_times=(5000,)), "change_times"),
        (dict(scenario="coefficient-change", change_times=(600, 1200)), "change_times"),
        (dict(scenario="sigma-change", change_times=(0,)), "change_times"),
        (dict(scenario="none", change_times=(600,)), "change_times"),
        (dict(tests=()), "tests"),
        # replications 2.5 used to pass here and fail in run_experiment with
        # a TypeError; learning_length 2.5 ran to completion.
        (dict(replications=2.5), "replications must be a whole number"),
        (dict(replications=True), "replications must be a whole number"),
        (dict(dims=(10, 2.5)), "dims must be a whole number"),
        (dict(learning_length=2.5), "learning_length must be a whole number"),
        (dict(learning_length=True), "learning_length must be a whole number"),
        (dict(seed=1.5), "seed must be a whole number"),
        (dict(critval_n_grid=1000.5), "n_grid must be a whole number"),
        (dict(workers=1.5), "workers must be a whole number"),
        (dict(cases=()), "cases must name at least one case"),
        # A kind named twice had both reports counted into one rejection rate.
        (dict(tests=("q-breve", "v-breve", "q-breve")), "tests name 'q-breve' twice"),
        # change_times (True,) ran at time 1 and (600.5,) was accepted.
        (dict(scenario="sigma-change", change_times=(True,)),
         "change_times must be a whole number, got True"),
        (dict(scenario="sigma-change", change_times=(600.5,)),
         "change_times must be a whole number, got 600.5"),
        # A cell named twice printed two like rows from two cell seeds.
        (dict(cases=("I", "II", "I")), "cases name 'I' twice"),
        (dict(dims=(2, 2.0)), "dims name 2 twice"),
        (dict(scenario="sigma-change", change_times=(600, 300, 600)),
         "change_times name 600 twice"),
        # A bare string was read one character at a time: "I" passed by accident,
        # "II" named 'I' twice and "IV" an unknown case 'V'.
        (dict(cases="I"), "cases must be a sequence, not the string 'I'"),
        (dict(cases="II"), "cases must be a sequence, not the string 'II'"),
        (dict(cases="IV"), "cases must be a sequence, not the string 'IV'"),
        (dict(tests="v-breve"), "tests must be a sequence, not the string 'v-breve'"),
        (dict(dims="10"), "dims must be a sequence, not the string '10'"),
        (dict(scenario="sigma-change", change_times="600"),
         "change_times must be a sequence, not the string '600'")])
    def test_rejects_bad_settings(self, bad, match):
        with pytest.raises(ConfigurationError, match=match):
            ExperimentConfig(**bad)

    def test_integral_floats_are_those_ints(self):
        # workers=2.0 used to be stored as the float it was given.
        cfg = ExperimentConfig(replications=np.int64(3), dims=(2.0,), learning_length=500.0,
                               seed=np.uint8(7), critval_n_grid=500.0, critval_n_rep=1000.0,
                               workers=2.0)
        assert (cfg.replications, cfg.dims, cfg.learning_length, cfg.seed,
                cfg.critval_n_grid, cfg.critval_n_rep, cfg.workers) == (3, (2,), 500, 7, 500,
                                                                         1000, 2)
        assert all(type(x) is int for x in (cfg.replications, *cfg.dims, cfg.learning_length,
                                            cfg.seed, cfg.critval_n_grid, cfg.critval_n_rep,
                                            cfg.workers))
        cfg = ExperimentConfig(scenario="sigma-change", change_times=[np.int64(300), 600.0])
        assert cfg.change_times == (300, 600) and all(type(t) is int for t in cfg.change_times)

    def test_critval_n_rep_held_only_when_a_v_kind_reads_it(self):
        # Only v-breve's law reads n_rep: without it the setting is not read, nor held.
        assert ExperimentConfig(tests=("q-breve",), critval_n_rep=2.5).critval_n_rep is None
        assert ExperimentConfig(tests=("q-breve", "v-breve"),
                                critval_n_rep=3000.0).critval_n_rep == 3000
        for tests in (("v-breve",), ("q-breve", "v-breve"), ("v-breve", "q-breve")):
            with pytest.raises(ConfigurationError, match="^n_rep must be >= 1000$"):
                ExperimentConfig(tests=tests, critval_n_rep=10)

    def test_seed_read_whatever_the_kinds(self):
        # The experiment seed drives the panels and the cell seeds, not only a law.
        with pytest.raises(ConfigurationError, match="seed must be below 2"):
            ExperimentConfig(tests=("q-breve",), seed=2**64)

    def test_change_time_defaults_to_mid_horizon(self):
        assert ExperimentConfig(scenario="sigma-change").change_times == (600,)
        assert ExperimentConfig(scenario="none").change_times is None


class TestCellConfigs:
    def test_case_one_default_learning_window(self):
        cfg = ExperimentConfig(learning_length=500)
        (_, learning), _ = harness._cell_configs("I", 10, None, cfg, 0)
        assert learning.N == (41, 50, 29, 37)

    def test_floor_of_four(self):
        cfg = ExperimentConfig(learning_length=10)
        (_, learning), _ = harness._cell_configs("I", 10, None, cfg, 0)
        assert learning.N == (4, 4, 4, 4)

    @pytest.mark.parametrize("learning_length", [None, 500, 10])
    @pytest.mark.parametrize("scenario", harness.SCENARIOS)
    def test_configs_are_the_study_design(self, scenario, learning_length):
        # Each config built by hand from the design: the tested model of the
        # scenario, then the in-control model on floor(N_j L / 1200) >= 4.
        cfg = ExperimentConfig(cases=("II",), dims=(3,), scenario=scenario,
                               learning_length=learning_length, seed=21)
        (change_time,) = cfg.change_times or (None,)
        sizes = harness.CASE_SIZES["II"]
        common = dict(K=4, d=3, rho0=tuple(harness.rho_pre(3)), sigma0=harness.SIGMA_PRE,
                      seed=limits.child_seed(21, 5))
        change = {}
        if scenario == "sigma-change":
            change = dict(sigma1=harness.SIGMA_POST,
                          tau=harness.change_time_mapping(change_time, sizes))
        if scenario == "coefficient-change":
            change = dict(rho1=tuple(harness.rho_post(3)),
                          tau=harness.change_time_mapping(change_time, sizes))
        expected = [simgen.PanelConfig(N=sizes, **common, **change)]
        if learning_length is not None:
            expected.append(simgen.PanelConfig(
                N=tuple(max(n * learning_length // 1200, 4) for n in sizes), **common))
        configs, _ = harness._cell_configs("II", 3, change_time, cfg, 5)
        assert configs == expected
        assert all(c.tau is c.rho1 is c.sigma1 is None for c in configs[1:])


class TestRunExperiment:
    def test_null_cell_runs_and_is_deterministic(self):
        cfg = ExperimentConfig(replications=6, cases=("I",), dims=(3,),
                               scenario="none", seed=101, **FAST)
        a = harness.run_experiment(cfg)
        b = harness.run_experiment(cfg)
        assert len(a) == 2  # one row per test kind
        for ra, rb in zip(a, b):
            assert ra.rate == rb.rate
            assert ra.seed == rb.seed
        for r in a:
            assert 0.0 <= r.rate <= 1.0
            assert r.n_rep == 6
            assert r.change_time is None

    def test_change_cell_records_time(self):
        cfg = ExperimentConfig(replications=4, cases=("I",), dims=(2,),
                               scenario="sigma-change", change_times=(600,),
                               seed=102, **FAST)
        rows = harness.run_experiment(cfg)
        assert all(r.change_time == 600 for r in rows)
        assert all(r.scenario == "sigma-change" for r in rows)

    def test_learning_mode_cell(self):
        cfg = ExperimentConfig(replications=4, cases=("I",), dims=(2,),
                               scenario="none", learning_length=500, seed=103, **FAST)
        rows = harness.run_experiment(cfg)
        assert all(r.lrv_mode == harness.MODE_LEARNING for r in rows)

    def test_learning_blocks_passed_beside_samples(self, monkeypatch):
        # run_batch gets each sample's products and, apart, its learning block's.
        seen = []
        run_batch = harness.cptest.run_batch
        monkeypatch.setattr(harness.cptest, "run_batch", lambda batch, specs, learning, **k: (
            seen.append(([p.shape for p in batch], [p.shape for p in learning]))
            or run_batch(batch, specs, learning, **k)))
        cfg = ExperimentConfig(replications=2, cases=("I",), dims=(2,), scenario="none",
                               learning_length=500, seed=103, **FAST)
        harness.run_cell("I", 2, None, cfg, 0)
        assert seen == [([(2, n) for n in harness.CASE_SIZES["I"]],
                         [(2, m) for m in (41, 50, 29, 37)])]

    def test_in_sample_by_default(self):
        cfg = ExperimentConfig(replications=2, cases=("I",), dims=(2,),
                               scenario="none", seed=103, **FAST)
        assert cfg.learning_length is None
        rows = harness.run_experiment(cfg)
        assert all(r.lrv_mode == harness.MODE_IN_SAMPLE for r in rows)

    @pytest.mark.parametrize("budget", [1, 2 ** 40], ids=["one-per-batch", "one-batch"])
    def test_cell_projects_each_sample_once(self, monkeypatch, budget):
        # Both kinds share one summary per batch: every row of every
        # replication's samples is projected exactly once, a row block
        # (here one row, or the whole recursion) at a time.
        rows = []
        project = sumproc.project
        monkeypatch.setattr(sumproc, "project",
                            lambda y, pair: rows.append(y.shape[0] * y.shape[1])
                            or project(y, pair))
        monkeypatch.setattr(harness, "PANEL_CHUNK_BYTES", budget)
        cfg = ExperimentConfig(replications=3, cases=("I",), dims=(2,),
                               scenario="none", seed=106, **FAST)
        harness.run_cell("I", 2, None, cfg, 0)
        assert sum(rows) == 3 * sum(harness.CASE_SIZES["I"])
        assert len(rows) == (3 * sum(harness.CASE_SIZES["I"]) if budget == 1 else 4)

    @pytest.mark.parametrize("scenario, learning_length", [
        ("none", None), ("coefficient-change", 500)])
    def test_rows_independent_of_replications_per_batch(self, monkeypatch, scenario,
                                                        learning_length):
        # One replication per batch, a few, or all in one: the same rows.
        cfg = ExperimentConfig(replications=5, cases=("I",), dims=(2,), scenario=scenario,
                               learning_length=learning_length, seed=107, **FAST)
        (change_time,) = cfg.change_times or (None,)
        calls = []
        generate = harness.simgen.gen_ar1_blocks
        monkeypatch.setattr(harness.simgen, "gen_ar1_blocks", lambda c, reps, rows: (
            calls.append(len(reps)) or generate(c, reps, rows)))
        tables = {}
        for budget in (1, 100_000, 2 ** 40):
            calls.clear()
            monkeypatch.setattr(harness, "PANEL_CHUNK_BYTES", budget)
            rows = harness.run_cell("I", 2, change_time, cfg, 0)
            tables[budget] = [{**r.__dict__, "wall_time": None} for r in rows]
            configs = 1 if learning_length is None else 2
            assert sum(calls) == 5 * configs
            if budget == 1:
                assert calls == [1] * (5 * configs)
            if budget == 100_000:
                assert 1 < max(calls) < 5
            if budget == 2 ** 40:
                assert calls == [5] * configs
        assert tables[1] == tables[100_000] == tables[2 ** 40]

    @pytest.mark.parametrize("scenario, learning_length", [
        ("none", None), ("sigma-change", None), ("coefficient-change", 500)])
    def test_products_are_those_of_the_generated_panels(self, monkeypatch, scenario,
                                                        learning_length):
        # Projected a row block at a time as the recursion makes them, a
        # batch's products are bit for bit those of its whole panels; the
        # budget puts block edges inside burn-in, at burn_in and at
        # burn_in + tau for every sample.
        cfg = ExperimentConfig(replications=3, cases=("I",), dims=(2,), scenario=scenario,
                               learning_length=learning_length, seed=109, **FAST)
        (change_time,) = cfg.change_times or (None,)
        configs, _ = harness._cell_configs("I", 2, change_time, cfg, 0)
        seed = configs[0].seed
        edges = set()  # each block's first observation, burn-in below 0
        generate = simgen.gen_ar1_blocks
        monkeypatch.setattr(simgen, "gen_ar1_blocks", lambda c, reps, rows: (
            (edges.add(s), (s, y))[1] for s, y in generate(c, reps, rows)))
        monkeypatch.setattr(harness, "PANEL_CHUNK_BYTES", 1280)  # row blocks of 5 rows

        first = 0
        for batch, learning in (harness._batch(configs, range(r, r + 1)) for r in range(3)):
            block = range(first, first + len(batch[0]))
            first = block.stop
            pair = sumproc.ProjectionPair.from_vectors(np.stack(
                [simgen.gen_dirichlet_projection(2, limits.child_seed(seed, r + 1))
                 for r in block]))
            assert (learning is None) == (learning_length is None)
            for i, config in enumerate(configs):
                panels = simgen.gen_ar1_panels(config, [2 * r + i for r in block])
                assert all(np.array_equal(p, sumproc.project(y, pair))
                           for p, y in zip((batch, learning)[i], panels, strict=True))
        assert first == 3
        assert min(edges) < -5 and 0 in edges and set(configs[0].tau or ()) <= edges

    def test_wide_cell_memory_does_not_grow_with_d(self):
        # A d = 2000 replication's recursion is 38 MiB; a cell holds its
        # innovations, products, recursion state and one row block.
        cfg = ExperimentConfig(replications=3, cases=("I",), dims=(2000,), scenario="none",
                               seed=110, **FAST)
        harness.run_cell("I", 2000, None, cfg, 0)  # warm: the critical values' draws
        tracemalloc.start()
        try:
            harness.run_cell("I", 2000, None, cfg, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * harness.PANEL_CHUNK_BYTES

    @pytest.mark.parametrize("learning_length", [None, 500], ids=["in-sample", "learning"])
    def test_batch_released_before_next_is_generated(self, monkeypatch, learning_length):
        # Weak references to a batch's innovations, row blocks and
        # products: none may be alive when the next batch's generation
        # starts, or a cell would hold two batches at once.
        alive = {}  # batch (its first replication) -> weak references
        generate = harness.simgen.gen_ar1_blocks
        run_batch = harness.cptest.run_batch

        def tracking(config, reps, rows):
            batch = reps[0] // 2
            held = [b for b, refs in alive.items()
                    if b != batch and any(ref() is not None for ref in refs)]
            assert held == [], f"arrays of batches {held} alive"
            refs = alive.setdefault(batch, [])
            refs.append(weakref.ref(rows))
            recursion = generate(config, reps, rows)
            yield next(recursion)
            refs.append(weakref.ref(recursion.gi_frame.f_locals["eps"]))  # the innovations
            yield from recursion

        def testing(batch, specs, learning, **kwargs):
            alive[max(alive)].extend(weakref.ref(p) for p in batch + (learning or []))
            return run_batch(batch, specs, learning, **kwargs)

        monkeypatch.setattr(harness.simgen, "gen_ar1_blocks", tracking)
        monkeypatch.setattr(harness.cptest, "run_batch", testing)
        monkeypatch.setattr(harness, "PANEL_CHUNK_BYTES", 50_000)
        cfg = ExperimentConfig(replications=7, cases=("I",), dims=(3,), tests=("q-breve",),
                               learning_length=learning_length, seed=108)
        harness.run_cell("I", 3, None, cfg, 0)
        assert len(alive) >= 3
        assert all(len(refs) == (6 if learning_length else 3) * 2 for refs in alive.values())

    @pytest.mark.parametrize("grid, appended", [
        (dict(cases=("I",), dims=(2,)), dict(cases=("I", "II"))),
        (dict(dims=(2,)), dict(dims=(2, 3))),
        (dict(scenario="sigma-change", change_times=(600,)), dict(change_times=(600, 300)))],
        ids=["case", "dim", "change-time"])
    def test_appended_cells_leave_earlier_rows_unchanged(self, grid, appended):
        # Cell i draws from child_seed(seed, i), i its place in the grid's
        # (cases x dims x change times) order: cells after the last leave the
        # earlier rows as they were, bit for bit.
        cfg = ExperimentConfig(replications=5, seed=104, **grid, **FAST)
        rows = [{**r.__dict__, "wall_time": None} for r in harness.run_experiment(cfg)]
        longer = harness.run_experiment(dataclasses.replace(cfg, **appended))
        assert len(longer) == 2 * len(rows)
        assert [{**r.__dict__, "wall_time": None} for r in longer[:len(rows)]] == rows

    def test_cell_seed_is_its_place_in_the_grid(self):
        # A cell put before another moves that one's seed, and so its rows.
        cfg = ExperimentConfig(replications=5, cases=("II",), dims=(2,), seed=104, **FAST)
        (alone,) = {r.seed for r in harness.run_experiment(cfg)}
        after = {r.seed for r in harness.run_experiment(dataclasses.replace(
            cfg, cases=("I", "II"))) if r.case == "II"}
        assert (alone, after) == (limits.child_seed(104, 0), {limits.child_seed(104, 1)})


@pytest.fixture
def pools(monkeypatch):
    """Stands in for ProcessPoolExecutor: each pool started is recorded as its size, start
    method and the items it mapped, and its tasks run in this process."""
    import concurrent.futures

    started = []

    class Spy:
        def __init__(self, max_workers, mp_context):
            self.items = []
            started.append((max_workers, mp_context.get_start_method(), self.items))

        def map(self, fn, items):
            self.items.extend(items := list(items))
            return map(fn, items)

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    return started


class TestWorkers:
    # Case I at d = 2 in batches of 2 replications (a PANEL_CHUNK_BYTES of 50 000), with a
    # change, so that the batches' rejections add up to rates above 0.
    @pytest.mark.parametrize("workers, replications, size, batches", [
        (2, 5, 2, [(0, 2), (2, 4), (4, 5)]),
        (3, 5, 3, [(0, 2), (2, 4), (4, 5)]),
        (3, 4, 2, [(0, 2), (2, 4)]),  # two batches: a pool of two
        (3, 2, None, [(0, 2)])],  # one batch: no pool
        ids=["2-workers", "3-workers", "3-workers-2-batches", "3-workers-1-batch"])
    def test_pool_maps_one_task_per_batch(self, monkeypatch, pools, workers, replications,
                                          size, batches):
        monkeypatch.setattr(harness, "PANEL_CHUNK_BYTES", 50_000)
        cfg = ExperimentConfig(replications=replications, cases=("I",), dims=(2,), seed=111,
                               scenario="sigma-change", workers=workers, **FAST)
        rows = harness.run_experiment(cfg)
        if size is None:
            assert pools == []
        else:
            (got_size, method, items), = pools
            assert (got_size, method) == (size, "fork")
            assert [(r.start, r.stop) for r in items] == batches
        serial = harness.run_experiment(dataclasses.replace(cfg, workers=1))
        assert [{**r.__dict__, "wall_time": None} for r in rows] == [
            {**r.__dict__, "wall_time": None} for r in serial]

    def test_one_pool_serves_every_cell(self, monkeypatch, pools):
        monkeypatch.setattr(harness, "PANEL_CHUNK_BYTES", 50_000)
        cfg = ExperimentConfig(replications=3, cases=("I",), dims=(2,), seed=112, workers=2,
                               scenario="coefficient-change", change_times=(300, 900), **FAST)
        harness.run_experiment(cfg)
        (size, _, items), = pools
        assert size == 2 and [(r.start, r.stop) for r in items] == [(0, 2), (2, 3)] * 2

    def test_one_batch_cells_start_no_pool(self, pools):
        cfg = ExperimentConfig(replications=40, cases=("I", "II"), dims=(2,), seed=113,
                               workers=3, **FAST)
        harness.run_experiment(cfg)
        assert pools == []


class TestResultsExport:
    def _rows(self):
        cfg = ExperimentConfig(replications=3, cases=("I",), dims=(2,),
                               scenario="none", seed=105, **FAST)
        return harness.run_experiment(cfg)

    def test_csv_round_trip(self, tmp_path):
        rows = self._rows()
        path = tmp_path / "results.csv"
        harness.results_to_csv(rows, path)
        with open(path, newline="") as fh:
            loaded = list(csv.DictReader(fh))
        assert len(loaded) == len(rows)
        assert float(loaded[0]["rate"]) == rows[0].rate
        assert loaded[0]["change_time"] == ""

    def test_json_export(self, tmp_path):
        rows = self._rows()
        path = tmp_path / "results.json"
        harness.results_to_json(rows, path)
        loaded = json.loads(path.read_text())
        assert loaded[0]["case"] == "I"
        assert loaded[0]["rate"] == rows[0].rate
