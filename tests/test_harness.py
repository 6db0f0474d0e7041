import csv
import json
import weakref

import numpy as np
import pytest

from covcusum import harness, sumproc
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
        sizes = harness.CASE_SIZES["I"]
        rates = harness.sampling_rates(sizes)
        assert harness.change_time_mapping(600, rates, sizes) == (50, 60, 35, 45)

    def test_end_of_horizon_maps_to_full_size(self):
        sizes = harness.CASE_SIZES["II"]
        rates = harness.sampling_rates(sizes)
        assert harness.change_time_mapping(1200, rates, sizes) == sizes

    def test_early_time_clamped_to_one(self):
        sizes = (100,)
        assert harness.change_time_mapping(0.5, (100 / 1200,), sizes) == (1,)

    def test_bad_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            harness.change_time_mapping(600, (1.5,), (1800,))


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
        (dict(learning_length=0), "learning_length"), (dict(dims=(10, 0)), "dims"),
        (dict(scenario="sigma-change", change_times=(5000,)), "change_times"),
        (dict(scenario="coefficient-change", change_times=(600, 1200)), "change_times"),
        (dict(scenario="sigma-change", change_times=(0,)), "change_times"),
        (dict(scenario="none", change_times=(600,)), "change_times"),
        (dict(tests=()), "tests")])
    def test_rejects_bad_settings(self, bad, match):
        with pytest.raises(ConfigurationError, match=match):
            ExperimentConfig(**bad)

    def test_change_time_defaults_to_mid_horizon(self):
        assert ExperimentConfig(scenario="sigma-change").change_times == (600,)
        assert ExperimentConfig(scenario="none").change_times is None


class TestLearningSizes:
    def test_case_one_default_learning_window(self):
        cfg = ExperimentConfig(learning_length=500)
        assert harness._learning_sizes("I", cfg) == (41, 50, 29, 37)

    def test_floor_of_four(self):
        cfg = ExperimentConfig(learning_length=10)
        assert all(n >= 4 for n in harness._learning_sizes("I", cfg))


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

    def test_learning_blocks_stacked_in_front(self, monkeypatch):
        # run_tests gets each sample's products with its learning block's in
        # front and the block sizes as learning_length, which cptest splits off.
        seen = []
        run_tests = harness.cptest.run_tests
        monkeypatch.setattr(harness.cptest, "run_tests", lambda panel, specs, **k: (
            seen.append(([p.shape for p in panel], k["learning_length"]))
            or run_tests(panel, specs, **k)))
        cfg = ExperimentConfig(replications=2, cases=("I",), dims=(2,), scenario="none",
                               learning_length=500, seed=103, **FAST)
        harness.run_cell("I", 2, None, cfg, 0)
        learning = (41, 50, 29, 37)
        sizes = [n + m for n, m in zip(harness.CASE_SIZES["I"], learning)]
        assert seen == [([(n,) for n in sizes], learning)] * 2

    def test_in_sample_by_default(self):
        cfg = ExperimentConfig(replications=2, cases=("I",), dims=(2,),
                               scenario="none", seed=103, **FAST)
        assert cfg.learning_length is None
        rows = harness.run_experiment(cfg)
        assert all(r.lrv_mode == harness.MODE_IN_SAMPLE for r in rows)

    def test_cell_projects_each_sample_once(self, monkeypatch):
        # Both kinds share one summary per replication: K = 4 projections.
        calls = []
        project = sumproc.project
        monkeypatch.setattr(sumproc, "project",
                            lambda *a, **k: calls.append(1) or project(*a, **k))
        cfg = ExperimentConfig(replications=3, cases=("I",), dims=(2,),
                               scenario="none", seed=106, **FAST)
        harness.run_cell("I", 2, None, cfg, 0)
        assert len(calls) == 4 * 3

    @pytest.mark.parametrize("scenario, learning_length", [
        ("none", None), ("coefficient-change", 500)])
    def test_rows_independent_of_batch_size(self, monkeypatch, scenario, learning_length):
        # One replication per batch, a few, or all in one: the same rows.
        cfg = ExperimentConfig(replications=5, cases=("I",), dims=(2,), scenario=scenario,
                               learning_length=learning_length, seed=107, **FAST)
        (change_time,) = cfg.change_times or (None,)
        calls = []
        generate = harness.simgen.gen_ar1_panels
        monkeypatch.setattr(harness.simgen, "gen_ar1_panels",
                            lambda c, reps: calls.append(len(reps)) or generate(c, reps))
        tables = {}
        for budget in (1, 150_000, 2 ** 40):
            calls.clear()
            monkeypatch.setattr(harness, "PANEL_CHUNK_BYTES", budget)
            rows = harness.run_cell("I", 2, change_time, cfg, 0)
            tables[budget] = [{**r.__dict__, "wall_time": None} for r in rows]
            configs = 1 if learning_length is None else 2
            assert sum(calls) == 5 * configs
            if budget == 1:
                assert calls == [1] * (5 * configs)
            if budget == 2 ** 40:
                assert calls == [5] * configs
        assert tables[1] == tables[150_000] == tables[2 ** 40]

    @pytest.mark.parametrize("learning_length", [None, 500], ids=["in-sample", "learning"])
    def test_batch_released_before_next_is_generated(self, monkeypatch, learning_length):
        # Weak references to every sample array of a batch and to the buffer
        # it views: none may be alive when the next batch's generation
        # starts, or a cell would hold two batches at once.
        alive = {}  # batch (its first replication) -> weak references
        generate = harness.simgen.gen_ar1_panels

        def tracking(config, reps):
            batch = reps[0] // 2
            held = [b for b, refs in alive.items()
                    if b != batch and any(ref() is not None for ref in refs)]
            assert held == [], f"arrays of batches {held} alive"
            panels = generate(config, reps)
            alive.setdefault(batch, []).extend(
                weakref.ref(a) for panel in panels for y in panel for a in (y, y.base))
            return panels

        monkeypatch.setattr(harness.simgen, "gen_ar1_panels", tracking)
        monkeypatch.setattr(harness, "PANEL_CHUNK_BYTES", 200_000)
        cfg = ExperimentConfig(replications=7, cases=("I",), dims=(3,), tests=("q-breve",),
                               learning_length=learning_length, seed=108)
        harness.run_cell("I", 3, None, cfg, 0)
        assert len(alive) >= 3

    def test_cells_independent_of_grid_composition(self):
        # A cell's result must not change when other cells join the grid.
        lone = ExperimentConfig(replications=5, cases=("I",), dims=(2,),
                                scenario="none", seed=104, **FAST)
        both = ExperimentConfig(replications=5, cases=("I",), dims=(2, 3),
                                scenario="none", seed=104, **FAST)
        rows_lone = harness.run_experiment(lone)
        rows_both = [r for r in harness.run_experiment(both) if r.d == 2]
        for ra, rb in zip(rows_lone, rows_both):
            assert ra.rate == rb.rate


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
