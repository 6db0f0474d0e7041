import csv
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from covcusum import cli, limits, simgen
from covcusum.errors import IngestionError

FAST = ["--n-grid", "500", "--n-rep", "20000"]


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


class TestLoaders:
    def test_matrix_with_header(self, tmp_path):
        f = tmp_path / "a.csv"
        write_lines(f, ["c1,c2", "1,2", "3,4"])
        m = cli._load_matrix(f)
        np.testing.assert_array_equal(m, [[1.0, 2.0], [3.0, 4.0]])

    def test_matrix_without_header(self, tmp_path):
        f = tmp_path / "a.csv"
        write_lines(f, ["1,2", "3,4"])
        assert cli._load_matrix(f).shape == (2, 2)

    def test_ragged_row_names_file_and_line(self, tmp_path):
        f = tmp_path / "bad.csv"
        write_lines(f, ["1,2", "3"])
        with pytest.raises(IngestionError, match=r"bad\.csv:2"):
            cli._load_matrix(f)

    def test_non_numeric_cell_names_line(self, tmp_path):
        f = tmp_path / "bad.csv"
        write_lines(f, ["1,2", "3,x"])
        with pytest.raises(IngestionError, match=r"bad\.csv:2"):
            cli._load_matrix(f)

    def test_nan_cell_names_file_and_line(self, tmp_path):
        f = tmp_path / "bad.csv"
        write_lines(f, ["c1,c2", "1,2", "", "3,nan", "5,6"])
        with pytest.raises(IngestionError, match=r"bad\.csv:4: non-finite"):
            cli._load_matrix(f)

    def test_inf_in_vector_names_file_and_line(self, tmp_path):
        f = tmp_path / "v.txt"
        write_lines(f, ["0.5", "inf", "0.5"])
        with pytest.raises(IngestionError, match=r"v\.txt:2: non-finite"):
            cli._load_vector(f, expected_d=3)

    def test_empty_file_rejected(self, tmp_path):
        f = tmp_path / "empty.csv"
        f.write_text("")
        with pytest.raises(IngestionError, match="no data"):
            cli._load_matrix(f)

    def test_vector_length_checked(self, tmp_path):
        f = tmp_path / "v.txt"
        write_lines(f, ["0.5", "0.5"])
        with pytest.raises(IngestionError, match="length 2"):
            cli._load_vector(f, expected_d=3)

    def test_bundle_column_mismatch(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_lines(a, ["1,2"])
        write_lines(b, ["1,2,3"])
        with pytest.raises(IngestionError, match="columns"):
            cli.load_bundle([a, b])

    @pytest.mark.parametrize("text", ["c1,c2\n", "\n  \n\t\n", ""],
                             ids=["header-only", "blank", "empty"])
    def test_no_data_rows_rejected_without_warning(self, tmp_path, text):
        f = tmp_path / "empty.csv"
        f.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IngestionError, match="no data"):
                cli._load_matrix(f)

    @pytest.mark.parametrize("lines, lineno", [
        (["c1,c2", "", "1,2", "   ", "", "3,x"], 6),
        (["1,2", "", "\t", "3"], 4),
        (["c1,c2", "1,2", "1_0,3"], 3),
        (["1,2"] * 7000 + ["1,zz"] + ["1,2"] * 2999, 7001),
        (["1,2"] * 9998 + ["1"] + ["1,2"], 9999),
    ], ids=["non-numeric-after-blanks", "ragged-after-blanks", "underscore",
            "deep-non-numeric", "deep-ragged"])
    def test_bad_row_names_physical_line(self, tmp_path, lines, lineno):
        f = tmp_path / "bad.csv"
        write_lines(f, lines)
        with pytest.raises(IngestionError, match=rf"^.*bad\.csv:{lineno}: "):
            cli._load_matrix(f)

    def test_two_column_vector_rejected(self, tmp_path):
        f = tmp_path / "v.txt"
        write_lines(f, ["0.5,0.5", "0.5,0.5"])
        with pytest.raises(IngestionError, match=r"v\.txt: expected one value per line"):
            cli._load_vector(f, expected_d=2)

    def test_vector_with_header(self, tmp_path):
        f = tmp_path / "v.txt"
        write_lines(f, ["weight", "0.25", "", "0.75"])
        np.testing.assert_array_equal(cli._load_vector(f, expected_d=2), [0.25, 0.75])

    def test_bundle_returns_samples_and_vectors(self, tmp_path):
        a, v = tmp_path / "a.csv", tmp_path / "v.txt"
        write_lines(a, ["1,2", "3,4"])
        write_lines(v, ["0.5", "0.5"])
        samples, v_vec, w_vec = cli.load_bundle([a], v)
        np.testing.assert_array_equal(samples[0], [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(v_vec, [0.5, 0.5])
        assert w_vec is None


class TestConfigFile:
    def test_parse_with_comments(self, tmp_path):
        f = tmp_path / "cfg"
        write_lines(f, ["# comment", "panel.K = 2", "panel.N = 10,20  # trailing"])
        cfg = cli.parse_config_file(f)
        assert cfg == {"panel.K": "2", "panel.N": "10,20"}

    def test_malformed_line_exit_code_two(self, tmp_path):
        f = tmp_path / "cfg"
        write_lines(f, ["no equals sign here"])
        rc = cli.main(["simulate", "--out-dir", str(tmp_path), "--config", str(f),
                       "--seed", "1"])
        assert rc == 2


class TestSimulateCommand:
    def test_simulate_then_load_round_trip(self, tmp_path, capsys):
        out = tmp_path / "panel"
        rc = cli.main(["simulate", "--out-dir", str(out), "--seed", "42",
                       "--K", "2", "--d", "3", "--N", "20,30",
                       "--rho0", "0.1,0.2,0.3", "--sigma0", "1.0,2.0"])
        assert rc == 0
        paths = capsys.readouterr().out.strip().splitlines()
        assert len(paths) == 2
        cfg = simgen.PanelConfig(K=2, d=3, N=(20, 30), rho0=(0.1, 0.2, 0.3),
                                 sigma0=(1.0, 2.0), seed=42)
        panel = simgen.gen_ar1_panel(cfg)
        for p, y in zip(paths, panel):
            np.testing.assert_array_equal(np.loadtxt(p, delimiter=","), y)

    def test_config_file_drives_simulation(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        write_lines(cfg, ["panel.K = 1", "panel.d = 1", "panel.N = 15",
                          "panel.rho0 = 0.5", "panel.seed = 7"])
        out = tmp_path / "panel"
        rc = cli.main(["simulate", "--out-dir", str(out), "--config", str(cfg)])
        assert rc == 0
        path = capsys.readouterr().out.strip()
        assert np.loadtxt(path, delimiter=",").shape == (15,)

    def test_workers_flag_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["simulate", "--out-dir", str(tmp_path), "--seed", "1",
                      "--workers", "1"])

    def test_bad_panel_config_exit_code_two(self, tmp_path):
        rc = cli.main(["simulate", "--out-dir", str(tmp_path), "--seed", "1",
                       "--rho0", "1.5"])
        assert rc == 2

    def test_refused_panel_draws_no_seed(self, tmp_path, capsys):
        for bad in (["--K", "0"], ["--rep", "-1"]):
            rc = cli.main(["simulate", "--out-dir", str(tmp_path), *bad])
            assert rc == 2
            assert "seed:" not in capsys.readouterr().out

    @pytest.mark.parametrize("key", ["panel.sigma", "simulate.bogus"])
    def test_unknown_config_key_refused_naming_line(self, tmp_path, capsys, key):
        cfg = tmp_path / "cfg"
        write_lines(cfg, ["panel.K = 1", f"{key} = 5"])
        rc = cli.main(["simulate", "--out-dir", str(tmp_path / "out"), "--config", str(cfg)])
        assert rc == 2
        captured = capsys.readouterr()
        assert f"{cfg}:2: unknown setting {key!r}" in captured.err
        assert "seed:" not in captured.out


class TestTestCommand:
    def _panel_files(self, tmp_path, K=2, n=80, d=2, seed=3):
        cfg = simgen.PanelConfig(K=K, d=d, N=(n,) * K, rho0=(0.2,) * d,
                                 sigma0=(1.0,) * K, seed=seed)
        paths = simgen.export_panel_csv(simgen.gen_ar1_panel(cfg), tmp_path)
        v = tmp_path / "v.txt"
        write_lines(v, ["0.5"] * d)
        return [str(p) for p in paths], str(v)

    def test_q_breve_runs_and_writes_json(self, tmp_path, capsys):
        data, v = self._panel_files(tmp_path)
        out = tmp_path / "report.json"
        rc = cli.main(["test", "--data", *data, "--v", v, "--kind", "q-breve",
                       "--seed", "5", "--out", str(out)] + FAST)
        assert rc == 0
        text = capsys.readouterr().out
        assert "statistic" in text and "reject" in text
        report = json.loads(out.read_text())
        assert report["kind"] == "q-breve"
        assert len(report["per_sample"]) == 2

    def test_missing_projection_exit_code_two(self, tmp_path):
        data, _ = self._panel_files(tmp_path)
        rc = cli.main(["test", "--data", *data, "--kind", "q-breve",
                       "--seed", "5"] + FAST)
        assert rc == 2

    def test_target_count_mismatch_exit_code_two(self, tmp_path):
        data, v = self._panel_files(tmp_path)
        rc = cli.main(["test", "--data", *data, "--v", v, "--kind", "q",
                       "--targets", "1.0", "--seed", "5"] + FAST)
        assert rc == 2

    def test_corrected_kind_prints_method_and_draws_no_seed(self, tmp_path, capsys):
        data, v = self._panel_files(tmp_path)
        out = tmp_path / "report.json"
        rc = cli.main(["test", "--data", *data, "--v", v, "--kind", "q-breve",
                       "--out", str(out)] + FAST)
        assert rc == 0
        text = capsys.readouterr().out
        assert "seed:" not in text
        (line,) = [ln for ln in text.splitlines() if ln.startswith("critical value")]
        assert line.endswith("(corrected)")
        report = json.loads(out.read_text())
        assert (report["method"], report["seed"]) == ("corrected", None)

    def test_workers_reach_path_simulation(self, tmp_path, monkeypatch):
        data, v = self._panel_files(tmp_path)
        seen = []
        simulate = limits.simulate_path_extrema
        monkeypatch.setattr(limits, "simulate_path_extrema",
                            lambda *a, **k: seen.append(k["workers"]) or simulate(*a, **k))
        reports = []
        for workers in ("1", "2"):
            monkeypatch.setattr(limits, "_extrema_cache", {})
            out = tmp_path / f"report-{workers}.json"
            rc = cli.main(["test", "--data", *data, "--v", v, "--kind", "v-breve",
                           "--seed", "5", "--workers", workers, "--out", str(out)] + FAST)
            assert rc == 0
            reports.append(out.read_bytes())
        assert seen == [1, 2]
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["method"] == "mc"

    def test_missing_file_exit_code_one(self, tmp_path):
        rc = cli.main(["test", "--data", str(tmp_path / "nope.csv"),
                       "--v", str(tmp_path / "v.txt"), "--kind", "q-breve",
                       "--seed", "5"] + FAST)
        assert rc == 1

    def test_critval_settings_checked_before_ingestion(self, tmp_path, capsys):
        rc = cli.main(["test", "--data", str(tmp_path / "nope.csv"),
                       "--v", str(tmp_path / "v.txt"), "--kind", "v-breve",
                       "--n-rep", "10"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "seed:" not in captured.out
        assert "n_rep" in captured.err

    def test_missing_projection_draws_no_seed(self, tmp_path, capsys):
        data, _ = self._panel_files(tmp_path)
        rc = cli.main(["test", "--data", *data, "--kind", "v-breve"] + FAST)
        assert rc == 2
        assert "seed:" not in capsys.readouterr().out

    @pytest.mark.parametrize("kind, targets, bad", [("q", "nan,1", 0), ("v", "1,inf", 1)])
    def test_non_finite_target_refused_before_seed_and_files(self, tmp_path, capsys,
                                                             kind, targets, bad):
        rc = cli.main(["test", "--data", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
                       "--v", str(tmp_path / "v.txt"), "--kind", kind,
                       "--targets", targets] + FAST)
        assert rc == 2
        captured = capsys.readouterr()
        assert "seed:" not in captured.out
        # Samples count from 1, as the per-sample lines of a report do.
        assert f"sample {bad + 1}: target is not finite" in captured.err

    @pytest.mark.parametrize("flags, message", [
        (["--targets", "1,2,3"], "--targets: got 3 values for 2 --data files"),
        (["--targets", "1,2", "--learning-length", "0"], "--learning-length must be >= 1, got 0"),
    ], ids=["target-count", "learning-length"])
    def test_panel_settings_refused_before_seed_and_files(self, tmp_path, capsys,
                                                          flags, message):
        rc = cli.main(["test", "--data", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
                       "--v", str(tmp_path / "v.txt"), "--kind", "v", *flags] + FAST)
        assert rc == 2
        captured = capsys.readouterr()
        assert "seed:" not in captured.out
        assert message in captured.err

    @pytest.mark.parametrize("rows, flags, rc, message", [
        (lambda y: y[:3], [], 1, "sample 2: need at least 4 observations, got 3"),
        (lambda y: np.ones_like(y), [], 1, "sample 2: constant product series"),
        (lambda y: y[:30], ["--learning-length", "50"], 2,
         "learning_length 50 invalid for sample 2 of size 30"),
        pytest.param(lambda y: 1e200 * y, [], 1,
                     "sample 2: non-finite product at observation 1",
                     marks=pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")),
        (lambda y: 1e100 * y, [], 1, "sample 2: non-finite autocovariance inf"),
    ], ids=["short", "constant", "learning-length", "non-finite-product", "overflow"])
    def test_sample_refusal_names_its_file(self, tmp_path, capsys, rows, flags, rc, message):
        data, v = self._panel_files(tmp_path)
        y = np.loadtxt(data[1], delimiter=",")
        np.savetxt(data[1], rows(y), delimiter=",", fmt="%.17g")
        assert cli.main(["test", "--data", *data, "--v", v, "--kind", "q-breve",
                         "--seed", "5", *flags] + FAST) == rc
        assert f"{data[1]}: {message}" in capsys.readouterr().err

    def test_overflowing_lrv_refused_without_traceback(self, tmp_path):
        # Finite products around 1e200 overflow the autocovariances.
        data, v = self._panel_files(tmp_path)
        np.savetxt(data[1], 1e100 * np.loadtxt(data[1], delimiter=","), delimiter=",",
                   fmt="%.17g")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-m", "covcusum.cli", "test", "--data", *data,
                              "--v", v, "--kind", "q-breve", *FAST],
                             env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 1
        assert out.stderr == f"error: {data[1]}: sample 2: non-finite autocovariance inf\n"

    def test_all_zero_vector_refused_naming_file(self, tmp_path, capsys):
        data, _ = self._panel_files(tmp_path)
        v = tmp_path / "zero.txt"
        write_lines(v, ["0", "0"])
        rc = cli.main(["test", "--data", *data, "--v", str(v), "--kind", "q-breve",
                       "--seed", "5"] + FAST)
        assert rc == 1
        assert f"{v}: projection vector must not be all-zero" in capsys.readouterr().err

    def test_learning_length_carves_leading_rows(self, tmp_path):
        data, v = self._panel_files(tmp_path)
        out = tmp_path / "report.json"
        rc = cli.main(["test", "--data", *data, "--v", v, "--kind", "q-breve",
                       "--learning-length", "50", "--out", str(out)] + FAST)
        assert rc == 0
        assert json.loads(out.read_text())["sample_sizes"] == [80 - 50, 80 - 50]

    def test_lrv_mode_flag_rejected_by_parser(self, tmp_path):
        data, v = self._panel_files(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["test", "--data", *data, "--v", v, "--kind", "q-breve",
                      "--lrv-mode", "learning-sample", "--learning-length", "50"] + FAST)
        assert exc.value.code == 2

    def test_nan_cell_exit_code_one_naming_line(self, tmp_path, capsys):
        data, v = self._panel_files(tmp_path)
        lines = Path(data[1]).read_text().splitlines()
        lines[3] = "nan," + lines[3].split(",", 1)[1]
        write_lines(Path(data[1]), lines)
        rc = cli.main(["test", "--data", *data, "--v", v, "--kind", "q-breve",
                       "--seed", "5"] + FAST)
        assert rc == 1
        assert f"{data[1]}:4: non-finite" in capsys.readouterr().err


class TestCritvalCommand:
    def test_prints_value_and_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "crit.csv"
        rc = cli.main(["critval", "--kind", "q-breve", "--K", "1",
                       "--seed", "11", "--workers", "1",
                       "--out", str(out)] + FAST)
        assert rc == 0
        text = capsys.readouterr().out
        assert "q-breve K=1" in text
        header, row = out.read_text().strip().splitlines()
        assert header.startswith("kind,")
        # 1.358^2 for the single-sample bridge statistic.
        assert float(row.split(",")[3]) == pytest.approx(1.844, rel=0.05)

    def test_seed_replay_is_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            rc = cli.main(["critval", "--kind", "v-breve", "--K", "2",
                           "--alpha", "1.0,2.0", "--kappa", "0.5,0.5",
                           "--seed", "13", "--workers", "2",
                           "--out", str(out)] + FAST)
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_q_kind_names_method_and_leaves_unused_inputs_empty(self, tmp_path, capsys):
        out = tmp_path / "crit.csv"
        rc = cli.main(["critval", "--kind", "q", "--K", "2", "--seed", "11",
                       "--out", str(out)] + FAST)
        assert rc == 0
        assert "(corrected)" in capsys.readouterr().out
        (row,) = csv.DictReader(out.read_text().splitlines())
        assert list(row)[3] == "value" and list(row)[-1] == "method"
        assert (row["n_grid"], row["n_rep"], row["seed"], row["method"]) == (
            "500", "", "", "corrected")

    def test_v_kind_records_mc_inputs(self, tmp_path, capsys):
        out = tmp_path / "crit.csv"
        rc = cli.main(["critval", "--kind", "v-breve", "--K", "2",
                       "--alpha", "1.0,2.0", "--kappa", "0.5,0.5", "--seed", "13",
                       "--workers", "1", "--out", str(out)] + FAST)
        assert rc == 0
        assert "(mc)" in capsys.readouterr().out
        (row,) = csv.DictReader(out.read_text().splitlines())
        assert (row["n_rep"], row["seed"], row["method"]) == ("20000", "13", "mc")

    def test_missing_weights_exit_code_two(self):
        rc = cli.main(["critval", "--kind", "v", "--K", "2", "--seed", "1"] + FAST)
        assert rc == 2

    @pytest.mark.parametrize("weights", [[], ["--alpha", "1,2,1"], ["--kappa", ".3,.3,.4"]],
                             ids=["none", "alpha-only", "kappa-only"])
    def test_incomplete_weights_refused_before_seed_and_paths(self, weights, capsys,
                                                              monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("an incomplete request must not simulate")

        monkeypatch.setattr(limits, "simulate_path_extrema", no_simulation)
        rc = cli.main(["critval", "--kind", "v-breve", "--K", "3", "--workers", "1",
                       *weights])
        assert rc == 2
        captured = capsys.readouterr()
        assert "seed:" not in captured.out
        assert "requires alpha_weights and kappa" in captured.err

    @pytest.mark.parametrize("kind", limits.CORRECTED_KINDS)
    def test_corrected_kinds_refuse_weights(self, kind, capsys):
        rc = cli.main(["critval", "--kind", kind, "--K", "2", "--alpha", "1,2",
                       "--kappa", ".5,.5"] + FAST)
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "takes no alpha_weights or kappa" in captured.err

    def test_omitted_seed_is_printed(self, capsys):
        rc = cli.main(["critval", "--kind", "v-breve", "--K", "1", "--alpha", "1.0",
                       "--kappa", "1.0", "--workers", "1"] + FAST)
        assert rc == 0
        assert "seed: " in capsys.readouterr().out

    @pytest.mark.parametrize("kind", limits.CORRECTED_KINDS)
    def test_corrected_kinds_draw_no_seed(self, kind, capsys):
        rc = cli.main(["critval", "--kind", kind, "--K", "1", "--workers", "1"] + FAST)
        assert rc == 0
        assert "seed:" not in capsys.readouterr().out

    def test_n_rep_checked_for_mc_kinds_only(self, capsys):
        printed = []
        for n_rep in ("10", "100000"):
            rc = cli.main(["critval", "--kind", "q-breve", "--K", "1", "--n-rep", n_rep])
            assert rc == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        rc = cli.main(["critval", "--kind", "v-breve", "--K", "1", "--alpha", "1.0",
                       "--kappa", "1.0", "--seed", "1", "--n-rep", "10"])
        assert rc == 2
        assert "n_rep" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [["--n-rep", "10"], ["--level", "1.5"]])
    def test_refused_request_draws_no_seed(self, bad, capsys):
        rc = cli.main(["critval", "--kind", "v-breve", "--K", "1", "--alpha", "1",
                       "--kappa", "1", *bad])
        assert rc == 2
        assert "seed:" not in capsys.readouterr().out

    def test_worker_count_below_one_exit_code_two(self, capsys):
        rc = cli.main(["critval", "--kind", "q-breve", "--K", "1", "--workers", "0"] + FAST)
        assert rc == 2
        assert "workers" in capsys.readouterr().err


def test_import_loads_no_scipy(tmp_path):
    # scipy is a test-only dependency: importing the CLI, generating a
    # panel and running a small experiment must not load it.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    simulate = ["simulate", "--out-dir", str(tmp_path), "--K", "2", "--d", "3",
                "--N", "40,50", "--rho0", "0.3", "--sigma0", "1.0,1.5", "--seed", "5"]
    experiment = ["experiment", "--replications", "2", "--cases", "I", "--dims", "2",
                  "--scenario", "sigma-change", "--seed", "5", *FAST]
    code = ("import sys, covcusum.cli\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(loaded())\n"
            f"for argv in ({simulate!r}, {experiment!r}):\n"
            "    assert covcusum.cli.main(argv) == 0\n"
            "    print(loaded())\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert [line for line in out.splitlines() if line.startswith("[")] == ["[]"] * 3


class TestExperimentCommand:
    def test_small_run_writes_outputs(self, tmp_path, capsys):
        out_csv = tmp_path / "res.csv"
        out_json = tmp_path / "res.json"
        rc = cli.main(["experiment", "--replications", "3", "--cases", "I",
                       "--dims", "2", "--scenario", "none", "--seed", "17",
                       "--out-csv", str(out_csv), "--out-json", str(out_json)]
                      + FAST)
        assert rc == 0
        text = capsys.readouterr().out
        assert "case I d=2" in text
        assert out_csv.read_text().startswith("case,")
        assert json.loads(out_json.read_text())[0]["n_rep"] == 3

    def test_workers_reach_path_simulation(self, tmp_path, monkeypatch):
        seen = []
        simulate = limits.simulate_path_extrema
        monkeypatch.setattr(limits, "simulate_path_extrema",
                            lambda *a, **k: seen.append(k["workers"]) or simulate(*a, **k))
        tables = []
        for workers in ("1", "2"):
            monkeypatch.setattr(limits, "_extrema_cache", {})
            out_csv = tmp_path / f"res-{workers}.csv"
            rc = cli.main(["experiment", "--replications", "2", "--cases", "I",
                           "--dims", "2", "--scenario", "none", "--seed", "17",
                           "--workers", workers, "--out-csv", str(out_csv)] + FAST)
            assert rc == 0
            rows = list(csv.DictReader(out_csv.read_text().splitlines()))
            for row in rows:
                del row["wall_time"]
            tables.append(rows)
        # One v-breve critical value per replication.
        assert seen == [1, 1, 2, 2]
        assert tables[0] == tables[1]

    def test_unknown_scenario_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            cli.main(["experiment", "--scenario", "bogus"])

    def test_lrv_mode_flag_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["experiment", "--lrv-mode", "learning-sample"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags, mode", [
        (["--learning-length", "500"], "learning-sample"), ([], "in-sample")],
        ids=["learning-length", "no-flag"])
    def test_learning_length_alone_sets_lrv_mode(self, tmp_path, flags, mode):
        out_csv = tmp_path / "res.csv"
        rc = cli.main(["experiment", "--replications", "2", "--cases", "I", "--dims", "2",
                       "--scenario", "none", "--seed", "17", *flags,
                       "--out-csv", str(out_csv)] + FAST)
        assert rc == 0
        rows = list(csv.DictReader(out_csv.read_text().splitlines()))
        assert [r["lrv_mode"] for r in rows] == [mode, mode]

    @pytest.mark.parametrize("bad", [["--replications", "0"], ["--n-grid", "10"],
                                     ["--workers", "0"], ["--dims", "0"],
                                     ["--scenario", "sigma-change", "--change-times", "5000"],
                                     ["--scenario", "none", "--change-times", "600"]],
                             ids=["replications", "n-grid", "workers", "dims",
                                  "change-time-beyond-horizon", "change-time-without-change"])
    def test_refused_config_draws_no_seed_and_no_panel(self, bad, capsys, monkeypatch):
        calls = []
        generate = simgen.gen_ar1_panels
        monkeypatch.setattr(simgen, "gen_ar1_panels",
                            lambda *a, **k: calls.append(1) or generate(*a, **k))
        rc = cli.main(["experiment", "--replications", "2", "--cases", "I", "--dims", "2",
                       *FAST, *bad])
        assert rc == 2
        assert "seed:" not in capsys.readouterr().out
        assert calls == []


@pytest.mark.parametrize("argv, message", [
    # Malformed numbers in list flags and config values.
    (["experiment", "--scenario", "sigma-change", "--change-times", "6x0"],
     "--change-times: '6x0' is not an integer"),
    (["experiment", "--dims", "2.5"], "--dims: '2.5' is not an integer"),
    (["critval", "--kind", "v-breve", "--K", "2", "--alpha", "1,x", "--kappa", "0.5,0.5"],
     "--alpha: 'x' is not a number"),
    (["simulate", "--out-dir", "{tmp}", "--N", "10,y"], "--N: 'y' is not an integer"),
    (["simulate", "--out-dir", "{tmp}", "--K", "x"], "--K: 'x' is not an integer"),
    (["simulate", "--out-dir", "{tmp}", "--config", "{tmp}/cfg"],
     "panel.N: 'y' is not an integer"),
    # Negative seeds and replications.
    (["simulate", "--out-dir", "{tmp}", "--seed", "-1"], "seed must be non-negative"),
    (["simulate", "--out-dir", "{tmp}", "--seed", "1", "--rep", "-1"],
     "reps must be non-negative"),
    (["experiment", "--seed", "-1"], "seed must be non-negative"),
    (["critval", "--kind", "v-breve", "--K", "1", "--alpha", "1", "--kappa", "1",
      "--seed", "-1"], "seed must be non-negative"),
    (["test", "--kind", "v-breve", "--data", "{tmp}/x.csv", "--v", "{tmp}/v.txt",
      "--seed", "-1"], "seed must be non-negative"),
    # Non-finite critical-value weights.
    (["critval", "--kind", "v-breve", "--K", "1", "--alpha", "nan", "--kappa", "1",
      "--n-rep", "1000", "--seed", "1"], "alpha_weights must be K positive finite reals"),
    (["critval", "--kind", "v-breve", "--K", "1", "--alpha", "inf", "--kappa", "1",
      "--n-rep", "1000", "--seed", "1"], "alpha_weights must be K positive finite reals"),
    (["critval", "--kind", "v-breve", "--K", "2", "--alpha", "1,1", "--kappa", "nan,0.5",
      "--n-rep", "1000", "--seed", "1"], "kappa must be K positive finite reals"),
], ids=["change-times", "dims", "critval-alpha", "simulate-N", "simulate-K", "config-N",
        "simulate-seed", "simulate-rep", "experiment-seed", "critval-seed", "test-seed",
        "alpha-nan", "alpha-inf", "kappa-nan"])
def test_bad_input_exits_two_naming_it(argv, message, tmp_path, capsys):
    write_lines(tmp_path / "cfg", ["panel.N = 10,y"])
    rc = cli.main([a.format(tmp=tmp_path) for a in argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and message in err


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_commands_parse():
    # Every covcusum line of README's sh blocks, continuations joined.
    parser = cli.build_parser()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line)
            if argv[:1] == ["covcusum"]:
                parser.parse_args(argv[1:])
                commands.append(argv[1])
    assert sorted(commands) == ["critval", "experiment", "simulate", "test"]


def test_readme_inline_flags_are_registered():
    # Flags quoted in README's prose; fenced blocks (the pip one among
    # them) are left out.
    subparsers = cli.build_parser()._subparsers._group_actions[0].choices.values()
    registered = {flag for p in subparsers for flag in p._option_string_actions}
    prose = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    quoted = {flag for span in re.findall(r"`([^`]+)`", prose)
              for flag in re.findall(r"--[A-Za-z][\w-]*", span)}
    assert quoted and quoted <= registered, quoted - registered
