import csv
import json
import os
import re
import shlex
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from covcusum import cli, cptest, harness, limits, simgen, sumproc
from covcusum.errors import (ConfigurationError, CovCusumError, DegenerateLrvError,
                              IngestionError)

FAST = ["--n-grid", "500", "--n-rep", "20000"]


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


def _threads():
    """This process's threads: Python's count, and on Linux the kernel's (else None)."""
    status = Path("/proc/self/status")
    kernel = None
    if status.exists():
        kernel = next(int(line.split()[1]) for line in status.read_text().splitlines()
                      if line.startswith("Threads:"))
    return threading.active_count(), kernel


@pytest.fixture(scope="session")
def fork_threads():
    """``_threads()`` at each later fork of this process, read in the parent just after it.

    An at-fork hook cannot be removed, so it is registered once a session.
    """
    forks = []
    os.register_at_fork(after_in_parent=lambda: forks.append(_threads()))
    return forks


def _cut_wall_time(path):
    """The lines of a results CSV without its wall_time column."""
    rows = list(csv.reader(path.read_text().splitlines()))
    cut = rows[0].index("wall_time")
    return [",".join(r[:cut] + r[cut + 1:]) for r in rows]


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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bundle_column_mismatch(self, tmp_path, workers):
        a, b, v = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "v.txt"
        write_lines(a, ["1,2"])
        write_lines(b, ["1,2,3"])
        write_lines(v, ["0.5", "0.5"])
        with pytest.raises(IngestionError) as exc:
            cli.load_bundle([a, b], v, workers=workers)
        assert str(exc.value) == f"{b}: has 3 columns but first sample has 2"

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

    @pytest.mark.parametrize("bad_row, reason", [
        ("3", "the number of columns changed from 2 to 1"),
        ("3,4,5", "the number of columns changed from 2 to 3"),
        ("3,x", "could not convert string 'x' to float64"),
        ("3,nan", "non-finite value (nan or inf)"),
    ], ids=["ragged", "wide", "non-numeric", "nan"])
    @pytest.mark.parametrize("at", ["last-of-block", "first-of-next"])
    @pytest.mark.parametrize("via, workers", [("matrix", 1), ("bundle", 1), ("bundle", 2)],
                             ids=["matrix", "bundle", "bundle-2-workers"])
    def test_bad_row_at_block_boundary_names_physical_line(self, tmp_path, bad_row, reason,
                                                           at, via, workers):
        n = cli.BLOCK_ROWS
        rows = ["1,2"] * (2 * n + 5)
        rows[n - 1 if at == "last-of-block" else n] = bad_row
        # A header, and a blank line before every tenth data row.
        lines = ["c1,c2"] + [ln for i, row in enumerate(rows)
                             for ln in (([""] if i % 10 == 0 else []) + [row])]
        f, v = tmp_path / "bad.csv", tmp_path / "v.txt"
        write_lines(f, lines)
        write_lines(v, ["0.5", "0.5"])
        lineno = lines.index(bad_row) + 1
        # Two files, so that two workers make a pool.
        with pytest.raises(IngestionError) as exc:
            cli._load_matrix(f) if via == "matrix" else cli.load_bundle([f, f], v,
                                                                        workers=workers)
        assert str(exc.value) == f"{f}:{lineno}: {reason}"

    @pytest.mark.parametrize("via", ["matrix", "bundle"])
    def test_narrower_second_block_names_its_first_line(self, tmp_path, via):
        n = cli.BLOCK_ROWS
        f, v = tmp_path / "bad.csv", tmp_path / "v.txt"
        write_lines(f, ["1,2,3"] * n + ["1,2"] * n)
        write_lines(v, ["0.5"] * 3)
        with pytest.raises(IngestionError) as exc:
            cli._load_matrix(f) if via == "matrix" else cli.load_bundle([f], v)
        assert str(exc.value) == f"{f}:{n + 1}: the number of columns changed from 3 to 2"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_vectors_read_after_first_block_of_first_file(self, tmp_path, workers):
        a, b, v = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "v.txt"
        write_lines(a, ["1,2"])
        write_lines(b, ["1,x"])
        write_lines(v, ["0.5"] * 3)
        with pytest.raises(IngestionError, match=r"v\.txt: projection vector has length 3"):
            cli.load_bundle([a, b], v, workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_bad_file_is_refused_at_any_worker_count(self, tmp_path, workers):
        # File 1 parses but its products overflow; file 2 does not parse.
        a, b, v = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "v.txt"
        write_lines(a, ["1,2", "1e200,1e200", "3,4"])
        write_lines(b, ["1,2", "1,x"])
        write_lines(v, ["0.5", "0.5"])
        with pytest.raises(CovCusumError) as exc:
            cli.load_bundle([a, b], v, workers=workers)
        assert type(exc.value) is CovCusumError and exc.value.sample_index == 0
        assert str(exc.value) == f"{a}: sample 1: non-finite product at observation 2"

    def test_products_equal_at_one_and_two_workers(self, tmp_path):
        cfg = simgen.PanelConfig(K=3, d=4, N=(150, 90, 200), rho0=(0.3,) * 4,
                                 sigma0=(1.0, 2.0, 0.5), seed=11)
        data = simgen.export_panel_csv(simgen.gen_ar1_panel(cfg), tmp_path)
        v, w = tmp_path / "v.txt", tmp_path / "w.txt"
        write_lines(v, ["0.1", "0.2", "0.3", "0.4"])
        write_lines(w, ["0.4", "-0.3", "0.2", "0.1"])
        (one, pair), (two, _) = (cli.load_bundle(data, v, w, workers=n) for n in (1, 2))
        assert [len(p) for p in one] == [150, 90, 200]
        assert all(np.array_equal(p, q) for p, q in zip(one, two))
        assert all(np.array_equal(p, sumproc.project(cli._load_matrix(f), pair))
                   for p, f in zip(two, data))

    def test_bundle_holds_no_sample(self, tmp_path):
        # A (4000, 250) sample is 8 MB as float64; streaming holds a block at a time.
        rng = np.random.default_rng(0)
        f, v = tmp_path / "wide.csv", tmp_path / "v.txt"
        np.savetxt(f, rng.standard_normal((4000, 250)), delimiter=",", fmt="%.3f")
        np.savetxt(v, rng.dirichlet(np.ones(250)))
        tracemalloc.start()
        try:
            products, _ = cli.load_bundle([f], v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert products[0].shape == (4000,)
        assert peak < 4000 * 250 * 8 / 4

    def test_two_column_vector_rejected(self, tmp_path):
        f = tmp_path / "v.txt"
        write_lines(f, ["0.5,0.5", "0.5,0.5"])
        with pytest.raises(IngestionError, match=r"v\.txt: expected one value per line"):
            cli._load_vector(f, expected_d=2)

    def test_vector_with_header(self, tmp_path):
        f = tmp_path / "v.txt"
        write_lines(f, ["weight", "0.25", "", "0.75"])
        np.testing.assert_array_equal(cli._load_vector(f, expected_d=2), [0.25, 0.75])

    @pytest.mark.parametrize("header", [[], ["c1,c2"]], ids=["data-first", "header-first"])
    def test_byte_order_mark_is_not_a_header(self, tmp_path, header):
        # A line 1 that began with a BOM read as a header: a sample lost its first
        # observation, and a vector was refused as one value short.
        plain, marked, v = tmp_path / "plain.csv", tmp_path / "marked.csv", tmp_path / "v.txt"
        write_lines(plain, header + ["1,2", "3,4", "5,7"])
        marked.write_text("\ufeff" + plain.read_text(), encoding="utf-8")
        v.write_text("\ufeff0.25\n0.75\n", encoding="utf-8")
        np.testing.assert_array_equal(cli._load_vector(v, expected_d=2), [0.25, 0.75])
        (got,), _ = cli.load_bundle([marked], v)
        (want,), _ = cli.load_bundle([plain], v)
        assert got.shape == (3,)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bundle_returns_samples_and_vectors(self, tmp_path, workers):
        a, b, v = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "v.txt"
        write_lines(a, ["1,2", "3,4"])
        write_lines(b, ["5,6"])
        write_lines(v, ["0.5", "0.5"])
        products, pair = cli.load_bundle([a, b], v, workers=workers)
        np.testing.assert_array_equal(products[0], [1.5 ** 2, 3.5 ** 2])
        np.testing.assert_array_equal(products[1], [5.5 ** 2])
        np.testing.assert_array_equal(pair.v, [0.5, 0.5])
        assert pair.w is pair.v


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

    def test_bad_panel_settings_exit_code_two(self, tmp_path):
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

    def test_config_key_set_twice_refused_naming_both_lines(self, tmp_path, capsys):
        # The second value used to win: this file simulated d = 5.
        cfg = tmp_path / "cfg"
        write_lines(cfg, ["panel.d = 3", "# d again", "panel.d = 5"])
        rc = cli.main(["simulate", "--out-dir", str(tmp_path / "out"), "--config", str(cfg)])
        assert rc == 2
        captured = capsys.readouterr()
        assert f"{cfg}:3: setting 'panel.d' already set at line 1" in captured.err
        assert "seed:" not in captured.out
        assert not (tmp_path / "out").exists()

    def test_one_N_applies_to_every_sample(self, tmp_path, capsys):
        # The default N of 100 used to be refused for K > 1.
        for N, sizes in ((["--N", "50"], [50] * 3), ([], [100] * 3)):
            out = tmp_path / str(len(N))
            rc = cli.main(["simulate", "--out-dir", str(out), "--seed", "1", "--K", "3", *N])
            assert rc == 0
            paths = capsys.readouterr().out.split()
            assert [len(np.loadtxt(p, delimiter=",")) for p in paths] == sizes
        rc = cli.main(["simulate", "--out-dir", str(tmp_path), "--seed", "1", "--K", "3",
                       "--N", "50,60"])
        assert rc == 2
        assert "N must be K positive whole numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flags", "config"])
    def test_one_tau_applies_to_every_sample(self, tmp_path, capsys, source):
        # One tau value used to be refused for K > 1, while one sigma1 value was spread.
        change = {"tau": "50", "sigma1": "2", "rho1": "0.5"}
        if source == "flags":
            args = [f"--{key}={value}" for key, value in change.items()]
        else:
            cfg = tmp_path / "cfg"
            write_lines(cfg, [f"panel.{key} = {value}" for key, value in change.items()])
            args = ["--config", str(cfg)]
        rc = cli.main(["simulate", "--out-dir", str(tmp_path / "out"), "--seed", "4",
                       "--K", "2", "--d", "2", *args])
        assert rc == 0
        cfg = simgen.PanelConfig(K=2, d=2, N=(100, 100), rho0=(0.0, 0.0), sigma0=(1.0, 1.0),
                                 rho1=(0.5, 0.5), sigma1=(2.0, 2.0), tau=(50, 50), seed=4)
        paths = capsys.readouterr().out.split()
        for p, y in zip(paths, simgen.gen_ar1_panel(cfg), strict=True):
            np.testing.assert_array_equal(np.loadtxt(p, delimiter=","), y)
        rc = cli.main(["simulate", "--out-dir", str(tmp_path), "--seed", "4", "--K", "2",
                       "--tau", "50,60,70", "--sigma1", "2"])
        assert rc == 2
        assert "tau must be K positive whole numbers, got (50, 60, 70)" in capsys.readouterr().err


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

    def test_fresh_extrema_draws_equal_at_one_and_two_workers(self, tmp_path):
        data, v = self._panel_files(tmp_path)
        reports = []
        for workers in ("1", "2"):
            limits.draw_extrema.cache_clear()
            out = tmp_path / f"report-{workers}.json"
            rc = cli.main(["test", "--data", *data, "--v", v, "--kind", "v-breve",
                           "--seed", "5", "--workers", workers, "--out", str(out)] + FAST)
            assert rc == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["method"] == "exact-mc"

    @pytest.mark.parametrize("kind", limits.KINDS)
    def test_report_and_stdout_equal_at_one_and_two_workers(self, tmp_path, capsys, kind):
        data, v = self._panel_files(tmp_path, K=3, n=120, d=3)
        targets = [] if kind in limits.BRIDGE_KINDS else ["--targets", "1,1,1"]
        outputs = []
        for workers in ("1", "2"):
            out = tmp_path / f"report-{workers}.json"
            assert cli.main(["test", "--data", *data, "--v", v, "--kind", kind, "--seed", "5",
                             "--workers", workers, "--out", str(out), *targets] + FAST) == 0
            outputs.append((out.read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]

    def test_worker_count_refused_before_files(self, tmp_path, capsys):
        rc = cli.main(["test", "--kind", "q-breve", "--workers", "0",
                       "--data", str(tmp_path / "missing.csv"), "--v", str(tmp_path / "v.txt")])
        assert rc == 2
        assert capsys.readouterr().err == "configuration error: workers must be >= 1, got 0\n"

    def test_refusal_of_no_sample_names_no_file(self, tmp_path, capsys):
        # The test refuses the level, not a sample: the message carries no --data file.
        data, v = self._panel_files(tmp_path)
        rc = cli.main(["test", "--kind", "q-breve", "--level", "0.99999999999999",
                       "--data", *data, "--v", v])
        assert rc == 2
        assert capsys.readouterr().err == (
            "configuration error: level 0.99999999999999 is beyond the tabulated law\n")

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
        (lambda y: 1e200 * y, [], 1, "sample 2: non-finite product at observation 1"),
        (lambda y: np.concatenate([y[:24], 1e200 * y[24:]]), ["--learning-length", "20"], 1,
         "sample 2: non-finite product at observation 25"),
        (lambda y: 1e100 * y, [], 1, "sample 2: non-finite autocovariance inf"),
        (lambda y: np.concatenate([np.ones_like(y[:50]), y[50:]]), ["--learning-length", "50"],
         1, "sample 2: learning series: constant product series"),
    ], ids=["short", "constant", "learning-length", "non-finite-product",
            "non-finite-tested-product", "overflow", "constant-learning"])
    def test_sample_refusal_names_its_file(self, tmp_path, capsys, rows, flags, rc, message):
        data, v = self._panel_files(tmp_path)
        y = np.loadtxt(data[1], delimiter=",")
        np.savetxt(data[1], rows(y), delimiter=",", fmt="%.17g")
        assert cli.main(["test", "--data", *data, "--v", v, "--kind", "q-breve",
                         "--seed", "5", *flags] + FAST) == rc
        assert f"{data[1]}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", [1, 2])
    def test_learning_length_refusal_comes_in_file_order(self, tmp_path, capsys, workers):
        # File 1 is shorter than --learning-length; file 2 does not parse at its line 201.
        data, v = self._panel_files(tmp_path, n=250)
        y = np.loadtxt(data[0], delimiter=",")
        np.savetxt(data[0], y[:50], delimiter=",", fmt="%.17g")
        lines = Path(data[1]).read_text().splitlines()
        lines[200] = "1,x"
        write_lines(Path(data[1]), lines)
        assert cli.main(["test", "--data", *data, "--v", v, "--kind", "q-breve",
                         "--learning-length", "60", "--workers", str(workers)] + FAST) == 2
        assert capsys.readouterr().err == (f"configuration error: {data[0]}: "
                                           "learning_length 60 invalid for sample 1 of size 50\n")

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

    def test_overflowing_product_refused_without_warning(self, tmp_path):
        data, v = self._panel_files(tmp_path)
        np.savetxt(data[1], 1e200 * np.loadtxt(data[1], delimiter=","), delimiter=",",
                   fmt="%.17g")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-m", "covcusum.cli", "test", "--data", *data,
                              "--v", v, "--kind", "q-breve", *FAST],
                             env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 1
        assert out.stderr == f"error: {data[1]}: sample 2: non-finite product at observation 1\n"

    @pytest.mark.parametrize("learning_length", [None, 20])
    @pytest.mark.parametrize("kind", limits.KINDS)
    def test_streamed_report_equals_whole_sample_report(self, tmp_path, kind, learning_length):
        data, v = self._panel_files(tmp_path, n=150, d=3)
        bridge = kind in limits.BRIDGE_KINDS
        out = tmp_path / "report.json"
        flags = [] if learning_length is None else ["--learning-length", str(learning_length)]
        flags += [] if bridge else ["--targets", "1,1"]
        assert cli.main(["test", "--data", *data, "--v", v, "--kind", kind, "--seed", "5",
                         "--n-grid", "100", "--n-rep", "1000", "--workers", "1",
                         "--out", str(out), *flags]) == 0
        pair = sumproc.ProjectionPair.from_vectors(cli._load_vector(v, 3))
        spec = cptest.TestSpec(kind=kind, targets=None if bridge else [1.0, 1.0],
                               n_grid=100, n_rep=1000,
                               seed=5)
        panel = [sumproc.project(cli._load_matrix(p), pair) for p in data]
        L = learning_length or 0
        learning = None if learning_length is None else [p[:L] for p in panel]
        report = cptest.run_test([p[L:] for p in panel], spec, learning)
        assert out.read_text() == report.to_json(indent=2) + "\n"

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
        assert "(exact-mc)" in capsys.readouterr().out
        (row,) = csv.DictReader(out.read_text().splitlines())
        assert (row["n_rep"], row["seed"], row["method"]) == ("20000", "13", "exact-mc")

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
        monkeypatch.setattr(limits, "draw_extrema", no_simulation)
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

    def test_omitted_seed_replays_byte_for_byte(self, tmp_path, capsys):
        # The seed is 63 bits from the operating system, and printing it is all a replay needs.
        argv = ["critval", "--kind", "v-breve", "--K", "2", "--alpha", "1.0,1.5",
                "--kappa", "0.5,0.5", "--workers", "1"] + FAST
        assert cli.main(argv + ["--out", str(tmp_path / "drawn.csv")]) == 0
        printed = capsys.readouterr().out
        seed = int(re.fullmatch(r"seed: (\d+)", printed.splitlines()[0]).group(1))
        assert 0 <= seed < 2**63
        assert cli.main(argv + ["--seed", str(seed), "--out", str(tmp_path / "replay.csv")]) == 0
        assert capsys.readouterr().out == printed.split("\n", 1)[1]
        assert (tmp_path / "replay.csv").read_bytes() == (tmp_path / "drawn.csv").read_bytes()

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
        # No seed is drawn for a refused v-breve request either.
        rc = cli.main(["critval", "--kind", "v-breve", "--K", "2", "--alpha", "1,1",
                       "--kappa", "0.5,0.5", "--workers", "0"] + FAST)
        assert rc == 2
        out, err = capsys.readouterr()
        assert "seed:" not in out
        assert err == "configuration error: workers must be >= 1, got 0\n"


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


def test_import_loads_no_process_pool():
    # The worker processes of ``test`` must not slow every command's start-up.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, covcusum.cli\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('multiprocessing', 'concurrent')))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out == "[]\n"


def test_q_breve_commands_load_no_rng_openssl_or_pool(tmp_path):
    # A q-kind critical value is a closed-form law: at one worker, critval and
    # test draw nothing, so they need neither numpy's generators, nor OpenSSL
    # (which secrets and hashlib load), nor process machinery.
    cfg = simgen.PanelConfig(K=2, d=2, N=(60, 60), rho0=(0.2, 0.2), sigma0=(1.0, 1.0), seed=3)
    data = simgen.export_panel_csv(simgen.gen_ar1_panel(cfg), tmp_path)
    write_lines(tmp_path / "v.txt", ["0.5", "0.5"])
    critval = ["critval", "--kind", "q-breve", "--K", "2"]
    test = ["test", "--kind", "q-breve", "--workers", "1", "--data", *data,
            "--v", str(tmp_path / "v.txt")]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    # Nor do they load the layers they do not run: critval runs limits alone.
    code = ("import sys, covcusum.cli\n"
            f"for argv in ({critval!r}, {test!r}):\n"
            "    assert covcusum.cli.main(argv) == 0\n"
            "    print('layers:', [m for m in ('covcusum.cptest', 'covcusum.lrv',\n"
            "                                  'covcusum.harness') if m in sys.modules])\n"
            "print(sorted(m for m in ('secrets', 'hashlib', '_hashlib', 'numpy.random',\n"
            "                         'multiprocessing') if m in sys.modules))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.splitlines()[-1] == "[]"
    assert [line for line in out.splitlines() if line.startswith("layers:")] == [
        "layers: []", "layers: ['covcusum.cptest', 'covcusum.lrv']"]
    # And the package alone loads no layer.
    code = ("import sys, covcusum\n"
            "print(sorted(m for m in sys.modules if m.startswith('covcusum.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.splitlines() == ["[]"]


@pytest.mark.parametrize("argv", [
    ["simulate", "--out-dir", "{tmp}/out"],
    ["critval", "--kind", "v-breve", "--K", "1", "--alpha", "1", "--kappa", "1",
     "--out", "{tmp}/out/critval.csv"],
    ["experiment", "--replications", "2", "--dims", "2", "--out-csv", "{tmp}/out/cell.csv"],
    ["test", "--kind", "v-breve", "--data", "{tmp}/x.csv", "--v", "{tmp}/v.txt",
     "--out", "{tmp}/out/report.json"],
], ids=["simulate", "critval", "experiment", "test"])
def test_seed_of_2_to_the_64_refused_before_any_output(argv, tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(limits, "stream", lambda *a, **k: calls.append(a))
    (tmp_path / "out").mkdir()
    rc = cli.main([a.format(tmp=tmp_path) for a in argv] + ["--seed", str(2**64)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"configuration error: seed must be below 2**64, got {2**64}\n")
    assert calls == [] and list((tmp_path / "out").iterdir()) == []


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

    def test_fresh_extrema_draws_equal_at_one_and_two_workers(self, tmp_path):
        tables = []
        for workers in ("1", "2"):
            limits.draw_extrema.cache_clear()
            out_csv = tmp_path / f"res-{workers}.csv"
            rc = cli.main(["experiment", "--replications", "2", "--cases", "I",
                           "--dims", "2", "--scenario", "none", "--seed", "17",
                           "--tests", "v-breve", "--workers", workers,
                           "--out-csv", str(out_csv)] + FAST)
            assert rc == 0
            rows = list(csv.DictReader(out_csv.read_text().splitlines()))
            for row in rows:
                del row["wall_time"]
            tables.append(rows)
        assert tables[0] == tables[1]

    # Case I at d = 2 in batches of 2 replications (or 1 with a learning block): 5
    # replications make at least 3 batches, so 2 and 3 workers fork a pool.  Seed 21
    # rejects in every table, so a batch whose rejections were lost would show.
    @pytest.mark.parametrize("flags", [
        ["--scenario", "sigma-change"], ["--learning-length", "300"],
        ["--scenario", "coefficient-change", "--change-times", "300,900"]],
        ids=["in-sample", "learning-length", "two-change-times"])
    def test_table_equal_at_one_two_and_three_workers(self, tmp_path, monkeypatch, flags):
        monkeypatch.setattr(harness, "PANEL_CHUNK_BYTES", 50_000)
        tables = []
        for workers in ("1", "2", "3"):
            out_csv = tmp_path / f"res-{workers}.csv"
            assert cli.main(["experiment", "--replications", "5", "--cases", "I", "--dims", "2",
                             "--seed", "21", "--workers", workers, *flags,
                             "--out-csv", str(out_csv)] + FAST) == 0
            tables.append(_cut_wall_time(out_csv))
        assert tables[0] == tables[1] == tables[2]
        assert len(tables[0]) == (5 if "--change-times" in flags else 3)

    @pytest.mark.parametrize("error, status", [(DegenerateLrvError, 1),
                                               (ConfigurationError, 2)])
    def test_refusal_in_a_worker_reaches_the_cli_unchanged(self, monkeypatch, capsys, error,
                                                           status):
        # Batches of 2, 2 and 1 replications; the last one's tests are refused, at two
        # workers in the second forked process.
        run_batch = cptest.run_batch

        def refusing(batch, specs, learning):
            if len(batch[0]) == 1:
                raise error("sample 2: refused in the last batch", sample_index=1)
            return run_batch(batch, specs, learning)

        monkeypatch.setattr(cptest, "run_batch", refusing)
        monkeypatch.setattr(harness, "PANEL_CHUNK_BYTES", 50_000)
        outcomes = []
        for workers in ("1", "2"):
            rc = cli.main(["experiment", "--replications", "5", "--cases", "I", "--dims", "2",
                           "--seed", "19", "--workers", workers] + FAST)
            outcomes.append((rc, capsys.readouterr().err))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == status
        assert outcomes[0][1].endswith(": sample 2: refused in the last batch\n")

    @pytest.mark.parametrize("command", ["experiment", "test"])
    def test_pools_fork_with_one_thread(self, tmp_path, monkeypatch, fork_threads, command):
        monkeypatch.setattr(harness, "PANEL_CHUNK_BYTES", 50_000)
        if command == "experiment":
            args = ["experiment", "--replications", "5", "--cases", "I", "--dims", "2"]
        else:
            cfg = simgen.PanelConfig(K=2, d=2, N=(80, 80), rho0=(0.2, 0.2),
                                     sigma0=(1.0, 1.0), seed=3)
            v = tmp_path / "v.txt"
            write_lines(v, ["0.5", "0.5"])
            args = ["test", "--kind", "v-breve", "--v", str(v), "--data",
                    *map(str, simgen.export_panel_csv(simgen.gen_ar1_panel(cfg), tmp_path))]
        fork_threads.clear()
        assert cli.main(args + ["--seed", "19", "--workers", "2"] + FAST) == 0
        kernel = 1 if Path("/proc/self/status").exists() else None
        assert fork_threads == [(1, kernel)] * 2

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
                                     ["--scenario", "none", "--change-times", "600"],
                                     ["--cases", "I,I"]],
                             ids=["replications", "n-grid", "workers", "dims",
                                  "change-time-beyond-horizon", "change-time-without-change",
                                  "repeated-case"])
    def test_refused_config_draws_no_seed_and_no_panel(self, bad, capsys, monkeypatch):
        calls = []
        generate = simgen.gen_ar1_blocks
        monkeypatch.setattr(simgen, "gen_ar1_blocks",
                            lambda *a, **k: calls.append(1) or generate(*a, **k))
        rc = cli.main(["experiment", "--replications", "2", "--cases", "I", "--dims", "2",
                       *FAST, *bad])
        assert rc == 2
        assert "seed:" not in capsys.readouterr().out
        assert calls == []


@pytest.mark.parametrize("command", ["simulate", "test", "critval", "experiment"])
def test_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # the help is wrapped to the terminal
    assert text.startswith(f"usage: covcusum {command}")
    if command == "experiment":
        assert f"in [1, {simgen.HORIZON})" in text
        assert f"default {simgen.DEFAULT_CHANGE_TIME})" in text
        assert "{" + ",".join(simgen.SCENARIOS) + "}" in text


@pytest.mark.parametrize("argv, message", [
    # Malformed numbers in list flags and config values.
    (["experiment", "--scenario", "sigma-change", "--change-times", "6x0"],
     "--change-times: '6x0' is not an integer"),
    (["experiment", "--dims", "2.5"], "--dims: '2.5' is not an integer"),
    # A kind named twice used to print two rows at twice its rejection rate.
    (["experiment", "--tests", "q-breve,q-breve"], "tests name 'q-breve' twice"),
    (["experiment", "--tests", "q-breve, q-breve"], "tests name 'q-breve' twice"),
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
    # A cell named twice printed two like rows from two cell seeds.
    (["experiment", "--cases", "I,I"], "cases name 'I' twice"),
    (["experiment", "--cases", "I, I"], "cases name 'I' twice"),
    (["experiment", "--dims", "2,2"], "dims name 2 twice"),
    (["experiment", "--scenario", "sigma-change", "--change-times", "600,600"],
     "change_times name 600 twice"),
], ids=["change-times", "dims", "repeated-test", "repeated-spaced-test", "critval-alpha",
        "simulate-N", "simulate-K", "config-N", "simulate-seed", "simulate-rep",
        "experiment-seed", "critval-seed", "test-seed", "alpha-nan", "alpha-inf", "kappa-nan",
        "repeated-case", "repeated-spaced-case", "repeated-dim", "repeated-change-time"])
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
