"""The repository's pytest settings report a failing hypothesis test as a failure."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_AND_PASSING = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_is_reported_not_an_internal_error(tmp_path):
    # With warnings as errors, a deprecation warning that hypothesis raises
    # while reporting a failure ended the run and skipped the next test.
    (tmp_path / "pyproject.toml").write_text(PYPROJECT.read_text())
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_example.py").write_text(FAILING_AND_PASSING)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.stdout.splitlines()[-1].startswith("1 failed, 1 passed")
