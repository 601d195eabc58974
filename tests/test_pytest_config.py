"""The repository's pytest configuration reports a failing property as one
failed test, and the run goes on."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_runs_after():
    pass
"""


def test_a_failing_property_is_one_failed_test(tmp_path):
    # with warnings as errors, the DeprecationWarning that hypothesis's
    # failure report raises on import ended the session with INTERNALERROR
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = done.stdout + done.stderr
    assert "INTERNALERROR" not in output
    assert done.returncode == 1, output
    assert "1 failed, 1 passed" in output
