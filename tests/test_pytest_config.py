"""The suite's pytest configuration reports a failing Hypothesis test.

``pyproject.toml`` turns every ``DeprecationWarning`` into an error.  When
a ``@given`` test fails, Hypothesis' pytest plugin imports ``libcst`` to
describe the falsifying example, and ``libcst`` may use the deprecated
``mypy_extensions.TypedDict``; unless that one warning is ignored, pytest
ends in ``INTERNALERROR`` without naming the example.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FALSIFIED = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_falsified(value):
    assert value < 10
'''


def test_a_falsified_given_test_reports_its_example(tmp_path):
    (tmp_path / "test_falsified.py").write_text(FALSIFIED)
    completed = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-q",
         "-p", "no:cacheprovider", "test_falsified.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = completed.stdout + completed.stderr
    assert completed.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
