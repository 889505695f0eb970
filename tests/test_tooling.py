"""The test settings themselves: a failing test reports as a failure."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_negative(n):
    assert n < 0
"""


def test_failing_property_test_reports_as_failure(tmp_path):
    # hypothesis's failure report runs under this repo's filterwarnings;
    # a warning it raises must not end the session in an INTERNALERROR
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    argv = [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path)]
    argv += ["-p", "no:cacheprovider", "test_property.py"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert proc.returncode == 1, out
    assert "1 failed" in proc.stdout, out
