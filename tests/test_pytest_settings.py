"""The pytest settings in pyproject.toml, run on throwaway test files in a temporary rootdir."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _pytest(tmp_path, source: str) -> subprocess.CompletedProcess:
    (tmp_path / "test_it.py").write_text(source)
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
                           "--rootdir", str(tmp_path), "test_it.py"], cwd=tmp_path, capture_output=True, text=True)


def test_a_failing_property_reports_its_falsifying_example(tmp_path):
    # reporting imports libcst -> mypy_extensions, which warns on import; that must not crash pytest
    run = _pytest(tmp_path, "from hypothesis import given, strategies as st\n\n\n"
                            "@given(st.integers())\ndef test_small(x):\n    assert x < 10\n")
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout


def test_a_deprecation_warning_in_test_code_fails_its_test(tmp_path):
    run = _pytest(tmp_path, "import warnings\n\n\n"
                            "def test_old():\n    warnings.warn('old api', DeprecationWarning)\n")
    assert run.returncode == 1, run.stdout + run.stderr
    assert "DeprecationWarning: old api" in run.stdout
