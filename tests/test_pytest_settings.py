"""The repo's pytest settings: a failing test reports and the run goes on,
and hypothesis draws the same examples on every run."""
import subprocess
import sys
from pathlib import Path

from hypothesis import settings

ROOT = Path(__file__).resolve().parent.parent

TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # under filterwarnings = error, a warning raised while hypothesis
    # reports a failure became an INTERNALERROR that stopped the session
    # before every later test
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "1 failed, 1 passed" in run.stdout
    assert run.returncode == 1


def test_hypothesis_is_derandomized_without_a_database():
    # tests/conftest.py loads the profile before any test module is imported
    assert settings.default.derandomize
    assert settings.default.database is None
