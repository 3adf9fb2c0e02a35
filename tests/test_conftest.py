"""The test session survives a failing hypothesis test."""

import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

FAILING_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # the project's conftest and warning filters, on a file of its own
    shutil.copy(HERE / "conftest.py", tmp_path / "conftest.py")
    (tmp_path / "test_two.py").write_text(FAILING_THEN_PASSING)
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(HERE.parent / "pyproject.toml"), "--rootdir", str(tmp_path),
            "test_two.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
