"""The test session survives a failing hypothesis test, and fails when
a test leaves a child process running."""

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


LEAVES_A_CHILD = '''
import multiprocessing
import time


def test_leaves_a_child():
    multiprocessing.get_context("fork").Process(target=time.sleep, args=(60,)).start()
'''


def _session(tmp_path, name, text):
    # the project's conftest and warning filters, on a file of its own
    shutil.copy(HERE / "conftest.py", tmp_path / "conftest.py")
    (tmp_path / name).write_text(text)
    return subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(HERE.parent / "pyproject.toml"), "--rootdir", str(tmp_path),
            name,
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    run = _session(tmp_path, "test_two.py", FAILING_THEN_PASSING)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout


def test_a_child_process_left_running_fails_the_session(tmp_path):
    run = _session(tmp_path, "test_child.py", LEAVES_A_CHILD)
    assert "1 passed" in run.stdout
    assert "child processes left running" in run.stdout
    assert run.returncode == 1
