import multiprocessing
import warnings

import pytest

# On a failing test, hypothesis's report hook imports this module, which
# imports libcst, which warns that mypy_extensions.TypedDict is deprecated.
# Under `filterwarnings = ["error"]` that warning becomes an INTERNALERROR
# that ends the session and hides every later result. Importing it once
# here, with only that warning ignored, keeps later imports silent.
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore",
        message="mypy_extensions.TypedDict is deprecated",
        category=DeprecationWarning,
    )
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: nothing to patch, nothing warns
        pass

RESULTS: dict[str, tuple[bool, str]] = {}


def pytest_terminal_summary(terminalreporter):
    if not RESULTS:
        return
    from dmfields.acceptance import SUITES

    terminalreporter.section("acceptance criteria")
    for name in SUITES:
        if name in RESULTS:
            passed, detail = RESULTS[name]
            verdict = "PASS" if passed else "FAIL"
            terminalreporter.write_line(f"{name}: {verdict} - {detail}")


def pytest_sessionfinish(session):
    # a child process still running after the tests means some call
    # returned or raised without ending what it started: fail the
    # session, then end the children so they do not outlive it
    left = multiprocessing.active_children()
    if not left:
        return
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.write_line(
            f"child processes left running: {[p.name for p in left]}", red=True
        )
    for p in left:
        p.terminate()
        p.join()
    session.exitstatus = pytest.ExitCode.TESTS_FAILED
