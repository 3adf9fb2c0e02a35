import warnings

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
