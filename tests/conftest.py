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
