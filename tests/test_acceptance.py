"""End-to-end verification gate.

Each test runs one named suite through the acceptance runner and records
the verdict; conftest prints a one-line PASS/FAIL summary per suite at
the end of the session.
"""

from itertools import cycle
from types import SimpleNamespace

import pytest

from dmfields import acceptance
from dmfields.acceptance import SUITES, run_suite

from conftest import RESULTS


@pytest.mark.parametrize("name", SUITES)
def test_acceptance(name):
    passed, detail = run_suite(name)
    RESULTS[name] = (passed, detail)
    assert passed, f"{name} failed: {detail}"


def _fake_clock(monkeypatch, seconds):
    ticks = cycle([0.0, seconds])  # every run takes `seconds`
    monkeypatch.setattr(
        acceptance, "time", SimpleNamespace(perf_counter=lambda: next(ticks))
    )


def test_a_suite_over_its_budget_fails(monkeypatch):
    monkeypatch.setitem(SUITES, "stub", (lambda: (True, "checks hold"), 0.0))
    assert run_suite("stub") == (False, "checks hold, 0.0s")


def test_a_suite_passes_only_within_its_budget(monkeypatch):
    monkeypatch.setitem(SUITES, "stub", (lambda: (True, "checks hold"), 10.0))
    _fake_clock(monkeypatch, 9.96)
    assert run_suite("stub") == (True, "checks hold, 10.0s")
    _fake_clock(monkeypatch, 10.0)
    assert run_suite("stub") == (False, "checks hold, 10.0s")


def test_no_budget_never_fails_on_time(monkeypatch):
    monkeypatch.setitem(SUITES, "stub", (lambda: (True, "checks hold"), None))
    _fake_clock(monkeypatch, 1e6)
    assert run_suite("stub") == (True, "checks hold, 1000000.0s")
    monkeypatch.setitem(SUITES, "stub", (lambda: (False, "a check failed"), None))
    assert run_suite("stub")[0] is False
