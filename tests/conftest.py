"""Clears the builder's process-long memos before each test;
prints one verdict line per acceptance criterion after the run."""

import re

import pytest

from fixtures import clear_builder_memos


@pytest.fixture(autouse=True)
def _clear_builder_memos():
    clear_builder_memos()

_CRIT = re.compile(r"test_acceptance\.py::.*criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            m = _CRIT.search(getattr(rep, "nodeid", ""))
            if not m:
                continue
            num = int(m.group(1))
            verdict = "PASS" if status == "passed" else "FAIL"
            if results.get(num) != "FAIL":
                results[num] = verdict
    if not results:
        return
    try:
        from test_acceptance import CRITERIA
    except ImportError:
        CRITERIA = {}
    terminalreporter.section("acceptance criteria")
    for num in sorted(results):
        label, note = CRITERIA.get(num, ("", ""))
        terminalreporter.write_line(
            f"criterion {num:2d} {label}: {results[num]} ({note})")
