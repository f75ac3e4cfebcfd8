"""Every row of the CLI golden table: exit code and the sha256 of stdout
and of stderr.

A change that moves a row says why in CHANGES.md and regenerates the
table with ``python3 tests/make_golden.py``."""

import json
import random

import pytest

from make_golden import GOLDEN, ROOT, ROWS, run_row

TABLE = json.loads(GOLDEN.read_text())


def test_table_matches_the_rows():
    assert {name: row["argv"] for name, row in TABLE.items()} == ROWS


@pytest.mark.parametrize("name", sorted(TABLE))
def test_golden_stdout(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    row = TABLE[name]
    assert {"argv": row["argv"]} | run_row(row["argv"]) == row


def test_rows_replay_warm_in_two_seeded_orders(monkeypatch):
    # every row in one process, twice, no memo cleared between runs: what
    # one run leaves in the process-long memos must not move another's bytes
    monkeypatch.chdir(ROOT)
    for seed in (0, 1):
        names = sorted(TABLE)
        random.Random(seed).shuffle(names)
        for name in names:
            row = TABLE[name]
            assert {"argv": row["argv"]} | run_row(row["argv"]) == row, name
