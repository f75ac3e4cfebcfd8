"""A fixed sample of the benchmark's pinned output digests.

``perfbench/data/pins.json`` pins the digest of every op the benchmark
checks.  This replays ten of them through the benchmark's own op
runner (``perfbench/workloads.py``), so a change that moves a pinned
output fails in the test suite and not first in a benchmark run.  The
``spec_gate`` digests hash a whole ``build`` stdout, run manifest
included."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import circsys  # noqa: E402
import circsys.cli  # noqa: E402,F401  (the runner calls circsys.cli.run)
import workloads as wl  # noqa: E402

PINS = wl.load_json("pins.json")


def _sample() -> list:
    """(workload, op): the warm-up and first timed op of spec_gate, the
    first two timed rounds of reduce_certify (one op per n0 = 1, 2, 3 in
    each; their builds retry after failed attempts), and two betas of
    rotation_pointwise, all at the default seed."""
    spec_warm, spec_rounds = wl.generate("spec_gate", wl.DEFAULT_SEED, 1)
    _, reduce_rounds = wl.generate("reduce_certify", wl.DEFAULT_SEED, 2)
    return [("spec_gate", spec_warm), ("spec_gate", spec_rounds[0][0]),
            ("rotation_pointwise", wl.pointwise_op(1)),
            ("rotation_pointwise", wl.pointwise_op(95)),
            *(("reduce_certify", op) for ops in reduce_rounds for op in ops)]


SAMPLE = _sample()


@pytest.fixture(scope="module")
def runners():
    return {workload: wl.Runner(circsys, workload)
            for workload in sorted({w for w, _ in SAMPLE})}


@pytest.mark.parametrize("workload,op", SAMPLE,
                         ids=[f"{w}-{i}" for i, (w, _) in enumerate(SAMPLE)])
def test_pinned_digest_reproduces(workload, op, runners):
    assert op.key in PINS[workload]
    runner = runners[workload]
    outcome = runner.execute(op)
    got = wl.digest(outcome)
    assert wl.check(workload, runner, op, outcome, got, PINS) == []
    assert got == PINS[workload][op.key]
