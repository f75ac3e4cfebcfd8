"""Regenerate the benchmark's committed data from the program as it stands.

    python3 perfbench/make_pins.py

Writes ``perfbench/data/pins.json``: output digests keyed by op input.
It covers every ``a/96`` beta of ``rotation_pointwise``, the warm-up
and first rounds of ``spec_gate`` and ``reduce_certify`` at the default
seed, and the frozen anchor, which ``spec_gate`` runs at that seed.

Run it only when the program's output is meant to change; the benchmark
fails any op whose pinned digest no longer matches.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINNED_ROUNDS = {"spec_gate": 40, "reduce_certify": 300}


def main() -> int:
    sys.path.insert(0, str(HERE))
    import workloads as wl
    from worker import _import_circsys

    pkg = _import_circsys()
    pins = {}
    runners = {}

    def pin(workload, op):
        if workload not in runners:
            runners[workload] = wl.Runner(pkg, workload)
        runner = runners[workload]
        outcome = runner.execute(op)
        got = wl.digest(outcome)
        problems = wl.check(workload, runner, op, outcome, got, {})
        if problems:
            raise SystemExit(f"{op.key}: {problems}")
        pins.setdefault(workload, {})[op.key] = got
        print(workload, op.key, flush=True)

    pin("spec_gate", wl.cli_op(wl.ANCHOR_ARGV))
    for a in range(1, 96):
        pin("rotation_pointwise", wl.pointwise_op(a))
    for workload, rounds in PINNED_ROUNDS.items():
        warm, timed = wl.generate(workload, wl.DEFAULT_SEED, rounds)
        for op in [warm] + [op for rnd in timed for op in rnd]:
            pin(workload, op)

    with open(wl.DATA / "pins.json", "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
