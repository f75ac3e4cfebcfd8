"""Regenerate the CLI golden table from the program as it stands.

    python3 tests/make_golden.py

Writes ``tests/golden.json``: for each row name, the argv, the exit code
and the sha256 of stdout and of stderr of one in-process
``circsys.cli.run`` call, made from the repository root.
``tests/test_golden.py`` replays every row.

Run it only when the CLI's output is meant to change, and say in
CHANGES.md which rows moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden.json"
TREE = "tests/data/tree.json"              # {(), (0,), (0, 0)}
FLOOR_PLAN = "tests/data/floor_plan.json"  # fixtures.grow_plan(2, desk=False)

BUILD_ARGS = ["--kl", "64,4;2,2", "--eps", "1/4", "--eps", "1/8",
              "--level", "1", "--seed", "3"]
# T5@1, T6@1 and T7@1 of check-timing and level-1 J11 of check-specs fail
# with witnesses on this build
WITNESS_ARGS = ["--kl", "4,2;2,2;2,2;2,2", "--level", "3", "--seed", "3"]
K1024_ARGS = ["--kl", "1024,4;2,2", "--eps", "1/4", "--eps", "1/8",
              "--level", "1", "--seed", "0"]
# the separated-pair search and T4 behind gamma_1 = 2583/10240 and
# T4@1 = 12/47
ANCHOR_ARGS = ["--kl", "64,4;2,2", "--eps", "2/5", "--eps", "1/5",
               "--level", "2", "--style", "separated", "--seed", "11"]
KL3 = ["--kl", "2,2;2,2;2,2"]
STAGE = ["--k", "2", "--l", "2", "--p", "1", "--q", "2"]

ROWS = {
    # apply_C(("10", "01"), (2, 2, 1, 2)) and its three failure kinds
    "parse-valid": ["parse", "--text", "bb10bb01b10eb01e", *STAGE],
    "parse-length": ["parse", "--text", "bb10bb01", *STAGE],
    "parse-divergence": ["parse", "--text", "bb10bb01b10eb00e", *STAGE],
    "parse-bad-stage": ["parse", "--text", "0", "--k", "2", "--l", "1",
                        "--p", "0", "--q", "1"],
    "plan-desk": ["plan"],
    "plan-desk-stages-3": ["plan", "--stages", "3"],
    "plan-desk-stages-6": ["plan", "--stages", "6"],
    "plan-kl-stages-3": ["plan", "--kl", "2,2;2,2", "--stages", "3"],
    "plan-kl-kept": ["plan", "--kl", "4,2;3,2", "--stages", "2"],
    "plan-kl-kept-stages-4": ["plan", "--kl", "4,2;3,2", "--stages", "4"],
    "plan-floor": ["plan", "--floor"],
    "plan-floor-stages-2": ["plan", "--floor", "--stages", "2"],
    "plan-floor-stages-3": ["plan", "--floor", "--stages", "3"],
    "plan-floor-stages-4": ["plan", "--floor", "--stages", "4"],
    "plan-file": ["plan", "--plan", FLOOR_PLAN],
    "plan-file-stages-2": ["plan", "--plan", FLOOR_PLAN, "--stages", "2"],
    "plan-file-stages-3": ["plan", "--plan", FLOOR_PLAN, "--stages", "3"],
    "plan-file-floor": ["plan", "--floor", "--plan", FLOOR_PLAN],
    "plan-file-kl": ["plan", "--plan", FLOOR_PLAN, "--kl", "4,2;2,2"],
    "plan-stages-below-depth": ["plan", "--stages", "1"],
    "plan-extra-eps": ["plan", "--kl", "2,2;2,2", "--eps", "1/4",
                       "--eps", "1/8", "--eps", "1/16"],
    "plan-too-few-eps": ["plan", "--kl", "2,2;2,2", "--eps", "1/4"],
    "plan-bad-kl": ["plan", "--kl", "2,2;x"],
    "plan-k-below-2": ["plan", "--kl", "1,2;2,2"],
    # a stage's epsilons must be positive; these four exited 1 with a
    # ZeroDivisionError traceback, or 0 with the plan printed
    "plan-eps-zero": ["plan", "--kl", "2,2;2,2", "--eps", "0", "--eps", "0"],
    "plan-eps-negative": ["plan", "--kl", "2,2;2,2", "--eps", "-1/4",
                          "--eps", "1/8"],
    "plan-floor-eps-zero": ["plan", "--floor", "--kl", "2,2;2,2",
                            "--eps", "0", "--eps", "0", "--stages", "3"],
    "check-timing-eps-zero": ["check-timing", "--kl", "64,4;2,2",
                              "--eps", "0", "--eps", "1/8", "--level", "1"],
    "build-k1024": ["build", *K1024_ARGS],
    "build-k1024-no-gate": ["build", *K1024_ARGS, "--no-gate"],
    "build-gate-fails": ["build", "--kl", "4,2;2,2", "--level", "1"],
    "lift": ["lift", *BUILD_ARGS],
    "check-specs-pass": ["check-specs", *BUILD_ARGS],
    # k_1 = 3 copies cannot hold the two stage-1 words equally often
    "check-specs-unsampleable": ["check-specs", "--kl", "2,2;3,2",
                                 "--level", "2"],
    "check-specs-k1024": ["check-specs", *K1024_ARGS],
    "check-specs-witness": ["check-specs", *WITNESS_ARGS],
    "check-specs-j-tolerance": ["check-specs", *BUILD_ARGS,
                                "--j-tolerance", "1/20"],
    "check-timing-pass": ["check-timing", *BUILD_ARGS],
    "check-timing-witness": ["check-timing", *WITNESS_ARGS],
    "check-timing-anchor": ["check-timing", *ANCHOR_ARGS],
    # a level-0 build has one stage; this exited 0 with an empty report
    "check-timing-level-0": ["check-timing", "--kl", "64,4;2,2",
                             "--level", "0"],
    # gamma_1 = 0 and -5/16 make T4 vacuous; these exited 1 with a
    # TypeError traceback from the separated-pair search
    "check-timing-separated-gamma-zero": [
        "check-timing", "--kl", "8,2;2,2", "--level", "1",
        "--style", "separated"],
    "build-separated-gamma-negative": [
        "build", "--kl", "4,2;2,2", "--level", "1", "--style", "separated"],
    "lift-separated-gamma-negative": [
        "lift", "--kl", "4,2;2,2", "--level", "1", "--style", "separated"],
    "rotation-json": ["rotation", "--beta", "1/3", "--n", "1", "--m", "3",
                      *KL3],
    "rotation-csv": ["rotation", "--beta", "1/3", "--n", "1", "--m", "3",
                     *KL3, "--csv"],
    "rotation-zones": ["rotation", "--beta", "2/7", "--n", "1", "--m", "3",
                       *KL3, "--zones-delta", "1/4"],
    "rotation-zones-delta-2": ["rotation", "--beta", "2/7", "--n", "1",
                               "--m", "3", *KL3, "--zones-delta", "2"],
    # denominators past int64 once multiplied by q_3 = 2^14
    "rotation-huge-2^48": ["rotation", "--beta", f"1/{2 ** 48 + 1}",
                           "--n", "2", "--m", "3", *KL3],
    "rotation-huge-2^50": ["rotation", "--beta", f"1/{2 ** 50 + 1}",
                           "--n", "2", "--m", "3", *KL3],
    "rotation-stages-3": ["rotation", "--stages", "3", "--beta", "1/3",
                          "--n", "1"],
    "rotation-anchor-refused": ["rotation", "--beta", "0", "--n", "2",
                                "--m", "4", "--kl", "2,2;2,2;2,2;2,2"],
    "natural-map": ["natural-map", "--kl", "2,2;2,2", "--n", "1"],
    "natural-map-text": ["natural-map", "--n", "0", "--text", "0110100"],
    "natural-map-stages-3": ["natural-map", "--stages", "3", "--n", "2"],
    "reduce": ["reduce", "--tree", TREE, "--depth", "1", "--kl", "4,2;2,2",
               "--seed", "7"],
    "continuity": ["continuity", "--tree", TREE, "--depth", "1",
                   "--kl", "4,2;2,2", "--seed", "7"],
    "reduce-past-plan": ["reduce", "--tree", TREE, "--depth", "5",
                         "--kl", "4,2;2,2"],
    "reduce-missing-tree": ["reduce", "--tree", "nope.json", "--depth", "1"],
    "continuity-past-plan": ["continuity", "--tree", TREE, "--depth", "5",
                             "--kl", "4,2;2,2"],
    "dbar-exact": ["dbar", "--u", "10011", "--v", "10101"],
    "dbar-empty-interval": ["dbar", "--u", "0110", "--v", "0101",
                            "--a", "1", "--b", "1"],
    "dbar-outside-domain": ["dbar", "--u", "01", "--v", "10",
                            "--a", "0", "--b", "5"],
    "dbar-estimate": ["dbar", "--u", "0110" * 64, "--v", "0101" * 64,
                      "--mode", "estimate", "--seed", "1",
                      "--samples", "512"],
    # an estimate needs a sample; these exited 1 with a ZeroDivisionError
    # traceback and 3 with "math domain error"
    "dbar-samples-zero": ["dbar", "--u", "0101", "--v", "0011",
                          "--mode", "estimate", "--samples", "0"],
    "dbar-samples-negative": ["dbar", "--u", "0101", "--v", "0011",
                              "--mode", "estimate", "--samples", "-3"],
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_row(argv) -> dict:
    """Exit code and sha256 of stdout and of stderr of one CLI call; run
    from ROOT."""
    from circsys.cli import run
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return {"exit": code, "stdout": _sha256(out.getvalue()),
            "stderr": _sha256(err.getvalue())}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    table = {}
    for name, argv in ROWS.items():
        row = run_row(argv)
        table[name] = {"argv": argv} | row
        print(name, row["exit"], row["stdout"][:12], row["stderr"][:12],
              flush=True)
    GOLDEN.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
