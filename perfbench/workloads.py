"""Workload definitions: seeded op generation, op execution, output checks.

Every input is generated from the workload seed.  The program only sees
the generated argv (CLI ops, run in-process through ``circsys.cli.run``
with stdout captured) or the generated objects (API ops).

Ops come in rounds.  A round holds one op from each cost stratum of the
workload, so every round carries about the same work whatever the seed;
the timed loop runs whole rounds.  Single-stratum workloads have one op
per round.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
DEFAULT_SEED = 0

SPEC_GATE_ARGV = ("build", "--kl", "1024,4;2,2", "--eps", "1/4",
                  "--eps", "1/8", "--level", "1")
REDUCE_KL = ((4, 2), (2, 2), (2, 2), (2, 2))
POINTWISE_KL = ((2, 2),) * 3

# frozen anchor: this separated-pair timing check must print gamma_1 and
# T4@1 exactly; it runs once after the spec_gate timed loop at the default
# seed
ANCHOR_ARGV = ("check-timing", "--kl", "64,4;2,2", "--eps", "2/5",
               "--eps", "1/5", "--level", "2", "--style", "separated",
               "--seed", "11")
ANCHOR_GAMMA_1, ANCHOR_T4 = "2583/10240", "12/47"


@dataclasses.dataclass(frozen=True)
class Op:
    key: str              # canonical input; pinned digests are keyed by it
    argv: tuple = ()      # CLI ops
    params: tuple = ()    # API ops


def cli_op(argv) -> Op:
    return Op(" ".join(argv), argv=tuple(argv))


def pointwise_op(a: int) -> Op:
    return Op(f"pointwise beta={a}/96", params=(a, 96))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical_digest(obj) -> str:
    return sha256(json.dumps(obj, sort_keys=True).encode())


def load_json(name: str):
    with open(DATA / name) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# op generation

def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _distinct_draws(rng, draw, warm_key, rounds):
    """One draw per stratum per round, never the warm-up input."""
    out = []
    for _ in range(rounds):
        ops = []
        for stratum in draw:
            op = stratum(rng)
            while op.key == warm_key:
                op = stratum(rng)
            ops.append(op)
        rng.shuffle(ops)
        out.append(ops)
    return out


def _spec_gate(rng):
    return cli_op(SPEC_GATE_ARGV + ("--seed", str(rng.randrange(10 ** 6))))


def _pointwise(rng):
    return pointwise_op(rng.randrange(1, 96))


def _reduce(n0):
    def draw(rng):
        # criterion-11 shape: 4-8 nodes grown from the root
        while True:
            nodes = {()}
            for _ in range(rng.randrange(3, 8)):
                base = rng.choice(sorted(nodes))
                nodes.add(base + (rng.randrange(2),))
            if len(nodes) >= n0 + 1:
                break
        seed = rng.randrange(1000)
        nodes = tuple(sorted(nodes))
        return Op(f"certify nodes={list(map(list, nodes))} n0={n0} "
                  f"seed={seed}", params=(nodes, n0, seed))
    return draw


def strata(workload: str) -> list:
    if workload == "spec_gate":
        return [_spec_gate]
    if workload == "rotation_pointwise":
        return [_pointwise]
    if workload == "reduce_certify":
        return [_reduce(n0) for n0 in (1, 2, 3)]
    raise KeyError(workload)


def generate(workload: str, seed: int, rounds: int):
    """(warm-up op, timed rounds) for one workload seed."""
    rng = _rng(workload, seed)
    draw = strata(workload)
    warm = draw[0](rng)
    return warm, _distinct_draws(rng, draw, warm.key, rounds)


# ---------------------------------------------------------------------------
# execution

class Runner:
    """Executes ops against an imported circsys package.

    Functions are looked up on their modules at call time, so wrappers the
    tracer installs are the ones called."""

    def __init__(self, circsys, workload: str):
        self.pkg = circsys
        desk_plan = circsys.coefficients.desk_plan
        if workload == "rotation_pointwise":
            plan = desk_plan(kl=POINTWISE_KL)
            seq = circsys.systems.circular_sequence(
                plan, "01", [[(0, 1), (1, 0)]] * 3)
            self.q = [plan.q(n) for n in range(4)]
            self.windows = [circsys.locations.PointWindow(seq, 3, 0, x)
                            for x in range(plan.q(3))]
        elif workload == "reduce_certify":
            self.reduce_plan = desk_plan(kl=REDUCE_KL)

    def execute(self, op: Op):
        """Run one op; returns an outcome the checks read."""
        if op.argv:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = self.pkg.cli.run(list(op.argv))
            return {"rc": rc, "stdout": buf.getvalue()}
        if op.key.startswith("pointwise"):
            rot = self.pkg.rotation
            displacement, match_class = rot.displacement, rot.match_class
            beta = Fraction(*op.params)
            return {"rows": [(displacement(beta, w, 1),
                              displacement(beta, w, 2),
                              match_class(beta, w, 1))
                             for w in self.windows]}
        nodes, n0, seed = op.params
        trees = self.pkg.trees
        tp = trees.TreePrefix(frozenset(nodes))
        return {"cert": trees.certify_continuity(tp, n0, self.reduce_plan,
                                                 seed)}


# ---------------------------------------------------------------------------
# output checks

def digest(outcome) -> str:
    """sha256 of a CLI op's stdout bytes, or a canonical digest of an API
    op's result."""
    if "stdout" in outcome:
        return sha256(outcome["stdout"].encode())
    if "rows" in outcome:
        # field values in declaration order, as dataclasses.astuple gives
        return canonical_digest([[list(vars(x).values()) for x in row]
                                 for row in outcome["rows"]])
    return canonical_digest(dataclasses.asdict(outcome["cert"]))


def _check_cli(op, outcome) -> list:
    if outcome["rc"] != 0:
        return [f"exit code {outcome['rc']}"]
    try:
        doc = json.loads(outcome["stdout"])
    except json.JSONDecodeError as exc:
        return [f"report does not parse: {exc}"]
    problems = []
    if op.argv == ANCHOR_ARGV:
        t4 = [e["worst_deviation"] for e in doc.get("report", [])
              if e["spec"] == "T4@1"]
        if doc.get("gamma", [])[:1] != [ANCHOR_GAMMA_1] or \
                t4 != [ANCHOR_T4]:
            problems.append(f"anchor gamma_1 {doc.get('gamma', [])[:1]}, "
                            f"T4@1 {t4}; expected {ANCHOR_GAMMA_1}, "
                            f"{ANCHOR_T4}")
        return problems
    if doc.get("ok") is not True or "sequence" not in doc:
        problems.append("gated build did not pass")
    if str(doc.get("manifest", {}).get("seed")) != op.argv[-1]:
        problems.append("manifest seed differs from the op seed")
    return problems


def _check_pointwise(runner, op, outcome) -> list:
    rows = outcome["rows"]
    if len(rows) != len(runner.windows):
        return ["one row per tower position expected"]
    problems = []
    for col, n in ((0, 1), (1, 2)):
        vals = {r[col].value for r in rows if r[col].defined}
        if not vals or any(not 0 <= v < runner.q[n] for v in vals):
            problems.append(f"displacement at n={n} out of range")
    if not any(r[2].defined for r in rows):
        problems.append("no position has a defined match class")
    return problems


def _check_cert(outcome) -> list:
    cert = outcome["cert"]
    problems = []
    if not cert.unaffected or cert.above_hash != cert.base_hash:
        problems.append("mutation above the bound changed the output")
    if cert.above_index <= cert.bound:
        problems.append("above index not above the bound")
    return problems


def check(workload: str, runner, op: Op, outcome, got: str,
          pins: dict) -> list:
    """Problems with one op's output, whose digest is ``got``; empty when
    it is correct.  Pinned digests are checked wherever the op's input was
    pinned; elsewhere only seed-independent invariants are."""
    try:
        if op.argv:
            problems = _check_cli(op, outcome)
        elif "rows" in outcome:
            problems = _check_pointwise(runner, op, outcome)
        else:
            problems = _check_cert(outcome)
    except (AttributeError, KeyError, TypeError, ValueError,
            ZeroDivisionError) as exc:
        problems = [f"malformed output: {type(exc).__name__}: {exc}"]
    want = pins.get(workload, {}).get(op.key)
    if want is not None and got != want:
        problems.append("output digest differs from the pinned digest")
    return problems
