"""One workload process: set up, then run the timed loop or the traced run.

Run by ``run.py``; not meant to be called by hand.  The process is single
threaded (the parent sets the BLAS and OpenMP thread variables to 1) and
runs a closed loop: the next op starts when the previous one returns.

Protocol on stdout: a line ``READY`` once set-up (import, input
generation and the warm-up op) is done, then one JSON line with the
results.  The program's own stdout is captured per op and never reaches
this stream.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# rounds of the traced run: fixed, so its counts repeat exactly
TRACE_ROUNDS = {"spec_gate": 3, "rotation_pointwise": 2, "reduce_certify": 20}
# rounds generated for the timed loop; far more than a run can use
MAX_ROUNDS = {"spec_gate": 200, "rotation_pointwise": 100,
              "reduce_certify": 600}

SELF_S = ("cli.run", "specbuild.check_specs", "specbuild.build_words",
          "systems.circular_sequence", "systems.odometer_sequence",
          "systems.functor_F", "systems.sequence_to_json",
          "words.materialize", "rotation.displacement", "rotation.match_class",
          "locations.maturity", "trees.certify_continuity", "trees.reduce")
CALLS = ("specbuild.check_specs", "specbuild.build_words",
         "systems.circular_sequence", "circular.apply_C",
         "words.materialize", "rotation.displacement", "rotation.match_class",
         "locations.maturity", "locations.D_n",
         "coefficients.dynamical_index", "trees.reduce",
         "trees.sigma_enumeration")


def layer_metrics(tracer, n_ops: int, output_bytes: int,
                  overhead_s: float) -> dict:
    """Per-layer metrics of a traced run, per op (name -> (value, unit))."""
    st = tracer.self_times()
    c = tracer.counts
    out = {}
    for name in SELF_S:
        out[f"{name}.self_s"] = (st.get(name, 0.0) / n_ops, "s/op")
    for name in CALLS:
        out[f"{name}.calls"] = (c[f"{name}.calls"] / n_ops, "calls/op")
    builds = c["specbuild.build_words.calls"]
    out["specbuild.gate_attempts_per_build"] = (
        c["specbuild.check_specs.in_build"] / builds if builds else 0.0,
        "attempts/build")
    out["words.materialize.symbols"] = (
        c["words.materialize.symbols"] / n_ops, "symbols/op")
    out["cli.output_bytes"] = (output_bytes / n_ops, "bytes/op")
    out["trees.mutate_tree.refused"] = (
        c["trees.mutate_tree.raised"] / n_ops, "count/op")
    out["trace.overhead_s"] = (overhead_s, "s/op")
    return out


def _import_circsys():
    if not (SRC / "circsys" / "__init__.py").is_file():
        raise SystemExit(f"no circsys sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import circsys
    import circsys.cli  # noqa: F401  (not re-exported by the package)
    return circsys


class Session:
    """Imported package, generated inputs and the op bookkeeping."""

    def __init__(self, workload: str, seed: int, rounds: int):
        import workloads as wl
        self.wl = wl
        self.pkg = _import_circsys()
        self.workload = workload
        self.pins = wl.load_json("pins.json")
        self.warm, self.rounds = wl.generate(workload, seed, rounds)
        self.runner = wl.Runner(self.pkg, workload)
        self.attempted = self.failed = 0
        self.problems = []

    def run(self, op):
        """(latency, digest, outcome) of one checked op; failures counted."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            outcome = self.runner.execute(op)
        except Exception as exc:  # an op that raises is a failed op
            latency = time.perf_counter() - t0
            self.fail(op, [f"raised {type(exc).__name__}: {exc}"])
            return latency, None, None
        latency = time.perf_counter() - t0
        digest = self.wl.digest(outcome)
        problems = self.wl.check(self.workload, self.runner, op, outcome,
                                 digest, self.pins)
        if problems:
            self.fail(op, problems)
        return latency, digest, outcome

    def fail(self, op, problems):
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append({"op": op.key, "problems": problems})

    def summary(self) -> dict:
        import numpy
        return {"attempted": self.attempted, "failed": self.failed,
                "problems": self.problems,
                "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "python": platform.python_version(),
                "numpy": numpy.__version__}


def timed(sess: Session, seconds: float, seed: int) -> dict:
    latencies = []
    t_loop = time.perf_counter()
    for ops in sess.rounds:
        for op in ops:
            latencies.append(sess.run(op)[0])
        if time.perf_counter() - t_loop >= seconds:
            break
    if sess.workload == "spec_gate" and seed == sess.wl.DEFAULT_SEED:
        # frozen anchor, checked after the timed loop at the default seed
        sess.run(sess.wl.cli_op(sess.wl.ANCHOR_ARGV))
    return {"latencies": latencies}


def traced(sess: Session, trace_out: str) -> dict:
    """Run each op untraced and traced, alternating which goes first so
    warm caches and machine drift favour neither; the tracer is installed
    only around the traced run."""
    from tracer import Tracer
    ops = [op for rnd in sess.rounds[:TRACE_ROUNDS[sess.workload]]
           for op in rnd]
    tracer = Tracer()
    plain_s = traced_s = 0.0
    output_bytes = 0
    for i, op in enumerate(ops):
        digests = {}
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install(sess.pkg)
                tracer.op, tracer.enabled = i, True
            try:
                latency, digests[with_trace], outcome = sess.run(op)
            finally:
                if with_trace:
                    tracer.enabled = False
                    tracer.uninstall()
            if with_trace:
                traced_s += latency
                if outcome is not None and "stdout" in outcome:
                    output_bytes += len(outcome["stdout"].encode())
            else:
                plain_s += latency
        if digests[True] != digests[False]:
            sess.fail(op, ["traced output digest differs from the untraced "
                           "run"])
    overhead = (traced_s - plain_s) / len(ops)
    metrics = layer_metrics(tracer, len(ops), output_bytes, overhead)
    tracer.dump(trace_out, {"workload": sess.workload,
                            "ops": [op.key for op in ops]})
    return {"ops": len(ops), "untraced_s": plain_s, "traced_s": traced_s,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"),
                    required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace-out", help="where the traced run writes "
                    "its spans; required with --mode traced")
    args = ap.parse_args(argv)
    if args.mode == "traced" and not args.trace_out:
        ap.error("--mode traced requires --trace-out")
    sys.path.insert(0, str(HERE))
    sess = Session(args.workload, args.seed, MAX_ROUNDS[args.workload])
    sess.run(sess.warm)
    print("READY", flush=True)
    result = {}
    if args.mode == "timed":
        result = timed(sess, args.seconds, args.seed)
    elif args.mode == "traced":
        result = traced(sess, args.trace_out)
    result.update(sess.summary())
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
