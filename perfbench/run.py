"""circsys benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload spec_gate --seed 3 --seconds 35 --trace 0
    python3 perfbench/run.py                      # every workload, default seed

Run from the root of a source checkout; the program is imported from its
``src/``.  Each workload runs in its own worker process, one at a time,
single threaded, as a closed loop.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs the traced run and reports the per-layer
metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("spec_gate", "rotation_pointwise", "reduce_certify")
SETUP_SAMPLES = 3          # set-ups per run; setup_s is their median
TAIL_MIN_OPS = 50          # ops a run needs before op_tail_s is a percentile
RUN_DEADLINE_S = 170.0     # every worker is killed past this point
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class WorkerFailed(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env.pop("CIRCSYS_CACHE", None)     # keep the CLI cache out of the loop
    return env


def run_worker(args: list, deadline: float) -> tuple:
    """Start one worker; (seconds from start to READY, result dict)."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(),
                            stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(max(0.0, deadline - t0), proc.kill)
    killer.start()
    try:
        ready = None
        lines = []
        for line in proc.stdout:
            if line.strip() == "READY" and ready is None:
                ready = time.monotonic() - t0
            else:
                lines.append(line)
        rc = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if rc != 0 or ready is None or not lines:
        raise WorkerFailed(f"worker {' '.join(args)} exited with {rc}")
    return ready, json.loads(lines[-1])


def tail(latencies: list) -> tuple:
    """(value, percentile, ops beyond it): the highest percentile with at
    least ten ops beyond it.  Below TAIL_MIN_OPS ops that percentile falls
    under p80 and is no tail, so the slowest op is taken instead.  Each
    workload stays well on one side of the threshold."""
    xs = sorted(latencies)
    n = len(xs)
    i = n - 11 if n >= TAIL_MIN_OPS else n - 1
    return xs[i], 100.0 * (i + 1) / n, n - 1 - i


def end_to_end(setups: list, timed: dict, attempted: int,
               failed: int) -> tuple:
    lat = timed["latencies"]
    value, pct, beyond = tail(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (value, "s"),
        "peak_rss_mb": (timed["rss_kb"] / 1024.0, "MB"),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
    }
    notes = {"op_tail_s": f"p{pct:.1f} of {len(lat)} ops, {beyond} beyond",
             "ops_per_s": f"{len(lat)} ops in {sum(lat):.3f} s of op time",
             "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups),
             "success_rate": f"error_rate {failed}/{attempted}"}
    return metrics, notes


def run_record(workload: str, seed: int, worker: dict) -> dict:
    """Where and on what a result was measured."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():      # a plain source tree has no commit
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"workload": workload, "seed": seed,
            "python": worker.get("python", platform.python_version()),
            "numpy": worker.get("numpy"), "nproc": os.cpu_count(),
            "cpu": cpu, "commit": commit, "src_lines": src_lines}


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    if trace:
        _, res = run_worker(base + ["--mode", "traced", "--trace-out",
                                    str(out_dir / f"{stem}.spans.json")],
                            deadline)
        metrics = {k: (v["value"], v["unit"])
                   for k, v in res["metrics"].items()}
        notes = {"trace.overhead_s":
                 f"traced {res['traced_s']:.3f} s - untraced "
                 f"{res['untraced_s']:.3f} s over {res['ops']} ops"}
        attempted, failed = res["attempted"], res["failed"]
        problems = res["problems"]
    else:
        setups, attempted, failed, problems = [], 0, 0, []
        for _ in range(SETUP_SAMPLES - 1):
            ready, r = run_worker(base + ["--mode", "setup"], deadline)
            setups.append(ready)
            attempted += r["attempted"]
            failed += r["failed"]
            problems += r["problems"]
        ready, res = run_worker(base + ["--mode", "timed", "--seconds",
                                        str(seconds)], deadline)
        setups.append(ready)
        attempted += res["attempted"]
        failed += res["failed"]
        problems += res["problems"]
        metrics, notes = end_to_end(setups, res, attempted, failed)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    record = run_record(workload, seed, res)
    with open(out_dir / f"{stem}.json", "w") as fh:
        json.dump({"record": record, "result": result, "notes": notes,
                   "problems": problems,
                   "latencies": res.get("latencies")}, fh, indent=1)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{workload} {name} = {value:.6g} {unit}{note}")
    for p in problems:
        print(f"{workload} FAILED {p['op']}: {'; '.join(p['problems'])}")
    print(f"{workload} record {json.dumps(record, sort_keys=True)}")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, default=None,
                    help="one workload; omit to run every workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so run_worker kills its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "circsys" / "__init__.py").is_file():
        print(f"error: no circsys sources under {ROOT / 'src'}; run from a "
              f"source checkout", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    try:
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace))
                   for w in names]
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    correct = all(r["correct"] for r in results)
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({
            "correct": correct,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{w}.{k}": v for w, r in zip(names, results)
                        for k, v in r["metrics"].items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
