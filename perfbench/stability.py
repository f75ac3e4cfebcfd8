"""Repeat benchmark runs over seeds and summarize their spread.

    python3 perfbench/stability.py --seeds 1-10 --out perfbench/baseline/untraced.json
    python3 perfbench/stability.py --seeds 1-10 --against perfbench/baseline/untraced.json
    python3 perfbench/stability.py --seeds 0 --trace --out perfbench/baseline/traced.json

For each workload and end-to-end metric it reports the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (q3 - q1) / median, next to the metric's bound from
BENCHMARK.json.  With ``--against`` it also reports how far each median
moved from an earlier summary, in the metric's worse direction.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with "
                         f"{proc.returncode}:\n{proc.stdout[-2000:]}"
                         f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def worse_by(metric: dict, old: float, new: float) -> float:
    if old == 0:
        return 0.0
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workloads", default=None,
                    help="comma-separated; default every workload")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", default=None)
    ap.add_argument("--against", default=None)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    earlier = json.loads(Path(args.against).read_text()) \
        if args.against else None
    seeds = parse_seeds(args.seeds)
    summary = {"seeds": seeds, "run_seconds": spec["run_seconds"],
               "trace": args.trace, "workloads": {}}
    ok = True
    for w in names:
        runs = [run_once(w, s, spec["run_seconds"], args.trace)
                for s in seeds]
        entry = {"wall_s": [r["wall_s"] for r in runs],
                 "correct": all(r["correct"] for r in runs),
                 "attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs], "metrics": {}}
        ok &= entry["correct"]
        print(f"{w}: wall per run {statistics.median(entry['wall_s']):.1f} s"
              f" (max {max(entry['wall_s']):.1f}), correct "
              f"{entry['correct']}")
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            if len(vals) < 2:
                entry["metrics"][m["name"]] = {"values": vals}
                continue
            st = summarize(vals)
            entry["metrics"][m["name"]] = st
            line = (f"  {m['name']:<16} median {st['median']:.6g} "
                    f"q1 {st['q1']:.6g} q3 {st['q3']:.6g} "
                    f"spread {st['spread']:.3f}")
            if "bound" in m:
                line += f" bound {m['bound']}"
                if st["spread"] > m["bound"]:
                    line += "  SPREAD OVER BOUND"
                    ok = False
            if earlier and "bound" in m:
                old = earlier["workloads"][w]["metrics"][m["name"]]["median"]
                drift = worse_by(m, old, st["median"])
                st["worse_by"] = drift
                line += f" worse-by {drift:+.3f}"
                if drift > m["bound"]:
                    line += "  MEDIAN WORSE THAN BOUND"
                    ok = False
            print(line)
        summary["workloads"][w] = entry
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
