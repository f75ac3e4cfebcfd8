"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tr  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402


# ---------------------------------------------------------------------------
# a tampered output is a failed op

def _build_doc(seed):
    return json.dumps({"manifest": {"seed": seed}, "ok": True,
                       "sequence": {}}, indent=2) + "\n"


def test_tampered_cli_stdout_fails_its_pinned_digest():
    op = wl.cli_op(wl.SPEC_GATE_ARGV + ("--seed", "7"))
    good = _build_doc(7)
    pins = {"spec_gate": {op.key: wl.sha256(good.encode())}}

    def problems(stdout):
        outcome = {"rc": 0, "stdout": stdout}
        return wl.check("spec_gate", None, op, outcome, wl.digest(outcome),
                        pins)
    assert problems(good) == []
    assert problems(good.replace('"ok": true', '"ok": true '))


def test_wrong_exit_code_or_malformed_report_fails():
    op = wl.cli_op(wl.SPEC_GATE_ARGV + ("--seed", "7"))
    for rc, stdout in ((2, _build_doc(7)), (0, "{"), (0, "[]"),
                       (0, _build_doc(8))):
        assert wl.check("spec_gate", None, op, {"rc": rc, "stdout": stdout},
                        "", {})


def test_anchor_with_another_t4_fails():
    op = wl.cli_op(wl.ANCHOR_ARGV)

    def problems(t4):
        doc = {"gamma": [wl.ANCHOR_GAMMA_1],
               "report": [{"spec": "T4@1", "worst_deviation": t4}]}
        outcome = {"rc": 0, "stdout": json.dumps(doc)}
        return wl.check("spec_gate", None, op, outcome, "", {})
    assert problems(wl.ANCHOR_T4) == []
    assert problems("13/47")


@pytest.fixture(scope="module")
def session():
    return worker.Session("reduce_certify", wl.DEFAULT_SEED, rounds=2)


def test_tampered_api_result_counts_as_failed_op(session):
    op = session.warm
    assert op.key in session.pins["reduce_certify"]
    session.run(op)
    assert session.failed == 0
    execute = session.runner.execute

    def tampered(op_):
        out = execute(op_)
        out["cert"] = dataclasses.replace(out["cert"], base_hash="0" * 64,
                                          above_hash="0" * 64)
        return out
    session.runner.execute = tampered
    try:
        session.run(op)
    finally:
        session.runner.execute = execute
    assert session.failed == 1
    assert "pinned digest" in " ".join(session.problems[-1]["problems"])


def test_raising_op_counts_as_failed_op(session):
    before = session.failed
    session.run(wl.Op("certify broken", params=(((0,),), 1, 0)))
    assert session.failed == before + 1


# ---------------------------------------------------------------------------
# self time

def test_self_time_on_a_nested_span_tree():
    spans = [["a", 0.0, 10.0, -1, 0],
             ["b", 1.0, 4.0, 0, 0],
             ["c", 5.0, 9.0, 0, 0],
             ["d", 6.0, 7.0, 2, 0],
             ["b", 11.0, 12.5, -1, 1]]
    st = tr.self_times(spans)
    assert st == pytest.approx({"a": 3.0, "b": 4.5, "c": 3.0, "d": 1.0})


def test_tracer_records_parents_and_counts():
    ticks = iter(range(100))
    t = tr.Tracer(clock=lambda: float(next(ticks)))
    t.enabled = True
    t.span("outer", lambda: t.span("inner", lambda: None))
    assert [s[0] for s in t.spans] == ["outer", "inner"]
    assert t.spans[1][3] == 0
    assert t.counts["outer.calls"] == t.counts["inner.calls"] == 1
    # outer 0..3, inner 1..2
    assert t.self_times() == {"outer": 2.0, "inner": 1.0}
    t.enabled = False
    t.span("off", lambda: None)
    assert len(t.spans) == 2


def test_tracer_wraps_names_where_callers_resolve_them(session):
    pkg = session.pkg
    original = pkg.specbuild.build_words
    t = tr.Tracer()
    t.install(pkg)
    try:
        assert pkg.cli.build_words is pkg.specbuild.build_words
        assert pkg.trees.build_words is pkg.specbuild.build_words
        assert pkg.specbuild.build_words is not original
        assert pkg.rotation.D_n is pkg.locations.D_n
    finally:
        t.uninstall()
    assert pkg.specbuild.build_words is original
    assert pkg.cli.build_words is original


# ---------------------------------------------------------------------------
# op generation

@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_op_generation_depends_only_on_the_seed(workload):
    warm, rounds = wl.generate(workload, 5, 6)
    assert (warm, rounds) == wl.generate(workload, 5, 6)
    assert (warm, rounds) != wl.generate(workload, 6, 6)
    keys = [op.key for rnd in rounds for op in rnd]
    assert warm.key not in keys
    assert all(len(rnd) == len(wl.strata(workload)) for rnd in rounds)


def test_generated_inputs_are_pinned():
    pins = wl.load_json("pins.json")
    seeds = {"rotation_pointwise": 5, "spec_gate": wl.DEFAULT_SEED,
             "reduce_certify": wl.DEFAULT_SEED}
    for workload, seed in seeds.items():
        warm, rounds = wl.generate(workload, seed, 10)
        for op in [warm] + [op for rnd in rounds for op in rnd]:
            assert op.key in pins[workload]
    assert wl.cli_op(wl.ANCHOR_ARGV).key in pins["spec_gate"]


# ---------------------------------------------------------------------------
# metric names and the benchmark file agree

def test_metric_names_match_the_benchmark_file():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics, _ = run.end_to_end([1.0, 2.0, 3.0],
                                {"latencies": [0.5, 1.0], "rss_kb": 2048},
                                3, 0)
    assert {m["name"] for m in spec["end_to_end"]} == set(metrics)
    layer = worker.layer_metrics(tr.Tracer(), 1, 0, 0.0)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert {m["unit"] for m in spec["per_layer"]} >= {u for _, u in
                                                      layer.values()}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_tail_has_ten_ops_beyond_it():
    lat = [float(i) for i in range(200)]
    value, pct, beyond = run.tail(lat)
    assert (value, beyond) == (189.0, 10)
    assert pct == pytest.approx(95.0)
    # too few ops for a percentile at or above p80: the slowest op
    assert run.tail([float(i) for i in range(49)]) == (48.0, 100.0, 0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
