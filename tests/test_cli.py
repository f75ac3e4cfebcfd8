"""Batch front end: exit codes, manifests, deterministic artifacts."""

import json
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import circsys.cli
import circsys.specbuild
from circsys.cli import _render, run
from circsys.coefficients import (desk_plan, extend_plan, json_digest,
                                  plan_from_obj, plan_to_json)
from circsys.trees import TreePrefix
from fixtures import grow_plan, tree_to_json

BUILD_ARGS = ["--kl", "64,4;2,2", "--eps", "1/4", "--eps", "1/8",
              "--level", "1", "--seed", "3"]


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def invoke_json(capsys, *argv):
    code, out = invoke(capsys, *argv)
    return code, json.loads(out)


@pytest.fixture
def tree_file(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(tree_to_json(TreePrefix(frozenset({(), (0,), (0, 0)}))))
    return str(path)


class TestPlan:
    def test_desk_grown_with_audit(self, capsys):
        code, doc = invoke_json(capsys, "plan", "--desk", "--stages", "3")
        assert code == 0
        assert len(doc["plan"]["stages"]) == 3
        assert {"manifest", "audit", "audit_ok"} <= set(doc)
        assert doc["manifest"]["tool_version"]

    def test_plan_file_round_trip(self, capsys, tmp_path):
        code, doc = invoke_json(capsys, "plan", "--kl", "2,2;2,2")
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc["plan"]))
        code2, doc2 = invoke_json(capsys, "plan", "--plan", str(path))
        assert code2 == 0
        assert doc2["plan"] == doc["plan"]

    def test_floor_plan_file_grows_by_the_floor_policy(self, capsys,
                                                        tmp_path):
        _, doc = invoke_json(capsys, "plan", "--floor")
        assert plan_from_obj(doc["plan"]) == \
            replace(desk_plan(), desk_mode=False)
        _, doc = invoke_json(capsys, "plan", "--floor", "--stages", "3")
        assert plan_from_obj(doc["plan"]) == \
            extend_plan(replace(desk_plan(), desk_mode=False))
        path = tmp_path / "floor.json"
        path.write_text(plan_to_json(grow_plan(2, desk=False)))
        # --stages N grows a loaded plan to depth N
        code, doc = invoke_json(capsys, "plan", "--plan", str(path),
                                "--stages", "3")
        assert code == 0
        assert plan_from_obj(doc["plan"]) == grow_plan(3, desk=False)
        assert not any(e["desk_waived"] for e in doc["audit"])

    def test_stages_gives_depth_n_in_every_command(self, capsys, tmp_path):
        path = tmp_path / "desk.json"
        path.write_text(plan_to_json(desk_plan()))
        for argv in (["--stages", "3"], ["--plan", str(path), "--stages", "3"],
                     ["--kl", "2,2;2,2", "--stages", "3"]):
            _, doc = invoke_json(capsys, "plan", *argv)
            assert len(doc["plan"]["stages"]) == 3
        # natural-map's --n ranges over [0, depth - 1]
        assert run(["natural-map", "--stages", "3", "--n", "2"]) == 0
        assert run(["natural-map", "--stages", "3", "--n", "3"]) == 3

    def test_explicit_kl_and_eps_are_kept(self, capsys):
        _, doc = invoke_json(capsys, "plan", "--kl", "4,2;3,2",
                             "--stages", "2")
        assert [int(st["k"]) for st in doc["plan"]["stages"]] == [4, 3]
        _, doc = invoke_json(capsys, "plan", "--kl", "2,2;2,2", "--eps",
                             "1/4", "--eps", "1/8", "--stages", "3")
        assert [st["eps_lunate"] for st in doc["plan"]["stages"][:2]] == \
            ["1/4", "1/8"]

    @pytest.mark.parametrize("argv", [
        ["--floor", "--plan", "PLAN"],
        ["--plan", "PLAN", "--kl", "2,2;2,2"],
        ["--plan", "PLAN", "--eps", "1/4"],
        ["--kl", "2,2;2,2", "--eps", "1/4"],
        ["--kl", "2,2;2,2", "--eps", "1/4", "--eps", "1/8", "--eps", "1/16"],
        ["--kl", "2,2;2,2", "--stages", "1"],
    ], ids=["floor-with-plan", "kl-with-plan", "eps-with-plan", "too-few-eps",
            "too-many-eps", "stages-below-depth"])
    def test_flags_the_loader_cannot_honour_are_input_errors(
            self, capsys, tmp_path, argv):
        path = tmp_path / "p.json"
        path.write_text(plan_to_json(desk_plan()))
        argv = [str(path) if a == "PLAN" else a for a in argv]
        assert run(["plan", *argv]) == 3
        assert capsys.readouterr().out == ""


class TestBuild:
    def test_build_and_gate(self, capsys):
        code, doc = invoke_json(capsys, "build", *BUILD_ARGS)
        assert code == 0
        assert doc["ok"]
        assert doc["output_hash"]
        assert doc["manifest"]["seed"] == 3

    def test_same_out_is_byte_identical(self, tmp_path, capsys):
        out = str(tmp_path / "b.json")
        assert run(["--out", out, "build", *BUILD_ARGS]) == 0
        first = open(out, "rb").read()
        assert run(["--out", out, "build", *BUILD_ARGS]) == 0
        assert open(out, "rb").read() == first

    def test_failed_gate_exits_2_with_report(self, capsys):
        # k=4 is below what the counting tolerances admit
        code, doc = invoke_json(capsys, "build", "--kl", "4,2;2,2",
                                "--level", "1")
        assert code == 2
        assert not doc["ok"]
        assert doc["report"]

    def test_check_commands(self, capsys):
        assert invoke(capsys, "check-specs", *BUILD_ARGS)[0] == 0
        assert invoke(capsys, "check-timing", *BUILD_ARGS)[0] == 0

    # (check_specs batteries, check_timing batteries) each command runs;
    # None: one per stage the gate checks, at least one
    @pytest.mark.parametrize("argv, counts", [
        (["check-specs"], (1, 0)),
        (["check-timing"], (0, 1)),
        (["build", "--no-gate"], (1, 0)),
        (["build"], (None, 0)),
        (["lift"], (None, 0)),
    ], ids=["check-specs", "check-timing", "build-no-gate", "build", "lift"])
    def test_each_command_runs_the_battery_it_prints(
            self, capsys, monkeypatch, argv, counts):
        batteries = []
        original = circsys.specbuild._run

        def counted(built, battery, *args):
            batteries.append(battery)
            return original(built, battery, *args)
        monkeypatch.setattr(circsys.specbuild, "_run", counted)
        assert invoke(capsys, *argv, *BUILD_ARGS)[0] == 0
        specs, timing = batteries.count(0), batteries.count(1)
        assert timing == counts[1]
        assert specs == counts[0] if counts[0] is not None else specs

    @pytest.mark.parametrize("kl, eps", [("4,2;2,2", "3/2"),
                                         ("64,4;2,2", "5/4")])
    def test_eps_above_one_checks_an_empty_window(self, capsys, kl, eps):
        # J11.1's window starts at ceil(eps k) > k: it examines nothing and
        # reports 0 with an empty witness, as J10 does for no rows
        code = run(["check-specs", "--kl", kl, "--eps", eps, "--eps", "1/8",
                    "--level", "1"])
        out, err = capsys.readouterr()
        assert code in (0, 2)
        assert "Traceback" not in err
        j11_1 = next(e for e in json.loads(out)["report"]
                     if e["spec"] == "J11.1@0")
        assert (j11_1["worst_deviation"], j11_1["witness"]) == ("0/1", {})

    def test_unsampleable_attempt_is_an_input_error(self, capsys):
        # k_1 = 3 copies cannot hold the two stage-1 words equally often
        for command in ("build", "lift", "check-specs", "check-timing"):
            assert run([command, "--kl", "2,2;3,2", "--level", "2"]) == 3
            assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("level", ["0", "-1"])
    def test_fewer_than_two_stages_is_an_input_error(self, capsys, level):
        # check-timing printed "ok": true with an empty report and exited 0
        for command in ("build", "lift", "check-specs", "check-timing"):
            assert run([command, *BUILD_ARGS[:-4], "--level", level]) == 3
            out, err = capsys.readouterr()
            assert out == "" and "need at least two stages" in err

    def test_lift_emits_circular(self, capsys):
        code, doc = invoke_json(capsys, "lift", *BUILD_ARGS)
        assert code == 0
        assert doc["sequence"]["flavor"] == "circular"


class TestSmallCommands:
    def test_dbar(self, capsys):
        code, doc = invoke_json(capsys, "dbar", "--u", "10011",
                                "--v", "10101")
        assert code == 0
        assert doc["value"] == "2/5"

    def test_parse_round_trip(self, capsys):
        from circsys.circular import apply_C
        text = apply_C(("10", "01"), (2, 2, 1, 2)).materialize()
        code, doc = invoke_json(capsys, "parse", "--text", text,
                                "--k", "2", "--l", "2", "--p", "1",
                                "--q", "2")
        assert code == 0
        assert doc["preword"] == ["10", "01"]

    def test_parse_divergence_exits_2(self, capsys):
        code, doc = invoke_json(capsys, "parse", "--text", "b10e",
                                "--k", "2", "--l", "2", "--p", "0",
                                "--q", "1")
        assert code == 2
        assert doc["ok"] is False

    def test_rotation_zero_beta(self, capsys):
        code, doc = invoke_json(capsys, "rotation", "--beta", "0",
                                "--n", "1", "--m", "3",
                                "--kl", "2,2;2,2;2,2")
        assert code == 0
        assert doc["delta"] == ["0/1"]

    def test_rotation_csv(self, capsys):
        code, out = invoke(capsys, "rotation", "--beta", "1/3",
                           "--n", "1", "--m", "3",
                           "--kl", "2,2;2,2;2,2", "--csv")
        assert code == 0
        assert out.splitlines()[0] == "n,delta_n,numerator,denominator"

    def test_rotation_infeasible_anchor_refused(self, capsys):
        code = run(["rotation", "--beta", "0", "--n", "2", "--m", "4",
                    "--kl", "2,2;2,2;2,2;2,2"])
        assert code == 3

    def test_natural_map(self, capsys):
        code, doc = invoke_json(capsys, "natural-map", "--kl", "2,2;2,2",
                                "--n", "1")
        assert code == 0
        assert doc["name"] == "natural:1"
        assert doc["radius"] == 8


class TestTreesCommands:
    def test_reduce_deterministic(self, capsys, tree_file):
        args = ["reduce", "--tree", tree_file, "--depth", "1",
                "--kl", "4,2;2,2", "--seed", "7"]
        code, doc = invoke_json(capsys, *args)
        code2, doc2 = invoke_json(capsys, *args)
        assert code == code2 == 0
        assert doc["output_hash"] == doc2["output_hash"]
        assert doc["handoff"]["status"].startswith("not-constructed")

    def test_reduce_prints_one_plan_hash(self, capsys, tree_file):
        _, doc = invoke_json(capsys, "reduce", "--tree", tree_file,
                             "--depth", "1", "--kl", "4,2;2,2", "--seed", "7")
        assert doc["plan_hash"] == doc["handoff"]["plan_hash"] == \
            doc["manifest"]["plan_hash"]

    def test_continuity_certificate(self, capsys, tree_file):
        code, doc = invoke_json(capsys, "continuity", "--tree", tree_file,
                                "--depth", "1", "--kl", "4,2;2,2",
                                "--seed", "7")
        assert code == 0
        assert doc["ok"]
        assert doc["unaffected_above"]


class TestErrors:
    def test_missing_file(self, tree_file):
        assert run(["reduce", "--tree", "no-such.json",
                    "--depth", "1"]) == 3

    def test_malformed_tree(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["reduce", "--tree", str(bad), "--depth", "1"]) == 3

    @pytest.mark.parametrize("node", ["[-1]", "[0.5]", "[0, -3]"])
    def test_tree_entry_not_a_natural_number(self, capsys, tmp_path, node):
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"nodes": [[], [0], {node}]}}')
        assert run(["reduce", "--tree", str(bad), "--depth", "1"]) == 3
        assert "not a sequence of natural numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["reduce", "continuity"])
    def test_tree_missing_an_initial_segment(self, capsys, tmp_path, cmd):
        bad = tmp_path / "bad.json"
        bad.write_text('{"nodes": [[], [0, 0]]}')
        assert run([cmd, "--tree", str(bad), "--depth", "1"]) == 3
        assert "not a tree: missing initial segment (0,)" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("kind,text", [
        ("plan", "[]"), ("plan", '{"stages": 5}'),
        ("tree", "[]"), ("tree", '{"horizon": 0}')])
    def test_json_file_of_the_wrong_shape(self, capsys, tmp_path, kind,
                                          text):
        path = tmp_path / "f.json"
        path.write_text(text)
        assert run(["build", f"--{kind}", str(path)]) == 3
        assert f"Error: bad {kind} file {path}: " in capsys.readouterr().err

    def test_unknown_command(self):
        assert run(["bogus"]) == 3

    def test_bad_fraction(self):
        assert run(["dbar", "--u", "01", "--v", "01", "--a", "1",
                    "--b", "1"]) == 3


# json.dumps(sort_keys=True), with indent=2 or compact, is the oracle for
# _render's bytes
STRINGS = st.text() | st.sampled_from(
    ["", '"', "\\", "/", "\n\t\r\b\f", "\x00\x1f\x7f", "\u2028",
     "é", "\U0001f600", "\ud800"])
SCALARS = st.one_of(
    st.none(), st.booleans(), STRINGS,
    st.integers() | st.sampled_from([2 ** 63, -2 ** 64, 10 ** 40]),
    st.floats() | st.sampled_from([-0.0, 1e16, 1e-7, 5e-324,
                                   float("nan"), float("inf"),
                                   float("-inf")]))
# keys of one type per dict, each coerced to a string as json coerces it
KEYS = st.sampled_from([STRINGS, st.integers(), st.floats(), st.booleans(),
                        st.none()])
TREES = st.recursive(SCALARS, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
    KEYS.flatmap(lambda keys: st.dictionaries(keys, kids, max_size=4))),
    max_leaves=40)


class TestRender:
    @given(TREES)
    @example([True, False, 1, "s", {"k": [None, 0.5, ()]}, []])
    @settings(max_examples=300, deadline=None)
    def test_bytes_match_json(self, tree):
        assert _render(tree) == json.dumps(tree, indent=2, sort_keys=True)
        assert _render(tree, None) == json.dumps(tree, sort_keys=True)

    @given(st.one_of(
        st.lists(TREES, min_size=1, max_size=4),
        KEYS.flatmap(lambda keys: st.dictionaries(keys, TREES, min_size=1,
                                                  max_size=4))), TREES)
    @example({"k": [{"n": 1}]}, 0)
    @settings(max_examples=200, deadline=None)
    def test_shared_object_at_two_depths(self, shared, other):
        # one object twice at depth 1 and again at depth 3: the memo key
        # must carry the indent
        doc = [shared, other, shared, {"deeper": [shared]}]
        assert _render(doc) == json.dumps(doc, indent=2, sort_keys=True)
        assert _render(doc, None) == json.dumps(doc, sort_keys=True)

    @pytest.mark.parametrize("bad", [
        Fraction(1, 2), {(1, 2): 0}, {"a": 0, 1: 0}, [b"x"], {None: 0, 0: 1}])
    def test_what_json_rejects_raises(self, bad):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            _render(bad)
        with pytest.raises(TypeError):
            json.dumps(bad, sort_keys=True)
        with pytest.raises(TypeError):
            _render(bad, None)

    @pytest.mark.parametrize("argv", [
        ["build", "--kl", "1024,4;2,2", "--eps", "1/4", "--eps", "1/8",
         "--level", "1"],
        ["lift"] + BUILD_ARGS])
    def test_output_hash_is_the_C_encoders_digest(self, capsys, argv):
        # json_digest runs CPython's C encoder: the oracle for the hash
        # that _render's compact mode writes
        code, doc = invoke_json(capsys, *argv)
        assert code == 0
        assert doc["output_hash"] == json_digest(doc["sequence"])
