"""Batch front end: exit codes, manifests, deterministic artifacts."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

import circsys.cli
import circsys.specbuild
from circsys.cli import run
from circsys.coefficients import (desk_plan, extend_plan, grow_plan,
                                  plan_from_obj, plan_to_json)
from circsys.trees import TreePrefix, tree_to_json

DATA = Path(__file__).resolve().parent / "data"
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

    # None: one call per gated attempt, at least one
    @pytest.mark.parametrize("argv, count", [
        (["check-specs"], 1),
        (["check-timing"], 0),
        (["build", "--no-gate"], 1),
        (["build"], None),
        (["lift"], None),
    ], ids=["check-specs", "check-timing", "build-no-gate", "build", "lift"])
    def test_each_command_runs_the_battery_it_prints(
            self, capsys, monkeypatch, argv, count):
        calls = []
        original = circsys.specbuild.check_specs

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        monkeypatch.setattr(circsys.specbuild, "check_specs", counted)
        monkeypatch.setattr(circsys.cli, "check_specs", counted)
        assert invoke(capsys, *argv, *BUILD_ARGS)[0] == 0
        assert len(calls) == count if count is not None else calls

    def test_unsampleable_attempt_is_an_input_error(self, capsys):
        # k_1 = 3 copies cannot hold the two stage-1 words equally often
        for command in ("build", "lift", "check-specs", "check-timing"):
            assert run([command, "--kl", "2,2;3,2", "--level", "2"]) == 3
            assert capsys.readouterr().out == ""

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

    def test_reduce_cache(self, capsys, tree_file, tmp_path, monkeypatch):
        monkeypatch.setenv("CIRCSYS_CACHE", str(tmp_path / "cache"))
        args = ["reduce", "--tree", tree_file, "--depth", "1",
                "--kl", "4,2;2,2", "--seed", "7"]
        _, first = invoke(capsys, *args)
        cached = list((tmp_path / "cache").iterdir())
        assert len(cached) == 1
        _, second = invoke(capsys, *args)
        assert second == first

    def test_cache_is_keyed_by_depth(self, capsys, tmp_path, monkeypatch):
        # the manifest leaves out --depth, so its digest alone cannot key
        # the cache
        monkeypatch.setenv("CIRCSYS_CACHE", str(tmp_path / "cache"))
        args = ["reduce", "--tree", str(DATA / "tree.json"),
                "--kl", "4,2;2,2;2,2", "--seed", "7"]
        _, first = invoke_json(capsys, *args, "--depth", "1")
        _, second = invoke_json(capsys, *args, "--depth", "2")
        assert (first["depth"], second["depth"]) == (1, 2)
        assert second["manifest"] == first["manifest"]

    def test_truncated_cache_entry_is_recomputed(self, capsys, tree_file,
                                                 tmp_path, monkeypatch):
        args = ["reduce", "--tree", tree_file, "--depth", "1",
                "--kl", "4,2;2,2", "--seed", "7"]
        _, cold = invoke(capsys, *args)
        monkeypatch.setenv("CIRCSYS_CACHE", str(tmp_path / "cache"))
        invoke(capsys, *args)
        [entry] = (tmp_path / "cache").iterdir()
        entry.write_text(cold[:len(cold) // 2])
        code, out = invoke(capsys, *args)
        assert code == 0
        assert out == cold
        assert entry.read_text() == cold
        assert list((tmp_path / "cache").iterdir()) == [entry]

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
