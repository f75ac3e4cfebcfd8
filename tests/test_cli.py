"""Batch front end: exit codes, manifests, deterministic artifacts."""

import hashlib
import json

import pytest

from circsys.cli import run
from circsys.coefficients import grow_plan, plan_from_obj
from circsys.trees import TreePrefix, tree_to_json

BUILD_ARGS = ["--kl", "64,4;2,2", "--eps", "1/4", "--eps", "1/8",
              "--level", "1", "--seed", "3"]
# T5@1, T6@1 and T7@1 of check-timing and level-1 J11 of check-specs fail
# with witnesses on this build
WITNESS_ARGS = ["--kl", "4,2;2,2;2,2;2,2", "--level", "3", "--seed", "3"]


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
        _, doc = invoke_json(capsys, "plan", "--floor", "--stages", "2")
        assert doc["plan"]["desk_mode"] is False
        path = tmp_path / "floor.json"
        path.write_text(json.dumps(doc["plan"]))
        # a loaded plan grows until its depth - 1 reaches --stages
        code, doc = invoke_json(capsys, "plan", "--plan", str(path),
                                "--stages", "2")
        assert code == 0
        assert plan_from_obj(doc["plan"]) == grow_plan(3, desk=False)
        assert not any(e["desk_waived"] for e in doc["audit"])


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

    @pytest.mark.parametrize("command, digest", [
        ("check-timing",
         "7515da47aa720983cb28d8aa6279749989e27a6499b5923d11787ef6c8baab94"),
        ("check-specs",
         "51abc6c8d31ddc8f236a8a23c57705c4b55e33f64f71a22697ed718080728d72"),
    ])
    def test_check_witness_bytes(self, capsys, command, digest):
        code, out = invoke(capsys, command, *WITNESS_ARGS)
        assert code == 2
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_frozen_anchor_bytes(self, capsys):
        # the separated-pair search and T4 behind gamma_1 = 2583/10240 and
        # T4@1 = 12/47
        code, out = invoke(capsys, "check-timing", "--kl", "64,4;2,2",
                           "--eps", "2/5", "--eps", "1/5", "--level", "2",
                           "--style", "separated", "--seed", "11")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "4c44affe1ca98044eae540ab6da89d0fea985d95f5ca41e0a8526c1d25e56e18"

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

    def test_unknown_command(self):
        assert run(["bogus"]) == 3

    def test_bad_fraction(self):
        assert run(["dbar", "--u", "01", "--v", "01", "--a", "1",
                    "--b", "1"]) == 3
