"""src/ holds the system: every top-level function and class in
src/circsys/, and every method and property of its classes other than
dunders, is referenced by name in src/ (outside its own body), demos/ or
perfbench/, is a click command, or has a reason in KEEP, where a member
is keyed "Class.name".  A member counts as referenced only through an
attribute (x.name): a local variable of the same name does not reach it.  Oracles and helpers that only tests call live in
the tests.  Nothing in src/circsys/ reads the process environment, so no
setting acts unseen by the report.  Only plan_to_json, whose bytes define
the plan hash, renders JSON through json.dumps with an indent, which runs
the pure-Python encoder.  Downward closure of a tree is refused in one
place, TreePrefix's constructor, so the rule is not copied again.  The
group scaffold's rule, generator_count, is read in one place, the
builder's stage loop, which both build_attempt and build_words' gate run,
and a build does not carry its scaffold: the checks decide where they
apply from the build's own classes and actions.  SPECS alone names the
specs in specbuild.py: a check returns an unnamed verdict, and _run alone
makes a SpecEntry.  One function, systems.odometer_stage, composes an
odometer stage over the previous one, for odometer_sequence and the
builder's stage loop alike, so specbuild.py makes no Concat itself.
cli.py makes no json.dumps call: _render writes every report and its
output hash, so the CLI has one JSON writer."""

import ast
import re
from dataclasses import fields
from pathlib import Path

from circsys.specbuild import BuiltSequence

ROOT = Path(__file__).resolve().parent.parent

KEEP = {
    "locate": "acceptance criterion 5 reads it",
    "immature_fraction": "acceptance criterion 5 reads it",
    "location_tables": "acceptance criterion 5 reads it",
    "unique_readability": "acceptance criterion 2 reads it",
    "reversal_identity_applies": "acceptance criterion 3 reads it",
    "uniformity_report": "acceptance criterion 4 reads it",
    "functor_inverse": "acceptance criterion 4 reads it",
    "project_pi": "the spacer-factor projection the README lists",
    "sequence_to_json": "perfbench/tracer.py wraps it by its name string",
    "SubscaleDecomposition.near_boundary_count":
        "acceptance criterion 2 reads it",
    "PointWindow.window_text": "acceptance criterion 8 reads it",
    "Word.extract": "window access to a word too long to write out",
}

ENV_READS = {"environ", "environb", "getenv", "getenvb"}


def _modules(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text())


def _is_command(node):
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group")
               for d in node.decorator_list)


def _definitions(tree):
    """(key, node) of each top-level function and class of a module, and
    of each method and property of its classes but the dunders."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{m.name}", m) for m in node.body
                        if isinstance(m, ast.FunctionDef)
                        and not m.name.startswith("__"))


def test_every_definition_has_a_caller_or_a_reason():
    names, attrs = {}, {}
    for path, tree in _modules("src/circsys", "demos", "perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                attrs.setdefault(node.attr, []).append((path, node.lineno))
    unreached = []
    for path, tree in _modules("src/circsys"):
        for key, node in _definitions(tree):
            own = range(node.lineno, node.end_lineno + 1)
            refs = attrs.get(node.name, []) + \
                ([] if "." in key else names.get(node.name, []))
            if not (_is_command(node) or any(
                    p != path or line not in own for p, line in refs)):
                unreached.append(key)
    assert sorted(set(unreached) - set(KEEP)) == []
    # every KEEP entry is a definition that nothing in the system reaches
    assert sorted(unreached) == sorted(KEEP)


def test_nothing_reads_the_environment():
    reads = [f"{path.name}:{node.lineno}"
             for path, tree in _modules("src/circsys")
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ENV_READS
             or isinstance(node, ast.alias) and node.name in ENV_READS]
    assert reads == []


def test_only_the_plan_file_indents_through_json_dumps():
    calls = []
    for path, tree in _modules("src/circsys"):
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            calls += [f"{path.name}:{fn.name}" for node in ast.walk(fn)
                      if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "dumps"
                      and any(kw.arg == "indent" for kw in node.keywords)]
    assert calls == ["coefficients.py:plan_to_json"]


def _raise_sites(node, text, scope=()):
    """The enclosing def and class names of each raise whose expression
    holds a string constant containing ``text``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _raise_sites(child, text, scope + (child.name,))
        elif isinstance(child, ast.Raise) and any(
                isinstance(c, ast.Constant) and text in str(c.value)
                for c in ast.walk(child)):
            yield ".".join(scope)
        else:
            yield from _raise_sites(child, text, scope)


def test_one_place_refuses_a_non_tree():
    sites = [f"{path.name}:{site}" for path, tree in _modules("src/circsys")
             for site in _raise_sites(tree, "not a tree")]
    assert sites == ["trees.py:TreePrefix.__post_init__"]


def _call_sites(name):
    """The enclosing def of each call of a function named ``name``."""
    return [f"{path.name}:{fn.name}" for path, tree in _modules("src/circsys")
            for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn) if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None))
            == name]


def test_one_place_reads_the_scaffold_rule():
    assert _call_sites("generator_count") == ["specbuild.py:_attempt_stages"]
    assert "scaffold" not in {f.name for f in fields(BuiltSequence)}


def test_one_stage_loop_samples_every_build():
    # build_attempt and build_words' gate both run _attempt_stages
    assert _call_sites("_sample_stage") == ["specbuild.py:_attempt_stages"]
    assert sorted(_call_sites("_attempt_stages")) == [
        "specbuild.py:build_attempt", "specbuild.py:build_words"]


SPEC_ID = re.compile(r"E[1-3]|Q[4-6]|A[7-9]|J1[01](\.1)?|T[1-7]")


def test_only_SPECS_names_a_spec():
    assert sorted(set(_call_sites("SpecEntry"))) == ["specbuild.py:_run"]
    tree = ast.parse((ROOT / "src/circsys/specbuild.py").read_text())
    table = next(node for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["SPECS"])

    def ids(node):
        return [c.value for c in ast.walk(node) if isinstance(c, ast.Constant)
                and isinstance(c.value, str) and SPEC_ID.fullmatch(c.value)]
    assert len(ids(table)) == len(set(ids(table))) == 20
    assert len(ids(tree)) == len(ids(table))


def test_one_odometer_stage_constructor():
    assert sorted(_call_sites("odometer_stage")) == [
        "specbuild.py:_attempt_stages", "systems.py:odometer_sequence"]
    assert [s for s in _call_sites("Concat")
            if s.startswith("specbuild.py")] == []


def test_the_cli_has_one_json_writer():
    assert [s for s in _call_sites("dumps") if s.startswith("cli.py")] == []
