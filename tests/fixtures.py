"""Plans, group actions and tree files that only the tests build, report
lookups that only the tests make, and the clearing of the builder's memos."""

import json

from circsys import specbuild, systems
from circsys.coefficients import CoefficientPlan, extend_plan
from circsys.systems import FWD, REV, GroupActionTable
from circsys.trees import TreePrefix


def grow_plan(stages: int, desk: bool = True) -> CoefficientPlan:
    """A plan of ``stages`` stages grown by the desk or the floor policy."""
    plan = CoefficientPlan(stages=(), desk_mode=desk)
    for _ in range(stages):
        plan = extend_plan(plan)
    return plan


def identity_action(num_classes: int) -> GroupActionTable:
    return GroupActionTable(num_classes, ())


def swap_side_action(num_classes: int, pattern=None) -> GroupActionTable:
    """One involutive generator: flip the side and XOR the class id with a
    per-class pattern (defaults to identity on class ids)."""
    g = {}
    for c in range(num_classes):
        target = c if pattern is None else pattern[c]
        g[(c, FWD)] = (target, REV)
        g[(target, REV)] = (c, FWD)
    return GroupActionTable(num_classes, (g,))


def unchecked_action(num_classes: int, gens) -> GroupActionTable:
    """A table of the generators ``gens``, dicts, stored as the constructor
    stores them but never checked: the constructor refuses one that keeps
    a side, so only such a table reaches A8's fail path."""
    act = object.__new__(GroupActionTable)
    object.__setattr__(act, "num_classes", num_classes)
    object.__setattr__(act, "generators", tuple(
        tuple(sorted(g.items())) for g in gens))
    return act


def clear_builder_memos():
    """Empty every process-long memo whose hit skips work a test may count
    or patch: the stage table, the stage-n family table and the
    skew-diagonal extensions."""
    specbuild._stage_table.cache_clear()
    specbuild._family_table.cache_clear()
    systems.skew_diagonal_extend.cache_clear()


def entry(report, spec_id: str):
    """The entry of a SpecReport or an AuditReport with id ``spec_id``."""
    for e in report.entries:
        if spec_id == getattr(e, "spec_id", getattr(e, "req_id", None)):
            return e
    raise KeyError(spec_id)


def tree_to_json(tp: TreePrefix) -> str:
    """A tree file, as the CLI's --tree reads it."""
    return json.dumps({"nodes": sorted(map(list, tp.nodes)),
                       "horizon": tp.horizon})
