"""Plans, group actions and tree files that only the tests build, and
report lookups that only the tests make."""

import json

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
