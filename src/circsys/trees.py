"""Finite tree prefixes and the reduction to construction sequences.

Trees are downward-closed sets of finite sequences of naturals.  The
canonical enumeration orders sequences by weight (length plus entry sum)
with lexicographic tie-break, so every prefix comes before its extensions;
a sequence's index is its entries written out in binary, at any weight.
A TreePrefix refuses, on construction, a node set that is not downward
closed, so a toggle that would orphan a node or add one without its
parent raises there.  The reduction builds a word family whose group
scaffold is read off the tree members in enumeration order, then lifts it
to the circular side; the last enumeration index it consults is an
explicit continuity bound.  The build sees the tree only through the
members it reads, so certify_continuity builds once per distinct reading;
it toggles only the prefix's own nodes and their children outside it, as
no other toggle leaves a tree.
"""

from __future__ import annotations

import heapq
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

from .coefficients import json_digest, plan_hash
from .specbuild import (BuiltSequence, build_words, groups_from_tree,
                        lift_build)


class TreeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# canonical enumeration: n >= 1 in binary is a 1, then the entries of
# sigma_n in unary (v ones each) joined by zeros.  Entry v spans v + 1 of
# the w = len + sum units, so the weight-w sequences are the compositions
# of w, as the w-digit numbers [2^(w-1), 2^w) are; within one weight,
# tuple order is numeric order.

def sigma_enumeration(n: int) -> tuple:
    if n < 0:
        raise TreeError("enumeration index must be non-negative")
    return tuple(map(len, bin(n)[3:].split("0"))) if n else ()


def sigma_index(sigma) -> int:
    sigma = tuple(sigma)
    if not all(isinstance(v, int) and v >= 0 for v in sigma):
        raise TreeError(f"{sigma} is not a sequence of natural numbers")
    return int("1" + "0".join("1" * v for v in sigma), 2) if sigma else 0


# ---------------------------------------------------------------------------
# tree prefixes

@dataclass(frozen=True)
class TreePrefix:
    """A finite, downward-closed set of nodes together with the stretch of
    the enumeration it describes (membership of sigma_n is known for all
    n < horizon).  A node set that is not downward closed raises, naming
    a missing initial segment."""

    nodes: frozenset
    horizon: int = 0

    def __post_init__(self):
        nodes = frozenset(tuple(x) for x in self.nodes)
        object.__setattr__(self, "nodes", nodes)
        missing = next((x[:cut] for x in sorted(nodes, key=len)
                        for cut in range(len(x)) if x[:cut] not in nodes),
                       None)
        if missing is not None:
            raise TreeError(f"not a tree: missing initial segment {missing}")
        h = self.horizon
        if nodes:
            h = max(h, max(sigma_index(x) for x in nodes) + 1)
        object.__setattr__(self, "horizon", max(h, 1))

    def __contains__(self, node) -> bool:
        return tuple(node) in self.nodes

    def members_in_order(self) -> tuple:
        return tuple(sorted(self.nodes, key=sigma_index))


def tree_from_json(text: str) -> TreePrefix:
    doc = json.loads(text)
    return TreePrefix(frozenset(map(tuple, doc["nodes"])),
                      int(doc.get("horizon", 0)))


# ---------------------------------------------------------------------------
# reduction

@dataclass(frozen=True)
class ReductionResult:
    built: BuiltSequence          # circular, lifted
    bound: int                    # last enumeration index consulted
    output_hash: str
    plan_hash: str
    seed: int
    depth: int
    exhausted: bool = False       # fewer members than stages requested


def _output_obj(built: BuiltSequence) -> dict:
    seq = built.seq
    return {
        "flavor": seq.flavor,
        "compositions": [list(map(list, st.compositions))
                         for st in seq.stages],
        "classes": [None if st.classes is None else list(st.classes)
                    for st in seq.stages],
        "actions": [None if a is None else
                    [[[list(k), list(v)] for k, v in g] for g in a.generators]
                    for a in built.actions],
    }


def _read_tree(tp: TreePrefix, n0: int, plan) -> tuple:
    """reduce's tree read: the first n0 + 1 members in enumeration order,
    the last index consulted to find them (every index up to it is), and
    whether the horizon came first."""
    if n0 < 1:
        raise TreeError("need at least one stage")
    if n0 > plan.depth - 1:
        raise TreeError(f"depth {n0} exceeds the plan's {plan.depth - 1} "
                        f"word stages")
    members = tp.members_in_order()[:n0 + 1]
    exhausted = len(members) < n0 + 1
    last = tp.horizon - 1 if exhausted else sigma_index(members[-1])
    return members, last, exhausted


def _build(members: tuple, n0: int, plan, seed: int) -> tuple:
    """reduce's build from the members read, lifted: (lift, hash)."""
    circ = lift_build(build_words(groups_from_tree(members), plan, seed=seed,
                                  level=n0, j_tolerance=Fraction(1)))
    return circ, json_digest(_output_obj(circ))


def reduce(tp: TreePrefix, n0: int, plan, seed: int) -> ReductionResult:
    """Build the first n0 stages of the construction sequence attached to
    a tree prefix (scaffold from _read_tree) and lift them circularly."""
    members, bound, exhausted = _read_tree(tp, n0, plan)
    circ, output_hash = _build(members, n0, plan, seed)
    return ReductionResult(built=circ, bound=bound, output_hash=output_hash,
                           plan_hash=plan_hash(plan), seed=seed, depth=n0,
                           exhausted=exhausted)


def mutate_tree(tp: TreePrefix, index: int) -> TreePrefix:
    """Toggle membership of sigma_index; the new prefix refuses a toggle
    that would break downward closure."""
    return TreePrefix(tp.nodes ^ {sigma_enumeration(index)},
                      max(tp.horizon, index + 1))


def _outside_children(tp: TreePrefix):
    """Indices of the nodes a toggle could add, in ascending order: the
    root of an empty prefix, or the children x + (v,) outside the prefix
    of its nodes x.  Such a child's index is x's written out, a zero (none
    at the root) and v ones, so each node's children ascend with v."""
    def children(x):
        return (sigma_index(x + (v,)) for v in itertools.count()
                if x + (v,) not in tp.nodes)
    return heapq.merge(*map(children, tp.nodes)) if tp.nodes else iter((0,))


def addable_index_above(tp: TreePrefix, bound: int) -> int:
    """Smallest enumeration index > bound whose node can be added while
    keeping the prefix a tree."""
    n = next((n for n in _outside_children(tp) if n > bound), None)
    if n is None:
        raise TreeError(f"no addable node above {bound}")
    return n


@dataclass(frozen=True)
class ContinuityCertificate:
    bound: int
    base_hash: str
    above_index: int
    above_hash: str
    unaffected: bool              # mutation above the bound: same output
    consumed_index: int | None
    consumed_hash: str | None
    affected: bool | None         # mutation at a consumed index: differs


def certify_continuity(tp: TreePrefix, n0: int, plan,
                       seed: int = 0) -> ContinuityCertificate:
    """Re-run the reduction against mutated trees: toggling membership
    strictly above the bound must not change the output hash; toggling a
    genuinely consumed index must.  The consumed indices tried, from the
    bound down, are those a toggle could accept: the prefix's own nodes
    and its outside children; any other names a node without its parent.
    Each mutated tree is read afresh; a reading seen before in this call
    reuses its build, exactly, as plan, seed and n0 are fixed and the
    build reads only the members."""
    builds = {}                   # members -> output hash, for this call
    def output_hash(tree):
        members, bound, exhausted = _read_tree(tree, n0, plan)
        if members not in builds:
            builds[members] = _build(members, n0, plan, seed)[1]
        return builds[members], bound, exhausted

    base_hash, M, exhausted = output_hash(tp)
    if exhausted:
        raise TreeError("prefix too thin to certify: the member hunt "
                        "reached the horizon, so no finite bound exists")
    above = addable_index_above(tp, M)
    above_hash = output_hash(mutate_tree(tp, above))[0]
    own = (n for n in map(sigma_index, tp.nodes) if n <= M)
    outside = itertools.takewhile(lambda n: n <= M, _outside_children(tp))
    cert_consumed = cert_hash = affected = None
    for idx in sorted(itertools.chain(own, outside), reverse=True):
        try:
            mutated_in = mutate_tree(tp, idx)
        except TreeError:
            continue
        inside = output_hash(mutated_in)[0]
        if cert_consumed is None or inside != base_hash:
            cert_consumed, cert_hash = idx, inside
            affected = inside != base_hash
        if affected:
            break
    return ContinuityCertificate(
        bound=M, base_hash=base_hash, above_index=above,
        above_hash=above_hash, unaffected=above_hash == base_hash,
        consumed_index=cert_consumed, consumed_hash=cert_hash,
        affected=affected)


# ---------------------------------------------------------------------------
# chains

CHAIN_DISCLAIMER = ("infinite-branch existence is not decidable from a "
                    "finite prefix; this report is diagnostic only")


@dataclass(frozen=True)
class ChainReport:
    longest: int
    chains: tuple                 # maximal-length chains, as node tuples
    branch_candidates: tuple      # deepest leaves
    note: str = CHAIN_DISCLAIMER


def chain_report(tp: TreePrefix) -> ChainReport:
    if not tp.nodes:
        return ChainReport(0, (), ())
    deepest = max(len(x) for x in tp.nodes)
    leaves = sorted(x for x in tp.nodes if len(x) == deepest)
    chains = tuple(tuple(x[:cut] for cut in range(len(x) + 1))
                   for x in leaves)
    return ChainReport(deepest + 1, chains, tuple(leaves))


# ---------------------------------------------------------------------------
# realization boundary

def realization_handoff(result: ReductionResult) -> dict:
    """Record the inputs a smooth realization would take over; the
    realization itself is out of scope."""
    seq = result.built.seq
    return {
        "status": "not-constructed: smooth realization out of scope",
        "plan_hash": result.plan_hash,
        "output_hash": result.output_hash,
        "stages": [{
            "n": n,
            "q": seq.word_length(n),
            "prewords": [list(t) for t in seq.stage(n).compositions],
        } for n in range(1, seq.depth + 1)],
    }
