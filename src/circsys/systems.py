"""Construction sequences and the symbolic machinery layered on them.

A sequence is held as staged word families.  Each stage-n word records how
it factors over stage n-1 (a k-tuple for odometer sequences, a preword for
circular ones), so occurrence counts, equivalence propagation and group
actions all work on indices instead of materialized text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from .coefficients import CoefficientPlan
from .words import Concat, word, word_to_obj, word_from_obj
from .circular import apply_C, parse_circular

ODOMETER = "odometer"
CIRCULAR = "circular"

GROUP_CLOSURE_CAP = 4096


class SequenceError(ValueError):
    pass


@dataclass(frozen=True)
class StageFamily:
    """Stage-n word family.  compositions[i] gives word i of this stage as
    a tuple of indices into the previous stage (empty at stage 0)."""

    words: tuple
    compositions: tuple = ()
    classes: tuple | None = None      # class id per word, None = discrete

    def __post_init__(self):
        if self.compositions and len(self.compositions) != len(self.words):
            raise SequenceError("one composition per word required")
        if self.classes is not None and len(self.classes) != len(self.words):
            raise SequenceError("one class id per word required")

    @property
    def size(self) -> int:
        return len(self.words)

    def num_classes(self) -> int:
        return self.size if self.classes is None else len(set(self.classes))


@dataclass(frozen=True)
class ConstructionSequence:
    flavor: str
    plan: CoefficientPlan
    stages: tuple

    def __post_init__(self):
        if self.flavor not in (ODOMETER, CIRCULAR):
            raise SequenceError(f"unknown flavor {self.flavor!r}")

    @property
    def depth(self) -> int:
        return len(self.stages) - 1

    def stage(self, n: int) -> StageFamily:
        return self.stages[n]

    def word_length(self, n: int) -> int:
        if self.flavor == ODOMETER:
            out = 1
            for m in range(n):
                out *= self.plan.stage(m).k
            return out
        return self.plan.q(n)


def base_stage(symbols) -> StageFamily:
    return StageFamily(words=tuple(word(s) for s in symbols))


def _check_indices(tup, n: int, k: int, size: int, what: str) -> None:
    """One stage-(n + 1) composition or preword: k_n indices, each naming
    one of the size words of stage n."""
    if len(tup) != k:
        raise SequenceError(f"stage {n + 1} {what} arity "
                            f"{len(tup)} != k_{n} = {k}")
    if not all(0 <= i < size for i in tup):
        raise SequenceError(f"stage {n + 1} {what} {tuple(tup)} has an "
                            f"index outside [0, {size})")


def odometer_sequence(plan, symbols, compositions_by_stage) -> ConstructionSequence:
    """Build an odometer-flavor sequence from base symbols and, per stage,
    a list of k_n-tuples of previous-stage word indices."""
    stages = [base_stage(symbols)]
    for n, comps in enumerate(compositions_by_stage):
        prev = stages[-1]
        k = plan.stage(n).k
        words = []
        for tup in comps:
            _check_indices(tup, n, k, prev.size, "composition")
            words.append(Concat(tuple(prev.words[i] for i in tup)))
        stages.append(StageFamily(tuple(words), tuple(map(tuple, comps))))
    return ConstructionSequence(ODOMETER, plan, tuple(stages))


def circular_sequence(plan, symbols, prewords_by_stage) -> ConstructionSequence:
    stages = [base_stage(symbols)]
    for n, prewords in enumerate(prewords_by_stage):
        prev = stages[-1]
        st = plan.stage(n)
        grid = (st.k, st.l, plan.p(n), plan.q(n))
        words = []
        for tup in prewords:
            _check_indices(tup, n, st.k, prev.size, "preword")
            words.append(apply_C([prev.words[i] for i in tup], grid))
        stages.append(StageFamily(tuple(words), tuple(map(tuple, prewords))))
    return ConstructionSequence(CIRCULAR, plan, tuple(stages))


# ---------------------------------------------------------------------------
# the functor and its inverse

def functor_F(odo: ConstructionSequence) -> ConstructionSequence:
    """Rebuild an odometer sequence circularly: the same composition data
    fed through the interleaving operator stage by stage."""
    if odo.flavor != ODOMETER:
        raise SequenceError("functor_F expects an odometer sequence")
    comps = [tuple(st.compositions) for st in odo.stages[1:]]
    out = circular_sequence(odo.plan,
                            [w.materialize() for w in odo.stage(0).words],
                            comps)
    out = replace(out, stages=tuple(
        replace(cs, classes=os.classes)
        for cs, os in zip(out.stages, odo.stages)))
    return out


def functor_inverse(circ: ConstructionSequence) -> ConstructionSequence:
    if circ.flavor != CIRCULAR:
        raise SequenceError("functor_inverse expects a circular sequence")
    plan = circ.plan
    comps = []
    for n in range(1, circ.depth + 1):
        fam = circ.stage(n)
        if fam.compositions:
            comps.append(tuple(fam.compositions))
            continue
        # recover prewords by parsing, then match children upward
        prev = circ.stage(n - 1)
        st = plan.stage(n - 1)
        grid = (st.k, st.l, plan.p(n - 1), plan.q(n - 1))
        stage_comps = []
        for w in fam.words:
            preword = parse_circular(w, grid).preword
            try:
                stage_comps.append(tuple(prev.words.index(child)
                                         for child in preword))
            except ValueError:
                raise SequenceError("circular child not in the previous "
                                    "stage family") from None
        comps.append(tuple(stage_comps))
    out = odometer_sequence(plan,
                            [w.materialize() for w in circ.stage(0).words],
                            comps)
    out = replace(out, stages=tuple(
        replace(os, classes=cs.classes)
        for os, cs in zip(out.stages, circ.stages)))
    return out


# ---------------------------------------------------------------------------
# uniformity

@dataclass(frozen=True)
class UniformityReport:
    kind: str                     # strongly-uniform | uniform | neither
    stage: int | None = None      # first stage pair that decided the call
    densities: tuple = ()         # d_n(w) for the uniform case
    epsilon: Fraction | None = None
    counterexample: tuple | None = None   # (n, w index, w' indices, counts)


def _grid_occurrences(seq, n: int) -> list[list[int]]:
    """f(w, w') for stage-n words w in stage-(n+1) words w', counted on
    the aligned subword grid."""
    fam = seq.stage(n + 1)
    prev_size = seq.stage(n).size
    st = seq.plan.stage(n)
    if seq.flavor == ODOMETER:
        weight = 1
    else:
        # each preword slot is copied (l-1) times in each of q 2-subsections
        weight = (st.l - 1) * seq.plan.q(n)
    table = []
    for tup in fam.compositions:
        row = [0] * prev_size
        for i in tup:
            row[i] += weight
        table.append(row)
    return table


def uniformity_report(seq: ConstructionSequence) -> UniformityReport:
    if seq.depth < 1:
        raise SequenceError("need at least two stages")
    worst = None
    for n in range(seq.depth):
        table = _grid_occurrences(seq, n)
        prev_size = seq.stage(n).size
        if all(len({row[w] for row in table}) == 1 for w in range(prev_size)):
            continue
        # not strongly uniform at this stage; try the density bound
        ratio = Fraction(seq.word_length(n + 1), seq.word_length(n))
        eps = Fraction(seq.plan.stage(min(n + 1, seq.plan.depth - 1)).eps_lunate)
        bound = eps / seq.word_length(n)
        dens = []
        witness = None
        for w in range(prev_size):
            counts = [row[w] for row in table]
            d = Fraction(sum(counts), len(counts)) / ratio
            dens.append(d)
            if witness is None and any(
                    abs(Fraction(c) / ratio - d) >= bound for c in counts):
                bad = max(range(len(counts)),
                          key=lambda i: abs(Fraction(counts[i]) / ratio - d))
                witness = (n, w, bad, tuple(counts))
        if witness is not None:
            return UniformityReport("neither", n, counterexample=witness)
        if worst is None:
            worst = UniformityReport("uniform", n, tuple(dens), bound)
    return worst or UniformityReport("strongly-uniform")


# ---------------------------------------------------------------------------
# equivalence propagation

def propagate_equivalence(classes: tuple, prewords) -> tuple:
    """Class ids for the next stage: words are equivalent exactly when
    their prewords are classwise equivalent."""
    seen: dict[tuple, int] = {}
    out = []
    for tup in prewords:
        key = tuple(classes[i] for i in tup)
        out.append(seen.setdefault(key, len(seen)))
    return tuple(out)


# ---------------------------------------------------------------------------
# group actions

FWD, REV = 0, 1


@dataclass(frozen=True)
class GroupActionTable:
    """Action of a finite group on the signed classes of one stage.
    A signed class is (class id, side); side REV marks reversed words.
    Generators must swap sides."""

    num_classes: int
    generators: tuple             # each: dict (c, side) -> (c, side)

    def __post_init__(self):
        for g in self.generators:
            if len(g) != 2 * self.num_classes:
                raise SequenceError("generator must act on every signed class")
            if sorted(g.values()) != sorted(g.keys()):
                raise SequenceError("generator is not a bijection")
            if any(side == nside for (_, side), (_, nside) in g.items()):
                raise SequenceError("generator must swap forward and "
                                    "reversed classes")

    @cached_property
    def elements(self) -> tuple:
        """Closure of the generators under composition (capped), computed
        once per table."""
        ident = {(c, s): (c, s) for c in range(self.num_classes)
                 for s in (FWD, REV)}
        frontier = [ident]
        seen = {_perm_key(ident): ident}
        while frontier:
            cur = frontier.pop()
            for g in self.generators:
                nxt = {x: g[cur[x]] for x in cur}
                key = _perm_key(nxt)
                if key not in seen:
                    if len(seen) >= GROUP_CLOSURE_CAP:
                        raise SequenceError("group closure exceeds cap")
                    seen[key] = nxt
                    frontier.append(nxt)
        return tuple(seen.values())

    def is_free(self) -> bool:
        """Free: no element other than the identity fixes any signed
        class."""
        for el in self.elements:
            fixed = sum(el[x] == x for x in el)
            if 0 < fixed < 2 * self.num_classes:
                return False
        return True


def _perm_key(perm: dict) -> tuple:
    return tuple(sorted(perm.items()))


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


def skew_diagonal_extend(action: GroupActionTable, prewords,
                         classes: tuple) -> GroupActionTable:
    """Extend a free stage-n action to stage n+1: a generator sends the
    interleaving of a preword to the mirrored interleaving of the moved
    preword, so on class keys it acts slotwise and flips the side."""
    if not action.is_free():
        raise SequenceError("input action is not free")
    next_classes = propagate_equivalence(classes, prewords)
    keys = {}
    for tup, nc in zip(prewords, next_classes):
        keys.setdefault(nc, tuple(classes[i] for i in tup))
    num_next = len(set(next_classes))
    key_to_class = {v: k for k, v in keys.items()}
    gens = []
    for g in action.generators:
        ng = {}
        for nc, key in keys.items():
            for side in (FWD, REV):
                moved = tuple(g[(c, side)] for c in key)
                mkey = tuple(c for c, _ in moved)
                msides = {s for _, s in moved}
                if len(msides) != 1:
                    raise SequenceError("generator does not act classwise")
                if mkey not in key_to_class:
                    raise SequenceError("image preword class missing; action "
                                        "does not preserve the family")
                ng[(nc, side)] = (key_to_class[mkey], msides.pop())
        gens.append(ng)
    out = GroupActionTable(num_next, tuple(gens))
    if not out.is_free():
        raise SequenceError("extension lost freeness")
    return out


# ---------------------------------------------------------------------------
# odometer arithmetic

def odometer_successor(digits, k):
    """Add one with carry to the right; returns (digits, carry_out)."""
    out = list(digits)
    for i, ki in enumerate(k):
        if not 0 <= out[i] < ki:
            raise ValueError(f"digit {i} out of range")
        out[i] += 1
        if out[i] < ki:
            return tuple(out), 0
        out[i] = 0
    return tuple(out), 1


def odometer_negate(digits, k):
    """Additive inverse: -x as a digit sequence of the same length."""
    out = list(digits)
    borrow = 1  # compute (K - x) = complement + 1 without materializing K
    for i, ki in enumerate(k):
        if not 0 <= out[i] < ki:
            raise ValueError(f"digit {i} out of range")
        v = (ki - out[i] - 1) + borrow
        out[i], borrow = v % ki, v // ki
    return tuple(out)


# ---------------------------------------------------------------------------
# serialization

def sequence_to_json(seq: ConstructionSequence) -> str:
    from .coefficients import plan_to_obj
    return json.dumps({
        "flavor": seq.flavor,
        "plan": plan_to_obj(seq.plan),
        "stages": [{
            "words": [word_to_obj(w) for w in st.words],
            "compositions": [list(t) for t in st.compositions],
            "classes": list(st.classes) if st.classes is not None else None,
        } for st in seq.stages],
    })


def sequence_from_json(text: str) -> ConstructionSequence:
    from .coefficients import plan_from_obj
    data = json.loads(text)
    stages = tuple(
        StageFamily(tuple(word_from_obj(w) for w in st["words"]),
                    tuple(tuple(t) for t in st["compositions"]),
                    tuple(st["classes"]) if st["classes"] is not None else None)
        for st in data["stages"])
    return ConstructionSequence(data["flavor"], plan_from_obj(data["plan"]),
                                stages)
