"""Word specifications and the verification-gated builder.

The checker families:
  E1-E3    structural word conditions (lengths, multiplicities, readability)
  Q4-Q6    equivalence-class geometry (prefix agreement, product structure,
           refinement counts)
  A7-A9    group actions (freeness, parity swap, skew-diagonal extension)
  J10-J11.1 pseudo-randomness of aligned occurrence counts
  T1-T7    timing conditions on the lifted circular families

One builder attempt, build_attempt, samples words satisfying the
structural constraints by construction and checks nothing.  build_words
gates: it runs check_specs once on each seeded attempt, retrying with
fresh entropy until the declared tolerances hold.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import ceil

import numpy as np

from .systems import (ConstructionSequence, StageFamily, GroupActionTable,
                      odometer_sequence, functor_F, propagate_equivalence,
                      skew_diagonal_extend,
                      FWD, REV, ODOMETER, CIRCULAR, SequenceError)


class BuildError(RuntimeError):
    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


# ---------------------------------------------------------------------------
# group scaffold from tree data

@dataclass(frozen=True)
class GroupScaffold:
    """Nodes of a tree prefix in discovery order; everything else is
    derived counting."""

    nodes: tuple          # tuples of ints, discovery order

    def X(self, n: int, s: int) -> tuple:
        return tuple(x for x in self.nodes[:n + 1] if len(x) == s)

    def generator_count(self, n: int, s: int) -> int:
        return len(self.X(n, s))

    def G_size(self, n: int, s: int) -> int:
        return 2 ** self.generator_count(n, s)

    def M(self, s: int):
        """Least discovery index carrying a length-s node."""
        for i, x in enumerate(self.nodes):
            if len(x) == s:
                return i
        return None

    def rho(self, node: tuple) -> tuple:
        """Image of a level-(s+1) generator at level s: drop the last
        entry."""
        if not node:
            raise ValueError("the root has no parent generator")
        return node[:-1]


def groups_from_tree(nodes) -> GroupScaffold:
    nodes = tuple(tuple(x) for x in nodes)
    seen = set()
    for x in nodes:
        if x and x[:-1] not in seen:
            raise ValueError(f"node {x} discovered before its parent")
        seen.add(x)
    return GroupScaffold(nodes)


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class SpecEntry:
    spec_id: str
    status: str                 # pass | fail | not-checked
    worst_deviation: Fraction | None = None
    tolerance: Fraction | None = None
    witness: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SpecReport:
    entries: tuple

    def entry(self, spec_id: str) -> SpecEntry:
        for e in self.entries:
            if e.spec_id == spec_id:
                return e
        raise KeyError(spec_id)

    def ok(self) -> bool:
        return all(e.status != "fail" for e in self.entries)

    def failures(self):
        return [e for e in self.entries if e.status == "fail"]

    def to_json(self) -> str:
        def frac(x):
            return None if x is None else f"{x.numerator}/{x.denominator}"
        return json.dumps([{
            "spec": e.spec_id, "status": e.status,
            "worst_deviation": frac(e.worst_deviation),
            "tolerance": frac(e.tolerance),
            "witness": {k: repr(v) for k, v in e.witness.items()},
        } for e in self.entries], indent=2)


@dataclass(frozen=True)
class ToleranceProfile:
    """Per-family tolerances; the J functions take the stage index."""

    j_family: object = None     # callable n -> Fraction

    def j(self, n: int) -> Fraction:
        if self.j_family is None:
            return Fraction(1, 2)
        return Fraction(self.j_family(n)) if callable(self.j_family) \
            else Fraction(self.j_family)


MU = Fraction(1, 4)             # the T5-T7 tolerance mu, at every stage


def desk_tolerances() -> ToleranceProfile:
    return ToleranceProfile()


# ---------------------------------------------------------------------------
# built sequences

@dataclass(frozen=True)
class BuiltSequence:
    """A construction sequence plus its class actions and provenance."""

    seq: ConstructionSequence
    actions: tuple               # per stage: GroupActionTable | None
    scaffold: GroupScaffold
    report: SpecReport | None = None

    def stage(self, n: int) -> StageFamily:
        return self.seq.stage(n)

    @property
    def depth(self) -> int:
        return self.seq.depth


# ---------------------------------------------------------------------------
# E / Q / A checks

def _check_E1(seq, n):
    lens = {len(t) for t in seq.stage(n + 1).compositions}
    if len(lens) == 1:
        return SpecEntry("E1", "pass")
    return SpecEntry("E1", "fail", witness={"lengths": sorted(lens)})


def _check_E2(seq, n):
    prev = seq.stage(n).size
    counts = []
    for tup in seq.stage(n + 1).compositions:
        row = [0] * prev
        for i in tup:
            row[i] += 1
        counts.append(tuple(row))
    for w in range(prev):
        vals = {row[w] for row in counts}
        if len(vals) > 1:
            return SpecEntry("E2", "fail", witness={
                "stage": n + 1, "word": w, "multiplicities": sorted(vals)})
    return SpecEntry("E2", "pass",
                     witness={"multiplicity": counts[0][0] if counts else 0})


def _check_E3(seq, n):
    """Unique readability: no properly-offset full parse, and no word's
    second half equal to another's first half."""
    fam = seq.stage(n + 1)
    prev = {w.materialize() for w in seq.stage(n).words}
    Kn = seq.word_length(n)
    k = len(fam.compositions[0])
    for wi, w in enumerate(fam.words):
        text = w.materialize()
        for off in range(1, Kn):
            windows = range(off, len(text) - Kn + 1, Kn)
            if windows and all(text[a:a + Kn] in prev for a in windows):
                return SpecEntry("E3", "fail", witness={
                    "stage": n + 1, "word": wi, "offset": off,
                    "kind": "offset parse"})
    half = k // 2 + 1
    texts = [w.materialize() for w in fam.words]
    for i, wt in enumerate(texts):
        second = wt[(k - half) * Kn:]
        for j, vt in enumerate(texts):
            if i == j and half >= k:
                continue
            if vt.startswith(second):
                return SpecEntry("E3", "fail", witness={
                    "stage": n + 1, "words": (i, j), "kind": "half overlap"})
    return SpecEntry("E3", "pass")


def _check_Q4(seq, n, scaffold, eps):
    """At the class-founding stage: classwise agreement on an initial
    proportion of at least 1 - eps."""
    fam = seq.stage(n)
    if fam.classes is None or n != scaffold.M(1):
        return SpecEntry("Q4", "not-checked")
    texts = [w.materialize() for w in fam.words]
    groups = {}
    for i, c in enumerate(fam.classes):
        groups.setdefault(c, []).append(i)
    L = len(texts[0])
    worst = Fraction(1)
    witness = {}
    for c, members in groups.items():
        ref = texts[members[0]]
        agreed = L
        for i in members[1:]:
            d = next((d for d in range(L) if texts[i][d] != ref[d]), L)
            agreed = min(agreed, d)
        prop = Fraction(agreed, L)
        if prop < worst:
            worst, witness = prop, {"class": c, "agreed": agreed, "length": L}
    if worst >= 1 - Fraction(eps):
        return SpecEntry("Q4", "pass", worst_deviation=1 - worst,
                         tolerance=Fraction(eps))
    return SpecEntry("Q4", "fail", worst_deviation=1 - worst,
                     tolerance=Fraction(eps), witness=witness)


def _check_Q5(seq, n):
    """Above M(s) the relation must be the propagation of the previous
    stage's relation."""
    cur, prev = seq.stage(n + 1), seq.stage(n)
    if cur.classes is None or prev.classes is None:
        return SpecEntry("Q5", "not-checked")
    want = propagate_equivalence(prev.classes, cur.compositions)
    # compare as partitions (ids may be permuted)
    seen = {}
    for a, b in zip(want, cur.classes):
        if seen.setdefault(a, b) != b:
            return SpecEntry("Q5", "fail", witness={"stage": n + 1})
    if len(set(want)) != len(set(cur.classes)):
        return SpecEntry("Q5", "fail", witness={"stage": n + 1,
                                                "kind": "class count"})
    return SpecEntry("Q5", "pass")


def _check_Q6(seq, n, e_n):
    """The level-1 relation refines the trivial one in 2^e(n) classes."""
    fam = seq.stage(n)
    if fam.classes is None:
        return SpecEntry("Q6", "not-checked")
    got = len(set(fam.classes))
    if got == 2 ** e_n:
        return SpecEntry("Q6", "pass", witness={"classes": got})
    return SpecEntry("Q6", "fail", witness={"classes": got,
                                            "expected": 2 ** e_n})


def _check_A7(action):
    if action is None:
        return SpecEntry("A7", "not-checked")
    if action.is_free():
        return SpecEntry("A7", "pass")
    return SpecEntry("A7", "fail", witness={"kind": "not free"})


def _check_A8(action):
    if action is None:
        return SpecEntry("A8", "not-checked")
    for g in action.generators:
        for (c, side), (_, nside) in g.items():
            if side == nside:
                return SpecEntry("A8", "fail", witness={"class": c})
    return SpecEntry("A8", "pass")


def _check_A9(seq, n, actions):
    """The stage-(n+1) action restricted to the old generators must be
    the skew-diagonal extension of the stage-n action."""
    prev_act, cur_act = actions[n], actions[n + 1]
    if prev_act is None or cur_act is None:
        return SpecEntry("A9", "not-checked")
    prev = seq.stage(n)
    if prev.classes is None:
        return SpecEntry("A9", "not-checked")
    try:
        want = skew_diagonal_extend(prev_act, seq.stage(n + 1).compositions,
                                    prev.classes)
    except SequenceError as err:
        return SpecEntry("A9", "fail", witness={"error": str(err)})
    old = len(prev_act.generators)
    if want.num_classes != cur_act.num_classes:
        return SpecEntry("A9", "fail", witness={"kind": "class count"})
    for gi in range(old):
        if want.generators[gi] != cur_act.generators[gi]:
            return SpecEntry("A9", "fail", witness={"generator": gi})
    return SpecEntry("A9", "pass")


# ---------------------------------------------------------------------------
# J-family checks

def _slot_matrix(seq, n):
    """Slot ids over the signed previous-stage alphabet of every signed
    stage-(n+1) word: row w is word w, row w + s its reverse, whose slots
    hold reversed words, id = word index + s_prev."""
    comps = seq.stage(n + 1).compositions
    s_prev = seq.stage(n).size
    rows = [list(t) for t in comps] + \
        [[i + s_prev for i in reversed(t)] for t in comps]
    return np.array(rows, dtype=np.int64), len(comps), s_prev


def _class_members(classes):
    """Sorted class ids, and the 0/1 matrix [word, class] of membership."""
    kinds = sorted(set(classes))
    return kinds, np.array([[c == C for C in kinds] for c in classes],
                           dtype=np.int64)


# elements per working array of the prefix kernel; bounds its memory
_CHUNK_ELEMS = 1 << 14
# float filter margin: far above the float64 error of a deviation in [0, 1]
_FILTER_MARGIN = 1e-9


def _grid(*ranges):
    """Flat index arrays over the product of ``ranges``, last fastest;
    int32 halves the memory of J10's grid (about 2**16 rows at k = 1024)."""
    return tuple(g.ravel() for g in np.meshgrid(
        *(np.arange(r.start, r.stop, dtype=np.int32) for r in ranges),
        indexing="ij"))


def _prefix_pair_counts(slots, s_prev, U, V, T):
    """Exact prefix pair counts for the rows (U[r], V[r], T[r]).

    Row r pairs word U[r], shifted by T[r], with word V[r]: position x
    holds the local pair id (slot u at x + t mod s_prev) * s_prev + (slot
    v at x mod s_prev).  Every slot of a signed word has that word's
    parity, so the local id names the signed pair.  Yields (lo, P) for
    consecutive chunks of rows starting at row lo, where

        P[i, pair, j] = #{x <= j : x < k - t, id(x) = pair}

    as int32, exact for k < 2**31.  Columns j >= k - t hold the count over
    the whole overlap.  Chunks keep every working array near _CHUNK_ELEMS
    elements.  Every J and T frequency check takes its counts from here
    and its entry from _worst_entry.
    """
    if not len(U):
        return
    k = slots.shape[1]
    npair = s_prev * s_prev
    ids = np.arange(npair, dtype=np.min_scalar_type(2 * npair))[:, None]
    local = (slots % s_prev).astype(ids.dtype)
    L = k - int(T.min())
    # shifted-out positions read the id npair, which matches no pair
    shifted = np.concatenate(
        [local * s_prev, np.full((len(slots), L), npair, ids.dtype)], axis=1)
    # windows[u, t] = shifted[u, t:t + L], a strided view built directly:
    # over many small calls, sliding_window_view (through as_strided) kept
    # about 1 MB more peak memory
    row, col = shifted.strides
    windows = np.ndarray((len(slots), k + 1, L), shifted.dtype, shifted,
                         strides=(row, col, col))
    step = max(1, _CHUNK_ELEMS // (npair * L))
    for lo in range(0, len(U), step):
        sl = slice(lo, lo + step)
        width = k - int(T[sl].min())
        pair = windows[U[sl], T[sl], :width] + local[V[sl], :width]
        yield lo, np.cumsum(pair[:, None, :] == ids, axis=2, dtype=np.int32)


def _pair_totals(slots, s_prev, U, V, T):
    """Whole-overlap counts [r, a, b]: the x < k - T[r] where word U[r]
    holds local slot a at x + T[r] and word V[r] local slot b at x."""
    out = np.zeros((len(U), s_prev * s_prev), np.int64)
    for lo, P in _prefix_pair_counts(slots, s_prev, U, V, T):
        out[lo:lo + len(P)] = P[:, :, -1]
    return out.reshape(-1, s_prev, s_prev)


def _signed_pair(local_pair, s_prev, u_rev, v_rev):
    """Witness pair (a, b) over the signed alphabet for a local pair id."""
    a, b = divmod(int(local_pair), s_prev)
    return (a + s_prev * u_rev, b + s_prev * v_rev)


def _worst_entry(spec_id, counts, sizes, target, tol, witness_of):
    """The entry of a frequency check whose deviations are the
    |counts / sizes - target| of its entries, flat in the check's loop
    order; ``target`` is (numerator, denominator), each an int or an array
    broadcast against ``counts``.  Entries of size 0 are skipped, which is
    how a check masks one out.

    Each deviation is held as the integers num = |count td - size tn| and
    den = size td, exact in int64 for counts below 2**31.  Floats only pick
    candidates: every entry within _FILTER_MARGIN of the float maximum is
    re-checked by cross-multiplication, in flat order with a strict ">"
    from 0.  The first exact maximum wins and reports ``witness_of(flat
    index)``; with no nonzero deviation the worst is 0 and the witness
    empty.
    """
    tn, td = target
    counts, sizes = np.asarray(counts, np.int64), np.asarray(sizes, np.int64)
    num = np.abs(counts * td - sizes * tn)
    den = np.broadcast_to(sizes * td, num.shape)
    dev = np.divide(num, den, out=np.full(num.shape, -1.0),
                    where=den > 0).ravel()
    worst, best = (0, 1), None
    top = dev.max(initial=-1.0)
    if top >= 0:
        cand = np.flatnonzero(dev >= top - _FILTER_MARGIN)
        for i, a, b in zip(cand.tolist(), num.ravel()[cand].tolist(),
                           den.ravel()[cand].tolist()):
            if a * worst[1] > worst[0] * b:
                worst, best = (a, b), i
    worst = Fraction(*worst)
    return SpecEntry(spec_id, "pass" if worst < tol else "fail", worst, tol,
                     {} if best is None else witness_of(best))


def _prefix_argmax(slots, s_prev, U, V, T, j_lo, groups=None, target=None):
    """The prefix deviation each row (U[r], V[r], T[r]) reports: over its
    window j0 in [j_lo, k - t], the first argmax in (group, j0) order of
    the float |count / j0 - target|, computed per element.  A group sums
    the local pairs its row of the 0/1 matrix ``groups`` selects; by
    default every pair is its own group and the target is 1 / s_prev^2.
    Returns (count, j0, group) there, per row, in row order."""
    k = slots.shape[1]
    tf = float(Fraction(1, s_prev * s_prev) if target is None else target)
    out = []
    for lo, P in _prefix_pair_counts(slots, s_prev, U, V, T):
        if groups is not None:
            P = np.matmul(groups, P)
        j0s = np.arange(j_lo, P.shape[2] + 1)
        devs = np.abs(P[:, :, j_lo - 1:] / j0s - tf)
        outside = j0s > (k - T[lo:lo + len(P)])[:, None]
        devs[np.broadcast_to(outside[:, None, :], devs.shape)] = -1.0
        pair, col = np.divmod(devs.reshape(len(P), -1).argmax(axis=1),
                              len(j0s))
        out += zip(P[np.arange(len(P)), pair, j_lo - 1 + col].tolist(),
                   j0s[col].tolist(), pair.tolist())
    return out


def _argmax_columns(found):
    """_prefix_argmax's (count, j0, group) rows as three int arrays."""
    return np.array(found, dtype=np.int64).reshape(-1, 3).T


def _check_J10_J10_1(slots, s_prev, eps, eps_var, tol):
    """J10 over the full overlap of every shift t <= (1 - eps) k, and J10.1
    over every prefix j0 >= eps_var k of every shift t <= (1 - eps_var) k,
    from one pass of the prefix kernel."""
    w, k = slots.shape
    s = w // 2
    npair = s_prev * s_prev
    tf = 1 / npair
    eps_var = Fraction(eps_var)
    t10 = ceil((1 - Fraction(eps)) * k) - 1
    j_lo = max(1, ceil(eps_var * k))
    t101 = min(ceil((1 - eps_var) * k) - 1, k - j_lo)
    U, V, T = _grid(range(w), range(w), range(1, max(t10, t101) + 1))
    totals = np.zeros((len(U), npair), np.int32)
    # J10.1's per-row float filter value; -1 marks a row outside the check
    f101 = np.full(len(U), -1.0)
    j0_all = np.arange(j_lo, k)
    tf_j0 = tf * j0_all
    for lo, P in _prefix_pair_counts(slots, s_prev, U, V, T):
        hi = lo + len(P)
        over = (k - T[lo:hi])[:, None]
        totals[lo:hi] = P[:, :, -1]
        win = P[:, :, j_lo - 1:]
        if not win.size:
            continue
        j0s, tfj = j0_all[:win.shape[2]], tf_j0[:win.shape[2]]
        # max over pairs of |count / j0 - 1 / npair|: one division per j0
        dev = np.maximum(win.max(axis=1) - tfj,
                         tfj - win.min(axis=1)) / j0s
        dev[j0s > over] = -1.0
        f101[lo:hi] = dev.max(axis=1)
    f101[T > t101] = -1.0

    def wit10(i):
        r, pid = divmod(i, npair)
        u, v, t = int(U[r]), int(V[r]), int(T[r])
        return {"u": u, "v": v, "t": t,
                "pair": _signed_pair(pid, s_prev, u >= s, v >= s),
                "count": int(totals[r, pid]), "overlap": k - t}

    # J10.1: the reported deviation of every row near the float maximum
    c101 = np.flatnonzero((f101 >= 0) & (f101 >= f101.max(initial=-1.0)
                                         - _FILTER_MARGIN))
    counts, j0, pids = _argmax_columns(
        _prefix_argmax(slots, s_prev, U[c101], V[c101], T[c101], j_lo))

    def wit101(i):
        u, v = int(U[c101[i]]), int(V[c101[i]])
        return {"u": u, "v": v, "t": int(T[c101[i]]), "j0": int(j0[i]),
                "pair": _signed_pair(pids[i], s_prev, u >= s, v >= s)}
    # J10: the full overlap of every row with t <= t10; size 0 skips a row
    over10 = np.where(T <= t10, k - T, 0)[:, None]
    return (_worst_entry("J10", totals, over10, (1, npair), tol, wit10),
            _worst_entry("J10.1", counts, j0, (1, npair), tol, wit101))


def _orbits(seq, n, actions):
    """Per word pair (u, v), u unsigned and v signed, in loop order: the
    element of the stage-(n+1) action taking u's signed class to v's, or
    None when none does or class data is missing."""
    cur = seq.stage(n + 1)
    s = cur.size
    act = actions[n + 1] if actions else None
    out = []
    for u in range(s):
        for v in range(2 * s):
            g = None
            if cur.classes is not None and act is not None:
                cu = (cur.classes[u], FWD)
                cv = (cur.classes[v % s], REV if v >= s else FWD)
                g = next((el for el in act.elements if el[cu] == cv), None)
            out.append(((u, v), g))
    return out


def _check_J11(seq, n, slots, actions, tol):
    """Whole-word counts of the aligned slot pairs (a, b) of every word
    pair (u, v): the prefix kernel's t = 0 rows.  Where the stage-(n+1)
    action has an element g taking u's class to v's, only the pairs with
    g(class a) = class b count, against 1 / (Q C^2) (level 1); elsewhere
    every pair counts, against 1 / s_prev^2 (level 0)."""
    s, k = len(slots) // 2, slots.shape[1]
    prev = seq.stage(n)
    s_prev, classes = prev.size, prev.classes
    orbits = _orbits(seq, n, actions)
    if not actions or actions[n] is None or classes is None:
        orbits = [(uv, None) for uv, _ in orbits]
    else:
        kinds, member = _class_members(classes)
    U, V = np.array([uv for uv, _ in orbits], dtype=np.int64).T
    related = np.ones((len(U), s_prev, s_prev), bool)
    td = np.full(len(U), s_prev * s_prev)
    for r, (_, g) in enumerate(orbits):
        if g is not None:
            # g takes every class to v's side, the side of the local b
            side = REV if V[r] >= s else FWD
            image = np.array([[g[(C, FWD)] == (D, side) for D in kinds]
                              for C in kinds])
            related[r] = member @ image @ member.T
            td[r] = len(kinds) * (s_prev // len(kinds)) ** 2

    def witness(i):
        r, pid = divmod(i, s_prev * s_prev)
        return {"u": int(U[r]), "v": int(V[r]),
                "pair": _signed_pair(pid, s_prev, False, int(V[r]) >= s),
                "level": int(orbits[r][1] is not None)}
    totals = _pair_totals(slots, s_prev, U, V, np.zeros_like(U))
    return _worst_entry("J11", totals, np.where(related, k, 0),
                        (1, td[:, None, None]), tol, witness)


def _J11_1_pairs(seq, n, actions):
    """(u, v) with u unsigned and v signed, outside one class orbit: the
    word pairs J11.1 and T7 examine."""
    return [uv for uv, g in _orbits(seq, n, actions) if g is None]


def _check_J11_1(slots, s_prev, pairs, eps, tol):
    """Initial and tail prefix counts of the aligned pairs (u, v): the
    prefix kernel's t = 0 rows, on the words and on their reversals."""
    k = slots.shape[1]
    s = len(slots) // 2
    j_lo = max(1, ceil(Fraction(eps) * k))
    # row 2 s + w of both is word w backwards, whose prefixes are its tails
    both = np.concatenate([slots, slots[:, ::-1]])
    uv = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    U, V = np.concatenate([uv, uv + 2 * s]).T
    found = _argmax_columns(_prefix_argmax(both, s_prev, U, V,
                                           np.zeros_like(U), j_lo))
    # [pair, (initial, tail)]
    counts, j0, pids = found.reshape(3, 2, -1).transpose(0, 2, 1)

    def witness(i):
        r, seg = divmod(i, 2)
        return {"u": pairs[r][0], "v": pairs[r][1], "j0": int(j0[r, seg]),
                "segment": ("initial", "tail")[seg],
                "pair": _signed_pair(pids[r, seg], s_prev, False,
                                     pairs[r][1] >= s)}
    return _worst_entry("J11.1", counts, j0, (1, s_prev * s_prev), tol,
                        witness)


# ---------------------------------------------------------------------------
# the public checker

def check_specs(built: BuiltSequence, tolerances: ToleranceProfile | None
                = None, levels=None) -> SpecReport:
    tol = tolerances or desk_tolerances()
    seq = built.seq
    if seq.flavor != ODOMETER:
        raise SequenceError("check_specs runs on odometer sequences")
    if seq.depth < 1:
        raise SequenceError("need at least two stages")
    entries = []
    levels = range(seq.depth) if levels is None else levels
    for n in levels:
        st = seq.plan.stage(n)
        eps = st.eps_lunate
        eps_var = st.eps_classic
        jt = tol.j(n)
        M1 = built.scaffold.M(1)
        founded = M1 is not None and n + 1 >= M1
        slots, _, s_prev = _slot_matrix(seq, n)
        checks = [
            _check_E1(seq, n), _check_E2(seq, n), _check_E3(seq, n),
            _check_Q4(seq, n + 1, built.scaffold, eps),
            _check_Q5(seq, n) if founded and n + 1 > M1
            else SpecEntry("Q5", "not-checked"),
            _check_Q6(seq, n + 1, seq.plan.stage(min(n + 1,
                      seq.plan.depth - 1)).e)
            if founded else SpecEntry("Q6", "not-checked"),
            _check_A7(built.actions[n + 1] if built.actions else None),
            _check_A8(built.actions[n + 1] if built.actions else None),
            _check_A9(seq, n, built.actions),
            *_check_J10_J10_1(slots, s_prev, eps, eps_var, jt),
            _check_J11(seq, n, slots, built.actions, jt),
            _check_J11_1(slots, s_prev,
                         _J11_1_pairs(seq, n, built.actions), eps, jt),
        ]
        for e in checks:
            entries.append(replace(e, spec_id=f"{e.spec_id}@{n}"))
    return SpecReport(tuple(entries))


# ---------------------------------------------------------------------------
# gamma cascade

@dataclass(frozen=True)
class GammaCascade:
    values: tuple              # gamma_1 .. gamma_N as exact rationals

    def gamma(self, n: int) -> Fraction:
        return self.values[n - 1]

    @property
    def positive(self) -> bool:
        return all(v > 0 for v in self.values)


def gamma_cascade(plan, N: int | None = None) -> GammaCascade:
    N = plan.depth - 1 if N is None else N
    st0 = plan.stage(0)
    e0 = Fraction(st0.eps_lunate)
    g = (1 - Fraction(1, 4) - e0) * (1 - Fraction(1, e0 * st0.k)) \
        * (1 - Fraction(1, st0.l))
    vals = [g]
    for m in range(1, N):
        st = plan.stage(m)
        em = Fraction(st.eps_lunate)
        prev_eps = Fraction(plan.stage(m - 1).eps_lunate)
        dec = 1 - 10 * (Fraction(1, st.k) / em + Fraction(1, st.l)
                        + Fraction(1, st.Q1) + prev_eps)
        g = g * dec
        vals.append(g)
    return GammaCascade(tuple(vals))


# ---------------------------------------------------------------------------
# timing checks on lifted circular sequences

def lift_build(built: BuiltSequence) -> BuiltSequence:
    """Rebuild circularly; the class-level action tables carry over
    unchanged (the skew-diagonal rule acts on class tuples either way)."""
    return BuiltSequence(functor_F(built.seq), built.actions,
                         built.scaffold, built.report)


class RoundingBoundError(ArithmeticError):
    """A float FFT product is too long to round to exact integers."""


def _rounding_bound(q: int, size: int, nsym: int) -> Fraction:
    """Error bound for irfft(sum of nsym rfft products) at FFT size
    ``size`` over one-hot length-q words; raises RoundingBoundError once
    rounding to the nearest integer is unsafe.

    Percival (Math. Comp. 72, 2003, Thm 5.1) bounds one float FFT product
    at size 2^m by ||x|| ||y|| ((1+u)^3m (1+u sqrt5)^(3m+1) (1+b)^3m - 1),
    u = 2^-53, b the twiddle error, taken as u; the symbol sum adds
    (1+u)^nsym, and sum_c ||x_c|| ||y_c|| <= q.  As sqrt5 < 9/4 and
    prod (1+x_i)^n_i - 1 <= t / (1 - t), t = sum n_i x_i, it is exact.
    """
    m = size.bit_length() - 1
    t = Fraction(4 * (6 * m + nsym) + 9 * (3 * m + 1), 4 * 2 ** 53)
    if t >= 1 or 2 * q * t >= 1 - t:
        raise RoundingBoundError(
            f"FFT rounding bound reaches 1/2 for words of length {q} over "
            f"{nsym} symbols at FFT size {size}")
    return q * t / (1 - t)


def check_T4(built: BuiltSequence, n: int, gamma: Fraction,
             eps=None) -> SpecEntry:
    """Inequivalent stage-n circular words must stay gamma-separated in
    normalized Hamming distance on every initial, tail and cross segment
    longer than eps * q_n: 1 minus the largest match frequency, which
    _worst_entry picks from match counts flat in (pair, segment, length)
    order."""
    seq = built.seq
    if seq.flavor != CIRCULAR:
        raise SequenceError("check_T4 runs on circular sequences")
    fam = seq.stage(n)
    if fam.classes is None:
        return SpecEntry("T4", "not-checked")
    if gamma <= 0:
        return SpecEntry("T4", "pass", witness={
            "vacuous": True, "gamma": gamma})
    q = seq.plan.q(n)
    eps = Fraction(seq.plan.stage(n - 1).eps_lunate) if eps is None else \
        Fraction(eps)
    ls = np.arange(int(eps * q) + 1, q + 1)
    # row i is word i and row s + i its reverse; partner[r] is row r's
    # word the other way round
    s = fam.size
    W = np.stack([np.frombuffer(w.materialize().encode("latin1"), np.uint8)
                  for w in fam.words])
    W = np.concatenate([W, W[:, ::-1]])
    partner = (np.arange(2 * s) + s) % (2 * s)
    signed = [(i, side) for i in range(s) for side in (FWD, REV)]
    pairs = [(a, b) for a in signed for b in signed if a != b and not (
        fam.classes[a[0]] == fam.classes[b[0]] and a[1] == b[1])]
    U, V = np.array([[i + s * si, j + s * sj] for (i, si), (j, sj) in pairs],
                    dtype=np.int64).reshape(-1, 2).T
    initial = np.cumsum(W[U] == W[V], axis=1)[:, ls - 1]
    tail = np.cumsum(W[partner[U]] == W[partner[V]], axis=1)[:, ls - 1]
    # a[:l] against b[q - l:] is lag l - 1 of a convolved with b reversed
    # (Fischer & Paterson 1974): one irfft per pair of the symbol-summed
    # products of each row's per-symbol rffts; row r reversed is partner[r]
    size = 1 << (2 * q - 1).bit_length()
    syms = np.unique(W)
    spectra = np.fft.rfft(W[:, None, :] == syms[:, None], size)
    _rounding_bound(q, size, len(syms))
    cross = np.empty_like(initial)
    for u in np.unique(U):
        rows = np.flatnonzero(U == u)
        prod = (spectra[u] * spectra[partner[V[rows]]]).sum(axis=1)
        cross[rows] = np.rint(np.fft.irfft(prod, size)[:, ls - 1])
    counts = np.stack([initial, tail, cross], axis=1)

    def witness(k):
        p, seg, li = np.unravel_index(k, counts.shape)
        return {"pair": pairs[p], "segment": ("initial", "tail", "cross")[seg],
                "length": int(ls[li])}
    e = _worst_entry("T4", counts, ls, (0, 1), 1, witness)
    worst = 1 - e.worst_deviation
    return SpecEntry("T4", "pass" if worst >= gamma else "fail", worst,
                     gamma, e.witness)


def check_T5(built: BuiltSequence, n: int, mu: Fraction) -> SpecEntry:
    """For every preword w0, word w1 (or its reverse), shift t and stage-n
    word v, the class frequencies of w1 at the occurrences of v in w0: at
    x + t against v at x (T5a), and at x against v at x + t (T5b)."""
    classes = built.stage(n).classes
    if classes is None:
        return SpecEntry("T5", "not-checked")
    slots, s, s_prev = _slot_matrix(built.seq, n)
    k = slots.shape[1]
    eps = Fraction(built.seq.plan.stage(n).eps_classic)
    kinds, member = _class_members(classes)
    w0, w1, t = _grid(range(s), range(2 * s),
                      range(1, min(int((1 - eps) * k), k - 1) + 1))
    # counts[row, v, axiom, class]; the kernel shifts its first word
    t5a = np.swapaxes(_pair_totals(slots, s_prev, w1, w0, t), 1, 2) @ member
    t5b = _pair_totals(slots, s_prev, w0, w1, t) @ member
    counts = np.stack([t5a, t5b], axis=2)

    def witness(i):
        r, v, axiom, c = np.unravel_index(i, counts.shape)
        return {"axiom": ("T5a", "T5b")[axiom], "w0": int(w0[r]),
                "w1": int(w1[r]), "t": int(t[r]), "v": int(v),
                "class": kinds[c]}
    return _worst_entry("T5", counts, counts.sum(axis=3, keepdims=True),
                        (1, len(kinds)), mu, witness)


def check_T6(built: BuiltSequence, n: int, mu: Fraction) -> SpecEntry:
    """For every pair of prewords and shift t, the frequency of aligned
    slot pairs whose classes lie in one orbit of the stage-n action, on
    every prefix j0 >= eps k; each (w0, w1, t) reports the exact value at
    its float argmax."""
    classes = built.stage(n).classes
    action = built.actions[n] if built.actions else None
    if classes is None or action is None:
        return SpecEntry("T6", "not-checked")
    slots, s, s_prev = _slot_matrix(built.seq, n)
    k = slots.shape[1]
    eps = Fraction(built.seq.plan.stage(n).eps_classic)
    kinds, member = _class_members(classes)
    target = min(Fraction(1), Fraction(len(action.elements), len(kinds)))
    orbit = {(cu, el[cu]) for el in action.elements for cu in el}
    linked = np.array([[((C, FWD), (D, FWD)) in orbit for D in kinds]
                       for C in kinds], dtype=np.int64)
    # row (w1, w0, t) holds the local pair (slot a of w1, slot b of w0),
    # related when some element takes b's class to a's
    related = (member @ linked.T @ member.T).astype(np.int32).reshape(1, -1)
    j_lo = max(1, ceil(eps * k))
    w0, w1, t = _grid(range(s), range(s),
                      range(1, min(int((1 - eps) * k), k - j_lo) + 1))
    counts, j0, _ = _argmax_columns(_prefix_argmax(
        slots, s_prev, w1, w0, t, j_lo, related, target))
    return _worst_entry(
        "T6", counts, j0, (target.numerator, target.denominator), mu,
        lambda i: {"w0": int(w0[i]), "w1": int(w1[i]), "t": int(t[i]),
                   "j0": int(j0[i])})


def check_T7(built: BuiltSequence, n: int, mu: Fraction) -> SpecEntry:
    """T5b at t = 0 over the word pairs outside one class orbit."""
    classes = built.stage(n).classes
    if classes is None:
        return SpecEntry("T7", "not-checked")
    slots, s, s_prev = _slot_matrix(built.seq, n)
    kinds, member = _class_members(classes)
    pairs = _J11_1_pairs(built.seq, n, built.actions)
    w0, w1 = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    counts = _pair_totals(slots, s_prev, w0, w1, np.zeros_like(w0)) @ member

    def witness(i):
        r, v, c = np.unravel_index(i, counts.shape)
        return {"w0": pairs[r][0], "w1": pairs[r][1], "v": int(v),
                "class": kinds[c]}
    return _worst_entry("T7", counts, counts.sum(axis=2, keepdims=True),
                        (1, len(kinds)), mu, witness)


def check_timing(built: BuiltSequence, level: int,
                 gamma: GammaCascade | None = None) -> SpecReport:
    """On the circular lift of ``built``: T1-T3 structurally, T4 as exact
    segment distances against ``gamma`` (the plan's cascade by default),
    T5-T7 as exact frequency counts against MU."""
    circ = built if built.seq.flavor == CIRCULAR else lift_build(built)
    seq = circ.seq
    gamma = gamma or gamma_cascade(seq.plan, max(2, level + 1))
    entries = []
    M1 = circ.scaffold.M(1)
    for n in range(min(level, seq.depth - 1)):
        # T1: propagation; the class-founding stage is exempt
        e = _check_Q5(seq, n) if M1 is not None and n + 1 > M1 \
            else SpecEntry("T1", "not-checked")
        entries.append(replace(e, spec_id=f"T1@{n}"))
        # T2/T3: freeness and parity of the stage action
        act = circ.actions[n + 1] if circ.actions else None
        entries.append(replace(_check_A7(act), spec_id=f"T2@{n}"))
        entries.append(replace(_check_A8(act), spec_id=f"T3@{n}"))
        entries.append(replace(check_T4(circ, n + 1, gamma.gamma(n + 1)),
                               spec_id=f"T4@{n + 1}"))
        entries.append(replace(check_T5(circ, n, MU), spec_id=f"T5@{n}"))
        entries.append(replace(check_T6(circ, n, MU), spec_id=f"T6@{n}"))
        entries.append(replace(check_T7(circ, n, MU), spec_id=f"T7@{n}"))
    return SpecReport(tuple(entries))


# ---------------------------------------------------------------------------
# the builder

def _search_separated_pair(rng, plan, scaffold, gamma, k, steps=2500,
                           restarts=8):
    """Hill-climb a pair of balanced digit words whose circular lifts stay
    gamma-separated on every long initial/tail/cross segment, including
    against their own reversals."""
    from .systems import circular_sequence

    def t4_margin(d0, d1):
        seq = circular_sequence(plan, "01", [[tuple(d0), tuple(d1)]])
        seq = replace(seq, stages=(seq.stages[0],
                                   replace(seq.stages[1], classes=(0, 1))))
        e = check_T4(BuiltSequence(seq, (None, None), scaffold), 1, gamma)
        return e.worst_deviation

    for _ in range(restarts):
        d0 = [0] * (k // 2) + [1] * (k // 2)
        d1 = list(d0)
        rng.shuffle(d0)
        rng.shuffle(d1)
        m = t4_margin(d0, d1)
        for _ in range(steps):
            if m >= gamma:
                return tuple(d0), tuple(d1)
            w = rng.choice((d0, d1))
            i = rng.choice([x for x in range(k) if w[x] == 0])
            j = rng.choice([x for x in range(k) if w[x] == 1])
            w[i], w[j] = 1, 0
            m2 = t4_margin(d0, d1)
            if m2 >= m:
                m = m2
            else:
                w[i], w[j] = 0, 1
        if m >= gamma:
            return tuple(d0), tuple(d1)
    raise BuildError(f"no gamma-separated digit pair found (best margin "
                     f"{float(m):.4f} < {float(gamma):.4f})")


def _sample_stage(rng, plan, n, prev_size, prev_classes, s_next, Q_next,
                  prefix_lock: bool):
    """Compositions and classes for stage n+1.

    Each class fixes a slot pattern over previous-stage classes; members
    fill the slots with class members so that every previous word appears
    exactly k/prev_size times.  With prefix_lock, members of a class agree
    on the leading slots (the class-founding stage)."""
    k = plan.stage(n).k
    if k % prev_size:
        raise BuildError(f"k_{n} = {k} not divisible by |W_{n}| = "
                         f"{prev_size}")
    Q_prev = len(set(prev_classes))
    if k % Q_prev:
        raise BuildError(f"k_{n} not divisible by the {Q_prev} classes")
    C_next, rem = divmod(s_next, Q_next)
    if rem:
        raise BuildError("class count must divide the family size")
    members = {}
    for i, c in enumerate(prev_classes):
        members.setdefault(c, []).append(i)
    per_word = k // prev_size

    def fill(pattern):
        # arrange members under the class pattern with exact multiplicity
        slots = [None] * k
        for c, mem in members.items():
            pos = [i for i, pc in enumerate(pattern) if pc == c]
            pool = [w for w in mem for _ in range(per_word)]
            rng.shuffle(pool)
            if len(pool) != len(pos):
                raise BuildError("pattern does not balance multiplicities")
            for p, w in zip(pos, pool):
                slots[p] = w
        return tuple(slots)

    eps = Fraction(plan.stage(n).eps_lunate)
    lock = ceil((1 - eps) * k) if prefix_lock else 0
    for _ in range(256):
        comps, classes = [], []
        base = [c for c in sorted(members) for _ in range(k // Q_prev)]
        rng.shuffle(base)
        for ci in range(Q_next):
            # class patterns form one orbit under class shifts, so the
            # canonical generators keep the family's class keys closed
            pattern = [(c + ci) % Q_prev for c in base]
            first = fill(pattern)
            for mi in range(C_next):
                if mi == 0:
                    slots = first
                else:
                    # keep the locked head; shuffle tail words within the
                    # slots of each class so pattern and multiplicity hold
                    tail = list(first[lock:])
                    for c in set(pattern[lock:]):
                        pos = [i for i in range(len(tail))
                               if pattern[lock + i] == c]
                        vals = [tail[i] for i in pos]
                        rng.shuffle(vals)
                        for p, w in zip(pos, vals):
                            tail[p] = w
                    slots = first[:lock] + tuple(tail)
                comps.append(slots)
                classes.append(ci)
        if len(set(comps)) == len(comps):
            return tuple(comps), tuple(classes)
    raise BuildError(f"could not sample {s_next} distinct stage-{n + 1} "
                     f"words")


def build_words(tp, plan, seed: int, level: int,
                tolerances: ToleranceProfile | None = None,
                retry_budget: int = 32, style: str = "random"
                ) -> BuiltSequence:
    """Seeded, verification-gated construction of an odometer sequence
    with class and action data derived from the tree prefix: attempts 0,
    1, ... of build_attempt, each checked once by check_specs, until one
    passes.  The passing attempt carries its report; an exhausted budget
    raises BuildError with the report of the attempt that failed fewest
    specs."""
    best = None
    for attempt in range(retry_budget):
        built = build_attempt(tp, plan, seed, level, style, attempt)
        built = replace(built, report=check_specs(built, tolerances))
        if built.report.ok():
            return built
        if best is None or \
                len(built.report.failures()) < len(best.report.failures()):
            best = built
    raise BuildError(f"retry budget {retry_budget} exhausted", best.report)


def build_attempt(tp, plan, seed: int, level: int, style: str = "random",
                  attempt: int = 0) -> BuiltSequence:
    """One seeded attempt of the builder, unchecked (``report`` is None):
    structural constraints hold by construction, the J and T families are
    left to check_specs and check_timing.  Attempt ``attempt`` of
    build_words is this call with the same arguments."""
    scaffold = tp if isinstance(tp, GroupScaffold) else groups_from_tree(tp)
    # the scaffold is part of the consumed input, so it salts the entropy
    # stream: builds differ whenever the tree data differs
    rng = random.Random(repr((seed, attempt, scaffold.nodes)))
    M1 = scaffold.M(1)
    comps_by_stage = []
    classes_by_stage = [(0, 0)]       # stage 0: one class over {1, 0}
    prev_size = 2
    prev_classes = (0, 0)
    for n in range(level):
        s_next = plan.s(n + 1)
        Q_next = 2 ** plan.stage(min(n + 1, plan.depth - 1)).e \
            if (M1 is not None and n + 1 >= M1) else 1
        Q_next = min(Q_next, s_next)
        if style == "separated" and n == 0:
            gamma = gamma_cascade(plan, max(1, level)).gamma(1)
            comps = _search_separated_pair(rng, plan, scaffold, gamma,
                                           plan.stage(0).k)
            classes = (0, 1)
        else:
            comps, classes = _sample_stage(
                rng, plan, n, prev_size, prev_classes, s_next, Q_next,
                prefix_lock=(M1 is not None and n + 1 == M1))
        comps_by_stage.append(comps)
        classes_by_stage.append(classes)
        prev_size, prev_classes = len(comps), classes
    seq = odometer_sequence(plan, "01", comps_by_stage)
    seq = replace(seq, stages=tuple(
        replace(st, classes=tuple(cl))
        for st, cl in zip(seq.stages, classes_by_stage)))
    actions = _derive_actions(scaffold, seq, level)
    return BuiltSequence(seq, actions, scaffold)


def _shift_swap_generator(nclasses: int, j: int) -> dict:
    """Involutive side-swapping generator shifting class ids by j."""
    g = {}
    for c in range(nclasses):
        g[(c, FWD)] = ((c + j) % nclasses, REV)
        g[(c, REV)] = ((c - j) % nclasses, FWD)
    return g


def _derive_actions(scaffold, seq, level):
    """Level-1 group actions per stage: canonical side-swapping
    generators, one per discovered length-1 node, with later stages given
    by the skew-diagonal extension.  Generator count past the class count
    duplicates patterns (the desk surrogate for a larger free product)."""
    M1 = scaffold.M(1)
    actions = [None]
    act = None
    for n in range(1, level + 1):
        fam = seq.stage(n)
        nclasses = fam.num_classes()
        count = scaffold.generator_count(n, 1)
        if M1 is None or n < M1 or count == 0:
            actions.append(None)
            continue
        if n == M1 or act is None:
            act = None
            gens = ()
        else:
            act = skew_diagonal_extend(act, fam.compositions,
                                       seq.stage(n - 1).classes)
            gens = act.generators
        while len(gens) < count:
            gens = gens + (_shift_swap_generator(
                nclasses, len(gens) % nclasses),)
        act = GroupActionTable(nclasses, gens)
        actions.append(act)
    return tuple(actions)
