"""Word specifications and the verification-gated builder.

The checker families:
  E1-E3    structural word conditions (lengths, multiplicities, readability)
  Q4-Q6    equivalence-class geometry (prefix agreement, product structure,
           refinement counts)
  A7-A9    group actions (freeness, parity swap, skew-diagonal extension)
  J10-J11.1 pseudo-randomness of aligned occurrence counts
  T1-T7    timing conditions on the lifted circular families

One builder attempt, build_attempt, samples words satisfying the
structural constraints by construction and checks nothing; in the same
loop it gives each stage its classes and action, read off the group
scaffold, which no check reads.  build_words gates that loop: once stage
n + 1 is sampled it runs stage n's check_specs battery, and the first
failing spec drops the attempt, retrying with fresh entropy, at most
RETRY_BUDGET times, until every J check holds within one tolerance
(J_TOLERANCE by default) and every other spec holds.

SPECS alone names each spec: its id in each battery (T1-T3 are Q5, A7 and
A8), the offset of its printed stage, when it applies and its check, which
returns an unnamed Verdict.  A row applies by the classes and actions the
build carries: the class-founding stage is the first that acts.  One
runner, _run, serves check_specs and check_timing and makes each SpecEntry
once: it names each verdict spec@stage, reports not-checked where the row
does not apply, and makes what checks share once per stage (_Stage).
Every J and T frequency is counted by one prefix kernel, as exact float32
products of 0/1 rows (_prefix_pair_counts): per stage, one pass for J10,
J10.1 and J11, one for J11.1, one for T5 and T7 and one for T6.  What the
J checks and A7 derive from a stage lives in one process-long table keyed
by all it reads; E3 and Q4 read another, of stage n's words alone
(_family_table).
"""

from __future__ import annotations

import random
from collections import namedtuple
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from math import ceil

import numpy as np

from .coefficients import frac_str
from .systems import (ConstructionSequence, StageFamily, GroupActionTable,
                      base_stage, functor_F, odometer_stage,
                      propagate_equivalence, skew_diagonal_extend,
                      with_classes, _grid_occurrences, FWD, REV, ODOMETER,
                      CIRCULAR, SequenceError)


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

    def generator_count(self, n: int) -> int:
        """Length-1 nodes among the first n + 1 discovered."""
        return sum(len(x) == 1 for x in self.nodes[:n + 1])


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

# What a check finds: SpecEntry's fields but the id, status pass or fail.
# A check returns it unnamed, and _run names it.
Verdict = namedtuple("Verdict", "status worst_deviation tolerance witness")


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

    def ok(self) -> bool:
        return all(e.status != "fail" for e in self.entries)

    def failures(self):
        return [e for e in self.entries if e.status == "fail"]

    def to_obj(self) -> list:
        return [{
            "spec": e.spec_id, "status": e.status,
            "worst_deviation": (None if e.worst_deviation is None
                                else frac_str(e.worst_deviation)),
            "tolerance": (None if e.tolerance is None
                          else frac_str(e.tolerance)),
            "witness": {k: repr(v) for k, v in e.witness.items()},
        } for e in self.entries]


J_TOLERANCE = Fraction(1, 2)    # the J10-J11.1 tolerance, by default
MU = Fraction(1, 4)             # the T5-T7 tolerance mu, at every stage
RETRY_BUDGET = 32               # build_words' attempts before it gives up
_STAGE_MEMO_SIZE = 64           # _stage_table's entries, LRU out


# ---------------------------------------------------------------------------
# built sequences

@dataclass(frozen=True)
class BuiltSequence:
    """A construction sequence plus its class actions and spec report."""

    seq: ConstructionSequence
    actions: tuple               # per stage: GroupActionTable | None
    report: SpecReport | None = None

    def stage(self, n: int) -> StageFamily:
        return self.seq.stage(n)

    @property
    def depth(self) -> int:
        return self.seq.depth


# ---------------------------------------------------------------------------
# E / Q / A checks, each on a _Stage where its SPECS row applies

def _check_E1(st):
    lens = {len(t) for t in st.comps}
    if len(lens) == 1:
        return Verdict("pass", None, None, {})
    return Verdict("fail", None, None, {"lengths": sorted(lens)})


def _check_E2(st):
    counts = _grid_occurrences(st.seq, st.n)
    for w in range(st.s_prev):
        vals = {row[w] for row in counts}
        if len(vals) > 1:
            return Verdict("fail", None, None, {
                "stage": st.n + 1, "word": w, "multiplicities": sorted(vals)})
    return Verdict("pass", None, None,
                   {"multiplicity": counts[0][0] if counts else 0})


def _check_E3(st):
    """Unique readability, on stage n + 1's slots as stage n's canonical
    ids (_Stage.family): no word parses at an offset 0 < off < K_n, with
    every consecutive slot pair in good[off], and no word's last
    k // 2 + 1 slots start a word (another, where that is all of k)."""
    rows, good, _ = st.family
    for wi, r in enumerate(rows):
        pairs = set(zip(r, r[1:]))
        for off in range(1, len(good)):
            if pairs and pairs <= good[off]:
                return Verdict("fail", None, None, {
                    "stage": st.n + 1, "word": wi, "offset": off,
                    "kind": "offset parse"})
    k = len(rows[0])
    half = k // 2 + 1
    for i, r in enumerate(rows):
        second = r[k - half:]
        for j, v in enumerate(rows):
            if (i != j or half < k) and v[:len(second)] == second:
                return Verdict("fail", None, None, {
                    "stage": st.n + 1, "words": (i, j),
                    "kind": "half overlap"})
    return Verdict("pass", None, None, {})


def _check_Q4(st):
    """At the class-founding stage n + 1, the first that acts: classwise
    agreement on an initial proportion of at least 1 - eps_n.  A word
    agrees with its class's first on m K_n symbols and the common prefix
    of the stage-n words at the first slot m whose ids differ."""
    (rows, good, lcp), eps = st.family, Fraction(st.plan_stage.eps_lunate)
    groups, K = {}, len(good)
    for i, c in enumerate(st.classes[1]):
        groups.setdefault(c, []).append(i)
    L = least = K * len(rows[0])
    witness = {}
    for c, members in groups.items():
        ref = rows[members[0]]
        agreed = L
        for i in members[1:]:
            d = next((m * K + lcp[min(a, b), max(a, b)] for m, (a, b) in
                      enumerate(zip(rows[i], ref)) if a != b), L)
            agreed = min(agreed, d)
        if agreed < least:
            least, witness = agreed, {"class": c, "agreed": agreed,
                                      "length": L}
    worst = Fraction(least, L)
    ok = worst >= 1 - eps
    return Verdict("pass" if ok else "fail", 1 - worst, eps,
                   {} if ok else witness)


@lru_cache(maxsize=_STAGE_MEMO_SIZE)
def _family_table(texts, K):
    """What E3 and Q4 read of a stage-n family, its words' texts, all of
    length K = K_n: each word's canonical id, the first index with an equal
    text; good[off], the id pairs (a, b) whose window a[off:] + b[:off] is
    a stage-n text; lcp[a, b], the common prefix of the texts of ids a < b."""
    if {len(t) for t in texts} != {K}:
        raise SequenceError(f"stage words not all of length K_n = {K}")
    first = {}
    ids = tuple(first.setdefault(t, i) for i, t in enumerate(texts))
    reps = tuple(first.values())
    good = tuple(frozenset((a, b) for a in reps for b in reps
                           if texts[a][off:] + texts[b][:off] in first)
                 for off in range(K))
    lcp = {(a, b): next(d for d in range(K) if texts[a][d] != texts[b][d])
           for a in reps for b in reps if a < b}
    return ids, good, lcp


def _check_Q5(st):
    """Past the class-founding stage, where stages n and n + 1 both act,
    the relation must be the propagation of the previous stage's."""
    prev, cur = st.classes
    want = propagate_equivalence(prev, st.comps)
    # compare as partitions (ids may be permuted)
    seen = {}
    for a, b in zip(want, cur):
        if seen.setdefault(a, b) != b:
            return Verdict("fail", None, None, {"stage": st.n + 1})
    if len(set(want)) != len(set(cur)):
        return Verdict("fail", None, None, {"stage": st.n + 1,
                                            "kind": "class count"})
    return Verdict("pass", None, None, {})


def _check_Q6(st):
    """The level-1 relation of stage n + 1 refines the trivial one in
    2^e(n + 1) classes."""
    want = _class_count(st.seq.plan, st.n + 1)
    got = len(set(st.classes[1]))
    if got == want:
        return Verdict("pass", None, None, {"classes": got})
    return Verdict("fail", None, None, {"classes": got, "expected": want})


def _class_count(plan, m):
    """2^e(m), stage m's level-1 class count once classes are founded."""
    return 2 ** plan.stage(min(m, plan.depth - 1)).e


def _check_A7(st):
    if st.entry.free:
        return Verdict("pass", None, None, {})
    return Verdict("fail", None, None, {"kind": "not free"})


def _check_A8(st):
    for g in st.actions[1].generators:
        for (c, side), (_, nside) in g:
            if side == nside:
                return Verdict("fail", None, None, {"class": c})
    return Verdict("pass", None, None, {})


def _check_A9(st):
    """The stage-(n+1) action restricted to the old generators must be
    the skew-diagonal extension of the stage-n action."""
    prev_act, cur_act = st.actions
    try:
        want = skew_diagonal_extend(prev_act, st.comps, st.classes[0])
    except SequenceError as err:
        return Verdict("fail", None, None, {"error": str(err)})
    if want.num_classes != cur_act.num_classes:
        return Verdict("fail", None, None, {"kind": "class count"})
    for gi in range(len(prev_act.generators)):
        if want.generators[gi] != cur_act.generators[gi]:
            return Verdict("fail", None, None, {"generator": gi})
    return Verdict("pass", None, None, {})


# ---------------------------------------------------------------------------
# J-family checks

def _slot_matrix(comps, s_prev):
    """Slot ids over the signed previous-stage alphabet of every signed
    word of the compositions ``comps``: row w is word w, row w + s its
    reverse, whose slots hold reversed words, id = word index + s_prev."""
    rows = [list(t) for t in comps] + \
        [[i + s_prev for i in reversed(t)] for t in comps]
    return np.array(rows, dtype=np.int64)


def _class_members(classes):
    """Sorted class ids, and the 0/1 matrix [word, class] of membership."""
    kinds = sorted(set(classes))
    return kinds, np.array([[c == C for C in kinds] for c in classes],
                           dtype=np.int64)


# a kernel block's float32 products or derived counts: on spec_gate's calls
# 1 << 15 took 15.0 ms, 1 << 16 11.9, 1 << 17 11.0 (+1.6 MB), 1 << 18 12.1
_CHUNK_ELEMS = 1 << 16
# the kernel takes band products while the columns average _BAND_MIN or more
# positions apart: on a full (u, v, t) grid at k = 1024, 4 apart took 63 ms
# (113 as cumsums), 2 apart 114 (151) at s_prev = 2, 1521 (900) at 4
_BAND_MIN = 4
# float filter margin: far above the float64 error of a deviation in [0, 1],
# so the entry holding the exact maximum stays within it of the float
# maximum, and a row holding it keeps a float band bound above the float
# lower bound less it.  The margin only keeps near-ties for an exact
# re-check; distinct deviations |c1/s1 - tn/td| differ by at least
# 1/(s1 s2 td), more than the margin while s1 s2 td < 10^9 (k = 1024 and
# td = 16 give 1.7e7), so that figure sizes the re-check, not correctness.
_FILTER_MARGIN = 1e-9


def _grid(*ranges):
    """Flat index arrays over the product of ``ranges``, last fastest;
    int32 halves the memory of J10's grid (about 65 536 rows at k = 1024)."""
    return tuple(g.ravel() for g in np.meshgrid(*(np.arange(
        r.start, r.stop, dtype=np.int32) for r in ranges), indexing="ij"))


def _prefix_pair_counts(slots, s_prev, U, V, T, cols):
    """Exact prefix pair counts for the rows (U[r], V[r], T[r]) at the
    prefix lengths ``cols``, positive and strictly increasing.  Row r
    pairs word U[r], shifted by T[r], with word V[r]: x holds the local
    pair (a, b) of u's slot at x + t and v's at x, mod s_prev, which names
    the signed pair, as every slot of a signed word has that word's
    parity.  Yields (lo, P) for consecutive blocks of rows
    from row lo, P[i, a s_prev + b, c] = #{x < j: (a, b) at x}, j =
    min(cols[c], k - t).  Every J and T frequency check counts here.

    Only n_ab with a, b >= 1 is counted, a dot product of 0/1 rows
    (Fischer & Paterson, 1974): n_ab = sum_{x < j} hot[u, a - 1, x + t]
    hot[v, b - 1, x], hot[w, a - 1, y] = [word w holds local slot a at y
    < k].  Its partial sums are integers at most k < 2**24, exact in
    float32 in any order, on any BLAS and thread count.  With few columns
    one float32 accumulator adds, band by band in order, the matrix
    products of rows (u, a, t), for every u and t from min(T) to max(T),
    and columns (v, b); with many, each block of rows takes elementwise
    products and a cumsum.  With the prefix sums Cu_a of u's slot a over
    x + t, x < j, and Cv_b, n_a0 = Cu_a - sum_b n_ab, n_0b = Cv_b - sum_a
    n_ab, n_00 = j - sum Cu_a - sum Cv_b + sum n_ab."""
    if not len(U):
        return
    w, k = slots.shape
    if k >= 1 << 24:
        raise ValueError(f"float32 pair counts need k < 2**24, not {k}")
    m, n, cols, t0 = s_prev - 1, len(U), np.asarray(cols), int(T.min())
    hits = slots % s_prev == np.arange(1, s_prev)[:, None, None]
    # pre[a - 1, w (k + 1) + y]: the x < y where word w holds local slot a
    pre = np.zeros((m, w, k + 1), np.int64)
    hits.cumsum(axis=2, out=pre[:, :, 1:])
    pre = pre.reshape(m, -1)
    hot = np.zeros((w, m, 2 * k), np.float32)
    hot[:, :, :k] = hits.transpose(1, 0, 2)
    L = min(k - t0, int(cols[-1]))      # no row counts a later position
    ends, few = np.minimum(cols, L), len(cols) * _BAND_MIN <= L
    # a block holds at most _CHUNK_ELEMS derived counts, or cumsum products
    step = max(1, _CHUNK_ELEMS // max(s_prev ** 2 * len(cols),
                                      0 if few else m * m * L))
    if few:     # joint[col, u, a - 1, t - t0, v, b - 1]: acc at each column
        nt, x0 = int(T.max()) - t0 + 1, 0
        # hank[u, a - 1, y, p] = hot[u, a - 1, t0 + y + p], at most
        # _CHUNK_ELEMS: the piece [p, q) of a band reads rows y = t - t0 + p
        wide = max(1, _CHUNK_ELEMS // (w * m * (nt + L)))
        hank = hot.take(t0 + np.arange(nt + L)[:, None] + np.arange(wide),
                        axis=2, mode="clip")
        acc = np.zeros((w, m, nt, w, m), np.float32)
        joint = np.empty((len(cols),) + acc.shape, np.float32)
        for c, x in enumerate(ends.tolist()):
            for p in range(x0, x, wide):
                q = min(p + wide, x)
                acc += (hank[:, :, p:p + nt, :q - p]
                        @ hot.reshape(w * m, -1)[:, p:q].T).reshape(acc.shape)
            joint[c], x0 = acc, x
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        ur, vr, tr = U[lo:hi], V[lo:hi], T[lo:hi]
        P = np.empty((s_prev, s_prev, len(cols), hi - lo), np.int64)
        if few:     # [row, col, a - 1, b - 1]
            P[1:, 1:] = joint[:, ur, :, tr - t0, vr].transpose(2, 3, 1, 0)
        else:       # [row, a - 1, b - 1, x]
            at = (ur[:, None] * m + np.arange(m)) * (2 * k) + tr[:, None]
            prod = hot.take(at[:, :, None] + np.arange(L))[:, :, None] * \
                hot[vr, None, :, :L]
            P[1:, 1:] = prod.cumsum(3)[..., ends - 1].transpose(1, 2, 3, 0)
        j = np.minimum(cols[:, None], k - tr, out=P[0, 0])
        at = ur * (k + 1) + tr
        np.subtract(pre.take(at + j, axis=1), pre.take(at, axis=1)[:, None],
                    out=P[1:, 0])
        pre.take(vr * (k + 1) + j, axis=1, out=P[0, 1:])
        P[0] -= np.add.reduce(P[1:], 0)
        P[:, 0] -= np.add.reduce(P[:, 1:], 1)
        yield lo, P.reshape(-1, len(cols), hi - lo).transpose(2, 0, 1)


def _pair_totals(slots, s_prev, U, V, T):
    """Whole-overlap counts [r, a, b]: the x < k - T[r] where word U[r]
    holds local slot a at x + T[r] and word V[r] local slot b at x."""
    out = np.zeros((len(U), s_prev * s_prev), np.int64)
    for lo, P in _prefix_pair_counts(slots, s_prev, U, V, T, slots.shape[1:]):
        out[lo:lo + len(P)] = P[:, :, 0]
    return out.reshape(-1, s_prev, s_prev)


def _signed_pair(local_pair, s_prev, u_rev, v_rev):
    """Witness pair (a, b) over the signed alphabet for a local pair id."""
    a, b = divmod(int(local_pair), s_prev)
    return (a + s_prev * u_rev, b + s_prev * v_rev)


def _worst_entry(counts, sizes, target, tol, witness_of):
    """A frequency check's verdict: pass while _worst is below ``tol``."""
    worst, witness = _worst(counts, sizes, target, witness_of)
    return Verdict("pass" if worst < tol else "fail", worst, tol, witness)


def _worst(counts, sizes, target, witness_of):
    """The largest |counts / sizes - target| of the entries, flat in the
    check's loop order, and its witness; ``target`` is (numerator,
    denominator), each an int or an array broadcast against ``counts``.
    Entries of size 0 are skipped, which is how a check masks one out.

    Each deviation is held as the integers num = |count td - size tn| and
    den = size td, exact in int64 for counts below 2**31.  Floats only pick
    candidates: every entry within _FILTER_MARGIN of the float maximum is
    re-checked by cross-multiplication, in flat order with a strict ">"
    from 0.  The first exact maximum wins and reports ``witness_of(flat
    index)``; with no nonzero deviation the worst is 0, the witness {}."""
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
    return Fraction(*worst), {} if best is None else witness_of(best)


def _prefix_argmax(slots, s_prev, U, V, T, j_lo, groups=None, target=None,
                   totals=None):
    """The prefix deviation each row (U[r], V[r], T[r]) reports: over its
    window j0 in [j_lo, k - t], the first maximum in (group, j0) order of
    the exact |count / j0 - target|.  A group sums the local pairs its row
    of the 0/1 matrix ``groups`` selects; by default every pair is its own
    group and the target is 1 / s_prev^2.  Returns the int arrays count,
    j0 and group there, in row order; a row with an empty window reports
    j0 = 0, which _worst_entry skips.  The same pass fills ``totals``, if
    given, with the whole-overlap counts [r, pair].

    Each deviation is one float division of the exact integers
    |count td - j0 tn| and j0 td, that is the exact deviation correctly
    rounded.  Equal deviations are then equal floats, which argmax takes in
    order, and distinct ones keep their order (see _FILTER_MARGIN); as
    |count / j0 - target|, equal deviations of opposite sign could round
    apart.  Distinct deviations differ by at least 1 / (k^2 td), more than
    the 2^-53 spacing of floats below 1 while k^2 td < 2^53, which is
    checked; the integers then stay exact too."""
    k = slots.shape[1]
    tn, td = (1, s_prev * s_prev) if target is None else \
        (target.numerator, target.denominator)
    if k * k * td >= 2 ** 53:
        raise ValueError(f"k^2 td = {k * k * td} reaches 2**53")
    over = k - T
    # the window and one column past every overlap; past it counts and j0
    # stay put, and argmax takes the first maximum, a j0 in the window
    cols = np.arange(j_lo, max(j_lo - 1, k - int(T.min(initial=k))) + 2)
    out = np.zeros((3, len(U)), np.int64)
    for lo, B in _prefix_pair_counts(slots, s_prev, U, V, T, cols):
        hi = lo + len(B)
        if totals is not None:
            totals[lo:hi] = B[:, :, -1]
        B = B if groups is None else np.matmul(groups, B)
        j0s = np.minimum(cols, over[lo:hi, None, None])
        devs = np.multiply(B, float(td), order="C")
        devs -= j0s * tn
        np.abs(devs, out=devs)
        devs /= j0s * td
        pair, col = np.divmod(devs.reshape(len(B), -1).argmax(axis=1),
                              len(cols))
        at = np.arange(len(B))
        out[:, lo:hi] = B[at, pair, col], j0s[at, 0, col], pair
    out[:, over < j_lo] = 0
    return out


def _band_bound(P, edges, over, tf):
    """Per row of a prefix-kernel block P read at the band ``edges``, that
    rise to the overlap ``over`` and clamp to it: a bound above |count / j0
    - tf| over pairs and j0 in [edges[0], over].  Counts grow with j0, so
    on a band [a, b] count / j0 is in [P(a)/b, P(b)/a]."""
    P = P.transpose(2, 1, 0)
    j0 = np.minimum(edges[:, None], over)
    return np.maximum((P.max(axis=1)[1:] / j0[:-1]).max(axis=0) - tf,
                      tf - (P.min(axis=1)[:-1] / j0[1:]).min(axis=0))


def _banded_argmax(slots, s_prev, U, V, T, j_lo, live):
    """J10.1's _prefix_argmax, against 1 / s_prev^2, on the ``live`` rows
    that can hold the first exact maximum of their window deviations:
    their indices, its arrays for them, and every row's whole-overlap
    counts [r, pair], from one kernel pass read at the band edges.  The
    largest live deviation at j0 = k - t bounds the maximum below, and so
    does the exact maximum of any one row; a row whose _band_bound is
    below the larger, less _FILTER_MARGIN, cannot hold it, and one that
    ties it survives.  A window whose every column is an edge takes one
    _prefix_argmax pass over every row."""
    k, npair = slots.shape[1], s_prev * s_prev
    tf = 1 / npair
    over = k - T
    j_hi, edges = int(over[live].max(initial=j_lo)), [j_lo]
    while edges[-1] < j_hi:     # each band max(1, a // 16) wide from a
        edges.append(min(j_hi, edges[-1] + max(1, edges[-1] // 16)))
    totals = np.zeros((len(U), npair), np.int32)
    rows = np.flatnonzero(live)
    if len(edges) > j_hi - j_lo:    # every column an edge: one full pass
        found = _prefix_argmax(slots, s_prev, U, V, T, j_lo, totals=totals)
        return rows, found[:, rows], totals
    # the edges, then one column past every overlap
    cols, upper = np.array(edges + [k + 1]), np.empty(len(U))
    for lo, P in _prefix_pair_counts(slots, s_prev, U, V, T, cols):
        hi = lo + len(P)
        totals[lo:hi] = P[:, :, -1]
        upper[lo:hi] = _band_bound(P[:, :, :-1], cols[:-1], over[lo:hi], tf)
    top = rows[[upper[rows].argmax()]]
    c, j0, _ = _prefix_argmax(slots, s_prev, U[top], V[top], T[top], j_lo)
    lower = max(np.abs(totals[rows] / over[rows, None] - tf).max(),
                abs(c[0] / j0[0] - tf))
    rows = rows[upper[rows] >= lower - _FILTER_MARGIN]
    return rows, _prefix_argmax(slots, s_prev, U[rows], V[rows], T[rows],
                                j_lo), totals


def _check_J10_J10_1(slots, s_prev, eps, eps_var, tol):
    """J10 over the full overlap of every shift t <= (1 - eps) k, and J10.1
    over every prefix j0 >= eps_var k of every shift t <= (1 - eps_var) k,
    from one pass of the prefix kernel; J10.1's first exact maximum lies
    in the rows its band bound keeps (_banded_argmax).  Returns both
    verdicts and J11's whole-word counts [u < s, v, pair], a read-only copy."""
    w, k = slots.shape
    s, npair = w // 2, s_prev * s_prev
    eps_var = Fraction(eps_var)
    t10 = ceil((1 - Fraction(eps)) * k) - 1
    j_lo = max(1, ceil(eps_var * k))
    t101 = min(ceil((1 - eps_var) * k) - 1, k - j_lo)
    U, V, T = _grid(range(w), range(w), range(max(t10, t101, 0) + 1))
    c101, (counts, j0, pids), totals = _banded_argmax(
        slots, s_prev, U, V, T, j_lo, (T > 0) & (T <= t101))
    whole = totals.reshape(w, w, -1, npair)[:s, :, 0].copy()  # t = 0
    whole.setflags(write=False)

    def wit10(i):
        r, pid = divmod(i, npair)
        u, v, t = int(U[r]), int(V[r]), int(T[r])
        return {"u": u, "v": v, "t": t,
                "pair": _signed_pair(pid, s_prev, u >= s, v >= s),
                "count": int(totals[r, pid]), "overlap": k - t}

    def wit101(i):
        u, v = int(U[c101[i]]), int(V[c101[i]])
        return {"u": u, "v": v, "t": int(T[c101[i]]), "j0": int(j0[i]),
                "pair": _signed_pair(pids[i], s_prev, u >= s, v >= s)}
    # J10: the full overlap of every row with 0 < t <= t10; size 0 skips
    over10 = np.where((T > 0) & (T <= t10), k - T, 0)[:, None]
    return (_worst_entry(totals, over10, (1, npair), tol, wit10),
            _worst_entry(counts, j0, (1, npair), tol, wit101), whole)


def _orbits(s, classes, action):
    """Per pair (u, v) of the s stage-(n+1) words, u unsigned and v signed:
    the element of their ``action`` taking u's signed class to v's, or
    None when none does or the ``classes`` or action are None."""
    elements = None if classes is None or action is None else \
        action.elements
    out = []
    for u in range(s):
        for v in range(2 * s):
            g = None
            if elements is not None:
                cu = (classes[u], FWD)
                cv = (classes[v % s], REV if v >= s else FWD)
                g = next((el for el in elements if el[cu] == cv), None)
            out.append(((u, v), g))
    return out


def _check_J11(whole, orbits, k, s_prev, classes, tol):
    """Whole-word counts of the aligned slot pairs (a, b) of every word
    pair (u, v) of length k: ``whole``[u, v], from J10's pass.  Where stage
    n acts, with ``classes``, and ``orbits`` gives a g taking u's class to
    v's, only the pairs with g(class a) = class b count, against 1 / (Q C^2)
    (level 1); elsewhere every pair counts, against 1 / s_prev^2 (level 0)."""
    s = len(whole)
    if classes is None:
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
    return _worst_entry(whole[U, V].reshape(-1, s_prev, s_prev),
                        np.where(related, k, 0), (1, td[:, None, None]), tol,
                        witness)


def _check_J11_1(slots, s_prev, pairs, eps, tol):
    """Initial and tail prefix counts of the aligned pairs (u, v): the
    prefix kernel's t = 0 rows, on the words and on their reversals."""
    k = slots.shape[1]
    s = len(slots) // 2
    j_lo = max(1, ceil(Fraction(eps) * k))
    # row (w + s) mod 2 s is word w backwards in the same local slots, so
    # its prefixes are w's tails
    uv = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    U, V = np.concatenate([uv, (uv + s) % (2 * s)]).T
    found = _prefix_argmax(slots, s_prev, U, V, np.zeros_like(U), j_lo)
    # [pair, (initial, tail)]
    counts, j0, pids = found.reshape(3, 2, -1).transpose(0, 2, 1)

    def witness(i):
        r, seg = divmod(i, 2)
        return {"u": pairs[r][0], "v": pairs[r][1], "j0": int(j0[r, seg]),
                "segment": ("initial", "tail")[seg],
                "pair": _signed_pair(pids[r, seg], s_prev, False,
                                     pairs[r][1] >= s)}
    return _worst_entry(counts, j0, (1, s_prev * s_prev), tol, witness)


# ---------------------------------------------------------------------------
# gamma cascade

@dataclass(frozen=True)
class GammaCascade:
    values: tuple              # gamma_1 .. gamma_N as exact rationals

    def gamma(self, n: int) -> Fraction:
        return self.values[n - 1]


def gamma_cascade(plan, N: int) -> GammaCascade:
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
    return replace(built, seq=functor_F(built.seq))


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


def check_T4(built: BuiltSequence, n: int, gamma: Fraction) -> Verdict:
    """Inequivalent stage-n circular words must stay gamma-separated in
    normalized Hamming distance on every initial, tail and cross segment
    longer than eps * q_n: 1 minus the largest match frequency, which
    _worst picks from match counts flat in (pair, segment, length) order."""
    seq = built.seq
    if seq.flavor != CIRCULAR:
        raise SequenceError("check_T4 runs on circular sequences")
    if n < 1:       # stage n's words are read against stage n - 1's eps
        raise ValueError("stage out of range")
    fam = seq.stage(n)
    if fam.classes is None:
        raise SequenceError("check_T4 needs the stage's classes")
    if gamma <= 0:
        return Verdict("pass", None, None, {"vacuous": True, "gamma": gamma})
    q = seq.plan.q(n)
    eps = Fraction(seq.plan.stage(n - 1).eps_lunate)
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
    match, witness = _worst(counts, ls, (0, 1), witness)
    worst = 1 - match
    return Verdict("pass" if worst >= gamma else "fail", worst, gamma, witness)


def _check_T5(st):
    """For every preword w0, word w1 (or its reverse), shift t and stage-n
    word v, the class frequencies of w1 at the occurrences of v in w0, at
    x + t against v at x (T5a) and at x against v at x + t (T5b), against
    mu = ``st.tol``."""
    _, kinds, member, tot = st.frequency
    s = len(tot) // 2
    # [w0, w1, t - 1, v, axiom, class]
    c5 = np.stack([tot[:, :s, 1:].transpose(1, 0, 2, 4, 3),
                   tot[:s, :, 1:]], axis=4) @ member

    def wit5(i):
        w0, w1, t, v, axiom, c = np.unravel_index(i, c5.shape)
        return {"axiom": ("T5a", "T5b")[axiom], "w0": int(w0),
                "w1": int(w1), "t": int(t) + 1, "v": int(v),
                "class": kinds[c]}
    return _worst_entry(c5, c5.sum(axis=-1, keepdims=True), (1, len(kinds)),
                        st.tol, wit5)


def _check_T6(st):
    """For every pair of prewords and shift t, the frequency of aligned
    slot pairs whose classes lie in one orbit of the stage-n action, on
    every prefix j0 >= eps k, against mu = ``st.tol``: each (w0, w1, t)
    reports the exact value at its float argmax from one _prefix_argmax
    pass over every row."""
    slots, kinds, member, _ = st.frequency
    action, s_prev = st.actions[0], st.s_prev
    s, k = len(slots) // 2, slots.shape[1]
    eps = Fraction(st.plan_stage.eps_classic)
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
    counts, j0, _ = _prefix_argmax(slots, s_prev, w1, w0, t, j_lo, related,
                                   target)
    return _worst_entry(
        counts, j0, (target.numerator, target.denominator), st.tol,
        lambda i: {"w0": int(w0[i]), "w1": int(w1[i]), "t": int(t[i]),
                   "j0": int(j0[i])})


def _check_T7(st):
    """T5b at t = 0 over the word pairs outside one class orbit, against
    mu = ``st.tol``."""
    _, kinds, member, tot = st.frequency
    pairs = st.entry.unrelated
    w0, w1 = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    c7 = tot[w0, w1, 0] @ member        # [pair, v, class]

    def wit7(i):
        r, v, c = np.unravel_index(i, c7.shape)
        return {"w0": pairs[r][0], "w1": pairs[r][1], "v": int(v),
                "class": kinds[c]}
    return _worst_entry(c7, c7.sum(axis=-1, keepdims=True), (1, len(kinds)),
                        st.tol, wit7)


# ---------------------------------------------------------------------------
# the spec table and the two batteries that run it

def _exact(x):
    """x as its type and ints: no Fraction.__hash__, 1 is not Fraction(1)."""
    return type(x), *x.as_integer_ratio()


class _StageEntry:
    """What a battery derives from stage n, the _stage_table key: stage
    n + 1's compositions, s_prev, both stages' classes and actions, and
    _exact eps, eps_var and tolerance.  Each is made when first read."""

    def __init__(self, *key):
        (self.comps, self.s_prev, self.classes, self.actions, self.eps,
         self.eps_var, self.tol) = key[:4] + tuple(
             kind(Fraction(p, q)) for kind, p, q in key[4:])

    @cached_property
    def j10(self):      # J10, J10.1 and J11's whole-word counts
        return _check_J10_J10_1(_slot_matrix(self.comps, self.s_prev),
                                self.s_prev, self.eps, self.eps_var, self.tol)

    @cached_property
    def free(self):         # A7
        return self.actions[1].free

    @cached_property
    def orbits(self):       # J11
        return _orbits(len(self.comps), self.classes[1], self.actions[1])

    @cached_property
    def unrelated(self):    # J11.1, T7: the pairs outside one orbit
        return tuple(uv for uv, g in self.orbits if g is None)

    @cached_property
    def j11(self):
        return _check_J11(self.j10[2], self.orbits, len(self.comps[0]),
                          self.s_prev, self.actions[0] and self.classes[0],
                          self.tol)

    @cached_property
    def j11_1(self):
        return _check_J11_1(_slot_matrix(self.comps, self.s_prev),
                            self.s_prev, self.unrelated, self.eps, self.tol)


_stage_table = lru_cache(maxsize=_STAGE_MEMO_SIZE)(_StageEntry)


class _Stage:
    """Stage n of ``built`` as one battery's checks read it; ``tol`` is the
    tolerance of its frequency checks, J or T5-T7.  What several checks
    share is made once, when first read."""

    def __init__(self, built: BuiltSequence, n: int, tol: Fraction):
        self.built, self.seq, self.n, self.tol = built, built.seq, n, tol
        self.plan_stage = built.seq.plan.stage(n)
        self.s_prev = built.stage(n).size
        self.comps = built.stage(n + 1).compositions
        self.classes = (built.stage(n).classes, built.stage(n + 1).classes)
        self.actions = built.actions[n:n + 2]
        self.classed = tuple(c is not None for c in self.classes)
        self.acting = tuple(a is not None for a in self.actions)

    @cached_property
    def family(self):   # E3, Q4: stage n + 1's slots as ids, good and lcp
        ids, good, lcp = _family_table(tuple(
            w.materialize() for w in self.built.stage(self.n).words),
            self.seq.word_length(self.n))
        return [tuple(map(ids.__getitem__, c)) for c in self.comps], good, lcp

    @cached_property
    def entry(self):            # the _stage_table entry of this stage
        return _stage_table(self.comps, self.s_prev, self.classes,
                            self.actions, _exact(self.plan_stage.eps_lunate),
                            _exact(self.plan_stage.eps_classic),
                            _exact(self.tol))

    @cached_property
    def frequency(self):
        """What T5, T6 and T7 share: stage n + 1's slot matrix, stage n's
        _class_members, and the whole-overlap counts tot[u, v, t, a, b] of
        every signed (u, v) and shift t <= (1 - eps) k, one _pair_totals
        pass that T5 and T7 read; the kernel shifts its first word u."""
        s_prev, slots = self.s_prev, _slot_matrix(self.comps, self.s_prev)
        s, k = len(slots) // 2, slots.shape[1]
        eps = Fraction(self.plan_stage.eps_classic)
        t_max = max(0, min(int((1 - eps) * k), k - 1))
        tot = _pair_totals(slots, s_prev, *_grid(
            range(2 * s), range(2 * s), range(t_max + 1))).reshape(
                2 * s, 2 * s, t_max + 1, s_prev, s_prev)
        return slots, *_class_members(self.classes[0]), tot


def _always(st):
    return True


# Every spec, in report order: its id in check_specs and in check_timing
# (None where a battery lacks it), the offset of its printed stage from
# the battery's stage n, whether it applies there, and its Verdict check.
SPECS = (
    ("E1", None, 0, _always, _check_E1),
    ("E2", None, 0, _always, _check_E2),
    ("E3", None, 0, _always, _check_E3),
    ("Q4", None, 0, lambda st: st.acting == (False, True) and st.classed[1],
     _check_Q4),
    ("Q5", "T1", 0, lambda st: all(st.acting) and all(st.classed), _check_Q5),
    ("Q6", None, 0, lambda st: st.acting[1] and st.classed[1], _check_Q6),
    ("A7", "T2", 0, lambda st: st.acting[1], _check_A7),
    ("A8", "T3", 0, lambda st: st.acting[1], _check_A8),
    ("A9", None, 0, lambda st: all(st.acting) and st.classed[0], _check_A9),
    ("J10", None, 0, _always, lambda st: st.entry.j10[0]),
    ("J10.1", None, 0, _always, lambda st: st.entry.j10[1]),
    ("J11", None, 0, _always, lambda st: st.entry.j11),
    ("J11.1", None, 0, _always, lambda st: st.entry.j11_1),
    (None, "T4", 1, lambda st: st.classed[1], lambda st: check_T4(
        st.built, st.n + 1, gamma_cascade(st.seq.plan, st.n + 1).gamma(
            st.n + 1))),
    (None, "T5", 0, lambda st: st.classed[0], _check_T5),
    (None, "T6", 0, lambda st: st.classed[0] and st.acting[0], _check_T6),
    (None, "T7", 0, lambda st: st.classed[0], _check_T7),
)
# each battery's rows, (id, offset, applies, check), made once from SPECS
_ROWS = tuple(tuple((r[b], *r[2:]) for r in SPECS if r[b]) for b in (0, 1))


def _run(built, battery, stages, tol, first_failure=False) -> SpecReport:
    """The report of ``battery`` (0 check_specs, 1 check_timing) on the
    ``stages``: at each, every SPECS row with an id in it, in table order,
    its verdict named id@stage; a row that does not apply is not-checked
    and runs no check.  ``first_failure`` ends at the first failure."""
    if built.depth < 1:
        raise SequenceError("need at least two stages")
    entries = []
    for n in stages:
        st = _Stage(built, n, tol)
        for name, offset, applies, check in _ROWS[battery]:
            label = f"{name}@{n + offset}"
            e = SpecEntry(label, *check(st)) if applies(st) else \
                SpecEntry(label, "not-checked")
            entries.append(e)
            if first_failure and e.status == "fail":
                return SpecReport(tuple(entries))
    return SpecReport(tuple(entries))


def check_specs(built: BuiltSequence,
                j_tolerance: Fraction = J_TOLERANCE) -> SpecReport:
    """The E, Q, A and J battery of every stage, in stage order, the J
    checks against ``j_tolerance``."""
    if built.seq.flavor != ODOMETER:
        raise SequenceError("check_specs runs on odometer sequences")
    return _run(built, 0, range(built.depth), j_tolerance)


def check_timing(built: BuiltSequence) -> SpecReport:
    """On the circular lift of the odometer build ``built``, at every stage
    n below depth - 1: T1-T3 structurally, T4 as exact segment distances
    against the cascade's gamma_(n+1), T5-T7 as frequencies against MU."""
    return _run(lift_build(built), 1, range(built.depth - 1), MU)


# ---------------------------------------------------------------------------
# the builder

def _search_separated_pair(rng, plan, gamma, k):
    """Hill-climb a pair of balanced digit words whose circular lifts stay
    gamma-separated on every long initial/tail/cross segment, including
    against their own reversals: 8 restarts of at most 2500 swaps."""
    from .systems import circular_sequence

    def t4_margin(d0, d1):
        seq = circular_sequence(plan, "01", [[tuple(d0), tuple(d1)]])
        seq = with_classes(seq, (None, (0, 1)))
        e = check_T4(BuiltSequence(seq, (None, None)), 1, gamma)
        return e.worst_deviation

    for _ in range(8):
        d0 = [0] * (k // 2) + [1] * (k // 2)
        d1 = list(d0)
        rng.shuffle(d0)
        rng.shuffle(d1)
        if gamma <= 0:    # T4 is vacuous, so the first balanced pair will do
            return tuple(d0), tuple(d1)
        m = t4_margin(d0, d1)
        for _ in range(2500):
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


def _sample_stage(rng, plan, n, prev_classes, Q_next, prefix_lock: bool):
    """Compositions and classes for stage n+1, in Q_next classes or one
    per word if there are fewer words.

    Each class fixes a slot pattern over previous-stage classes; members
    fill the slots with class members so that every previous word appears
    exactly k/prev_size times.  With prefix_lock, members of a class agree
    on the leading slots (the class-founding stage)."""
    k, prev_size, s_next = plan.stage(n).k, len(prev_classes), plan.s(n + 1)
    Q_next = min(Q_next, s_next)
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

    lock = ceil((1 - Fraction(plan.stage(n).eps_lunate)) * k) \
        if prefix_lock else 0
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


def build_words(scaffold, plan, seed: int, level: int,
                j_tolerance: Fraction = J_TOLERANCE,
                style: str = "random") -> BuiltSequence:
    """Seeded, verification-gated construction of an odometer sequence
    with class and action data derived from the group scaffold: attempts
    0 to RETRY_BUDGET - 1 of build_attempt, checked as they are built:
    once stage n + 1 is sampled, stage n's check_specs battery runs against
    ``j_tolerance``, and its first failing spec drops the attempt.  The
    passing attempt carries its batteries as its report; an exhausted
    budget raises BuildError with the full report of the first attempt,
    rebuilt, that failed fewest specs."""
    args = scaffold, plan, seed, level, style
    for attempt in range(RETRY_BUDGET):
        entries = ()
        for built in _attempt_stages(*args, attempt):
            report = _run(built, 0, [built.depth - 1], j_tolerance, True)
            entries += report.entries
            if not report.ok():
                break
        else:
            return replace(built, report=SpecReport(entries))
    best = min((check_specs(build_attempt(*args, a), j_tolerance)
                for a in range(RETRY_BUDGET)), key=lambda r: len(r.failures()))
    raise BuildError(f"retry budget {RETRY_BUDGET} exhausted", best)


def build_attempt(scaffold, plan, seed: int, level: int, style: str = "random",
                  attempt: int = 0) -> BuiltSequence:
    """Attempt ``attempt`` of build_words, unchecked (``report`` is None):
    _attempt_stages run to its last stage."""
    *_, built = _attempt_stages(scaffold, plan, seed, level, style, attempt)
    return built


def _attempt_stages(scaffold, plan, seed, level, style, attempt):
    """The stage loop of one attempt: it yields the build of stages 0 to
    n + 1 once stage n + 1 holds its words, classes and action.  The
    structural constraints hold by construction; the J and T families are
    left to check_specs and check_timing.

    Stage n + 1 acts exactly when the scaffold's first n + 2 nodes hold a
    length-1 node: then in 2^e(n + 1) classes (or one per word), with one
    side-swapping generator per such node, repeating patterns past the
    class count (the desk surrogate for a larger free product); else in
    one (two at the separated style's stage 1).  The first stage that
    acts founds the classes, its words prefix-locked, and starts the
    action afresh; each later one extends it skew-diagonally."""
    if level < 1:
        raise SequenceError("need at least two stages")
    # the scaffold is part of the consumed input, so it salts the entropy
    # stream: builds differ whenever the tree data differs
    rng = random.Random(repr((seed, attempt, scaffold.nodes)))
    stages = [StageFamily(base_stage("01").words, classes=(0, 0))]  # one class
    actions, act = [None], None
    for n in range(level):
        count, prev = scaffold.generator_count(n + 1), stages[-1].classes
        if style == "separated" and n == 0:
            gamma = gamma_cascade(plan, 1).gamma(1)
            comps = _search_separated_pair(rng, plan, gamma, plan.stage(0).k)
            classes = (0, 1)
        else:
            comps, classes = _sample_stage(
                rng, plan, n, prev, _class_count(plan, n + 1) if count else 1,
                prefix_lock=count > 0 and act is None)
        if count:
            gens = () if act is None else \
                skew_diagonal_extend(act, comps, prev).generators
            Q = len(set(classes))
            while len(gens) < count:
                gens += (_shift_swap_generator(Q, len(gens) % Q),)
            act = GroupActionTable(Q, gens)
        stages.append(odometer_stage(stages[-1], comps, classes))
        actions.append(act)
        yield BuiltSequence(ConstructionSequence(ODOMETER, plan, tuple(
            stages)), tuple(actions))


def _shift_swap_generator(nclasses: int, j: int) -> dict:
    """Involutive side-swapping generator shifting class ids by j."""
    g = {}
    for c in range(nclasses):
        g[(c, FWD)] = ((c + j) % nclasses, REV)
        g[(c, REV)] = ((c - j) % nclasses, FWD)
    return g
