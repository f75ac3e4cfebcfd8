"""Finite stand-ins for points: tower windows, location sequences r_n,
maturity against the edge sets, the spacer-factor projection, and the
interval ordering D_n.

A window is a tower position inside one top-stage word, extended
periodically.  All location data descends through the subword grid, which
depends only on the stage parameters, never on the symbols.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import floor

import numpy as np

from .coefficients import dynamical_index, inverse_mod
from .words import (Word, Literal, Power, Concat, CircularNode, ReversedNode,
                    SYMBOL_B, SYMBOL_E, SYMBOL_STAR)
from .systems import ConstructionSequence, CIRCULAR


@dataclass(frozen=True)
class Location:
    """r_n or the reason it is undefined."""
    value: int | None
    reason: str | None = None

    @property
    def defined(self) -> bool:
        return self.value is not None


@dataclass(frozen=True)
class PointWindow:
    seq: ConstructionSequence
    M: int
    word_index: int
    anchor: int              # tower position r_M in [0, q_M)

    def __post_init__(self):
        if self.seq.flavor != CIRCULAR:
            raise ValueError("windows live over circular sequences")
        qM = self.seq.plan.q(self.M)
        if not 0 <= self.anchor < qM:
            raise ValueError("anchor outside the tower")

    @property
    def word(self) -> Word:
        return self.seq.stage(self.M).words[self.word_index]

    def symbol(self, i: int) -> str:
        qM = self.seq.plan.q(self.M)
        return self.word.symbol_at((self.anchor + i) % qM)

    def window_text(self, a: int, b: int) -> str:
        return "".join(self.symbol(i) for i in range(a, b))


def descend(st, x):
    """One level of the subword grid.  x is a position inside a stage-(m+1)
    block and st is plan.stage(m); returns (i, j, copy, r, ok): the
    section i, the 1-subsection j, the copy of the m-block that x falls in
    and its position r inside that copy.  ok is False where x lies in a
    spacer run, and then copy and r mean nothing.

    Plain integer arithmetic, so x may be an int or an int64 array."""
    q = st.q
    sec = st.l * q
    t = x // sec
    i = t // st.k
    off = x - t * sec - q + inverse_mod(st.p, q) * i % q
    return i, t % st.k, off // q, off % q, (off >= 0) & (off < sec - q)


def locate(pw: PointWindow, n: int) -> Location:
    """The position of the window origin inside its principal n-block,
    undefined when some intermediate level puts it in a spacer run."""
    if not 0 <= n <= pw.M:
        raise ValueError("stage out of range")
    plan = pw.seq.plan
    x = pw.anchor
    for m in range(pw.M - 1, n - 1, -1):
        *_, x, ok = descend(plan.stage(m), x)
        if not ok:
            return Location(None, f"boundary at stage {m + 1}")
    return Location(x)


@dataclass(frozen=True)
class MaturityResult:
    mature: bool
    violated: str | None = None   # e.g. "copy-edge@2"


def maturity(pw: PointWindow, n: int) -> MaturityResult:
    """Mature at n: at every level m in [n, M) the origin has a defined
    location and its descent coordinates avoid the first/last edge bands
    of copies, 1-subsections and 2-subsections."""
    if not 0 <= n < pw.M:
        raise ValueError("need n < M")
    plan = pw.seq.plan
    x = pw.anchor
    for m in range(pw.M - 1, n - 1, -1):
        st = plan.stage(m)
        i, j, copy, x, ok = descend(st, x)
        if not ok:
            return MaturityResult(False, f"boundary@{m + 1}")
        e0, e1, e2 = st.edge_bands
        if copy < e0 or copy >= (st.l - 1) - e0:
            return MaturityResult(False, f"copy-edge@{m}")
        if j < e1 or j >= st.k - e1:
            return MaturityResult(False, f"subsection-edge@{m}")
        if i < e2 or i >= st.q - e2:
            return MaturityResult(False, f"section-edge@{m}")
    return MaturityResult(True)


def immature_fraction(seq, M: int, word_index: int, n: int) -> Fraction:
    qM = seq.plan.q(M)
    bad = sum(
        not maturity(PointWindow(seq, M, word_index, a), n).mature
        for a in range(qM))
    return Fraction(bad, qM)


# ---------------------------------------------------------------------------
# spacer-factor projection

def project_pi(w: Word) -> Word:
    """Keep b and e, blank every other symbol to '*'."""
    if isinstance(w, Literal):
        return Literal("".join(
            c if c in (SYMBOL_B, SYMBOL_E) else SYMBOL_STAR for c in w.text))
    if isinstance(w, Power):
        return Power(project_pi(w.child), w.exponent)
    if isinstance(w, Concat):
        return Concat(tuple(project_pi(c) for c in w.children))
    if isinstance(w, CircularNode):
        return CircularNode(tuple(project_pi(c) for c in w.children),
                            k=w.k, l=w.l, p=w.p, q=w.q)
    if isinstance(w, ReversedNode):
        return ReversedNode(project_pi(w.child))
    raise TypeError(f"unknown node {type(w).__name__}")


# ---------------------------------------------------------------------------
# interval ordering

def D_n(x: Fraction, stage) -> int:
    """Index of the dynamically-ordered q-interval containing x: the j
    with x in [jp/q, jp/q + 1/q) taken mod 1."""
    p, q = stage
    x = Fraction(x)
    if not 0 <= x < 1:
        raise ValueError("x must lie in [0, 1)")
    return dynamical_index(p, q, floor(x * q))


def sample_point(seq, M: int, seed: int) -> PointWindow:
    rng = random.Random(seed)
    fam = seq.stage(M)
    return PointWindow(seq, M, rng.randrange(fam.size),
                       rng.randrange(seq.plan.q(M)))


# ---------------------------------------------------------------------------
# bulk tables

def location_tables(plan, M: int, n_min: int = 0) -> dict:
    """r_n for every tower position at once: maps n to an int64 array of
    length q_M holding r_n(x), with -1 where undefined.  Pure grid
    arithmetic; no symbols touched."""
    cur = np.arange(plan.q(M), dtype=np.int64)
    out = {M: cur}
    for m in range(M - 1, n_min - 1, -1):
        *_, r, ok = descend(plan.stage(m), cur)
        cur = np.where(ok & (cur >= 0), r, -1)
        out[m] = cur
    return out
