"""The circular interleaving operator, its mirror, and the parser.

apply_C produces the stage word b^(q-j_i) w_j^(l-1) e^(j_i) taken over
i < q, j < k; apply_Cr is the mirrored product with j_{i+1} runs and
reversed argument order.  parse_circular inverts apply_C and exposes the
subscale anatomy (2-subsections, 1-subsections, 0-subsections, boundary).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coefficients import dynamical_index
from .words import (Literal, Word, CircularNode, ReversedNode, _Sectioned,
                    SYMBOL_B, SYMBOL_E)


class CircularParseError(ValueError):
    def __init__(self, position, expected, found, message=""):
        self.position = position
        self.expected = expected
        self.found = found
        super().__init__(
            message or f"not a circular word: at position {position} "
                       f"expected {expected!r}, found {found!r}")


def stage_tuple(stage):
    k, l, p, q = stage
    if k < 1 or l < 2 or q < 1:
        raise ValueError(f"bad stage {stage}")
    return k, l, p, q


def apply_C(preword, stage) -> CircularNode:
    """Interleave a k-tuple of length-q words at stage (k, l, p, q)."""
    k, l, p, q = stage_tuple(stage)
    children = tuple(w if isinstance(w, Word) else Literal(w) for w in preword)
    if len(children) != k:
        raise ValueError(f"preword arity {len(children)} != k = {k}")
    return CircularNode(children, k=k, l=l, p=p, q=q)


class CircularRNode(_Sectioned):
    """Image of the mirrored operator: product over i < q, j < k of
    e^(q-j_{i+1}) w_{k-j-1}^(l-1) b^(j_{i+1}), with j_q taken as 0."""

    def _erun(self, i: int) -> int:
        # row i carries e^(q-j_{i+1}) ... b^(j_{i+1}); at the last row the
        # exponent q-j_q is read as j_{q-1-i} = 0 when q > 1, which is what
        # makes this the exact mirror of the forward operator.  At q = 1 the
        # substitution degenerates and j_q = 0 is applied literally.
        if self.q == 1:
            return 1
        return dynamical_index(self.p, self.q, self.q - 1 - i)

    def _section(self, t: int):
        i, j = divmod(t, self.k)
        return (SYMBOL_E, self._erun(i), self.children[self.k - j - 1],
                SYMBOL_B)


def apply_Cr(preword, stage) -> CircularRNode:
    k, l, p, q = stage_tuple(stage)
    children = tuple(w if isinstance(w, Word) else Literal(w) for w in preword)
    if len(children) != k:
        raise ValueError(f"preword arity {len(children)} != k = {k}")
    return CircularRNode(children, k=k, l=l, p=p, q=q)


def reversal_identity_applies(stage) -> bool:
    """rev(C(w)) = Cr(rev w_0, ..., rev w_{k-1}) is derived via
    q - j_i = j_{q-i}, which degenerates at q = 1."""
    return stage_tuple(stage)[3] > 1


# ---------------------------------------------------------------------------
# anatomy

@dataclass(frozen=True)
class SubscaleDecomposition:
    k: int
    l: int
    p: int
    q: int
    preword: tuple          # k recovered words of length q
    j: tuple                # j_i for i in [0, q)

    @property
    def length(self) -> int:
        return self.k * self.l * self.q * self.q

    @property
    def section_length(self) -> int:
        return self.l * self.q

    @property
    def boundary_count(self) -> int:
        # each of the k*q 1-subsections carries exactly q spacer symbols
        return self.k * self.q * self.q

    @property
    def boundary_fraction(self) -> Fraction:
        return Fraction(1, self.l)

    def section_of(self, x: int):
        """(i, j, part, local) for position x; part in {'b','w','e'},
        local = offset within the run or within the 0-subsection power."""
        t, off = divmod(x, self.section_length)
        i, j = divmod(t, self.k)
        ji = self.j[i]
        brun = self.q - ji
        if off < brun:
            return i, j, "b", off
        off -= brun
        if off < (self.l - 1) * self.q:
            return i, j, "w", off
        return i, j, "e", off - (self.l - 1) * self.q

    def is_boundary(self, x: int) -> bool:
        return self.section_of(x)[2] in ("b", "e")

    def subword_starts(self):
        """Start positions of the (l-1) aligned n-subword copies in each
        1-subsection, in order."""
        sec = self.section_length
        for t in range(self.k * self.q):
            i = t // self.k
            base = t * sec + (self.q - self.j[i])
            for m in range(self.l - 1):
                yield base + m * self.q

    def near_boundary_count(self, radius: int | None = None) -> int:
        """Exact count of positions within ``radius`` (default q) of a
        boundary position, boundary included."""
        radius = self.q if radius is None else radius
        total = 0
        runs = []  # spacer runs as (start, end)
        sec = self.section_length
        for t in range(self.k * self.q):
            i = t // self.k
            ji = self.j[i]
            base = t * sec
            if self.q - ji:
                runs.append((base, base + self.q - ji))
            if ji:
                runs.append((base + sec - ji, base + sec))
        merged = []
        for a, b in runs:
            a, b = max(0, a - radius), min(self.length, b + radius)
            if merged and a <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], b))
            else:
                merged.append((a, b))
        for a, b in merged:
            total += b - a
        return total


def parse_circular(w, stage) -> SubscaleDecomposition:
    """Invert apply_C, recovering the preword, or diagnose the first
    divergent position.  Structural inputs are taken apart by node
    shape; literals are read and checked against their rebuild."""
    k, l, p, q = stage_tuple(stage)
    js = tuple(dynamical_index(p, q, i) for i in range(q))
    if isinstance(w, CircularNode) and (w.k, w.l, w.p, w.q) == (k, l, p, q):
        return SubscaleDecomposition(k, l, p, q, w.children, js)
    text = w.materialize() if isinstance(w, Word) else w
    if text is None:
        raise ValueError("word too large to scan; pass the structural node")
    if len(text) != k * l * q * q:
        raise CircularParseError(len(text), k * l * q * q, None,
                                 f"length {len(text)} != k*l*q^2")
    # j_0 = 0, so 1-subsection j opens with q b's and then copy 0 of w_j
    sec = l * q
    children = tuple(Literal(text[j * sec + q:j * sec + 2 * q])
                     for j in range(k))
    rebuilt = apply_C(children, stage).materialize(len(text))
    if rebuilt != text:
        pos = next(i for i, (x, y) in enumerate(zip(rebuilt, text)) if x != y)
        raise CircularParseError(pos, rebuilt[pos], text[pos])
    return SubscaleDecomposition(k, l, p, q, children, js)


# ---------------------------------------------------------------------------
# cross alignment

@dataclass(frozen=True)
class AlignmentPiece:
    key: int          # 2-subsection index offset i_v - i_u
    shift_mod_q: int  # offset of aligned copies within v's subword grid
    count: int
    first_u_start: int
    last_u_start: int


@dataclass(frozen=True)
class AlignmentReport:
    shift: int
    pieces: tuple
    even_shift: int | None    # shift on the lower 2-subsection key
    odd_shift: int | None     # shift on the upper key
    relation_holds: bool | None   # even = odd - j_1 (mod q)
    trivial_left: bool
    trivial_right: bool
    boundary_hits: int
    checked: bool             # False when v is reversed (relation n/a)


def cross_alignment(u, v, shift: int) -> AlignmentReport:
    """Classify how u's aligned n-subword copies land inside v when v is
    displaced by ``shift`` (u[x] against v[x - shift])."""
    du = parse_circular(u, (u.k, u.l, u.p, u.q)) if isinstance(u, CircularNode) \
        else u if isinstance(u, SubscaleDecomposition) else None
    if du is None:
        raise ValueError("u must be a circular node or decomposition")
    reversed_v = isinstance(v, ReversedNode)
    core = v.child if reversed_v else v
    dv = parse_circular(core, (core.k, core.l, core.p, core.q)) \
        if isinstance(core, CircularNode) else core
    if not isinstance(dv, SubscaleDecomposition):
        raise ValueError("v must be a circular node or decomposition")
    if (du.k, du.l, du.q) != (dv.k, dv.l, dv.q):
        raise ValueError("u and v must share a stage")
    q, k, l = du.q, du.k, du.l
    L = du.length
    if abs(shift) >= L:
        raise ValueError("|shift| must be below the word length")
    j1 = du.j[1] if q > 1 else 0
    groups: dict[tuple, list] = {}
    boundary_hits = 0
    for a in du.subword_starts():
        y = a - shift
        if y < 0 or y + q > L:
            continue
        yy = (L - q - y) if reversed_v else y
        t_v, off = divmod(yy, dv.section_length)
        i_v, _ = divmod(t_v, k)
        brun = q - dv.j[i_v]
        if not (brun <= off and off + q <= brun + (l - 1) * q):
            boundary_hits += 1
            continue
        d = (off - brun) % q
        if reversed_v:
            d = (q - d) % q
        i_u = (a // du.section_length) // k
        key = i_v - i_u
        groups.setdefault((key, d), []).append(a)
    pieces = tuple(
        AlignmentPiece(key=key, shift_mod_q=d, count=len(starts),
                       first_u_start=min(starts), last_u_start=max(starts))
        for (key, d), starts in sorted(groups.items()))
    keys = sorted({p.key for p in pieces})
    even = odd = None
    relation = None
    if keys:
        lo = keys[0]
        evens = {p.shift_mod_q for p in pieces if p.key == lo}
        odds = {p.shift_mod_q for p in pieces if p.key == lo + 1}
        even = min(evens) if evens else None
        odd = min(odds) if odds else None
        if not reversed_v:
            ok = len(keys) <= 2 and (len(keys) < 2 or keys[1] == lo + 1)
            ok = ok and len(evens) <= 1 and len(odds) <= 1
            if ok and even is not None and odd is not None:
                ok = (even - (odd - j1)) % q == 0
            relation = ok
    return AlignmentReport(
        shift=shift, pieces=pieces, even_shift=even, odd_shift=odd,
        relation_holds=relation,
        trivial_left=bool(keys) and len(keys) == 1,
        trivial_right=not keys,
        boundary_hits=boundary_hits,
        checked=not reversed_v)
