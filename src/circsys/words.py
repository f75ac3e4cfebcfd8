"""Structured symbolic words: indexing, reversal, d-bar.

Words are immutable node trees (literal / power / concat / circular /
reversed) carrying exact big-integer lengths.  Indexing a nested power or
circular node costs one descent, so doubly-exponential stage words stay
cheap to probe without ever being written out.  The materialization cap
decides when the exact d-bar path is taken; above it a seeded sampler
with a Hoeffding half-width is used instead.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .coefficients import dynamical_index

MATERIALIZE_CAP = 2 ** 20

SYMBOL_B = "b"
SYMBOL_E = "e"
SYMBOL_STAR = "*"


class WordIndexError(IndexError):
    pass


class Word:
    """Base class; nodes implement length and range extraction."""

    length: int

    def __len__(self):
        return self.length

    def symbol_at(self, i: int) -> str:
        if not 0 <= i < self.length:
            raise WordIndexError(f"index {i} outside [0, {self.length})")
        return self._extract(i, i + 1)

    def extract(self, a: int, b: int) -> str:
        """The substring on [a, b) as a plain string."""
        if not 0 <= a <= b <= self.length:
            raise WordIndexError(f"range [{a},{b}) outside [0, {self.length})")
        if b - a > MATERIALIZE_CAP:
            raise WordIndexError(f"range of {b - a} symbols exceeds cap")
        return self._extract(a, b)

    def materialize(self, cap: int = MATERIALIZE_CAP) -> str | None:
        if self.length > cap:
            return None
        return self._extract(0, self.length)

    def _extract(self, a: int, b: int) -> str:
        raise NotImplementedError

    def _parts(self) -> tuple:
        """(shape, children).  The shape fixes each child's length and
        every child shows in a nonempty word's text, so words of one node
        type and one shape are equal exactly when their children (a
        Literal's one child is its text) are pairwise equal."""
        raise NotImplementedError

    def __eq__(self, other):
        """Exact at every length: equal shapes recurse into the
        children, anything else is compared chunk by chunk, which costs
        time in proportion to the length."""
        if not isinstance(other, Word):
            return NotImplemented
        if self is other:
            return True
        if self.length != other.length:
            return False
        if self.length == 0:
            return True
        if type(self) is type(other):
            shape, children = self._parts()
            other_shape, other_children = other._parts()
            if shape == other_shape:
                return all(x == y for x, y in zip(children, other_children))
        return all(su == sv for su, sv in
                   _aligned_chunks(self, other, 0, self.length))

    def __hash__(self):
        if self.length <= 64:
            return hash(self._extract(0, self.length))
        return hash((self.length, self._extract(0, 32),
                     self._extract(self.length - 32, self.length)))


@dataclass(frozen=True, eq=False)
class Literal(Word):
    text: str

    @property
    def length(self) -> int:
        return len(self.text)

    def _extract(self, a, b):
        return self.text[a:b]

    def _parts(self):
        return None, (self.text,)

    def __repr__(self):
        t = self.text if len(self.text) <= 32 else self.text[:29] + "..."
        return f"Literal({t!r})"


@dataclass(frozen=True, eq=False)
class Power(Word):
    child: Word
    exponent: int

    def __post_init__(self):
        if self.exponent < 0:
            raise ValueError("exponent must be nonnegative")

    @property
    def length(self) -> int:
        return self.child.length * self.exponent

    def _extract(self, a, b):
        c = self.child.length
        if c == 0 or a == b:
            return ""
        first, last = a // c, (b - 1) // c
        parts = []
        for m in range(first, last + 1):
            lo = max(a - m * c, 0)
            hi = min(b - m * c, c)
            parts.append(self.child._extract(lo, hi))
        return "".join(parts)

    def _parts(self):
        return (self.exponent, self.child.length), (self.child,)

    def __repr__(self):
        return f"Power({self.child!r}, {self.exponent})"


@dataclass(frozen=True, eq=False)
class Concat(Word):
    children: tuple

    def __post_init__(self):
        offsets = [0]
        for ch in self.children:
            offsets.append(offsets[-1] + ch.length)
        object.__setattr__(self, "_offsets", tuple(offsets))

    @property
    def length(self) -> int:
        return self._offsets[-1]

    def _extract(self, a, b):
        if a == b:
            return ""
        offs = self._offsets
        parts = []
        i = bisect_right(offs, a) - 1
        while i < len(self.children) and offs[i] < b:
            lo = max(a - offs[i], 0)
            hi = min(b - offs[i], self.children[i].length)
            if hi > lo:
                parts.append(self.children[i]._extract(lo, hi))
            i += 1
        return "".join(parts)

    def _parts(self):
        return self._offsets, self.children

    def __repr__(self):
        return f"Concat({list(self.children)!r})"


@dataclass(frozen=True, eq=False)
class _Sectioned(Word):
    """The shared walk of the interleaving operators: k*q 1-subsections of
    l*q symbols, section t = i*k + j holding a lead run, the (l-1)-fold
    power of one child and a tail run.  Subclasses name the runs."""

    children: tuple          # k words, each of length q
    k: int
    l: int
    p: int
    q: int

    def __post_init__(self):
        if self.l < 2:
            raise ValueError(f"need l >= 2, got l = {self.l}")
        if len(self.children) != self.k:
            raise ValueError(f"need {self.k} children, got {len(self.children)}")
        for ch in self.children:
            if ch.length != self.q:
                raise ValueError(
                    f"child length {ch.length} != q = {self.q}")

    @property
    def length(self) -> int:
        return self.k * self.l * self.q * self.q

    def _section(self, t: int):
        """1-subsection t as (lead symbol, lead length, child, tail
        symbol); the tail fills the section."""
        raise NotImplementedError

    def _extract(self, a, b):
        if a == b:
            return ""
        sec_len = self.l * self.q
        body = (self.l - 1) * self.q
        parts = []
        for t in range(a // sec_len, (b - 1) // sec_len + 1):
            base = t * sec_len
            lo, hi = max(a - base, 0), min(b - base, sec_len)
            lead_sym, lead, child, tail_sym = self._section(t)
            if lo < lead:
                parts.append(lead_sym * (min(hi, lead) - lo))
            plo, phi = max(lo - lead, 0), min(hi - lead, body)
            if phi > plo:
                parts.append(Power(child, self.l - 1)._extract(plo, phi))
            tlo, thi = max(lo - lead - body, 0), hi - lead - body
            if thi > tlo:
                parts.append(tail_sym * (thi - tlo))
        return "".join(parts)

    def _parts(self):
        return (self.k, self.l, self.p, self.q), self.children


class CircularNode(_Sectioned):
    """Image of the interleaving operator at stage parameters (k,l,p,q).

    Expansion: product over i in [0,q), j in [0,k) of
    b^(q-j_i) w_j^(l-1) e^(j_i), where j_i = p^{-1} i mod q.
    """

    def _section(self, t: int):
        i, j = divmod(t, self.k)
        return (SYMBOL_B, self.q - dynamical_index(self.p, self.q, i),
                self.children[j], SYMBOL_E)

    def __repr__(self):
        return (f"CircularNode(k={self.k}, l={self.l}, p={self.p}, "
                f"q={self.q}, children={list(self.children)!r})")


@dataclass(frozen=True, eq=False)
class ReversedNode(Word):
    child: Word

    @property
    def length(self) -> int:
        return self.child.length

    def _extract(self, a, b):
        n = self.length
        return self.child._extract(n - b, n - a)[::-1]

    def _parts(self):
        return None, (self.child,)

    def __repr__(self):
        return f"ReversedNode({self.child!r})"


def word(text: str) -> Literal:
    return Literal(text)


def reverse(w: Word) -> Word:
    """Structural reversal.  b and e are NOT swapped."""
    if isinstance(w, ReversedNode):
        return w.child
    if isinstance(w, Literal):
        return Literal(w.text[::-1])
    if isinstance(w, Power):
        return Power(reverse(w.child), w.exponent)
    if isinstance(w, Concat):
        return Concat(tuple(reverse(c) for c in reversed(w.children)))
    return ReversedNode(w)


def _aligned_chunks(u: Word, v: Word, a: int, n: int):
    """u[a:a+n] and v[a:a+n] as aligned pairs of strings of at most
    2^16 symbols each."""
    step = 1 << 16
    for off in range(a, a + n, step):
        m = min(step, a + n - off)
        yield u._extract(off, off + m), v._extract(off, off + m)


# ---------------------------------------------------------------------------
# d-bar

@dataclass(frozen=True)
class DbarResult:
    kind: str                # "exact" | "estimate"
    value: Fraction
    interval: tuple
    half_width: Fraction | None = None
    confidence: Fraction | None = None
    samples: int | None = None

    def __float__(self):
        return float(self.value)


DBAR_CONFIDENCE = Fraction(99, 100)


def dbar(u: Word, v: Word, interval: tuple | None = None, *,
         mode: str = "auto", seed: int = 0, samples: int = 4096
         ) -> DbarResult:
    """Hamming density of disagreement between u[a:b] and v[a:b].

    Exact when the interval fits under MATERIALIZE_CAP (or
    mode="exact"), otherwise an unbiased seeded estimate whose Hoeffding
    half-width holds with the fixed confidence 99/100 (DBAR_CONFIDENCE).
    """
    a, b = interval if interval is not None else (0, min(u.length, v.length))
    if b <= a:
        raise ValueError("empty interval")
    if a < 0 or b > u.length or b > v.length:
        raise WordIndexError("interval outside a word's domain")
    n = b - a
    if mode == "exact" or (mode == "auto" and n <= MATERIALIZE_CAP):
        diff = sum(x != y for su, sv in _aligned_chunks(u, v, a, n)
                   for x, y in zip(su, sv))
        return DbarResult("exact", Fraction(diff, n), (a, b))
    if samples < 1:
        raise ValueError("samples must be positive")
    rng = random.Random(seed)
    hits = sum(u.symbol_at(a + i) != v.symbol_at(a + i)
               for i in (rng.randrange(n) for _ in range(samples)))
    delta = 1 - DBAR_CONFIDENCE
    hw = math.sqrt(math.log(2 / float(delta)) / (2 * samples))
    return DbarResult("estimate", Fraction(hits, samples), (a, b),
                      half_width=Fraction(hw).limit_denominator(10 ** 9),
                      confidence=DBAR_CONFIDENCE, samples=samples)


# ---------------------------------------------------------------------------
# unique readability

@dataclass(frozen=True)
class ParseCertificate:
    readable: bool
    counterexample: tuple | None = None   # (u, v, w, offset in uv)
    parse: tuple | None = None            # ((pos, word_index), ...)
    second_parse: tuple | None = None
    parse_count: int = 0


def _full_parses(text: str, words: list[str]) -> list[tuple]:
    """Up to two distinct full covers of text by family words,
    allowing single b/e spacer symbols between (and around) words."""
    n = len(text)
    spacer = {SYMBOL_B, SYMBOL_E}
    parses: list[list[tuple]] = [[] for _ in range(n + 1)]
    parses[n] = [()]
    for i in range(n - 1, -1, -1):
        found = []
        if text[i] in spacer:
            found.extend(parses[i + 1])
        for wi, w in enumerate(words):
            if text.startswith(w, i):
                for tail in parses[i + len(w)]:
                    found.append(((i, wi),) + tail)
        uniq = []
        for p in found:
            if p not in uniq:
                uniq.append(p)
            if len(uniq) == 2:
                break
        parses[i] = uniq
    return parses[0]


def unique_readability(family, probe: Word | None = None) -> ParseCertificate:
    """Readability of a word family, optionally with a probe parse.

    A family is readable when every two-member concatenation has exactly
    one full cover by members and b/e spacer symbols.  A probe, if
    given, is parsed the same way; the unique parse is returned, or two
    distinct parses as the witness.
    """
    words = [w.materialize() if isinstance(w, Word) else w for w in family]
    if not words or any(w is None for w in words):
        raise ValueError("family must be nonempty and materializable")
    for wu in words:
        for wv in words:
            got = _full_parses(wu + wv, words)
            if len(got) > 1:
                return ParseCertificate(False, counterexample=(wu, wv),
                                        parse=got[0], second_parse=got[1],
                                        parse_count=2)
    if probe is None:
        return ParseCertificate(True)
    text = probe.materialize() if isinstance(probe, Word) else probe
    if text is None:
        raise ValueError("probe too large to materialize")
    got = _full_parses(text, words)
    if not got:
        raise ValueError("probe not parseable over the family")
    if len(got) == 1:
        return ParseCertificate(True, parse=got[0], parse_count=1)
    return ParseCertificate(False, parse=got[0], second_parse=got[1],
                            parse_count=2)


# ---------------------------------------------------------------------------
# JSON

def word_to_obj(w: Word, memo: dict | None = None):
    """JSON object of a word tree, a dict.  ``memo`` maps id(word) to
    (word, obj) and lives as long as the caller keeps it, one document at
    most (one sequence_to_obj call): the entry holds the word, so no id is
    reused, and every occurrence of a shared sub-word maps to one shared
    dict, which cli._render renders once per depth."""
    memo = {} if memo is None else memo
    hit = memo.get(id(w))
    if hit is not None:
        return hit[1]
    if isinstance(w, Literal):
        runs = []
        for ch in w.text:
            if runs and runs[-1]["sym"] == ch:
                runs[-1]["n"] += 1
            else:
                runs.append({"sym": ch, "n": 1})
        obj = {"type": "literal", "runs": runs}
    elif isinstance(w, Power):
        obj = {"type": "power", "n": str(w.exponent),
               "child": word_to_obj(w.child, memo)}
    elif isinstance(w, Concat):
        obj = {"type": "concat",
               "children": [word_to_obj(c, memo) for c in w.children]}
    elif isinstance(w, CircularNode):
        obj = {"type": "circular", "k": str(w.k), "l": str(w.l),
               "p": str(w.p), "q": str(w.q),
               "children": [word_to_obj(c, memo) for c in w.children]}
    elif isinstance(w, ReversedNode):
        obj = {"type": "reversed", "child": word_to_obj(w.child, memo)}
    else:
        raise TypeError(type(w))
    memo[id(w)] = (w, obj)
    return obj
