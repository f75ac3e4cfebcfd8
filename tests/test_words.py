"""Structured words, the d-bar density, and readability certificates."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from circsys.circular import CircularRNode
from circsys.words import (CircularNode, Concat, Literal, Power, ReversedNode,
                           WordIndexError, _Sectioned, count_pair_occurrences,
                           dbar, reverse, unique_readability, word,
                           word_from_json, word_from_obj, word_to_json,
                           word_to_obj)

texts = st.text(alphabet="01be", min_size=1, max_size=40)


def build_tree(text, depth=2):
    """A random structural word materializing to text repeated 2^depth."""
    w = Literal(text)
    for _ in range(depth):
        w = Power(w, 2) if len(text) % 2 else Concat((w, w))
    return w


class TestExtraction:
    @given(texts, st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_extract_matches_flat_string(self, text, depth):
        w = build_tree(text, depth)
        flat = text * (2 ** depth)
        assert w.length == len(flat)
        assert w.materialize() == flat
        n = len(flat)
        for a, b in [(0, n), (n // 3, 2 * n // 3 + 1), (n - 1, n)]:
            assert w.extract(a, b) == flat[a:b]

    def test_power_without_materializing(self):
        # 2^40 symbols: only window access is feasible
        w = Power(Literal("01"), 2 ** 39)
        assert w.length == 2 ** 40
        assert w.materialize() is None
        assert w.extract(2 ** 39, 2 ** 39 + 4) == "0101"

    def test_out_of_range(self):
        with pytest.raises(WordIndexError):
            word("abc").symbol_at(3)


class TestReverse:
    @given(texts)
    @settings(max_examples=40, deadline=None)
    def test_reverse_matches_slice(self, text):
        assert reverse(word(text)).materialize() == text[::-1]

    @given(texts)
    @settings(max_examples=40, deadline=None)
    def test_involution(self, text):
        w = build_tree(text, 2)
        assert reverse(reverse(w)).materialize() == w.materialize()

    def test_structural_equal_sees_through_shape(self):
        a = Concat((Literal("01"), Literal("01")))
        assert a == Power(Literal("01"), 2)
        assert a == Literal("0101")
        assert a != Literal("0110")


def draw_tree(data, depth):
    """A random word over 01be of Literal, Power, Concat, ReversedNode,
    CircularNode and CircularRNode nodes."""
    kind = data.draw(st.sampled_from(
        ["literal", "power", "concat", "reversed", "circular", "mirrored"]))
    if depth == 0 or kind == "literal":
        return Literal(data.draw(st.text(alphabet="01be", min_size=1,
                                         max_size=4)))
    if kind == "power":
        return Power(draw_tree(data, depth - 1), data.draw(st.integers(0, 3)))
    if kind == "concat":
        n = data.draw(st.integers(1, 3))
        return Concat(tuple(draw_tree(data, depth - 1) for _ in range(n)))
    if kind == "reversed":
        return ReversedNode(draw_tree(data, depth - 1))
    first = draw_tree(data, depth - 1)
    q = first.length
    if not 1 <= q <= 8:
        return Power(first, 2)
    k = data.draw(st.integers(1, 3))
    l = data.draw(st.integers(2, 3))
    p = data.draw(st.sampled_from(
        [p for p in range(max(q, 2)) if math.gcd(p, q) == 1]))
    node = CircularNode if kind == "circular" else CircularRNode
    children = (first,) + tuple(variant(data, first) for _ in range(k - 1))
    return node(children, k=k, l=l, p=p, q=q)


def variant(data, w):
    """A word of w's length: w itself, its text in another shape, or the
    same shape with its children varied (one symbol edited at a
    literal)."""
    kind = data.draw(st.sampled_from(["same", "flat", "split", "mirror",
                                      "deep"]))
    text = w.materialize()
    if kind == "same":
        return w
    if kind == "flat":
        return Literal(text)
    if kind == "split":
        c = data.draw(st.integers(0, len(text)))
        return Concat((Literal(text[:c]), Literal(text[c:])))
    if kind == "mirror":
        return ReversedNode(reverse(w))
    if isinstance(w, Literal):
        if not text:
            return w
        i = data.draw(st.integers(0, len(text) - 1))
        return Literal(text[:i] + data.draw(st.sampled_from("01be"))
                       + text[i + 1:])
    if isinstance(w, Power):
        return Power(variant(data, w.child), w.exponent)
    if isinstance(w, Concat):
        return Concat(tuple(variant(data, c) for c in w.children))
    if isinstance(w, ReversedNode):
        return ReversedNode(variant(data, w.child))
    assert isinstance(w, _Sectioned)
    return type(w)(tuple(variant(data, c) for c in w.children),
                   k=w.k, l=w.l, p=w.p, q=w.q)


class TestEquality:
    def test_one_flipped_symbol_in_two_million(self):
        # 2^21 symbols, past the materialization cap; a sampled probe
        # of a few hundred indices misses the flip
        block = "01" * 512
        n = 2 ** 11
        i, off = divmod(1049087, len(block))
        flipped = block[:off] + ("1" if block[off] == "0" else "0") \
            + block[off + 1:]

        def spliced(middle):
            return Concat((Power(Literal(block), i), Literal(middle),
                           Power(Literal(block), n - i - 1)))
        base = Power(Literal(block), n)
        assert base.materialize() is None
        assert spliced(flipped).length == base.length == 2 ** 21
        assert base != spliced(flipped)
        assert spliced(flipped) != base
        assert base == spliced(block)

    def test_huge_power_equals_round_trip(self):
        w = Power(Concat((Literal("01"), Power(Literal("b"), 2))), 2 ** 38)
        again = word_from_json(word_to_json(w))
        assert again.length == 2 ** 40
        assert again.materialize() is None
        assert w == again
        assert w != Power(Concat((Literal("01"), Power(Literal("e"), 2))),
                          2 ** 38)

    def test_children_hidden_by_an_empty_word(self):
        # a zero power shows none of its child's text
        assert Power(Literal("0"), 0) == Power(Literal("1"), 0)
        assert Concat((Power(Literal("0"), 0), Literal("1"))) \
            == Concat((Power(Literal("1"), 0), Literal("1")))
        assert Concat((Power(Literal("0"), 0), Literal("1"))) \
            != Concat((Power(Literal("1"), 0), Literal("0")))

    def test_sectioned_rejects_l_below_two(self):
        # at l = 1 no child shows in the text
        with pytest.raises(ValueError, match="l >= 2"):
            CircularNode((Literal("0"),), k=1, l=1, p=0, q=1)
        obj = word_to_obj(CircularNode((Literal("0"),), k=1, l=2, p=0, q=1))
        obj["l"] = 1
        with pytest.raises(ValueError, match="l >= 2"):
            word_from_obj(obj)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_equal_exactly_when_texts_equal(self, data):
        u = draw_tree(data, 3)
        v = variant(data, u)
        same = u.materialize() == v.materialize()
        assert (u == v) == same
        assert (v == u) == same
        if same:
            assert hash(u) == hash(v)


class TestDbar:
    def test_exact_small(self):
        r = dbar(word("10011"), word("10101"))
        assert r.kind == "exact"
        assert r.value == Fraction(2, 5)

    def test_identical_words_zero(self):
        w = build_tree("0110", 3)
        r = dbar(w, w)
        assert r.value == 0

    @given(st.text(alphabet="01", min_size=1, max_size=30),
           st.text(alphabet="01", min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_matches_counting_oracle(self, a, b):
        n = min(len(a), len(b))
        r = dbar(word(a), word(b), (0, n))
        assert r.value == Fraction(sum(x != y for x, y in zip(a, b)), n)

    def test_triangle_inequality(self):
        rng = random.Random(5)
        for _ in range(25):
            u, v, w = ("".join(rng.choice("01") for _ in range(40))
                       for _ in range(3))
            duv = dbar(word(u), word(v)).value
            dvw = dbar(word(v), word(w)).value
            duw = dbar(word(u), word(w)).value
            assert duw <= duv + dvw

    def test_estimate_brackets_truth(self):
        rng = random.Random(7)
        a = "".join(rng.choice("01") for _ in range(5000))
        b = "".join(rng.choice("01") for _ in range(5000))
        truth = dbar(word(a), word(b), mode="exact").value
        est = dbar(word(a), word(b), mode="estimate", seed=3, samples=2048)
        assert est.kind == "estimate"
        assert abs(est.value - truth) <= est.half_width

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            dbar(word("01"), word("01"), (1, 1))

    def test_interval_outside_domain(self):
        with pytest.raises(WordIndexError):
            dbar(word("01"), word("0"), (0, 2))


class TestPairOccurrences:
    def test_counts_against_scan(self):
        rng = random.Random(11)
        u = word("".join(rng.choice("01") for _ in range(64)))
        v = word("".join(rng.choice("01") for _ in range(64)))
        grid = 4
        for shift in (0, 4, -8):
            for up in ("0101", "1100"):
                for vp in ("0011", "0101"):
                    got = count_pair_occurrences(word(up), word(vp), u, v,
                                                 shift, grid)
                    ut, vt = u.materialize(), v.materialize()
                    want = sum(
                        1 for t in range(0, len(vt) - grid + 1, grid)
                        if 0 <= shift + t and shift + t + grid <= len(ut)
                        and ut[shift + t:shift + t + grid] == up
                        and vt[t:t + grid] == vp)
                    assert got == want

    def test_misaligned_shift_rejected(self):
        with pytest.raises(ValueError):
            count_pair_occurrences(word("01"), word("01"),
                                   word("0101"), word("0101"), 1, 2)


class TestReadability:
    def test_prefix_code_readable(self):
        cert = unique_readability(["10", "110", "1110"])
        assert cert.readable

    def test_ambiguous_family_witnessed(self):
        cert = unique_readability(["01", "0101"])
        assert not cert.readable
        assert cert.second_parse is not None
        u, v = cert.counterexample[:2]
        assert u in ("01", "0101") and v in ("01", "0101")

    def test_probe_parse_positions(self):
        cert = unique_readability(["10", "110"], probe=word("b10e110"))
        assert cert.readable
        starts = [pos for pos, _ in cert.parse]
        assert starts == [1, 4]


class TestSerialization:
    @given(texts, st.integers(0, 2))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_preserves_structure(self, text, depth):
        w = build_tree(text, depth)
        again = word_from_json(word_to_json(w))
        assert w == again
        assert again.materialize() == w.materialize()
