"""Structured words, the d-bar density, and readability certificates."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from circsys.circular import CircularRNode
from circsys.words import (CircularNode, Concat, Literal, Power, ReversedNode,
                           WordIndexError, _Sectioned, dbar, reverse,
                           unique_readability, word, word_to_obj)

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
        again = Power(Concat((Literal("01"), Power(Literal("b"), 2))), 2 ** 38)
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


def ref_word_to_obj(w):
    """word_to_obj without a memo: a fresh object for every occurrence."""
    if isinstance(w, Literal):
        runs = []
        for ch in w.text:
            if runs and runs[-1]["sym"] == ch:
                runs[-1]["n"] += 1
            else:
                runs.append({"sym": ch, "n": 1})
        return {"type": "literal", "runs": runs}
    if isinstance(w, Power):
        return {"type": "power", "n": str(w.exponent),
                "child": ref_word_to_obj(w.child)}
    if isinstance(w, Concat):
        return {"type": "concat",
                "children": [ref_word_to_obj(c) for c in w.children]}
    if isinstance(w, CircularNode):
        return {"type": "circular", "k": str(w.k), "l": str(w.l),
                "p": str(w.p), "q": str(w.q),
                "children": [ref_word_to_obj(c) for c in w.children]}
    if isinstance(w, ReversedNode):
        return {"type": "reversed", "child": ref_word_to_obj(w.child)}
    raise TypeError(type(w))


@st.composite
def shared_words(draw):
    """A word whose nodes take their children from the nodes made before
    them, so one sub-word object sits in several places."""
    pool = [Literal(draw(st.text(alphabet="01be", min_size=1, max_size=4)))
            for _ in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["power", "concat", "circular",
                                     "reversed"]))
        first = draw(st.sampled_from(pool))
        if kind == "power":
            node = Power(first, draw(st.integers(0, 3)))
        elif kind == "concat":
            node = Concat((first,) + tuple(draw(st.lists(
                st.sampled_from(pool), max_size=3))))
        elif kind == "reversed":
            node = ReversedNode(first)
        else:
            q = first.length
            if q == 0:
                continue
            k = draw(st.integers(1, 3))
            same = st.sampled_from([w for w in pool if w.length == q])
            node = CircularNode((first,) + tuple(draw(same)
                                                 for _ in range(k - 1)),
                                k=k, l=draw(st.integers(2, 3)),
                                p=draw(st.sampled_from([
                                    p for p in range(max(q, 2))
                                    if math.gcd(p, q) == 1])), q=q)
        pool.append(node)
    return Concat(tuple(draw(st.lists(st.sampled_from(pool), min_size=2,
                                      max_size=4))))


def sub_words(w, seen):
    """Every distinct node object of w, by id."""
    if id(w) not in seen:
        seen[id(w)] = w
        for c in () if isinstance(w, Literal) else w._parts()[1]:
            sub_words(c, seen)
    return seen


class TestToObj:
    @given(shared_words())
    @settings(max_examples=200, deadline=None)
    def test_shared_sub_words_match_the_reference(self, w):
        memo = {}
        obj = word_to_obj(w, memo)
        assert json.dumps(obj, sort_keys=True) == \
            json.dumps(ref_word_to_obj(w), sort_keys=True)
        # one entry, and so one object, per distinct node
        assert memo.keys() == sub_words(w, {}).keys()
        assert word_to_obj(w, memo) is obj

    def test_shared_sub_word_is_one_object(self):
        a = Literal("01")
        obj = word_to_obj(Concat((a, Power(a, 2), ReversedNode(a))))
        first, power, rev = obj["children"]
        assert power["child"] is first and rev["child"] is first
        # without a memo each call builds afresh
        assert word_to_obj(a) is not word_to_obj(a)
