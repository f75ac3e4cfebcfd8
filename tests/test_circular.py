"""The interleaving operator: anatomy, parsing, reversal."""

import math
import random

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from circsys.circular import (CircularParseError, SubscaleDecomposition,
                              apply_C, apply_Cr, parse_circular,
                              reversal_identity_applies)
from circsys.coefficients import desk_plan, dynamical_index
from circsys.words import (SYMBOL_B, SYMBOL_E, CircularNode, Literal, reverse,
                           word)


def random_preword(rng, k, q):
    return tuple("".join(rng.choice("01") for _ in range(q))
                 for _ in range(k))


def random_stage(rng):
    k = rng.choice([2, 3, 4])
    l = rng.choice([2, 3, 4])
    q = rng.choice([2, 3, 4, 5])
    # any p coprime to q works; the operator only consumes p^-1 mod q
    p = rng.choice([p for p in range(1, q) if __import__("math").gcd(p, q) == 1])
    return k, l, p, q


class TestAnatomy:
    def test_length_and_boundary_fractions(self):
        rng = random.Random(0)
        for _ in range(40):
            k, l, p, q = random_stage(rng)
            w = apply_C(random_preword(rng, k, q), (k, l, p, q))
            dec = parse_circular(w, (k, l, p, q))
            assert w.length == k * l * q * q
            assert dec.boundary_fraction == Fraction(1, l)
            assert dec.boundary_count == k * q * q
            assert Fraction(dec.near_boundary_count(), w.length) <= \
                Fraction(3, l)

    def test_spacer_layout_by_direct_expansion(self):
        # k=2, l=2, p=1, q=2: j = (0, 1)
        w = apply_C(("10", "01"), (2, 2, 1, 2)).materialize()
        assert w == "bb10" + "bb01" + "b10e" + "b01e"


class TestParse:
    def test_round_trip(self):
        rng = random.Random(2)
        for _ in range(40):
            k, l, p, q = random_stage(rng)
            pre = random_preword(rng, k, q)
            w = apply_C(pre, (k, l, p, q))
            dec = parse_circular(word(w.materialize()), (k, l, p, q))
            assert tuple(c.materialize() for c in dec.preword) == pre
            assert dec.j == tuple(dynamical_index(p, q, i) for i in range(q))

    def test_corrupt_symbol_diagnosed(self):
        k, l, p, q = 2, 2, 1, 2
        text = list(apply_C(("10", "01"), (k, l, p, q)).materialize())
        pos = next(i for i, c in enumerate(text) if c == "b")
        text[pos] = "e"
        with pytest.raises(CircularParseError) as err:
            parse_circular(word("".join(text)), (k, l, p, q))
        assert err.value.position == pos
        assert err.value.expected == "b"

    def test_wrong_length_rejected(self):
        with pytest.raises(CircularParseError):
            parse_circular(word("b10e"), (2, 2, 1, 2))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_scan(self, data):
        k = data.draw(st.integers(1, 4))
        l = data.draw(st.integers(2, 4))
        q = data.draw(st.integers(1, 7))
        p = data.draw(st.sampled_from(
            [p for p in range(max(q, 2)) if math.gcd(p, q) == 1]))
        pre = [data.draw(st.text(alphabet="01be", min_size=q, max_size=q))
               for _ in range(k)]
        text = list(apply_C(pre, (k, l, p, q)).materialize())
        for _ in range(data.draw(st.integers(0, 5))):
            i = data.draw(st.integers(0, len(text) - 1))
            text[i] = data.draw(st.sampled_from("01be"))
        text = "".join(text)
        try:
            want = ref_parse_literal(text, (k, l, p, q))
        except CircularParseError as exc:
            with pytest.raises(CircularParseError) as err:
                parse_circular(word(text), (k, l, p, q))
            got = err.value
            assert (got.position, got.expected, got.found, str(got)) == \
                (exc.position, exc.expected, exc.found, str(exc))
            return
        dec = parse_circular(word(text), (k, l, p, q))
        assert [c.materialize() for c in dec.preword] == \
            [c.materialize() for c in want.preword]
        assert dec.j == want.j


def ref_parse_literal(text, stage):
    """The symbol-by-symbol scan parse_circular once ran on literals: the
    reference its rebuild-and-compare check is tested against."""
    k, l, p, q = stage
    js = tuple(dynamical_index(p, q, i) for i in range(q))
    if len(text) != k * l * q * q:
        raise CircularParseError(len(text), k * l * q * q, None,
                                 f"length {len(text)} != k*l*q^2")
    children = [None] * k
    pos = 0
    for i in range(q):
        ji = js[i]
        for j in range(k):
            for _ in range(q - ji):
                if text[pos] != SYMBOL_B:
                    raise CircularParseError(pos, SYMBOL_B, text[pos])
                pos += 1
            for copy in range(l - 1):
                piece = text[pos:pos + q]
                if children[j] is None:
                    children[j] = piece
                elif piece != children[j]:
                    for d in range(q):
                        if piece[d] != children[j][d]:
                            raise CircularParseError(pos + d, children[j][d],
                                                     piece[d])
                pos += q
            for _ in range(ji):
                if text[pos] != SYMBOL_E:
                    raise CircularParseError(pos, SYMBOL_E, text[pos])
                pos += 1
    return SubscaleDecomposition(k, l, p, q,
                                 tuple(Literal(c) for c in children), js)


class TestReversalIdentity:
    def test_holds_for_q_above_one(self):
        rng = random.Random(3)
        for _ in range(30):
            k, l, p, q = random_stage(rng)
            pre = random_preword(rng, k, q)
            lhs = reverse(apply_C(pre, (k, l, p, q))).materialize()
            rhs = apply_Cr(tuple(w[::-1] for w in pre),
                           (k, l, p, q)).materialize()
            assert reversal_identity_applies((k, l, p, q))
            assert lhs == rhs

    def test_q_one_degenerates(self):
        # the derivation divides through q - j_i = j_{q-i}, empty at q=1;
        # pinned so a "simplification" cannot silently extend the claim
        stage = (2, 2, 0, 1)
        assert not reversal_identity_applies(stage)
        pre = ("1", "0")
        lhs = reverse(apply_C(pre, stage)).materialize()
        rhs = apply_Cr(tuple(w[::-1] for w in pre), stage).materialize()
        assert lhs != rhs


class TestSectionWalk:
    def test_range_extraction_matches_materialization(self):
        rng = random.Random(6)
        for _ in range(60):
            k, l, p, q = random_stage(rng)
            if rng.random() < 0.25:
                p, q = 0, 1          # a desk plan's first stage
            pre = random_preword(rng, k, q)
            for op in (apply_C, apply_Cr):
                w = op(pre, (k, l, p, q))
                text = w.materialize()
                assert len(text) == w.length
                for _ in range(20):
                    a = rng.randrange(w.length + 1)
                    b = rng.randrange(a, w.length + 1)
                    assert w.extract(a, b) == text[a:b]

    def test_q_one_runs(self):
        # at q = 1 a forward section is b w^(l-1); a mirrored one is
        # e w^(l-1), with the children in reverse order
        pre = ("1", "0")
        assert apply_C(pre, (2, 3, 0, 1)).materialize() == "b11b00"
        assert apply_Cr(pre, (2, 3, 0, 1)).materialize() == "e00e11"

    def test_operators_stay_distinct_node_types(self):
        w = apply_Cr(("10", "01"), (2, 2, 1, 2))
        assert not isinstance(w, CircularNode)
        assert repr(w) == ("CircularRNode(children=(Literal('10'), "
                           "Literal('01')), k=2, l=2, p=1, q=2)")
