"""The interleaving operator: anatomy, parsing, reversal, alignment."""

import random

import pytest
from fractions import Fraction

from circsys.circular import (CircularParseError, apply_C, apply_Cr,
                              cross_alignment, parse_circular,
                              reversal_identity_applies)
from circsys.coefficients import desk_plan, dynamical_index
from circsys.words import CircularNode, reverse, word


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

    def test_section_of_matches_scan(self):
        rng = random.Random(1)
        k, l, p, q = 3, 2, 1, 3
        dec = parse_circular(apply_C(random_preword(rng, k, q),
                                     (k, l, p, q)), (k, l, p, q))
        text = apply_C(dec.preword, (k, l, p, q)).materialize()
        for x in range(len(text)):
            assert dec.is_boundary(x) == (text[x] in "be")


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


class TestCrossAlignment:
    def test_zero_shift_is_trivial_diagonal(self):
        rng = random.Random(4)
        k, l, p, q = 2, 3, 1, 4
        u = apply_C(random_preword(rng, k, q), (k, l, p, q))
        rep = cross_alignment(u, u, 0)
        assert rep.boundary_hits == 0
        assert all(p_.shift_mod_q == 0 for p_ in rep.pieces)

    def test_two_value_key_relation(self):
        rng = random.Random(5)
        k, l, p, q = 2, 2, 3, 5
        u = apply_C(random_preword(rng, k, q), (k, l, p, q))
        v = apply_C(random_preword(rng, k, q), (k, l, p, q))
        for shift in (q, 3 * q, -2 * q):
            rep = cross_alignment(u, v, shift)
            if rep.relation_holds is not None:
                assert rep.relation_holds
