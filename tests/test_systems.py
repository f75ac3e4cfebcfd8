"""Construction sequences, the odometer/circular functor, group actions."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from circsys.coefficients import desk_plan
from circsys.systems import (FWD, REV, SequenceError, base_stage,
                             circular_sequence, functor_F, functor_inverse,
                             identity_action, odometer_negate,
                             odometer_sequence, odometer_successor,
                             propagate_equivalence, sequence_from_json,
                             sequence_to_json, skew_diagonal_extend,
                             swap_side_action, uniformity_report)


def desk_sequence(rng=None, classes=False):
    """A 2-stage odometer sequence over {1, 0} on the default desk plan."""
    plan = desk_plan(kl=((4, 2), (2, 2)))
    rng = rng or random.Random(0)
    comps1 = [tuple(rng.randrange(2) for _ in range(4)) for _ in range(2)]
    comps2 = [(0, 1), (1, 0)]
    seq = odometer_sequence(plan, "01", [comps1, comps2])
    return seq


class TestSequences:
    def test_word_lengths(self):
        seq = desk_sequence()
        assert [seq.word_length(n) for n in range(3)] == [1, 4, 8]
        circ = functor_F(seq)
        assert [circ.word_length(n) for n in range(3)] == \
            [seq.plan.q(n) for n in range(3)]

    def test_arity_checked(self):
        plan = desk_plan(kl=((4, 2), (2, 2)))
        with pytest.raises(SequenceError):
            odometer_sequence(plan, "01", [[(0, 1)]])

    def test_circular_words_parse_back(self):
        seq = desk_sequence()
        circ = functor_F(seq)
        st1 = circ.stage(1)
        assert all(w.length == circ.plan.q(1) for w in st1.words)

    def test_json_round_trip(self):
        seq = desk_sequence()
        again = sequence_from_json(sequence_to_json(seq))
        assert again.flavor == seq.flavor
        for n in range(seq.depth + 1):
            assert again.stage(n).compositions == seq.stage(n).compositions
            assert [w.materialize() for w in again.stage(n).words] == \
                [w.materialize() for w in seq.stage(n).words]


class TestFunctor:
    def test_round_trip_both_directions(self):
        seq = desk_sequence()
        assert functor_inverse(functor_F(seq)).stage(2).compositions == \
            seq.stage(2).compositions
        circ = functor_F(seq)
        assert functor_F(functor_inverse(circ)).stage(2).compositions == \
            circ.stage(2).compositions

    def test_preserves_strong_uniformity(self):
        plan = desk_plan(kl=((4, 2), (2, 2)))
        comps1 = [(0, 1, 0, 1), (1, 0, 1, 0)]
        seq = odometer_sequence(plan, "01", [comps1, [(0, 1), (1, 0)]])
        assert uniformity_report(seq).kind == "strongly-uniform"
        assert uniformity_report(functor_F(seq)).kind == "strongly-uniform"

    def test_lifted_propagation_coincides(self):
        # propagating classes before or after the lift gives the same ids
        seq = desk_sequence()
        classes1 = (0, 0)
        comps2 = seq.stage(2).compositions
        direct = propagate_equivalence(classes1, comps2)
        lifted = propagate_equivalence(classes1,
                                       functor_F(seq).stage(2).compositions)
        assert direct == lifted


class TestUniformity:
    def test_unbalanced_flagged(self):
        plan = desk_plan(kl=((4, 2), (2, 2)))
        seq = odometer_sequence(plan, "01",
                                [[(0, 0, 0, 0), (0, 0, 0, 1)],
                                 [(0, 1), (1, 0)]])
        rep = uniformity_report(seq)
        assert rep.kind == "neither"
        assert rep.counterexample is not None
        n, w, bad, counts = rep.counterexample
        assert len(set(counts)) > 1


class TestPropagation:
    @given(st.lists(st.integers(0, 2), min_size=4, max_size=4),
           st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                    min_size=3, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_equivalence_is_classwise(self, classes, prewords):
        out = propagate_equivalence(tuple(classes), prewords)
        for i, a in enumerate(prewords):
            for j, b in enumerate(prewords):
                same_key = tuple(classes[x] for x in a) == \
                    tuple(classes[x] for x in b)
                assert (out[i] == out[j]) == same_key


class TestActions:
    def test_swap_side_is_free_involution(self):
        act = swap_side_action(2)
        for c in range(2):
            assert act.generators[0][(c, FWD)] == (c, REV)
        assert act.is_free()
        g = act.generators[0]
        for key in g:
            assert g[g[key]] == key

    def test_identity_action_trivial_group(self):
        assert len(identity_action(3).elements) == 1

    def test_skew_extension_acts_and_stays_free(self):
        classes = (0, 1)
        prewords = [(0, 1, 0, 1), (1, 0, 1, 0)]
        act = swap_side_action(2, pattern=[1, 0])
        ext = skew_diagonal_extend(act, prewords, classes)
        assert ext.is_free()
        g = ext.generators[0]
        # generators swap sides
        assert all(key[1] != g[key][1] for key in g)

    def test_extension_demands_closed_family(self):
        classes = (0, 1)
        prewords = [(0, 0, 0, 0)]  # image preword (1,1,1,1) is missing
        act = swap_side_action(2, pattern=[1, 0])
        with pytest.raises(SequenceError):
            skew_diagonal_extend(act, prewords, classes)


class TestOdometer:
    def test_successor_enumerates_all(self):
        k = (2, 3, 2)
        digits = (0, 0, 0)
        seen = []
        for _ in range(12):
            seen.append(digits)
            digits, carry = odometer_successor(digits, k)
        assert len(set(seen)) == 12
        assert digits == (0, 0, 0) and carry == 1

    @given(st.tuples(st.integers(0, 1), st.integers(0, 2), st.integers(0, 3)))
    def test_negate_is_inverse(self, digits):
        k = (2, 3, 4)
        neg = odometer_negate(digits, k)
        # x + (-x) = 0 in the adic group
        total = 0
        mult = 1
        for d, nd, ki in zip(digits, neg, k):
            total += (d + nd) * mult
            mult *= ki
        assert total % mult == 0
