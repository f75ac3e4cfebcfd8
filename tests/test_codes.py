"""Stationary sliding-block codes and the reversing approximants."""

from fractions import Fraction

import pytest

from circsys.codes import (StationaryCode, apply_code, code_distance,
                           constant_code, identity_code, kappa_sequence,
                           natural_code)
from circsys.coefficients import code_coefficients, desk_plan
from circsys.words import dbar, word

PLAN = desk_plan(kl=((2, 2), (2, 2), (2, 2)))


class TestApplyCode:
    def test_identity_reproduces_text(self):
        assert apply_code(identity_code(), "b01e").text == "b01e"

    def test_constant_code(self):
        assert apply_code(constant_code("e"), "b01").text == "eee"

    def test_truncate_policy_shrinks(self):
        shift = StationaryCode(1, lambda blk: blk[2], policy="truncate")
        # interior positions 1..3 survive, each emitting its right neighbor
        assert apply_code(shift, "abcde").text == "cde"

    def test_fill_policy_keeps_length(self):
        shift = StationaryCode(1, lambda blk: blk[0])
        out = apply_code(shift, "01", ).text
        assert len(out) == 2
        assert out[0] == "b"

    def test_interval_application(self):
        assert apply_code(identity_code(), "abcdef", (2, 4)).text == "cd"

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            StationaryCode(0, lambda b: b, policy="wrap")


class TestKappa:
    def test_one_word_per_stage_of_spacer_symbols(self):
        seq = kappa_sequence(PLAN, 3)
        for n in range(4):
            fam = seq.stage(n)
            assert fam.size == 1
            w = fam.words[0].materialize()
            assert len(w) == PLAN.q(n)
            assert set(w) <= set("be*")


class TestNaturalCode:
    def test_radius(self):
        for n in (1, 2):
            assert natural_code(PLAN, n).radius == 2 * PLAN.q(n)

    def test_coefficient_growth(self):
        A = code_coefficients(PLAN, 3)
        for n in range(1, 4):
            assert abs(A[n]) < 2 * PLAN.q(n - 1) * PLAN.q(n)

    def test_maps_spacer_tower_to_itself_somewhere(self):
        # applied to the stage-2 spacer word repeated, the code emits
        # spacer-alphabet symbols only
        kw = kappa_sequence(PLAN, 2).stage(2).words[0].materialize()
        code = natural_code(PLAN, 1)
        out = apply_code(code, kw * 3).text
        assert set(out) <= set("be*")


class TestCodeDistance:
    def test_identity_vs_itself_zero(self):
        r = code_distance(identity_code(), identity_code(), "b01e10" * 4)
        assert r.value == 0

    def test_matches_direct_dbar(self):
        text = "b01e10" * 4
        r = code_distance(identity_code(), constant_code("b"), text)
        direct = dbar(word(text),
                      word("b" * len(text))).value
        assert r.value == direct

    def test_short_window_rejected(self):
        big = StationaryCode(8, lambda blk: blk[8])
        with pytest.raises(ValueError):
            code_distance(big, big, "0101")
