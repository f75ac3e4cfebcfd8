"""Stationary sliding-block codes and the reversing approximants."""

from circsys.codes import (StationaryCode, apply_code, kappa_sequence,
                           natural_code)
from circsys.coefficients import code_coefficients, desk_plan

PLAN = desk_plan(kl=((2, 2), (2, 2), (2, 2)))


class TestApplyCode:
    def test_identity_reproduces_text(self):
        assert apply_code(StationaryCode(0, lambda b: b[0]), "b01e").text \
            == "b01e"

    def test_constant_code(self):
        assert apply_code(StationaryCode(0, lambda b: "e"), "b01").text \
            == "eee"

    def test_fill_policy_keeps_length(self):
        shift = StationaryCode(1, lambda blk: blk[0])
        out = apply_code(shift, "01", ).text
        assert len(out) == 2
        assert out[0] == "b"


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
