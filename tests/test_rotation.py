"""Rotation displacement, ill densities, and red zones."""

import csv
import dataclasses
import io
import json
import random
from fractions import Fraction
from math import floor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circsys import rotation
from circsys.coefficients import desk_plan, dynamical_index
from circsys.locations import D_n, PointWindow, maturity
from circsys.rotation import (Displacement, MatchClass, _match_at,
                              _numerator, _stage, analyze_rotation,
                              build_red_zones, delta_csv, delta_n,
                              displacement, match_class, rotation_report)
from circsys.systems import circular_sequence

PLAN3 = desk_plan(kl=((2, 2), (2, 2), (2, 2)))
# denominators past int64 once multiplied by q_3 = 2^14
HUGE_BETAS = (Fraction(1, 2 ** 48 + 1), Fraction(1, 2 ** 50 + 1),
              Fraction(2 ** 60, 3 * 2 ** 60 + 1))


def _match(plan, n, m, beta, a):
    """(valid, j0, j1) at interval numerator a from fresh stage constants."""
    return _match_at(plan.stage(n), _stage(plan, n, m, beta),
                     _stage(plan, n + 1, m, beta), a)


def _position(stage, a):
    """(r_n, d_n, lane R) at interval numerator a from one stage's kernel."""
    carry = stage.carry(a)
    return stage.index(a), stage.lane(carry), carry


def ref_rd(beta, plan, n, m, x):
    """(r_n, d_n) of tower position x in rational arithmetic."""
    qm, q, p = plan.q(m), plan.q(n), plan.p(n)
    v = Fraction(x * plan.p(m) % qm, qm)
    r = D_n(v, (p, q))
    return r, (D_n((v + beta) % 1, (p, q)) - r) % q


def ref_position(beta, plan, n, m, x):
    """(r_n, d_n, lane R) of tower position x in rational arithmetic."""
    qm, q = plan.q(m), plan.q(n)
    v = Fraction(x * plan.p(m) % qm, qm)
    frac_v, frac_b = v * q - floor(v * q), beta * q - floor(beta * q)
    return (*ref_rd(beta, plan, n, m, x),
            frac_b != 0 and frac_v >= 1 - frac_b)


def ref_match(beta, plan, n, m, x):
    """(j0, j1) of tower position x at stage n from ref_rd at stages n and
    n + 1, or None where the principal n-block does not start in a digit
    region of its (n+1)-block at copy offset r_n: the 1-subsection of that
    start after (j0) and before (j1) displacement."""
    r_lo, d_lo = ref_rd(beta, plan, n, m, x)
    r_hi, d_hi = ref_rd(beta, plan, n + 1, m, x)
    q_lo, q_hi = plan.q(n), plan.q(n + 1)
    base = (r_hi - r_lo) % q_hi
    st = plan.stage(n)
    sec = st.l * q_lo
    t, off = divmod(base, sec)
    off -= q_lo - dynamical_index(plan.p(n), q_lo, t // st.k)
    if not (0 <= off < (st.l - 1) * q_lo and off % q_lo == r_lo):
        return None
    return ((base + d_hi - d_lo) % q_hi // sec) % st.k, t % st.k


def ref_ill(beta, plan, n, m, x):
    """Whether tower position x is ill-matched at stage n: its block start
    is valid and lies in another 1-subsection after displacement."""
    jj = ref_match(beta, plan, n, m, x)
    return jj is not None and jj[0] != jj[1]


def ref_uncertain(beta, plan, n, m):
    """Cuts j/q_n - beta, j < q_n, that fall inside a 1/q_m interval."""
    q, qm = plan.q(n), plan.q(m)
    return sum((Fraction(j) - beta * q) % q * qm / q % 1 != 0
               for j in range(q))


def ref_delta_n(beta, n, m, plan):
    """delta_n by ref_ill at every anchor-m tower position."""
    qm = plan.q(m)
    return Fraction(sum(ref_ill(beta, plan, n, m, x) for x in range(qm)), qm)


def reverify_zones(rz, beta, plan, M):
    """Claimed blocks are disjoint, whole and ill by the oracle."""
    claimed = set()
    for layer in rz.layers:
        pos = {a * layer.block_size + i for a in layer.blocks
               for i in range(layer.block_size)}
        assert not pos & claimed
        claimed |= pos
        for a in layer.blocks:
            assert set(range(a * layer.block_size,
                             (a + 1) * layer.block_size)) <= pos
        for x in pos:
            assert ref_ill(beta, plan, layer.stage, M, x)
            valid, j0, j1 = _match(plan, layer.stage, M, beta,
                                   _numerator(plan, M, x))
            assert valid and j0 != j1
    assert rz.achieved_density == Fraction(len(claimed), plan.q(M))
    if not rz.shortfall:
        assert rz.achieved_density >= rz.target_density


def circ3():
    prewords = [[(0, 1), (1, 0)], [(0, 1), (1, 0)], [(0, 1), (1, 0)]]
    return circular_sequence(PLAN3, "01", prewords)


class TestDisplacement:
    def test_zero_beta_zero_everywhere(self):
        seq = circ3()
        for x in range(0, PLAN3.q(3), 17):
            d = displacement(0, PointWindow(seq, 3, 0, x), 1)
            if d.defined:
                assert d.value == 0
                assert d.degenerate

    def test_two_value_law_with_gap_j1(self):
        seq = circ3()
        plan = seq.plan
        rng = random.Random(6)
        betas = [Fraction(rng.randrange(1, 48), 48) for _ in range(8)]
        for beta in betas:
            for n in (1, 2):
                q = plan.q(n)
                j1 = dynamical_index(plan.p(n), plan.q(n), 1)
                lanes = {}
                for x in range(plan.q(3)):
                    pw = PointWindow(seq, 3, 0, x)
                    if n < 3 and not maturity(pw, n).mature:
                        continue
                    d = displacement(beta, pw, n)
                    if d.defined:
                        lanes.setdefault(d.lane, set()).add(d.value)
                vals = set().union(*lanes.values())
                assert len(vals) <= 2
                if len(vals) == 2:
                    a, b = sorted(vals)
                    assert (b - a) % q in (j1 % q, (q - j1) % q)

    def test_stage_range_checked(self):
        # the plan has stages above the window's M = 2
        plan = desk_plan(kl=((2, 2),) * 4)
        seq = circular_sequence(plan, "01", [[(0, 1), (1, 0)]] * 4)
        pw = PointWindow(seq, 2, 0, 37)
        for n in (-1, 3, 4, 5):
            with pytest.raises(ValueError, match="stage out of range"):
                displacement(Fraction(1, 3), pw, n)

    def test_match_class_below_stage_0_is_out_of_range(self):
        pw = PointWindow(circ3(), 3, 0, 100)
        with pytest.raises(ValueError, match="stage out of range"):
            match_class(Fraction(1, 3), pw, -1)

    def test_beta_forms_agree(self):
        seq = circ3()
        for x in range(0, PLAN3.q(3), 7):
            pw = PointWindow(seq, 3, 0, x)
            for forms in ((Fraction(1, 2), "1/2", 0.5), (0, Fraction(0))):
                for n in (1, 2, 3):
                    assert len({displacement(b, pw, n) for b in forms}) == 1
                assert len({match_class(b, pw, 1) for b in forms}) == 1

    def test_lane_densities(self):
        seq = circ3()
        plan = seq.plan
        m = 3
        for beta in (Fraction(1, 3), Fraction(5, 7)):
            ana = analyze_rotation(plan, beta, m)
            for n in (1, 2):
                st = ana.stage(n)
                qm = plan.q(m)
                if st.degenerate:
                    continue
                want_L = st.beta_n
                got_L = Fraction(st.lane_L_count, qm)
                assert abs(got_L - want_L) <= Fraction(2 * plan.q(n), qm)

    @pytest.mark.parametrize("plan", [PLAN3, desk_plan(kl=((3, 2), (2, 2)))],
                             ids=["2,2;2,2;2,2", "3,2;2,2"])
    def test_uncertain_count_matches_cut_loop(self, plan):
        betas = sorted({Fraction(a, b) for b in range(1, 40)
                        for a in range(b)})
        for m in range(1, plan.depth + 1):
            for beta in betas:
                got = [st.uncertain_count
                       for st in analyze_rotation(plan, beta, m).stages]
                assert got == [ref_uncertain(beta, plan, n, m)
                               for n in range(m)], (beta, m)


class TestDeltas:
    def test_structural_equals_naive(self):
        for beta in (Fraction(0), Fraction(1, 3), Fraction(5, 7),
                     Fraction(3, 16)):
            for n in (0, 1):
                assert delta_n(beta, n, 3, PLAN3) == \
                    ref_delta_n(beta, n, 3, PLAN3)

    def test_zero_beta_is_central(self):
        doc = rotation_report(PLAN3, 0, 2, 3)
        assert [Fraction(v) for v in doc["delta"]] == [0, 0]
        assert Fraction(doc["delta_partial_sum"]) == 0

    def test_anchor_precondition(self):
        with pytest.raises(ValueError):
            delta_n(Fraction(1, 3), 2, 3, PLAN3)

    def test_overflowing_denominators_match_oracle(self):
        assert delta_n(HUGE_BETAS[0], 1, 3, PLAN3) == 0
        for beta in HUGE_BETAS:
            for n in (0, 1):
                assert delta_n(beta, n, 3, PLAN3) == \
                    ref_delta_n(beta, n, 3, PLAN3)
            reverify_zones(build_red_zones(beta, PLAN3, 3, Fraction(1, 2)),
                           beta, PLAN3, 3)

    def test_ill_at_matches_mask_density(self):
        beta = Fraction(1, 3)
        n, m = 1, 3
        want = delta_n(beta, n, m, PLAN3)
        valid, j0, j1 = zip(*(_match(PLAN3, n, m, beta,
                                     _numerator(PLAN3, m, x))
                              for x in range(PLAN3.q(m))))
        got = Fraction(sum(v and a != b for v, a, b in zip(valid, j0, j1)),
                       PLAN3.q(m))
        assert got == want


class TestRedZones:
    def test_zone_members_reverify_and_disjoint(self):
        beta = Fraction(1, 3)
        reverify_zones(build_red_zones(beta, PLAN3, 3, Fraction(1, 2)),
                       beta, PLAN3, 3)

    def test_bad_delta_rejected(self):
        with pytest.raises(ValueError):
            build_red_zones(0, PLAN3, 3, Fraction(0))


class TestReports:
    def test_stage_constants_built_once_per_kernel(self, monkeypatch):
        # the report's lanes and densities and the CSV that follows all
        # read the one (plan, anchor, beta) kernel: stages 0..3, once
        calls = []
        stage = rotation._stage
        monkeypatch.setattr(rotation, "_stage",
                            lambda *a: calls.append(a) or stage(*a))
        monkeypatch.setattr(rotation, "_KERNELS", {})
        rotation_report(PLAN3, Fraction(1, 3), 2, 3)
        assert sorted(a[1] for a in calls) == [0, 1, 2, 3]
        calls.clear()
        delta_csv(PLAN3, Fraction(1, 3), 2, 3)
        assert calls == []

    def test_json_report_fields(self):
        doc = rotation_report(PLAN3, Fraction(1, 3), 1, 3)
        assert json.loads(json.dumps(doc)) == doc
        assert doc["anchor"] == 3
        assert len(doc["delta"]) == 1
        assert doc["finiteness_decidable"] is False

    def test_csv_matches_delta(self):
        text = delta_csv(PLAN3, Fraction(1, 3), 2, 3)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 2
        for row in rows:
            n = int(row["n"])
            want = delta_n(Fraction(1, 3), n, 3, PLAN3)
            assert Fraction(int(row["numerator"]),
                            int(row["denominator"])) == want


@st.composite
def small_plans(draw):
    two_three = st.sampled_from((2, 3))
    return desk_plan(kl=tuple((draw(two_three), draw(two_three))
                              for _ in range(3)))


# beta outside [0, 1) too: the kernel reduces it mod 1 itself
betas = st.builds(lambda a, d, k: Fraction(a % d, d) + k,
                  st.integers(0, 2 ** 80), st.integers(1, 2 ** 80),
                  st.sampled_from((0, 0, 0, -1, 2 ** 70)))


class TestPositionKernel:
    @settings(max_examples=40, deadline=None)
    @given(plan=small_plans(), beta=betas, data=st.data())
    def test_kernel_matches_fraction_reference(self, plan, beta, data):
        m = 3
        xs = data.draw(st.lists(st.integers(0, plan.q(m) - 1),
                                min_size=1, max_size=12))
        a = _numerator(plan, m, np.array(xs, dtype=np.int64))
        for n in range(m + 1):
            stage = _stage(plan, n, m, beta)
            r, d, lane_R = _position(stage, a)
            for i, x in enumerate(xs):
                want = ref_position(beta, plan, n, m, x)
                got = _position(stage, _numerator(plan, m, x))
                assert got == want
                assert [type(v) for v in got] == [int, int, bool]
                assert (int(r[i]), int(d[i]), bool(lane_R[i])) == want
        for n in range(m - 1):
            valid, j0, j1 = _match(plan, n, m, beta, a)
            ill = valid & (j0 != j1)
            for i, x in enumerate(xs):
                got_valid, got_j0, got_j1 = _match(plan, n, m, beta,
                                                   _numerator(plan, m, x))
                got = got_valid and got_j0 != got_j1
                assert got == bool(ill[i]) == ref_ill(beta, plan, n, m, x)
                # j0 and j1 agree too, as ints and in the arrays
                if got_valid:
                    assert (got_j0, got_j1) == (j0[i], j1[i]) == \
                        ref_match(beta, plan, n, m, x)
                    assert type(got_j0) is int
        assert delta_n(beta, 0, 2, plan) == ref_delta_n(beta, 0, 2, plan)


def circ_over(plan):
    """A circular sequence of two words per stage over the depth-3 plan."""
    return circular_sequence(plan, "01", [
        [tuple((i + j) % 2 for j in range(plan.stage(n).k)) for i in (0, 1)]
        for n in range(3)])


@st.composite
def public_betas(draw):
    """beta in each form the public API takes: a Fraction (beta >= 1 and
    negative ones too), an "a/b" string, a float or an int.  Small
    denominators put positions on the lane cut and make ill matches
    common."""
    v = draw(betas | st.builds(Fraction, st.integers(-64, 64),
                               st.sampled_from((1, 2, 3, 4, 7, 16, 64))))
    return draw(st.sampled_from(
        (v, f"{v.numerator}/{v.denominator}", float(v), int(v))))


def ref_displacement(beta, pw, n):
    if n < pw.M and not maturity(pw, n).mature:
        return Displacement(None, None, reason=maturity(pw, n).violated)
    plan, x = pw.seq.plan, pw.anchor
    _, d, lane_R = ref_position(beta, plan, n, pw.M, x)
    return Displacement(d, "R" if lane_R else "L",
                        (beta * plan.q(n)).denominator == 1)


def ref_match_class(beta, pw, n):
    if n + 1 > pw.M:
        return MatchClass(None, reason="anchor too shallow")
    if not maturity(pw, n).mature:
        return MatchClass(None, reason=maturity(pw, n).violated)
    jj = ref_match(beta, pw.seq.plan, n, pw.M, pw.anchor)
    if jj is None:
        return MatchClass(None, reason="block start in spacer region")
    j0, j1 = jj
    if j0 == j1:
        return MatchClass("well", j0, j1)
    return MatchClass("ill", j0, j1, t=pw.seq.plan.stage(n).k - j0)


class TestPointwiseKernel:
    @settings(max_examples=100, deadline=None)
    @given(plans=st.tuples(small_plans(), small_plans()),
           pair=st.tuples(public_betas(), public_betas()),
           c=st.integers(1, 2 ** 20), data=st.data())
    def test_public_results_match_fraction_reference(self, plans, pair, c,
                                                      data):
        # two plans, two anchors and three betas interleaved, one of them
        # with the first beta's denominator, and the first beta also passed
        # as a distinct object of equal value: every call must read its own
        # (plan, anchor, beta mod 1) constants
        seqs = [circ_over(plan) for plan in plans]
        value = Fraction(pair[0])
        forms = (*pair, Fraction(value.numerator, value.denominator),
                 value + Fraction(c, value.denominator))
        calls = data.draw(st.lists(st.tuples(
            st.integers(0, 1), st.integers(2, 3), st.integers(0, 2 ** 20),
            st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=40))
        for which, M, x, n, form in calls:
            plan = plans[which]
            pw = PointWindow(seqs[which], M, 0, x % plan.q(M))
            beta, value = forms[form], Fraction(forms[form])
            if n <= M:
                assert displacement(beta, pw, n) == \
                    ref_displacement(value, pw, n)
            assert match_class(beta, pw, n) == ref_match_class(value, pw, n)

    @pytest.mark.parametrize("beta", [Fraction(1, 8), Fraction(-5, 16),
                                      "7/3", 0.375, 2])
    def test_every_position_of_two_interleaved_towers(self, beta):
        # every anchor-2 position, so positions on the lane cut are met
        seqs = [circ_over(plan)
                for plan in (PLAN3, desk_plan(kl=((3, 2), (2, 3), (2, 2))))]
        value = Fraction(beta)
        for x in range(max(seq.plan.q(2) for seq in seqs)):
            for pw in (PointWindow(seq, 2, 0, x) for seq in seqs
                       if x < seq.plan.q(2)):
                for n in range(3):
                    assert displacement(beta, pw, n) == \
                        ref_displacement(value, pw, n)
                    assert match_class(beta, pw, n) == \
                        ref_match_class(value, pw, n)

    def test_no_stage_rebuilt_after_first_call(self, monkeypatch):
        seq = circ3()
        beta = Fraction(5, 7)
        pws = [PointWindow(seq, 3, 0, x) for x in range(PLAN3.q(3))]
        pws = [pw for pw in pws if maturity(pw, 0).mature]
        displacement(beta, pws[0], 1)
        calls = []
        stage = rotation._stage
        monkeypatch.setattr(rotation, "_stage",
                            lambda *a: calls.append(a) or stage(*a))
        for i in range(500):
            pw = pws[i % len(pws)]
            # mature windows: both calls read the kernel
            assert displacement(beta, pw, 1 + i % 3).defined
            match_class(beta, pw, i % 2)
        assert calls == []
        # a new beta builds each stage n <= M once, through the patch
        displacement(Fraction(5, 11), pws[0], 1)
        assert len(calls) == 4

    def test_memo_stays_bounded(self):
        pw = next(pw for pw in (PointWindow(circ3(), 3, 0, x)
                                for x in range(PLAN3.q(3)))
                  if maturity(pw, 1).mature)
        for b in range(2, 2 * rotation._KERNELS_MAX + 10):
            displacement(Fraction(1, b), pw, 1)
            assert len(rotation._KERNELS) <= rotation._KERNELS_MAX


class TestWindowMatchData:
    """match_class keeps each window's beta-free match data by stage and
    reads it under every later beta."""

    @settings(max_examples=40, deadline=None)
    @given(plan=small_plans(), data=st.data())
    def test_one_window_under_many_betas(self, plan, data):
        # each window is built once and queried again under three betas of
        # distinct values, a distinct Fraction equal to the first and the
        # first + 1, in interleaved order
        seq = circ_over(plan)
        values = data.draw(st.lists(public_betas(), min_size=3, max_size=3,
                                    unique_by=lambda b: Fraction(b) % 1))
        first = Fraction(values[0])
        forms = (*values, Fraction(first.numerator, first.denominator),
                 first + 1)
        pws = [PointWindow(seq, 2, 0, x) for x in range(plan.q(2))]
        mature = [pw for pw in pws if maturity(pw, 0).mature] or pws
        picked = data.draw(st.lists(st.sampled_from(mature), min_size=1,
                                    max_size=4))
        calls = data.draw(st.lists(st.tuples(
            st.integers(0, len(picked) - 1), st.integers(0, 2),
            st.integers(0, len(forms) - 1)), min_size=8, max_size=40))
        for i, n, form in calls:
            pw, beta = picked[i], forms[form]
            assert displacement(beta, pw, n) == \
                ref_displacement(Fraction(beta), pw, n)
            assert match_class(beta, pw, n) == \
                ref_match_class(Fraction(beta), pw, n)

    def test_beta_free_part_computed_once(self, monkeypatch):
        calls = []
        base = rotation._match_base
        monkeypatch.setattr(rotation, "_match_base",
                            lambda *a: calls.append(a) or base(*a))
        seq = circ3()
        pws = [PointWindow(seq, 3, 0, x) for x in range(PLAN3.q(3))]
        betas = (Fraction(1, 3), Fraction(5, 7), Fraction(1, 3) + 1,
                 Fraction(1, 3), Fraction(3, 16))
        for beta in betas:
            got = [[match_class(beta, pw, n) for n in range(3)]
                   for pw in pws]
        assert len(calls) == sum(maturity(pw, n).mature
                                 for pw in pws for n in range(3))
        for pw, row in list(zip(pws, got))[::41]:
            assert row == [ref_match_class(betas[-1], pw, n)
                           for n in range(3)]

    def test_queried_window_is_still_its_value(self):
        seq = circ3()
        pws = [PointWindow(seq, 3, 0, x) for x in range(PLAN3.q(3))]
        valid = [pw for pw in pws
                 if match_class(Fraction(1, 3), pw, 1).defined]
        pw, other = valid[0], valid[len(valid) // 2]
        fresh = PointWindow(seq, 3, 0, pw.anchor)
        assert pw._match is not None and fresh._match is None
        assert pw == fresh and hash(pw) == hash(fresh)
        assert repr(pw) == repr(fresh)
        moved = dataclasses.replace(pw, anchor=other.anchor)
        assert moved._match is None
        for beta in (Fraction(1, 3), Fraction(5, 7)):
            for n in range(3):
                assert match_class(beta, moved, n) == \
                    ref_match_class(beta, moved, n) == \
                    match_class(beta, other, n)

    def test_beta_revisited_after_the_memo_turns_over(self):
        seq = circ3()
        pws = [pw for pw in (PointWindow(seq, 3, 0, x)
                             for x in range(0, PLAN3.q(3), 5))
               if maturity(pw, 0).mature]
        beta = Fraction(3, 7)
        first = [match_class(beta, pw, n) for pw in pws for n in range(3)]
        for b in range(2, 2 * rotation._KERNELS_MAX + 10):
            for pw in pws:
                for n in range(3):
                    match_class(Fraction(1, b), pw, n)
        for form in (beta, Fraction(3, 7), beta + 1):
            again = [match_class(form, pw, n) for pw in pws for n in range(3)]
            assert again == first == [ref_match_class(beta, pw, n)
                                      for pw in pws for n in range(3)]
