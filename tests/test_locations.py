"""Principal-block locations, maturity, and the spacer projection."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from circsys.coefficients import desk_plan
from circsys.locations import (D_n, MaturityResult, PointWindow, descend,
                               immature_fraction, locate, location_tables,
                               maturity, project_pi)
from circsys.systems import circular_sequence
from circsys.words import word


def desk_circ(depth=3, kl=((2, 2), (2, 2), (2, 2))):
    plan = desk_plan(kl=kl)
    prewords = [[(0,) * plan.stage(n).k, (1,) * plan.stage(n).k][:2]
                for n in range(depth)]
    k0 = plan.stage(0).k
    prewords[0] = [tuple((i + j) % 2 for j in range(k0)) for i in range(2)]
    return circular_sequence(plan, "01", prewords)


def ref_maturity(pw: PointWindow, n: int) -> MaturityResult:
    """Maturity by walking the descent from M - 1 down to n, level by
    level, and returning the first violation met."""
    if not 0 <= n < pw.M:
        raise ValueError("need 0 <= n < M")
    plan = pw.seq.plan
    x = pw.anchor
    for m in range(pw.M - 1, n - 1, -1):
        st = plan.stage(m)
        i, j, copy, x, ok = descend(st, x)
        if not ok:
            return MaturityResult(False, f"boundary@{m + 1}")
        e0, e1, e2 = st.edge_bands
        if copy < e0 or copy >= (st.l - 1) - e0:
            return MaturityResult(False, f"copy-edge@{m}")
        if j < e1 or j >= st.k - e1:
            return MaturityResult(False, f"subsection-edge@{m}")
        if i < e2 or i >= st.q - e2:
            return MaturityResult(False, f"section-edge@{m}")
    return MaturityResult(True)


class TestWindow:
    def test_range_checked(self):
        seq = desk_circ()                # depth 3, two words per stage
        for M, word_index in ((-1, 0), (4, 0), (3, 2), (3, 5), (3, -1)):
            with pytest.raises(ValueError):
                PointWindow(seq, M, word_index, 0)

    def test_identity_is_the_fields(self):
        seq = desk_circ(depth=2, kl=((2, 2), (2, 2)))
        pw = PointWindow(seq, 2, 1, 17)
        assert pw == PointWindow(seq, 2, 1, 17)
        assert pw != PointWindow(seq, 2, 1, 18)
        assert hash(pw) == hash((seq, 2, 1, 17))
        assert repr(pw) == (f"PointWindow(seq={seq!r}, M=2, word_index=1, "
                            f"anchor=17)")
        assert dataclasses.asdict(pw) == {
            "seq": dataclasses.asdict(seq), "M": 2, "word_index": 1,
            "anchor": 17}

    def test_replace_descends_afresh(self):
        seq = desk_circ()
        plan = seq.plan
        pws = [PointWindow(seq, 3, 0, x) for x in range(plan.q(3))]
        mature = next(pw for pw in pws if maturity(pw, 0).mature)
        immature = next(pw for pw in pws if not maturity(pw, 2).mature)
        for x, y in ((mature, immature), (immature, mature)):
            moved = dataclasses.replace(x, anchor=y.anchor)
            assert [maturity(moved, n) for n in range(3)] == \
                [maturity(y, n) for n in range(3)]


class TestLocate:
    def test_anchor_is_top_location(self):
        seq = desk_circ()
        pw = PointWindow(seq, 2, 0, 17)
        assert locate(pw, 2).value == 17

    def test_matches_bulk_tables(self):
        seq = desk_circ()
        plan = seq.plan
        M = 3
        tables = location_tables(plan, M)
        for x in range(plan.q(M)):
            pw = PointWindow(seq, M, 0, x)
            for n in range(M + 1):
                loc = locate(pw, n)
                want = int(tables[n][x])
                assert (loc.value if loc.defined else -1) == want

    def test_shift_increment_law(self):
        # moving the anchor inside one copy moves every r_n in step
        seq = desk_circ()
        plan = seq.plan
        M = 3
        tables = location_tables(plan, M)
        for n in range(M):
            q = plan.q(n)
            r = tables[n]
            for x in range(plan.q(M) - 1):
                if r[x] >= 0 and r[x + 1] >= 0 and r[x] + 1 < q:
                    # either the next position continues the block or a
                    # new block starts at offset 0
                    assert r[x + 1] in (r[x] + 1, 0)

    def test_boundary_reason(self):
        seq = desk_circ()
        pw = PointWindow(seq, 2, 0, 0)   # position 0 is a b-spacer
        loc = locate(pw, 0)
        assert not loc.defined
        assert "boundary" in loc.reason

    def test_stage_range_checked(self):
        seq = desk_circ()
        with pytest.raises(ValueError):
            locate(PointWindow(seq, 2, 0, 0), 3)


class TestMaturity:
    def test_immature_fraction_bound(self):
        kl = ((4, 4), (2, 2))
        seq = desk_circ(depth=2, kl=kl)
        plan = seq.plan
        for n in (0, 1):
            st = plan.stage(n)
            frac = immature_fraction(seq, 2, 0, n)
            # boundary + edge bands + exact-boundary slack
            slack = Fraction(6, plan.q(n + 1)) if plan.q(n) > 1 else 0
            bound = Fraction(1, st.l) + st.eps_classic * 6 + slack
            assert frac <= bound + Fraction(1, 2)

    def test_stage_range_message_names_both_bounds(self):
        pw = PointWindow(desk_circ(), 2, 0, 0)
        for n in (-1, 2):
            with pytest.raises(ValueError, match="need 0 <= n < M"):
                maturity(pw, n)

    def test_mature_point_has_locations(self):
        seq = desk_circ()
        qM = seq.plan.q(3)
        found = 0
        for x in range(qM):
            pw = PointWindow(seq, 3, 0, x)
            if maturity(pw, 0).mature:
                found += 1
                for n in range(3):
                    assert locate(pw, n).defined
        assert found > 0


    def test_matches_walk_on_the_desk_tower(self):
        # results are shared: equal ones are one object
        seq = desk_circ()
        shared = {}
        for M in (1, 2, 3):
            for x in range(seq.plan.q(M)):
                pw = PointWindow(seq, M, 0, x)
                for n in range(M):
                    got = maturity(pw, n)
                    assert got == ref_maturity(pw, n)
                    assert shared.setdefault(got, got) is got
        assert len(shared) > 2

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(2, 4), st.integers(2, 4)),
                    min_size=2, max_size=3),
           st.data())
    def test_matches_walk(self, kl, data):
        seq = desk_circ(depth=len(kl), kl=tuple(kl))
        M = data.draw(st.integers(1, len(kl)))
        anchors = data.draw(st.lists(
            st.integers(0, seq.plan.q(M) - 1), min_size=1, max_size=30))
        for x in anchors:
            pw = PointWindow(seq, M, 0, x)
            for n in range(M):
                assert maturity(pw, n) == ref_maturity(pw, n)


class TestProjection:
    def test_keeps_only_spacers(self):
        w = word("b01e10b")
        assert project_pi(w).materialize() == "b**e**b"

    def test_commutes_with_materialization(self):
        seq = desk_circ()
        w = seq.stage(2).words[0]
        assert project_pi(w).materialize() == "".join(
            c if c in "be" else "*" for c in w.materialize())


class TestIntervalOrder:
    def test_D_n_is_dynamical_index_of_floor(self):
        from circsys.coefficients import dynamical_index
        p, q = 17, 64
        for num in range(0, 64, 7):
            x = Fraction(num, 64) + Fraction(1, 200)
            assert D_n(x, (p, q)) == dynamical_index(p, q, (x * q).__floor__())

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            D_n(Fraction(3, 2), (1, 4))
