"""Principal-block locations, maturity, and the spacer projection."""

from fractions import Fraction

import pytest

from circsys.coefficients import desk_plan
from circsys.locations import (D_n, PointWindow, immature_fraction,
                               locate, location_tables, maturity,
                               project_pi)
from circsys.systems import circular_sequence
from circsys.words import word


def desk_circ(depth=3, kl=((2, 2), (2, 2), (2, 2))):
    plan = desk_plan(kl=kl)
    prewords = [[(0,) * plan.stage(n).k, (1,) * plan.stage(n).k][:2]
                for n in range(depth)]
    k0 = plan.stage(0).k
    prewords[0] = [tuple((i + j) % 2 for j in range(k0)) for i in range(2)]
    return circular_sequence(plan, "01", prewords)


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
