"""Staged coefficient arithmetic: recursions, indices, audits."""

import json
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from circsys.coefficients import (PlanError, audit_plan, code_coefficients,
                                  desk_plan, dynamical_index, extend_plan,
                                  plan_from_json, plan_to_json)
from fixtures import entry, grow_plan

coprime_pq = st.integers(2, 400).flatmap(
    lambda q: st.tuples(
        st.sampled_from([p for p in range(1, q) if gcd(p, q) == 1]),
        st.just(q)))


class TestDynamicalIndex:
    @given(coprime_pq)
    def test_bijection(self, pq):
        p, q = pq
        js = [dynamical_index(p, q, i) for i in range(q)]
        assert sorted(js) == list(range(q))

    @given(coprime_pq)
    def test_reflection(self, pq):
        # q - j_i = j_{q-i} for i in (0, q)
        p, q = pq
        for i in range(1, q):
            assert q - dynamical_index(p, q, i) == \
                dynamical_index(p, q, q - i)

    def test_inverse_defining_property(self):
        for p, q in [(1, 4), (17, 64), (5, 12)]:
            for i in range(q):
                assert (p * dynamical_index(p, q, i)) % q == i


class TestRecursion:
    def test_desk_plan_qp(self):
        plan = desk_plan()
        assert [(plan.q(n), plan.p(n)) for n in range(3)] == \
            [(1, 0), (4, 1), (64, 17)]

    def test_q_recursion(self):
        plan = desk_plan(kl=((2, 2), (4, 2), (2, 4)))
        for n in range(plan.depth - 1):
            st_ = plan.stage(n)
            assert plan.q(n + 1) == st_.k * st_.l * plan.q(n) ** 2
            assert plan.p(n + 1) == \
                plan.p(n) * plan.q(n) * st_.k * st_.l + 1

    @given(st.lists(st.tuples(st.integers(2, 5), st.integers(2, 5)),
                    min_size=10, max_size=10))
    @settings(max_examples=25, deadline=None)
    def test_alpha_increments(self, kl):
        plan = desk_plan(kl=tuple(kl))
        for n in range(plan.depth - 1):
            assert plan.alpha(n + 1) - plan.alpha(n) == \
                Fraction(1, plan.q(n + 1))

    def test_p_q_stay_coprime(self):
        plan = desk_plan(kl=((3, 2), (2, 3), (2, 2)))
        for n in range(1, plan.depth):
            assert gcd(plan.p(n), plan.q(n)) == 1


class TestGrowth:
    def test_grow_matches_manual_extension(self):
        plan = grow_plan(3)
        manual = grow_plan(2)
        manual = extend_plan(manual)
        assert plan_to_json(plan) == plan_to_json(manual)

    def test_floor_policy_grows_faster(self):
        d = grow_plan(3)
        f = grow_plan(3, desk=False)
        assert f.stage(2).k >= d.stage(2).k

    def test_floor_plan_extends_and_audits_by_its_own_policy(self):
        f = grow_plan(2, desk=False)
        assert not f.desk_mode
        again = extend_plan(plan_from_json(plan_to_json(f)))
        assert again == grow_plan(3, desk=False)
        assert not any(e.desk_waived for e in audit_plan(again).entries)
        # NR4 reads the divisor of the plan's own policy: mu at 1/8 of its
        # bound passes the desk divisor 4 but not the floor's 16
        loose = replace(again, stages=tuple(replace(x, mu=2 * x.mu)
                                            for x in again.stages))
        assert entry(audit_plan(loose), "NR4").status == "fail"
        assert entry(audit_plan(replace(loose, desk_mode=True)),
                     "NR4").status == "pass"

    def test_bad_recursion_rejected(self):
        doc = json.loads(plan_to_json(desk_plan()))
        doc["stages"][1]["q"] = str(int(doc["stages"][1]["q"]) + 1)
        with pytest.raises((PlanError, ValueError)):
            plan_from_json(json.dumps(doc))

    @pytest.mark.parametrize("name", ["eps_lunate", "eps_classic", "mu"])
    @pytest.mark.parametrize("value", [Fraction(0), Fraction(-1, 4)])
    def test_non_positive_epsilon_rejected(self, name, value):
        with pytest.raises(PlanError, match=name):
            desk_plan(**{name: (Fraction(1, 8), value)})
        # a plan file is refused when read, before anything grows from it
        doc = json.loads(plan_to_json(grow_plan(2, desk=False)))
        doc["stages"][1][name] = str(value)
        with pytest.raises(PlanError, match=name):
            plan_from_json(json.dumps(doc))


class TestCodeCoefficients:
    def test_desk_values(self):
        plan = desk_plan(kl=((2, 2),) * 4)
        assert code_coefficients(plan, 3) == [0, 0, -1, -50]

    def test_growth_bound(self):
        plan = desk_plan(kl=((2, 2),) * 4)
        A = code_coefficients(plan, 3)
        for n in range(1, 4):
            assert abs(A[n]) < 2 * plan.q(n - 1) * plan.q(n)

    def test_growth_violation_raises_plan_error(self):
        # q_n shrinking from 7 to 2 breaks |A_n| < 2 q_n, which no plan
        # obeying the q recursion can; the check must survive python -O
        class ShrinkingPlan:
            depth = 3
            p = staticmethod(lambda n: (0, 3, 1)[n])
            q = staticmethod(lambda n: (1, 7, 2)[n])
        with pytest.raises(PlanError):
            code_coefficients(ShrinkingPlan(), 3)


class TestAudit:
    def test_desk_plan_audited_not_passing(self):
        # desk scale deliberately under-runs the growth floors; the audit
        # must say so rather than pass vacuously
        rep = audit_plan(desk_plan())
        assert not rep.ok()
        assert any(e.status == "pass" for e in rep.entries)

    def test_IR6_accepts_large_prime_square(self):
        # k_0 = P^2 * s with P = 10^9 + 7: P^2 is past 2^53, where a float
        # square root is no longer exact arithmetic
        p = 10 ** 9 + 7
        plan = desk_plan(kl=((p * p, 2),), s=(1,))
        assert entry(audit_plan(plan), "IR6").witness == \
            {"violating_stages": []}

    def test_IR6_square_beyond_float_range(self):
        # k_0 = (2 * 10^200)^2 cannot be converted to a float at all
        plan = desk_plan(kl=(((2 * 10 ** 200) ** 2, 2), (11 ** 2, 2)),
                         s=(1, 1))
        ir6 = entry(audit_plan(plan), "IR6")
        assert ir6.witness == {"violating_stages": [0]}

    def test_report_json_shape(self):
        doc = audit_plan(desk_plan()).to_obj()
        assert json.loads(json.dumps(doc)) == doc
        assert all({"id", "status", "desk_waived"} <= set(e) for e in doc)


class TestSerialization:
    def test_round_trip(self):
        plan = desk_plan(kl=((3, 2), (2, 2)))
        again = plan_from_json(plan_to_json(plan))
        assert plan_to_json(again) == plan_to_json(plan)
        assert [again.q(n) for n in range(again.depth)] == \
            [plan.q(n) for n in range(plan.depth)]
