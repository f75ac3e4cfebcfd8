"""End-to-end acceptance battery.

Eleven numbered criteria, each a single test.  A one-line verdict per
criterion (with its tolerance and time budget) is printed in the terminal
summary by conftest.py.  Statistical criteria are seed-pinned; everything
else is exact.
"""

import random
import time
from dataclasses import replace
from fractions import Fraction
from math import floor, gcd

import pytest

from circsys.circular import (apply_C, apply_Cr, parse_circular,
                              reversal_identity_applies)
from circsys.codes import code_coefficients, kappa_sequence, natural_code
from circsys.coefficients import desk_plan, dynamical_index
from circsys.locations import PointWindow, immature_fraction, maturity
from circsys.rotation import (analyze_rotation, build_red_zones, delta_n,
                              displacement)
from circsys.specbuild import (J_TOLERANCE, build_attempt, build_words,
                               check_specs, check_T4, check_timing,
                               gamma_cascade, groups_from_tree, lift_build,
                               _Stage, _check_T5, _check_T6, _check_T7)
from circsys.systems import (circular_sequence, functor_F, functor_inverse,
                             odometer_sequence, propagate_equivalence,
                             uniformity_report, with_classes)
from circsys.trees import (TreePrefix, certify_continuity, mutate_tree,
                           reduce)
from circsys.words import reverse, unique_readability, word
from fixtures import entry, identity_action
from test_rotation import ref_delta_n, reverify_zones
from test_specbuild import assert_same_entry, ref_T4

# criterion number -> (label, tolerance / budget note); conftest reads this
# to print the per-criterion verdict lines
CRITERIA = {
    1: ("arithmetic backbone", "exact equality; budget 1 s"),
    2: ("interleaving anatomy", "exact, 200 random cases; budget 10 s"),
    3: ("reversal identity", "exact, 100 prewords + q=1 pin; budget 5 s"),
    4: ("odometer/circular functor", "exact, exhaustive 2-class; budget 10 s"),
    5: ("locations and immaturity", "exact counts over q_3; budget 30 s"),
    6: ("rotation laws", "exact, 20 betas at anchor 3; budget 120 s"),
    7: ("red zones", "exact re-verification; budget 120 s"),
    8: ("natural map", "coefficients exact; agreement >= 95% of 500, "
        "seed-pinned"),
    9: ("builder pipeline", "gate 100%; J10 decrease >= 95% of 20 seeds; "
        "mutation battery; budget 600 s"),
    10: ("gamma separation", "exact d-bar at levels <= 2; budget 300 s"),
    11: ("reduction continuity", "exact hashes, 10 prefixes; budget 300 s"),
}


def _budget(start, seconds):
    assert time.monotonic() - start < seconds, \
        f"ran past the {seconds} s budget"


def _random_stage(rng):
    k = rng.choice([2, 3, 4])
    l = rng.choice([2, 3, 4])
    q = rng.choice([2, 3, 4, 5])
    p = rng.choice([p for p in range(1, q) if gcd(p, q) == 1])
    return k, l, p, q


def _random_preword(rng, k, q):
    return tuple("".join(rng.choice("01") for _ in range(q))
                 for _ in range(k))


def test_criterion_01_arithmetic_backbone():
    start = time.monotonic()
    plan = desk_plan(kl=((2, 2), (2, 2)))
    assert [(plan.q(n), plan.p(n)) for n in range(3)] == \
        [(1, 0), (4, 1), (64, 17)]

    rng = random.Random(101)
    for _ in range(10):
        kl = tuple((rng.choice([2, 3, 4]), rng.choice([2, 3, 4]))
                   for _ in range(10))
        plan = desk_plan(kl=kl)
        for n in range(plan.depth - 1):
            assert plan.alpha(n + 1) - plan.alpha(n) == \
                Fraction(1, plan.q(n + 1))

    pairs = 0
    while pairs < 50:
        q = rng.randrange(2, 200)
        p = rng.randrange(1, q)
        if gcd(p, q) != 1:
            continue
        pairs += 1
        js = [dynamical_index(p, q, i) for i in range(q)]
        assert sorted(js) == list(range(q))
        assert all(q - js[i] == js[q - i] for i in range(1, q))
    _budget(start, 1)


def test_criterion_02_interleaving_anatomy():
    start = time.monotonic()
    rng = random.Random(102)
    for _ in range(200):
        k, l, p, q = _random_stage(rng)
        pre = _random_preword(rng, k, q)
        w = apply_C(pre, (k, l, p, q))
        dec = parse_circular(word(w.materialize()), (k, l, p, q))
        assert w.length == k * l * q * q
        assert dec.boundary_fraction == Fraction(1, l)
        assert Fraction(dec.near_boundary_count(), w.length) <= Fraction(3, l)
        assert tuple(c.materialize() for c in dec.preword) == pre
        cert = unique_readability(sorted(set(pre)))
        assert cert.readable, cert.counterexample
    _budget(start, 10)


def test_criterion_03_reversal_identity():
    start = time.monotonic()
    rng = random.Random(103)
    for _ in range(100):
        k, l, p, q = _random_stage(rng)
        pre = _random_preword(rng, k, q)
        assert reversal_identity_applies((k, l, p, q))
        lhs = reverse(apply_C(pre, (k, l, p, q))).materialize()
        rhs = apply_Cr(tuple(w[::-1] for w in pre),
                       (k, l, p, q)).materialize()
        assert lhs == rhs

    # the q = 1 degeneracy is pinned as a genuine failure
    stage = (2, 2, 0, 1)
    assert not reversal_identity_applies(stage)
    pre = ("1", "0")
    assert reverse(apply_C(pre, stage)).materialize() != \
        apply_Cr(tuple(w[::-1] for w in pre), stage).materialize()
    _budget(start, 5)


def test_criterion_04_functor():
    start = time.monotonic()
    plan = desk_plan(kl=((4, 2), (2, 2)))
    comps = [[(0, 1, 0, 1), (1, 0, 1, 0)], [(0, 1), (1, 0)]]
    odo = odometer_sequence(plan, "01", comps)

    for n in (1, 2):
        assert functor_inverse(functor_F(odo)).stage(n).compositions == \
            odo.stage(n).compositions
    circ = functor_F(odo)
    for n in (1, 2):
        assert functor_F(functor_inverse(circ)).stage(n).compositions == \
            circ.stage(n).compositions

    assert uniformity_report(odo).kind == "strongly-uniform"
    assert uniformity_report(circ).kind == "strongly-uniform"

    # class propagation commutes with the lift, exhaustively over the
    # four labelings of two stage-1 classes
    for classes1 in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        direct = propagate_equivalence(classes1, odo.stage(2).compositions)
        lifted = propagate_equivalence(classes1, circ.stage(2).compositions)
        assert direct == lifted
    _budget(start, 10)


def test_criterion_05_locations():
    start = time.monotonic()
    plan = desk_plan(kl=((2, 2),) * 3)
    prewords = [[(0, 1), (1, 0)]] * 3
    seq = circular_sequence(plan, "01", prewords)
    M = 3
    qM = plan.q(M)

    from circsys.locations import locate, location_tables
    tables = location_tables(plan, M)
    for n in range(M):
        rs = tables[n]
        prev = None
        for x in range(qM):
            loc = locate(PointWindow(seq, M, 0, x), n)
            assert loc.value == (None if rs[x] < 0 else rs[x])
            if prev is not None and prev >= 0 and rs[x] >= 0:
                # within a block the offset advances by one; any other
                # defined transition restarts at the block head
                assert rs[x] in (prev + 1, 0)
            prev = rs[x]

    # immaturity at n is covered by: boundary mass 1/l_n and the epsilon
    # bands at level n, plus the same quantities at every deeper level.
    # The sum below is the exact union bound, phrased as
    # 1/l_n + eps_n + slack.
    for n in range(M):
        frac = immature_fraction(seq, M, 0, n)
        st = plan.stage(n)
        union = Fraction(0)
        for m in range(n, M):
            sm = plan.stage(m)
            qm = plan.q(m)
            e0 = floor(sm.eps_classic * sm.l)
            e1 = floor(sm.eps_classic * sm.k)
            e2 = floor(sm.eps_classic * qm)
            union += Fraction(1, sm.l) + Fraction(2 * e0, sm.l) + \
                Fraction(2 * e1, sm.k) + Fraction(2 * e2, qm)
        slack = union - Fraction(1, st.l) - st.eps_classic
        assert frac <= Fraction(1, st.l) + st.eps_classic + slack
    _budget(start, 30)


def test_criterion_06_rotation_laws():
    start = time.monotonic()
    plan = desk_plan(kl=((2, 2),) * 3)
    seq = circular_sequence(plan, "01", [[(0, 1), (1, 0)]] * 3)
    m = 3
    qm = plan.q(m)

    windows = [PointWindow(seq, m, 0, x) for x in range(qm)]
    mature = {n: [maturity(pw, n).mature for pw in windows] for n in (1, 2)}

    rng = random.Random(106)
    betas = [Fraction(rng.randrange(1, 96), 96) for _ in range(20)]
    for beta in betas:
        for n in (1, 2):
            q = plan.q(n)
            j1 = dynamical_index(plan.p(n), plan.q(n), 1)
            vals = set()
            for x in range(qm):
                if not mature[n][x]:
                    continue
                d = displacement(beta, windows[x], n)
                if d.defined:
                    vals.add(d.value)
            assert len(vals) <= 2
            if len(vals) == 2:
                a, b = sorted(vals)
                assert (b - a) % q in (j1 % q, (q - j1) % q)

            ana = analyze_rotation(plan, beta, m).stage(n)
            if not ana.degenerate:
                got = Fraction(ana.lane_L_count, qm)
                assert abs(got - ana.beta_n) <= Fraction(2 * q, qm)

    # zero beta: no displacement anywhere
    for x in range(0, qm, 13):
        d = displacement(0, windows[x], 1)
        if d.defined:
            assert d.value == 0

    # structural mask density equals the per-position oracle
    for beta in betas[:4] + [Fraction(0)]:
        for n in (0, 1):
            assert delta_n(beta, n, m, plan) == \
                ref_delta_n(beta, n, m, plan)
    _budget(start, 120)


def test_criterion_07_red_zones():
    start = time.monotonic()
    plan = desk_plan(kl=((2, 2),) * 3)
    for beta, target in [(Fraction(1, 3), Fraction(1, 2)),
                         (Fraction(5, 7), Fraction(1, 4)),
                         (Fraction(3, 16), Fraction(1, 2))]:
        rz = build_red_zones(beta, plan, 3, target)
        reverify_zones(rz, beta, plan, 3)
    _budget(start, 120)


def test_criterion_08_natural_map():
    plan = desk_plan(kl=((2, 2),) * 4)
    A = code_coefficients(plan, plan.depth - 1)
    for n in range(len(A) - 1):
        assert abs(A[n + 1]) < 2 * plan.q(n)
    rng = random.Random(108)
    for _ in range(5):
        kl = tuple((rng.choice([2, 3, 4]), rng.choice([2, 3, 4]))
                   for _ in range(4))
        p2 = desk_plan(kl=kl)
        A2 = code_coefficients(p2, p2.depth - 1)
        assert all(abs(A2[i + 1]) < 2 * p2.q(i) for i in range(len(A2) - 1))

    # successive reflection approximants agree at points whose whole
    # location stack from stage n upward is mature (seed-pinned sample)
    seq = kappa_sequence(plan, 4)
    M, n = 3, 1
    cn, cn1 = natural_code(plan, n), natural_code(plan, n + 1)
    rng = random.Random(2026)
    agree = total = 0
    while total < 500:
        x = rng.randrange(plan.q(M))
        pw = PointWindow(seq, M, 0, x)
        if not maturity(pw, n).mature:
            continue
        total += 1
        a = cn(pw.window_text(-cn.radius, cn.radius + 1))
        b = cn1(pw.window_text(-cn1.radius, cn1.radius + 1))
        agree += a == b
    assert agree >= 475, f"agreement {agree}/500 below 95%"


class TestCriterion09Pipeline:
    SCAFFOLD = groups_from_tree([(), (0,)])
    EPS = (Fraction(1, 4), Fraction(1, 8))

    def test_criterion_09a_gate_always_passes(self):
        start = time.monotonic()
        for seed in range(4):
            plan = desk_plan(kl=((64, 4), (2, 2)), eps_lunate=self.EPS)
            built = build_words(self.SCAFFOLD, plan, seed=seed, level=1)
            assert check_specs(built, J_TOLERANCE).ok()
        _budget(start, 600)

    def test_criterion_09b_j10_decreases_in_k(self):
        start = time.monotonic()
        wins = 0
        for seed in range(20):
            devs = []
            for k in (64, 256, 1024):
                plan = desk_plan(kl=((k, 4), (2, 2)), eps_lunate=self.EPS)
                built = build_attempt(self.SCAFFOLD, plan, seed=seed,
                                      level=1)
                rep = check_specs(built, J_TOLERANCE)
                devs.append(Fraction(entry(rep, "J10@0").worst_deviation))
            wins += devs[0] > devs[1] > devs[2]
        assert wins >= 19, f"strict decrease in only {wins}/20 seeds"
        _budget(start, 600)

    @pytest.fixture(scope="class")
    @staticmethod
    def level1():
        cls = TestCriterion09Pipeline
        plan = desk_plan(kl=((64, 4), (2, 2)), eps_lunate=cls.EPS)
        built = build_words(cls.SCAFFOLD, plan, seed=0, level=1)
        return plan, built

    def _tampered(self, plan, built, comps1, classes1=None):
        seq = odometer_sequence(plan, "01", [comps1])
        cl = classes1 if classes1 is not None else \
            built.seq.stage(1).classes
        seq = with_classes(seq, ((0, 0), tuple(cl)))
        return replace(built, seq=seq)

    def test_criterion_09c_mutation_e2(self, level1):
        plan, built = level1
        k = 64
        bad = [tuple([0] * k), tuple([0] * (k // 2) + [1] * (k // 2))]
        rep = check_specs(self._tampered(plan, built, bad),
                          J_TOLERANCE)
        e = entry(rep, "E2@0")
        assert e.status == "fail"
        assert e.witness["multiplicities"] == [32, 64]

    def test_criterion_09d_mutation_e3(self, level1):
        plan, built = level1
        bad = [tuple([0] * 64), tuple([1] * 64)]
        e = entry(check_specs(self._tampered(plan, built, bad),
                              J_TOLERANCE), "E3@0")
        assert e.status == "fail"
        assert "kind" in e.witness and "words" in e.witness

    def test_criterion_09e_mutation_q4(self, level1):
        plan, built = level1
        comps = [tuple(t) for t in built.seq.stage(1).compositions]
        assert comps[0][0] != comps[1][0]  # words diverge at slot 0
        e = entry(check_specs(self._tampered(plan, built, comps,
                                             classes1=(0, 0)), J_TOLERANCE),
                  "Q4@0")
        assert e.status == "fail"
        assert e.witness["agreed"] == 0

    def test_criterion_09f_mutation_j_family(self, level1):
        plan, built = level1
        k = 64
        cases = {
            "J10@0": [tuple([0] * k)] * 2,
            "J10.1@0": [tuple([0] * k)] * 2,
            "J11.1@0": [tuple([0] * (k // 2) + [1] * (k // 2)),
                        tuple([1] * (k // 2) + [0] * (k // 2))],
        }
        for spec_id, bad in cases.items():
            e = entry(check_specs(self._tampered(plan, built, bad),
                                  J_TOLERANCE), spec_id)
            assert e.status == "fail", spec_id
            assert Fraction(e.worst_deviation) > Fraction(e.tolerance)
            assert "pair" in e.witness

    def test_criterion_09g_mutation_t4(self, level1):
        plan, built = level1
        w0 = tuple(built.seq.stage(1).compositions[0])
        near = list(w0)
        near[5] = 1 - near[5]
        bad = lift_build(self._tampered(plan, built, [w0, tuple(near)]))
        e = check_T4(bad, 1, gamma_cascade(plan, 1).gamma(1))
        assert e.status == "fail"
        assert e.witness["segment"] in ("initial", "tail", "cross")
        assert_same_entry(e, ref_T4(bad, 1, gamma_cascade(plan, 1).gamma(1)))

    @pytest.fixture(scope="class")
    @staticmethod
    def level2():
        cls = TestCriterion09Pipeline
        plan = desk_plan(kl=((64, 4), (1024, 4)), eps_lunate=cls.EPS)
        base = build_attempt(cls.SCAFFOLD, plan, seed=0, level=2)
        const = [tuple([0] * 1024), tuple([1] * 1024)]
        seq = odometer_sequence(
            plan, "01", [list(base.seq.stage(1).compositions), const])
        seq = with_classes(seq, (None, base.seq.stage(1).classes,
                                 base.seq.stage(2).classes))
        return replace(base, seq=seq)

    def test_criterion_09h_mutation_t5_t6_t7(self, level2):
        mu = Fraction(3, 10)
        stage = _Stage(level2, 1, mu)
        t5, t6 = _check_T5(stage), _check_T6(stage)
        assert t5.status == "fail" and t5.worst_deviation == Fraction(1, 2)
        assert t5.witness == {"axiom": "T5a", "w0": 0, "w1": 0, "t": 1,
                              "v": 0, "class": 0}
        assert t6.status == "fail" and t6.worst_deviation == 1
        assert t6.witness == {"w0": 0, "w1": 1, "t": 1, "j0": 64}
        bad7 = replace(level2, actions=(level2.actions[0],
                                        identity_action(2),
                                        level2.actions[2]))
        e = _check_T7(_Stage(bad7, 1, mu))
        assert e.status == "fail" and e.worst_deviation == Fraction(1, 2)
        assert e.witness == {"w0": 0, "w1": 1, "v": 0, "class": 0}


def test_criterion_10_gamma_separation():
    start = time.monotonic()
    plan = desk_plan(kl=((64, 4), (2, 2)),
                     eps_lunate=(Fraction(2, 5), Fraction(1, 5)))
    built = build_words(groups_from_tree([(), (0,)]), plan, seed=11,
                        level=2, j_tolerance=Fraction(1), style="separated")
    # built against 1 at every stage; stage 0's J checks hold against 1/2
    for j in ("J10", "J10.1", "J11", "J11.1"):
        assert entry(built.report, f"{j}@0").worst_deviation < J_TOLERANCE
    lifted = lift_build(built)
    cas = gamma_cascade(plan, 2)
    assert cas.gamma(1) == Fraction(2583, 10240)

    e1 = check_T4(lifted, 1, cas.gamma(1))
    assert e1.status == "pass"
    assert Fraction(e1.worst_deviation) >= cas.gamma(1)
    assert Fraction(e1.worst_deviation) == Fraction(12, 47)  # frozen

    # level 2 is vacuous here: the cascade goes negative, so any family
    # satisfies the separation it demands
    assert cas.gamma(2) == Fraction(-49077, 5120)
    e2 = check_T4(lifted, 2, cas.gamma(2))
    assert e2.status == "pass"

    rep = check_timing(built)
    assert rep.ok()
    _budget(start, 300)


def test_criterion_11_reduction_continuity():
    start = time.monotonic()
    from circsys.trees import TreeError
    plan = desk_plan(kl=((4, 2), (2, 2), (2, 2), (2, 2)))
    rng = random.Random(111)
    done = attempts = 0
    while done < 10:
        attempts += 1
        assert attempts < 400, "could not find 10 usable prefixes"
        nodes = {()}
        for _ in range(rng.randrange(3, 8)):
            base = rng.choice(sorted(nodes))
            nodes.add(base + (rng.randrange(2),))
        t = TreePrefix(frozenset(nodes))      # refuses a non-tree
        n0 = rng.randrange(1, 4)
        if len(nodes) < n0 + 1:
            continue
        try:
            res = reduce(t, n0, plan, seed=done)
            if res.exhausted:
                continue
            cert = certify_continuity(t, n0, plan, seed=done)
        except TreeError:
            continue
        assert cert.unaffected
        assert cert.above_index > cert.bound
        assert cert.above_hash == cert.base_hash
        if cert.consumed_index is not None:
            assert cert.affected
            assert cert.consumed_hash != cert.base_hash
        # independent spot check of the certificate's mutation claims
        mutated = mutate_tree(t, cert.above_index)
        assert reduce(mutated, n0, plan, seed=done).output_hash == \
            res.output_hash
        if cert.consumed_index is not None:
            touched = mutate_tree(t, cert.consumed_index)
            assert reduce(touched, n0, plan, seed=done).output_hash != \
                res.output_hash
        done += 1
    _budget(start, 300)
