"""Verification-gated word construction and the spec/timing batteries."""

from dataclasses import replace
from fractions import Fraction
from math import ceil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circsys.coefficients import desk_plan
from circsys.specbuild import (BuildError, SpecEntry, ToleranceProfile,
                               _J11_1_pairs, _check_J10_J10_1, _check_J11_1,
                               _prefix_argmax, _prefix_pair_counts,
                               build_words, check_T4, check_T5, check_T6,
                               check_T7, check_specs, check_timing,
                               desk_tolerances, gamma_cascade,
                               groups_from_tree, lift_build)

SC = groups_from_tree([(), (0,)])
PLAN = desk_plan(kl=((64, 4), (2, 2)),
                 eps_lunate=(Fraction(1, 4), Fraction(1, 8)))
SEP_PLAN = desk_plan(kl=((64, 4), (2, 2)),
                     eps_lunate=(Fraction(2, 5), Fraction(1, 5)))


class TestScaffold:
    def test_shape(self):
        assert SC.M(1) == 1
        assert SC.G_size(1, 1) == 2
        assert SC.X(1, 1) == ((0,),)
        assert SC.M(2) is None

    def test_parent_before_child_required(self):
        with pytest.raises(ValueError):
            groups_from_tree([(0,)])

    def test_rho_drops_last(self):
        assert SC.rho((0, 1)) == (0,)


class TestBuild:
    def test_gated_build_passes_own_battery(self):
        built = build_words(SC, PLAN, seed=0, level=1)
        assert built.report.ok()
        again = check_specs(built, desk_tolerances())
        assert again.ok()

    def test_seed_determinism(self):
        a = build_words(SC, PLAN, seed=4, level=1)
        b = build_words(SC, PLAN, seed=4, level=1)
        assert a.seq.stage(1).compositions == b.seq.stage(1).compositions
        c = build_words(SC, PLAN, seed=5, level=1)
        assert a.seq.stage(1).compositions != c.seq.stage(1).compositions

    def test_scaffold_data_is_consumed(self):
        deeper = groups_from_tree([(), (0,), (1,)])
        a = build_words(SC, PLAN, seed=4, level=1, gate=False)
        b = build_words(deeper, PLAN, seed=4, level=1, gate=False)
        assert a.seq.stage(1).compositions != b.seq.stage(1).compositions

    def test_impossible_tolerance_exhausts_budget(self):
        with pytest.raises(BuildError) as err:
            build_words(SC, PLAN, seed=0, level=1,
                        tolerances=ToleranceProfile(j_family=Fraction(0)),
                        retry_budget=3)
        assert err.value.report is not None
        assert err.value.report.failures()

    def test_class_count_is_group_bound(self):
        built = build_words(SC, PLAN, seed=0, level=1)
        assert built.seq.stage(1).num_classes() == 2

    def test_actions_free_and_side_swapping(self):
        built = build_words(SC, PLAN, seed=0, level=1)
        act = built.actions[1]
        assert act.is_free()
        for g in act.generators:
            assert all(key[1] != g[key][1] for key in g)


class TestReports:
    def test_entry_ids_cover_families(self):
        built = build_words(SC, PLAN, seed=0, level=1)
        ids = {e.spec_id for e in built.report.entries}
        for fam in ("E1@0", "E2@0", "E3@0", "J10@0", "J10.1@0",
                    "J11@0", "J11.1@0", "Q4@0", "Q6@0"):
            assert fam in ids

    def test_failures_carry_witnesses(self):
        built = build_words(SC, PLAN, seed=0, level=1, gate=False,
                            tolerances=ToleranceProfile(
                                j_family=Fraction(0)))
        rep = check_specs(built, ToleranceProfile(j_family=Fraction(0)))
        bad = rep.failures()
        assert bad
        assert all(e.witness for e in bad)

    def test_json_round(self):
        import json
        built = build_words(SC, PLAN, seed=0, level=1)
        doc = json.loads(built.report.to_json())
        assert {e["spec"] for e in doc} == \
            {e.spec_id for e in built.report.entries}


class TestGamma:
    def test_cascade_values(self):
        gc = gamma_cascade(SEP_PLAN, 2)
        assert gc.gamma(1) == Fraction(2583, 10240)
        assert gc.gamma(2) == Fraction(-49077, 5120)
        assert not gc.positive

    def test_first_level_formula(self):
        gc = gamma_cascade(PLAN, 1)
        e0, k0, l0 = Fraction(1, 4), 64, 4
        want = (1 - Fraction(1, 4) - e0) * (1 - Fraction(1, e0 * k0)) \
            * (1 - Fraction(1, l0))
        assert gc.gamma(1) == want


class TestTiming:
    @pytest.fixture(scope="class")
    @staticmethod
    def separated():
        tol = ToleranceProfile(
            j_family=lambda n: Fraction(1, 2) if n == 0 else Fraction(1))
        return build_words(SC, SEP_PLAN, seed=11, level=2,
                           tolerances=tol, style="separated")

    def test_T4_level1_meets_cascade(self, separated):
        gc = gamma_cascade(SEP_PLAN, 2)
        circ = lift_build(separated)
        entry = check_T4(circ, 1, gc.gamma(1))
        assert entry.status == "pass"
        assert Fraction(entry.worst_deviation) >= gc.gamma(1)

    def test_T4_vacuous_on_nonpositive_gamma(self, separated):
        gc = gamma_cascade(SEP_PLAN, 2)
        entry = check_T4(lift_build(separated), 2, gc.gamma(2))
        assert entry.status == "pass"
        assert "vacuous" in str(entry.witness).lower() or \
            gc.gamma(2) <= 0

    def test_battery_shape(self, separated):
        gc = gamma_cascade(SEP_PLAN, 2)
        rep = check_timing(separated, level=1, gamma=gc)
        ids = {e.spec_id for e in rep.entries}
        assert {"T1@0", "T2@0", "T3@0", "T4@1", "T5@0", "T6@0",
                "T7@0"} <= ids
        assert rep.ok()

    def test_frequency_checks_run(self, separated):
        circ = lift_build(separated)
        for chk in (check_T5, check_T6, check_T7):
            entry = chk(circ, 1, Fraction(1, 2))
            assert entry.status in ("pass", "fail", "not-checked")


class TestLift:
    def test_lift_is_circular_and_keeps_classes(self):
        built = build_words(SC, PLAN, seed=0, level=1)
        circ = lift_build(built)
        assert circ.seq.flavor == "circular"
        assert circ.seq.stage(1).classes == built.seq.stage(1).classes
        assert circ.seq.word_length(1) == PLAN.q(1)


# ---------------------------------------------------------------------------
# reference J-family checks: one bincount or one-hot cumsum per (u, v, t).
# They are independent of the batched prefix kernel and define the entries
# (deviation, witness, tie-break) the kernel-based checks must reproduce.

def _parity_pairs(s_prev, u_rev, v_rev):
    urange = range(s_prev, 2 * s_prev) if u_rev else range(s_prev)
    vrange = range(s_prev, 2 * s_prev) if v_rev else range(s_prev)
    return [a * 2 * s_prev + b for a in urange for b in vrange]


def ref_J10(slots, s, s_prev, eps, tol):
    k = slots.shape[1]
    target = Fraction(1, s_prev * s_prev)
    worst, witness = Fraction(0), {}
    t_max = ceil((1 - Fraction(eps)) * k) - 1
    for ui in range(2 * s):
        for vi in range(2 * s):
            for t in range(1, t_max + 1):
                pair = slots[ui, t:] * (2 * s_prev) + slots[vi, :k - t]
                counts = np.bincount(pair, minlength=4 * s_prev * s_prev)
                for pid in _parity_pairs(s_prev, ui >= s, vi >= s):
                    dev = abs(Fraction(int(counts[pid]), k - t) - target)
                    if dev > worst:
                        worst = dev
                        witness = {"u": ui, "v": vi, "t": t,
                                   "pair": (pid // (2 * s_prev),
                                            pid % (2 * s_prev)),
                                   "count": int(counts[pid]), "overlap": k - t}
    status = "pass" if worst < tol else "fail"
    return SpecEntry("J10", status, worst, tol, witness)


def ref_J10_1(slots, s, s_prev, eps, tol):
    k = slots.shape[1]
    target = Fraction(1, s_prev * s_prev)
    eps = Fraction(eps)
    worst, witness = Fraction(0), {}
    j_lo = max(1, ceil(eps * k))
    t_max = ceil((1 - eps) * k) - 1
    npair = 4 * s_prev * s_prev
    tf = float(target)
    for ui in range(2 * s):
        for vi in range(2 * s):
            pids = np.array(_parity_pairs(s_prev, ui >= s, vi >= s))
            for t in range(1, t_max + 1):
                if k - t < j_lo:
                    continue
                pair = slots[ui, t:] * (2 * s_prev) + slots[vi, :k - t]
                onehot = np.zeros((npair, k - t), dtype=np.int64)
                onehot[pair, np.arange(k - t)] = 1
                cums = np.cumsum(onehot[pids], axis=1)[:, j_lo - 1:]
                j0s = np.arange(j_lo, k - t + 1)
                devs = np.abs(cums / j0s - tf)
                r, c = np.unravel_index(np.argmax(devs), devs.shape)
                dev = abs(Fraction(int(cums[r, c]), int(j0s[c])) - target)
                if dev > worst:
                    pid = int(pids[r])
                    worst = dev
                    witness = {"u": ui, "v": vi, "t": t, "j0": int(j0s[c]),
                               "pair": (pid // (2 * s_prev),
                                        pid % (2 * s_prev))}
    status = "pass" if worst < tol else "fail"
    return SpecEntry("J10.1", status, worst, tol, witness)


def ref_J11_1(slots, s, s_prev, pairs, eps, tol):
    """``pairs`` lists the (u, v) outside one class orbit, in loop order."""
    k = slots.shape[1]
    target = Fraction(1, s_prev * s_prev)
    eps = Fraction(eps)
    worst, witness = Fraction(0), {}
    j_lo = max(1, ceil(eps * k))
    for ui, vi in pairs:
        pids = np.array(_parity_pairs(s_prev, False, vi >= s))
        pair = slots[ui, :] * (2 * s_prev) + slots[vi, :]
        npair = 4 * s_prev * s_prev
        onehot = np.zeros((npair, k), dtype=np.int64)
        onehot[pair, np.arange(k)] = 1
        pre = np.cumsum(onehot[pids], axis=1)
        suf = np.cumsum(onehot[pids][:, ::-1], axis=1)
        j0s = np.arange(j_lo, k + 1)
        tf = float(target)
        for segment, cums in (("initial", pre), ("tail", suf)):
            win = cums[:, j_lo - 1:]
            devs = np.abs(win / j0s - tf)
            r, c = np.unravel_index(np.argmax(devs), devs.shape)
            dev = abs(Fraction(int(win[r, c]), int(j0s[c])) - target)
            if dev > worst:
                pid = int(pids[r])
                worst = dev
                witness = {"u": ui, "v": vi, "j0": int(j0s[c]),
                           "segment": segment,
                           "pair": (pid // (2 * s_prev),
                                    pid % (2 * s_prev))}
    status = "pass" if worst < tol else "fail"
    return SpecEntry("J11.1", status, worst, tol, witness)


def signed_slot_matrix(words, s_prev):
    """Rows: each word, then each word reversed over the signed alphabet."""
    return np.array([list(w) for w in words] +
                    [[x + s_prev for x in reversed(w)] for w in words],
                    dtype=np.int64)


def assert_same_entry(got, want):
    # repr also pins the witness value types, which the JSON report prints
    assert got == want
    assert repr(got) == repr(want)


EPS = st.sampled_from([Fraction(1, 8), Fraction(1, 5), Fraction(1, 4),
                       Fraction(2, 5)])


@st.composite
def word_families(draw):
    s_prev = draw(st.sampled_from([2, 4]))
    k = draw(st.integers(2, 64))
    s = draw(st.integers(1, 2))
    symbol = st.integers(0, s_prev - 1)
    # constant words (all-zero compositions and the like) tie massively
    word_ = st.one_of(st.lists(symbol, min_size=k, max_size=k),
                      symbol.map(lambda x: [x] * k))
    words = draw(st.lists(word_, min_size=s, max_size=s))
    return signed_slot_matrix(words, s_prev), s, s_prev


@st.composite
def kernel_rows(draw, fam, t_max):
    """Rows (u, v, t <= t_max) in any order, mixing shifts in a chunk."""
    s = len(fam[0]) // 2
    rows = draw(st.lists(st.tuples(st.integers(0, 2 * s - 1),
                                   st.integers(0, 2 * s - 1),
                                   st.integers(0, t_max)),
                         min_size=1, max_size=40))
    return [np.array(c, dtype=np.int64) for c in zip(*rows)]


class TestPrefixKernel:
    @given(word_families(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_counts_match_direct_count(self, fam, data):
        slots, s, s_prev = fam
        k = slots.shape[1]
        U, V, T = data.draw(kernel_rows(fam, k - 1))
        seen = 0
        for lo, P in _prefix_pair_counts(slots, s_prev, U, V, T):
            assert lo == seen and P.dtype == np.int32
            seen += len(P)
            for i in range(len(P)):
                u, v, t = U[lo + i], V[lo + i], T[lo + i]
                counts = [0] * (s_prev * s_prev)
                for j in range(P.shape[2]):
                    if j < k - t:
                        counts[(slots[u, j + t] % s_prev) * s_prev
                               + slots[v, j] % s_prev] += 1
                    assert P[i, :, j].tolist() == counts
        assert seen == len(U)

    @given(word_families(), EPS, st.data())
    @settings(max_examples=60, deadline=None)
    def test_prefix_argmax_matches_per_row_loop(self, fam, eps, data):
        slots, s, s_prev = fam
        k = slots.shape[1]
        j_lo = max(1, ceil(eps * k))
        U, V, T = data.draw(kernel_rows(fam, k - j_lo))
        got = _prefix_argmax(slots, s_prev, U, V, T, j_lo)
        for (u, v, t), row in zip(zip(U, V, T), got):
            pair = (slots[u, t:] % s_prev) * s_prev + slots[v, :k - t] % s_prev
            onehot = np.zeros((s_prev * s_prev, k - t), dtype=np.int64)
            onehot[pair, np.arange(k - t)] = 1
            cums = np.cumsum(onehot, axis=1)[:, j_lo - 1:]
            j0s = np.arange(j_lo, k - t + 1)
            devs = np.abs(cums / j0s - float(Fraction(1, s_prev * s_prev)))
            r, c = np.unravel_index(np.argmax(devs), devs.shape)
            assert row == (int(cums[r, c]), int(j0s[c]), int(r))
        assert len(got) == len(U)

    def test_prefix_argmax_ignores_columns_past_the_overlap(self):
        # row (0, 0, 8) sees every pair twice in its 8-symbol overlap, so
        # its only window column j0 = 8 has deviation 0; the chunk is 16
        # columns wide for the t = 0 row, and the count-2 columns past the
        # overlap deviate by up to 1/8
        slots = signed_slot_matrix(
            [[0, 0, 1, 1, 0, 0, 1, 1, 0, 1, 0, 1, 0, 1, 0, 1]], 2)
        U, V, T = (np.array(c) for c in ([0, 0], [0, 0], [0, 8]))
        assert _prefix_argmax(slots, 2, U, V, T, 8)[1] == (2, 8, 0)

    @given(word_families(), EPS, EPS,
           st.sampled_from([Fraction(0), Fraction(1, 8), Fraction(1, 2)]),
           st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_reference_checks(self, fam, eps, eps_var, tol, data):
        slots, s, s_prev = fam
        j10, j10_1 = _check_J10_J10_1(slots, s_prev, eps, eps_var, tol)
        assert_same_entry(j10, ref_J10(slots, s, s_prev, eps, tol))
        assert_same_entry(j10_1, ref_J10_1(slots, s, s_prev, eps_var, tol))
        every = [(u, v) for u in range(s) for v in range(2 * s)]
        pairs = [p for p in every if data.draw(st.booleans())]
        assert_same_entry(_check_J11_1(slots, s_prev, pairs, eps, tol),
                          ref_J11_1(slots, s, s_prev, pairs, eps, tol))

    def test_constant_words_tie_to_first_witness(self):
        slots = signed_slot_matrix([[0] * 16, [0] * 16], 2)
        j10, j10_1 = _check_J10_J10_1(slots, 2, Fraction(1, 4),
                                      Fraction(1, 4), Fraction(1, 2))
        assert j10.worst_deviation == Fraction(3, 4)
        assert j10.witness == {"u": 0, "v": 0, "t": 1, "pair": (0, 0),
                               "count": 15, "overlap": 15}
        assert j10_1.witness == {"u": 0, "v": 0, "t": 1, "j0": 4,
                                 "pair": (0, 0)}

    def test_pinned_seed0_k1024_build(self):
        # build --kl "1024,4;2,2" --eps 1/4 --eps 1/8 --level 1 --seed 0
        plan = desk_plan(kl=((1024, 4), (2, 2)),
                         eps_lunate=(Fraction(1, 4), Fraction(1, 8)))
        built = build_words(SC, plan, seed=0, level=1)
        rep = built.report
        j10, j10_1 = rep.entry("J10@0"), rep.entry("J10.1@0")
        assert j10.worst_deviation == Fraction(53, 460)
        assert j10.witness == {"u": 2, "v": 0, "t": 679, "pair": (2, 0),
                               "count": 126, "overlap": 345}
        assert j10_1.worst_deviation == Fraction(135, 1028)
        assert j10_1.witness == {"u": 2, "v": 0, "t": 679, "j0": 257,
                                 "pair": (2, 0)}
        fam = built.seq.stage(1)
        slots = signed_slot_matrix(fam.compositions, 2)
        st0, tol = plan.stage(0), desk_tolerances().j(0)
        assert_same_entry(replace(j10, spec_id="J10"),
                          ref_J10(slots, 2, 2, st0.eps_lunate, tol))
        assert_same_entry(replace(j10_1, spec_id="J10.1"),
                          ref_J10_1(slots, 2, 2, st0.eps_classic, tol))
        j11_1 = rep.entry("J11.1@0")
        assert j11_1.worst_deviation == Fraction(13, 172)
        assert j11_1.witness == {"u": 0, "v": 1, "j0": 258,
                                 "segment": "tail", "pair": (0, 0)}
        pairs = _J11_1_pairs(built.seq, 0, built.actions)
        assert_same_entry(replace(j11_1, spec_id="J11.1"),
                          ref_J11_1(slots, 2, 2, pairs, st0.eps_lunate, tol))
