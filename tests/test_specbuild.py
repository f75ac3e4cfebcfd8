"""Verification-gated word construction and the spec/timing batteries."""

import json
import random
import tracemalloc
from collections import Counter
from dataclasses import replace
from unittest import mock
from fractions import Fraction
from math import ceil

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from circsys import specbuild
from circsys.cli import run
from circsys.coefficients import desk_plan
from circsys.specbuild import (J_TOLERANCE, BuildError, BuiltSequence,
                               RoundingBoundError, SpecEntry, Verdict,
                               _Stage,
                               _band_bound,
                               _banded_argmax, _check_E3, _check_J10_J10_1,
                               _check_J11, _check_Q4,
                               _check_J11_1, _check_T5, _check_T6, _check_T7,
                               _orbits, _pair_totals, _prefix_argmax,
                               _prefix_pair_counts, _rounding_bound,
                               _slot_matrix, _worst_entry, build_attempt,
                               build_words, check_T4, check_specs,
                               check_timing, gamma_cascade, groups_from_tree,
                               lift_build)
from circsys.systems import (CIRCULAR, FWD, REV, GroupActionTable,
                             SequenceError, circular_sequence,
                             odometer_sequence, skew_diagonal_extend,
                             with_classes)
from circsys.trees import TreePrefix
from circsys.words import Word
from fixtures import (clear_builder_memos, entry, identity_action,
                      swap_side_action, unchecked_action)
from test_golden import TABLE as GOLDEN_TABLE

SC = groups_from_tree([(), (0,)])
PLAN = desk_plan(kl=((64, 4), (2, 2)),
                 eps_lunate=(Fraction(1, 4), Fraction(1, 8)))
SEP_PLAN = desk_plan(kl=((64, 4), (2, 2)),
                     eps_lunate=(Fraction(2, 5), Fraction(1, 5)))


class TestScaffold:
    def test_shape(self):
        assert [SC.generator_count(n) for n in (0, 1, 2)] == [0, 1, 1]
        assert [groups_from_tree([()]).generator_count(n)
                for n in (0, 1)] == [0, 0]
        assert [groups_from_tree([(), (0,), (0, 0), (1,)]).generator_count(
            n) for n in range(5)] == [0, 1, 1, 2, 2]

    def test_parent_before_child_required(self):
        with pytest.raises(ValueError):
            groups_from_tree([(0,)])


class TestBuild:
    def test_gated_build_passes_own_battery(self):
        built = build_words(SC, PLAN, seed=0, level=1)
        assert built.report.ok()
        again = check_specs(built, J_TOLERANCE)
        assert again.ok()

    def test_seed_determinism(self):
        a = build_words(SC, PLAN, seed=4, level=1)
        b = build_words(SC, PLAN, seed=4, level=1)
        assert a.seq.stage(1).compositions == b.seq.stage(1).compositions
        c = build_words(SC, PLAN, seed=5, level=1)
        assert a.seq.stage(1).compositions != c.seq.stage(1).compositions

    def test_scaffold_data_is_consumed(self):
        deeper = groups_from_tree([(), (0,), (1,)])
        a = build_attempt(SC, PLAN, seed=4, level=1)
        b = build_attempt(deeper, PLAN, seed=4, level=1)
        assert a.seq.stage(1).compositions != b.seq.stage(1).compositions

    def test_gate_checks_the_seeded_attempts(self):
        one = build_attempt(SC, PLAN, seed=4, level=1)
        assert one.report is None
        assert build_words(SC, PLAN, seed=4, level=1).seq == one.seq
        # an exhausted budget reports its first attempt with fewest failures
        tol = Fraction(0)
        reports = [check_specs(build_attempt(SC, PLAN, 4, 1, attempt=i), tol)
                   for i in range(3)]
        with pytest.raises(BuildError) as err, \
                mock.patch.object(specbuild, "RETRY_BUDGET", 3):
            build_words(SC, PLAN, 4, 1, j_tolerance=tol)
        assert err.value.report.to_obj() == \
            min(reports, key=lambda r: len(r.failures())).to_obj()

    @pytest.mark.parametrize("level", [0, -1])
    def test_fewer_than_two_stages_is_refused_before_sampling(
            self, monkeypatch, level):
        monkeypatch.setattr(specbuild, "_sample_stage", None)
        for build in (build_words, build_attempt):
            with pytest.raises(SequenceError,
                               match="need at least two stages"):
                build(SC, PLAN, 0, level)

    def test_impossible_tolerance_exhausts_budget(self):
        with pytest.raises(BuildError) as err, \
                mock.patch.object(specbuild, "RETRY_BUDGET", 3):
            build_words(SC, PLAN, seed=0, level=1, j_tolerance=Fraction(0))
        assert err.value.report is not None
        assert err.value.report.failures()

    def test_class_count_is_group_bound(self):
        built = build_words(SC, PLAN, seed=0, level=1)
        assert built.seq.stage(1).num_classes() == 2

    def test_actions_free_and_side_swapping(self):
        built = build_words(SC, PLAN, seed=0, level=1)
        act = built.actions[1]
        assert act.free
        for g in act.generators:
            assert all(x[1] != y[1] for x, y in g)


def ref_build_words(scaffold, plan, seed, level, j_tolerance=J_TOLERANCE):
    """The gate with a full check_specs on every attempt: the first of
    RETRY_BUDGET attempts that passes, or BuildError with the report of
    the first attempt with strictly fewest failures."""
    best = None
    for attempt in range(specbuild.RETRY_BUDGET):
        built = build_attempt(scaffold, plan, seed, level, attempt=attempt)
        built = replace(built, report=check_specs(built, j_tolerance))
        if built.report.ok():
            return built
        if best is None or \
                len(built.report.failures()) < len(best.report.failures()):
            best = built
    raise BuildError(f"retry budget {specbuild.RETRY_BUDGET} exhausted",
                     best.report)


TREE_PLAN = desk_plan(kl=((4, 2), (2, 2), (2, 2), (2, 2)))


@st.composite
def tree_scaffolds(draw):
    """The scaffold reduce reads from a criterion-11-shaped tree (4-8
    nodes grown from the root) at n0 in 1-3: its first n0 + 1 members."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    n0 = draw(st.integers(1, 3))
    nodes = set()
    while len(nodes) < n0 + 1:
        nodes = {()}
        for _ in range(rng.randrange(3, 8)):
            base = rng.choice(sorted(nodes))
            nodes.add(base + (rng.randrange(2),))
    members = TreePrefix(frozenset(nodes)).members_in_order()[:n0 + 1]
    return groups_from_tree(members), n0


def gate_outcome(gate, *args, **kwargs):
    try:
        built = gate(*args, **kwargs)
    except BuildError as exc:
        return "exhausted", exc.report.to_obj()
    return built.seq, built.actions, built.report.to_obj()


class TestEarlyRejection:
    @given(tree_scaffolds(), st.integers(0, 999))
    @settings(max_examples=25, deadline=None)
    def test_gate_matches_the_full_battery_gate(self, scaffold, seed):
        sc, n0 = scaffold
        for tol, budget in ((Fraction(1), 32), (Fraction(0), 3)):
            with mock.patch.object(specbuild, "RETRY_BUDGET", budget):
                assert gate_outcome(build_words, sc, TREE_PLAN, seed, n0,
                                    j_tolerance=tol) == \
                    gate_outcome(ref_build_words, sc, TREE_PLAN, seed, n0,
                                 j_tolerance=tol)

    @given(tree_scaffolds(), st.integers(0, 999), st.integers(0, 7),
           st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)]))
    @settings(max_examples=40, deadline=None)
    def test_report_is_the_full_report_to_its_first_failure(
            self, scaffold, seed, attempt, j):
        # the gate's two readings of an attempt: _run with first_failure
        # stops the full report at its first failure, and each stage's
        # battery on the build of stages 0 to n + 1 that the gate checks is
        # that stage's battery of the whole attempt
        sc, n0 = scaffold
        built = build_attempt(sc, TREE_PLAN, seed, n0, attempt=attempt)
        full = check_specs(built, j).entries
        fail = next((i for i, e in enumerate(full) if e.status == "fail"),
                    len(full) - 1)
        assert specbuild._run(built, 0, range(n0), j, True).entries == \
            full[:fail + 1]
        prefixes = list(specbuild._attempt_stages(sc, TREE_PLAN, seed, n0,
                                                  "random", attempt))
        assert prefixes[-1] == built and len(prefixes) == n0
        for n, prefix in enumerate(prefixes):
            assert prefix.seq.stages == built.seq.stages[:n + 2]
            assert prefix.actions == built.actions[:n + 2]
            assert specbuild._run(prefix, 0, [n], j).entries == \
                specbuild._run(built, 0, [n], j).entries

    # the seed-0 reduce_certify round-1 op with n0 = 3
    REJECTED_TREE = TreePrefix(frozenset([(), (0,), (0, 0), (0, 0, 0), (1,)]))

    @classmethod
    def gate_log(cls, monkeypatch, seed, budget):
        """build_words on REJECTED_TREE's depth-3 scaffold at ``seed``
        against 1 with ``budget`` attempts: its outcome, and a log of the
        stages it samples (n for stage n + 1), "kernel" per prefix-kernel
        pass and "rebuild" per build_attempt (an exhausted budget's)."""
        sc = groups_from_tree(cls.REJECTED_TREE.members_in_order()[:4])
        log = []
        for name, entry_of in (("_sample_stage", lambda args: args[2]),
                               ("_prefix_pair_counts", lambda _: "kernel"),
                               ("build_attempt", lambda _: "rebuild")):
            def logged(*args, _f=getattr(specbuild, name), _e=entry_of,
                       **kwargs):
                log.append(_e(args))
                return _f(*args, **kwargs)
            monkeypatch.setattr(specbuild, name, logged)
        with mock.patch.object(specbuild, "RETRY_BUDGET", budget):
            outcome = gate_outcome(build_words, sc, TREE_PLAN, seed, 3,
                                   j_tolerance=Fraction(1))
        monkeypatch.undo()
        with mock.patch.object(specbuild, "RETRY_BUDGET", budget):
            assert outcome == gate_outcome(ref_build_words, sc, TREE_PLAN,
                                           seed, 3, j_tolerance=Fraction(1))
        return outcome, log

    def test_rejected_attempt_skips_the_j_kernels(self, monkeypatch):
        # attempt 0 at seed 296 fails E3 at stage 0, before any J check:
        # the gate samples stage 1 alone, and only the exhausted budget's
        # check_specs, on the attempt rebuilt, runs a kernel
        outcome, log = self.gate_log(monkeypatch, 296, 1)
        assert outcome[0] == "exhausted"
        assert [e["spec"] for e in outcome[1] if e["status"] == "fail"][0] \
            == "E3@0"
        assert log.index("rebuild") == 1 and log[0] == 0
        assert "kernel" in log
        built = build_attempt(
            groups_from_tree(self.REJECTED_TREE.members_in_order()[:4]),
            TREE_PLAN, 296, 3)
        monkeypatch.setattr(specbuild, "_prefix_pair_counts", None)
        report = specbuild._run(built, 0, range(3), Fraction(1), True)
        assert [e.spec_id for e in report.failures()] == ["E3@0"]
        assert report.entries[-1].spec_id == "E3@0"

    def test_depth_3_attempts_rejected_at_stage_1(self, monkeypatch):
        # at seed 4 attempts 0 and 1 fail E3 at stage 1 and attempt 2
        # passes: the gate samples stages 1 and 2 of each rejected attempt
        # and every stage of the passing one, and matches the full-battery
        # gate, passing and with its budget spent at 2
        outcome, log = self.gate_log(monkeypatch, 4, 32)
        assert outcome[2] and all(e["status"] != "fail" for e in outcome[2])
        assert [x for x in log if x != "kernel"] == [0, 1, 0, 1, 0, 1, 2]
        outcome, log = self.gate_log(monkeypatch, 4, 2)
        assert outcome[0] == "exhausted"
        assert [e["spec"] for e in outcome[1] if e["status"] == "fail"] == \
            ["E3@1"]
        assert [x for x in log[:log.index("rebuild")] if x != "kernel"] == \
            [0, 1, 0, 1]


def relabelled(built, rename=lambda c, Q: Q - 1 - c):
    """``built`` with class c of every stage's Q classes renamed Q - 1 - c,
    the same partitions under other ids, or ``rename``(c, Q)."""
    return replace(built, seq=with_classes(built.seq, [
        st.classes and tuple(rename(c, max(st.classes) + 1)
                             for c in st.classes)
        for st in built.seq.stages]))


def reacted(built):
    """``built`` with every action replaced by one generator that swaps
    sides and sends class c to c + 1 mod Q: the builder's first generator
    sends c to c."""
    return replace(built, actions=tuple(a and swap_side_action(
        a.num_classes, [(c + 1) % a.num_classes for c in range(
            a.num_classes)]) for a in built.actions))


class TestJMemo:
    @given(tree_scaffolds(), st.integers(0, 999), st.integers(0, 7),
           st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)]))
    @settings(max_examples=40, deadline=None)
    def test_warm_memo_report_equals_a_cold_one(self, scaffold, seed,
                                                attempt, j):
        # the seed's other attempts fill the memo with entries that stages
        # of this attempt can hit, and its relabelled, merged and reacted
        # copies with entries of equal compositions under other classes or
        # actions
        sc, n0 = scaffold
        for other in set(range(8)) - {attempt}:
            check_specs(build_attempt(sc, TREE_PLAN, seed, n0,
                                      attempt=other), j)
        built = build_attempt(sc, TREE_PLAN, seed, n0, attempt=attempt)
        copies = (built, relabelled(built), relabelled(built, lambda c, Q: 0),
                  reacted(built))
        warm = [repr(check_specs(b, j)) for b in copies]
        for b, want in zip(copies, warm):
            clear_builder_memos()
            assert repr(check_specs(b, j)) == want

    def test_keys_separate_tolerance_and_eps(self):
        # one composition tuple under two values of each of eps, eps_var
        # and the tolerance, whose int and Fraction forms print apart
        comps = build_attempt(SC, PLAN, seed=0, level=1).stage(1).compositions
        slots = _slot_matrix(comps, 2)
        q, e, h = Fraction(1, 4), Fraction(1, 8), Fraction(1, 2)
        variants = [(q, e, h), (e, e, h), (q, q, h), (q, e, Fraction(0)),
                    (q, e, Fraction(1)), (q, e, 1)]
        seen = set()
        for eps, eps_var, tol in variants * 2:
            numbers = map(specbuild._exact, (eps, eps_var, tol))
            got = specbuild._stage_table(comps, 2, (None, None),
                                         (None, None), *numbers)
            assert (got.eps, got.eps_var, got.tol) == (eps, eps_var, tol)
            assert type(got.tol) is type(tol)
            want = _check_J10_J10_1(slots, 2, eps, eps_var, tol)
            for g, w in zip(got.j10[:2], want):
                assert_same_entry(g, w)
            assert np.array_equal(got.j10[2], want[2])
            assert_same_entry(got.j11_1, _check_J11_1(
                slots, 2, got.unrelated, eps, tol))
            seen.add(repr((got.j10[:2], got.j11_1)))
        assert len(seen) == len(variants)
        info = specbuild._stage_table.cache_info()
        assert (info.misses, info.hits) == (len(variants), len(variants))

    def test_keys_separate_classes_and_actions(self):
        # stage 0 of one level-1 build under other stage-1 class ids, under
        # other generators, and under a table equal to its own but built
        # afresh, whose entry it shares
        built = build_attempt(SC, PLAN, seed=0, level=1)
        act = built.actions[1]
        copy = GroupActionTable(act.num_classes,
                                tuple(dict(g) for g in act.generators))
        entries = [_Stage(b, 0, J_TOLERANCE).entry for b in (
            built, relabelled(built), reacted(built),
            replace(built, actions=(None, copy)))]
        assert entries[3] is entries[0]
        assert len({id(x) for x in entries}) == 3
        assert specbuild._stage_table.cache_info().misses == 3
        for b, got in zip((built, relabelled(built), reacted(built)),
                          entries):
            assert_same_entry(got.j11, ref_J11(
                b.seq, 0, _slot_matrix(got.comps, 2), b.actions,
                J_TOLERANCE))

    def test_mutated_generator_reports_its_own_verdict(self):
        # a generator cannot be changed in place; a free table and a
        # non-free one on one build each get their own A7 verdict, warm
        # after the other and equal to a cold report
        built = TestFailPaths.base()
        with pytest.raises(TypeError):
            built.actions[1].generators[0][(0, FWD)] = (0, FWD)
        bad = TestFailPaths.with_stage1_action(built, TestFailPaths.not_free())
        for first, second, status in ((built, bad, "fail"),
                                      (bad, built, "pass")):
            check_specs(first)
            warm = check_specs(second)
            assert entry(warm, "A7@0").status == status
            clear_builder_memos()
            assert repr(check_specs(second)) == repr(warm)

    def test_equal_tables_share_one_entry_and_one_extension(self):
        # one generator as a dict in two insertion orders and as its items
        # is one value: one stage-table entry, one extension
        built = TestFailPaths.base()
        clear_builder_memos()
        items = built.actions[1].generators[0]
        tables = [GroupActionTable(2, (g,)) for g in (
            dict(items), dict(reversed(items)), tuple(reversed(items)))]
        assert tables[0] == tables[1] == tables[2]
        assert len({hash(t) for t in tables}) == 1
        entries = {_Stage(TestFailPaths.with_stage1_action(built, t), 0,
                          J_TOLERANCE).entry for t in tables}
        exts = {skew_diagonal_extend(t, built.stage(2).compositions,
                                     built.stage(1).classes) for t in tables}
        assert len(entries) == len(exts) == 1
        assert specbuild._stage_table.cache_info().misses == 1
        assert skew_diagonal_extend.cache_info().misses == 1

    def test_a_hit_skips_the_kernel_and_shares_read_only_counts(
            self, monkeypatch):
        built = build_attempt(SC, PLAN, seed=0, level=1)
        want = check_specs(built)
        calls = []
        original = specbuild._prefix_pair_counts

        def counted(*args):
            calls.append(args)
            return original(*args)
        monkeypatch.setattr(specbuild, "_prefix_pair_counts", counted)
        assert repr(check_specs(built)) == repr(want) and calls == []
        whole = _Stage(built, 0, J_TOLERANCE).entry.j10[2]
        assert specbuild._stage_table.cache_info().misses == \
            built.seq.depth
        assert whole.base is None and not whole.flags.writeable
        with pytest.raises(ValueError):
            whole[0, 0, 0] = 0


class TestReports:
    def test_entry_ids_cover_families(self):
        built = build_words(SC, PLAN, seed=0, level=1)
        ids = {e.spec_id for e in built.report.entries}
        for fam in ("E1@0", "E2@0", "E3@0", "J10@0", "J10.1@0",
                    "J11@0", "J11.1@0", "Q4@0", "Q6@0"):
            assert fam in ids

    def test_failures_carry_witnesses(self):
        built = build_attempt(SC, PLAN, seed=0, level=1)
        rep = check_specs(built, Fraction(0))
        bad = rep.failures()
        assert bad
        assert all(e.witness for e in bad)

    def test_json_round(self):
        import json
        built = build_words(SC, PLAN, seed=0, level=1)
        doc = built.report.to_obj()
        assert json.loads(json.dumps(doc)) == doc
        assert {e["spec"] for e in doc} == \
            {e.spec_id for e in built.report.entries}

    def test_stage_words_written_out_once_per_battery(self, monkeypatch):
        # check_specs writes out no stage-(n+1) word: E3 and Q4 read stage
        # n + 1's compositions and one text of each stage-n word per
        # battery, so on the k = 1024 build the CLI gates and on a level-3
        # build no top-stage word is written out, in the gate or in
        # check_specs, and check_specs writes each lower one out once
        written = []

        def materialize(self, *args, _f=Word.materialize):
            written.append(self)        # held, so no id is reused
            return _f(self, *args)
        monkeypatch.setattr(Word, "materialize", materialize)
        plan = desk_plan(kl=((1024, 4), (2, 2)),
                         eps_lunate=(Fraction(1, 4), Fraction(1, 8)))
        for built, j in ((build_words(SC, plan, seed=0, level=1), J_TOLERANCE),
                         (build_words(SC, TREE_PLAN, seed=4, level=3,
                                      j_tolerance=Fraction(1)), Fraction(1))):
            top = built.stage(built.depth).words
            assert not any(w is x for w in top for x in written)
            written.clear()
            assert check_specs(built, j).ok()
            for n in range(built.depth + 1):
                assert [sum(w is x for x in written)
                        for w in built.stage(n).words] == \
                    [int(n < built.depth)] * built.stage(n).size


class TestGamma:
    def test_cascade_values(self):
        gc = gamma_cascade(SEP_PLAN, 2)
        assert gc.gamma(1) == Fraction(2583, 10240)
        assert gc.gamma(2) == Fraction(-49077, 5120)

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
        return build_words(SC, SEP_PLAN, seed=11, level=2,
                           j_tolerance=Fraction(1), style="separated")

    def test_stage_0_J_checks_stay_below_one_half(self, separated):
        # built against 1 at every stage, the anchor's stage-0 J checks
        # still hold against 1/2
        worst = [entry(separated.report, f"{j}@0").worst_deviation
                 for j in ("J10", "J10.1", "J11", "J11.1")]
        assert worst == [Fraction(1, 5), Fraction(25, 76), Fraction(1, 4),
                         Fraction(23, 116)]
        assert max(worst) < J_TOLERANCE

    def test_T4_level1_meets_cascade(self, separated):
        gc = gamma_cascade(SEP_PLAN, 2)
        circ = lift_build(separated)
        t4 = check_T4(circ, 1, gc.gamma(1))
        assert t4.status == "pass"
        assert Fraction(t4.worst_deviation) >= gc.gamma(1)

    def test_T4_frozen_pin_matches_reference(self, separated):
        gc = gamma_cascade(SEP_PLAN, 2)
        circ = lift_build(separated)
        t4 = check_T4(circ, 1, gc.gamma(1))
        assert t4.worst_deviation == Fraction(12, 47)
        assert_same_entry(t4, ref_T4(circ, 1, gc.gamma(1)))
        # the separation is >= gamma, so equality passes
        assert check_T4(circ, 1, Fraction(12, 47)).status == "pass"
        assert check_T4(circ, 1, Fraction(12, 47) + Fraction(1, 997)) \
            .status == "fail"

    def test_T4_vacuous_on_nonpositive_gamma(self, separated):
        gc = gamma_cascade(SEP_PLAN, 2)
        t4 = check_T4(lift_build(separated), 2, gc.gamma(2))
        assert t4.status == "pass"
        assert "vacuous" in str(t4.witness).lower() or \
            gc.gamma(2) <= 0

    @pytest.mark.parametrize("kl, gamma_1", [
        (((8, 2), (2, 2)), Fraction(0)), (((4, 2), (2, 2)), Fraction(-5, 16))])
    def test_separated_search_takes_the_first_pair_when_T4_is_vacuous(
            self, kl, gamma_1):
        # the search compared check_T4's vacuous worst_deviation None with
        # gamma and raised TypeError; now it returns the first balanced
        # pair it draws without running T4
        plan = desk_plan(kl=kl)
        assert gamma_cascade(plan, 1).gamma(1) == gamma_1
        k = plan.stage(0).k
        with mock.patch.object(specbuild, "check_T4") as t4:
            got = specbuild._search_separated_pair(random.Random(5), plan,
                                                   gamma_1, k)
        t4.assert_not_called()
        rng, want = random.Random(5), [0] * (k // 2) + [1] * (k // 2)
        want = [list(want), list(want)]
        for d in want:
            rng.shuffle(d)
        assert got == tuple(map(tuple, want))
        comps = build_attempt(SC, plan, seed=0, level=1,
                              style="separated").seq.stage(1).compositions
        assert [sum(c) for c in comps] == [k // 2] * 2

    def test_battery_shape(self, separated):
        rep = check_timing(separated)
        ids = {e.spec_id for e in rep.entries}
        assert {"T1@0", "T2@0", "T3@0", "T4@1", "T5@0", "T6@0",
                "T7@0"} <= ids
        assert rep.ok()

    def test_frequency_checks_run(self, separated):
        circ = lift_build(separated)
        mu = Fraction(1, 2)
        for check, ref in ((_check_T5, ref_T5), (_check_T6, ref_T6),
                           (_check_T7, ref_T7)):
            got = check(_Stage(circ, 1, mu))
            assert got.status in ("pass", "fail")
            assert_same_entry(got, ref(circ, 1, mu))

    def test_T4_refuses_stage_0(self):
        # stage 0 has no stage -1 to take eps from; plan.stage(-1) read the
        # last stage's eps 1/32 and reported a fail
        plan = desk_plan(kl=((4, 2), (2, 2), (2, 2)))
        circ = lift_build(build_attempt(SC, plan, seed=0, level=2))
        with pytest.raises(ValueError, match="stage out of range"):
            check_T4(circ, 0, Fraction(1, 8))

    def test_each_checked_stage_makes_two_kernel_passes(self, monkeypatch):
        # T5 and T7 read one _pair_totals table; T6 makes its own
        # _prefix_argmax pass where the stage has an action; the battery
        # builds a slot matrix only in that one stage set-up
        plan = desk_plan(kl=((4, 2), (2, 2), (2, 2), (2, 2)))
        built = build_attempt(SC, plan, seed=3, level=3)
        log = []
        for name in ("_slot_matrix", "_pair_totals", "_prefix_argmax"):
            def logged(*args, _f=getattr(specbuild, name), _name=name):
                log.append(_name)
                return _f(*args)
            monkeypatch.setattr(specbuild, name, logged)
        rep = check_timing(built)
        checked = {e.spec_id for e in rep.entries
                   if e.status != "not-checked"}
        assert {"T5@0", "T5@1", "T6@1"} <= checked
        want = []
        for n in (0, 1):
            want += ["_slot_matrix", "_pair_totals"]
            want += ["_prefix_argmax"] if f"T6@{n}" in checked else []
        assert log == want


class TestFailPaths:
    """One tampered copy of a level-2 build per Q and A spec whose fail
    path no other test reaches.  T1-T3 are the Q5, A7 and A8 rows, so the
    same copies fail them through check_timing."""

    @staticmethod
    def base(level=2):
        plan = desk_plan(kl=((4, 2),) + ((2, 2),) * level)
        return build_attempt(SC, plan, seed=0, level=level)

    @staticmethod
    def with_stage1_action(built, action):
        return replace(built, actions=(None, action) + built.actions[2:])

    @staticmethod
    def not_free():
        """Two side-swapping generators on Q = 2 classes whose group, of 8
        elements, is not free: g1 flips every side, g2 cycles (0, FWD) to
        (0, REV) to (1, FWD) to (1, REV)."""
        g1 = {(c, s): (c, 1 - s) for c in range(2) for s in (FWD, REV)}
        g2 = {(0, FWD): (0, REV), (1, FWD): (1, REV),
              (0, REV): (1, FWD), (1, REV): (0, FWD)}
        return GroupActionTable(2, (g1, g2))

    @staticmethod
    def merged(built):
        """``built`` with its stage-1 classes merged into one class."""
        classes = [built.stage(n).classes for n in range(built.depth + 1)]
        classes[1] = (0,) * len(classes[1])
        return replace(built, seq=with_classes(built.seq, classes))

    def test_merged_classes_fail_Q6_Q5_and_T1(self):
        rep = check_specs(self.merged(self.base()))
        for spec, witness in (("Q6@0", {"classes": 1, "expected": 2}),
                              ("Q5@1", {"stage": 2})):
            e = entry(rep, spec)
            assert (e.status, e.witness) == ("fail", witness)
        # check_timing checks the stages below depth - 1, and T1 is exempt
        # at the class-founding stage 1, so T1@1 needs a level-3 build
        e = entry(check_timing(self.merged(self.base(level=3))), "T1@1")
        assert (e.status, e.witness) == ("fail", {"stage": 2})

    def test_non_free_action_fails_A7_and_T2(self):
        action = self.not_free()
        assert len(action.elements) == 8
        bad = self.with_stage1_action(self.base(), action)
        for rep, spec in ((check_specs(bad), "A7@0"),
                          (check_timing(bad), "T2@0")):
            e = entry(rep, spec)
            assert (e.status, e.witness) == ("fail", {"kind": "not free"})

    def test_side_keeping_generator_fails_A8_and_T3(self):
        # the constructor refuses a generator that keeps sides, so only a
        # table past it reaches A8's fail path; this one swaps the classes
        # and still acts freely
        g = {(0, FWD): (1, FWD), (1, FWD): (0, FWD),
             (0, REV): (1, REV), (1, REV): (0, REV)}
        with pytest.raises(SequenceError, match="swap"):
            GroupActionTable(2, (g,))
        bad = self.with_stage1_action(self.base(), unchecked_action(2, (g,)))
        specs, timing = check_specs(bad), check_timing(bad)
        assert entry(specs, "A7@0").status == "pass"
        for rep, spec in ((specs, "A8@0"), (timing, "T3@0")):
            e = entry(rep, spec)
            assert (e.status, e.witness) == ("fail", {"class": 0})

    def test_altered_stage2_generator_fails_A9(self):
        built = self.base()
        bad = replace(built, actions=built.actions[:2] + (
            swap_side_action(2, (1, 0)),))
        e = entry(check_specs(bad), "A9@1")
        assert (e.status, e.witness) == ("fail", {"generator": 0})


# ---------------------------------------------------------------------------
# which spec runs at which stage, written by hand from the definitions:
# Q4 at the class-founding stage n + 1, the first that acts, Q5 (T1) where
# stages n and n + 1 act and Q6 where n + 1 acts, each where the stages it
# reads have classes; A7 and A8 (T2, T3)
# where stage n + 1 has an action, A9 where stages n and n + 1 have one and
# stage n has classes; T4 where stage n + 1 has classes, T5 and T7 where
# stage n has them, T6 where stage n also has an action; E and J always.

SPEC_IDS = ("E1", "E2", "E3", "Q4", "Q5", "Q6", "A7", "A8", "A9", "J10",
            "J10.1", "J11", "J11.1")
TIMING_IDS = ("T1", "T2", "T3", "T4", "T5", "T6", "T7")
BATTERY_COMMANDS = ("build", "lift", "check-specs", "check-timing")
# Golden rows that print a battery: the stages it covers and the (spec,
# stage) pairs it skips.  Every golden build has the scaffold {(), (0,)}:
# classes at every stage and an action at every stage but 0, so stage 1
# founds the classes.
GOLDEN_RUNS = dict.fromkeys(
    ["build-k1024", "build-k1024-no-gate", "build-gate-fails", "lift",
     "check-specs-pass", "check-specs-k1024", "check-specs-j-tolerance",
     "build-separated-gamma-negative", "lift-separated-gamma-negative"],
    (1, {"Q5@0", "A9@0"})) | {
    "check-specs-witness": (3, {"Q5@0", "A9@0", "Q4@1", "Q4@2"}),
    "check-timing-witness": (2, {"T1@0", "T6@0"}),
    "check-timing-anchor": (1, {"T1@0", "T6@0"}),
    # check_timing checks only the stages below depth - 1, so none at
    # level 1; ROADMAP item 5 makes it check every stage
    "check-timing-pass": (0, set()),
    "check-timing-separated-gamma-zero": (0, set()),
}


def runs(timing, stages, skipped):
    """(id@stage, whether it runs) of every entry of a battery's report."""
    ids = [f"{s}@{n + (s == 'T4')}" for n in range(stages)
           for s in (TIMING_IDS if timing else SPEC_IDS)]
    return [(i, i not in skipped) for i in ids]


def report_runs(report):
    return [(e.spec_id, e.status != "not-checked") for e in report.entries]


class TestApplicability:
    def test_golden_rows_cover_every_printed_battery(self):
        assert set(GOLDEN_RUNS) == {
            name for name, row in GOLDEN_TABLE.items()
            if row["argv"][0] in BATTERY_COMMANDS and row["exit"] != 3}

    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_golden_build(self, name, capsys):
        argv = GOLDEN_TABLE[name]["argv"]
        run(list(argv))
        report = json.loads(capsys.readouterr().out)["report"]
        assert [(e["spec"], e["status"] != "not-checked") for e in report] \
            == runs(argv[0] == "check-timing", *GOLDEN_RUNS[name])

    def test_a_scaffold_without_generators_founds_no_classes(self):
        # no length-1 node: one class per stage and no action anywhere
        built = build_attempt(groups_from_tree([()]), TREE_PLAN, 0, 3)
        skipped = {f"{s}@{n}" for n in range(3)
                   for s in ("Q4", "Q5", "Q6", "A7", "A8", "A9")}
        assert report_runs(check_specs(built)) == runs(False, 3, skipped)
        skipped = {f"T{i}@{n}" for n in range(2) for i in (1, 2, 3, 6)}
        assert report_runs(check_timing(built)) == runs(True, 2, skipped)

    @staticmethod
    def without_actions(classes):
        """A hand-built two-stage build with ``classes`` and no action."""
        seq = odometer_sequence(desk_plan(kl=((4, 2), (2, 2), (2, 2))), "01",
                                [[(0, 1, 0, 1), (1, 0, 1, 0)],
                                 [(0, 1), (1, 0)]])
        return BuiltSequence(with_classes(seq, classes), (None, None, None))

    def test_a_stage_without_classes_skips_T4_to_T7(self):
        built = self.without_actions((None, (0, 1), None))
        # stage 0 has no classes (T5-T7) and stage 1 has (T4)
        assert report_runs(check_timing(built)) == runs(
            True, 1, {"T1@0", "T2@0", "T3@0", "T5@0", "T6@0", "T7@0"})

    def test_classes_without_actions_found_nothing(self):
        # the class rules read the build's actions: with classes at every
        # stage but no action, no stage founds classes, so Q4-Q6 skip
        built = self.without_actions(((0, 0), (0, 1), (0, 1)))
        skipped = {f"{s}@{n}" for n in range(2)
                   for s in ("Q4", "Q5", "Q6", "A7", "A8", "A9")}
        assert report_runs(check_specs(built)) == runs(False, 2, skipped)

    @given(st.one_of(st.tuples(st.just(groups_from_tree([()])),
                               st.integers(1, 3)), tree_scaffolds()),
           st.integers(0, 999), st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_builder_and_checker_agree_on_the_founding_stage(
            self, scaffold, seed, attempt):
        # the builder gives stage m an action exactly when the scaffold
        # counts a generator there, and the checks find the founding
        # stage, where Q4 runs, as the first stage that acts
        sc, n0 = scaffold
        built = build_attempt(sc, TREE_PLAN, seed, n0, attempt=attempt)
        acting = [m for m in range(n0 + 1) if sc.generator_count(m) > 0]
        for m in range(n0 + 1):
            assert (built.actions[m] is not None) == (m in acting)
            want = min(2 ** TREE_PLAN.stage(min(m, TREE_PLAN.depth - 1)).e,
                       TREE_PLAN.s(m)) if m in acting else 1
            assert built.stage(m).num_classes() == want
        q4 = [e.spec_id for e in check_specs(built).entries
              if e.spec_id.startswith("Q4") and e.status != "not-checked"]
        assert q4 == [f"Q4@{m - 1}" for m in acting[:1]]


# ---------------------------------------------------------------------------
# reference E3 and Q4 on written-out text: every stage-(n+1) word and every
# stage-n word as a string, windows of length K_n = word_length(n).  They
# define the verdicts the composition checks must reproduce.

def ref_E3(stage):
    """Unique readability: no properly-offset full parse, and no word's
    second half equal to another's first half."""
    seq, n = stage.seq, stage.n
    texts = [w.materialize() for w in seq.stage(n + 1).words]
    prev = {w.materialize() for w in seq.stage(n).words}
    Kn = seq.word_length(n)
    k = len(stage.comps[0])
    for wi, text in enumerate(texts):
        for off in range(1, Kn):
            windows = range(off, len(text) - Kn + 1, Kn)
            if windows and all(text[a:a + Kn] in prev for a in windows):
                return Verdict("fail", None, None, {
                    "stage": n + 1, "word": wi, "offset": off,
                    "kind": "offset parse"})
    half = k // 2 + 1
    for i, wt in enumerate(texts):
        second = wt[(k - half) * Kn:]
        for j, vt in enumerate(texts):
            if i == j and half >= k:
                continue
            if vt.startswith(second):
                return Verdict("fail", None, None, {
                    "stage": n + 1, "words": (i, j), "kind": "half overlap"})
    return Verdict("pass", None, None, {})


def ref_Q4(stage):
    """Classwise agreement of the stage-(n+1) texts on an initial
    proportion of at least 1 - eps_n."""
    texts = [w.materialize() for w in stage.seq.stage(stage.n + 1).words]
    eps = Fraction(stage.plan_stage.eps_lunate)
    groups = {}
    for i, c in enumerate(stage.classes[1]):
        groups.setdefault(c, []).append(i)
    L = len(texts[0])
    worst = Fraction(1)
    witness = {}
    for c, members in groups.items():
        ref = texts[members[0]]
        agreed = L
        for i in members[1:]:
            d = next((d for d in range(L) if texts[i][d] != ref[d]), L)
            agreed = min(agreed, d)
        prop = Fraction(agreed, L)
        if prop < worst:
            worst, witness = prop, {"class": c, "agreed": agreed, "length": L}
    if worst >= 1 - eps:
        return Verdict("pass", 1 - worst, eps, {})
    return Verdict("fail", 1 - worst, eps, witness)


def hand_built(symbols, *comps, classes=None):
    """An odometer build on TREE_PLAN from base ``symbols`` and the
    compositions of stages 1, 2, ..., with no action, and ``classes`` (or
    classes 0, 1, 0, ...) at every stage past 0."""
    seq = odometer_sequence(TREE_PLAN, symbols, comps)
    classes = classes or [tuple(i % 2 for i in range(len(c))) for c in comps]
    return BuiltSequence(with_classes(seq, [None, *classes]),
                         (None,) * (len(comps) + 1))


@st.composite
def hand_builds(draw):
    """Hand-built builds of 1-3 stages past 0 (k = 4, 2, 2): base symbols,
    one possibly two long, so stage-0 words may repeat or disagree with
    word_length(0) = 1; 1-4 words a stage over 1-3 of the previous, so
    texts repeat, periodic words parse at offsets and words overlap by
    halves; 1-2 classes a stage."""
    symbols = draw(st.lists(st.sampled_from(["0", "1", "0", "1", "10"]),
                            min_size=1, max_size=3))
    comps, size = [], len(symbols)
    for n in range(draw(st.integers(1, 3))):
        use = st.integers(0, draw(st.integers(1, min(3, size))) - 1)
        comps.append(draw(st.lists(st.tuples(*[use] * TREE_PLAN.stage(n).k),
                                   min_size=1, max_size=4)))
        size = len(comps[-1])
    return hand_built(symbols, *comps, classes=[
        tuple(draw(st.lists(st.integers(0, 1), min_size=len(c),
                            max_size=len(c)))) for c in comps])


@st.composite
def attempt_builds(draw):
    sc, n0 = draw(tree_scaffolds())
    return build_attempt(sc, TREE_PLAN, draw(st.integers(0, 999)), n0,
                         attempt=draw(st.integers(0, 7)))


class TestReadability:
    """E3 and Q4 read compositions and the stage-n table; the text
    versions above define their entries."""

    @given(st.one_of(hand_builds(), attempt_builds()))
    @settings(max_examples=150, deadline=None)
    def test_match_the_text_oracles(self, built):
        for n in range(built.depth):
            stage = _Stage(built, n, J_TOLERANCE)
            if {len(w) for w in built.stage(n).words} != \
                    {built.seq.word_length(n)}:
                # no build whose stage-n words are not all of length K_n
                # reaches either check: both refuse it
                for check in (_check_E3, _check_Q4):
                    with pytest.raises(SequenceError, match="not all of"):
                        check(_Stage(built, n, J_TOLERANCE))
                break
            assert_same_entry(_check_E3(stage), ref_E3(stage))
            assert_same_entry(_check_Q4(stage), ref_Q4(stage))

    @pytest.mark.parametrize("symbols, comps, witness", [
        # stage 1's 0011 and 0110: 0011 0011 holds 0110 at offset 1, and
        # 0110 0110 holds 0011 at offset 3
        ("01", [[(0, 0, 1, 1), (0, 1, 1, 0)], [(0, 0), (1, 1)]],
         {"stage": 2, "word": 0, "offset": 1, "kind": "offset parse"}),
        ("01", [[(0, 0, 1, 1), (0, 1, 1, 0)], [(1, 0), (1, 1)]],
         {"stage": 2, "word": 1, "offset": 3, "kind": "offset parse"}),
        # the last three slots of word 0 start word 1
        ("01", [[(0, 1, 1, 1), (1, 1, 1, 0)]],
         {"stage": 1, "words": (0, 1), "kind": "half overlap"}),
        # equal texts: stage 0's two words are both 0, and stage 1's two
        # are both 0011, so words (0, 1) and (1, 0) of stage 2 are equal
        ("00", [[(0, 1, 0, 1), (1, 1, 0, 0)]],
         {"stage": 1, "words": (0, 0), "kind": "half overlap"}),
        ("01", [[(0, 0, 1, 1), (0, 0, 1, 1)], [(0, 1), (1, 0)]],
         {"stage": 2, "words": (0, 1), "kind": "half overlap"}),
    ])
    def test_each_E3_branch_fails(self, symbols, comps, witness):
        built = hand_built(symbols, *comps)
        stage = _Stage(built, len(comps) - 1, J_TOLERANCE)
        got = _check_E3(stage)
        assert (got.status, got.witness) == ("fail", witness)
        assert_same_entry(got, ref_E3(stage))

    @pytest.mark.parametrize("comps1, comps2, agreed", [
        # equal texts 0011 0011 agree throughout
        ([(0, 0, 1, 1), (0, 0, 1, 1)], [(0, 1), (1, 0)], 8),
        # 0011 0110 and 0011 0011; 0110 0011 and 0011 0011
        ([(0, 0, 1, 1), (0, 1, 1, 0)], [(0, 1), (0, 0)], 5),
        ([(0, 0, 1, 1), (0, 1, 1, 0)], [(1, 0), (0, 0)], 1),
    ])
    def test_Q4_reads_the_common_prefix_at_the_first_differing_slot(
            self, comps1, comps2, agreed):
        built = hand_built("01", comps1, comps2, classes=[(0, 1), (0, 0)])
        stage = _Stage(built, 1, J_TOLERANCE)
        got = _check_Q4(stage)
        assert got.worst_deviation == 1 - Fraction(agreed, 8)
        assert got.witness.get("agreed", 8) == agreed
        assert_same_entry(got, ref_Q4(stage))

    def test_words_of_another_length_are_refused(self):
        # stage 0's words 0 and 10 are not all of length word_length(0) = 1
        built = hand_built(["0", "10"], [(0, 1, 0, 1), (1, 0, 1, 0)])
        with pytest.raises(SequenceError, match="not all of length K_n = 1"):
            check_specs(built)


class TestLift:
    def test_lift_is_circular_and_keeps_classes(self):
        built = build_words(SC, PLAN, seed=0, level=1)
        circ = lift_build(built)
        assert circ.seq.flavor == "circular"
        assert circ.seq.stage(1).classes == built.seq.stage(1).classes
        assert circ.seq.word_length(1) == PLAN.q(1)


# ---------------------------------------------------------------------------
# reference J-family checks: one bincount or one-hot cumsum per (u, v, t).
# They are independent of the batched prefix kernel and define the verdicts
# (deviation, witness, tie-break) the kernel-based checks must reproduce.

def _parity_pairs(s_prev, u_rev, v_rev):
    urange = range(s_prev, 2 * s_prev) if u_rev else range(s_prev)
    vrange = range(s_prev, 2 * s_prev) if v_rev else range(s_prev)
    return [a * 2 * s_prev + b for a in urange for b in vrange]


def ref_first_max(win, j0s, target):
    """(flat index, deviation) of the first exact maximum of
    |win / j0s - target| in flat order; floats only shortlist the entries
    within 1e-9 of the float maximum."""
    win = win.reshape(-1, len(j0s))
    devs = np.abs(win / j0s - float(target)).ravel()
    best = None
    for i in np.flatnonzero(devs >= devs.max() - 1e-9).tolist():
        r, c = divmod(i, len(j0s))
        dev = abs(Fraction(int(win[r, c]), int(j0s[c])) - target)
        if best is None or dev > best[1]:
            best = (i, dev)
    return best


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
    return Verdict(status, worst, tol, witness)


def ref_J10_1(slots, s, s_prev, eps, tol):
    k = slots.shape[1]
    target = Fraction(1, s_prev * s_prev)
    eps = Fraction(eps)
    worst, witness = Fraction(0), {}
    j_lo = max(1, ceil(eps * k))
    t_max = ceil((1 - eps) * k) - 1
    npair = 4 * s_prev * s_prev
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
                i, dev = ref_first_max(cums, j0s, target)
                r, c = divmod(i, len(j0s))
                if dev > worst:
                    pid = int(pids[r])
                    worst = dev
                    witness = {"u": ui, "v": vi, "t": t, "j0": int(j0s[c]),
                               "pair": (pid // (2 * s_prev),
                                        pid % (2 * s_prev))}
    status = "pass" if worst < tol else "fail"
    return Verdict(status, worst, tol, witness)


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
        for segment, cums in (("initial", pre), ("tail", suf)):
            i, dev = ref_first_max(cums[:, j_lo - 1:], j0s, target)
            r, c = divmod(i, len(j0s))
            if dev > worst:
                pid = int(pids[r])
                worst = dev
                witness = {"u": ui, "v": vi, "j0": int(j0s[c]),
                           "segment": segment,
                           "pair": (pid // (2 * s_prev),
                                    pid % (2 * s_prev))}
    status = "pass" if worst < tol else "fail"
    return Verdict(status, worst, tol, witness)


# reference J11 and T5-T7: one bincount or Python loop per word pair,
# shift and symbol, with a Fraction per entry.  Like the J references above
# they share nothing with the prefix kernel or _worst.

def _signed_class(classes, s_classes: int, signed_id: int, s_prev: int):
    """(class id, side) of a signed stage-n word id."""
    if signed_id < s_prev:
        return classes[signed_id], FWD
    return classes[signed_id - s_prev], REV


def _orbit_element(action, cu, cv):
    """The unique group element taking signed class cu to cv, or None."""
    for el in action.elements:
        if el[cu] == cv:
            return el
    return None


def ref_J11(seq, n, slots, actions, tol):
    s, k = len(slots) // 2, slots.shape[1]
    prev = seq.stage(n)
    s_prev = prev.size
    action = actions[n] if actions else None
    classes = prev.classes
    worst, witness = Fraction(0), {}
    for ui in range(s):                      # u even by hypothesis
        for vi in range(2 * s):
            # maximal level with an orbit relation; level 0 relates
            # everything through the identity
            g = None
            if action is not None and classes is not None and \
                    seq.stage(n + 1).classes is not None:
                cu = (seq.stage(n + 1).classes[ui], FWD)
                cls_v = seq.stage(n + 1).classes[vi % s]
                cv = (cls_v, REV if vi >= s else FWD)
                g = _orbit_element(actions[n + 1], cu, cv) \
                    if actions[n + 1] is not None else None
            if g is not None:
                Q = len(set(classes))
                C = s_prev // Q
                target = Fraction(1, Q * C * C)

                def related(a, b, g=g):
                    ca = _signed_class(classes, Q, a, s_prev)
                    cb = _signed_class(classes, Q, b, s_prev)
                    return g[ca] == cb
                level = 1
            else:
                target = Fraction(1, s_prev * s_prev)

                def related(a, b):
                    return (a < s_prev) == (ui < s) and \
                           (b < s_prev) == (vi < s)
                level = 0
            pair = slots[ui, :] * (2 * s_prev) + slots[vi, :]
            counts = np.bincount(pair, minlength=4 * s_prev * s_prev)
            for a in range(2 * s_prev):
                for b in range(2 * s_prev):
                    if a < s_prev and related(a, b):
                        dev = abs(Fraction(int(counts[a * 2 * s_prev + b]), k)
                                  - target)
                        if dev > worst:
                            worst = dev
                            witness = {"u": ui, "v": vi, "pair": (a, b),
                                       "level": level}
    status = "pass" if worst < tol else "fail"
    return Verdict(status, worst, tol, witness)


def _class_rows(built, n):
    """Per signed stage-n word: its (class, side); plus slot matrices of
    stage n+1."""
    seq = built.seq
    s, s_prev = built.stage(n + 1).size, built.stage(n).size
    slots = _slot_matrix(built.stage(n + 1).compositions, s_prev)
    classes = built.stage(n).classes
    Q = len(set(classes))
    table = [(classes[i], FWD) for i in range(s_prev)] + \
            [(classes[i], REV) for i in range(s_prev)]
    return slots, s, s_prev, table, Q


def ref_T5(built: BuiltSequence, n: int, mu: Fraction) -> Verdict:
    seq = built.seq
    slots, s, s_prev, table, Q = _class_rows(built, n)
    k = slots.shape[1]
    eps = Fraction(seq.plan.stage(n).eps_classic)
    target = Fraction(1, Q)
    worst, witness = Fraction(0), {}
    t_max = int((1 - eps) * k)
    classes_sides = sorted(set(table))
    cid = np.array([classes_sides.index(table[x])
                    for x in range(2 * s_prev)])
    nc = len(classes_sides)
    for w0 in range(s):                       # prewords, even
        v_slots = slots[w0]
        for w1 in range(2 * s):               # w1 or its reverse
            u_cids = cid[slots[w1]]
            want_side = REV if w1 >= s else FWD
            for t in range(1, t_max + 1):
                for v in range(s_prev):       # v ranges over even n-words
                    for name, J, U in (
                            ("T5a", np.flatnonzero(v_slots[:k - t] == v),
                             u_cids[t:]),
                            ("T5b", np.flatnonzero(v_slots[t:] == v),
                             u_cids[:k - t])):
                        if len(J) == 0:
                            continue
                        counts = np.bincount(U[J], minlength=nc)
                        for ci, (C, side) in enumerate(classes_sides):
                            if side != want_side:
                                continue
                            dev = abs(Fraction(int(counts[ci]), len(J))
                                      - target)
                            if dev > worst:
                                worst = dev
                                witness = {"axiom": name, "w0": w0,
                                           "w1": w1, "t": t, "v": v,
                                           "class": C}
    status = "pass" if worst < mu else "fail"
    return Verdict(status, worst, mu, witness)


def ref_T6_rows(built: BuiltSequence, n: int):
    """Per T6 row (w0, w1, t), in loop order: its first exact maximum
    deviation over the window and the j0 there."""
    seq = built.seq
    slots, s, s_prev, table, Q = _class_rows(built, n)
    action = built.actions[n]
    k = slots.shape[1]
    eps = Fraction(seq.plan.stage(n).eps_classic)
    G = len(action.elements)
    target = min(Fraction(1), Fraction(G, Q))
    orbit_pairs = {(cu, el[cu]) for el in action.elements for cu in el}
    rel_table = np.zeros((2 * s_prev, 2 * s_prev), dtype=bool)
    for a in range(2 * s_prev):
        for b in range(2 * s_prev):
            rel_table[a, b] = (table[a], table[b]) in orbit_pairs
    t_max = int((1 - eps) * k)
    j_lo = max(1, ceil(eps * k))
    for w0 in range(s):
        for w1 in range(s):
            for t in range(1, t_max + 1):
                if k - t < j_lo:
                    continue
                cum = np.cumsum(rel_table[slots[w0, :k - t],
                                          slots[w1, t:]])[j_lo - 1:]
                j0s = np.arange(j_lo, k - t + 1)
                c, dev = ref_first_max(cum, j0s, target)
                yield (w0, w1, t), dev, int(j0s[c])


def ref_T6(built: BuiltSequence, n: int, mu: Fraction) -> Verdict:
    if not built.actions or built.actions[n] is None:
        return Verdict("not-checked", None, None, {})
    worst, witness = Fraction(0), {}
    for (w0, w1, t), dev, j0 in ref_T6_rows(built, n):
        if dev > worst:
            worst = dev
            witness = {"w0": w0, "w1": w1, "t": t, "j0": j0}
    status = "pass" if worst < mu else "fail"
    return Verdict(status, worst, mu, witness)


def ref_T7(built: BuiltSequence, n: int, mu: Fraction) -> Verdict:
    slots, s, s_prev, table, Q = _class_rows(built, n)
    action = built.actions[n + 1] if built.actions else None
    cur = built.stage(n + 1)
    k = slots.shape[1]
    target = Fraction(1, Q)
    worst, witness = Fraction(0), {}
    classes_sides = sorted(set(table))
    for w0 in range(s):
        for w1 in range(2 * s):
            if cur.classes is not None and action is not None:
                cu = (cur.classes[w0], FWD)
                cv = (cur.classes[w1 % s], REV if w1 >= s else FWD)
                if _orbit_element(action, cv, cu) is not None:
                    continue                  # hypothesis: outside the orbit
            want_side = REV if w1 >= s else FWD
            for v in range(s_prev):
                J = np.flatnonzero(slots[w0] == v)
                if len(J) == 0:
                    continue
                for C, side in classes_sides:
                    if side != want_side:
                        continue
                    hits = sum(1 for x in slots[w1][J]
                               if table[x] == (C, side))
                    dev = abs(Fraction(int(hits), len(J)) - target)
                    if dev > worst:
                        worst = dev
                        witness = {"w0": w0, "w1": w1, "v": v, "class": C}
    status = "pass" if worst < mu else "fail"
    return Verdict(status, worst, mu, witness)


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
def word_families(draw, k_max=64):
    # s_prev = 2, 3 and 4: one to three one-hot rows per word
    s_prev = draw(st.sampled_from([2, 3, 4]))
    k = draw(st.integers(2, k_max))
    s = draw(st.integers(1, 2))
    symbol = st.integers(0, s_prev - 1)
    # constant words (all-zero compositions and the like) tie massively
    word_ = st.one_of(st.lists(symbol, min_size=k, max_size=k),
                      symbol.map(lambda x: [x] * k))
    words = draw(st.lists(word_, min_size=s, max_size=s))
    return signed_slot_matrix(words, s_prev), s, s_prev


@st.composite
def kernel_rows(draw, fam, t_max):
    """Rows (u, v, t <= t_max): in any order, mixing shifts in a block, or
    laid out as the J10, T5 and T6 grids lay them out, a run of
    consecutive shifts for each (u, v)."""
    word = st.integers(0, len(fam[0]) - 1)
    if draw(st.booleans()):
        rows = draw(st.lists(st.tuples(word, word, st.integers(0, t_max)),
                             min_size=1, max_size=40))
    else:
        rows = []
        for u, v in draw(st.lists(st.tuples(word, word), min_size=1,
                                  max_size=4)):
            t0 = draw(st.integers(0, t_max))
            rows += [(u, v, t) for t in
                     range(t0, draw(st.integers(t0, t_max)) + 1)]
    return [np.array(c, dtype=np.int64) for c in zip(*rows)]


# block sizes for the kernel tests: one row, a few rows, and the default
CHUNKS = st.sampled_from([1 << 6, 1 << 9, None])


@st.composite
def shift_runs(draw, fam):
    """Rows (u, v, t) in runs of consecutive shifts of one (u, v): lone
    rows, runs of 2-3 shifts and long runs, which small blocks split, each
    from a drawn t, t = 0 or t = k - 1."""
    slots = fam[0]
    k, word = slots.shape[1], st.integers(0, len(slots) - 1)
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        u, v = draw(word), draw(word)
        t0 = draw(st.sampled_from([0, k - 1]) | st.integers(0, k - 1))
        n = draw(st.sampled_from([1, 2, 3]) | st.integers(1, k - t0))
        rows += [(u, v, t) for t in range(t0, min(k, t0 + n))]
    return [np.array(c, dtype=np.int64) for c in zip(*rows)]


def ref_prefix_pair_counts(slots, s_prev, U, V, T):
    """A direct count, row by row, as the oracle of _prefix_pair_counts'
    every column: yields (r, P) for each row r, P[0, pair, j] = #{x <= j:
    id(x) = pair}, j < k - t, from a one-hot cumsum of the pair ids."""
    k = slots.shape[1]
    local = slots % s_prev
    for r, (u, v, t) in enumerate(zip(U.tolist(), V.tolist(), T.tolist())):
        pair = local[u, t:] * s_prev + local[v, :k - t]
        yield r, np.eye(s_prev * s_prev, dtype=np.int64)[:, pair].cumsum(
            axis=1)[None]


# opposite_sign_ties' (n, c, a): a < n c divides (n c)^2, with j_lo and k
# whole
TIE_SHAPES = [(n, c, a) for n in (2, 3, 4) for c in range(1, 6)
              for a in range(1, n * c) if (n * c) ** 2 % a == 0
              and (a + n * c) % 2 == 0 == ((n * c) ** 2 // a + n * c) % 2]


@st.composite
def opposite_sign_ties(draw):
    """A family, row (0, 0, 0), window start j_lo, one group and target
    whose prefix deviation is largest at j0 = j_lo and j0 = k, with
    opposite signs.  The group counts c hits of a symbol in the first j_lo
    positions and none after, so c / j0 falls as j0 runs to k, and
    c / j_lo - 1/n = 1/n - c / k holds exactly when
    (2 j_lo - n c)(2 k - n c) = (n c)^2: a = 2 j_lo - n c.  The
    complement group, against 1 - 1/n, has the tie the other way round."""
    n, c, a = draw(st.sampled_from(TIE_SHAPES))
    j_lo, k = (a + n * c) // 2, ((n * c) ** 2 // a + n * c) // 2
    s_prev = draw(st.sampled_from([2, 3, 4]))
    hit = draw(st.integers(0, s_prev - 1))
    miss = st.sampled_from([x for x in range(s_prev) if x != hit])
    head = draw(st.permutations([hit] * c + draw(st.lists(
        miss, min_size=j_lo - c, max_size=j_lo - c))))
    word = head + draw(st.lists(miss, min_size=k - j_lo, max_size=k - j_lo))
    diagonal = np.eye(s_prev, dtype=np.int64).ravel()
    group = diagonal * (np.arange(s_prev * s_prev) == hit * (s_prev + 1))
    target = Fraction(1, n)
    if draw(st.booleans()):
        group, target = diagonal - group, 1 - target
    return (signed_slot_matrix([word], s_prev), s_prev, j_lo, group[None],
            target)


def argmax_rows(found):
    """_prefix_argmax's count, j0 and group arrays as (count, j0, group)
    rows."""
    return list(map(tuple, found.T.tolist()))


def ref_prefix_argmax(slots, s_prev, U, V, T, j_lo, groups=None,
                      target=None):
    """_prefix_argmax row by row in Fractions: the first (count, j0,
    group), in (group, j0) order, of largest |count / j0 - target| over
    j0 in [j_lo, k - t]."""
    k = slots.shape[1]
    npair = s_prev * s_prev
    groups = np.eye(npair, dtype=np.int64) if groups is None else groups
    target = Fraction(1, npair) if target is None else target
    out = []
    for u, v, t in zip(U.tolist(), V.tolist(), T.tolist()):
        pair = (slots[u, t:] % s_prev) * s_prev + slots[v, :k - t] % s_prev
        cums = np.cumsum(groups[:, pair], axis=1).tolist()
        out.append(max(((c[j0 - 1], j0, g) for g, c in enumerate(cums)
                        for j0 in range(j_lo, k - t + 1)),
                       key=lambda e: abs(Fraction(e[0], e[1]) - target)))
    return out


def ref_J10_1_filter(slots, s_prev, U, V, T, j_lo):
    """The rows _prefix_argmax visited before the band bound, and its
    arrays for them: every row's float maximum of |count / j0 - 1 /
    s_prev^2| over every window column and pair, kept when within 1e-9 of
    the largest."""
    k = slots.shape[1]
    tf = 1 / (s_prev * s_prev)
    f101 = np.full(len(U), -1.0)
    cols = np.arange(1, k - T.min() + 1)
    for lo, P in _prefix_pair_counts(slots, s_prev, U, V, T, cols):
        hi = lo + len(P)
        # [pair, j0 - j_lo, row]; past the overlap, counts and j0 stay put
        win = P[:, :, j_lo - 1:].transpose(1, 2, 0)
        top, bot = win.max(axis=0), win.min(axis=0)
        j0s = np.minimum.outer(np.arange(j_lo, j_lo + win.shape[1], 1.0),
                               k - T[lo:hi])
        f101[lo:hi] = np.maximum((top / j0s).max(axis=0, initial=tf) - tf,
                                 tf - (bot / j0s).min(axis=0, initial=tf))
    rows = np.flatnonzero(f101 >= f101.max(initial=-1.0) - 1e-9)
    return rows, _prefix_argmax(slots, s_prev, U[rows], V[rows], T[rows],
                                j_lo)


def window_entry(rows, found, target):
    """The first exact maximum of _prefix_argmax's arrays for ``rows``,
    with its row, j0 and group as the witness."""
    counts, j0, group = found
    return _worst_entry(
        counts, j0, (target.numerator, target.denominator),
        Fraction(1), lambda i: {"row": int(rows[i]), "j0": int(j0[i]),
                                "group": int(group[i])})


def assert_band_bound_exact(slots, s_prev, U, V, T, j_lo):
    """The band-bound rows give the full filter's worst value and witness,
    and every row whose window reaches that value is among them."""
    rows, found, _ = _banded_argmax(slots, s_prev, U, V, T, j_lo, T >= 0)
    tf = Fraction(1, s_prev * s_prev)
    want = window_entry(*ref_J10_1_filter(slots, s_prev, U, V, T, j_lo), tf)
    assert_same_entry(window_entry(rows, found, tf), want)
    per_row = ref_prefix_argmax(slots, s_prev, U, V, T, j_lo)
    tied = {r for r, (c, j0, _) in enumerate(per_row)
            if abs(Fraction(c, j0) - tf) == want.worst_deviation}
    assert tied <= set(rows.tolist())


class TestPrefixKernel:
    @given(word_families(), CHUNKS, st.data())
    @settings(max_examples=60, deadline=None)
    def test_counts_match_direct_count(self, fam, chunk, data):
        # small blocks split the runs of a grid and cross its (u, v)
        # boundaries
        slots, s, s_prev = fam
        k = slots.shape[1]
        U, V, T = data.draw(kernel_rows(fam, k - 1))
        seen = 0
        with mock.patch.object(specbuild, "_CHUNK_ELEMS",
                               chunk or specbuild._CHUNK_ELEMS):
            for lo, P in _prefix_pair_counts(slots, s_prev, U, V, T,
                                             np.arange(1, k - T.min() + 1)):
                assert lo == seen and P.dtype == np.int64
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

    @given(word_families(), EPS, CHUNKS, st.data())
    @settings(max_examples=60, deadline=None)
    def test_prefix_argmax_matches_per_row_loop(self, fam, eps, chunk, data):
        # groups of pairs and targets 1/2 and 1/3 widen the draws; equal
        # deviations of opposite sign can round apart in float; small
        # chunks split the float work of a block into slices of rows
        slots, s, s_prev = fam
        k = slots.shape[1]
        j_lo = max(1, ceil(eps * k))
        U, V, T = data.draw(kernel_rows(fam, k - j_lo))
        npair = s_prev * s_prev
        groups = data.draw(st.none() | st.lists(
            st.lists(st.integers(0, 1), min_size=npair, max_size=npair),
            min_size=1, max_size=3).map(np.array))
        target = data.draw(st.sampled_from(
            [None, Fraction(1, 2), Fraction(1, 3)]))
        with mock.patch.object(specbuild, "_CHUNK_ELEMS",
                               chunk or specbuild._CHUNK_ELEMS):
            got = argmax_rows(_prefix_argmax(slots, s_prev, U, V, T, j_lo,
                                             groups, target))
        assert got == ref_prefix_argmax(slots, s_prev, U, V, T, j_lo,
                                        groups, target)

    def test_prefix_argmax_slices_a_block_by_its_own_rows(self,
                                                         monkeypatch):
        # at 2**7 elements each row is a kernel block of its own, whose
        # float work is clamped at that row's overlap
        monkeypatch.setattr(specbuild, "_CHUNK_ELEMS", 1 << 7)
        slots = signed_slot_matrix(
            [[1, 0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1]], 2)
        U = V = np.zeros(4, np.int64)
        T = np.array([0, 0, 4, 4])
        assert argmax_rows(_prefix_argmax(slots, 2, U, V, T, 8)) == \
            ref_prefix_argmax(slots, 2, U, V, T, 8) == \
            [(8, 12, 0), (8, 12, 0), (5, 12, 2), (5, 12, 2)]

    def test_prefix_argmax_breaks_opposite_sign_ties_in_order(self):
        # against target 1/2, count 2 at j0 = 3 and count 2 at j0 = 6 both
        # deviate by exactly 1/6, but in float the first reads
        # 0.16666666666666663 and the second 0.16666666666666669
        slots = signed_slot_matrix([[0, 0, 1, 1, 1, 1, 0, 0]], 2)
        zero = np.zeros(1, dtype=np.int64)
        got = argmax_rows(_prefix_argmax(slots, 2, zero, zero, zero, 3,
                                         np.array([[1, 0, 0, 0]]),
                                         Fraction(1, 2)))
        assert got == [(2, 3, 0)]

    @given(opposite_sign_ties(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_prefix_argmax_breaks_drawn_opposite_sign_ties_in_order(
            self, tie, data):
        # row 0 deviates equally at j0 = j_lo and at j0 = k, with opposite
        # signs; the first must win, beside any other rows
        slots, s_prev, j_lo, groups, target = tie
        rows = data.draw(kernel_rows((slots, 1, s_prev),
                                     slots.shape[1] - j_lo))
        U, V, T = (np.concatenate([[0], c]) for c in rows)
        got = argmax_rows(_prefix_argmax(slots, s_prev, U, V, T, j_lo,
                                         groups, target))
        assert got == ref_prefix_argmax(slots, s_prev, U, V, T, j_lo,
                                        groups, target)
        assert got[0][1:] == (j_lo, 0)

    @given(word_families(), EPS, st.data())
    @settings(max_examples=60, deadline=None)
    def test_band_bound_keeps_the_full_filter_entry(self, fam, eps, data):
        # k > 33 windows have more columns than band edges
        slots, s, s_prev = fam
        k = slots.shape[1]
        j_lo = max(1, ceil(eps * k))
        U, V, T = data.draw(kernel_rows(fam, k - j_lo))
        assert_band_bound_exact(slots, s_prev, U, V, T, j_lo)

    @given(word_families(), EPS, CHUNKS, st.data())
    @settings(max_examples=60, deadline=None)
    def test_band_bound_is_an_upper_bound(self, fam, eps, chunk, data):
        # a band bound below a row's exact maximum could prune that row
        slots, s, s_prev = fam
        k = slots.shape[1]
        j_lo = max(1, ceil(eps * k))
        U, V, T = data.draw(kernel_rows(fam, k - j_lo))
        target = Fraction(1, s_prev * s_prev)
        # any increasing edges from j_lo that reach every row's overlap
        j_hi = k - int(T.min())
        assume(j_hi > j_lo)
        edges = np.array([j_lo] + sorted(
            data.draw(st.sets(st.integers(j_lo + 1, j_hi))) | {j_hi}))
        exact = ref_prefix_argmax(slots, s_prev, U, V, T, j_lo)
        with mock.patch.object(specbuild, "_CHUNK_ELEMS",
                               chunk or specbuild._CHUNK_ELEMS):
            for lo, P in _prefix_pair_counts(slots, s_prev, U, V, T, edges):
                bound = _band_bound(P, edges, k - T[lo:lo + len(P)],
                                    float(target))
                for b, (c, j0, _) in zip(bound, exact[lo:]):
                    assert b >= float(abs(Fraction(c, j0) - target)) - 1e-12

    def test_words_of_2_24_symbols_raise_before_any_block(self):
        # float32 counts are exact only below 2**24; the zero-stride slots
        # allocate nothing, and the kernel allocates nothing before it
        # raises, where its one-hot rows alone would take 256 MB
        slots = np.broadcast_to(np.int64(0), (2, 1 << 24))
        row = np.zeros(1, np.int64)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"2\*\*24"):
                next(_prefix_pair_counts(slots, 2, row, row, row, [1 << 24]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_counts_reach_the_16_bit_bound_without_carry(self):
        # 2**16 - 1 positions of one pair count exactly, and no other pair
        slots = np.zeros((2, (1 << 16) - 1), np.int64)
        row = np.zeros(1, np.int64)
        assert _pair_totals(slots, 2, row, row, row).tolist() == \
            [[[(1 << 16) - 1, 0], [0, 0]]]

    def test_packed_shifts_reach_the_16_bit_bound_without_carry(self):
        # shifts 0 .. 3 of one word of 2**16 - 1 ones: their products count
        # 65535 .. 65532 exactly in float32, past float16's 2048
        slots = np.ones((2, (1 << 16) - 1), np.int64)
        row = np.zeros(4, np.int64)
        assert _pair_totals(slots, 2, row, row, np.arange(4)).tolist() == \
            [[[0, 0], [0, (1 << 16) - 1 - t]] for t in range(4)]

    @given(word_families(k_max=70), CHUNKS | st.just(1 << 12), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_oracle_on_shift_runs(self, fam, chunk, data):
        # every column, or drawn columns up to past the longest overlap;
        # blocks of one row to many rows per run
        slots, s, s_prev = fam
        k = slots.shape[1]
        U, V, T = data.draw(shift_runs(fam))
        cols = data.draw(st.just(np.arange(1, k - T.min() + 1)) | st.sets(
            st.integers(1, k + 3), min_size=1).map(sorted).map(np.array))
        want = np.zeros((len(U), s_prev * s_prev, k), np.int64)
        for lo, P in ref_prefix_pair_counts(slots, s_prev, U, V, T):
            for i, t in enumerate(T[lo:lo + len(P)]):
                # counts stay put past the overlap
                want[lo + i] = P[i][:, np.minimum(np.arange(k), k - t - 1)]
        at = np.minimum(cols, k) - 1
        seen = 0
        with mock.patch.object(specbuild, "_CHUNK_ELEMS",
                               chunk or specbuild._CHUNK_ELEMS):
            for lo, P in _prefix_pair_counts(slots, s_prev, U, V, T, cols):
                assert lo == seen
                seen += len(P)
                assert P.tolist() == want[lo:seen][:, :, at].tolist()
        assert seen == len(U)

    def test_a_long_run_splits_into_blocks_of_the_chunk_size(
            self, monkeypatch):
        # at 2**7 elements a block of the 45-shift run derives 32 rows of
        # 4 pairs at one column, and each band piece is one position wide
        monkeypatch.setattr(specbuild, "_CHUNK_ELEMS", 1 << 7)
        word = np.random.default_rng(5).integers(0, 2, 48).tolist()
        slots = signed_slot_matrix([word], 2)
        T = np.arange(1, 46)
        U = V = np.zeros_like(T)
        want = [row for _, P in ref_prefix_pair_counts(slots, 2, U, V, T)
                for row in P[:, :, -1].tolist()]
        blocks = [len(P) for _, P in _prefix_pair_counts(slots, 2, U, V, T,
                                                         [48])]
        assert blocks == [32, 13]
        assert _pair_totals(slots, 2, U, V, T).reshape(-1, 4).tolist() == \
            want

    @pytest.mark.parametrize("s_prev", [2, 3, 4])
    @pytest.mark.parametrize("chunk", [1 << 7, None])
    @pytest.mark.parametrize("band_min", [0, 1 << 30])
    def test_products_and_cumsums_match_the_oracle(self, monkeypatch, s_prev,
                                                   chunk, band_min):
        # _BAND_MIN 0 sends every call through the band products, 2**30
        # through the cumsums: the same rows, not a grid (a repeated
        # (u, t), scattered v, shifts up to k - 1), at columns one to past k
        monkeypatch.setattr(specbuild, "_BAND_MIN", band_min)
        monkeypatch.setattr(specbuild, "_CHUNK_ELEMS",
                            chunk or specbuild._CHUNK_ELEMS)
        rng = np.random.default_rng(s_prev)
        slots = signed_slot_matrix(rng.integers(0, s_prev, (3, 40)).tolist(),
                                   s_prev)
        U = np.array([0, 0, 5, 2, 2, 1, 4, 0, 3])
        V = np.array([1, 4, 0, 5, 5, 3, 2, 1, 0])
        T = np.array([3, 3, 0, 39, 17, 9, 9, 3, 25])
        cols = np.array([1, 2, 7, 20, 31, 40, 43])
        want = [P[0][:, np.minimum(cols, 40 - t) - 1].tolist() for (_, P), t
                in zip(ref_prefix_pair_counts(slots, s_prev, U, V, T), T)]
        got = [row for _, P in _prefix_pair_counts(slots, s_prev, U, V, T,
                                                   cols) for row in P.tolist()]
        assert got == want

    def test_prefix_argmax_refuses_a_target_past_float_order(self):
        # at k = 128 and td = 2**40, k^2 td = 2**54: distinct deviations
        # can round to one float, so the first-maximum order is not exact
        slots = signed_slot_matrix([[0, 1] * 64], 2)
        zero = np.zeros(1, dtype=np.int64)
        with pytest.raises(ValueError, match="2\\*\\*53"):
            _prefix_argmax(slots, 2, zero, zero, zero, 1,
                           target=Fraction(1, 2 ** 40))
        _prefix_argmax(slots, 2, zero, zero, zero, 1,
                       target=Fraction(1, 2 ** 38))

    def test_prefix_argmax_on_an_empty_window_examines_nothing(self):
        # j_lo = k + 1 leaves no window column: each row reports j0 = 0,
        # which _worst skips, so J11.1 at eps 3/2 reports 0
        slots = signed_slot_matrix([[0, 1, 1, 0, 1]], 2)
        U, V, T = np.array([0, 0]), np.array([0, 1]), np.array([0, 2])
        assert _prefix_argmax(slots, 2, U, V, T, 6).tolist() == \
            [[0, 0], [0, 0], [0, 0]]
        entry = _check_J11_1(slots, 2, [(0, 0), (0, 1)], Fraction(3, 2),
                             Fraction(1, 8))
        assert (entry.status, entry.worst_deviation, entry.witness) == \
            ("pass", 0, {})

    @given(word_families(), CHUNKS, st.data())
    @settings(max_examples=60, deadline=None)
    def test_totals_match_direct_count(self, fam, chunk, data):
        slots, s, s_prev = fam
        k = slots.shape[1]
        U, V, T = data.draw(kernel_rows(fam, k - 1))
        with mock.patch.object(specbuild, "_CHUNK_ELEMS",
                               chunk or specbuild._CHUNK_ELEMS):
            got = _pair_totals(slots, s_prev, U, V, T)
        assert got.shape == (len(U), s_prev, s_prev)
        for (u, v, t), row in zip(zip(U, V, T), got):
            want = np.zeros((s_prev, s_prev), np.int64)
            np.add.at(want, (slots[u, t:] % s_prev,
                             slots[v, :k - t] % s_prev), 1)
            assert row.tolist() == want.tolist()

    def test_entries_do_not_depend_on_the_chunk_size(self, monkeypatch):
        # at 1 << 6 elements every J10 and J10.1 chunk holds one row of the
        # k = 64 words, and J11 and J11.1 a few
        plan = desk_plan(kl=((64, 4), (2, 2), (2, 2)),
                         eps_lunate=(Fraction(1, 4), Fraction(1, 8),
                                     Fraction(1, 16)))
        built = build_attempt(groups_from_tree([(), (0,), (1,)]), plan,
                              seed=3, level=2)
        want = check_specs(built)
        monkeypatch.setattr(specbuild, "_CHUNK_ELEMS", 1 << 6)
        clear_builder_memos()     # else the second battery reads the memos
        got = check_specs(built)
        assert repr(got) == repr(want)
        ids = [e.spec_id for e in got.entries if e.spec_id[0] == "J"]
        assert ids == [f"{j}@{n}" for n in (0, 1)
                       for j in ("J10", "J10.1", "J11", "J11.1")]
        # a level-1 J11 row with a witness and a failing J10 are among them
        assert entry(got, "J11@1").witness["level"] == 1
        assert entry(got, "J10@1").status == "fail"

    def test_prefix_argmax_ignores_columns_past_the_overlap(self):
        # row (0, 0, 8) sees every pair twice in its 8-symbol overlap, so
        # its only window column j0 = 8 has deviation 0; the chunk is 16
        # columns wide for the t = 0 row, and the count-2 columns past the
        # overlap deviate by up to 1/8
        slots = signed_slot_matrix(
            [[0, 0, 1, 1, 0, 0, 1, 1, 0, 1, 0, 1, 0, 1, 0, 1]], 2)
        U, V, T = (np.array(c) for c in ([0, 0], [0, 0], [0, 8]))
        assert argmax_rows(_prefix_argmax(slots, 2, U, V, T, 8))[1] == \
            (2, 8, 0)

    @given(word_families(), EPS, EPS,
           st.sampled_from([Fraction(0), Fraction(1, 8), Fraction(1, 2)]),
           st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_reference_checks(self, fam, eps, eps_var, tol, data):
        slots, s, s_prev = fam
        j10, j10_1, _ = _check_J10_J10_1(slots, s_prev, eps, eps_var, tol)
        assert_same_entry(j10, ref_J10(slots, s, s_prev, eps, tol))
        assert_same_entry(j10_1, ref_J10_1(slots, s, s_prev, eps_var, tol))
        every = [(u, v) for u in range(s) for v in range(2 * s)]
        pairs = [p for p in every if data.draw(st.booleans())]
        assert_same_entry(_check_J11_1(slots, s_prev, pairs, eps, tol),
                          ref_J11_1(slots, s, s_prev, pairs, eps, tol))

    def test_constant_words_tie_to_first_witness(self):
        slots = signed_slot_matrix([[0] * 16, [0] * 16], 2)
        j10, j10_1, _ = _check_J10_J10_1(slots, 2, Fraction(1, 4),
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
        j10, j10_1 = entry(rep, "J10@0"), entry(rep, "J10.1@0")
        assert j10.worst_deviation == Fraction(53, 460)
        assert j10.witness == {"u": 2, "v": 0, "t": 679, "pair": (2, 0),
                               "count": 126, "overlap": 345}
        assert j10_1.worst_deviation == Fraction(135, 1028)
        assert j10_1.witness == {"u": 2, "v": 0, "t": 679, "j0": 257,
                                 "pair": (2, 0)}
        fam = built.seq.stage(1)
        slots = signed_slot_matrix(fam.compositions, 2)
        st0, tol = plan.stage(0), J_TOLERANCE
        assert_same_entry(j10, SpecEntry(
            "J10@0", *ref_J10(slots, 2, 2, st0.eps_lunate, tol)))
        assert_same_entry(j10_1, SpecEntry(
            "J10.1@0", *ref_J10_1(slots, 2, 2, st0.eps_classic, tol)))
        j11_1 = entry(rep, "J11.1@0")
        assert j11_1.worst_deviation == Fraction(13, 172)
        assert j11_1.witness == {"u": 0, "v": 1, "j0": 258,
                                 "segment": "tail", "pair": (0, 0)}
        pairs = _Stage(built, 0, tol).entry.unrelated
        assert_same_entry(j11_1, SpecEntry(
            "J11.1@0", *ref_J11_1(slots, 2, 2, pairs, st0.eps_lunate, tol)))


MUS = st.sampled_from([Fraction(0), Fraction(1, 8), Fraction(3, 10),
                       Fraction(1, 2)])


@st.composite
def class_builds(draw, k_max=24):
    """Built sequences with classes at stages 1 and 2 for the frequency
    checks at n = 1: random or constant stage-2 words of length k <=
    k_max, stage-2 classes or none, and missing, identity or
    side-swapping actions."""
    s1 = draw(st.sampled_from([2, 4]))
    Q = draw(st.sampled_from([q for q in (1, 2, 4) if q <= s1]))
    classes1 = tuple(draw(st.permutations([i % Q for i in range(s1)])))
    k = draw(st.integers(2, k_max))
    s2 = draw(st.integers(1, 3))
    slot = st.integers(0, s1 - 1)
    word_ = st.one_of(st.lists(slot, min_size=k, max_size=k),
                      slot.map(lambda x: [x] * k))
    comps2 = draw(st.lists(word_, min_size=s2, max_size=s2))
    classes2 = draw(st.one_of(st.none(), st.tuples(
        *[st.integers(0, Q - 1)] * s2)))
    swap = st.permutations(range(Q)).map(
        lambda p: swap_side_action(Q, p).generators[0])
    action = st.one_of(
        st.none(), st.just(identity_action(Q)),
        st.lists(swap, min_size=1, max_size=2).map(
            lambda gens: GroupActionTable(Q, tuple(gens))))
    plan = desk_plan(kl=((2, 2), (k, 2)),
                     eps_classic=(Fraction(1, 4), draw(EPS)))
    seq = odometer_sequence(
        plan, "01", [[(i % 2, i // 2) for i in range(s1)], comps2])
    seq = with_classes(seq, (None, classes1, classes2))
    return BuiltSequence(seq, (None, draw(action), draw(action)))


class TestFrequencyChecks:
    @given(class_builds(), MUS, st.sampled_from([Fraction(1, 4),
                                                 Fraction(3, 2)]))
    @settings(max_examples=150, deadline=None)
    def test_match_reference_checks(self, built, mu, eps):
        # J11 reads the whole-word counts of J10's pass; at eps 3/2 J10 and
        # J10.1 have no shift, and the pass keeps t = 0
        s_prev = built.stage(1).size
        slots = _slot_matrix(built.stage(2).compositions, s_prev)
        whole = _check_J10_J10_1(slots, s_prev, eps, eps, mu)[2]
        classes, act = built.stage(2).classes, built.actions[2]
        orbits = _orbits(len(slots) // 2, classes, act)
        assert_same_entry(
            _check_J11(whole, orbits, slots.shape[1], s_prev,
                       built.actions[1] and built.stage(1).classes, mu),
            ref_J11(built.seq, 1, slots, built.actions, mu))
        stage = _Stage(built, 1, mu)
        assert_same_entry(_check_T5(stage), ref_T5(built, 1, mu))
        assert_same_entry(_check_T7(stage), ref_T7(built, 1, mu))
        if built.actions[1] is not None:    # else T6 does not apply
            assert_same_entry(_check_T6(stage), ref_T6(built, 1, mu))

    @given(class_builds(k_max=64), MUS)
    @settings(max_examples=60, deadline=None)
    def test_T6_matches_the_reference_on_long_windows(self, built, mu):
        # k up to 64: windows of more columns than class_builds' default
        assume(built.actions[1] is not None)
        assert_same_entry(_check_T6(_Stage(built, 1, mu)),
                          ref_T6(built, 1, mu))

    def test_missing_class_data_is_not_checked(self):
        # the battery reports T4-T7 not-checked; check_T4 itself refuses
        seq = odometer_sequence(desk_plan(kl=((4, 2), (2, 2), (2, 2))), "01",
                                [[(0, 1, 0, 1), (1, 0, 1, 0)],
                                 [(0, 1), (1, 0)]])
        built = BuiltSequence(seq, (None, None, None))
        assert check_timing(built).entries == tuple(
            SpecEntry(f"T{i}@{1 if i == 4 else 0}", "not-checked")
            for i in range(1, 8))
        with pytest.raises(SequenceError, match="classes"):
            check_T4(lift_build(built), 1, Fraction(1, 8))

    def test_pinned_uneven_classes(self):
        # three stage-1 words in classes (0, 1, 1) under two stage-2 words;
        # T5's first worst entry is a T5b one
        plan = desk_plan(kl=((2, 2), (8, 2)))
        seq = odometer_sequence(plan, "01", [[(0, 0), (0, 1), (1, 0)],
                                             [(1, 1, 0, 1, 2, 2, 0, 0),
                                              (2, 2, 1, 0, 2, 1, 2, 2)]])
        seq = with_classes(seq, (None, (0, 1, 1), (0, 1)))
        built = BuiltSequence(seq, (None, None, None))
        mu = Fraction(1, 4)
        t5, t7 = (check(_Stage(built, 1, mu)) for check in (_check_T5,
                                                            _check_T7))
        assert t5.worst_deviation == t7.worst_deviation == Fraction(1, 2)
        assert t5.witness == {"axiom": "T5b", "w0": 0, "w1": 0, "t": 1,
                              "v": 2, "class": 0}
        assert t7.witness == {"w0": 0, "w1": 0, "v": 0, "class": 0}
        assert_same_entry(t5, ref_T5(built, 1, mu))
        assert_same_entry(t7, ref_T7(built, 1, mu))


# ---------------------------------------------------------------------------
# T4: the per-pair FFT loop that preceded _worst, kept as the oracle

def _sym_array(w) -> np.ndarray:
    return np.frombuffer(w.materialize().encode("latin1"), dtype=np.uint8)


def ref_mismatch_all_shifts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """M[l] = mismatches between a[:l] and b[len(b)-l:] for every l, via
    FFT cross-correlation per symbol; exact after rounding."""
    n = len(a)
    size = 1
    while size < 2 * n:
        size *= 2
    match = np.zeros(2 * n - 1)
    for sym in np.unique(np.concatenate([a, b])):
        fa = np.fft.rfft((a == sym).astype(float), size)
        fb = np.fft.rfft((b == sym)[::-1].astype(float), size)
        match += np.fft.irfft(fa * fb, size)[:2 * n - 1]
    match = np.rint(match).astype(np.int64)
    # lag l-1 sums matches of a[i] against b[(n-l)+i] for i < l
    out = np.zeros(n + 1, dtype=np.int64)
    ls = np.arange(1, n + 1)
    out[1:] = ls - match[ls - 1]
    return out


def ref_T4(built: BuiltSequence, n: int, gamma: Fraction) -> Verdict:
    """Inequivalent stage-n circular words must stay gamma-separated in
    normalized Hamming distance on every initial, tail and cross segment
    longer than eps * q_n."""
    seq = built.seq
    if seq.flavor != CIRCULAR:
        raise SequenceError("check_T4 runs on circular sequences")
    fam = seq.stage(n)
    if fam.classes is None:
        return Verdict("not-checked", None, None, {})
    if gamma <= 0:
        return Verdict("pass", None, None, {"vacuous": True, "gamma": gamma})
    q = seq.plan.q(n)
    eps = Fraction(seq.plan.stage(n - 1).eps_lunate)
    l_min = int(eps * q) + 1
    arrays = {}
    for i, w in enumerate(fam.words):
        arrays[(i, FWD)] = _sym_array(w)
        arrays[(i, REV)] = arrays[(i, FWD)][::-1]
    worst, witness = Fraction(1), {}
    items = list(arrays.items())
    for (i, si), a in items:
        for (j, sj), b in items:
            if (i, si) == (j, sj):
                continue
            if fam.classes[i] == fam.classes[j] and si == sj:
                continue
            pre = np.cumsum(a != b)
            suf = np.cumsum(a[::-1] != b[::-1])
            cross = ref_mismatch_all_shifts(a, b)
            for name, counts in (("initial", pre), ("tail", suf)):
                ls = np.arange(l_min, q + 1)
                dv = counts[ls - 1] / ls
                bad = int(np.argmin(dv))
                d = Fraction(int(counts[ls[bad] - 1]), int(ls[bad]))
                if d < worst:
                    worst = d
                    witness = {"pair": ((i, si), (j, sj)), "segment": name,
                               "length": int(ls[bad])}
            ls = np.arange(l_min, q + 1)
            dv = cross[ls] / ls
            bad = int(np.argmin(dv))
            d = Fraction(int(cross[ls[bad]]), int(ls[bad]))
            if d < worst:
                worst = d
                witness = {"pair": ((i, si), (j, sj)), "segment": "cross",
                           "length": int(ls[bad])}
    status = "pass" if worst >= gamma else "fail"
    return Verdict(status, worst, gamma, witness)


@st.composite
def t4_families(draw):
    """Lifted stage-1 families of 2-4 words over "01": random, constant,
    a base word and its one-digit edits, in random classes; the plan's
    stage-0 eps, and a gamma that is often the exact worst distance, so
    equality must pass."""
    k = draw(st.integers(2, 32))
    digit = st.integers(0, 1)
    random_ = st.integers(0, 2 ** k - 1).map(
        lambda x: [x >> i & 1 for i in range(k)])
    base = draw(random_)
    near = st.integers(0, k - 1).map(
        lambda i: base[:i] + [1 - base[i]] + base[i + 1:])
    # random words weigh double: a constant word matches its own reversal
    # on long cross segments, which would mask the rest of the family
    word_ = st.one_of(random_, random_, digit.map(lambda x: [x] * k), near)
    s = draw(st.integers(2, 4))
    words = [base] + draw(st.lists(word_, min_size=s - 1, max_size=s - 1))
    classes = tuple(draw(st.lists(st.integers(0, s - 1), min_size=s,
                                  max_size=s)))
    # short segments match somewhere, so most separated cases need a
    # large eps; as q < 10^6, 1/10^6 reads every length
    eps = draw(st.sampled_from([Fraction(1, 8), Fraction(1, 10 ** 6),
                                Fraction(2, 3), Fraction(3, 4),
                                Fraction(7, 8), Fraction(15, 16)]))
    plan = desk_plan(kl=((k, draw(st.integers(2, 4))), (2, 2)),
                     eps_lunate=(eps, Fraction(1, 16)))
    seq = circular_sequence(plan, "01", [words])
    seq = with_classes(seq, (None, classes))
    built = BuiltSequence(seq, (None, None))
    worst = ref_T4(built, 1, Fraction(1, 2)).worst_deviation
    gamma = draw(st.sampled_from([worst, worst, worst + Fraction(1, 997),
                                  worst - Fraction(1, 997), Fraction(1, 4),
                                  Fraction(0)]))
    return built, gamma


class TestT4:
    @given(t4_families())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, family):
        built, gamma = family
        assert_same_entry(check_T4(built, 1, gamma),
                          ref_T4(built, 1, gamma))

    def test_rounding_bound(self):
        assert _rounding_bound(256, 512, 4) < Fraction(1, 10 ** 10)
        # the bound passes 1/2 between 2^42- and 2^43-symbol words, far
        # beyond any word that could be held
        assert _rounding_bound(2 ** 42, 2 ** 43, 4) < Fraction(1, 2)
        with pytest.raises(RoundingBoundError):
            _rounding_bound(2 ** 43, 2 ** 44, 4)
