"""Sequence enumeration, tree prefixes, reduction, continuity bounds."""

import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from circsys import trees
from circsys.coefficients import desk_plan
from circsys.trees import (ContinuityCertificate, TreeError, TreePrefix,
                           addable_index_above, certify_continuity,
                           chain_report, mutate_tree, realization_handoff,
                           reduce, sigma_enumeration, sigma_index,
                           tree_from_json)
from fixtures import tree_to_json

PLAN = desk_plan(kl=((4, 2), (2, 2)))
# the benchmark's reduce_certify plan
PLAN4 = desk_plan(kl=((4, 2), (2, 2), (2, 2), (2, 2)))


def tp(*nodes, horizon=0):
    return TreePrefix(frozenset(nodes), horizon=horizon)


def ref_weight_class(w):
    """All sequences with len + sum == w, lexicographically sorted, by
    listing them: the enumeration's definition, as an oracle."""
    if w == 0:
        return [()]
    out = []

    def extend(prefix, budget):
        # budget = remaining weight; appending value v costs v + 1
        for v in range(budget):
            node = prefix + (v,)
            if budget - v - 1 == 0:
                out.append(node)
            else:
                extend(node, budget - v - 1)
    extend((), w)
    return sorted(out)


def weight(s):
    return len(s) + sum(s)


class TestEnumeration:
    def test_matches_listed_weight_classes(self):
        # weights 0 .. 15 fill exactly the indices n < 2^15
        order = [s for w in range(16) for s in ref_weight_class(w)]
        assert len(order) == 2 ** 15
        assert [sigma_enumeration(n) for n in range(2 ** 15)] == order
        assert [sigma_index(s) for s in order] == list(range(2 ** 15))

    @given(st.lists(st.integers(0, 40), max_size=12), st.data())
    @settings(max_examples=200, deadline=None)
    def test_round_trip_and_tuple_order_within_a_weight(self, s, data):
        # a permutation keeps the weight, and so does splitting an entry
        # v into (a, v - 1 - a)
        same = [tuple(s), tuple(data.draw(st.permutations(s)))]
        splittable = [i for i, v in enumerate(s) if v >= 1]
        if splittable:
            i = data.draw(st.sampled_from(splittable))
            a = data.draw(st.integers(0, s[i] - 1))
            same.append(tuple(s[:i] + [a, s[i] - 1 - a] + s[i + 1:]))
        assert len({weight(x) for x in same}) == 1
        for x in same:
            assert sigma_enumeration(sigma_index(x)) == x
        assert sorted(same, key=sigma_index) == sorted(same)

    @pytest.mark.parametrize("bad", [(-1,), (0, -2), (1.0,), (0, 0.5)])
    def test_entries_must_be_natural_numbers(self, bad):
        # (-1,) has weight 0, as () does
        with pytest.raises(TreeError):
            sigma_index(bad)
        with pytest.raises(TreeError):
            tp((), bad[:1], bad)

    def test_injective_with_inverse(self):
        seen = {}
        for i in range(3000):
            s = sigma_enumeration(i)
            assert s not in seen
            seen[s] = i
            assert sigma_index(s) == i

    def test_prefix_monotone(self):
        # every proper prefix appears earlier
        for i in range(1, 3000):
            s = sigma_enumeration(i)
            for cut in range(len(s)):
                assert sigma_index(s[:cut]) < i

    def test_weight_order(self):
        ws = [weight(sigma_enumeration(i)) for i in range(500)]
        assert ws == sorted(ws)


class TestTreePrefix:
    def test_membership_and_horizon(self):
        t = tp((), (0,), (0, 0))
        assert (0,) in t
        assert (1,) not in t
        assert t.horizon > sigma_index((0, 0))

    def test_validate_good(self):
        assert tp((), (0,), (1,)).nodes == {(), (0,), (1,)}

    def test_validate_missing_prefix(self):
        with pytest.raises(TreeError, match=r"not a tree: missing initial "
                                            r"segment \(0,\)"):
            TreePrefix({(), (0, 0)})

    def test_json_round_trip(self):
        t = tp((), (0,), (1,), (0, 2))
        again = tree_from_json(tree_to_json(t))
        assert again.nodes == t.nodes
        assert again.horizon == t.horizon


    def test_read_matches_the_enumeration_walk(self):
        def walk(t, n0):
            members, consumed = [], []
            for n in range(t.horizon):
                consumed.append(n)
                if sigma_enumeration(n) in t.nodes:
                    members.append(sigma_enumeration(n))
                    if len(members) == n0 + 1:
                        break
            return tuple(members), consumed[-1], len(members) < n0 + 1

        rng = random.Random(11)
        for _ in range(300):
            nodes = {()}
            for _ in range(rng.randrange(0, 8)):
                base = rng.choice(sorted(nodes))
                nodes.add(base + (rng.randrange(3),))
            t = tp(*nodes, horizon=rng.choice([0, rng.randrange(60)]))
            for n0 in (1, 2, 3):
                assert trees._read_tree(t, n0, PLAN4) == walk(t, n0)

class TestMutation:
    def test_toggle_leaf(self):
        t = tp((), (0,))
        bigger = mutate_tree(t, sigma_index((1,)))
        assert (1,) in bigger
        assert mutate_tree(bigger, sigma_index((1,))).nodes == t.nodes

    def test_cannot_orphan(self):
        t = tp((), (0,), (0, 0))
        with pytest.raises(TreeError):
            mutate_tree(t, sigma_index((0,)))


class TestReduce:
    def test_deterministic(self):
        t = tp((), (0,), (0, 0))
        a = reduce(t, 1, PLAN, seed=7)
        b = reduce(t, 1, PLAN, seed=7)
        assert a.output_hash == b.output_hash
        assert a.bound == b.bound

    def test_seed_matters(self):
        t = tp((), (0,), (0, 0))
        a = reduce(t, 1, PLAN, seed=7)
        b = reduce(t, 1, PLAN, seed=8)
        assert a.output_hash != b.output_hash

    def test_depth_beyond_plan_rejected(self):
        with pytest.raises(TreeError):
            reduce(tp((), (0,), (1,), (0, 0)), 3, PLAN, seed=0)

    def test_consumed_prefix_and_exhaustion(self):
        plan3 = desk_plan(kl=((4, 2), (2, 2), (2, 2)))
        res = reduce(tp((), (0,)), 2, plan3, seed=0)
        assert res.exhausted
        full = tp((), (0,), (1,), (0, 0))
        assert not reduce(full, 1, PLAN, seed=0).exhausted

    def test_handoff_is_stub(self):
        res = reduce(tp((), (0,)), 1, PLAN, seed=0)
        doc = realization_handoff(res)
        assert doc["status"].startswith("not-constructed")
        assert len(doc["stages"]) >= 1
        assert all("prewords" in st for st in doc["stages"])


class TestFarNode:
    # sigma_index((60,)) = 2^61 - 1: the reduction never reads it
    FAR = (60,)

    @pytest.mark.parametrize("nodes, n0", [
        (((), (0,), (0, 0)), 1),
        (((), (0,), (1,), (0, 0)), 1),
        (((), (0,), (1,), (0, 1), (1, 0)), 2)])
    def test_reduce_and_certificate_ignore_it(self, nodes, n0):
        near, far = tp(*nodes), tp(*nodes, self.FAR)
        assert far.horizon == 2 ** 61
        a, b = reduce(near, n0, PLAN4, seed=3), reduce(far, n0, PLAN4, seed=3)
        assert (a.output_hash, a.bound, a.exhausted) == \
            (b.output_hash, b.bound, b.exhausted)
        assert certify_continuity(near, n0, PLAN4, seed=3) == \
            certify_continuity(far, n0, PLAN4, seed=3)

    def test_a_read_far_node_costs_no_memory_per_index(self, tmp_path):
        # the third member (60,) is read: the consumed indices run to
        # 2^61 - 1, and a list of them would not fit in 1 GB
        root = Path(__file__).resolve().parent.parent
        code = ("import resource, sys\n"
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                "from circsys.cli import run\n"
                "sys.exit(run(sys.argv[1:]))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            str(root / "src"), os.environ.get("PYTHONPATH")])))

        def run(cmd, nodes):
            tree = tmp_path / "far.json"
            tree.write_text(json.dumps({"nodes": nodes, "horizon": 3}))
            proc = subprocess.run(
                [sys.executable, "-c", code, cmd, "--tree", str(tree),
                 "--depth", "2", "--kl", "4,2;2,2;2,2"],
                capture_output=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr.decode()
            doc = json.loads(proc.stdout)
            assert doc["bound"] == 2 ** 61 - 1
            return doc

        for cmd in ("reduce", "continuity"):
            doc = run(cmd, [[], [0], [60]])
        # the least addable node above the bound is (0, 60)
        assert doc["above_index"] == sigma_index((0, 60)) == \
            2 ** 61 + 2 ** 60 - 1
        assert doc["ok"] and doc["affected_at_consumed"]
        # (60,) cannot be removed under (60, 0): the walk goes on below it
        doc = run("continuity", [[], [0], [60], [60, 0]])
        assert doc["consumed_index"] == sigma_index((0, 59))

    def test_unremovable_far_member_certifies_at_once(self, monkeypatch):
        # removing (60,) would orphan (60, 0); below it, the first toggle
        # a tree accepts is adding (0, 59), so the walk must not step
        # through the ~2^61 indices between them
        calls = []

        def counting(tree, index):
            calls.append(index)
            if len(calls) > 10_000:
                raise AssertionError("the walk tries indices one by one")
            return mutate_tree(tree, index)
        monkeypatch.setattr(trees, "mutate_tree", counting)
        plan3 = desk_plan(kl=((4, 2), (2, 2), (2, 2)))
        cert = certify_continuity(tp((), (0,), self.FAR, (60, 0)), 2, plan3)
        assert cert.bound == sigma_index(self.FAR)
        assert cert.consumed_index == sigma_index((0, 59))
        assert cert.above_index == sigma_index((0, 60))
        assert cert.affected and cert.unaffected


def ref_addable_index_above(tp, bound):
    """addable_index_above by scanning every index above the bound."""
    return next(n for n in itertools.count(bound + 1)
                if sigma_enumeration(n) not in tp.nodes
                and (not sigma_enumeration(n)
                     or sigma_enumeration(n)[:-1] in tp.nodes))


class TestAddable:
    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 3)),
                    max_size=9), st.integers(-1, 3000))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_scan(self, grow, bound):
        nodes = [()]
        for parent, label in grow:
            nodes.append(nodes[parent % len(nodes)] + (label,))
        t = tp(*nodes)
        assert addable_index_above(t, bound) == \
            ref_addable_index_above(t, bound)

    def test_empty_prefix(self):
        assert addable_index_above(tp(), -1) == 0
        with pytest.raises(TreeError, match="no addable node"):
            addable_index_above(tp(), 0)


class TestContinuity:
    def test_certificates_on_rich_trees(self):
        cases = [tp((), (0,), (0, 0)),
                 tp((), (0,), (1,)),
                 tp((), (0,), (1,), (0, 0))]
        for t in cases:
            cert = certify_continuity(t, 1, PLAN, seed=7)
            assert cert.unaffected
            assert cert.base_hash == cert.above_hash
            if cert.consumed_index is not None:
                assert cert.affected
                assert cert.consumed_hash != cert.base_hash

    def test_thin_prefix_refused(self):
        plan3 = desk_plan(kl=((4, 2), (2, 2), (2, 2)))
        with pytest.raises(TreeError):
            certify_continuity(tp((), (1,)), 2, plan3, seed=0)
        with pytest.raises(TreeError):
            certify_continuity(TreePrefix(frozenset()), 0, PLAN, seed=0)


def ref_certify(tp, n0, plan, seed=0, seen=None):
    """certify_continuity as it was before builds were shared and before
    its walk skipped the indices no toggle accepts: one fresh reduce per
    mutated tree, trying every index up to the bound.  Appends each
    reduction's members, as trees._read_tree reads them, to ``seen``."""
    def run(tree):
        res = reduce(tree, n0, plan, seed)
        if seen is not None:
            seen.append(tuple(trees._read_tree(tree, n0, plan)[0]))
        return res

    base = run(tp)
    if base.exhausted:
        raise TreeError("prefix too thin to certify: the member hunt "
                        "reached the horizon, so no finite bound exists")
    M = base.bound
    above = addable_index_above(tp, M)
    up = run(mutate_tree(tp, above))
    cert_consumed = None
    cert_hash = None
    affected = None
    for idx in reversed(range(M + 1)):
        try:
            mutated_in = mutate_tree(tp, idx)
        except TreeError:
            continue
        inside = run(mutated_in)
        if cert_consumed is None or inside.output_hash != base.output_hash:
            cert_consumed, cert_hash = idx, inside.output_hash
            affected = inside.output_hash != base.output_hash
        if affected:
            break
    return ContinuityCertificate(
        bound=M, base_hash=base.output_hash, above_index=above,
        above_hash=up.output_hash,
        unaffected=up.output_hash == base.output_hash,
        consumed_index=cert_consumed, consumed_hash=cert_hash,
        affected=affected)


@st.composite
def small_trees(draw):
    """Trees of 4-8 nodes grown from the root: each new node is the
    parent's first free child label at or above a drawn one in 0-2."""
    nodes = [()]
    for _ in range(draw(st.integers(3, 7))):
        base = nodes[draw(st.integers(0, len(nodes) - 1))]
        label = draw(st.integers(0, 2))
        while base + (label,) in nodes:
            label += 1
        nodes.append(base + (label,))
    return TreePrefix(frozenset(nodes))


class TestSharedBuilds:
    @given(small_trees(), st.integers(1, 3), st.integers(0, 999))
    @settings(max_examples=25, deadline=None)
    def test_matches_reference(self, t, n0, seed):
        assert certify_continuity(t, n0, PLAN4, seed) == \
            ref_certify(t, n0, PLAN4, seed)

    # the last member read has a descendant, so the top index is refused
    @pytest.mark.parametrize("nodes, n0", [
        (((), (0,), (0, 0), (1,)), 1),
        (((), (0,), (0, 0), (0, 0, 0)), 2),
        (((), (0,), (1,), (1, 0)), 2)])
    def test_matches_reference_when_the_top_index_is_refused(self, nodes,
                                                             n0):
        t = tp(*nodes)
        with pytest.raises(TreeError):
            mutate_tree(t, trees._read_tree(t, n0, PLAN4)[1])
        assert certify_continuity(t, n0, PLAN4, seed=2) == \
            ref_certify(t, n0, PLAN4, seed=2)

    @pytest.mark.parametrize("nodes, n0", [
        (((), (0,), (0, 0)), 1),
        (((), (0,), (1,), (0, 0)), 1),
        (((), (0,), (1,), (0, 1), (1, 0)), 2),
        (((), (0,), (1,), (0, 0), (0, 1), (1, 1)), 3)])
    def test_one_build_per_distinct_reading(self, nodes, n0, monkeypatch):
        t = tp(*nodes)
        seen = []
        want = ref_certify(t, n0, PLAN4, seed=5, seen=seen)
        calls = []

        def counting(scaffold, *args, **kwargs):
            calls.append(scaffold.nodes)
            return build_words(scaffold, *args, **kwargs)
        build_words = trees.build_words
        monkeypatch.setattr(trees, "build_words", counting)
        assert certify_continuity(t, n0, PLAN4, seed=5) == want
        assert sorted(calls) == sorted(set(seen))
        # the mutation above the bound reads the base members again
        assert len(calls) < len(seen)


class TestChains:
    def test_linear_tree(self):
        rep = chain_report(tp((), (0,), (0, 0)))
        assert rep.longest == 3
        assert list(rep.chains) == [((), (0,), (0, 0))]

    def test_antichain(self):
        rep = chain_report(tp((), (0,), (1,)))
        assert rep.longest == 2
        assert len(rep.chains) == 2

    def test_matches_longest_path_oracle(self):
        rng = random.Random(13)
        nodes = {()}
        for _ in range(12):
            base = rng.choice(sorted(nodes))
            nodes.add(base + (rng.randrange(3),))
        rep = chain_report(TreePrefix(frozenset(nodes)))
        want = max(
            sum(1 for cut in range(len(n) + 1) if n[:cut] in nodes)
            for n in nodes)
        assert rep.longest == want

    def test_disclaimer_present(self):
        rep = chain_report(tp((),))
        assert "not decidable" in rep.note
