"""Equivalence classes: refinement, cost (Eq. 5), phases, bookkeeping."""

import heapq
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sweep.classes as classes_module
from repro.errors import SweepError
from repro.network import NetworkBuilder
from repro.sweep import EquivalenceClasses


def toy_network(num_pis=2, num_gates=6):
    builder = NetworkBuilder()
    pis = builder.pis(num_pis)
    prev = pis[0]
    nodes = []
    for i in range(num_gates):
        prev = builder.and_(prev, pis[i % num_pis])
        nodes.append(prev)
    builder.po(prev)
    return builder.build(), nodes


class TestConstruction:
    def test_default_members_are_gates(self):
        net, nodes = toy_network()
        classes = EquivalenceClasses(net)
        assert classes.members() == sorted(nodes)
        assert classes.num_classes == 1

    def test_include_pis(self):
        net, nodes = toy_network()
        classes = EquivalenceClasses(net, include_pis=True)
        assert len(classes.members()) == len(nodes) + 2

    def test_explicit_members(self):
        net, nodes = toy_network()
        classes = EquivalenceClasses(net, members=nodes[:3])
        assert classes.members() == sorted(nodes[:3])

    def test_unknown_member_rejected(self):
        net, _ = toy_network()
        with pytest.raises(Exception):
            EquivalenceClasses(net, members=[999])


class TestRefinement:
    def test_split_by_signature(self):
        net, nodes = toy_network(num_gates=4)
        classes = EquivalenceClasses(net, members=nodes)
        signatures = {nodes[0]: 0b00, nodes[1]: 0b00, nodes[2]: 0b01, nodes[3]: 0b11}
        splits = classes.refine(signatures, width=2)
        assert splits == 2
        assert classes.same_class(nodes[0], nodes[1])
        assert not classes.same_class(nodes[0], nodes[2])
        assert not classes.same_class(nodes[2], nodes[3])

    def test_refine_is_incremental(self):
        net, nodes = toy_network(num_gates=4)
        classes = EquivalenceClasses(net, members=nodes)
        classes.refine({n: 0 for n in nodes}, width=1)
        assert classes.num_classes == 1
        classes.refine(
            {nodes[0]: 1, nodes[1]: 1, nodes[2]: 0, nodes[3]: 0}, width=1
        )
        assert classes.num_classes == 2

    def test_refine_masks_to_width(self):
        net, nodes = toy_network(num_gates=2)
        classes = EquivalenceClasses(net, members=nodes)
        # Signatures differ only above the declared width: no split.
        classes.refine({nodes[0]: 0b10, nodes[1]: 0b00}, width=1)
        assert classes.same_class(nodes[0], nodes[1])

    def test_missing_signature_rejected(self):
        net, nodes = toy_network(num_gates=3)
        classes = EquivalenceClasses(net, members=nodes)
        with pytest.raises(SweepError):
            classes.refine({nodes[0]: 0}, width=1)

    def test_zero_width_noop(self):
        net, nodes = toy_network(num_gates=3)
        classes = EquivalenceClasses(net, members=nodes)
        assert classes.refine({}, width=0) == 0


class TestCost:
    def test_equation_5(self):
        net, nodes = toy_network(num_gates=6)
        classes = EquivalenceClasses(net, members=nodes)
        assert classes.cost() == 5  # one class of six
        classes.refine(
            {n: (0 if i < 3 else 1) for i, n in enumerate(nodes)}, width=1
        )
        assert classes.cost() == 4  # 2 + 2

    def test_all_singletons_cost_zero(self):
        net, nodes = toy_network(num_gates=4)
        classes = EquivalenceClasses(net, members=nodes)
        classes.refine({n: i for i, n in enumerate(nodes)}, width=2)
        assert classes.cost() == 0
        assert classes.splittable() == []


class TestComplementMatching:
    def test_complement_signatures_share_class(self):
        net, nodes = toy_network(num_gates=2)
        classes = EquivalenceClasses(net, members=nodes, match_complements=True)
        classes.refine({nodes[0]: 0b0101, nodes[1]: 0b1010}, width=4)
        assert classes.same_class(nodes[0], nodes[1])
        assert classes.phase(nodes[0]) != classes.phase(nodes[1])

    def test_plain_mode_splits_complements(self):
        net, nodes = toy_network(num_gates=2)
        classes = EquivalenceClasses(net, members=nodes)
        classes.refine({nodes[0]: 0b0101, nodes[1]: 0b1010}, width=4)
        assert not classes.same_class(nodes[0], nodes[1])

    def test_non_complement_still_split(self):
        net, nodes = toy_network(num_gates=2)
        classes = EquivalenceClasses(net, members=nodes, match_complements=True)
        classes.refine({nodes[0]: 0b0101, nodes[1]: 0b0011}, width=4)
        assert not classes.same_class(nodes[0], nodes[1])


class TestBookkeeping:
    def test_remove_member(self):
        net, nodes = toy_network(num_gates=3)
        classes = EquivalenceClasses(net, members=nodes)
        classes.remove_member(nodes[0])
        assert nodes[0] not in classes.members()
        assert classes.cost() == 1

    def test_isolate(self):
        net, nodes = toy_network(num_gates=3)
        classes = EquivalenceClasses(net, members=nodes)
        classes.isolate(nodes[1])
        assert not classes.same_class(nodes[0], nodes[1])
        assert classes.cost() == 1

    def test_isolate_singleton_noop(self):
        net, nodes = toy_network(num_gates=2)
        classes = EquivalenceClasses(net, members=nodes)
        classes.refine({nodes[0]: 0, nodes[1]: 1}, width=1)
        classes.isolate(nodes[0])
        assert classes.num_classes == 2

    def test_splittable_sorted_largest_first(self):
        net, nodes = toy_network(num_gates=6)
        classes = EquivalenceClasses(net, members=nodes)
        sig = {n: (0 if i < 4 else 1) for i, n in enumerate(nodes)}
        classes.refine(sig, width=1)
        sizes = [len(c) for c in classes.splittable()]
        assert sizes == sorted(sizes, reverse=True)


class TestPartitionInvariant:
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_refinement_preserves_partition(self, data):
        net, nodes = toy_network(num_gates=8)
        classes = EquivalenceClasses(net, members=nodes)
        for _ in range(data.draw(st.integers(1, 4))):
            signatures = {
                n: data.draw(st.integers(0, 7), label=f"sig{n}") for n in nodes
            }
            classes.refine(signatures, width=3)
            # partition invariant: every member in exactly one class
            seen = [uid for cls in classes.all_classes() for uid in cls]
            assert sorted(seen) == sorted(nodes)
            # same signature => same class within one refinement... holds
            # only per-step; check the converse: different sig => different
            # class after this refinement.
            for a in nodes:
                for b in nodes:
                    if (
                        classes.same_class(a, b)
                        and a != b
                    ):
                        assert signatures[a] == signatures[b]


class TestWorkQueue:
    """best_splittable() must always agree with splittable()[0]."""

    def test_initial_and_resolved(self):
        net, nodes = toy_network()
        classes = EquivalenceClasses(net, members=nodes)
        assert classes.best_splittable() == classes.splittable()[0]
        for uid in nodes[1:]:
            classes.remove_member(uid)
        assert classes.best_splittable() is None
        assert classes.splittable() == []

    def test_agrees_after_refine_isolate_remove(self):
        rng = random.Random(5)
        net, nodes = toy_network(num_gates=12)
        classes = EquivalenceClasses(net, members=nodes)
        for step in range(60):
            op = rng.randrange(3)
            tracked = classes.members()
            if not tracked:
                break
            if op == 0:
                sig = {n: rng.getrandbits(2) for n in tracked}
                classes.refine(sig, width=2)
            elif op == 1:
                classes.isolate(rng.choice(tracked))
            else:
                classes.remove_member(rng.choice(tracked))
            splittable = classes.splittable()
            expected = splittable[0] if splittable else None
            assert classes.best_splittable() == expected, step

    def test_draining_a_big_class_pushes_linearly(self, monkeypatch):
        """One snapshot per mutation: draining a class of n members must not
        re-push superseded snapshots (that costs O(n^2) pushes)."""
        from repro.benchgen import sweep_instance

        net = sweep_instance("cps")
        gates = [node.uid for node in net.nodes() if node.is_gate][:300]
        assert len(gates) >= 200
        pushes = []

        class CountingHeapq:
            heappop = staticmethod(heapq.heappop)

            @staticmethod
            def heappush(heap, item):
                pushes.append(item)
                heapq.heappush(heap, item)

        monkeypatch.setattr(classes_module, "heapq", CountingHeapq)
        classes = EquivalenceClasses(net, members=gates)
        drained = 0
        while (cls := classes.best_splittable()) is not None:
            assert cls == classes.splittable()[0]
            classes.remove_member(cls[1])
            drained += 1
        assert drained == len(gates) - 1
        assert len(pushes) <= len(gates) + 1

    def test_splittable_members(self):
        net, nodes = toy_network(num_gates=6)
        classes = EquivalenceClasses(net, members=nodes)
        assert sorted(classes.splittable_members()) == sorted(nodes)
        sig = {n: (1 if n == nodes[0] else 0) for n in nodes}
        classes.refine(sig, width=1)
        assert sorted(classes.splittable_members()) == sorted(nodes[1:])

    def test_tracked(self):
        net, nodes = toy_network()
        classes = EquivalenceClasses(net, members=nodes)
        assert classes.tracked(nodes[0])
        classes.remove_member(nodes[0])
        assert not classes.tracked(nodes[0])

    def test_cost_matches_sum_formula_under_mutations(self):
        rng = random.Random(9)
        net, nodes = toy_network(num_gates=10)
        classes = EquivalenceClasses(net, members=nodes)
        for _ in range(40):
            if rng.random() < 0.5 and classes.members():
                classes.isolate(rng.choice(classes.members()))
            elif classes.members():
                sig = {n: rng.getrandbits(1) for n in classes.members()}
                classes.refine(sig, width=1)
            assert classes.cost() == sum(
                len(c) - 1 for c in classes.all_classes()
            )
