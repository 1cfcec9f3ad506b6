import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import C5_EDGES, make_instance

from dss import (
    Digraph,
    GraphClass,
    GraphError,
    InstanceError,
    ISGadgetSpec,
    ProblemKind,
    Solution,
    UndirectedGraph,
    WeightedInstance,
    check_digraph_closure,
    check_weak_closure,
    evaluate,
    graph_to_ssgw,
    random_instance,
    weak_closure_completion,
)
from dss import constraints
from dss.approx import ptas_ssg
from dss.constraints import _maximality_strong
from dss.exact import brute_force, solve_ssg_tree
from test_graph import CSR_SLOTS, digraphs


@pytest.fixture
def c5_gadget():
    spec = ISGadgetSpec(UndirectedGraph(5, tuple(C5_EDGES)))
    inst, labels = graph_to_ssgw(spec, ProblemKind.SSGW)
    return inst


class TestStrongClosure:
    def test_descendant_set_closed(self, fig_a):
        assert check_digraph_closure(fig_a, {2, 0, 5, 1, 3}) is None

    def test_empty_and_full(self, fig_a):
        assert check_digraph_closure(fig_a, set()) is None
        assert check_digraph_closure(fig_a, set(range(8))) is None

    def test_witness_is_smallest_arc(self):
        g = Digraph(4, [(0, 1), (0, 2), (1, 3)])
        assert check_digraph_closure(g, {0}) == (0, 1)

    @given(digraphs())
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, g):
        import random

        rng = random.Random(1)
        s = {v for v in range(g.n) if rng.random() < 0.5}
        assert (check_digraph_closure(g, s) is None) == oracles.strong_closed(
            g.arcs, s
        )

    @given(digraphs())
    @settings(max_examples=60, deadline=None)
    def test_descendants_always_closed(self, g):
        import random

        rng = random.Random(2)
        s = {v for v in range(g.n) if rng.random() < 0.3}
        assert check_digraph_closure(g, oracles.descendants_oracle(g.n, g.arcs, s)) is None


class TestWeakClosure:
    def test_independent_pair_not_forced(self, c5_gadget):
        # Nonadjacent cycle nodes never complete an edge node's in-pair.
        assert check_weak_closure(c5_gadget.graph, {0, 2}) is None

    def test_full_set_ok(self, c5_gadget):
        g = c5_gadget.graph
        assert check_weak_closure(g, set(range(g.n))) is None

    def test_forced_node_witnessed(self, c5_gadget):
        g = c5_gadget.graph
        # Both endpoints of the first edge force its edge node (id 5).
        assert check_weak_closure(g, {0, 1}) == 5

    @given(digraphs())
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, g):
        import random

        rng = random.Random(3)
        s = {v for v in range(g.n) if rng.random() < 0.5}
        assert (check_weak_closure(g, s) is None) == oracles.weak_closed(
            g.n, g.arcs, s
        )


    @given(digraphs(min_n=0))
    @settings(max_examples=100, deadline=None)
    def test_witness_matches_reference(self, g):
        rng = random.Random(g.n * 31 + len(g.arcs))
        for s in (set(), set(range(g.n)), {v for v in range(g.n) if rng.random() < 0.5}):
            assert check_weak_closure(g, s) == oracles.weak_closure_witness_oracle(g, s)

    @pytest.mark.parametrize(
        "cls", [GraphClass.DAG, GraphClass.GENERAL, GraphClass.OUT_ROOTED_TREE,
                GraphClass.IN_ROOTED_TREE, GraphClass.ORIENTED_TREE],
        ids=lambda c: c.value,
    )
    def test_witness_on_classes(self, cls):
        rng = random.Random(8)
        sources = 0
        for seed in range(40):
            g = random_instance(cls, rng.randint(1, 40), seed=seed, arc_prob=0.1).graph
            sources += int((np.bincount(g.head, minlength=g.n) == 0).sum())
            for p in (0.0, 0.2, 0.5, 0.8, 1.0):
                s = {v for v in range(g.n) if rng.random() < p}
                assert check_weak_closure(g, s) == oracles.weak_closure_witness_oracle(g, s)
        assert sources  # nodes with no in-neighbour are never forced

    def test_source_never_witnessed(self):
        g = Digraph(4, [(0, 1), (2, 1)])
        assert check_weak_closure(g, set()) is None
        assert check_weak_closure(g, {0}) is None
        assert check_weak_closure(g, {0, 2}) == 1
        assert check_weak_closure(Digraph(0, []), set()) is None


class TestWeakCompletion:
    def test_gadget_completion(self, c5_gadget):
        got = weak_closure_completion(c5_gadget.graph, {0, 1})
        assert got == {0, 1, 5}

    def test_result_is_weak_closed(self, c5_gadget):
        g = c5_gadget.graph
        got = weak_closure_completion(g, {0, 1, 2})
        assert check_weak_closure(g, got) is None

    @given(digraphs())
    @settings(max_examples=60, deadline=None)
    def test_idempotent_and_minimal(self, g):
        import random

        rng = random.Random(4)
        s = {v for v in range(g.n) if rng.random() < 0.4}
        grown = weak_closure_completion(g, s)
        assert s <= grown
        assert weak_closure_completion(g, grown) == grown
        assert check_weak_closure(g, grown) is None
        # Minimality: every weak-closed superset of s contains grown.
        if g.n <= 6:
            import itertools

            rest = [v for v in range(g.n) if v not in s]
            for size in range(len(rest) + 1):
                for extra in itertools.combinations(rest, size):
                    t = s | set(extra)
                    if oracles.weak_closed(g.n, g.arcs, t):
                        assert grown <= t


class TestBudget:
    def test_empty(self, fig_b_instance):
        report = evaluate(fig_b_instance, set())
        assert report.satisfies_budget and report.total_weight == 0

    def test_exact_budget_ok(self, fig_b_instance):
        report = evaluate(fig_b_instance, {0, 1, 2})
        assert report.satisfies_budget and report.total_weight == 4

    def test_overshoot(self, fig_b_instance):
        report = evaluate(fig_b_instance, {0, 1, 2, 3})
        assert not report.satisfies_budget and report.total_weight == 6


class TestIntegerValues:
    """Weights and budget go through ``operator.index``: numpy integers
    become ints, and anything else no solver can weigh exactly is
    refused."""

    PATH = Digraph(2, [(0, 1)])

    def test_float_weights(self):
        with pytest.raises(InstanceError, match="weights and budget must be integers"):
            WeightedInstance(self.PATH, (1.5, 2.5), 3, ProblemKind.SSG)

    def test_string_weights(self):
        with pytest.raises(InstanceError, match="weights and budget must be integers"):
            WeightedInstance(self.PATH, ("1", "2"), 3, ProblemKind.SSG)

    def test_float_budget(self):
        with pytest.raises(InstanceError, match="weights and budget must be integers"):
            WeightedInstance(self.PATH, (1, 2), 3.0, ProblemKind.SSG)

    def test_numpy_integers(self):
        inst = WeightedInstance(self.PATH, np.array([1, 2]), np.int64(3), ProblemKind.SSG)
        assert inst.weights == (1, 2) and inst.budget == 3
        assert {type(v) for v in (*inst.weights, inst.budget)} == {int}
        want = Solution(frozenset({0, 1}), 3)
        assert brute_force(inst) == solve_ssg_tree(inst) == ptas_ssg(inst, 1).solution == want

    def test_weights_kept_as_tuple(self):
        inst = WeightedInstance(self.PATH, [1, 2], 3, ProblemKind.SSG)
        assert inst.weights == (1, 2) and isinstance(inst.weights, tuple)


class TestMaximality:
    def test_single_node_overshoots(self):
        inst = make_instance(Digraph(1, []), [5], 4, ProblemKind.MAXIMAL_SSG)
        report = evaluate(inst, set())
        assert report.satisfies_maximality is True
        assert report.feasible

    def test_worked_tree_prefix_is_maximal(self, fig_b_instance):
        # {v1,v2,v3} hits the budget; the cheapest remaining sink overshoots.
        report = evaluate(fig_b_instance, {0, 1, 2})
        assert report.satisfies_maximality is True

    def test_extendable_set_witnessed(self, fig_b_instance):
        report = evaluate(fig_b_instance, {0, 1})
        assert report.satisfies_maximality is False
        assert report.witness == 2

    def test_maximality_skipped_when_infeasible(self, fig_b_instance):
        report = evaluate(fig_b_instance, {4})  # not closed
        assert report.satisfies_closure is False
        assert report.satisfies_maximality is None
        assert not report.feasible

    @given(digraphs())
    @settings(max_examples=40, deadline=None)
    def test_strong_matches_literal_superset_test(self, g):
        if g.n > 6:
            return
        import itertools

        weights = [(v * 7) % 5 + 1 for v in range(g.n)]
        budget = sum(weights) // 2
        inst = WeightedInstance(
            g, tuple(weights), budget, ProblemKind.MAXIMAL_SSG
        )
        literal = set(
            oracles.maximal_sets(g.n, g.arcs, weights, budget, weak=False)
        )
        for size in range(g.n + 1):
            for combo in itertools.combinations(range(g.n), size):
                s = frozenset(combo)
                report = evaluate(inst, s)
                assert report.feasible == (s in literal)

    @given(digraphs())
    @settings(max_examples=40, deadline=None)
    def test_weak_matches_literal_superset_test(self, g):
        if g.n > 6:
            return
        import itertools

        weights = [(v * 3) % 4 + 1 for v in range(g.n)]
        budget = sum(weights) // 2
        inst = WeightedInstance(
            g, tuple(weights), budget, ProblemKind.MAXIMAL_SSGW
        )
        literal = set(
            oracles.maximal_sets(g.n, g.arcs, weights, budget, weak=True)
        )
        for size in range(g.n + 1):
            for combo in itertools.combinations(range(g.n), size):
                s = frozenset(combo)
                report = evaluate(inst, s)
                assert report.feasible == (s in literal)


class TestMaximalityStrongOnDags:
    """The strong maximality test runs on the library's condensation,
    which is the graph itself when it is acyclic; it must give the
    witness of ``oracles.condensation_oracle``'s condensation."""

    @pytest.mark.parametrize(
        "cls", [GraphClass.ORIENTED_TREE, GraphClass.OUT_ROOTED_TREE, GraphClass.DAG, GraphClass.GENERAL],
        ids=lambda c: c.value,
    )
    def test_matches_condensation(self, cls):
        rng = random.Random(5)
        for seed in range(60):
            n = rng.randint(1, 14)
            inst = random_instance(cls, n, seed=seed, kind=ProblemKind.MAXIMAL_SSG, arc_prob=0.2)
            for i in range(6):
                # Random sets, and their descendant closures.
                sel = set(rng.sample(range(n), rng.randint(0, n)))
                if i % 2:
                    sel = oracles.descendants_oracle(n, inst.graph.arcs, sel)
                picked = np.array([v in sel for v in range(n)], dtype=np.bool_)
                room = inst.budget - inst.weight_of(sel)
                assert _maximality_strong(inst, picked, room) == oracles.maximality_strong_oracle(inst, sel)


class TestEvaluate:
    def test_non_maximal_kind_has_no_maximality(self, fig_a):
        inst = make_instance(fig_a, [1] * 8, 3, ProblemKind.SSG)
        report = evaluate(inst, {1, 3})
        assert report.satisfies_maximality is None
        assert report.feasible

    def test_is_feasible_and_verify(self, fig_a):
        inst = make_instance(fig_a, [1] * 8, 3, ProblemKind.SSG)
        assert evaluate(inst, {3}).feasible
        assert not evaluate(inst, {0}).feasible  # v1 forces v2
        sol = Solution.from_nodes(inst, {1, 3})
        assert evaluate(inst, sol.selected).feasible

    def test_out_of_range_node(self, fig_a):
        for kind in ProblemKind:
            inst = make_instance(fig_a, [1] * 8, 3, kind)
            with pytest.raises(GraphError, match="node id 8 out of range"):
                evaluate(inst, {1, 8})


class TestSingleRead:
    """``evaluate`` reads a selection once, whatever the kind: one
    ``Digraph._check_nodes`` and one ``WeightedInstance.weight_of`` call.
    The weak maximality test grows each candidate with
    ``weak_closure_completion``, which reads its own set; reads made
    inside it are not counted."""

    @pytest.mark.parametrize("kind", list(ProblemKind), ids=lambda k: k.value)
    def test_one_call_each(self, kind, monkeypatch):
        inst = random_instance(GraphClass.DAG, 12, seed=3, kind=kind, arc_prob=0.3)
        sel = brute_force(inst).selected
        counts = {"_check_nodes": 0, "weight_of": 0, "completions": 0}
        inside = []

        def count(cls, name):
            original = getattr(cls, name)

            def counted(self, s):
                counts[name] += not inside
                return original(self, s)

            monkeypatch.setattr(cls, name, counted)

        count(Digraph, "_check_nodes")
        count(WeightedInstance, "weight_of")
        completion = constraints.weak_closure_completion

        def counted_completion(g, s):
            counts["completions"] += 1
            inside.append(s)
            try:
                return completion(g, s)
            finally:
                inside.pop()

        monkeypatch.setattr(constraints, "weak_closure_completion", counted_completion)
        report = evaluate(inst, sel)
        assert report.feasible
        assert report.satisfies_maximality is (True if kind.is_maximal else None)
        assert (counts["completions"] > 0) == (kind is ProblemKind.MAXIMAL_SSGW)
        assert (counts["_check_nodes"], counts["weight_of"]) == (1, 1), counts

    def test_large_tree_full_set(self):
        """The full set on a fresh 10^5-node ssgw out-rooted tree: no
        adjacency is built, and the peak, mostly the one copy of the set
        that ``_check_nodes`` makes, stays below 150 bytes a node."""
        n = 10**5
        inst = random_instance(
            GraphClass.OUT_ROOTED_TREE, n, weight_max=1, seed=1, kind=ProblemKind.SSGW
        )
        full = set(range(n))
        tracemalloc.start()
        try:
            report = evaluate(inst, full)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.satisfies_closure and report.total_weight == sum(inst.weights)
        for name in CSR_SLOTS:
            with pytest.raises(AttributeError):
                object.__getattribute__(inst.graph, name)
        assert peak < 150 * n, peak

    def test_weight_of_reads_a_set_in_place(self):
        """``weight_of`` sums over a set or a frozenset as it is: under
        1 KB allocated for 10^5 nodes, where a copy of the set takes about
        4 MB.  Any other iterable counts each node once."""
        n = 10**5
        inst = WeightedInstance(Digraph.from_ids(n, [], []), (1,) * n, n, ProblemKind.SSG)
        for s in (set(range(n)), frozenset(range(n))):
            tracemalloc.start()
            try:
                total = inst.weight_of(s)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert total == n and peak < 1_000, peak
        assert inst.weight_of([2, 0, 2]) == inst.weight_of(iter([0, 2, 0])) == 2
