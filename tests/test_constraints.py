import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import C5_EDGES, make_instance

from dss import (
    Digraph,
    GraphClass,
    InstanceError,
    ISGadgetSpec,
    ProblemKind,
    Solution,
    UndirectedGraph,
    WeightedInstance,
    check_budget,
    check_digraph_closure,
    check_maximal,
    check_weak_closure,
    evaluate,
    graph_to_ssgw,
    is_feasible,
    verify_solution,
    random_instance,
    weak_closure_completion,
)
from dss.approx import ptas_ssg
from dss.constraints import _maximality_strong
from dss.exact import brute_force, solve_ssg_tree
from test_graph import digraphs


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
        ok, w = check_budget(fig_b_instance, set())
        assert ok and w == 0

    def test_exact_budget_ok(self, fig_b_instance):
        ok, w = check_budget(fig_b_instance, {0, 1, 2})
        assert ok and w == 4

    def test_overshoot(self, fig_b_instance):
        ok, w = check_budget(fig_b_instance, {0, 1, 2, 3})
        assert not ok and w == 6


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
        report = check_maximal(inst, set())
        assert report.satisfies_maximality is True
        assert report.feasible

    def test_worked_tree_prefix_is_maximal(self, fig_b_instance):
        # {v1,v2,v3} hits the budget; the cheapest remaining sink overshoots.
        report = check_maximal(fig_b_instance, {0, 1, 2})
        assert report.satisfies_maximality is True

    def test_extendable_set_witnessed(self, fig_b_instance):
        report = check_maximal(fig_b_instance, {0, 1})
        assert report.satisfies_maximality is False
        assert report.witness == 2

    def test_maximality_skipped_when_infeasible(self, fig_b_instance):
        report = check_maximal(fig_b_instance, {4})  # not closed
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
                report = check_maximal(inst, s)
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
                report = check_maximal(inst, s)
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
                assert _maximality_strong(inst, sel) == oracles.maximality_strong_oracle(inst, sel)


class TestEvaluate:
    def test_non_maximal_kind_has_no_maximality(self, fig_a):
        inst = make_instance(fig_a, [1] * 8, 3, ProblemKind.SSG)
        report = evaluate(inst, {1, 3})
        assert report.satisfies_maximality is None
        assert report.feasible

    def test_is_feasible_and_verify(self, fig_a):
        inst = make_instance(fig_a, [1] * 8, 3, ProblemKind.SSG)
        assert is_feasible(inst, {3})
        assert not is_feasible(inst, {0})  # v1 forces v2
        sol = Solution.from_nodes(inst, {1, 3})
        assert verify_solution(inst, sol).feasible
