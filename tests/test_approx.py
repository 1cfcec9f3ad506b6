import random
import tracemalloc
from fractions import Fraction

import pytest

from conftest import make_instance
from oracles import (
    descendants_oracle,
    ptas_maximal_ssg_oracle,
    ptas_maximal_ssg_reference,
    ptas_ssg_oracle,
)

from dss import (
    ApproxResult,
    Digraph,
    GraphClass,
    ProblemKind,
    Solution,
    WeightedInstance,
    brute_force,
    condense,
    evaluate,
    is_dag,
    ptas_maximal_ssg,
    ptas_ssg,
    random_instance,
)
from dss import approx
from dss.graph import mask_nodes


def _random_dag(seed, n_max=10, kind=ProblemKind.SSG):
    rng = random.Random(seed)
    n = rng.randint(1, n_max)
    return random_instance(
        GraphClass.DAG,
        n,
        weight_max=9,
        budget_rule=("fraction", rng.choice([0.25, 0.5, 0.75])),
        seed=seed,
        kind=kind,
        arc_prob=rng.choice([0.2, 0.4]),
    )


class TestPtasSSG:
    def test_whole_graph_when_budget_large(self, fig_a):
        inst = make_instance(fig_a, [1] * 8, 8)
        for k in (0, 1, 3):
            assert ptas_ssg(inst, k).solution.selected == frozenset(range(8))

    def test_guarantee_value(self, fig_a):
        inst = make_instance(fig_a, [1] * 8, 3)
        assert ptas_ssg(inst, 0).guarantee == Fraction(1, 2)
        assert ptas_ssg(inst, 3).guarantee == Fraction(3, 4)

    def test_rejects_other_kinds(self, fig_a):
        inst = make_instance(fig_a, [1] * 8, 3, ProblemKind.SSGW)
        with pytest.raises(ValueError):
            ptas_ssg(inst, 1)
        with pytest.raises(ValueError):
            ptas_ssg(make_instance(fig_a, [1] * 8, 3), -1)

    def test_output_feasible(self):
        for seed in range(30):
            inst = _random_dag(seed)
            for k in (0, 1, 2):
                sol = ptas_ssg(inst, k).solution
                assert evaluate(inst, sol.selected).feasible
                assert inst.weight_of(sol.selected) == sol.weight

    def test_ratio_bound(self):
        for seed in range(40):
            inst = _random_dag(seed)
            opt = brute_force(inst).weight
            for k in (0, 1, 2, 3):
                got = ptas_ssg(inst, k).solution.weight
                assert got <= opt
                if k == 0:
                    assert 2 * got >= opt, f"seed {seed} k=0"
                else:
                    assert (k + 1) * got >= k * opt, f"seed {seed} k={k}"

    def test_exact_when_k_is_n(self):
        for seed in range(20):
            inst = _random_dag(seed, n_max=8)
            opt = brute_force(inst).weight
            assert ptas_ssg(inst, inst.graph.n).solution.weight == opt

    def test_general_digraph_via_condensation(self):
        for seed in range(20):
            rng = random.Random(seed)
            inst = random_instance(
                GraphClass.GENERAL, rng.randint(1, 9), seed=seed
            )
            sol = ptas_ssg(inst, inst.graph.n).solution
            assert sol.weight == brute_force(inst).weight
            assert evaluate(inst, sol.selected).feasible

    def test_seed_loop_stops_at_exact_fill(self, fig_a, monkeypatch):
        calls = []
        fill = approx._fill_max

        def counted(*args):
            calls.append(args)
            return fill(*args)

        monkeypatch.setattr(approx, "_fill_max", counted)
        weights = (2, 1, 4, 3, 1, 2, 5, 1)
        inst = WeightedInstance(fig_a, weights, sum(weights), ProblemKind.SSG)
        assert ptas_ssg(inst, 2).solution.weight == sum(weights)
        assert len(calls) == 1
        # The empty seed and {0} fall short of B; {1} fills it.
        calls.clear()
        g = Digraph(5, [(4, 3)])
        inst = WeightedInstance(g, (5, 4, 3, 3, 0), 7, ProblemKind.SSG)
        assert ptas_ssg(inst, 3).solution.weight == 7
        assert len(calls) == 3


class TestPtasMaximalSSG:
    def test_whole_graph_when_budget_large(self, fig_a):
        inst = make_instance(fig_a, [1] * 8, 8, ProblemKind.MAXIMAL_SSG)
        for k in (0, 2):
            assert ptas_maximal_ssg(inst, k).solution.selected == frozenset(
                range(8)
            )

    def test_single_node_overshoots(self):
        inst = make_instance(Digraph(1, []), [5], 4, ProblemKind.MAXIMAL_SSG)
        assert ptas_maximal_ssg(inst, 0).solution.selected == frozenset()

    def test_guarantee_value(self, fig_a):
        inst = make_instance(fig_a, [1] * 8, 3, ProblemKind.MAXIMAL_SSG)
        assert ptas_maximal_ssg(inst, 0).guarantee == Fraction(2)
        assert ptas_maximal_ssg(inst, 2).guarantee == Fraction(3, 2)

    def test_output_is_maximal_feasible(self):
        for seed in range(30):
            inst = _random_dag(seed, kind=ProblemKind.MAXIMAL_SSG)
            for k in (0, 1, 2):
                sol = ptas_maximal_ssg(inst, k).solution
                assert evaluate(inst, sol.selected).feasible, f"seed {seed} k={k}"

    def test_ratio_bound(self):
        for seed in range(40):
            inst = _random_dag(seed, kind=ProblemKind.MAXIMAL_SSG)
            opt = brute_force(inst).weight
            for k in (0, 1, 2, 3):
                got = ptas_maximal_ssg(inst, k).solution.weight
                assert got >= opt
                if k == 0:
                    assert got <= 2 * opt or opt == got == 0, f"seed {seed} k=0"
                else:
                    assert k * got <= (k + 1) * opt or opt == got == 0

    def test_exact_when_k_is_n(self):
        for seed in range(20):
            inst = _random_dag(seed, n_max=8, kind=ProblemKind.MAXIMAL_SSG)
            opt = brute_force(inst).weight
            got = ptas_maximal_ssg(inst, inst.graph.n).solution.weight
            assert got == opt

    def test_general_digraph_via_condensation(self):
        for seed in range(20):
            rng = random.Random(seed)
            inst = random_instance(
                GraphClass.GENERAL,
                rng.randint(1, 9),
                seed=seed,
                kind=ProblemKind.MAXIMAL_SSG,
            )
            sol = ptas_maximal_ssg(inst, inst.graph.n).solution
            assert sol.weight == brute_force(inst).weight
            assert evaluate(inst, sol.selected).feasible

    def test_matches_heap_reference(self):
        # The set oracle is O(n^4) at k = 3, too slow past n ~ 25; the
        # heap-driven reference covers n = 30-80.  weight_max 0 gives zero
        # weights, and every fifth case has all weights equal, so every
        # sink ties and the id alone orders them.
        for seed in range(30):
            rng = random.Random(seed)
            n = rng.randint(30, 80)
            inst = random_instance(
                (GraphClass.DAG, GraphClass.GENERAL)[seed % 2],
                n,
                weight_max=rng.choice([0, 1, 10, 10**6]),
                budget_rule=("fraction", rng.choice([0.2, 0.5])),
                seed=seed,
                kind=ProblemKind.MAXIMAL_SSG,
                arc_prob=rng.uniform(1, 4) / n,
            )
            if seed % 5 == 0:
                inst = WeightedInstance(inst.graph, (7,) * n, 7 * rng.randint(0, n), inst.kind)
            for k in (1, 2):
                got = ptas_maximal_ssg(inst, k)
                assert got == ptas_maximal_ssg_reference(inst, k), f"seed {seed} k={k}"

    def test_peak_memory(self):
        # The states recorded for the stop rule take about half of it.
        inst = random_instance(
            GraphClass.DAG, 100, seed=1, arc_prob=0.05, kind=ProblemKind.MAXIMAL_SSG
        )
        tracemalloc.start()
        try:
            ptas_maximal_ssg(inst, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6


def _oracle_result(inst, k):
    """The ApproxResult the set-based oracle gives; general digraphs go
    through the condensation, as the schemes do."""
    g = inst.graph
    if inst.kind is ProblemKind.SSG:
        oracle = ptas_ssg_oracle
        guarantee = Fraction(1, 2) if k == 0 else Fraction(k, k + 1)
    else:
        oracle = ptas_maximal_ssg_oracle
        guarantee = Fraction(2) if k == 0 else Fraction(k + 1, k)
    if is_dag(g):
        nodes = oracle(g.n, g.arcs, inst.weights, inst.budget, k)
    else:
        cond = condense(g, inst.weights)
        comps = oracle(
            cond.dag.n, cond.dag.arcs, cond.component_weight, inst.budget, k
        )
        nodes = frozenset(v for v, c in enumerate(cond.component_of) if c in comps)
    return ApproxResult(Solution(nodes, inst.weight_of(nodes)), k, guarantee)


def _random_case(seed, n_max, dag):
    """Seeded digraph of 2..n_max nodes (mostly small, since the oracle's
    cost grows as n^4 at k = 3) with arc probability in [0.05, 0.5],
    weights that may all be zero, and a budget of 0, the total, above it,
    or in between."""
    rng = random.Random(seed)
    n = 2 + int((n_max - 1) * rng.random() ** 3)
    p = rng.uniform(0.05, 0.5)
    order = list(range(n))
    rng.shuffle(order)
    arcs = [
        (order[i], order[j])
        for i in range(n)
        for j in range(n)
        if (i < j or (not dag and i != j)) and rng.random() < p
    ]
    wmax = rng.choice([0, 1, 9, 9, 1000, 1000])
    weights = [rng.randint(0, wmax) for _ in range(n)]
    total = sum(weights)
    if rng.random() < 0.2:
        budget = rng.choice([0, total, total + 1])
    else:
        budget = rng.randint(0, total)
    return Digraph(n, arcs), tuple(weights), budget


def _assert_matches_oracle(g, weights, budget, ks, label):
    for kind, scheme in (
        (ProblemKind.SSG, ptas_ssg),
        (ProblemKind.MAXIMAL_SSG, ptas_maximal_ssg),
    ):
        inst = WeightedInstance(g, weights, budget, kind)
        for k in ks:
            assert scheme(inst, k) == _oracle_result(inst, k), f"{label} {kind.value} k={k}"


class TestMatchesSetOracle:
    def test_random_dags(self):
        for seed in range(300):
            g, weights, budget = _random_case(seed, 25, dag=True)
            _assert_matches_oracle(g, weights, budget, range(4), f"seed {seed}")

    def test_random_general_digraphs(self):
        for seed in range(60):
            g, weights, budget = _random_case(seed, 12, dag=False)
            _assert_matches_oracle(g, weights, budget, range(4), f"seed {seed}")

    def test_skipped_seeds(self):
        # 0 -> 1 -> 2, 0 -> 3, 4 -> 2, 5 alone.  The ssg seed {0, 1} holds
        # an arc and fits the budget; the maximal seed {0, 2} holds no arc
        # but starts from the same descendants {0, 1, 2, 3} as {0}.
        g = Digraph(6, [(0, 1), (0, 3), (1, 2), (4, 2)])
        weights = (2, 1, 1, 3, 2, 4)
        budget = 7
        arc_seed, arc_kernel = {0, 1}, {0}
        assert (0, 1) in g.arcs
        assert descendants_oracle(6, g.arcs, arc_seed) == descendants_oracle(6, g.arcs, arc_kernel)
        assert sum(weights[v] for v in descendants_oracle(6, g.arcs, arc_seed)) <= budget
        assert not {(0, 2), (2, 0)} & set(g.arcs)
        assert descendants_oracle(6, g.arcs, {0, 2}) == descendants_oracle(6, g.arcs, {0})
        _assert_matches_oracle(g, weights, budget, range(7), "skip rules")

    def test_merged_runs_stop(self):
        # Arc 1 -> 0 and eight unit weights, B = 4, so (weight, id) ranks
        # are the ids and states of 4 or 0 unselected nodes are recorded.
        # The empty seed's greedy takes 0, 1, 2, 3 and records {4, .., 7}
        # mid-way.  Seed {0} starts at {1, .., 7}, takes 1, 2, 3 and
        # reaches {4, .., 7}: it merges there and would end on the
        # incumbent {0, 1, 2, 3}, a tie.  Seed {1} (descendants {0, 1})
        # merges at the same state after taking 2 and 3.
        g = Digraph(8, [(1, 0)])
        weights = (1,) * 8
        budget = 4
        inst = WeightedInstance(g, weights, budget, ProblemKind.MAXIMAL_SSG)
        r = approx._Reach(g, approx._topological_order(g), list(weights))
        seen = set()
        assert approx._fill_min(r, budget, r.full, 0, seen) == (0b11110000, 4)
        assert 0b11110000 in seen
        assert approx._fill_min(r, budget, r.full & ~0b1, 1, seen) is None
        assert approx._fill_min(r, budget, r.full & ~0b11, 2, seen) is None
        _assert_matches_oracle(g, weights, budget, range(9), "merged runs")
        assert ptas_maximal_ssg(inst, 2).solution == Solution(frozenset(range(4)), 4)

    def test_first_exact_fill_wins(self):
        # No arc but 4 -> 3, weights (5, 4, 3, 3, 0), B = 7.  The empty
        # seed's greedy takes node 0 and stops at 5; seeds {1} and {2} fill
        # B with {1, 2}, and the later seeds {3} and {4} with {1, 3} and
        # {1, 3, 4}.  The loop stops at the first of them.
        g = Digraph(5, [(4, 3)])
        weights = (5, 4, 3, 3, 0)
        budget = 7
        inst = WeightedInstance(g, weights, budget, ProblemKind.SSG)
        r = approx._Reach(g, approx._topological_order(g), list(weights))
        fills = {}
        for seed, base, base_w in r.seeds(3, budget, range(5)):
            up = 0
            for v in mask_nodes(seed):
                up |= r.anc[v]
            sol, w = approx._fill_max(r, budget, base, base_w, r.full & ~up & ~base)
            fills[frozenset(mask_nodes(seed))] = (frozenset(mask_nodes(sol)), w)
        assert fills[frozenset()] == (frozenset({0}), 5)
        assert fills[frozenset({1})] == (frozenset({1, 2}), budget)
        assert fills[frozenset({3})] == (frozenset({1, 3}), budget)
        assert fills[frozenset({4})] == (frozenset({1, 3, 4}), budget)
        _assert_matches_oracle(g, weights, budget, range(4), "first exact fill")
        assert ptas_ssg(inst, 3).solution.selected == frozenset({1, 2})
