import itertools
import random
import tracemalloc

import pytest

import oracles
from conftest import C5_EDGES, REGULAR8_EDGES

from dss import (
    CliqueGadgetSpec,
    Digraph,
    GraphClass,
    ISGadgetSpec,
    InstanceError,
    MaximalGadgetSpec,
    ProblemKind,
    UndirectedGraph,
    WeightedInstance,
    brute_force,
    cardinality_to_maximal,
    classify,
    clique_to_ssg,
    condense,
    graph_to_ssgw,
    is_dag,
    random_instance,
    solve_ssg_tree,
    subset_sum_to_tree,
)


def cycle_graph(n):
    return UndirectedGraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def complete_graph(n):
    return UndirectedGraph(n, tuple(itertools.combinations(range(n), 2)))


def cube_graph():
    edges = []
    for a in range(8):
        for bit in (1, 2, 4):
            b = a ^ bit
            if a < b:
                edges.append((a, b))
    return UndirectedGraph(8, tuple(edges))


REGULAR_CORPUS = [
    cycle_graph(4),
    cycle_graph(5),
    cycle_graph(6),
    complete_graph(4),
    complete_graph(5),
    UndirectedGraph(6, tuple((i, j) for i in (0, 1, 2) for j in (3, 4, 5))),
    cube_graph(),
    UndirectedGraph(8, tuple(REGULAR8_EDGES)),
]


def condensed_instance(inst: WeightedInstance) -> WeightedInstance:
    cond = condense(inst.graph, inst.weights)
    return WeightedInstance(
        cond.dag, cond.component_weight, inst.budget, inst.kind
    )


def exact_budget_reachable(inst: WeightedInstance, cap: int = 24) -> bool:
    """Closure-feasible set of weight exactly the budget exists."""
    sol = brute_force(condensed_instance(inst), cap=cap)
    return sol is not None and sol.weight == inst.budget


class TestUndirectedGraph:
    def test_edges_normalised_and_sorted(self):
        g = UndirectedGraph(5, ((3, 1), (0, 4), (1, 0), (2, 4)))
        assert g.edges == ((0, 1), (0, 4), (1, 3), (2, 4))
        assert UndirectedGraph(0, ()).edges == ()

    @pytest.mark.parametrize(
        "edges,message",
        [
            (((0, 1), (1, 0)), "edges must be simple and loop-free"),
            (((0, 9), (2, 2)), "edges must be simple and loop-free"),
            (((3, 7), (1, 0), (5, 1)), "edge (1,5) out of range"),
            (((-1, 2),), "edge (-1,2) out of range"),
            (((0, 1.5),), "edges must be pairs of integer node ids"),
            (((0, 1), (1.0, 2)), "edges must be pairs of integer node ids"),
            ((("0", 1),), "edges must be pairs of integer node ids"),
            (((0, 1, 2),), "edges must be pairs of integer node ids"),
        ],
        ids=["reversed-repeat", "loop-before-range", "first-in-order", "negative",
             "fraction", "float", "string", "triple"],
    )
    def test_errors(self, edges, message):
        with pytest.raises(InstanceError) as exc:
            UndirectedGraph(4, edges)
        assert str(exc.value) == message

    @pytest.mark.parametrize("seed", range(40))
    def test_adjacency_matches_edge_scan(self, seed):
        """Neighbours, degrees, regularity and connectivity equal a scan
        of every edge per node."""
        rng = random.Random(f"adjacency/{seed}")
        n = rng.randint(0, 12)
        p = rng.choice([0.1, 0.3, 0.7])
        pairs = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
        rng.shuffle(pairs)
        g = UndirectedGraph(n, tuple((v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs))
        scan = [
            sorted([b for a, b in g.edges if a == v] + [a for a, b in g.edges if b == v])
            for v in range(n)
        ]
        assert [g.neighbours(v) for v in range(n)] == scan
        assert [g.degree(v) for v in range(n)] == [len(nb) for nb in scan]
        degs = {len(nb) for nb in scan}
        assert g.is_regular() == (degs.pop() if n and len(degs) == 1 else None)
        seen, stack = {0}, [0]
        while stack and n:
            for w in scan[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        assert g.is_connected() == (n == 0 or len(seen) == n)


class TestCliqueReduction:
    def test_rejects_irregular(self):
        g = UndirectedGraph(3, ((0, 1), (1, 2)))
        with pytest.raises(InstanceError):
            CliqueGadgetSpec(g, 2)

    def test_rejects_disconnected(self):
        g = UndirectedGraph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
        with pytest.raises(InstanceError):
            CliqueGadgetSpec(g, 2)

    def test_size_and_weights(self):
        src = UndirectedGraph(8, tuple(REGULAR8_EDGES))
        spec = CliqueGadgetSpec(src, 4)
        inst, labels = clique_to_ssg(spec)
        # Delta*n circuit nodes plus 6 per edge: 32 + 96.
        assert inst.graph.n == 128
        assert len(labels) == 128
        assert sorted(set(inst.weights)) == [1, 32]
        assert inst.weights.count(1) == 32
        assert inst.budget == 3 * 4 * 8 * 4 * 3 + 4 * 4

    def test_degree_pattern(self):
        # Every node has total degree 3: (in 2, out 1) or (in 1, out 2).
        spec = CliqueGadgetSpec(cycle_graph(5), 2)
        inst, _ = clique_to_ssg(spec)
        g = inst.graph
        for v in range(g.n):
            din, dout = len(g.in_adj[v]), len(g.out_adj[v])
            assert (din, dout) in ((2, 1), (1, 2))

    def test_known_positive(self):
        # The 8-node 4-regular graph contains a 4-clique.
        src = UndirectedGraph(8, tuple(REGULAR8_EDGES))
        inst, _ = clique_to_ssg(CliqueGadgetSpec(src, 4))
        assert exact_budget_reachable(inst)

    def test_known_negative(self):
        # C5 is triangle-free.
        inst, _ = clique_to_ssg(CliqueGadgetSpec(cycle_graph(5), 3))
        assert not exact_budget_reachable(inst)

    @pytest.mark.parametrize("src", REGULAR_CORPUS)
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_iff_over_corpus(self, src, k):
        inst, _ = clique_to_ssg(CliqueGadgetSpec(src, k))
        expected = oracles.has_clique(src.n, src.edges, k)
        assert exact_budget_reachable(inst) == expected


def _closed_exact(g, weights, p, budget):
    """Source side of the cardinality reduction, by literal enumeration."""
    for combo in itertools.combinations(range(g.n), p):
        s = set(combo)
        if oracles.strong_closed(g.arcs, s) and sum(
            weights[v] for v in s
        ) == budget:
            return True
    return False


class TestCardinalityReduction:
    def _source(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        arcs = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.35
        ]
        p = rng.randint(1, n)
        weights = tuple(rng.randint(1, 3) for _ in range(n))
        # budget >= p + 3 keeps every weight inside [1, budget - p].
        budget = rng.randint(p + 3, 3 * n + 3)
        return Digraph(n, arcs), weights, p, budget

    def test_output_structure(self):
        g = Digraph(3, [(0, 1)])
        spec = MaximalGadgetSpec(g, (2, 3, 4), 2, 9)
        inst, labels, q = cardinality_to_maximal(spec)
        assert inst.kind is ProblemKind.MAXIMAL_SSG
        assert inst.graph.n == 3 + 2 + 1
        assert is_dag(inst.graph)
        # Unique sink: the bottom of the appended chain.
        sinks = [v for v in range(inst.graph.n) if not inst.graph.out_adj[v]]
        assert sinks == [3]
        assert q == spec.threshold

    def test_rejects_bad_weights(self):
        g = Digraph(2, [(0, 1)])
        with pytest.raises(InstanceError):
            MaximalGadgetSpec(g, (9, 1), 1, 5)

    def test_threshold_equivalence_handcrafted(self):
        g = Digraph(3, [(0, 1)])
        for budget, expected in ((4, True), (5, False)):
            spec = MaximalGadgetSpec(g, (2, 2, 2), 2, budget)
            inst, _, q = cardinality_to_maximal(spec)
            sol = brute_force(inst)
            got = sol is not None and sol.weight <= q
            assert got == expected
            assert expected == _closed_exact(g, (2, 2, 2), 2, budget)

    def test_threshold_equivalence_random(self):
        for seed in range(24):
            g, weights, p, budget = self._source(seed)
            spec = MaximalGadgetSpec(g, weights, p, budget)
            inst, _, q = cardinality_to_maximal(spec)
            sol = brute_force(inst)
            got = sol is not None and sol.weight <= q
            expected = _closed_exact(g, weights, p, budget)
            assert got == expected, f"seed {seed}"


class TestIndependenceReduction:
    def test_structure(self):
        inst, labels = graph_to_ssgw(
            ISGadgetSpec(UndirectedGraph(5, tuple(C5_EDGES))), ProblemKind.SSGW
        )
        assert inst.graph.n == 10
        assert inst.budget == 5
        assert sorted(set(inst.weights)) == [1, 6]
        assert is_dag(inst.graph)
        assert all(len(inst.graph.in_adj[v]) <= 2 for v in range(10))

    def test_rejects_strong_kind(self):
        with pytest.raises(InstanceError):
            graph_to_ssgw(
                ISGadgetSpec(UndirectedGraph(2, ((0, 1),))), ProblemKind.SSG
            )

    def test_c5_independence_number(self):
        inst, _ = graph_to_ssgw(
            ISGadgetSpec(UndirectedGraph(5, tuple(C5_EDGES))), ProblemKind.SSGW
        )
        assert brute_force(inst).weight == 2

    def test_c5_independent_domination(self):
        inst, _ = graph_to_ssgw(
            ISGadgetSpec(UndirectedGraph(5, tuple(C5_EDGES))),
            ProblemKind.MAXIMAL_SSGW,
        )
        assert brute_force(inst).weight == 2

    def test_random_graphs_match_oracles(self):
        for seed in range(12):
            rng = random.Random(seed)
            n = rng.randint(2, 6)
            edges = {(i - 1, i) for i in range(1, n)}  # path keeps it connected
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.3:
                        edges.add((i, j))
            src = UndirectedGraph(n, tuple(edges))
            for kind, oracle in (
                (ProblemKind.SSGW, oracles.independence_number),
                (ProblemKind.MAXIMAL_SSGW, oracles.independent_domination_number),
            ):
                inst, _ = graph_to_ssgw(ISGadgetSpec(src), kind)
                assert brute_force(inst, cap=24).weight == oracle(
                    n, src.edges
                ), f"seed {seed} {kind}"


class TestSubsetSumStar:
    def test_single_value_budget_too_small(self):
        inst, _ = subset_sum_to_tree([2], 1)
        assert solve_ssg_tree(inst).weight == 0

    def test_reachable_sums(self):
        values = [3, 5, 7, 11]
        for budget in (0, 4, 10, 26):
            inst, _ = subset_sum_to_tree(values, budget)
            expected = max(
                s for s in oracles.subset_sums(values, budget)
            )
            assert solve_ssg_tree(inst).weight == expected

    def test_rejects_negative(self):
        with pytest.raises(InstanceError):
            subset_sum_to_tree([3, -1], 5)


class TestRandomInstance:
    @pytest.mark.parametrize(
        "cls",
        [
            GraphClass.GENERAL,
            GraphClass.DAG,
            GraphClass.FOREST,
            GraphClass.ORIENTED_TREE,
            GraphClass.OUT_ROOTED_TREE,
            GraphClass.IN_ROOTED_TREE,
            GraphClass.TOURNAMENT,
            GraphClass.BALANCED_DEGREE_TWO,
        ],
    )
    def test_structure_matches_class(self, cls):
        from dss.graph import (
            is_balanced_degree_two,
            is_dag,
            is_in_rooted_tree,
            is_out_rooted_tree,
            is_tournament,
            is_underlying_forest,
            is_underlying_tree,
        )

        checks = {
            GraphClass.GENERAL: lambda g: True,
            GraphClass.DAG: is_dag,
            GraphClass.FOREST: is_underlying_forest,
            GraphClass.ORIENTED_TREE: is_underlying_tree,
            GraphClass.OUT_ROOTED_TREE: is_out_rooted_tree,
            GraphClass.IN_ROOTED_TREE: is_in_rooted_tree,
            GraphClass.TOURNAMENT: is_tournament,
            GraphClass.BALANCED_DEGREE_TWO: is_balanced_degree_two,
        }
        for seed in range(10):
            n = 3 + seed % 6
            inst = random_instance(cls, n, seed=seed)
            assert checks[cls](inst.graph), f"{cls} seed {seed}"

    @pytest.mark.parametrize("arc_prob", [2.0, -1.0, float("nan")])
    def test_arc_prob_outside_unit_interval_rejected(self, arc_prob):
        with pytest.raises(InstanceError, match=r"arc_prob must lie in \[0, 1\]"):
            random_instance(GraphClass.DAG, 4, arc_prob=arc_prob)

    def test_arc_prob_bounds_accepted(self):
        assert random_instance(GraphClass.DAG, 4, arc_prob=0.0).graph.arcs == ()
        assert len(random_instance(GraphClass.DAG, 4, arc_prob=1.0).graph.arcs) == 6

    def test_deterministic_per_seed(self):
        a = random_instance(GraphClass.DAG, 8, seed=7)
        b = random_instance(GraphClass.DAG, 8, seed=7)
        assert a == b
        c = random_instance(GraphClass.DAG, 8, seed=8)
        assert a != c

    @pytest.mark.parametrize(
        "cls,n,bound",
        [(GraphClass.TOURNAMENT, 350, 4.5e6), (GraphClass.BALANCED_DEGREE_TWO, 12_000, 3.0e6)],
        ids=["tournament", "balanced"],
    )
    def test_peak_memory(self, cls, n, bound):
        """The arcs reach the graph as two id arrays, not as pairs: 2.9 MB
        measured for the tournament (61,075 arcs) and 1.0 MB for the
        balanced graph, against 5.8 and 4.6 MB with a tuple per arc."""
        tracemalloc.start()
        try:
            inst = random_instance(cls, n, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert inst.graph.m == (n * (n - 1) // 2 if cls is GraphClass.TOURNAMENT else 2 * n)
        assert peak <= bound

    def test_budget_rules(self):
        inst = random_instance(
            GraphClass.DAG, 6, seed=1, budget_rule=("fixed", 17)
        )
        assert inst.budget == 17
        inst = random_instance(
            GraphClass.DAG, 6, seed=1, budget_rule=("fraction", 1.0)
        )
        assert inst.budget == inst.total_weight()
