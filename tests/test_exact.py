import random

import pytest
from hypothesis import given, settings

import oracles
from conftest import deep_path_instance, make_instance

from dss import (
    CapExceeded,
    Digraph,
    GraphClass,
    ProblemKind,
    Solution,
    SolverError,
    WeightedInstance,
    brute_force,
    is_feasible,
    random_instance,
    solve_balanced_degree_two,
    solve_maximal_ssg_tree,
    solve_ssg_tree,
    solve_ssgw_rooted_tree,
    solve_tournament,
    subset_sum_to_tree,
    verify_solution,
)
from test_graph import digraphs


def _random_tree_instance(seed, kind=ProblemKind.SSG, cls=GraphClass.ORIENTED_TREE):
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    return random_instance(
        cls, n, weight_max=8, budget_rule=("fraction", rng.choice([0.3, 0.5, 0.8])),
        seed=seed, kind=kind,
    )


class TestBruteForce:
    @given(digraphs())
    @settings(max_examples=40, deadline=None)
    def test_matches_literal_enumeration(self, g):
        if g.n > 7:
            return
        weights = [(v * 5) % 6 + 1 for v in range(g.n)]
        budget = sum(weights) * 2 // 3
        for kind in ProblemKind:
            inst = WeightedInstance(g, tuple(weights), budget, kind)
            sol = brute_force(inst)
            expected = oracles.optimum(g.n, g.arcs, weights, budget, kind.value)
            if expected is None:
                assert sol is None
            else:
                assert sol is not None and sol.weight == expected
                assert verify_solution(inst, sol).feasible

    def test_tie_break_lexicographic(self):
        g = Digraph(2, [])
        inst = make_instance(g, [3, 3], 3, ProblemKind.SSG)
        sol = brute_force(inst)
        assert sol.selected == frozenset({0})

    @pytest.mark.parametrize("kind", ProblemKind, ids=lambda k: k.value)
    def test_tie_break_over_every_subset(self, kind):
        # No arcs and zero weights: all 2^20 sets tie.  The empty set wins
        # the maximization; only the full set is maximal.
        inst = make_instance(Digraph(20, []), [0] * 20, 0, kind)
        expected = frozenset(range(20)) if kind.is_maximal else frozenset()
        assert brute_force(inst) == Solution(expected, 0)

    def test_cap(self):
        g = Digraph(21, [])
        inst = make_instance(g, [1] * 21, 5, ProblemKind.SSG)
        with pytest.raises(CapExceeded):
            brute_force(inst)

    def test_single_node_maximal(self):
        inst = make_instance(Digraph(1, []), [5], 4, ProblemKind.MAXIMAL_SSG)
        sol = brute_force(inst)
        assert sol.selected == frozenset() and sol.weight == 0


def _oracle_case(seed, dag):
    """Seeded instance of 0..10 nodes: a DAG over shuffled ids, or a
    digraph with a cycle through 2..n nodes so that it has a multi-node
    strongly connected component; ~25% zero weights; a budget of 0, the
    total, above it, or random."""
    rng = random.Random(seed)
    n = rng.randint(0, 10)
    p = rng.uniform(0.05, 0.5)
    order = list(range(n))
    rng.shuffle(order)
    arcs = {
        (order[i], order[j])
        for i in range(n)
        for j in range(n)
        if (i < j or (not dag and i != j)) and rng.random() < p
    }
    if not dag and n >= 2:
        ring = rng.sample(range(n), rng.randint(2, n))
        arcs |= set(zip(ring, ring[1:] + ring[:1]))
    weights = [0 if rng.random() < 0.25 else rng.randint(1, 9) for _ in range(n)]
    total = sum(weights)
    budget = rng.choice([0, total, total + 1, rng.randint(0, total)])
    return Digraph(n, sorted(arcs)), tuple(weights), budget


class TestMatchesSetOracle:
    """``brute_force`` equals a set-by-set run of the checker's closure and
    maximality predicates, tie-break included."""

    @pytest.mark.parametrize("dag", [True, False], ids=["dag", "general"])
    def test_random_instances(self, dag):
        for seed in range(600):
            g, weights, budget = _oracle_case(seed, dag)
            for kind in ProblemKind:
                inst = WeightedInstance(g, weights, budget, kind)
                assert brute_force(inst) == oracles.brute_force_oracle(inst), (
                    f"seed {seed} {kind.value}"
                )


class TestForestDP:
    def test_subset_sum_star(self):
        inst, _ = subset_sum_to_tree([3, 5, 7], 8)
        assert solve_ssg_tree(inst).weight == 8

    def test_worked_tree_unit_weights(self, fig_a):
        inst = make_instance(fig_a, [1] * 8, 3)
        assert solve_ssg_tree(inst).weight == 3

    def test_solution_is_feasible(self, fig_a):
        inst = make_instance(fig_a, [2, 1, 4, 3, 1, 2, 5, 1], 7)
        sol = solve_ssg_tree(inst)
        assert is_feasible(inst, sol.selected)
        assert inst.weight_of(sol.selected) == sol.weight

    def test_forest_input(self):
        g = Digraph(4, [(0, 1), (2, 3)])
        inst = make_instance(g, [2, 3, 4, 5], 8)
        assert solve_ssg_tree(inst).weight == 8  # {0,1} sum 5 no; {2,3}? 9 no
        # reachable sums: 0, {1}=3, {0,1}=5, {3}=5, {2,3}=9, 3+5=8 ...
        sol = solve_ssg_tree(inst)
        assert sol.selected == frozenset({1, 3})

    def test_rejects_non_forest(self):
        g = Digraph(3, [(0, 1), (1, 2), (2, 0)])
        inst = make_instance(g, [1, 1, 1], 2)
        with pytest.raises(SolverError):
            solve_ssg_tree(inst)

    def test_budget_cap(self, fig_a):
        inst = make_instance(fig_a, [1] * 8, 10**7)
        with pytest.raises(CapExceeded):
            solve_ssg_tree(inst)

    def test_random_agreement_with_brute(self):
        for seed in range(60):
            inst = _random_tree_instance(seed, cls=GraphClass.FOREST)
            sol = solve_ssg_tree(inst)
            ref = brute_force(inst)
            assert sol.weight == ref.weight, f"seed {seed}"
            assert is_feasible(inst, sol.selected)


class TestMaximalTreeDP:
    def test_whole_tree_when_budget_large(self, fig_b):
        inst = make_instance(fig_b, [1] * 8, 100, ProblemKind.MAXIMAL_SSG)
        sol = solve_maximal_ssg_tree(inst)
        assert sol.selected == frozenset(range(8))

    def test_worked_tree_near_total_budget(self, fig_b):
        # B = w(V) - 1: must drop at least one node, so weight is 12..14.
        inst = make_instance(
            fig_b, (1, 1, 2, 2, 1, 3, 2, 3), 14, ProblemKind.MAXIMAL_SSG
        )
        sol = solve_maximal_ssg_tree(inst)
        ref = brute_force(inst)
        assert sol.weight == ref.weight
        assert 12 <= sol.weight <= 14
        assert verify_solution(inst, sol).feasible

    def test_rejects_forest(self):
        g = Digraph(4, [(0, 1), (2, 3)])
        inst = make_instance(g, [1] * 4, 2, ProblemKind.MAXIMAL_SSG)
        with pytest.raises(SolverError):
            solve_maximal_ssg_tree(inst)

    def test_random_agreement_with_brute(self):
        for seed in range(60):
            inst = _random_tree_instance(seed, kind=ProblemKind.MAXIMAL_SSG)
            sol = solve_maximal_ssg_tree(inst)
            ref = brute_force(inst)
            assert sol.weight == ref.weight, f"seed {seed}"
            assert verify_solution(inst, sol).feasible


class TestWeakTreeDP:
    def test_in_rooted_delegates(self):
        g = Digraph(3, [(0, 1), (0, 2)])
        inst = make_instance(g, [1, 2, 3], 5, ProblemKind.SSGW)
        sol = solve_ssgw_rooted_tree(inst)
        assert sol.weight == brute_force(inst).weight

    def test_out_rooted_star(self):
        inst, _ = subset_sum_to_tree([3, 5, 7], 8, ProblemKind.SSGW)
        assert solve_ssgw_rooted_tree(inst).weight == 8

    def test_rejects_unrooted_tree(self, fig_a):
        inst = make_instance(fig_a, [1] * 8, 3, ProblemKind.SSGW)
        with pytest.raises(SolverError):
            solve_ssgw_rooted_tree(inst)

    @pytest.mark.parametrize(
        "cls", [GraphClass.OUT_ROOTED_TREE, GraphClass.IN_ROOTED_TREE]
    )
    def test_random_agreement_with_brute(self, cls):
        for seed in range(60):
            inst = _random_tree_instance(seed, kind=ProblemKind.SSGW, cls=cls)
            sol = solve_ssgw_rooted_tree(inst)
            ref = brute_force(inst)
            assert sol.weight == ref.weight, f"seed {seed}"
            assert is_feasible(inst, sol.selected)


class TestDeepTrees:
    """The tree DPs build and read witnesses without recursion."""

    N = 10**5

    def test_ssg_directed_path(self):
        inst = deep_path_instance(ProblemKind.SSG, self.N, 7)
        sol = solve_ssg_tree(inst)
        # The closed sets of a forward path are its suffixes.
        suffixes = [0]
        for w in reversed(inst.weights):
            suffixes.append(suffixes[-1] + w)
        assert sol.weight == max(s for s in suffixes if s <= inst.budget)
        assert is_feasible(inst, sol.selected)

    def test_ssgw_out_rooted_path(self):
        inst = deep_path_instance(ProblemKind.SSGW, self.N, 7)
        sol = solve_ssgw_rooted_tree(inst)
        assert inst.weight_of(sol.selected) == sol.weight
        assert is_feasible(inst, sol.selected)

    def test_maximal_oriented_path(self):
        inst = deep_path_instance(ProblemKind.MAXIMAL_SSG, self.N, 7)
        sol = solve_maximal_ssg_tree(inst)
        assert inst.weight_of(sol.selected) == sol.weight
        assert verify_solution(inst, sol).feasible


class TestTournament:
    def test_acyclic_tournament_suffixes(self):
        g = Digraph(3, [(0, 1), (0, 2), (1, 2)])
        inst = make_instance(g, [5, 3, 2], 5)
        sol = solve_tournament(inst)
        assert sol.weight == 5 and sol.selected == frozenset({1, 2})

    def test_cyclic_tournament_condenses(self):
        # 3-cycle beats node 3: the cycle condenses to one component.
        g = Digraph(4, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)])
        inst = make_instance(g, [1, 1, 1, 2], 2)
        sol = solve_tournament(inst)
        assert sol.selected == frozenset({3}) and sol.weight == 2

    def test_maximal_longest_fitting_suffix(self):
        g = Digraph(3, [(0, 1), (0, 2), (1, 2)])
        inst = make_instance(g, [5, 3, 2], 5, ProblemKind.MAXIMAL_SSG)
        sol = solve_tournament(inst)
        assert sol.selected == frozenset({1, 2}) and sol.weight == 5

    def test_budget_zero(self):
        g = Digraph(2, [(0, 1)])
        inst = make_instance(g, [1, 1], 0, ProblemKind.MAXIMAL_SSG)
        sol = solve_tournament(inst)
        assert sol.selected == frozenset()

    def test_rejects_weak_kind(self):
        g = Digraph(2, [(0, 1)])
        inst = make_instance(g, [1, 1], 1, ProblemKind.SSGW)
        with pytest.raises(SolverError):
            solve_tournament(inst)

    def test_rejects_non_tournament(self, fig_a):
        inst = make_instance(fig_a, [1] * 8, 3)
        with pytest.raises(SolverError):
            solve_tournament(inst)

    def test_random_agreement_with_brute(self):
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.randint(1, 8)
            kind = rng.choice([ProblemKind.SSG, ProblemKind.MAXIMAL_SSG])
            inst = random_instance(
                GraphClass.TOURNAMENT, n, seed=seed, kind=kind
            )
            assert solve_tournament(inst).weight == brute_force(inst).weight


class TestBalancedDegreeTwo:
    def _instance(self, n, weights, budget, kind=ProblemKind.SSG):
        arcs = [(i, (i + 1) % n) for i in range(n)] + [
            (i, (i + 2) % n) for i in range(n)
        ]
        return make_instance(Digraph(n, arcs), weights, budget, kind)

    def test_all_or_nothing(self):
        inst = self._instance(5, [1] * 5, 4)
        assert solve_balanced_degree_two(inst).selected == frozenset()
        inst = self._instance(5, [1] * 5, 5)
        assert solve_balanced_degree_two(inst).selected == frozenset(range(5))

    def test_matches_brute(self):
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.randint(3, 8)
            inst = random_instance(
                GraphClass.BALANCED_DEGREE_TWO, n, seed=seed
            )
            assert (
                solve_balanced_degree_two(inst).weight
                == brute_force(inst).weight
            )

    def test_rejects_unbalanced(self, fig_a):
        inst = make_instance(fig_a, [1] * 8, 3)
        with pytest.raises(SolverError):
            solve_balanced_degree_two(inst)
