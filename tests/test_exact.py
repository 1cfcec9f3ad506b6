import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    evaluate,
    random_instance,
    solve_maximal_ssg_tree,
    solve_ssg_tree,
    solve_ssgw_rooted_tree,
    solve_tournament,
    subset_sum_to_tree,
)
from dss import _kernels
from dss.cli import _solve_auto
from dss.exact import _MAXIMAL, _STRONG, _WEAK, _Bits, _Levels, _lexicographic_first
from dss.graph import is_balanced_degree_two, is_underlying_connected, mask_nodes
from dss.instance import MAX_INT
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
                assert evaluate(inst, sol.selected).feasible

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

    @staticmethod
    def _peak(inst, cap=20):
        tracemalloc.start()
        try:
            sol = brute_force(inst, cap=cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol is not None and evaluate(inst, sol.selected).feasible
        return peak

    @classmethod
    def _peak_at_cap(cls, kind):
        return cls._peak(random_instance(GraphClass.DAG, 20, seed=3, arc_prob=0.12, kind=kind))

    @pytest.mark.parametrize("kind", ProblemKind, ids=lambda k: k.value)
    def test_peak_memory_at_cap(self, kind):
        """The tables are built one block of 2^16 masks at a time: at
        n = 20 (total weight below 2^15) the low closure and weight tables
        and the block buffers take 0.45 MB, and the maximal kinds add
        three bit-packed tables of 2^20 / 8 bytes (0.47 MB measured for
        ssg and ssgw, 0.99 MB for the maximal kinds; 3.2 and 3.7 MB with
        a bool and an int16 per mask)."""
        assert self._peak_at_cap(kind) < (1.5e6 if kind.is_maximal else 0.8e6)

    @pytest.mark.parametrize("kind", ProblemKind, ids=lambda k: k.value)
    def test_peak_memory_all_tied(self, kind):
        """No arcs and zero weights: all 2^20 masks fit budget 0 and tie.
        The maximality test and the tie read the boolean blocks without an
        index array of their set entries, so the peak is that of the
        random DAG (0.46 and 0.99 MB measured; int64 index arrays once
        took ssg to 12.6 MB and maximal-ssgw to 30.4 MB)."""
        inst = make_instance(Digraph(20, []), [0] * 20, 0, kind)
        assert self._peak(inst) < (1.5e6 if kind.is_maximal else 0.8e6)

    @pytest.mark.parametrize("kind", [ProblemKind.SSG, ProblemKind.MAXIMAL_SSG], ids=lambda k: k.value)
    def test_peak_memory_past_cap(self, kind):
        """cap=24: 256 blocks.  ssg holds what it holds at n = 20 (0.49 MB
        measured); the maximal kinds hold two packed tables of 2 MB and a
        shift temporary of ``BLOCK`` words (5.3 MB measured; 6.9 MB with a
        temporary as large as the table).  Whole tables would take 50 MB."""
        inst = random_instance(GraphClass.DAG, 24, seed=3, arc_prob=0.1, kind=kind)
        assert self._peak(inst, cap=24) <= (5.6e6 if kind.is_maximal else 0.8e6)

    @pytest.mark.parametrize("case", ["empty", "full", "one", "sparse", "dense", "all"])
    def test_lexicographic_first_matches_index_rule(self, case):
        """The tie rule read off a boolean table equals the earlier rule on
        the index array of its set entries, for n = 0..14."""
        rng = np.random.default_rng(0)
        for n in range(15):
            for _ in range(3):
                size = 1 << n
                tie = np.zeros(size, dtype=np.bool_)
                if case == "empty":
                    tie[0] = True
                elif case == "full":
                    tie[size - 1] = True
                elif case == "one":
                    tie[rng.integers(size)] = True
                elif case == "all":
                    tie[:] = True
                else:
                    # Mask 0 left clear, so that the walk descends.
                    tie[1:] = rng.random(size - 1) < (0.02 if case == "sparse" else 0.7)
                    tie[rng.integers(size)] = True
                expected = oracles.lexicographic_first_oracle(np.flatnonzero(tie))
                assert _lexicographic_first(tie) == expected

    @pytest.mark.parametrize("density", [0.001, 0.05, 0.7, 1.0])
    def test_extended_walk_matches_tuple_rule(self, density):
        """With ``extended`` every tuple goes on with a node above the
        table's, so the winner is the smallest of the set masks' sorted
        tuples each followed by that node: an extension before its
        prefix, and the empty mask last.  n = 0..17 takes one to three
        steps of 8 nodes."""
        rng = np.random.default_rng(int(density * 1000))
        for n in range(18):
            tie = rng.random(1 << n) < density
            tie[rng.integers(1 << n)] = True
            masks = np.flatnonzero(tie).tolist()
            expected = min(masks, key=lambda m: tuple(mask_nodes(m)) + (n,))
            assert _lexicographic_first(tie, extended=True) == expected

    def test_cap(self):
        g = Digraph(21, [])
        inst = make_instance(g, [1] * 21, 5, ProblemKind.SSG)
        with pytest.raises(CapExceeded):
            brute_force(inst)

    def test_single_node_maximal(self):
        inst = make_instance(Digraph(1, []), [5], 4, ProblemKind.MAXIMAL_SSG)
        sol = brute_force(inst)
        assert sol.selected == frozenset() and sol.weight == 0


class TestBlockedMatchesTables:
    """``brute_force`` builds its tables one block of 2^16 masks at a time.
    The earlier brute force over whole tables
    (``oracles.brute_force_table_reference``) pins its answers, tie
    winners included, on both sides of the block boundary."""

    CLASSES = (GraphClass.DAG, GraphClass.GENERAL, GraphClass.ORIENTED_TREE, GraphClass.TOURNAMENT)

    @pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.value)
    @pytest.mark.parametrize("kind", ProblemKind, ids=lambda k: k.value)
    def test_random_instances(self, cls, kind):
        """n = 14-20 with weights up to 0, 1, 3 and 10 and budgets from 0
        to the whole expected total: zero weights tie every set."""
        rng = random.Random(f"{cls.value}/{kind.value}")
        for i, n in enumerate(range(14, 21)):
            weight_max = (0, 1, 3, 10)[i % 4]
            frac = rng.choice([0, 0.1, 0.3, 0.5, 0.8, 1])
            inst = random_instance(
                cls, n, weight_max=weight_max, budget_rule=("fraction", frac),
                seed=rng.randrange(2**31), kind=kind, arc_prob=rng.choice([0.05, 0.15, 0.3]),
            )
            assert brute_force(inst) == oracles.brute_force_table_reference(inst), (n, weight_max, frac)

    @pytest.mark.parametrize("kind", [ProblemKind.SSG, ProblemKind.SSGW], ids=lambda k: k.value)
    def test_extension_before_prefix_in_high_block(self, kind):
        """{0, 17} and {0, 3, 17} tie (node 3 weighs 0) in the block of
        {17}: the extension wins, though its low part {0, 3} comes after
        {0} on its own."""
        weights = [100] * 18
        weights[0], weights[3], weights[17] = 5, 0, 7
        inst = make_instance(Digraph(18, []), weights, 12, kind)
        expected = Solution(frozenset({0, 3, 17}), 12)
        assert brute_force(inst) == expected == oracles.brute_force_table_reference(inst)

    @pytest.mark.parametrize("kind", ProblemKind, ids=lambda k: k.value)
    def test_high_winner_across_blocks(self, kind):
        """{1}, {0, 16}, {0, 17} and {16, 17} tie at weight 2, one per
        block, and all four are maximal: {0, 16} wins, though {1} comes
        first by block and by mask value."""
        weights = [100] * 18
        weights[0], weights[1], weights[16], weights[17] = 1, 2, 1, 1
        inst = make_instance(Digraph(18, []), weights, 2, kind)
        expected = Solution(frozenset({0, 16}), 2)
        assert brute_force(inst) == expected == oracles.brute_force_table_reference(inst)

    @pytest.mark.parametrize("kind", ProblemKind, ids=lambda k: k.value)
    def test_emptied_blocks(self, kind):
        """n = 18 with arcs among the high nodes only (16 -> 17, and the
        weak rule's 17 with in-neighbour 16): whole blocks are closed to
        no mask, and the answer still matches the tables."""
        inst = make_instance(Digraph(18, [(16, 17), (0, 16), (5, 1)]), list(range(1, 19)), 40, kind)
        assert brute_force(inst) == oracles.brute_force_table_reference(inst)


def _oracle_case(seed, dag, max_n=10):
    """Seeded instance of 0..max_n nodes: a DAG over shuffled ids, or a
    digraph with a cycle through 2..n nodes so that it has a multi-node
    strongly connected component; ~25% zero weights; a budget of 0, the
    total, above it, or random."""
    rng = random.Random(seed)
    n = rng.randint(0, max_n)
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

    @pytest.mark.parametrize("dag", [True, False], ids=["dag", "general"])
    def test_wide_weights(self, dag):
        """Weights near 2^14, 2^30 or 2^62 / n put the weight tables in
        int16, int32 and int64, some totals right at a boundary, and the
        budgets 0, total and 2^63 - 1 test the cut of the budget to the
        total."""
        widths = set()
        for seed in range(150):
            g, _, _ = _oracle_case(seed, dag, max_n=8)
            rng = random.Random(seed + 10**6)
            scale = rng.choice([2**14, 2**30, 2**62 // max(g.n, 1)])
            weights = tuple(0 if rng.random() < 0.25 else scale - rng.randint(0, 2) for _ in range(g.n))
            total = sum(weights)
            widths.add(_kernels.weight_dtype(total))
            for budget in (0, total, MAX_INT, rng.randint(0, total)):
                for kind in ProblemKind:
                    inst = WeightedInstance(g, weights, budget, kind)
                    assert brute_force(inst) == oracles.brute_force_oracle(inst), (
                        f"seed {seed} budget {budget} {kind.value}"
                    )
        assert widths == {np.int16, np.int32, np.int64}


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
        assert evaluate(inst, sol.selected).feasible
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
        # The cap is tested against min(B, total weight): here 1.6 * 10^6.
        inst = make_instance(fig_a, [200_000] * 8, 10**7)
        with pytest.raises(CapExceeded, match="^budget 10000000 exceeds DP table cap 1000000$"):
            solve_ssg_tree(inst)

    def test_cap_reads_min_of_budget_and_total(self):
        """Past the cap of 10^6 in B or in the total weight, not both: no
        selection weighs more than either."""
        g = Digraph(3, [(0, 1), (1, 2)])
        for kind, solve in (
            (ProblemKind.SSG, solve_ssg_tree),
            (ProblemKind.SSGW, solve_ssgw_rooted_tree),
            (ProblemKind.MAXIMAL_SSG, solve_maximal_ssg_tree),
        ):
            for weights, budget in (([1, 2, 3], 10**7), ([600_000, 700_000, 3], 700_003)):
                inst = make_instance(g, weights, budget, kind)
                assert solve(inst) == brute_force(inst), (kind.value, budget)

    def test_maximal_whole_tree_fits_past_cap(self):
        """When every node fits, maximal-ssg answers the whole tree before
        the cap is tested: total 2 * 10^6 <= B = 3 * 10^6."""
        g = Digraph(2, [(0, 1)])
        inst = make_instance(g, [10**6, 10**6], 3 * 10**6, ProblemKind.MAXIMAL_SSG)
        sol = solve_maximal_ssg_tree(inst)
        assert sol == brute_force(inst)
        assert sol.selected == frozenset({0, 1}) and sol.weight == 2 * 10**6

    def test_structure_checked_before_cap(self):
        g = Digraph(3, [(0, 1), (1, 2), (0, 2)])
        for kind, solve in (
            (ProblemKind.SSG, solve_ssg_tree),
            (ProblemKind.SSGW, solve_ssgw_rooted_tree),
            (ProblemKind.MAXIMAL_SSG, solve_maximal_ssg_tree),
        ):
            inst = make_instance(g, [5, 7, 9], 10**7, kind)
            with pytest.raises(SolverError) as exc:
                solve(inst)
            assert not isinstance(exc.value, CapExceeded)

    def test_peak_memory_on_long_weighted_path(self):
        """One bit per DP entry: a 400-node directed path with weights
        1000 and B = 10^6 - 1 keeps every node's vectors for the
        traceback, about 8 * 10^7 bits (10 MB) per state."""
        n = 400
        g = Digraph(n, [(i, i + 1) for i in range(n - 1)])
        inst = make_instance(g, [1000] * n, 10**6 - 1)
        tracemalloc.start()
        try:
            sol = solve_ssg_tree(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.weight == 1000 * n and sol.selected == frozenset(range(n))
        assert peak < 40e6

    def test_maximal_peak_memory_on_long_weighted_path(self):
        """One bit per entry and level: a 200-node directed path with
        weights 1000 and B = 99,999 has two levels (1000 and B + 1)."""
        n = 200
        g = Digraph(n, [(i, i + 1) for i in range(n - 1)])
        inst = make_instance(g, [1000] * n, 99_999, ProblemKind.MAXIMAL_SSG)
        tracemalloc.start()
        try:
            sol = solve_maximal_ssg_tree(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The closed sets are the suffixes; the longest that fits is maximal.
        assert sol.weight == 99_000 and sol.selected == frozenset(range(101, n))
        assert peak < 20e6

    def test_random_agreement_with_brute(self):
        for seed in range(60):
            inst = _random_tree_instance(seed, cls=GraphClass.FOREST)
            sol = solve_ssg_tree(inst)
            ref = brute_force(inst)
            assert sol.weight == ref.weight, f"seed {seed}"
            assert evaluate(inst, sol.selected).feasible


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
        assert evaluate(inst, sol.selected).feasible

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
            assert evaluate(inst, sol.selected).feasible

    def test_mixed_weights_and_edge_budgets(self):
        """Weights of 0, small and above B make levels empty, equal to
        their neighbours or folded into the top level."""
        for seed in range(80):
            rng = random.Random(f"levels/{seed}")
            n = rng.randint(1, 9)
            arcs = []
            for v in range(1, n):
                u = rng.randrange(v)
                arcs.append((u, v) if rng.random() < 0.5 else (v, u))
            weights = [rng.choice([0, rng.randint(1, 4), rng.randint(50, 60)]) for _ in range(n)]
            total = sum(weights)
            for budget in sorted({0, 1, max(total - 1, 0), total, total + 1}):
                inst = make_instance(Digraph(n, arcs), weights, budget, ProblemKind.MAXIMAL_SSG)
                sol = solve_maximal_ssg_tree(inst)
                assert sol.weight == brute_force(inst).weight, f"seed {seed} budget {budget}"
                assert inst.weight_of(sol.selected) == sol.weight
                assert evaluate(inst, sol.selected).feasible


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
            assert evaluate(inst, sol.selected).feasible


def _split_by_candidate(left, pairs, views, rem):
    """The first (a, source, view) in order of a, then table order."""
    for a in range(rem + 1):
        for src, names in pairs:
            for name in names:
                if (left[src] >> a) & 1 and (views[name] >> (rem - a)) & 1:
                    return a, src, name
    return None


# (kind, traceback pairs of one state and arc direction) of every kind.
_SPLIT_PAIRS = [
    (kind, pairs)
    for kind in (_STRONG, _MAXIMAL, _WEAK)
    for trace in kind.trace.values()
    for pairs in trace
]


# Dense bitsets, and sparse ones whose few hits make the pair and view
# order decide.
_BITSETS = st.one_of(
    st.integers(0, 2**40 - 1),
    st.sets(st.integers(0, 39), max_size=4).map(lambda bits: sum(1 << b for b in bits)),
)


class TestBitSplit:
    @given(
        st.sampled_from(_SPLIT_PAIRS),
        st.lists(_BITSETS, min_size=7, max_size=7),
        st.integers(1, 40),
        st.integers(0, 45),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_per_candidate_loop(self, case, raw, size, rem):
        """Accumulators and views are lists indexed by state and view.
        Views are never longer than the accumulators (``size`` bits
        against 40), and rem may exceed both."""
        kind, pairs = case
        left = raw[: len(kind.start(0, True))]
        views = [raw[-1 - i] & ((1 << size) - 1) for i in range(len(kind.views))]
        expect = _split_by_candidate(left, pairs, views, rem)
        if expect is None:
            with pytest.raises(AssertionError):
                _Bits.split(left, pairs, views, rem, None)
        else:
            assert _Bits.split(left, pairs, views, rem, None) == expect


def _runs_of(levels):
    """Nested per-level bitsets as runs [(end, bits), ...], empty levels
    left out."""
    runs = []
    for j, bits in enumerate(levels):
        if not bits:
            break
        if runs and runs[-1][1] == bits:
            runs[-1] = (j + 1, bits)
        else:
            runs.append((j + 1, bits))
    return runs


def _levels_of(runs, count):
    """Runs back as ``count`` per-level bitsets, after checking that they
    are in the one form ``_Levels`` builds: rising ends up to ``count``,
    no empty run and no two equal neighbours."""
    ends = [end for end, _ in runs]
    assert ends == sorted(set(ends)) and all(0 < end <= count for end in ends)
    assert all(bits for _, bits in runs)
    assert all(x[1] != y[1] for x, y in zip(runs, runs[1:]))
    out, lo = [], 0
    for end, bits in runs:
        out += [bits] * (end - lo)
        lo = end
    return out + [0] * (count - lo)


def _encode_scores(ops, scores):
    """Score list (-1: unreachable) as per-level bitsets: bit i of level
    j is set iff scores[i] >= thresholds[j]."""
    return [
        sum(1 << i for i, s in enumerate(scores) if s >= t) for t in ops.thresholds
    ]


def _decode_scores(ops, levels, n):
    return [
        max((t for t, vec in zip(ops.thresholds, levels) if (vec >> i) & 1), default=-1)
        for i in range(n)
    ]


def _maxmin_reference(a, b, n):
    ref = [-1] * n
    for i in range(n):
        for j in range(min(len(b), n - i)):
            if a[i] >= 0 and b[j] >= 0:
                ref[i + j] = max(ref[i + j], min(a[i], b[j]))
    return ref


# Thresholds 0..9, then 10 for "no addable vertex".
_LEVELS = _Levels(range(10), 9)
_SCORES = st.lists(st.integers(min_value=-1, max_value=10), min_size=1, max_size=10)


class TestLevelsMerge:
    """``_Levels.merge`` is the (max, min) convolution of score vectors,
    cut to the length of ``a``."""

    def _merge(self, a, b):
        n = len(a)
        runs = [_runs_of(_encode_scores(_LEVELS, x)) for x in (a, b)]
        out = _levels_of(_LEVELS.merge(*runs, n), len(_LEVELS.thresholds))
        return _decode_scores(_LEVELS, out, n)

    def test_delta_identity(self):
        a = [10, -1, -1, -1, -1, -1]  # no addable vertex at weight 0
        b = [-1, -1, 7, -1, 3, -1]
        assert self._merge(a, b) == b

    def test_unreachable_stays_unreachable(self):
        assert self._merge([-1] * 4, [-1] * 4) == [-1] * 4

    @given(_SCORES, _SCORES)
    @settings(max_examples=80, deadline=None)
    def test_matches_reference(self, xs, ys):
        n = max(len(xs), len(ys))
        a = xs + [-1] * (n - len(xs))
        b = ys + [-1] * (n - len(ys))
        assert self._merge(a, b) == _maxmin_reference(a, b, n)

    @given(_SCORES, _SCORES)
    @settings(max_examples=80, deadline=None)
    def test_shorter_b_matches_reference(self, xs, ys):
        a, b = xs + ys, ys  # len(b) < len(a)
        assert self._merge(a, b) == _maxmin_reference(a, b, len(a))


@st.composite
def _level_cases(draw):
    """Node weights and a budget (so thresholds, some equal or above B),
    a vector length n, and five score vectors of that length as runs and
    as per-level lists, with the list-per-level reference algebra."""
    weights = draw(st.lists(st.integers(0, 14), max_size=7))
    budget = draw(st.integers(0, 12))
    n = draw(st.integers(1, 12))
    ops, ref = _Levels(weights, budget), oracles.LevelsReference(weights, budget)
    scores = st.lists(st.integers(-1, budget + 1), min_size=n, max_size=n)
    levels = [_encode_scores(ops, draw(scores)) for _ in range(5)]
    return ops, ref, n, levels, [_runs_of(x) for x in levels]


class TestLevelRuns:
    """The run-length ``_Levels`` decodes to the same per-level lists as
    ``oracles.LevelsReference``, the list-per-level algebra it replaced,
    and reads one level for ``split``."""

    @given(_level_cases())
    @settings(max_examples=200, deadline=None)
    def test_merge(self, case):
        ops, ref, n, levels, runs = case
        count = len(ops.thresholds)
        for i in range(4):
            got = ops.merge(runs[i], runs[i + 1], n)
            assert _levels_of(got, count) == ref.merge(levels[i], levels[i + 1], n)

    @given(_level_cases(), st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_join(self, case, k):
        ops, ref, n, levels, runs = case
        assert _levels_of(ops.join(runs[:k]), len(ops.thresholds)) == ref.join(levels[:k])

    @given(_level_cases(), st.integers(0, 16))
    @settings(max_examples=200, deadline=None)
    def test_addable(self, case, w):
        ops, ref, n, levels, runs = case
        for vec, runs_vec in zip(levels, runs):
            got = ops.addable(runs_vec, w)
            assert _levels_of(got, len(ops.thresholds)) == ref.addable(vec, w)

    @given(_level_cases())
    @settings(max_examples=200, deadline=None)
    def test_best(self, case):
        ops, ref, n, levels, runs = case
        budget = ops.thresholds[-1] - 1
        for vec, runs_vec in zip(levels, runs):
            try:
                expect = ref.best(vec, budget)
            except ValueError:  # no weight at which the score exceeds B - b
                with pytest.raises(ValueError):
                    ops.best(runs_vec, budget)
            else:
                assert ops.best(runs_vec, budget) == expect

    @given(_level_cases(), st.sampled_from(list(_MAXIMAL.trace.values())), st.data())
    @settings(max_examples=200, deadline=None)
    def test_split_reads_one_level(self, case, trace, data):
        ops, ref, n, levels, runs = case
        pairs = data.draw(st.sampled_from(trace))
        level = data.draw(st.integers(0, len(ops.thresholds) - 1))
        rem = data.draw(st.integers(0, 2 * n))
        left, views = runs[:3], [runs[3], runs[4], ops.addable(runs[3], 3), runs[0]]
        flat = [_levels_of(x, len(ops.thresholds))[level] for x in left + views]
        try:
            expect = _Bits.split(flat[:3], pairs, flat[3:], rem, None)
        except AssertionError:
            with pytest.raises(AssertionError):
                ops.split(left, pairs, views, rem, level)
        else:
            assert ops.split(left, pairs, views, rem, level) == expect


@pytest.mark.parametrize(
    "solve,own,cls",
    [
        (solve_ssg_tree, ProblemKind.SSG, GraphClass.ORIENTED_TREE),
        (solve_maximal_ssg_tree, ProblemKind.MAXIMAL_SSG, GraphClass.ORIENTED_TREE),
        (solve_ssgw_rooted_tree, ProblemKind.SSGW, GraphClass.OUT_ROOTED_TREE),
        (solve_ssgw_rooted_tree, ProblemKind.SSGW, GraphClass.IN_ROOTED_TREE),
    ],
    ids=["ssg", "maximal-ssg", "ssgw-out", "ssgw-in"],
)
@pytest.mark.parametrize("kind", list(ProblemKind), ids=lambda k: k.value)
def test_tree_dp_refuses_other_kinds(solve, own, cls, kind):
    """A tree DP answers its own kind, as brute force does, and refuses
    the others rather than return the optimum of another problem."""
    for seed in (3, 4):
        inst = random_instance(cls, 12, seed=seed, kind=kind)
        if kind is own:
            assert solve(inst).weight == brute_force(inst).weight
        else:
            with pytest.raises(SolverError):
                solve(inst)


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
        assert evaluate(inst, sol.selected).feasible

    def test_ssgw_out_rooted_path(self):
        inst = deep_path_instance(ProblemKind.SSGW, self.N, 7)
        sol = solve_ssgw_rooted_tree(inst)
        assert inst.weight_of(sol.selected) == sol.weight
        assert evaluate(inst, sol.selected).feasible

    def test_maximal_oriented_path(self):
        inst = deep_path_instance(ProblemKind.MAXIMAL_SSG, self.N, 7)
        sol = solve_maximal_ssg_tree(inst)
        assert inst.weight_of(sol.selected) == sol.weight
        assert evaluate(inst, sol.selected).feasible


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


def _random_tournament_case(rng: random.Random) -> WeightedInstance:
    """A tournament on up to 40 nodes, sometimes with one arc dropped (a
    non-tournament, unless the pair lies in one strong component), under
    any of the four kinds.  Nodes are ranked in blocks: arcs run down the
    ranks between blocks and either way inside one, so blocks of one node
    give an acyclic tournament and larger ones cyclic components."""
    n = rng.randint(0, 40)
    rank = rng.sample(range(n), n)
    block = rng.choice([1, 1, 2, 3, 5, 8, max(n, 1)])

    def forward(u: int, v: int) -> bool:
        if block > 1 and rank[u] // block == rank[v] // block:
            return rng.random() < 0.5
        return rank[u] < rank[v]

    arcs = [(u, v) if forward(u, v) else (v, u) for u in range(n) for v in range(u + 1, n)]
    if arcs and rng.random() < 0.2:
        arcs.pop(rng.randrange(len(arcs)))
    weight_max = rng.choice([0, 1, 3, 10, 1000])
    weights = [rng.randint(0, weight_max) for _ in range(n)]
    budget = rng.randint(0, sum(weights) + 1)
    kind = rng.choice([ProblemKind.SSG, ProblemKind.MAXIMAL_SSG] * 4 + list(ProblemKind))
    return make_instance(Digraph(n, arcs), weights, budget, kind)


def _outcome(solve, inst):
    try:
        return solve(inst)
    except SolverError as exc:
        return str(exc)


class TestTournamentOracle:
    """``solve_tournament`` against the two-scan suffix rule it replaced."""

    def test_random_cases(self):
        rng = random.Random(2016)
        for _ in range(1200):
            inst = _random_tournament_case(rng)
            assert _outcome(solve_tournament, inst) == _outcome(oracles.tournament_oracle, inst)

    @pytest.mark.parametrize("cyclic", [False, True])
    def test_zero_budget_zero_weights(self, cyclic):
        arcs = [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3)]
        if cyclic:
            arcs[2] = (2, 0)
        g = Digraph(4, arcs)
        ssg = make_instance(g, [0] * 4, 0)
        maximal = make_instance(g, [0] * 4, 0, ProblemKind.MAXIMAL_SSG)
        assert solve_tournament(ssg) == Solution(frozenset(), 0) == oracles.tournament_oracle(ssg)
        every = Solution(frozenset(range(4)), 0)
        assert solve_tournament(maximal) == every == oracles.tournament_oracle(maximal)

    @pytest.mark.parametrize("budget", [1, 2, 5])
    @pytest.mark.parametrize("kind", [ProblemKind.SSG, ProblemKind.MAXIMAL_SSG])
    def test_zero_weight_top_component(self, kind, budget):
        # The 3-cycle {0, 1, 2} weighs 0 and beats node 3 of weight 2.
        g = Digraph(4, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)])
        inst = make_instance(g, [0, 0, 0, 2], budget, kind)
        sol = solve_tournament(inst)
        assert sol == oracles.tournament_oracle(inst)
        if budget >= 2:
            assert sol == Solution(frozenset(range(4)), 2)
        else:
            assert sol == Solution(frozenset(), 0)


class TestBalancedDegreeTwo:
    """A connected digraph with every in- and out-degree 2 is strongly
    connected, so the tournament rule answers it exactly, and ``auto``
    reaches that row before the PTAS and brute force."""

    STRONG = (ProblemKind.SSG, ProblemKind.MAXIMAL_SSG)

    @staticmethod
    def _permutation_union(rng, n):
        # Arcs v -> p(v) and v -> q(v) give every node in- and out-degree
        # 2; draw again until there is no loop or repeated arc and the
        # graph is connected.
        nodes = list(range(n))
        while True:
            p, q = rng.sample(nodes, n), rng.sample(nodes, n)
            if any(v in (p[v], q[v]) or p[v] == q[v] for v in nodes):
                continue
            g = Digraph(n, [(v, p[v]) for v in nodes] + [(v, q[v]) for v in nodes])
            if is_underlying_connected(g):
                return g

    def _check(self, inst):
        assert is_balanced_degree_two(inst.graph)
        expected = brute_force(inst)
        assert solve_tournament(inst) == expected
        assert _solve_auto(inst, 2) == expected

    @pytest.mark.parametrize("weight_max", [0, 1, 3, 10])
    @pytest.mark.parametrize("kind", STRONG, ids=lambda k: k.value)
    def test_circulants_match_brute(self, kind, weight_max):
        for seed in range(100):
            rng = random.Random(seed)
            inst = random_instance(
                GraphClass.BALANCED_DEGREE_TWO, 3 + seed % 10, weight_max=weight_max,
                budget_rule=("fraction", rng.choice([0.0, 0.3, 0.5, 0.8, 1.0])),
                seed=seed, kind=kind,
            )
            self._check(inst)

    @pytest.mark.parametrize("weight_max", [0, 1, 3, 10])
    @pytest.mark.parametrize("kind", STRONG, ids=lambda k: k.value)
    def test_permutation_unions_match_brute(self, kind, weight_max):
        for seed in range(100):
            rng = random.Random(seed)
            n = 3 + seed % 10
            weights = [rng.randint(0, weight_max) for _ in range(n)]
            budget = rng.randint(0, sum(weights) + 1)
            self._check(make_instance(self._permutation_union(rng, n), weights, budget, kind))
