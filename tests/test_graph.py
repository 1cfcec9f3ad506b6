import gc
import itertools
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import FIG_A_ARCS, FIG_B_ARCS, FIG_B_WEIGHTS

from dss import (
    Digraph,
    GraphClass,
    GraphError,
    ProblemKind,
    Solution,
    SolverError,
    WeightedInstance,
    classify,
    condense,
    evaluate,
    exact,
    is_dag,
    random_instance,
)
from dss import graph as graph_module
from dss.approx import _Reach
from dss.cli import SOLVERS, _solve_auto
from dss.constraints import check_digraph_closure
from dss.graph import (
    _strongly_connected_components,
    _topological_order,
    is_balanced_degree_two,
    is_in_rooted_tree,
    is_out_rooted_tree,
    is_tournament,
    is_underlying_connected,
    is_underlying_forest,
    is_underlying_tree,
    mask_nodes,
    neighbour_masks,
)

# The adjacency slots of a ``Digraph``, set on first read.
CSR_SLOTS = ("out_ptr", "in_ptr", "in_tail")


def random_digraph(draw, max_n=8, min_n=1):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return Digraph(n, arcs)


digraphs = st.composite(random_digraph)


def groups_of(cond) -> tuple:
    """Each component's nodes, sorted, in component order, grouped from
    ``cond.component_of``."""
    groups: list[list[int]] = [[] for _ in range(cond.dag.n)]
    for v, c in enumerate(cond.component_of):
        groups[c].append(v)
    return tuple(map(tuple, groups))


@st.composite
def structured_digraphs(draw):
    """Random digraphs from n = 0, and the shapes they rarely hit: DAGs,
    oriented forests and trees (rooted or not), tournaments and near
    tournaments, graphs with every in- and out-degree 2, and graphs with
    every out-degree 2."""
    n = draw(st.integers(min_value=0, max_value=9))
    perm = draw(st.permutations(range(n)))
    shape = draw(st.sampled_from(
        ["any", "dag", "forest", "tree", "out-tree", "in-tree", "tournament", "balanced", "out-degree-two"]
    ))
    if shape == "any" or n == 0:
        return draw(digraphs(max_n=9, min_n=0))
    flips = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    if shape == "dag":
        arcs = [(u, v) for (u, v), f in zip(itertools.permutations(range(n), 2), flips) if u < v and f]
    elif shape == "tournament":
        arcs = [(u, v) if f else (v, u) for (u, v), f in zip(itertools.combinations(range(n), 2), flips)]
        if len(arcs) > 1 and flips[-1]:
            arcs[0] = arcs[1][::-1]  # one pair holds both arcs, another none
    elif shape == "balanced":
        arcs = [(i, (i + s) % n) for i in range(n) for s in (1, 2)] if n >= 3 else []
    elif shape == "out-degree-two":
        arcs = [(u, v) for u in range(n) for v in draw(st.sets(
            st.sampled_from([x for x in range(n) if x != u]), min_size=2, max_size=2))] if n >= 3 else []
    else:
        # Node i hangs below a smaller node; a forest drops some links.
        parents = [draw(st.integers(min_value=0, max_value=i - 1)) for i in range(1, n)]
        arcs = [(i, j) for i, j in zip(range(1, n), parents) if shape != "forest" or flips[i]]
        if shape == "in-tree":
            arcs = [(j, i) for i, j in arcs]
        elif shape in ("tree", "forest"):
            arcs = [(i, j) if flips[-i] else (j, i) for i, j in arcs]
    return Digraph(n, [(perm[u], perm[v]) for u, v in arcs])


class TestDigraph:
    def test_rejects_loop(self):
        with pytest.raises(GraphError):
            Digraph(2, [(0, 0)])

    def test_rejects_duplicate_arc(self):
        with pytest.raises(GraphError):
            Digraph(2, [(0, 1), (0, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            Digraph(2, [(0, 2)])

    def test_adjacency(self):
        g = Digraph(3, [(0, 1), (2, 1)])
        assert g.out_ptr.tolist() == [0, 1, 1, 2] and g.head.tolist() == [1, 1]
        assert g.in_ptr.tolist() == [0, 0, 2, 2] and g.in_tail.tolist() == [0, 2]

    def test_hashable_equality(self):
        a = Digraph(3, [(0, 1)])
        b = Digraph(3, [(0, 1)])
        assert a == b and hash(a) == hash(b)

    @staticmethod
    def assert_same(got, ref):
        assert got.n == ref.n and got.arcs == ref.arcs
        for name in ("out_ptr", "in_ptr", "in_tail"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name
            assert getattr(got, name).dtype == np.int64, name
        assert got == ref and hash(got) == hash(ref)

    @given(digraphs(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_constructor(self, g, data):
        arcs = data.draw(st.permutations(g.arcs))
        self.assert_same(Digraph(g.n, arcs), oracles.reference_digraph(g.n, arcs))

    @pytest.mark.parametrize(
        "n,arcs",
        [(0, []), (1, []), (5, [(3, 1)]), (6, [(5, 0), (0, 5), (2, 4)])],
        ids=["empty", "one-node", "isolated-nodes", "isolated-and-opposite"],
    )
    def test_small_graphs_match_reference(self, n, arcs):
        g = Digraph(n, iter(arcs))
        self.assert_same(g, oracles.reference_digraph(n, arcs))
        assert len(g.out_ptr) == len(g.in_ptr) == n + 1

    @pytest.mark.parametrize(
        "n,arcs,message",
        [
            (-1, [], "node count must be nonnegative"),
            (3, [(2, 2), (0, 1), (0, 1)], "duplicate arc"),
            (3, [(0, 5), (1, 0), (1, 0)], "duplicate arc"),
            (3, [(2, 2), (1, 7)], "arc (1,7) out of range for n=3"),
            (3, [(1, 7), (0, 0)], "loop at node 0"),
            (3, [(0, 1), (-1, 2)], "arc (-1,2) out of range for n=3"),
            (0, [(0, 0)], "arc (0,0) out of range for n=0"),
            (3, [(2**70, 0)], f"arc ({2**70},0) out of range for n=3"),
            (3, [(-(2**70), 0), (1, 1)], f"arc ({-(2**70)},0) out of range for n=3"),
        ],
        ids=[
            "negative-n", "duplicate-before-loop", "duplicate-before-range",
            "range-first-in-order", "loop-first-in-order", "negative-id", "n0",
            "beyond-int64", "below-int64",
        ],
    )
    def test_errors_and_their_precedence(self, n, arcs, message):
        # ``Digraph`` reads a list or a tuple in place and copies an
        # iterator, which ``_arc_error`` reads again.
        for wrap in (list, tuple, iter):
            for build in (Digraph, oracles.reference_digraph):
                with pytest.raises(GraphError) as exc:
                    build(n, wrap(arcs))
                assert str(exc.value) == message

    @pytest.mark.parametrize(
        "arcs",
        [[(0.5, 1)], [(0, 1.0)], [("1", 2)], [(None, 1)], [(0, 1, 2)], [(1,)],
         [(0, 1, 2), (1,)], [3]],
        ids=["float", "integral-float", "string", "none", "triple", "single",
             "misaligned", "not-a-pair"],
    )
    def test_rejects_non_integer_ids(self, arcs):
        with pytest.raises(GraphError) as exc:
            Digraph(3, arcs)
        assert str(exc.value) == "arcs must be pairs of integer node ids"

    def test_peak_memory_within_reference(self):
        """The caller's list is read in place into two id arrays, sorted as
        one code array, and no adjacency is built until it is read: 1.92 MB
        on about 60k arcs, against 4.47 MB for the set and sort of tuples
        with its adjacency (3.51 MB before the reference also filled the
        id arrays)."""
        n = 347
        order = list(range(n))
        random.Random(7).shuffle(order)
        arcs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
        random.Random(8).shuffle(arcs)
        peaks = []
        for build in (oracles.reference_digraph, Digraph):
            tracemalloc.start()
            try:
                g = build(n, arcs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            del g
        assert len(arcs) == 60031
        assert peaks[1] <= 0.6 * peaks[0]


class TestArrayFacts:
    """The facts ``graph`` reads off the sorted arc arrays (degree counts,
    sorted arc codes, one boolean gather, ``np.unique`` of component
    codes) against their adjacency-based definitions in ``oracles``."""

    @given(structured_digraphs())
    @settings(max_examples=400, deadline=None)
    def test_predicates_and_classify(self, g):
        assert is_tournament(g) == oracles.is_tournament_oracle(g.n, g.arcs)
        assert is_balanced_degree_two(g) == oracles.is_balanced_degree_two_oracle(g)
        tree = oracles.underlying_tree_oracle(g)
        assert is_underlying_forest(g) == oracles.underlying_forest_oracle(g)
        assert is_underlying_connected(g) == oracles.underlying_connected_oracle(g)
        assert is_underlying_tree(g) == tree
        assert is_out_rooted_tree(g) == (g.n > 0 and tree and oracles.out_degrees_at_most_one(g))
        assert is_in_rooted_tree(g) == (g.n > 0 and tree and oracles.in_degrees_at_most_one(g))
        assert classify(g) == oracles.classify_oracle(g)

    @given(structured_digraphs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_closure_witness(self, g, data):
        s = data.draw(st.sets(st.integers(min_value=0, max_value=max(g.n - 1, 0)))) if g.n else set()
        assert check_digraph_closure(g, s) == oracles.closure_witness_oracle(g, s)

    @given(structured_digraphs())
    @settings(max_examples=200, deadline=None)
    def test_condensation(self, g):
        cond = condense(g, range(g.n))
        dag_arcs, component_of, expected = oracles.condensation_oracle(g)
        assert (cond.dag.n, cond.dag.arcs) == (len(expected), dag_arcs)
        assert tuple(cond.component_of) == component_of and groups_of(cond) == expected
        assert cond.component_weight == tuple(map(sum, expected))

    @given(structured_digraphs())
    @settings(max_examples=300, deadline=None)
    def test_pearce_components(self, g):
        """Pearce's search gives the components of mutual reachability,
        numbered 0..k-1 in the order they complete: an arc between two
        components runs from the later to the earlier."""
        comp, k = _strongly_connected_components(g)
        groups = [frozenset(np.flatnonzero(comp == c).tolist()) for c in range(k)]
        assert all(groups) and set(groups) == set(oracles.scc_oracle(g.n, g.arcs))
        assert all(comp[u] >= comp[v] for u, v in g.arcs)

    @pytest.mark.parametrize(
        "n,arcs",
        [(6, [(0, 5), (5, 0)]), (5, [(4, 1), (1, 4), (2, 3), (3, 2), (0, 2)]), (7, [(6, 2), (2, 6), (3, 5), (1, 3)])],
    )
    def test_condensation_ties_by_smallest_member(self, n, arcs):
        g = Digraph(n, arcs)
        cond = condense(g, [0] * n)
        dag_arcs, component_of, expected = oracles.condensation_oracle(g)
        assert (cond.dag.arcs, cond.component_of, groups_of(cond)) == (dag_arcs, component_of, expected)

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_no_arcs(self, n):
        g = Digraph(n, [])
        assert g.m == 0 and g.tail.shape == g.head.shape == (0,) and g.arcs == ()
        assert classify(g) == oracles.classify_oracle(g)
        assert check_digraph_closure(g, set(range(n))) is None
        cond = condense(g, [1] * n)
        assert cond.dag is g and groups_of(cond) == tuple((v,) for v in range(n))

    def test_arrays_are_sorted_and_read_only(self):
        g = Digraph(4, [(3, 0), (1, 2), (1, 0), (0, 3)])
        assert g.tail.tolist() == [0, 1, 1, 3] and g.head.tolist() == [3, 0, 2, 0]
        assert g.tail.dtype == g.head.dtype == np.int64
        with pytest.raises(ValueError):
            g.tail[0] = 2

    def test_adjacency_is_built_on_first_read(self):
        """The CSR slots are empty until read; the in-neighbour pair is
        built together and kept, read-only; ``arcs`` is never kept."""
        g = Digraph(3, [(0, 1), (2, 1)])
        for name in CSR_SLOTS:
            with pytest.raises(AttributeError):
                object.__getattribute__(g, name)
        assert g.in_tail.tolist() == [0, 2]
        for name in ("in_ptr", "in_tail"):
            assert object.__getattribute__(g, name) is getattr(g, name)
            with pytest.raises(ValueError):
                getattr(g, name)[0] = 1
        with pytest.raises(AttributeError):
            object.__getattribute__(g, "out_ptr")
        assert g.out_ptr.tolist() == [0, 1, 1, 2]
        assert object.__getattribute__(g, "out_ptr") is g.out_ptr
        assert g.arcs == ((0, 1), (2, 1)) and g.arcs is not g.arcs
        assert "arcs" not in Digraph.__slots__
        for name in ("no_such_slot", "out_adj", "in_adj"):
            with pytest.raises(AttributeError):
                getattr(g, name)

    def test_union_find_builds_no_adjacency(self):
        g = Digraph(6, [(0, 1), (2, 1), (3, 4), (4, 3)])
        assert not is_underlying_forest(g) and not is_underlying_connected(g)
        assert is_underlying_connected(Digraph(3, [(2, 0), (1, 2)]))
        for name in CSR_SLOTS:
            with pytest.raises(AttributeError):
                object.__getattribute__(g, name)

    def test_from_ids_matches_pairs(self):
        arcs = [(4, 0), (0, 2), (3, 1), (2, 4)]
        g = Digraph.from_ids(5, [u for u, _ in arcs], np.array([v for _, v in arcs]))
        TestDigraph.assert_same(g, oracles.reference_digraph(5, arcs))
        with pytest.raises(GraphError, match="duplicate arc"):
            Digraph.from_ids(3, [0, 1, 0], [1, 2, 1])
        with pytest.raises(GraphError, match=r"arc \(1,3\) out of range for n=3"):
            Digraph.from_ids(3, [0, 1], [1, 3])


def _reach(g: Digraph) -> _Reach:
    return _Reach(g, _topological_order(g), [1] * g.n)


class TestReachability:
    """Neighbour masks from ``graph`` and the descendant and strict
    ancestor masks the PTAS derives from them."""

    def test_descendants_worked_tree(self, fig_a):
        # desc({v3}) on the first worked tree.
        assert set(mask_nodes(_reach(fig_a).desc[2])) == {2, 0, 5, 1, 3}

    def test_ascendants_worked_tree(self, fig_b):
        # asc({v4}) on the second worked tree is {v5, v8}.
        assert set(mask_nodes(_reach(fig_b).anc[3])) == {4, 7}

    def test_ascendants_exclude_self(self):
        assert _reach(Digraph(2, [(0, 1)])).anc == [0, 0b1]

    @given(digraphs())
    @settings(max_examples=60, deadline=None)
    def test_descendants_match_oracle(self, g):
        succ, pred = neighbour_masks(g)
        out_adj, in_adj = oracles.adjacency_oracle(g.n, g.arcs)
        assert [tuple(mask_nodes(m)) for m in succ] == list(out_adj)
        assert [tuple(mask_nodes(m)) for m in pred] == list(in_adj)
        dag = Digraph(g.n, [(u, v) for u, v in g.arcs if u < v])
        desc = _reach(dag).desc
        for v in range(g.n):
            assert set(mask_nodes(desc[v])) == oracles.descendants_oracle(g.n, dag.arcs, {v})

    @given(digraphs())
    @settings(max_examples=60, deadline=None)
    def test_ascendants_match_oracle(self, g):
        dag = Digraph(g.n, [(u, v) for u, v in g.arcs if u > v])
        anc = _reach(dag).anc
        for v in range(g.n):
            assert set(mask_nodes(anc[v])) == oracles.ascendants_oracle(g.n, dag.arcs, {v})


class TestCondensation:
    def test_components_match_oracle(self):
        g = Digraph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3), (4, 5)])
        cond = condense(g, [1] * 6)
        got = {frozenset(m) for m in groups_of(cond)}
        assert got == set(oracles.scc_oracle(6, g.arcs))
        assert is_dag(cond.dag)

    def test_weights_are_component_sums(self):
        g = Digraph(4, [(0, 1), (1, 0), (2, 3)])
        cond = condense(g, [1, 2, 4, 8])
        weight_by_nodes = {m: w for m, w in zip(groups_of(cond), cond.component_weight)}
        assert weight_by_nodes[(0, 1)] == 3
        # Summed exactly, past float64's 2^53.
        assert condense(g, [2**53, 1, 4, 8]).component_weight == (2**53 + 1, 4, 8)

    def test_acyclic_graph_is_its_own_condensation(self):
        g = Digraph(4, [(3, 2), (2, 1), (1, 0)])
        cond = condense(g, [1, 2, 4, 8])
        assert cond.dag is g and cond.component_of == range(4)
        assert cond.component_weight == (1, 2, 4, 8)
        assert groups_of(cond) == ((0,), (1,), (2,), (3,))
        # The slot keeps a marker, not the graph itself.
        assert object.__getattribute__(g, "_condensed") is None

    def test_topological_numbering(self):
        g = Digraph(5, [(4, 3), (3, 4), (3, 2), (2, 1), (1, 0)])
        cond = condense(g, [1] * 5)
        # Components sorted topologically; arcs go from lower to higher id.
        assert groups_of(cond) == ((3, 4), (2,), (1,), (0,))
        assert all(a < b for a, b in cond.dag.arcs)

    @given(digraphs())
    @settings(max_examples=60, deadline=None)
    def test_condensation_partition(self, g):
        cond = condense(g, [1] * g.n)
        groups = groups_of(cond)
        seen = sorted(v for m in groups for v in m)
        assert seen == list(range(g.n)) and all(groups)
        for v in range(g.n):
            assert v in groups[cond.component_of[v]]
        assert is_dag(cond.dag)


class TestClassify:
    def test_worked_tree_is_oriented_tree(self, fig_a):
        assert classify(fig_a) == GraphClass.ORIENTED_TREE

    def test_out_rooted(self):
        g = Digraph(3, [(1, 0), (2, 0)])
        assert classify(g) == GraphClass.OUT_ROOTED_TREE
        assert is_out_rooted_tree(g)
        assert not is_in_rooted_tree(g)

    def test_in_rooted(self):
        g = Digraph(3, [(0, 1), (0, 2)])
        assert classify(g) == GraphClass.IN_ROOTED_TREE

    def test_tournament(self):
        g = Digraph(3, [(0, 1), (1, 2), (2, 0)])
        assert classify(g) == GraphClass.TOURNAMENT
        assert is_tournament(g)

    @settings(max_examples=300, deadline=None)
    @given(digraphs())
    def test_is_tournament_matches_oracle(self, g):
        assert is_tournament(g) == oracles.is_tournament_oracle(g.n, g.arcs)

    @pytest.mark.parametrize("seed", range(40))
    def test_is_tournament_on_tournament_arc_counts(self, seed):
        # Tournaments, and graphs with n(n-1)/2 arcs where one pair holds
        # both arcs and another holds none.
        rng = random.Random(seed)
        n = rng.randint(2, 25)
        arcs = [(u, v) if rng.random() < 0.5 else (v, u) for u in range(n) for v in range(u + 1, n)]
        cases = [arcs]
        if n >= 3:
            i, j = rng.sample(range(len(arcs)), 2)
            u, v = arcs[j]
            cases.append(arcs[:i] + arcs[i + 1:] + [(v, u)])
        for case in cases:
            g = Digraph(n, case)
            assert len(g.arcs) == n * (n - 1) // 2
            assert is_tournament(g) == oracles.is_tournament_oracle(n, case)
            assert is_tournament(g) == (case is arcs)

    def test_balanced_degree_two(self):
        arcs = [(i, (i + 1) % 6) for i in range(6)] + [
            (i, (i + 2) % 6) for i in range(6)
        ]
        g = Digraph(6, arcs)
        assert classify(g) == GraphClass.BALANCED_DEGREE_TWO
        assert is_balanced_degree_two(g)

    def test_forest_vs_dag(self):
        forest = Digraph(4, [(0, 1), (2, 3)])
        assert classify(forest) == GraphClass.FOREST
        diamond = Digraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert classify(diamond) == GraphClass.DAG

    def test_general(self):
        g = Digraph(3, [(0, 1), (1, 0)])
        assert classify(g) == GraphClass.GENERAL
        assert not is_underlying_forest(g)  # opposite arcs are a cycle

    def test_relabel_stability(self, fig_a):
        perm = [3, 0, 6, 2, 7, 1, 5, 4]
        relabelled = Digraph(8, [(perm[u], perm[v]) for u, v in FIG_A_ARCS])
        assert classify(relabelled) == classify(fig_a)

    def test_tree_predicates(self, fig_a, fig_b):
        assert is_underlying_tree(fig_a)
        assert is_underlying_tree(fig_b)


def _count_calls(monkeypatch, names):
    """Call counts of the named ``dss.graph`` functions, wrapped in every
    loaded ``dss`` module that binds them, as they are called by name."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(graph_module, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "dss"]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


class TestStructurePasses:
    """Each structural fact costs one pass: counted calls, not timings."""

    N = 10**5
    PASSES = ("is_underlying_forest", "is_underlying_connected", "_topological_order",
              "_strongly_connected_components")

    @classmethod
    def trees(cls):
        # Heap-shaped trees: node i hangs below (i - 1) // 2.
        up = [(i, (i - 1) // 2) for i in range(1, cls.N)]
        return {
            GraphClass.OUT_ROOTED_TREE: Digraph(cls.N, up),
            GraphClass.IN_ROOTED_TREE: Digraph(cls.N, [(v, u) for u, v in up]),
            GraphClass.ORIENTED_TREE: Digraph(cls.N, [(u, v) if u % 3 else (v, u) for u, v in up]),
        }

    def test_trees(self, monkeypatch):
        # The tree DPs themselves are stubbed: only the structure tests
        # that pick them are counted.
        monkeypatch.setattr(exact, "_tree_solution", lambda inst, kind, starts: Solution(frozenset(), 0))
        counts = _count_calls(monkeypatch, self.PASSES)
        for cls, g in self.trees().items():
            counts.update(dict.fromkeys(counts, 0))
            assert classify(g) is cls
            assert counts == {"is_underlying_forest": 1, "is_underlying_connected": 0,
                              "_topological_order": 1, "_strongly_connected_components": 0}
            for kind in (ProblemKind.SSG, ProblemKind.MAXIMAL_SSG, ProblemKind.SSGW):
                counts.update(dict.fromkeys(counts, 0))
                try:
                    SOLVERS["tree-dp"](WeightedInstance(g, (1,) * g.n, 1, kind), 2)
                except SolverError:
                    assert (cls, kind) == (GraphClass.ORIENTED_TREE, ProblemKind.SSGW)
                assert counts["is_underlying_forest"] <= 1, (cls, kind)
                assert sum(counts.values()) == counts["is_underlying_forest"], (cls, kind)

    def test_no_arc_objects_kept(self):
        """After ``classify``, ``condense`` and a tree DP, a 10^5-node
        oriented tree keeps its CSR arrays and no Python object per arc.
        ``classify`` and ``condense`` keep ``out_ptr`` alone, 8 bytes a
        node, where the out-neighbour tuples kept 74.  The DP, run
        untraced since tracing slows it tenfold, adds the in-neighbour
        arrays and under N/100 Python objects, where the tuples of both
        sides were 331,389 objects."""
        inst = random_instance(
            GraphClass.ORIENTED_TREE, self.N, weight_max=1, budget_rule=("fixed", 8), seed=1
        )
        g = inst.graph
        gc.collect()
        blocks = sys.getallocatedblocks()
        tracemalloc.start()
        try:
            assert classify(g) is GraphClass.ORIENTED_TREE
            assert condense(g, inst.weights).dag is g
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < g.out_ptr.nbytes + 2_000, kept / self.N
        assert exact.solve_ssg_tree(inst).weight == 8
        gc.collect()
        assert sys.getallocatedblocks() - blocks < self.N // 100
        assert [getattr(g, name).nbytes for name in CSR_SLOTS] == [8 * (self.N + 1)] * 2 + [8 * g.m]

    def test_acyclic_condensation(self, monkeypatch):
        """A tree is its own condensation: one Kahn pass, no component search, and
        nothing kept per node.  A tuple of singletons alone would hold
        about 89 bytes per node."""
        counts = _count_calls(monkeypatch, self.PASSES)
        weights = (1,) * self.N
        for cls, g in self.trees().items():
            g.out_ptr
            counts.update(dict.fromkeys(counts, 0))
            tracemalloc.start()
            try:
                cond = condense(g, weights)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert counts == {"is_underlying_forest": 0, "is_underlying_connected": 0,
                              "_topological_order": 1, "_strongly_connected_components": 0}, cls
            assert cond.dag is g and cond.component_of == range(self.N)
            assert cond.component_weight is weights
            assert kept < 2_000 and peak < 50 * self.N, (cls, kept, peak)

    @staticmethod
    def chained_cycles(blocks: int, size: int) -> Digraph:
        """``blocks`` directed cycles of ``size`` nodes, each cycle's first
        node with an arc to the next cycle's first node."""
        v = np.arange(blocks * size)
        nxt = v + 1
        nxt[size - 1 :: size] -= size
        tail = np.concatenate([v, v[:-size:size]])
        head = np.concatenate([nxt, v[size::size]])
        return Digraph.from_ids(blocks * size, tail, head)

    def test_cyclic_condensation_kept(self):
        """A cyclic graph's condensation keeps its DAG and its component
        map, and no node list per component: 32.7 bytes a node on 1000
        chained 100-node cycles, where kept member tuples made it 41.2.
        A small cyclic graph is condensed first, so one-off allocations
        are not counted."""
        small = self.chained_cycles(3, 4)
        condense(small, [1] * small.n)
        g = self.chained_cycles(1000, 100)
        weights = (1,) * g.n
        g.out_ptr
        tracemalloc.start()
        try:
            cond = condense(g, weights)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert cond.dag.n == 1000 and cond.dag.m == 999
        assert cond.component_weight == (100,) * 1000
        assert kept < 37 * g.n, kept / g.n

    def test_one_long_cycle(self):
        """A 10^5-node cycle is one component, found without recursion."""
        v = np.arange(self.N)
        g = Digraph.from_ids(self.N, v, (v + 1) % self.N)
        cond = condense(g, (1,) * self.N)
        assert cond.dag.n == 1 and cond.dag.m == 0
        assert cond.component_of == (0,) * self.N and cond.component_weight == (self.N,)

    def test_condense_peak(self):
        """Condensing a 10^5-node balanced-degree-two graph, one component,
        peaks at 99.8 bytes a node under tracemalloc (the adjacency built
        beforehand), against 140.3 for Tarjan's ``index``, ``low``,
        ``on_stack`` and component lists."""
        g = random_instance(GraphClass.BALANCED_DEGREE_TWO, self.N, seed=1).graph
        weights = (1,) * self.N
        g.out_ptr
        tracemalloc.start()
        try:
            cond = condense(g, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cond.dag.n == 1
        assert peak < 110 * self.N, peak / self.N

    def test_maximal_evaluate_peak(self):
        """The strong maximality test on a fresh 10^5-node tree builds the
        adjacency, one Kahn pass and no per-node component object: 16.5 MB
        under tracemalloc, against 18.5 MB when the test forked on
        ``is_dag`` itself."""
        g = self.trees()[GraphClass.ORIENTED_TREE]
        inst = WeightedInstance(g, (1,) * self.N, 0, ProblemKind.MAXIMAL_SSG)
        tracemalloc.start()
        try:
            report = evaluate(inst, ())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.feasible and report.satisfies_maximality
        assert peak < 185 * self.N, peak

    def test_condensations(self, monkeypatch):
        counts = _count_calls(monkeypatch, ["_strongly_connected_components"])
        # Two 2-cycles into a path: a general digraph whose condensation
        # is no tournament, so the PTAS row answers.
        g = Digraph(6, [(0, 1), (1, 0), (2, 3), (3, 2), (1, 4), (3, 4), (4, 5)])
        inst = WeightedInstance(g, (1, 2, 3, 4, 5, 6), 12, ProblemKind.MAXIMAL_SSG)
        assert evaluate(inst, _solve_auto(inst, 2).selected).feasible
        assert counts["_strongly_connected_components"] == 1
        counts["_strongly_connected_components"] = 0
        dag = random_instance(GraphClass.DAG, 30, seed=1)
        assert evaluate(dag, _solve_auto(dag, 2).selected).feasible
        assert counts["_strongly_connected_components"] == 0
