"""Independent reference implementations used only by the tests.

Everything here is written against the problem definitions directly
(subset enumeration, reachability matrices, literal superset checks) and
deliberately shares no code with the library under test, except
``brute_force_oracle``: it runs the checker's own verdict, ``evaluate``,
on every set, so that the vectorised brute force and the checker are held
to one definition of closure and maximality; and ``tournament_oracle``, an
earlier ``solve_tournament`` kept verbatim on the library's graph
predicates and condensation, so that its witnesses pin the current ones.
``lexicographic_first_oracle`` is the earlier index-array tie rule of
``brute_force``, kept verbatim to pin the one that reads the boolean
table.  ``emit_instance_reference`` is the earlier list-and-join
``emit_instance``, kept verbatim to pin the chunked instance writes.
``LevelsReference`` is the earlier list-per-level score algebra of the
maximal tree DP, kept verbatim but for its shift-OR, which is the plain
loop ``shift_or_reference``, to pin the run-length one.
``brute_force_table_reference`` is the earlier ``brute_force`` that
holds a bool and a weight per mask for all 2^n masks, kept verbatim with
its kernels (``table_closed_subsets``, ``table_weak_closed_subsets``,
``table_inclusion_maximal``) to pin the blocked one, answers and tie
winners alike.
``ptas_maximal_ssg_reference`` is the earlier heap-driven
``ptas_maximal_ssg``, kept verbatim but for building its own ``_Reach``,
to pin the rank-ordered one on graphs too large for
``ptas_maximal_ssg_oracle``.
The structural facts that ``graph`` reads off its sorted arc arrays
(degree tests, the tournament test, ``classify``, the closure witness
and the condensation) have definitions here on the adjacency tuples and
on reachability.  ``maximality_strong_oracle`` is the earlier
condensation-only ``_maximality_strong``, run on ``condensation_oracle``
rather than the library's condensation, to pin the array test.
``underlying_connected_oracle`` is the earlier adjacency search of
``is_underlying_connected``, kept verbatim to pin the union-find one.
``weak_closure_witness_oracle`` is the earlier loop-over-nodes
``check_weak_closure``, kept verbatim to pin the witness of the one that
counts in-neighbours over the arc arrays.
"""
from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import operator
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from dss import (
    ApproxResult,
    Digraph,
    GraphClass,
    GraphError,
    ProblemKind,
    Solution,
    SolverError,
    WeightedInstance,
)
from dss.approx import _condensed_view, _Reach
from dss.constraints import evaluate
from dss.graph import condense, is_dag, is_tournament, mask_nodes, neighbour_masks


def reference_digraph(n: int, arcs) -> Digraph:
    """The ``Digraph`` constructor as a set and a sort of tuples: the arcs
    are ``sorted(set(arcs))``, a repeat is an error, then one scan checks
    each arc in sorted order for range and then for a loop and fills the
    adjacency.  Builds the instance without calling ``Digraph.__init__``:
    ``tail`` and ``head`` are the columns of the sorted arcs."""
    if n < 0:
        raise GraphError("node count must be nonnegative")
    raw = list(arcs)
    arc_list = sorted(set(raw))
    if len(arc_list) != len(raw):
        raise GraphError("duplicate arc")
    out_adj: list[list[int]] = [[] for _ in range(n)]
    in_adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in arc_list:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"arc ({u},{v}) out of range for n={n}")
        if u == v:
            raise GraphError(f"loop at node {u}")
        out_adj[u].append(v)
        in_adj[v].append(u)
    g = object.__new__(Digraph)
    g.n = n
    g.m = len(arc_list)
    g.tail = np.array([u for u, _ in arc_list], dtype=np.int64)
    g.head = np.array([v for _, v in arc_list], dtype=np.int64)
    g.arcs = tuple(arc_list)
    g.out_adj = tuple(tuple(a) for a in out_adj)
    g.in_adj = tuple(tuple(a) for a in in_adj)
    return g


def emit_instance_reference(inst: WeightedInstance, labels: list[str]) -> str:
    out = [f"problem {inst.kind.value}", f"budget {inst.budget}"]
    for label, w in zip(labels, inst.weights):
        out.append(f"node {label} {w}")
    for u, v in inst.graph.arcs:
        out.append(f"arc {labels[u]} {labels[v]}")
    return "\n".join(out) + "\n"


def reach_matrix(n: int, arcs) -> list[list[bool]]:
    """Transitive closure including the diagonal (Floyd-Warshall)."""
    r = [[i == j for j in range(n)] for i in range(n)]
    for u, v in arcs:
        r[u][v] = True
    for k in range(n):
        for i in range(n):
            if r[i][k]:
                row_k = r[k]
                row_i = r[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return r


def descendants_oracle(n: int, arcs, s: Iterable[int]) -> set[int]:
    r = reach_matrix(n, arcs)
    return {v for u in s for v in range(n) if r[u][v]}


def ascendants_oracle(n: int, arcs, s: Iterable[int]) -> set[int]:
    r = reach_matrix(n, arcs)
    return {u for v in s for u in range(n) if r[u][v] and u != v}


def scc_oracle(n: int, arcs) -> list[frozenset[int]]:
    """Components by pairwise mutual reachability, each sorted by min id."""
    r = reach_matrix(n, arcs)
    comps = []
    seen = set()
    for v in range(n):
        if v in seen:
            continue
        comp = frozenset(u for u in range(n) if r[v][u] and r[u][v])
        seen |= comp
        comps.append(comp)
    return comps


def is_tournament_oracle(n: int, arcs) -> bool:
    """Every pair of distinct nodes holds exactly one of its two arcs."""
    arc_set = set(arcs)
    return all(
        ((u, v) in arc_set) != ((v, u) in arc_set)
        for u, v in itertools.combinations(range(n), 2)
    )


# The structural facts ``graph`` reads off its sorted arc arrays, defined
# on the adjacency tuples instead.


def is_balanced_degree_two_oracle(g: Digraph) -> bool:
    return g.n > 0 and all(
        len(g.out_adj[v]) == 2 and len(g.in_adj[v]) == 2 for v in range(g.n)
    )


def out_degrees_at_most_one(g: Digraph) -> bool:
    return all(len(a) <= 1 for a in g.out_adj)


def in_degrees_at_most_one(g: Digraph) -> bool:
    return all(len(a) <= 1 for a in g.in_adj)


def _acyclic_oracle(g: Digraph) -> bool:
    """Repeatedly drop a node with no remaining in-neighbour."""
    left = set(range(g.n))
    while True:
        free = [v for v in left if not any(u in left for u in g.in_adj[v])]
        if not free:
            return not left
        left -= set(free)


def underlying_forest_oracle(g: Digraph) -> bool:
    """The undirected edges are distinct (no opposite pair) and closing
    none of them joins two nodes already joined."""
    edges = {frozenset(a) for a in g.arcs}
    if len(edges) != len(g.arcs):
        return False
    comp = list(range(g.n))
    for u, v in map(tuple, edges):
        if comp[u] == comp[v]:
            return False
        old = comp[u]
        comp = [comp[v] if c == old else c for c in comp]
    return True


def underlying_connected_oracle(g: Digraph) -> bool:
    """The earlier ``is_underlying_connected``, kept verbatim: a search
    from node 0 over the adjacency tuples reaches every node."""
    if g.n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in g.out_adj[u] + g.in_adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == g.n


def underlying_tree_oracle(g: Digraph) -> bool:
    """A forest with one component; the empty graph counts as a tree."""
    return underlying_forest_oracle(g) and len(g.arcs) == max(g.n - 1, 0)


def classify_oracle(g: Digraph) -> GraphClass:
    """``classify`` on the adjacency-based definitions."""
    if is_tournament_oracle(g.n, g.arcs):
        return GraphClass.TOURNAMENT
    if is_balanced_degree_two_oracle(g):
        return GraphClass.BALANCED_DEGREE_TWO
    if not _acyclic_oracle(g):
        return GraphClass.GENERAL
    if not underlying_forest_oracle(g):
        return GraphClass.DAG
    if not underlying_tree_oracle(g):
        return GraphClass.FOREST
    if out_degrees_at_most_one(g):
        return GraphClass.OUT_ROOTED_TREE
    if in_degrees_at_most_one(g):
        return GraphClass.IN_ROOTED_TREE
    return GraphClass.ORIENTED_TREE


def closure_witness_oracle(g: Digraph, s: set[int]) -> Optional[tuple[int, int]]:
    """The smallest arc that leaves ``s``."""
    return min(((u, v) for u, v in g.arcs if u in s and v not in s), default=None)


def condensation_oracle(g: Digraph) -> tuple:
    """(dag arcs, component_of, members).  An acyclic graph is its own
    condensation: its arcs, component v being node v.  Otherwise the
    components are found by mutual reachability and numbered in
    topological order with ties by smallest member, by repeatedly taking
    the ready component of smallest member."""
    if _acyclic_oracle(g):
        return tuple(sorted(g.arcs)), tuple(range(g.n)), tuple((v,) for v in range(g.n))
    comps = sorted(scc_oracle(g.n, g.arcs), key=min)
    comp_of = {v: c for c, comp in enumerate(comps) for v in comp}
    cross = {(comp_of[u], comp_of[v]) for u, v in g.arcs if comp_of[u] != comp_of[v]}
    order: list[int] = []
    while len(order) < len(comps):
        ready = [
            c for c in range(len(comps))
            if c not in order and all(a in order for a, b in cross if b == c)
        ]
        order.append(min(ready, key=lambda c: min(comps[c])))
    new_id = {c: i for i, c in enumerate(order)}
    dag_arcs = tuple(sorted((new_id[a], new_id[b]) for a, b in cross))
    members = tuple(tuple(sorted(comps[c])) for c in order)
    return dag_arcs, tuple(new_id[comp_of[v]] for v in range(g.n)), members


def maximality_strong_oracle(inst: WeightedInstance, sel: set[int]) -> Optional[int]:
    """The earlier ``_maximality_strong`` on ``condensation_oracle``'s
    condensation: the smallest member of a fitting sink component of the
    unselected part, a component counting as selected when it meets
    ``sel``, whatever the graph."""
    dag_arcs, component_of, members = condensation_oracle(inst.graph)
    sel_comps = {component_of[v] for v in sel}
    total = inst.weight_of(sel)
    best: Optional[int] = None
    for c, nodes in enumerate(members):
        if c in sel_comps:
            continue
        if any(a == c and b not in sel_comps for a, b in dag_arcs):
            continue  # not a sink of the unselected part
        if total + sum(inst.weights[v] for v in nodes) <= inst.budget:
            if best is None or nodes[0] < best:
                best = nodes[0]
    return best


def strong_closed(arcs, s: set[int]) -> bool:
    return all(v in s for u, v in arcs if u in s)


def weak_closure_witness_oracle(g: Digraph, s) -> Optional[int]:
    """The earlier ``check_weak_closure``, kept verbatim on the adjacency
    tuples: the smallest node whose in-neighbours are all selected but
    which is not."""
    sel = g._check_nodes(s)
    for x in range(g.n):
        ins = g.in_adj[x]
        if ins and x not in sel and all(p in sel for p in ins):
            return x
    return None


def weak_closed(n: int, arcs, s: set[int]) -> bool:
    for x in range(n):
        ins = [u for u, v in arcs if v == x]
        if ins and x not in s and all(u in s for u in ins):
            return False
    return True


def feasible_sets(
    n: int, arcs, weights, budget: int, weak: bool
) -> list[frozenset[int]]:
    """Closure-and-budget feasible subsets, enumerated literally."""
    out = []
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            s = set(combo)
            if sum(weights[v] for v in s) > budget:
                continue
            ok = weak_closed(n, arcs, s) if weak else strong_closed(arcs, s)
            if ok:
                out.append(frozenset(s))
    return out


def maximal_sets(
    n: int, arcs, weights, budget: int, weak: bool
) -> list[frozenset[int]]:
    """Feasible sets with no feasible strict superset (literal definition)."""
    feas = feasible_sets(n, arcs, weights, budget, weak)
    return [s for s in feas if not any(s < t for t in feas)]


def optimum(n: int, arcs, weights, budget: int, kind: str) -> Optional[int]:
    """Best objective by enumeration; kind is one of the four kind values."""
    weak = kind in ("ssgw", "maximal-ssgw")
    if kind.startswith("maximal"):
        pool = maximal_sets(n, arcs, weights, budget, weak)
        if not pool:
            return None
        return min(sum(weights[v] for v in s) for s in pool)
    pool = feasible_sets(n, arcs, weights, budget, weak)
    return max(sum(weights[v] for v in s) for s in pool)


def brute_force_oracle(inst: WeightedInstance) -> Optional[Solution]:
    """``exact.brute_force`` on plain sets: every subset that fits the
    budget and that the checker's ``evaluate`` finds feasible competes;
    the best weight wins, ties going to the lexicographically smallest
    sorted node tuple."""
    g, maximal = inst.graph, inst.kind.is_maximal
    best = None
    for size in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            s = set(combo)
            w = inst.weight_of(s)
            if w > inst.budget:
                continue
            if not evaluate(inst, s).feasible:
                continue
            key = (w if maximal else -w, combo)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    return Solution(frozenset(best[1]), inst.weight_of(best[1]))


def _hamiltonian_path(g: Digraph) -> list[int]:
    """Unique Hamiltonian path of an acyclic tournament."""
    order = sorted(range(g.n), key=lambda v: (-len(g.out_adj[v]), v))
    arcset = set(g.arcs)
    for a, b in zip(order, order[1:]):
        if (a, b) not in arcset:
            raise SolverError("tournament is not acyclic")
    return order


def tournament_oracle(inst: WeightedInstance) -> Solution:
    """Suffix scan along the Hamiltonian path of the (condensed) tournament.

    Feasible closed sets are exactly the empty set and the suffixes of
    the path, so both the maximization and the maximal-minimization
    reduce to picking the right suffix.
    """
    if inst.kind not in (ProblemKind.SSG, ProblemKind.MAXIMAL_SSG):
        raise SolverError("tournament solver handles the strong kinds only")
    g = inst.graph
    if is_tournament(g) and is_dag(g):
        cond = None
        h = g
        weights = list(inst.weights)
    else:
        cond = condense(g, inst.weights)
        if not is_tournament(cond.dag):
            raise SolverError("input is not a tournament (nor condenses to one)")
        h = cond.dag
        weights = list(cond.component_weight)
    path = _hamiltonian_path(h)
    suffix_weight = [0] * (h.n + 1)
    for k in range(h.n - 1, -1, -1):
        suffix_weight[k] = suffix_weight[k + 1] + weights[path[k]]
    if inst.kind is ProblemKind.SSG:
        best_k = h.n  # empty suffix
        for k in range(h.n + 1):
            if suffix_weight[k] <= inst.budget:
                if suffix_weight[k] > suffix_weight[best_k]:
                    best_k = k
    else:
        # Longest fitting suffix is the unique maximal solution.
        best_k = h.n
        for k in range(h.n + 1):
            if suffix_weight[k] <= inst.budget:
                best_k = k
                break
    chosen_comps = path[best_k:]
    if cond is None:
        nodes = set(chosen_comps)
    else:
        nodes = {v for c in chosen_comps for v in cond.members[c]}
    return Solution(frozenset(nodes), suffix_weight[best_k])


def lexicographic_first_oracle(pool: np.ndarray) -> int:
    """The mask of ``pool`` whose sorted node tuple is smallest: the empty
    mask if present, else among the masks with the smallest lowest node,
    the first once that node is stripped."""
    chosen = 0
    while not (pool == 0).any():
        low = pool & -pool
        first = low.min()
        chosen |= int(first)
        pool = pool[low == first] ^ first
    return chosen


def shift_or_reference(a: int, b: int, nbits: int) -> int:
    """The OR of b << s over the set bits s of a, cut to nbits bits."""
    out = 0
    for s in range(a.bit_length()):
        if (a >> s) & 1:
            out |= b << s
    return out & ((1 << nbits) - 1)


class LevelsReference:
    """(max, min) score vectors as one bitset per level: bit b of level j
    is set iff a selection of weight b scores at least ``thresholds[j]``,
    the distinct weights up to the budget B, then B + 1."""

    def __init__(self, weights, budget: int):
        self.thresholds = sorted({w for w in weights if w <= budget}) + [budget + 1]

    @staticmethod
    def merge(a: list[int], b: list[int], size: int) -> list[int]:
        """min(x, y) >= t iff x >= t and y >= t: shift-OR per level, run
        once per run of equal neighbouring level pairs."""
        out, last = [], None
        for pair in zip(a, b):
            if pair != last:
                last, vec = pair, shift_or_reference(*pair, size)
            out.append(vec)
        return out

    @staticmethod
    def join(vectors) -> list[int]:
        return functools.reduce(lambda a, b: list(map(operator.or_, a, b)), vectors)

    def addable(self, vec: list[int], w: int) -> list[int]:
        """min(vec, w): the levels whose threshold is above w emptied."""
        k = bisect.bisect_right(self.thresholds, w)
        return vec[:k] + [0] * (len(vec) - k)

    def best(self, answer: list[int], budget: int) -> tuple[int, int]:
        """The smallest weight b whose score exceeds B - b, and the level
        of B + 1 - b.  Level j holds such a b iff b >= B + 1 - t_j."""
        b = min(
            lo + (hits & -hits).bit_length() - 1
            for t, vec in zip(self.thresholds, answer)
            if (hits := vec >> (lo := budget + 1 - t))
        )
        return b, bisect.bisect_left(self.thresholds, budget + 1 - b)


def subset_sums(values, cap: int) -> set[int]:
    """Reachable subset sums up to cap (classic table)."""
    sums = {0}
    for v in values:
        sums |= {s + v for s in sums if s + v <= cap}
    return sums


def has_clique(n: int, edges, k: int) -> bool:
    eset = {(min(u, v), max(u, v)) for u, v in edges}
    for combo in itertools.combinations(range(n), k):
        if all(
            (min(a, b), max(a, b)) in eset
            for a, b in itertools.combinations(combo, 2)
        ):
            return True
    return False


def _independent(eset, s) -> bool:
    return not any((min(a, b), max(a, b)) in eset for a, b in itertools.combinations(s, 2))


def _dominating(n: int, adj, s) -> bool:
    return all(v in s or any(u in s for u in adj[v]) for v in range(n))


def independence_number(n: int, edges) -> int:
    eset = {(min(u, v), max(u, v)) for u, v in edges}
    best = 0
    for size in range(n, -1, -1):
        if any(
            _independent(eset, c) for c in itertools.combinations(range(n), size)
        ):
            return size
    return best


def independent_domination_number(n: int, edges) -> int:
    eset = {(min(u, v), max(u, v)) for u, v in edges}
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    for size in range(n + 1):
        for c in itertools.combinations(range(n), size):
            if _independent(eset, c) and _dominating(n, adj, set(c)):
                return size
    raise AssertionError("every graph has an independent dominating set")


def _cone_within(out_adj, z: int, avail: set[int]) -> set[int]:
    """Nodes reachable from z by paths that stay inside avail."""
    seen = {z}
    stack = [z]
    while stack:
        u = stack.pop()
        for v in out_adj[u]:
            if v in avail and v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def ptas_ssg_oracle(n: int, arcs, weights, budget: int, k: int) -> frozenset[int]:
    """Seed-enumeration greedy for ssg on a DAG, on plain sets.

    Every seed S of at most k nodes (by size, then lexicographically) whose
    descendants fit the budget starts from those descendants; the nodes
    still available are the rest minus the strict ascendants of the
    sources of S.  The greedy then takes the source of the available part
    with the heaviest cone inside it (smallest id on ties), adding the cone
    if it fits and discarding the source otherwise.  The first seed with
    the strictly heaviest result wins.
    """
    r = reach_matrix(n, arcs)
    out_adj = [[v for u2, v in arcs if u2 == u] for u in range(n)]
    in_adj = [[u for u, v2 in arcs if v2 == v] for v in range(n)]

    def weight(s) -> int:
        return sum(weights[v] for v in s)

    best: Optional[set[int]] = None
    best_w = -1
    for size in range(min(k, n) + 1):
        for seed in itertools.combinations(range(n), size):
            base = {v for u in seed for v in range(n) if r[u][v]}
            if weight(base) > budget:
                continue
            ker = [v for v in seed if not any(p in seed for p in in_adj[v])]
            above = {u for v in ker for u in range(n) if r[u][v] and u != v}
            avail = set(range(n)) - above - base
            sol = set(base)
            while avail:
                sources = [v for v in avail if avail.isdisjoint(in_adj[v])]
                best_z, best_cone, best_cw = None, set(), -1
                for z in sorted(sources):
                    cone = _cone_within(out_adj, z, avail)
                    cw = weight(cone)
                    if cw > best_cw:
                        best_z, best_cone, best_cw = z, cone, cw
                if weight(sol) + best_cw <= budget:
                    sol |= best_cone
                    avail -= best_cone
                else:
                    avail.discard(best_z)
            if weight(sol) > best_w:
                best, best_w = sol, weight(sol)
    return frozenset(best)


def ptas_maximal_ssg_oracle(n: int, arcs, weights, budget: int, k: int) -> frozenset[int]:
    """Seed-enumeration greedy for maximal-ssg on a DAG, on plain sets.

    Every seed S of at most k nodes (by size, then lexicographically) whose
    descendants fit the budget starts from those descendants; the greedy
    then adds a lightest sink of the unselected part (smallest id on ties)
    while it fits.  The first seed with the strictly lightest result wins.
    """
    r = reach_matrix(n, arcs)
    out_adj = [[v for u2, v in arcs if u2 == u] for u in range(n)]
    best: Optional[set[int]] = None
    best_w = 0
    for size in range(min(k, n) + 1):
        for seed in itertools.combinations(range(n), size):
            sol = {v for u in seed for v in range(n) if r[u][v]}
            w = sum(weights[v] for v in sol)
            if w > budget:
                continue
            avail = set(range(n)) - sol
            while True:
                sinks = [v for v in avail if avail.isdisjoint(out_adj[v])]
                z = min(sinks, key=lambda v: (weights[v], v), default=None)
                if z is None or w + weights[z] > budget:
                    break
                sol.add(z)
                avail.discard(z)
                w += weights[z]
            if best is None or w < best_w:
                best, best_w = sol, w
    return frozenset(best)


def ptas_maximal_ssg_reference(inst: WeightedInstance, k: int) -> ApproxResult:
    """The heap-driven maximal-ssg PTAS: a heap of ``(weight, id)`` over
    the sinks of the unselected part, and a seed skipped only when its
    start state was seen before."""
    g, order, weights, expand = _condensed_view(inst)
    r = _Reach(g, order, weights)
    best, best_w = r.full, None
    seen = set()
    for _seed, base, w in r.seeds(k, inst.budget, range(g.n)):
        avail = r.full & ~base
        if avail in seen:
            continue
        seen.add(avail)
        heap = [(weights[v], v) for v in mask_nodes(r.sinks(avail))]
        heapq.heapify(heap)
        while heap and w + heap[0][0] <= inst.budget:
            wz, z = heapq.heappop(heap)
            avail &= ~(1 << z)
            w += wz
            for p in mask_nodes(r.pred[z] & avail):
                if not r.succ[p] & avail:
                    heapq.heappush(heap, (weights[p], p))
        if best_w is None or w < best_w:
            best, best_w = r.full & ~avail, w
    nodes = expand(best)
    guarantee = Fraction(2) if k == 0 else Fraction(k + 1, k)
    return ApproxResult(
        Solution(frozenset(nodes), inst.weight_of(nodes)),
        k,
        guarantee,
    )


# ---------------------------------------------------------------------------
# The earlier table brute force: a bool and a weight per mask
# ---------------------------------------------------------------------------


def _table_cube(half, i, ones=0, zeros=0):
    idx = [slice(None)] * i
    for k in range(i):
        if (ones >> k) & 1:
            idx[i - 1 - k] = 1
        elif (zeros >> k) & 1:
            idx[i - 1 - k] = 0
    return half.reshape((2,) * i)[tuple(idx) + (Ellipsis,)]


def _table_forbid(n, rules, weights):
    closed = np.empty(1 << n, dtype=np.bool_)
    weight = np.empty(1 << n, dtype=weights.dtype)
    closed[0], weight[0] = True, 0
    bound = [[] for _ in range(n)]
    for ones, zeros in rules:
        bound[(ones | zeros).bit_length() - 1].append((ones, zeros))
    for i in range(n):
        h = 1 << i
        closed[h : 2 * h] = closed[:h]
        np.add(weight[:h], weights[i], out=weight[h : 2 * h])
        for ones, zeros in bound[i]:
            half = closed[h : 2 * h] if ones & h else closed[:h]
            _table_cube(half, i, ones, zeros)[...] = False
    return closed, weight


def table_closed_subsets(out_masks, weights):
    """Closed (strong rule) and weight tables over all 2^n masks."""
    n = out_masks.shape[0]
    rules = [
        (1 << u, 1 << v) for u, m in enumerate(map(int, out_masks)) for v in range(n) if m >> v & 1
    ]
    return _table_forbid(n, rules, weights)


def table_weak_closed_subsets(in_masks, weights):
    """Closed (weak rule) and weight tables over all 2^n masks."""
    rules = [(m, 1 << x) for x, m in enumerate(map(int, in_masks)) if m]
    return _table_forbid(in_masks.shape[0], rules, weights)


_TABLE_LOW = [
    np.uint64(m)
    for m in (
        0x5555555555555555,
        0x3333333333333333,
        0x0F0F0F0F0F0F0F0F,
        0x00FF00FF00FF00FF,
        0x0000FFFF0000FFFF,
        0x00000000FFFFFFFF,
    )
]
_TABLE_BLOCK = 1 << 16


def _table_above(src, n, out):
    tmp = np.empty_like(src)
    for i in range(n):
        if i < 6:
            np.right_shift(src, np.uint64(1 << i), out=tmp)
            tmp &= _TABLE_LOW[i]
            out |= tmp
        else:
            half = 1 << (i - 6)
            out.reshape(-1, 2, half)[:, 0] |= src.reshape(-1, 2, half)[:, 1]


def table_inclusion_maximal(closed):
    """Clear, in place, every set entry of the boolean table ``closed``
    that another set entry strictly contains."""
    n = closed.size.bit_length() - 1
    packed = np.packbits(closed, bitorder="little")
    if packed.size < 8:
        packed = np.pad(packed, (0, 8 - packed.size))
    sup = packed.view("<u8")
    _table_above(sup, n, sup)
    above = np.zeros_like(sup)
    _table_above(sup, n, above)
    above_bytes = above.view(np.uint8)
    for start in range(0, closed.size, _TABLE_BLOCK):
        bits = np.unpackbits(
            above_bytes[start >> 3 : (start + _TABLE_BLOCK) >> 3],
            count=min(_TABLE_BLOCK, closed.size - start),
            bitorder="little",
        )
        closed[start : start + _TABLE_BLOCK] &= bits == 0


def _table_keep_where(closed, weight, test, value):
    for start in range(0, closed.size, _TABLE_BLOCK):
        block = slice(start, start + _TABLE_BLOCK)
        closed[block] &= test(weight[block], value)


def _table_lexicographic_first(tie):
    chosen = base = 0
    while not tie[0]:
        k = next(k for k in range(tie.size.bit_length()) if tie[1 << k :: 2 << k].any())
        chosen |= 1 << (base + k)
        tie = tie[1 << k :: 2 << k]
        base += k + 1
    return chosen


def brute_force_table_reference(inst: WeightedInstance) -> Solution:
    """The earlier ``brute_force``, no cap: closure and weight tables of
    all 2^n masks, narrowed in place to the answer."""
    total = inst.total_weight()
    dtype = next((d for d in (np.int16, np.int32) if total <= np.iinfo(d).max), np.int64)
    weights = np.asarray(inst.weights, dtype=dtype)
    budget = min(inst.budget, total)
    succ, pred = neighbour_masks(inst.graph)
    if inst.kind.is_weak:
        closed, weight = table_weak_closed_subsets(np.array(pred, dtype=np.int64), weights)
    else:
        closed, weight = table_closed_subsets(np.array(succ, dtype=np.int64), weights)
    _table_keep_where(closed, weight, np.less_equal, budget)
    if inst.kind.is_maximal:
        table_inclusion_maximal(closed)
        best = int(weight.min(where=closed, initial=budget))
    else:
        best = int(weight.max(where=closed, initial=0))
    _table_keep_where(closed, weight, np.equal, best)
    return Solution(frozenset(mask_nodes(_table_lexicographic_first(closed))), best)
