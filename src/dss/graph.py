"""Simple digraphs with the traversal and structure machinery the solvers need.

Nodes are dense integers 0..n-1.  Graphs are immutable and hashable.
The structural predicates behind ``classify`` and the condensation live
here; the condensation is built once per graph and kept on it.

This module owns the mask representation of node sets that the solvers
share: a set is a Python int with bit v set for node v.
``neighbour_masks`` gives every node's out- and in-neighbour masks and
``mask_nodes`` lists the nodes of a mask.  The PTAS and the brute-force
oracle both build their masks here, once per call; ``Digraph`` keeps
none.
"""
from __future__ import annotations

import enum
import heapq
import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np


class GraphError(ValueError):
    """Input graph violates a structural precondition."""


class GraphClass(enum.Enum):
    GENERAL = "general"
    DAG = "dag"
    FOREST = "forest"
    ORIENTED_TREE = "oriented-tree"
    OUT_ROOTED_TREE = "out-rooted-tree"
    IN_ROOTED_TREE = "in-rooted-tree"
    TOURNAMENT = "tournament"
    BALANCED_DEGREE_TWO = "balanced-degree-two"


def sorted_pairs(n: int, pairs: list) -> Optional[tuple]:
    """``pairs`` in increasing order, as a tuple of the caller's own pair
    objects; None when a pair is not two int64 values in ``range(n)``, is
    a loop or repeats another.

    One numpy sort of the codes ``u*n + v`` replaces a set and a sort of
    tuples.  numpy also converts ``1.0`` or ``"1"`` to ``1``; ``Digraph``
    rejects such ids when it indexes its adjacency lists by them.
    """
    m = len(pairs)
    if m == 0:
        return ()
    try:
        flat = np.fromiter(itertools.chain.from_iterable(pairs), dtype=np.int64, count=2 * m)
    except (TypeError, ValueError, OverflowError):
        return None
    tail, head = flat[0::2], flat[1::2]
    if flat.min() < 0 or flat.max() >= n or (tail == head).any():
        return None
    code = tail * n
    code += head
    del flat, tail, head
    order = np.argsort(code)
    code = code[order]
    if (code[1:] == code[:-1]).any():
        return None
    return tuple(np.fromiter(pairs, dtype=object, count=m)[order])


def _arc_error(n: int, arcs: list) -> GraphError:
    """Why ``arcs`` cannot be the arcs of a digraph on ``n`` nodes: an arc
    that is not a pair of integers, else a duplicate, else the first arc
    in sorted order that is out of range or a loop."""
    try:
        pairs = [(operator.index(u), operator.index(v)) for u, v in arcs]
    except (TypeError, ValueError):
        pairs = None
    if pairs is not None:
        if len(set(pairs)) != len(pairs):
            return GraphError("duplicate arc")
        for u, v in sorted(pairs):
            if not (0 <= u < n and 0 <= v < n):
                return GraphError(f"arc ({u},{v}) out of range for n={n}")
            if u == v:
                return GraphError(f"loop at node {u}")
    return GraphError("arcs must be pairs of integer node ids")


class Digraph:
    """Immutable simple digraph: no loops, no duplicate arcs."""

    __slots__ = ("n", "arcs", "out_adj", "in_adj", "_condensed")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]]):
        if n < 0:
            raise GraphError("node count must be nonnegative")
        # A list or tuple is read in place; a one-shot iterable is copied,
        # since ``_arc_error`` must read the arcs again.
        raw = arcs if isinstance(arcs, (list, tuple)) else list(arcs)
        ordered = sorted_pairs(n, raw)
        if ordered is None:
            raise _arc_error(n, raw)
        out_adj: list = [[] for _ in range(n)]
        in_adj: list = [[] for _ in range(n)]
        try:
            for u, v in ordered:
                out_adj[u].append(v)
                in_adj[v].append(u)
        except (TypeError, ValueError):  # ids numpy took for integers, e.g. 1.0
            raise _arc_error(n, raw) from None
        # Each list becomes a tuple in place, so the lists and the tuples
        # are never all alive at once.
        for adj in (out_adj, in_adj):
            for v, nbrs in enumerate(adj):
                adj[v] = tuple(nbrs)
        self.n = n
        self.arcs = ordered
        self.out_adj = tuple(out_adj)
        self.in_adj = tuple(in_adj)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Digraph)
            and self.n == other.n
            and self.arcs == other.arcs
        )

    def __hash__(self) -> int:
        return hash((self.n, self.arcs))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={list(self.arcs)!r})"

    def nodes(self) -> range:
        return range(self.n)

    def _check_nodes(self, s: Iterable[int]) -> set[int]:
        out = set(s)
        for v in out:
            if not (0 <= v < self.n):
                raise GraphError(f"node id {v} out of range")
        return out


def neighbour_masks(g: Digraph) -> tuple[list[int], list[int]]:
    """``(succ, pred)``: bit u of ``succ[v]`` is set when v -> u is an arc,
    bit u of ``pred[v]`` when u -> v is."""
    succ = [0] * g.n
    pred = [0] * g.n
    for u, v in g.arcs:
        succ[u] |= 1 << v
        pred[v] |= 1 << u
    return succ, pred


def mask_nodes(m: int) -> Iterator[int]:
    """Set bit positions of ``m``, lowest first."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def is_dag(g: Digraph) -> bool:
    return len(_topological_order(g)) == g.n


def _topological_order(g: Digraph) -> list[int]:
    """Kahn's algorithm; returns fewer than n nodes when a circuit exists."""
    indeg = [len(g.in_adj[v]) for v in range(g.n)]
    ready = [v for v in range(g.n) if indeg[v] == 0]
    order = []
    while ready:
        u = ready.pop()
        order.append(u)
        for v in g.out_adj[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    return order


@dataclass(frozen=True)
class Condensation:
    """DAG-of-SCCs view.  Components are numbered in topological order,
    ties broken by smallest member node id, so numbering is reproducible."""

    dag: Digraph
    component_of: tuple[int, ...]
    component_weight: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]


def _strongly_connected_components(g: Digraph) -> list[list[int]]:
    """Iterative Tarjan; components in reverse topological discovery order."""
    index = [-1] * g.n
    low = [0] * g.n
    on_stack = [False] * g.n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(g.n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for i in range(pi, len(g.out_adj[v])):
                w = g.out_adj[v][i]
                if index[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


def _condensation(g: Digraph) -> tuple:
    """(dag, component_of, members) of ``g``."""
    comps = _strongly_connected_components(g)
    raw_of = [0] * g.n
    for ci, comp in enumerate(comps):
        for v in comp:
            raw_of[v] = ci
    raw_arcs = {
        (raw_of[u], raw_of[v]) for u, v in g.arcs if raw_of[u] != raw_of[v]
    }
    # Renumber components: topological order, ties by smallest member id.
    k = len(comps)
    succ: list[set[int]] = [set() for _ in range(k)]
    indeg = [0] * k
    for a, b in raw_arcs:
        succ[a].add(b)
    for a in range(k):
        for b in succ[a]:
            indeg[b] += 1
    ready = [(min(comps[c]), c) for c in range(k) if indeg[c] == 0]
    heapq.heapify(ready)
    new_id = [-1] * k
    order = []
    while ready:
        _, c = heapq.heappop(ready)
        new_id[c] = len(order)
        order.append(c)
        for b in succ[c]:
            indeg[b] -= 1
            if indeg[b] == 0:
                heapq.heappush(ready, (min(comps[b]), b))
    dag = Digraph(k, [(new_id[a], new_id[b]) for a, b in raw_arcs])
    members = tuple(tuple(sorted(comps[c])) for c in order)
    component_of = tuple(new_id[raw_of[v]] for v in range(g.n))
    return dag, component_of, members


def condense(g: Digraph, weights: Iterable[int]) -> Condensation:
    """The structure is built on the first call and kept on ``g``; the
    component weights are summed on each call."""
    w = tuple(weights)
    if len(w) != g.n:
        raise GraphError("weight vector length must equal node count")
    try:
        dag, component_of, members = g._condensed
    except AttributeError:
        dag, component_of, members = g._condensed = _condensation(g)
    component_weight = tuple(sum(w[v] for v in m) for m in members)
    return Condensation(dag, component_of, component_weight, members)


def is_underlying_forest(g: Digraph) -> bool:
    """True when the underlying undirected graph is acyclic and simple:
    an opposite arc pair joins two nodes already joined, so it is a cycle."""
    if g.n and len(g.arcs) >= g.n:
        return False  # a forest has at most n - 1 edges
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.arcs:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def is_underlying_connected(g: Digraph) -> bool:
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


def is_underlying_tree(g: Digraph) -> bool:
    """A forest with n - 1 edges has one component."""
    return len(g.arcs) == max(g.n - 1, 0) and is_underlying_forest(g)


def is_tournament(g: Digraph) -> bool:
    """Exactly one arc between every pair of distinct nodes."""
    if len(g.arcs) != g.n * (g.n - 1) // 2:
        return False
    # With n(n-1)/2 distinct arcs and no loops, every pair holds exactly
    # one arc iff no pair holds two.
    return all(set(g.out_adj[v]).isdisjoint(g.in_adj[v]) for v in range(g.n))


def is_balanced_degree_two(g: Digraph) -> bool:
    """Every node has in-degree 2 and out-degree 2 (Eulerian case)."""
    if g.n == 0:
        return False
    return all(
        len(g.out_adj[v]) == 2 and len(g.in_adj[v]) == 2 for v in range(g.n)
    )


def is_out_rooted_tree(g: Digraph) -> bool:
    """Oriented tree where every node but the unique anti-root has
    out-degree 1 (all arcs point toward the anti-root)."""
    return g.n > 0 and all(len(a) <= 1 for a in g.out_adj) and is_underlying_tree(g)


def is_in_rooted_tree(g: Digraph) -> bool:
    return g.n > 0 and all(len(a) <= 1 for a in g.in_adj) and is_underlying_tree(g)


def classify(g: Digraph) -> GraphClass:
    """Most specific class label.  Tournament and the balanced Eulerian
    class take priority over the tree/DAG ladder; solvers should query
    the specific predicates rather than trust the single label.  A
    forest with n - 1 arcs is a tree; the degrees tell its rooting."""
    if is_tournament(g):
        return GraphClass.TOURNAMENT
    if is_balanced_degree_two(g):
        return GraphClass.BALANCED_DEGREE_TWO
    if not is_dag(g):
        return GraphClass.GENERAL
    if not is_underlying_forest(g):
        return GraphClass.DAG
    if len(g.arcs) != g.n - 1:
        return GraphClass.FOREST
    if all(len(a) <= 1 for a in g.out_adj):
        return GraphClass.OUT_ROOTED_TREE
    if all(len(a) <= 1 for a in g.in_adj):
        return GraphClass.IN_ROOTED_TREE
    return GraphClass.ORIENTED_TREE
