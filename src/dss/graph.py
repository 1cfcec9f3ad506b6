"""Simple digraphs with the traversal and structure machinery the solvers need.

Nodes are dense integers 0..n-1.  Graphs are immutable and hashable.
A ``Digraph`` stores its arcs as two sorted int64 id arrays, ``tail`` and
``head``.  Code that produces graphs hands them over as two id lists or
arrays (``Digraph.from_ids``); ``Digraph(n, arcs)`` takes pairs and checks
them first.  The sorted tuple of pairs ``arcs`` and the adjacency tuples
``out_adj`` and ``in_adj`` are built on first read and kept, so a graph
that is only written out or counted never builds them.  The structural
predicates behind ``classify`` and the condensation live here: degree
tests use ``np.bincount`` over the arrays.  ``condense`` alone knows that
an acyclic graph is its own condensation; a cyclic one's is kept on it.

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
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable, Iterator

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


def _arc_error(n: int, arcs) -> GraphError:
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


def _adjacency(n: int, src: np.ndarray, dst: np.ndarray) -> tuple:
    """Per node v the tuple of ``dst[i]`` over the arcs i with
    ``src[i] == v``, in arc order."""
    adj: list = [[] for _ in range(n)]
    for u, v in zip(src.tolist(), dst.tolist()):
        adj[u].append(v)
    # Each list becomes a tuple in place, so the lists and the tuples are
    # never all alive at once.
    for v, nbrs in enumerate(adj):
        adj[v] = tuple(nbrs)
    return tuple(adj)


class Digraph:
    """Immutable simple digraph: no loops, no duplicate arcs.

    The arcs are held as two read-only int64 arrays, ``tail`` and
    ``head``, sorted by (tail, head); ``m`` is their length.  ``arcs``
    (the sorted tuple of pairs), ``out_adj`` and ``in_adj`` (a tuple of
    neighbour tuples per node, each sorted) are built on first read and
    kept.
    """

    __slots__ = ("n", "m", "tail", "head", "arcs", "out_adj", "in_adj", "_condensed")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]]):
        if n < 0:
            raise GraphError("node count must be nonnegative")
        # A list or tuple is read in place; a one-shot iterable is copied,
        # since ``_arc_error`` must read the arcs again.
        raw = arcs if isinstance(arcs, (list, tuple)) else list(arcs)
        # Each arc must be a pair of integers: ``operator.index`` refuses
        # ``1.0`` and ``"1"``, which numpy alone would read as 1.
        try:
            if not set(map(len, raw)) <= {2}:
                raise TypeError
            tail, head = (
                np.fromiter(map(operator.index, map(operator.itemgetter(i), raw)), np.int64, len(raw))
                for i in (0, 1)
            )
        except (TypeError, ValueError, OverflowError):
            raise _arc_error(n, raw) from None
        self._fill(n, tail, head, raw)

    @classmethod
    def from_ids(cls, n: int, tail, head) -> Digraph:
        """The digraph on ``n`` nodes with an arc ``tail[i] -> head[i]``
        for each i: two id lists or arrays of one length, in any order."""
        g = object.__new__(cls)
        g._fill(n, tail, head, None)
        return g

    def _fill(self, n: int, tail, head, raw) -> None:
        """Check the arcs ``tail[i] -> head[i]``, sort them and set ``n``,
        ``m``, ``tail`` and ``head``.  ``raw`` is the caller's list of
        pairs, read again for the error, or None."""
        try:
            tail = np.asarray(tail, dtype=np.int64)
            head = np.asarray(head, dtype=np.int64)
        except OverflowError:  # an id beyond int64
            bad = True
        else:
            bad = len(tail) and (
                min(tail.min(), head.min()) < 0
                or max(tail.max(), head.max()) >= n
                or (tail == head).any()
            )
        if bad:
            raise _arc_error(n, list(zip(tail, head)) if raw is None else raw)
        # Sort the codes u*n + v, which cannot overflow once the ids lie in
        # range(n); a repeated arc shows as two equal neighbours.
        code = tail * n
        code += head
        code.sort()
        if (code[1:] == code[:-1]).any():
            raise GraphError("duplicate arc")
        tail = code // n
        head = np.remainder(code, n, out=code)
        tail.flags.writeable = head.flags.writeable = False
        self.n, self.m, self.tail, self.head = n, len(code), tail, head

    def __getattr__(self, name: str):
        # Python calls this only for a slot not yet set.
        if name == "arcs":
            value = tuple(zip(self.tail.tolist(), self.head.tolist()))
        elif name == "out_adj":
            value = _adjacency(self.n, self.tail, self.head)
        elif name == "in_adj":
            # Arcs are sorted by tail, so each node's in-neighbours arrive
            # in increasing order.
            value = _adjacency(self.n, self.head, self.tail)
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, name, value)
        return value

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Digraph)
            and self.n == other.n
            and np.array_equal(self.tail, other.tail)
            and np.array_equal(self.head, other.head)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.tail.tobytes(), self.head.tobytes()))

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
    for u, v in zip(g.tail.tolist(), g.head.tolist()):
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
    out_adj = g.out_adj
    indeg = np.bincount(g.head, minlength=g.n)
    order = np.flatnonzero(indeg == 0).tolist()
    indeg = indeg.tolist()
    for u in order:
        for v in out_adj[u]:
            indeg[v] -= 1
            if not indeg[v]:
                order.append(v)
    return order


@dataclass(frozen=True)
class Condensation:
    """DAG-of-SCCs view.  An acyclic graph is its own condensation:
    ``dag`` is the graph, component v is node v.  Otherwise components
    are numbered in topological order, ties broken by smallest member."""

    dag: Digraph
    component_of: Sequence[int]
    component_weight: tuple[int, ...]
    members: Sequence[tuple[int, ...]]


class _Singletons(Sequence):
    """``(c,)`` for each component c of an acyclic graph, made on access."""

    def __init__(self, n: int):
        self.ids = range(n)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, c: int) -> tuple[int]:
        return (self.ids[c],)

    def __iter__(self) -> Iterator[tuple[int]]:
        return zip(self.ids)


def _strongly_connected_components(g: Digraph) -> list[list[int]]:
    """Iterative Tarjan; components in reverse topological discovery order.
    Each frame of the DFS holds an iterator over its node's out-neighbours,
    so a resumed node goes on where it left off."""
    out_adj = g.out_adj
    index = [-1] * g.n
    low = [0] * g.n
    on_stack = [False] * g.n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(g.n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(out_adj[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(out_adj[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    pv = work[-1][0]
                    if low[v] < low[pv]:
                        low[pv] = low[v]
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
    """(dag, component_of, members) of a cyclic ``g``."""
    comps = _strongly_connected_components(g)
    k = len(comps)
    raw_of = [0] * g.n
    for ci, comp in enumerate(comps):
        for v in comp:
            raw_of[v] = ci
    raw_of = np.array(raw_of, dtype=np.int64)
    # The arcs between components, each once, sorted: codes a*k + b.
    a, b = raw_of[g.tail], raw_of[g.head]
    cross = a != b
    a, b = np.divmod(np.unique(a[cross] * k + b[cross]), k)
    # Renumber components: topological order, ties by smallest member id.
    succ: list[list[int]] = [[] for _ in range(k)]
    for x, y in zip(a.tolist(), b.tolist()):
        succ[x].append(y)
    indeg = np.bincount(b, minlength=k).tolist()
    least = [min(comp) for comp in comps]
    ready = [(least[c], c) for c in range(k) if indeg[c] == 0]
    heapq.heapify(ready)
    new_id = [-1] * k
    order = []
    while ready:
        _, c = heapq.heappop(ready)
        new_id[c] = len(order)
        order.append(c)
        for y in succ[c]:
            indeg[y] -= 1
            if indeg[y] == 0:
                heapq.heappush(ready, (least[y], y))
    renumber = np.array(new_id, dtype=np.int64)
    dag = Digraph.from_ids(k, renumber[a], renumber[b])
    members = tuple(tuple(sorted(comps[c])) for c in order)
    component_of = tuple(renumber[raw_of].tolist())
    return dag, component_of, members


def condense(g: Digraph, weights: Iterable[int]) -> Condensation:
    """The structure is kept on ``g`` (None when ``g`` is acyclic) from
    the first call; the component weights are summed on each call."""
    w = tuple(weights)
    if len(w) != g.n:
        raise GraphError("weight vector length must equal node count")
    try:
        kept = g._condensed
    except AttributeError:
        kept = g._condensed = None if is_dag(g) else _condensation(g)
    if kept is None:
        return Condensation(g, range(g.n), w, _Singletons(g.n))
    dag, component_of, members = kept
    component_weight = tuple(sum(w[v] for v in m) for m in members)
    return Condensation(dag, component_of, component_weight, members)


def _at_most_one_each(ids: np.ndarray) -> bool:
    """No id occurs twice in ``ids``: as tails, out-degrees at most 1; as
    heads, in-degrees at most 1."""
    return ids.size == 0 or int(np.bincount(ids).max()) <= 1


def _underlying_merges(g: Digraph) -> int:
    """Arcs, in sorted order, that join two components of the underlying
    undirected graph built from the arcs before them (union-find)."""
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    merges = 0
    for u, v in zip(g.tail.tolist(), g.head.tolist()):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            merges += 1
    return merges


def is_underlying_forest(g: Digraph) -> bool:
    """True when the underlying undirected graph is acyclic and simple, so
    it has at most n - 1 edges; an opposite arc pair is a cycle of two."""
    return (g.n == 0 or g.m < g.n) and _underlying_merges(g) == g.m


def is_underlying_connected(g: Digraph) -> bool:
    return g.n == 0 or _underlying_merges(g) == g.n - 1


def is_underlying_tree(g: Digraph) -> bool:
    """A forest with n - 1 edges has one component."""
    return g.m == max(g.n - 1, 0) and is_underlying_forest(g)


def is_tournament(g: Digraph) -> bool:
    """Exactly one arc between every pair of distinct nodes."""
    n = g.n
    if g.m != n * (n - 1) // 2:
        return False
    # With n(n-1)/2 distinct arcs and no loops, every pair holds exactly
    # one arc iff no arc's reverse, as a code u*n + v, is an arc's code.
    return not np.isin(g.head * n + g.tail, g.tail * n + g.head).any()


def is_balanced_degree_two(g: Digraph) -> bool:
    """Every node has in-degree 2 and out-degree 2 (Eulerian case)."""
    if g.n == 0 or g.m != 2 * g.n:
        return False
    return bool(
        (np.bincount(g.tail, minlength=g.n) == 2).all()
        and (np.bincount(g.head, minlength=g.n) == 2).all()
    )


def is_out_rooted_tree(g: Digraph) -> bool:
    """Oriented tree where every node but the unique anti-root has
    out-degree 1 (all arcs point toward the anti-root)."""
    return g.n > 0 and _at_most_one_each(g.tail) and is_underlying_tree(g)


def is_in_rooted_tree(g: Digraph) -> bool:
    return g.n > 0 and _at_most_one_each(g.head) and is_underlying_tree(g)


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
    if g.m != g.n - 1:
        return GraphClass.FOREST
    if _at_most_one_each(g.tail):
        return GraphClass.OUT_ROOTED_TREE
    if _at_most_one_each(g.head):
        return GraphClass.IN_ROOTED_TREE
    return GraphClass.ORIENTED_TREE
