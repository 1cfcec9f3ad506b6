"""Simple digraphs with the traversal and structure machinery the solvers need.

Nodes are dense integers 0..n-1.  Graphs are immutable and hashable.
A ``Digraph`` stores its arcs as two sorted int64 id arrays, ``tail`` and
``head``.  Code that produces graphs hands them over as two id lists or
arrays (``Digraph.from_ids``); ``Digraph(n, arcs)`` takes pairs and checks
them first.  Every pass that walks arcs reads one adjacency format, int64
CSR arrays: the out-neighbours of u are ``head[out_ptr[u]:out_ptr[u+1]]``
and its in-neighbours ``in_tail[in_ptr[u]:in_ptr[u+1]]``, both sorted.
``out_ptr`` and the pair ``in_ptr``/``in_tail`` are built on first read
and kept, so a graph that is only written out or counted never builds
them, and no graph keeps a Python object per arc; ``arcs``, the sorted
tuple of pairs, is made anew on each read.  The structural predicates
behind ``classify`` and the condensation live here: degree tests use
``np.bincount`` over the arrays.  A condensation is its component map:
component c is the set of nodes v with ``component_of[v] == c``, and no
node list per component is kept.  ``condense`` alone knows that an
acyclic graph is its own condensation; a cyclic one's is kept on it.

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


def _offsets(ids: np.ndarray, n: int) -> np.ndarray:
    """CSR row offsets of arcs grouped by ``ids``: ``ptr[v]:ptr[v+1]`` are
    the positions of the arcs with id v, once they are sorted by id."""
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ids, minlength=n), out=ptr[1:])
    ptr.flags.writeable = False
    return ptr


class Digraph:
    """Immutable simple digraph: no loops, no duplicate arcs.

    The arcs are held as two read-only int64 arrays, ``tail`` and
    ``head``, sorted by (tail, head); ``m`` is their length.  The CSR
    offsets ``out_ptr`` (out-neighbours of u: ``head[out_ptr[u]:out_ptr[u+1]]``)
    and, read together, ``in_ptr`` and ``in_tail`` (in-neighbours of v:
    ``in_tail[in_ptr[v]:in_ptr[v+1]]``, the tails in a stable argsort of
    ``head``) are read-only int64 arrays built on first read and kept.
    ``arcs``, the sorted tuple of pairs, is built on each read.
    """

    __slots__ = ("n", "m", "tail", "head", "out_ptr", "in_ptr", "in_tail", "_condensed")

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

    @classmethod
    def _from_codes(cls, n: int, code: np.ndarray) -> Digraph:
        """The digraph on ``n`` nodes with an arc u -> v for each code
        u*n + v of the sorted int64 array ``code``, whose ids the caller
        has made in range and loop-free.  ``code`` is taken over."""
        g = object.__new__(cls)
        g._split(n, code)
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
        # range(n).
        code = tail * n
        code += head
        code.sort()
        self._split(n, code)

    def _split(self, n: int, code: np.ndarray) -> None:
        """Set ``n``, ``m``, ``tail`` and ``head`` from the sorted codes
        u*n + v; a repeated arc shows as two equal neighbours."""
        if (code[1:] == code[:-1]).any():
            raise GraphError("duplicate arc")
        tail = code // n
        head = np.remainder(code, n, out=code)
        tail.flags.writeable = head.flags.writeable = False
        self.n, self.m, self.tail, self.head = n, len(code), tail, head

    def __getattr__(self, name: str):
        # Python calls this only for a slot not yet set.
        if name == "out_ptr":
            self.out_ptr = _offsets(self.tail, self.n)
        elif name in ("in_ptr", "in_tail"):
            # Arcs are sorted by tail, so a stable sort by head leaves each
            # node's in-neighbours in increasing order.
            in_tail = self.tail[np.argsort(self.head, kind="stable")]
            in_tail.flags.writeable = False
            self.in_ptr, self.in_tail = _offsets(self.head, self.n), in_tail
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return object.__getattribute__(self, name)

    @property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        """The arcs as a sorted tuple of pairs, built on each read."""
        return tuple(zip(self.tail.tolist(), self.head.tolist()))

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
    ptr, head = memoryview(g.out_ptr), memoryview(g.head)
    indeg = np.bincount(g.head, minlength=g.n)
    order = np.flatnonzero(indeg == 0).tolist()
    indeg = indeg.tolist()
    for u in order:
        for v in head[ptr[u]:ptr[u + 1]]:
            indeg[v] -= 1
            if not indeg[v]:
                order.append(v)
    return order


@dataclass(frozen=True)
class Condensation:
    """DAG-of-SCCs view: component c is the set of nodes v with
    ``component_of[v] == c``, and ``component_weight[c]`` is their weight.
    An acyclic graph is its own condensation: ``dag`` is the graph and
    ``component_of`` is ``range(n)``.  Otherwise components are numbered
    in topological order, ties broken by smallest member."""

    dag: Digraph
    component_of: Sequence[int]
    component_weight: tuple[int, ...]


def _strongly_connected_components(g: Digraph) -> list[list[int]]:
    """Iterative Tarjan; components in reverse topological discovery order.
    The DFS stack holds node ids only: ``nxt[v]`` is the position in
    ``head`` of the next out-arc of v to follow, so a resumed node goes on
    where it left off."""
    ptr, head = memoryview(g.out_ptr), memoryview(g.head)
    nxt = ptr[:-1].tolist()
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
        work = [root]
        while work:
            v = work[-1]
            i, end = nxt[v], ptr[v + 1]
            while i < end:
                w = head[i]
                i += 1
                if index[w] == -1:
                    nxt[v] = i
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append(w)
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    pv = work[-1]
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
    """(dag, component_of) of a cyclic ``g``."""
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
    # The cross arcs are sorted by ``a``: their CSR is ``ptr`` over ``b``.
    ptr, succ = memoryview(_offsets(a, k)), memoryview(b)
    indeg = np.bincount(b, minlength=k).tolist()
    least = [min(comp) for comp in comps]
    ready = [(least[c], c) for c in range(k) if indeg[c] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        _, c = heapq.heappop(ready)
        order.append(c)
        for y in succ[ptr[c]:ptr[c + 1]]:
            indeg[y] -= 1
            if indeg[y] == 0:
                heapq.heappush(ready, (least[y], y))
    # ``order`` is a permutation of range(k); its inverse is the new ids.
    renumber = np.argsort(order)
    dag = Digraph.from_ids(k, renumber[a], renumber[b])
    return dag, tuple(renumber[raw_of].tolist())


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
        return Condensation(g, range(g.n), w)
    dag, component_of = kept
    # Python ints: a float64 sum would be inexact above 2^53.
    component_weight = [0] * dag.n
    for c, x in zip(component_of, w):
        component_weight[c] += x
    return Condensation(dag, component_of, tuple(component_weight))


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
