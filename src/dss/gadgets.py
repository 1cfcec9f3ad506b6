"""Hard-instance generators (constructive reductions) and random instances.

The three reductions turn classic hard problems into instances of the
digraph-constrained subset-sum problems:

- ``clique_to_ssg``: clique in a regular graph -> exact-weight target in
  a 3-regular-degree digraph of vertex circuits joined by 6-node gadgets.
- ``cardinality_to_maximal``: cardinality-constrained exact selection ->
  maximal minimization threshold on a DAG with a unique sink.
- ``graph_to_ssgw``: independent sets / independent dominating sets ->
  weak-closure optima on a two-layer DAG with maximum in-degree 2.

Every generator is deterministic; ``random_instance`` is deterministic
given its seed.
"""
from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .graph import Digraph, GraphClass, is_dag, is_underlying_connected
from .instance import InstanceError, ProblemKind, WeightedInstance


@dataclass(frozen=True)
class UndirectedGraph:
    """Simple undirected graph on nodes 0..n-1, held as the ``Digraph``
    of its edges, each edge an arc from its smaller end."""

    n: int
    edges: tuple[tuple[int, int], ...]
    graph: Digraph = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            graph = Digraph(self.n, [(u, v) if u < v else (v, u) for u, v in self.edges])
        except (TypeError, ValueError):  # GraphError is a ValueError
            raise _edge_error(self.n, self.edges) from None
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "edges", graph.arcs)

    def neighbours(self, v: int) -> list[int]:
        # Arcs run from the smaller end, so the in-neighbours are the
        # smaller neighbours and the out-neighbours the larger, each sorted.
        return [*self.graph.in_adj[v], *self.graph.out_adj[v]]

    def degree(self, v: int) -> int:
        return len(self.graph.in_adj[v]) + len(self.graph.out_adj[v])

    def is_regular(self) -> Optional[int]:
        degs = set(map(self.degree, range(self.n)))
        return degs.pop() if len(degs) == 1 else None

    def is_connected(self) -> bool:
        return is_underlying_connected(self.graph)


def _edge_error(n: int, edges) -> InstanceError:
    """Why ``edges`` cannot be the edges of a simple graph on ``n`` nodes:
    an edge that is not a pair of integers, else a repeat or a loop, else
    the first edge in sorted order that is out of range."""
    if n < 0:
        return InstanceError("node count must be nonnegative")
    try:
        pairs = [tuple(sorted(map(operator.index, e))) for e in edges]
    except TypeError:
        pairs = None
    if pairs is None or any(len(e) != 2 for e in pairs):
        return InstanceError("edges must be pairs of integer node ids")
    if len(set(pairs)) != len(pairs) or any(u == v for u, v in pairs):
        return InstanceError("edges must be simple and loop-free")
    u, v = min(e for e in pairs if not (0 <= e[0] < n and 0 <= e[1] < n))
    return InstanceError(f"edge ({u},{v}) out of range")


# ---------------------------------------------------------------------------
# Clique reduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliqueGadgetSpec:
    source: UndirectedGraph
    clique_size: int

    def __post_init__(self):
        delta = self.source.is_regular()
        if delta is None or delta < 2:
            raise InstanceError("source must be regular of degree >= 2")
        if not self.source.is_connected():
            raise InstanceError("source must be connected")
        if self.clique_size < 2:
            raise InstanceError("clique size must be at least 2")

    @property
    def delta(self) -> int:
        return self.source.is_regular()

    @property
    def budget(self) -> int:
        d, n, k = self.delta, self.source.n, self.clique_size
        return 3 * d * n * k * (k - 1) + d * k


# Internal wiring of the 6-node edge gadget, with local ids 1 = entry on
# the smaller endpoint's side and 6 = entry on the larger endpoint's side.
_GADGET_ARCS = ((1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (5, 2), (3, 6), (6, 4))


def clique_to_ssg(spec: CliqueGadgetSpec) -> tuple[WeightedInstance, list[str]]:
    """Instance whose budget is hit exactly iff the source has a clique
    of the requested size."""
    src = spec.source
    delta = spec.delta
    n = src.n
    circuit_id: dict[tuple[int, int], int] = {}
    labels: list[str] = []
    for i in range(n):
        for j in src.neighbours(i):
            circuit_id[(i, j)] = len(labels)
            labels.append(f"c{i}_{j}")
    gadget_id: dict[tuple[int, int, int], int] = {}
    for x, y in src.edges:
        for t in range(1, 7):
            gadget_id[(x, y, t)] = len(labels)
            labels.append(f"h{x}_{y}_{t}")
    arcs = []
    for i in range(n):
        ring = [circuit_id[(i, j)] for j in src.neighbours(i)]
        for a, b in zip(ring, ring[1:] + ring[:1]):
            arcs.append((a, b))
    for x, y in src.edges:
        for a, b in _GADGET_ARCS:
            arcs.append((gadget_id[(x, y, a)], gadget_id[(x, y, b)]))
        arcs.append((gadget_id[(x, y, 1)], circuit_id[(x, y)]))
        arcs.append((gadget_id[(x, y, 6)], circuit_id[(y, x)]))
    weights = [0] * len(labels)
    for key, vid in circuit_id.items():
        weights[vid] = 1
    for key, vid in gadget_id.items():
        weights[vid] = delta * n
    inst = WeightedInstance(
        Digraph(len(labels), arcs), tuple(weights), spec.budget, ProblemKind.SSG
    )
    return inst, labels


# ---------------------------------------------------------------------------
# Cardinality-to-maximal reduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MaximalGadgetSpec:
    """Cardinality-constrained source: DAG, weights in [1, budget - p],
    target cardinality p and exact-weight target budget."""

    graph: Digraph
    weights: tuple[int, ...]
    p: int
    budget: int

    def __post_init__(self):
        if not is_dag(self.graph):
            raise InstanceError("source graph must be a DAG")
        if not (1 <= self.p <= self.graph.n):
            raise InstanceError("p must be in 1..n")
        if any(not (1 <= w <= self.budget - self.p) for w in self.weights):
            raise InstanceError("weights must lie in [1, budget - p]")

    @property
    def out_budget(self) -> int:
        p, b = self.p, self.budget
        return p**3 * b + 3 * p**2 * b + b - 1

    @property
    def threshold(self) -> int:
        p, b = self.p, self.budget
        return p**3 * b + 2 * p**2 * b + b


def cardinality_to_maximal(
    spec: MaximalGadgetSpec,
) -> tuple[WeightedInstance, list[str], int]:
    """Maximal-minimization instance plus its decision threshold q.

    The source admits a closed p-subset of weight exactly its budget iff
    the output admits a maximal feasible set of weight at most q.
    """
    g = spec.graph
    n = g.n
    p, b = spec.p, spec.budget
    shift = p**2 * b + p * b
    weights = [w + shift for w in spec.weights] + [p**2 * b] * (p + 1)
    arcs = list(g.arcs)
    sinks = [v for v in range(n) if not g.out_adj[v]]
    for u in sinks:
        arcs.append((u, n))  # node n is the unique sink of the chain
    for j in range(1, p + 1):
        arcs.append((n + j, n + j - 1))
    labels = [f"v{i}" for i in range(n)] + [f"d{j}" for j in range(1, p + 2)]
    inst = WeightedInstance(
        Digraph(n + p + 1, arcs),
        tuple(weights),
        spec.out_budget,
        ProblemKind.MAXIMAL_SSG,
    )
    return inst, labels, spec.threshold


# ---------------------------------------------------------------------------
# Independent-set reduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ISGadgetSpec:
    source: UndirectedGraph

    def __post_init__(self):
        if not self.source.is_connected():
            raise InstanceError("source must be connected")


def graph_to_ssgw(
    spec: ISGadgetSpec, kind: ProblemKind
) -> tuple[WeightedInstance, list[str]]:
    """Two-layer DAG whose weak-closure optima equal the source's
    independence number (SSGW) / independent domination number
    (maximal SSGW)."""
    if not kind.is_weak:
        raise InstanceError("reduction targets the weak-closure kinds")
    src = spec.source
    n, m = src.n, len(src.edges)
    labels = [f"v{i}" for i in range(n)] + [f"e{u}_{v}" for u, v in src.edges]
    # Edge node n + i has both ends of edge i as its in-neighbours.
    edge_node = np.arange(n, n + m)
    graph = Digraph.from_ids(
        n + m,
        np.concatenate((src.graph.tail, src.graph.head)),
        np.concatenate((edge_node, edge_node)),
    )
    weights = [1] * n + [n + 1] * m
    return WeightedInstance(graph, tuple(weights), n, kind), labels


# ---------------------------------------------------------------------------
# Plain subset-sum embedding
# ---------------------------------------------------------------------------


def subset_sum_to_tree(
    values, budget: int, kind: ProblemKind = ProblemKind.SSG
) -> tuple[WeightedInstance, list[str]]:
    """Out-rooted star: one leaf per value plus a weight-0 root all
    leaves point to.  Works for all four kinds."""
    values = list(values)
    if any(v < 0 for v in values):
        raise InstanceError("values must be nonnegative")
    n = len(values)
    arcs = [(i, n) for i in range(n)]
    labels = [f"x{i}" for i in range(n)] + ["r"]
    inst = WeightedInstance(
        Digraph(n + 1, arcs), tuple(values) + (0,), budget, kind
    )
    return inst, labels


# ---------------------------------------------------------------------------
# Seeded random instances
# ---------------------------------------------------------------------------

DEFAULT_ARC_PROB = 0.3


def random_instance(
    graph_class: GraphClass,
    n: int,
    weight_max: int = 10,
    budget_rule: tuple = ("fraction", 0.5),
    seed: int = 0,
    kind: ProblemKind = ProblemKind.SSG,
    arc_prob: float = DEFAULT_ARC_PROB,
) -> WeightedInstance:
    """Reproducible random instance of the requested structural class."""
    if n < 1:
        raise InstanceError("n must be at least 1")
    if weight_max < 0:
        raise InstanceError("weight_max must be nonnegative")
    if not 0 <= arc_prob <= 1:
        raise InstanceError("arc_prob must lie in [0, 1]")
    rng = random.Random(seed)
    # The arcs are tails[i] -> heads[i], drawn in a fixed order.
    tails: list[int] = []
    heads: list[int] = []
    if graph_class is GraphClass.GENERAL:
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < arc_prob:
                    tails.append(u)
                    heads.append(v)
    elif graph_class is GraphClass.DAG:
        order = list(range(n))
        rng.shuffle(order)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < arc_prob:
                    tails.append(order[i])
                    heads.append(order[j])
    elif graph_class in (GraphClass.FOREST, GraphClass.ORIENTED_TREE):
        for i in range(1, n):
            if graph_class is GraphClass.FOREST and rng.random() < 0.3:
                continue  # start a new component
            j = rng.randrange(i)
            tail, head = (i, j) if rng.random() < 0.5 else (j, i)
            tails.append(tail)
            heads.append(head)
    elif graph_class in (GraphClass.OUT_ROOTED_TREE, GraphClass.IN_ROOTED_TREE):
        perm = list(range(n))
        rng.shuffle(perm)
        for i in range(1, n):
            tails.append(perm[i])
            heads.append(perm[rng.randrange(i)])
        if graph_class is GraphClass.IN_ROOTED_TREE:
            tails, heads = heads, tails  # each arc from parent to child
    elif graph_class is GraphClass.TOURNAMENT:
        order = list(range(n))
        rng.shuffle(order)
        # Every pair i < j of positions, as an arc order[i] -> order[j].
        i, j = np.triu_indices(n, 1)
        order = np.array(order)
        tails, heads = order[i], order[j]
    elif graph_class is GraphClass.BALANCED_DEGREE_TWO:
        if n < 3:
            raise InstanceError("balanced-degree-two needs n >= 3")
        perm = list(range(n))
        rng.shuffle(perm)
        perm = np.array(perm)
        # perm[i] -> perm[i + 1] and perm[i] -> perm[i + 2], cyclically.
        tails = np.concatenate((perm, perm))
        heads = np.concatenate((np.roll(perm, -1), np.roll(perm, -2)))
    else:
        raise InstanceError(f"unsupported class {graph_class}")
    weights = tuple(rng.randint(0, weight_max) for _ in range(n))
    total = sum(weights)
    rule, value = budget_rule
    if rule == "fraction":
        if not math.isfinite(value):
            raise InstanceError("budget fraction must be finite")
        budget = int(total * value)
    elif rule == "fixed":
        budget = int(value)
    else:
        raise InstanceError(f"unknown budget rule {rule!r}")
    return WeightedInstance(Digraph.from_ids(n, tails, heads), weights, budget, kind)
