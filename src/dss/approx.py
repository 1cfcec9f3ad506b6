"""Approximation schemes for the strong-closure problems on DAGs.

Both schemes enumerate every seed subset S of at most k nodes whose
descendant closure fits the budget, then complete it greedily:

- maximization: repeatedly add the descendant set of the source with the
  largest marginal contribution, skipping sources that overshoot;
  guarantee k/(k+1) of the optimum.
- maximal minimization: repeatedly add a minimum-weight sink of the
  unselected part until nothing fits; guarantee within (k+1)/k of the
  optimum for k >= 1 and within 2 for the plain greedy (k = 0).

Both run on the condensation (``graph.condense``, which hands back an
acyclic graph as it is); the guarantees carry over because closed sets
correspond one-to-one across the condensation.

Determinism: seed subsets are enumerated in lexicographic order over
sorted node ids by increasing size; greedy tie-breaks take the smallest
node id; equal-objective candidates keep the first one found.

Representation: a node set is a Python int with bit v set for node v
(``graph``'s mask representation).  Once per call, ``_Reach`` takes the
out- and in-neighbour masks from ``graph.neighbour_masks`` and derives
from one topological order the descendant mask ``desc[v]`` (v included)
and the strict ancestor mask ``anc[v]``.  The weight of a mask is
a weighted popcount over one bit plane per bit of the weights, and the
sources (sinks) of a mask are found by OR-ing the in- (out-) neighbour
relation over the mask's bytes through per-byte lookup tables.  The
maximal minimization numbers the DAG's nodes by (weight, id) first, so
the lightest sink of the unselected part, smallest id on ties, is the
lowest set bit of its sink mask.  The mask starts from the byte tables;
adding a sink z clears bit z and sets each in-neighbour of z with no
out-neighbour left unselected.  Seeds are still enumerated by original
id (``_Reach.seeds`` maps them to bits), and the result is mapped back.

Convexity: for the maximization, ``avail`` (the nodes the greedy may
still add) starts as the complement of the seed's descendants (a
down-closed set) and of its kernel's strict ancestors (an up-closed set),
so every directed path between two nodes of ``avail`` stays inside it.
Removing the cone of a source or a single source keeps that true.  Hence
the descendants of a source z inside ``avail`` are ``desc[z] & avail``,
and discarding z changes the cone of no other source: only the new
sources it exposes need weighing.

Skipped seeds, none of which can change the output:

- maximization: the kernel of a seed S is the set of nodes of S with no
  in-neighbour in S.  Every node of S is reached from its kernel, so when
  S has an arc inside it, S and its kernel (a smaller seed, and its own
  kernel) give the same ``(base, avail)`` and the same greedy result.  The
  kernel was enumerated earlier, and only a strictly larger weight
  replaces the incumbent.
- maximal minimization: the greedy state is the unselected set alone
  (the weight is that of its complement) and one step is a function of
  it, so a run that reaches a state an earlier run passed through ends
  where that run ended.  By induction over runs, that end was weighed
  against an earlier incumbent: the earlier run either ran to it or
  itself merged into a still earlier run.  The incumbent only gets
  lighter and only a strictly smaller weight replaces it, so the run
  stops there.  Recorded are every start state ``full & ~base`` and the
  states whose size is a multiple of ``max(4, n // 8)``, which a merged
  run meets within that many steps.  Seeds with an arc inside start
  where a smaller seed did and are never built.
- maximization, exact fill: the seed loop ends once the incumbent weighs
  exactly B.  No greedy result passes B, so no later seed weighs strictly
  more, and only a strictly larger weight replaces the incumbent.
"""
from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .graph import Digraph, _topological_order, condense, mask_nodes, neighbour_masks
from .instance import ProblemKind, Solution, WeightedInstance


@dataclass(frozen=True)
class ApproxResult:
    solution: Solution
    k: int
    guarantee: Fraction


def _byte_tables(masks: list[int]) -> list[list[int]]:
    """``tables[j][b]``: OR of ``masks[8j + i]`` over the set bits i of b."""
    tables = []
    for j in range(0, len(masks), 8):
        group = masks[j : j + 8]
        t = [0] * 256
        for b in range(1, 256):
            low = b & -b
            i = low.bit_length() - 1
            t[b] = t[b ^ low] | (group[i] if i < len(group) else 0)
        tables.append(t)
    return tables


class _Reach:
    """Reachability and weight bitsets of one DAG, built once per call."""

    def __init__(self, g: Digraph, order: list[int], weights: list[int]):
        n = g.n
        self.full = (1 << n) - 1
        self.succ, self.pred = neighbour_masks(g)
        self.desc = [0] * n
        for v in reversed(order):
            m = 1 << v
            for u in g.out_adj[v]:
                m |= self.desc[u]
            self.desc[v] = m
        self.anc = [0] * n
        for v in order:
            m = 0
            for p in g.in_adj[v]:
                m |= self.anc[p] | 1 << p
            self.anc[v] = m
        self.weights = weights
        self._planes = [
            (b, p)
            for b in range(max(weights, default=0).bit_length())
            if (p := sum(1 << v for v, w in enumerate(weights) if w >> b & 1))
        ]
        self._nbytes = (n + 7) // 8

    def weigh(self, m: int) -> int:
        w = 0
        for b, p in self._planes:
            w += (m & p).bit_count() << b
        return w

    def _union(self, tables: list[list[int]], m: int) -> int:
        out = 0
        for t, b in zip(tables, m.to_bytes(self._nbytes, "little")):
            out |= t[b]
        return out

    @cached_property
    def _succ_of(self) -> list[list[int]]:
        return _byte_tables(self.succ)

    @cached_property
    def _pred_of(self) -> list[list[int]]:
        return _byte_tables(self.pred)

    def sources(self, m: int) -> int:
        return m & ~self._union(self._succ_of, m)

    def sinks(self, m: int) -> int:
        return m & ~self._union(self._pred_of, m)

    def seeds(
        self, k: int, budget: int, label: Sequence[int]
    ) -> Iterator[tuple[int, int, int]]:
        """``(seed, base, base weight)`` for every seed of at most k nodes
        with no arc inside and ``base = descendants(seed)`` within budget,
        by increasing size, then lexicographically over the original ids;
        ``label[v]`` is the bit of original node v in this DAG's masks."""
        n = len(self.desc)
        for size in range(min(k, n) + 1):
            for combo in itertools.combinations(label, size):
                seed = base = near = 0
                for v in combo:
                    if near >> v & 1:
                        break
                    seed |= 1 << v
                    base |= self.desc[v]
                    near |= self.succ[v] | self.pred[v]
                else:
                    base_w = self.weigh(base)
                    if base_w <= budget:
                        yield seed, base, base_w


def _condensed_view(inst: WeightedInstance):
    """(dag, topological order, weights, expand) with expand mapping a
    component mask back to nodes."""
    cond = condense(inst.graph, inst.weights)

    def expand(comps):
        return {v for c in mask_nodes(comps) for v in cond.members[c]}

    return cond.dag, _topological_order(cond.dag), list(cond.component_weight), expand


def _fill_max(r: _Reach, budget: int, sol: int, sol_w: int, avail: int) -> tuple[int, int]:
    """Add whole cones of sources of ``avail`` by largest weight, discarding
    a source whose cone overshoots; returns the final (sol, weight)."""
    while avail:
        heap = [(-r.weigh(r.desc[s] & avail), s) for s in mask_nodes(r.sources(avail))]
        heapq.heapify(heap)
        while heap:
            neg_w, z = heapq.heappop(heap)
            if sol_w - neg_w <= budget:
                cone = r.desc[z] & avail
                sol |= cone
                sol_w -= neg_w
                avail &= ~cone
                break
            avail &= ~(1 << z)
            for v in mask_nodes(r.succ[z] & avail):
                if not r.pred[v] & avail:
                    heapq.heappush(heap, (-r.weigh(r.desc[v] & avail), v))
    return sol, sol_w


def ptas_ssg(inst: WeightedInstance, k: int) -> ApproxResult:
    """Seed-enumeration PTAS for the strong-closure maximization problem."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if inst.kind is not ProblemKind.SSG:
        raise ValueError("ptas_ssg expects the maximization kind")
    g, order, weights, expand = _condensed_view(inst)
    r = _Reach(g, order, weights)
    best, best_w = 0, -1
    for seed, base, base_w in r.seeds(k, inst.budget, range(g.n)):
        up = 0
        for v in mask_nodes(seed):
            up |= r.anc[v]
        sol, w = _fill_max(r, inst.budget, base, base_w, r.full & ~up & ~base)
        if w > best_w:
            best, best_w = sol, w
            if best_w == inst.budget:
                break
    nodes = expand(best)
    guarantee = Fraction(1, 2) if k == 0 else Fraction(k, k + 1)
    return ApproxResult(Solution.from_nodes(inst, nodes), k, guarantee)


def _fill_min(r: _Reach, budget: int, avail: int, w: int, seen: set[int]):
    """Add the lowest sink of ``avail`` while it fits, on a ``_Reach``
    numbered by (weight, id), where the lowest sink is the lightest;
    returns the final (avail, weight), or None once the run reaches a
    state in ``seen``.  Records in ``seen`` the start state and the states
    whose size is a multiple of ``max(4, n // 8)``."""
    if avail in seen:
        return None
    seen.add(avail)
    weights, succ, pred = r.weights, r.succ, r.pred
    step = max(4, len(weights) // 8)
    left = avail.bit_count()
    sinks = r.sinks(avail)
    while sinks:
        low = sinks & -sinks
        z = low.bit_length() - 1
        if w + weights[z] > budget:
            break
        w += weights[z]
        avail ^= low
        sinks ^= low
        up = pred[z] & avail
        while up:
            p = up & -up
            if not succ[p.bit_length() - 1] & avail:
                sinks |= p
            up ^= p
        left -= 1
        if left % step == 0:
            if avail in seen:
                return None
            seen.add(avail)
    return avail, w


def ptas_maximal_ssg(inst: WeightedInstance, k: int) -> ApproxResult:
    """Seed-enumeration PTAS for the maximal strong-closure minimization."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if inst.kind is not ProblemKind.MAXIMAL_SSG:
        raise ValueError("ptas_maximal_ssg expects the maximal kind")
    g, order, weights, expand = _condensed_view(inst)
    node_of = sorted(range(g.n), key=lambda v: (weights[v], v))
    rank = [0] * g.n
    for i, v in enumerate(node_of):
        rank[v] = i
    relabel = np.array(rank, dtype=np.int64)
    r = _Reach(
        Digraph.from_ids(g.n, relabel[g.tail], relabel[g.head]),
        [rank[v] for v in order],
        [weights[v] for v in node_of],
    )
    best, best_w = r.full, None
    seen = set()
    for _seed, base, w in r.seeds(k, inst.budget, rank):
        end = _fill_min(r, inst.budget, r.full & ~base, w, seen)
        if end is not None and (best_w is None or end[1] < best_w):
            best, best_w = r.full & ~end[0], end[1]
    nodes = expand(sum(1 << node_of[i] for i in mask_nodes(best)))
    guarantee = Fraction(2) if k == 0 else Fraction(k + 1, k)
    return ApproxResult(Solution.from_nodes(inst, nodes), k, guarantee)
