"""Feasibility verdicts: closure, weak closure, budget and maximality.

``evaluate`` reads a selection once, into a set and a boolean array over
the nodes, and tests either closure rule on the arc arrays, building no
adjacency; the witness is the smallest violating arc or node by id.
Strong maximality is the single-component test on the condensation,
which is the graph itself when it is acyclic: a closed set extends iff
some sink component of the unselected part fits the budget.  Weak
maximality uses the forcing-completion procedure: adding a node drags in
every node whose in-neighbours all become selected, and the enlarged set
must fit the budget for the extension to count.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .graph import Digraph, condense
from .instance import WeightedInstance


@dataclass(frozen=True)
class FeasibilityReport:
    satisfies_closure: bool
    satisfies_budget: bool
    satisfies_maximality: Optional[bool]  # None when not applicable / not reached
    witness: Union[tuple[int, int], int, None]
    total_weight: int

    @property
    def feasible(self) -> bool:
        return (
            self.satisfies_closure
            and self.satisfies_budget
            and self.satisfies_maximality is not False
        )


def _read(g: Digraph, s) -> tuple[set[int], np.ndarray]:
    """The selection ``s`` as a checked set and as a boolean array."""
    sel = g._check_nodes(s)
    picked = np.zeros(g.n, dtype=np.bool_)
    picked[np.fromiter(sel, np.int64, len(sel))] = True
    return sel, picked


def _witness(g: Digraph, picked: np.ndarray, weak: bool) -> Union[tuple[int, int], int, None]:
    """The smallest arc (x,y) with x selected and y not, or under the weak
    rule the smallest unselected node with in-neighbours, all selected;
    None when closed.  ``picked`` is the boolean array of the selection."""
    if weak:
        has_in = np.bincount(g.head, minlength=g.n) > 0
        missing = np.bincount(g.head[~picked[g.tail]], minlength=g.n)
        bad = np.flatnonzero(has_in & ~picked & (missing == 0))
        return int(bad[0]) if bad.size else None
    # Arcs are stored sorted, so the first violating arc is the minimal one.
    bad = np.flatnonzero(picked[g.tail] & ~picked[g.head])
    return (int(g.tail[bad[0]]), int(g.head[bad[0]])) if bad.size else None


def check_digraph_closure(g: Digraph, s) -> Optional[tuple[int, int]]:
    """First arc (x,y) with x selected and y not; None when closed."""
    return _witness(g, _read(g, s)[1], False)


def check_weak_closure(g: Digraph, s) -> Optional[int]:
    """Smallest node whose in-neighbours are all selected but which is not."""
    return _witness(g, _read(g, s)[1], True)


def weak_closure_completion(g: Digraph, s) -> set[int]:
    """Minimal superset of ``s`` closed under the weak forcing rule."""
    sel = g._check_nodes(s)
    # Count unselected in-neighbours per node; force nodes as counts hit 0.
    missing = [0] * g.n
    queue = []
    for x in range(g.n):
        ins = g.in_adj[x]
        missing[x] = sum(1 for p in ins if p not in sel)
        if ins and x not in sel and missing[x] == 0:
            queue.append(x)
    while queue:
        x = queue.pop()
        if x in sel:
            continue
        sel.add(x)
        for y in g.out_adj[x]:
            missing[y] -= 1
            if missing[y] == 0 and y not in sel:
                queue.append(y)
    return sel


def _maximality_strong(inst: WeightedInstance, picked: np.ndarray, room: int) -> Optional[int]:
    """Witness node addable under strong closure within ``room`` more
    weight, or None; ``picked`` is the boolean array of the selection.

    Works on the condensation, so it is correct on general digraphs: a
    closed set is a union of strongly connected components, and it is
    extendable iff some sink component of the unselected part fits.  A
    component counts as taken when it meets the selection, and is a sink
    when it has no untaken successor.  The witness is the smallest node
    whose component is a fitting untaken sink.
    """
    cond = condense(inst.graph, inst.weights)
    dag, comp = cond.dag, np.fromiter(cond.component_of, np.int64, inst.graph.n)
    taken = np.zeros(dag.n, dtype=np.bool_)
    taken[comp[picked]] = True
    addable = ~taken & (np.fromiter(cond.component_weight, np.int64, dag.n) <= room)
    addable[dag.tail[~taken[dag.head]]] = False
    hits = np.flatnonzero(addable[comp])
    return int(hits[0]) if hits.size else None


def _maximality_weak(inst: WeightedInstance, sel: set[int], room: int) -> Optional[int]:
    """Witness node addable under weak closure within ``room`` more
    weight, or None."""
    g, weights = inst.graph, inst.weights
    for x in range(g.n):
        if x in sel:
            continue
        grown = weak_closure_completion(g, sel | {x})
        if sum(weights[v] for v in grown - sel) <= room:
            return x
    return None


def evaluate(inst: WeightedInstance, s) -> FeasibilityReport:
    """Closure and budget verdicts for any kind, then maximality for the
    maximal kinds when both hold (the maximality definition quantifies
    over feasible supersets of a feasible set); maximality is None
    otherwise."""
    g, weak = inst.graph, inst.kind.is_weak
    sel, picked = _read(g, s)
    witness = _witness(g, picked, weak)
    total = inst.weight_of(sel)
    budget_ok = total <= inst.budget
    if not inst.kind.is_maximal or witness is not None or not budget_ok:
        return FeasibilityReport(witness is None, budget_ok, None, witness, total)
    room = inst.budget - total
    add = _maximality_weak(inst, sel, room) if weak else _maximality_strong(inst, picked, room)
    return FeasibilityReport(True, True, add is None, add, total)
