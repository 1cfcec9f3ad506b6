"""Feasibility verdicts: closure, weak closure, budget and maximality.

Witnesses are deterministic: the smallest violating arc or node by id.
Maximality for the strong-closure problems is decided by the local
single-component test on the condensation, which is the graph itself
when it is acyclic (adding any sink of the unselected part preserves
closure, and on a DAG that test is equivalent to the superset
definition).  Maximality for the weak-closure problems uses the
forcing-completion procedure: adding a node drags in every node whose
in-neighbours all become selected, and the enlarged set must fit the
budget for the extension to count.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .graph import Digraph, condense
from .instance import ProblemKind, Solution, WeightedInstance


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


def check_digraph_closure(g: Digraph, s) -> Optional[tuple[int, int]]:
    """First arc (x,y) with x selected and y not; None when closed."""
    picked = np.zeros(g.n, dtype=np.bool_)
    picked[list(g._check_nodes(s))] = True
    # Arcs are stored sorted, so the first violating arc is the minimal one.
    bad = np.flatnonzero(picked[g.tail] & ~picked[g.head])
    if bad.size == 0:
        return None
    return int(g.tail[bad[0]]), int(g.head[bad[0]])


def check_weak_closure(g: Digraph, s) -> Optional[int]:
    """Smallest node whose in-neighbours are all selected but which is not."""
    sel = g._check_nodes(s)
    for x in range(g.n):
        ins = g.in_adj[x]
        if ins and x not in sel and all(p in sel for p in ins):
            return x
    return None


def check_budget(inst: WeightedInstance, s) -> tuple[bool, int]:
    w = inst.weight_of(s)
    return w <= inst.budget, w


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


def _maximality_strong(inst: WeightedInstance, sel: set[int]) -> Optional[int]:
    """Witness node addable under strong closure + budget, or None.

    Works on the condensation, so it is correct on general digraphs: a
    closed set is a union of strongly connected components, and it is
    extendable iff some sink component of the unselected part fits.  A
    component counts as selected when it meets ``sel``.  The witness is
    the smallest member of such a sink component.
    """
    cond = condense(inst.graph, inst.weights)
    room = inst.budget - inst.weight_of(sel)
    members, out_adj = cond.members, cond.dag.out_adj
    best: Optional[int] = None
    for c, (w, nodes) in enumerate(zip(cond.component_weight, members)):
        if w > room or not sel.isdisjoint(nodes) or (best is not None and nodes[0] > best):
            continue
        for d in out_adj[c]:
            if sel.isdisjoint(members[d]):
                break  # c is not a sink of the unselected part
        else:
            best = nodes[0]
    return best


def _maximality_weak(inst: WeightedInstance, sel: set[int]) -> Optional[int]:
    """Witness node addable under weak closure + budget, or None."""
    g = inst.graph
    for x in range(g.n):
        if x in sel:
            continue
        grown = weak_closure_completion(g, sel | {x})
        if inst.weight_of(grown) <= inst.budget:
            return x
    return None


def _report(inst: WeightedInstance, s, maximal: bool) -> FeasibilityReport:
    """Closure and budget verdicts, then maximality when ``maximal`` is
    set and both hold (the maximality definition quantifies over feasible
    supersets of a feasible set)."""
    g = inst.graph
    sel = g._check_nodes(s)
    if inst.kind.is_weak:
        witness: Union[tuple[int, int], int, None] = check_weak_closure(g, sel)
    else:
        witness = check_digraph_closure(g, sel)
    budget_ok, total = check_budget(inst, sel)
    if not maximal or witness is not None or not budget_ok:
        return FeasibilityReport(witness is None, budget_ok, None, witness, total)
    if inst.kind.is_weak:
        add_witness = _maximality_weak(inst, sel)
    else:
        add_witness = _maximality_strong(inst, sel)
    return FeasibilityReport(True, True, add_witness is None, add_witness, total)


def check_maximal(inst: WeightedInstance, s) -> FeasibilityReport:
    """Full report for a maximal-kind solution candidate; maximality is
    None unless closure and budget both hold."""
    return _report(inst, s, True)


def evaluate(inst: WeightedInstance, s) -> FeasibilityReport:
    """Report for any kind; maximality is None for the non-maximal kinds."""
    return _report(inst, s, inst.kind.is_maximal)


def is_feasible(inst: WeightedInstance, s) -> bool:
    return evaluate(inst, s).feasible


def verify_solution(inst: WeightedInstance, sol: Solution) -> FeasibilityReport:
    return evaluate(inst, sol.selected)
