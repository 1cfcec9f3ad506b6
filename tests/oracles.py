"""Independent reference implementations used only by the tests.

Everything here is written against the problem definitions directly
(subset enumeration, reachability matrices, literal superset checks) and
deliberately shares no code with the library under test, except
``brute_force_oracle``: it runs the checker's own predicates on every set,
so that the vectorised brute force and the checker are held to one
definition of closure and maximality.
"""
from __future__ import annotations

import itertools
from typing import Iterable, Optional

from dss import Solution, WeightedInstance
from dss.constraints import (
    _maximality_strong,
    _maximality_weak,
    check_digraph_closure,
    check_weak_closure,
)


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


def strong_closed(arcs, s: set[int]) -> bool:
    return all(v in s for u, v in arcs if u in s)


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
    budget and passes the checker's closure test (and, for the maximal
    kinds, its maximality test) competes; the best weight wins, ties going
    to the lexicographically smallest sorted node tuple."""
    g, weak, maximal = inst.graph, inst.kind.is_weak, inst.kind.is_maximal
    best = None
    for size in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            s = set(combo)
            w = inst.weight_of(s)
            if w > inst.budget:
                continue
            if (check_weak_closure(g, s) if weak else check_digraph_closure(g, s)) is not None:
                continue
            if maximal and (_maximality_weak if weak else _maximality_strong)(inst, s) is not None:
                continue
            key = (w if maximal else -w, combo)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    return Solution(frozenset(best[1]), inst.weight_of(best[1]))


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
