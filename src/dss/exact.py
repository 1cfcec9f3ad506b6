"""Exact solvers.

- ``brute_force``: subset enumeration over bitmasks, the ground-truth
  oracle for every other solver.  The closure and weight tables of all
  2^n masks come from ``_kernels`` (O(2^n) memory; see there for time).
  For the maximal kinds only the feasible masks are then tested, once per
  component or node: the strong kinds look for a sink component of the
  unselected part that fits, the weak kinds read the weight of the
  completion of each mask plus one node from a table of all completions.
  Ties go to the lexicographically smallest node tuple, chosen with numpy.
- ``solve_ssg_tree``: pseudo-polynomial DP on oriented forests for the
  strong-closure maximization problem.  Per subtree it tracks two
  boolean feasibility vectors indexed by weight: reachable weights with
  the subtree root selected / not selected.
- ``solve_maximal_ssg_tree``: maximal-minimization DP on oriented
  trees tracking, per total weight, the best achievable minimum weight
  over vertices that could still be added.
- ``solve_ssgw_rooted_tree``: weak-closure DP for in-rooted and
  out-rooted trees.

  The three tree DPs are state tables (``_STRONG``, ``_MAXIMAL``,
  ``_WEAK``) run by one iterative skeleton, ``_TreeDP``.
- ``solve_tournament`` and ``solve_balanced_degree_two``: the two
  polynomial special cases.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from . import _kernels
from .graph import (
    Digraph,
    GraphError,
    condense,
    is_balanced_degree_two,
    is_dag,
    is_in_rooted_tree,
    is_out_rooted_tree,
    is_tournament,
    is_underlying_connected,
    is_underlying_forest,
    is_underlying_tree,
)
from .instance import ProblemKind, Solution, WeightedInstance

DEFAULT_BRUTE_CAP = 20
DEFAULT_BUDGET_CAP = 10**6


class SolverError(ValueError):
    """Requested solver is inapplicable to the given instance."""


class CapExceeded(SolverError):
    """Instance exceeds a configured size cap."""


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


def _mask_nodes(mask: int, n: int) -> tuple[int, ...]:
    return tuple(i for i in range(n) if (mask >> i) & 1)


def _neighbour_masks(g: Digraph, incoming: bool) -> np.ndarray:
    out = np.zeros(g.n, dtype=np.int64)
    adj = g.in_adj if incoming else g.out_adj
    for v in range(g.n):
        m = 0
        for u in adj[v]:
            m |= 1 << u
        out[v] = m
    return out


def _extendable_strong(
    inst: WeightedInstance, cand: np.ndarray, weight: np.ndarray
) -> np.ndarray:
    """Per closed candidate mask: whether some sink component of the
    unselected part fits the budget left (``_maximality_strong``).  A
    closed mask holds each strongly connected component whole or not at
    all."""
    cond = condense(inst.graph, inst.weights)
    comp = [sum(1 << v for v in members) for members in cond.members]
    slack = inst.budget - weight[cand]
    out = np.zeros(cand.size, dtype=np.bool_)
    for c, mask in enumerate(comp):
        succ = 0
        for d in cond.dag.out_adj[c]:
            succ |= comp[d]
        out |= (
            ((cand & mask) == 0)
            & ((cand & succ) == succ)
            & (cond.component_weight[c] <= slack)
        )
    return out


def _extendable_weak(
    inst: WeightedInstance, cand: np.ndarray, weight: np.ndarray, in_masks: np.ndarray
) -> np.ndarray:
    """Per weak-closed candidate mask: whether the completion of the mask
    plus some unselected node fits the budget (``_maximality_weak``)."""
    completion = _kernels.weak_completions(in_masks)
    out = np.zeros(cand.size, dtype=np.bool_)
    for x in range(inst.graph.n):
        bit = 1 << x
        out |= ((cand & bit) == 0) & (weight[completion[cand | bit]] <= inst.budget)
    return out


def _lexicographic_first(pool: np.ndarray) -> int:
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


def brute_force(inst: WeightedInstance, cap: int = DEFAULT_BRUTE_CAP) -> Optional[Solution]:
    """Exhaustive optimum for any of the four problems.

    Ties are broken toward the lexicographically smallest selected set.
    Returns None only when no feasible solution exists (never happens for
    the non-maximal kinds, where the empty set is feasible).
    """
    g = inst.graph
    n = g.n
    if n > cap:
        raise CapExceeded(f"brute force refused: n={n} exceeds cap {cap}")
    weights = np.asarray(inst.weights, dtype=np.int64)
    if inst.kind.is_weak:
        in_masks = _neighbour_masks(g, incoming=True)
        closed, weight = _kernels.weak_closed_subsets(in_masks, weights)
    else:
        closed, weight = _kernels.closed_subsets(
            _neighbour_masks(g, incoming=False), weights
        )
    cand = np.flatnonzero(closed & (weight <= inst.budget))
    del closed
    if inst.kind.is_maximal:
        if inst.kind.is_weak:
            cand = cand[~_extendable_weak(inst, cand, weight, in_masks)]
        else:
            cand = cand[~_extendable_strong(inst, cand, weight)]
        if cand.size == 0:
            return None
        best = int(weight[cand].min())
    else:
        best = int(weight[cand].max())
    chosen = _lexicographic_first(cand[weight[cand] == best])
    return Solution(frozenset(_mask_nodes(chosen, n)), best)


# ---------------------------------------------------------------------------
# Tree DPs: one post-order skeleton driven by three state tables
# ---------------------------------------------------------------------------


def _component_orders(g: Digraph, starts: Iterable[int]):
    """Per underlying component, rooted at the first unseen node of
    ``starts``: (root, preorder node list, children map)."""
    seen = [False] * g.n
    for start in starts:
        if seen[start]:
            continue
        order: list[int] = []
        children: dict[int, list[int]] = {}
        stack = [(start, None)]
        seen[start] = True
        while stack:
            v, fa = stack.pop()
            order.append(v)
            children[v] = []
            if fa is not None:
                children[fa].append(v)
            for u in g.out_adj[v] + g.in_adj[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append((u, v))
        yield start, order, children


# Pairs (source state, child views) per destination state.
_Table = dict[str, tuple[tuple[str, tuple[str, ...]], ...]]


@dataclass(frozen=True)
class _Kind:
    """One tree DP over the semiring (max, min) on ``zero < one``: with
    booleans that is (OR, AND).

    Each node keeps one vector per state, indexed by the total weight of
    a selection in its subtree.  ``start(w, leaf)`` gives, per state, the
    one weight at which it holds ``one`` before any child is merged
    (None: nowhere).  ``table[arc v -> u]`` maps each state of v to its
    (source state, child views) pairs: the views are joined, merged into
    the source's accumulator, and the pairs joined.  The traceback takes
    the smallest split, then the first pair and the first view in table
    order.  ``views(acc, w)`` gives the vectors a father reads, and
    ``view_state`` the state each view resolves the child into.  The
    state ``plus`` means "node selected".  A ``shifted`` state is built
    after each child step as the join of other states moved up by the
    node weight, which must equal what its table pairs give; its pairs
    then only drive the traceback, and the step saves a convolution.
    """

    kernel: str  # convolution in ``_kernels``, looked up at each call
    zero: np.generic
    one: np.generic
    start: Callable[[int, bool], dict[str, Optional[int]]]
    table: dict[bool, _Table]
    views: Callable[[dict, int], dict]
    view_state: dict[str, str]
    shifted: dict[str, tuple[str, ...]] = field(default_factory=dict)


# Strong closure on an oriented forest: a selected v forces a ch+ child
# (arc v -> u); an unselected v forbids a ch- child (arc u -> v).
_STRONG = _Kind(
    kernel="or_convolve",
    zero=np.False_,
    one=np.True_,
    start=lambda w, leaf: {"plus": w, "minus": 0},
    table={
        True: {
            "plus": (("plus", ("plus",)),),
            "minus": (("minus", ("minus", "plus")),),
        },
        False: {
            "plus": (("plus", ("minus", "plus")),),
            "minus": (("minus", ("minus",)),),
        },
    },
    views=lambda acc, w: acc,
    view_state={"plus": "plus", "minus": "minus"},
)

# A selection with no addable vertex at all; larger than any weight.
_NO_ADDABLE = np.int64(2**62)

# Maximal strong closure on an oriented tree.  A feasible selection S is
# maximal iff every addable vertex (unselected, all out-neighbours
# selected) weighs more than B - w(S).  Entries hold the best (largest)
# achievable minimum weight over addable vertices, -1 when the weight is
# unreachable, so maximality at weight b reads as score(b) > B - b.
# open: v unselected, every ch+ child selected (v is addable unless its
# father is an unselected out-neighbour); closed: v unselected with an
# unselected ch+ child.  The view ``addable`` is an open child whose
# father does not block it.
_MAXIMAL = _Kind(
    kernel="maxmin_convolve",
    zero=np.int64(-1),
    one=_NO_ADDABLE,
    start=lambda w, leaf: {"plus": w, "open": 0, "closed": None},
    table={
        True: {
            "plus": (("plus", ("plus",)),),
            "open": (("open", ("plus",)),),
            "closed": (
                ("closed", ("plus", "addable", "closed")),
                ("open", ("addable", "closed")),
            ),
        },
        False: {
            "plus": (("plus", ("plus", "addable", "closed")),),
            "open": (("open", ("open", "closed")),),
            "closed": (("closed", ("open", "closed")),),
        },
    },
    views=lambda acc, w: {**acc, "addable": np.minimum(acc["open"], w)},
    view_state={"plus": "plus", "open": "open", "addable": "open", "closed": "closed"},
)

# Weak closure on an out-rooted tree hung from its sink, so every arc
# runs child -> father and a node's children are its in-neighbours.  An
# unselected node with children needs an unselected child.  all_plus /
# some_minus: v unselected, every child so far selected / some child
# unselected.  A leaf is never forced: its some_minus starts at 0.  A
# selected v leaves its children free, and all_plus | some_minus covers
# every choice of them, so plus is that join moved up by w.
_WEAK = _Kind(
    kernel="or_convolve",
    zero=np.False_,
    one=np.True_,
    start=lambda w, leaf: {"plus": w, "all_plus": 0, "some_minus": 0 if leaf else None},
    table={
        False: {
            "plus": (("plus", ("minus", "plus")),),
            "all_plus": (("all_plus", ("plus",)),),
            "some_minus": (
                ("some_minus", ("minus", "plus")),
                ("all_plus", ("minus",)),
            ),
        },
    },
    views=lambda acc, w: {"plus": acc["plus"], "minus": acc["some_minus"]},
    view_state={"plus": "plus", "minus": "some_minus"},
    shifted={"plus": ("all_plus", "some_minus")},
)


def _join(vectors) -> np.ndarray:
    return functools.reduce(np.maximum, vectors)


def _split(left: dict, pairs, views: dict, rem: int, threshold) -> tuple[int, str, str]:
    """(a, source, view): the smallest a with left[source][a] and
    views[view][rem - a] both >= threshold, then the first pair and view
    in table order."""
    best = None
    for src, names in pairs:
        lvec = left[src]
        for name in names:
            rvec = views[name]
            # The vectors of one node share a length, so lo is the same
            # for every pair and view: a hit at lo cannot be beaten.
            lo, hi = max(0, rem + 1 - rvec.size), min(rem, lvec.size - 1)
            ok = (lvec[lo : hi + 1] >= threshold) & (
                rvec[rem - hi : rem - lo + 1][::-1] >= threshold
            )
            i = int(ok.argmax())
            if ok[i] and (best is None or lo + i < best[0]):
                best = (lo + i, src, name)
                if i == 0:
                    return best
    assert best is not None, "no witness split found (corrupt DP table)"
    return best


class _TreeDP:
    """Vectors of one ``_Kind`` over an oriented forest, built in post-order.

    The components hang below a virtual root ``g.n`` of weight 0, each
    component root attached as if by an arc into it; the virtual root in
    state ``plus`` leaves them unconstrained, and ``answer`` is its
    ``plus`` vector.  A node's vectors have length min(cap, subtree
    weight) + 1, as no selection in the subtree weighs more, and a
    child's vectors are never longer than its father's.
    """

    def __init__(self, g: Digraph, weights, cap: int, kind: _Kind, starts: Iterable[int]):
        self.kind = kind
        self.cap = cap
        self.root = g.n
        self.weights = list(weights) + [0]
        self.arcs = set(g.arcs)
        self.kids: dict[int, list[int]] = {self.root: []}
        order: list[int] = []
        for start, pre, children in _component_orders(g, starts):
            self.kids[self.root].append(start)
            for v in pre:
                self.kids[v] = sorted(children[v])
            order.extend(reversed(pre))
        order.append(self.root)
        convolve = getattr(_kernels, kind.kernel)
        self._blank = np.full(cap + 1, kind.zero)
        self.size: dict[int, int] = {}
        # Per node: the accumulators before each child, for the traceback.
        self.steps: dict[int, list[dict]] = {}
        self.views: dict[int, dict] = {}
        for v in order:
            sub = self.weights[v] + sum(self.size[u] - 1 for u in self.kids[v])
            self.size[v] = min(cap, sub) + 1
            acc = self._start(v)
            steps = []
            for u in self.kids[v]:
                table = kind.table[(v, u) in self.arcs]
                child = self.views[u]
                steps.append(acc)
                acc = {
                    dest: _join(
                        [
                            convolve(acc[src], _join([child[n] for n in names]))
                            for src, names in table[dest]
                        ]
                    )
                    for dest in acc
                    if dest not in kind.shifted
                }
                for dest, parts in kind.shifted.items():
                    acc[dest] = self._shift(_join([acc[p] for p in parts]), self.weights[v])
            self.steps[v] = steps
            self.views[v] = kind.views(acc, self.weights[v])
        self.answer = acc["plus"]

    def _spec(self, v: int) -> dict[str, Optional[int]]:
        return self.kind.start(self.weights[v], not self.kids[v])

    def _start(self, v: int) -> dict:
        out = {}
        for state, at in self._spec(v).items():
            out[state] = vec = self._blank[: self.size[v]].copy()
            if at is not None and at <= self.cap:
                vec[at] = self.kind.one
        return out

    def _shift(self, vec: np.ndarray, w: int) -> np.ndarray:
        out = self._blank[: vec.size].copy()
        out[w:] = vec[: max(0, vec.size - w)]
        return out

    def witness(self, b: int, threshold) -> set[int]:
        """A selection of weight b whose virtual-root entry reaches
        ``threshold``, read with an explicit stack."""
        out: set[int] = set()
        stack = [(self.root, "plus", b)]
        while stack:
            v, state, rem = stack.pop()
            if state == "plus" and v != self.root:
                out.add(v)
            for u, left in zip(reversed(self.kids[v]), reversed(self.steps[v])):
                pairs = self.kind.table[(v, u) in self.arcs][state]
                a, state, view = _split(left, pairs, self.views[u], rem, threshold)
                stack.append((u, self.kind.view_state[view], rem - a))
                rem = a
            # A start vector holds ``one`` at its single weight only.
            assert self._spec(v)[state] == rem, "corrupt DP table"
        return out


def solve_ssg_tree(
    inst: WeightedInstance, budget_cap: int = DEFAULT_BUDGET_CAP
) -> Solution:
    """Maximum-weight closed-and-budgeted set on an oriented forest."""
    if inst.budget > budget_cap:
        raise CapExceeded(
            f"budget {inst.budget} exceeds DP table cap {budget_cap}"
        )
    g = inst.graph
    if not is_underlying_forest(g):
        raise SolverError("forest DP requires an oriented forest")
    dp = _TreeDP(g, inst.weights, inst.budget, _STRONG, g.nodes())
    best = int(np.flatnonzero(dp.answer).max())
    return Solution(frozenset(dp.witness(best, True)), best)


def solve_maximal_ssg_tree(
    inst: WeightedInstance, budget_cap: int = DEFAULT_BUDGET_CAP
) -> Solution:
    """Minimum-weight maximal solution on an oriented tree.

    Runs the addable-vertex score program and picks the smallest weight
    b whose best score exceeds B - b (no feasible single addition, which
    on a DAG is equivalent to having no feasible superset).
    """
    g = inst.graph
    if not is_underlying_tree(g):
        raise SolverError("maximal tree DP requires an oriented tree")
    if inst.budget > budget_cap:
        raise CapExceeded(
            f"budget {inst.budget} exceeds DP table cap {budget_cap}"
        )
    if inst.total_weight() <= inst.budget:
        return Solution(frozenset(g.nodes()), inst.total_weight())
    dp = _TreeDP(g, inst.weights, inst.budget, _MAXIMAL, g.nodes())
    for b in range(dp.answer.size):
        if dp.answer[b] > inst.budget - b:
            return Solution(frozenset(dp.witness(b, inst.budget - b + 1)), b)
    raise AssertionError("no maximal solution found (should not happen)")


def solve_ssgw_rooted_tree(
    inst: WeightedInstance, budget_cap: int = DEFAULT_BUDGET_CAP
) -> Solution:
    """Weak-closure maximization on an in-rooted or out-rooted tree.

    On in-rooted trees every node has a single in-neighbour, so the weak
    rule coincides with the strong closure rule and the forest DP applies
    directly.
    """
    g = inst.graph
    if inst.budget > budget_cap:
        raise CapExceeded(
            f"budget {inst.budget} exceeds DP table cap {budget_cap}"
        )
    if is_in_rooted_tree(g):
        return solve_ssg_tree(inst, budget_cap)
    if not is_out_rooted_tree(g):
        raise SolverError(
            "weak-closure tree DP requires an in-rooted or out-rooted tree"
        )
    sink = next(v for v in g.nodes() if not g.out_adj[v])
    dp = _TreeDP(g, inst.weights, inst.budget, _WEAK, [sink])
    best = int(np.flatnonzero(dp.answer).max())
    return Solution(frozenset(dp.witness(best, True)), best)


# ---------------------------------------------------------------------------
# Tournaments and the balanced Eulerian case
# ---------------------------------------------------------------------------


def _hamiltonian_path(g: Digraph) -> list[int]:
    """Unique Hamiltonian path of an acyclic tournament."""
    order = sorted(range(g.n), key=lambda v: (-len(g.out_adj[v]), v))
    arcset = set(g.arcs)
    for a, b in zip(order, order[1:]):
        if (a, b) not in arcset:
            raise SolverError("tournament is not acyclic")
    return order


def solve_tournament(inst: WeightedInstance) -> Solution:
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


def solve_balanced_degree_two(inst: WeightedInstance) -> Solution:
    """Connected digraph with all in/out-degrees 2 is Eulerian: the only
    closed sets are the empty set and everything."""
    if inst.kind is not ProblemKind.SSG:
        raise SolverError("the Eulerian shortcut applies to the maximization kind only")
    g = inst.graph
    if not is_balanced_degree_two(g):
        raise SolverError("every node must have in-degree 2 and out-degree 2")
    if not is_underlying_connected(g):
        raise SolverError("graph must be connected")
    total = inst.total_weight()
    if total <= inst.budget:
        return Solution(frozenset(g.nodes()), total)
    return Solution(frozenset(), 0)
