"""Exact solvers.

- ``brute_force``: subset enumeration over bitmasks, the ground-truth
  oracle for every other solver.  The closure and weight tables of all
  2^n masks come from ``_kernels`` (1 + w bytes per mask, w = 2, 4 or 8
  as the total weight needs; see there for time), fed the neighbour
  masks of ``graph.neighbour_masks`` as int64 arrays.  The budget is cut
  to the total weight before it meets the tables.  All four kinds then
  take one answer path on the boolean table: keep the masks within the
  budget; for the maximal kinds, list the feasible masks once as an
  index array and clear the extendable ones; keep the masks of the best
  weight (the largest, or for the maximal kinds the smallest); and read
  the lexicographically first of them off the table through strided
  views.  The budget and tie tests narrow the table in place, 2^16 masks
  at a time, so no temporary as large as a table is built.  Measured
  tracemalloc peaks at n = 20 (a random DAG, arc probability 0.12, total
  weight below 2^15): 3.2 MB for ssg, ssgw and maximal-ssg, the 3.1 MB of
  tables and little else, also when all 2^20 masks tie; 17.3 MB for
  maximal-ssgw, whose int32 completion table and its pointer-doubling
  copy add 4 bytes per mask each.  The maximality tests run once per
  component or node over the feasible masks: the strong kinds look for a
  sink component of the unselected part that fits, the weak kinds read
  the weight of the completion of each mask plus one node from a table
  of all completions.
- ``solve_ssg_tree``: pseudo-polynomial DP on oriented forests for the
  strong-closure maximization problem.  Per subtree it tracks two
  boolean feasibility vectors indexed by weight: reachable weights with
  the subtree root selected / not selected.  Boolean vectors are Python
  ints, one bit per weight, merged by shift-OR (``_kernels.shift_or``).
- ``solve_maximal_ssg_tree``: maximal-minimization DP on oriented
  trees tracking, per total weight, the best achievable minimum weight
  over vertices that could still be added, as one bitset per distinct
  node weight up to the budget (plus one for "none fits").
- ``solve_ssgw_rooted_tree``: weak-closure DP for in-rooted and
  out-rooted trees.

  The three tree DPs are state tables (``_STRONG``, ``_MAXIMAL``,
  ``_WEAK``) run by one iterative skeleton, ``_TreeDP``.  A table names
  its vector algebra: ``_Bits`` (int bitsets) for the two boolean kinds,
  ``_Levels`` (a list of ``_Bits`` vectors, one per score threshold) for
  the maximal kind.  The traceback keeps every node's vectors and its
  accumulators from before each child, so memory is O(sum of the cut
  vector lengths) bits, times the number of levels for the maximal kind.
  The tree DPs refuse min(B, total weight) > ``DEFAULT_BUDGET_CAP``.
- ``solve_tournament`` and ``solve_balanced_degree_two``: the two
  polynomial special cases.  The closed sets of a tournament are the
  empty set and the suffixes of the Hamiltonian path of its
  condensation, so both strong kinds take the longest suffix that fits;
  ``ssg`` answers the empty set instead when that suffix weighs 0.
  A connected digraph with every in- and out-degree 2 is strongly
  connected, so it condenses to a one-node tournament.  ``dss solve``
  (``auto``) tries the rows of ``cli.SOLVERS`` in the order tree-dp,
  tournament, eulerian, ptas, then brute force, so it answers such a
  graph by the tournament rule, and ``solve_balanced_degree_two`` answers
  only when asked for by name.  The two differ only on a zero total: on
  a 7-node all-zero instance ``--algorithm eulerian`` selects all 7
  nodes, while auto, tournament and brute select none.
"""
from __future__ import annotations

import bisect
import functools
import operator
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
    mask_nodes,
    neighbour_masks,
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


def _extendable_strong(
    inst: WeightedInstance, cand: np.ndarray, weight: np.ndarray, budget: int
) -> np.ndarray:
    """Per closed candidate mask: whether some sink component of the
    unselected part fits the budget left (``_maximality_strong``).  A
    closed mask holds each strongly connected component whole or not at
    all."""
    cond = condense(inst.graph, inst.weights)
    comp = [sum(1 << v for v in members) for members in cond.members]
    slack = budget - weight[cand]
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
    inst: WeightedInstance, cand: np.ndarray, weight: np.ndarray, budget: int, in_masks: np.ndarray
) -> np.ndarray:
    """Per weak-closed candidate mask: whether the completion of the mask
    plus some unselected node fits the budget (``_maximality_weak``)."""
    completion = _kernels.weak_completions(in_masks)
    out = np.zeros(cand.size, dtype=np.bool_)
    for x in range(inst.graph.n):
        bit = 1 << x
        out |= ((cand & bit) == 0) & (weight[completion[cand | bit]] <= budget)
    return out


_BLOCK = 1 << 16


def _keep_where(closed: np.ndarray, weight: np.ndarray, test, value: int) -> None:
    """``closed &= test(weight, value)``, ``_BLOCK`` masks at a time, so
    that no temporary as large as a table sits beside the tables."""
    for start in range(0, closed.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        closed[block] &= test(weight[block], value)


def _lexicographic_first(tie: np.ndarray) -> int:
    """The mask set in the boolean table ``tie`` whose sorted node tuple
    is smallest: the empty mask if set, else among the masks with the
    smallest lowest node k, the first once k is stripped.  The masks whose
    lowest node is k are ``tie[2^k :: 2^(k+1)]``, entry j holding the
    nodes of j shifted above k, so each step descends into such a view."""
    chosen = base = 0
    while not tie[0]:
        k = next(k for k in range(tie.size.bit_length()) if tie[1 << k :: 2 << k].any())
        chosen |= 1 << (base + k)
        tie = tie[1 << k :: 2 << k]
        base += k + 1
    return chosen


def brute_force(inst: WeightedInstance, cap: int = DEFAULT_BRUTE_CAP) -> Solution:
    """Exhaustive optimum for any of the four problems.

    Ties are broken toward the lexicographically smallest selected set.
    """
    g = inst.graph
    if g.n > cap:
        raise CapExceeded(f"brute force refused: n={g.n} exceeds cap {cap}")
    total = inst.total_weight()
    weights = np.asarray(inst.weights, dtype=_kernels.weight_dtype(total))
    # No mask weighs more than the total, so the budget cut to it fits
    # the weight dtype and admits the same masks.
    budget = min(inst.budget, total)
    succ, pred = neighbour_masks(g)
    if inst.kind.is_weak:
        in_masks = np.array(pred, dtype=np.int64)
        closed, weight = _kernels.weak_closed_subsets(in_masks, weights)
    else:
        closed, weight = _kernels.closed_subsets(np.array(succ, dtype=np.int64), weights)
    _keep_where(closed, weight, np.less_equal, budget)
    # The empty set is closed under both rules and fits any budget, so
    # feasible sets exist, and so do maximal ones (a feasible set that no
    # feasible set strictly contains cannot be extended): the ``initial``
    # of a reduction below never stands in for a missing mask.
    if inst.kind.is_maximal:
        cand = np.flatnonzero(closed)
        if inst.kind.is_weak:
            closed[cand] = ~_extendable_weak(inst, cand, weight, budget, in_masks)
        else:
            closed[cand] = ~_extendable_strong(inst, cand, weight, budget)
        best = int(weight.min(where=closed, initial=budget))
    else:
        best = int(weight.max(where=closed, initial=0))
    _keep_where(closed, weight, np.equal, best)
    return Solution(frozenset(mask_nodes(_lexicographic_first(closed))), best)


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


class _Bits:
    """Boolean vectors as Python ints: bit b set means "a selection of
    weight b is reachable".  A vector of length ``size`` is an int below
    2**size."""

    @staticmethod
    def start(size: int, at: Optional[int]) -> int:
        return 0 if at is None or at >= size else 1 << at

    @staticmethod
    def merge(a: int, b: int, size: int) -> int:
        return _kernels.shift_or(a, b, size)

    @staticmethod
    def join(vectors) -> int:
        return functools.reduce(operator.or_, vectors)

    @staticmethod
    def shift(vec: int, w: int, size: int) -> int:
        return (vec << w) & ((1 << size) - 1)

    @staticmethod
    def split(left: dict, pairs, views: dict, rem: int, level) -> tuple[int, str, str]:
        """(a, source, view): the smallest a with bit a of left[source]
        and bit rem - a of views[view] set, then the first pair and view
        in table order.  With k the view's length, at most rem + 1, and
        lo = rem + 1 - k, bit i of the view's k low bits reversed is bit
        rem - (lo + i) of the view, so it meets bit lo + i of left."""
        best = None
        for src, names in pairs:
            for name in names:
                k = min(views[name].bit_length(), rem + 1)
                lo = rem + 1 - k
                hit = (left[src] >> lo) & _kernels.reverse_bits(
                    views[name] & ((1 << k) - 1), k
                )
                if hit:
                    a = lo + (hit & -hit).bit_length() - 1
                    if best is None or a < best[0]:
                        best = (a, src, name)
        assert best is not None, "no witness split found (corrupt DP table)"
        return best

    @staticmethod
    def best(answer: int, budget: int) -> tuple[int, None]:
        """The largest reachable weight; a witness needs no level."""
        return answer.bit_length() - 1, None


class _Levels:
    """(max, min) score vectors as one ``_Bits`` vector per level: bit b
    of level j is set iff a selection of weight b scores at least
    ``thresholds[j]``.  The thresholds are the distinct node weights up to
    the budget B, then B + 1 for every heavier weight and for "no addable
    vertex".  Scores are node weights or that, so for s <= B + 1 a score
    is >= s iff it is >= the smallest threshold >= s.  No shift:
    ``_MAXIMAL`` has no shifted state."""

    def __init__(self, weights, budget: int):
        self.thresholds = sorted({w for w in weights if w <= budget}) + [budget + 1]

    def start(self, size: int, at: Optional[int]) -> list[int]:
        return [_Bits.start(size, at)] * len(self.thresholds)

    @staticmethod
    def merge(a: list[int], b: list[int], size: int) -> list[int]:
        """min(x, y) >= t iff x >= t and y >= t: shift-OR per level, run
        once per run of equal neighbouring level pairs."""
        out, last = [], None
        for pair in zip(a, b):
            if pair != last:
                last, vec = pair, _kernels.shift_or(*pair, size)
            out.append(vec)
        return out

    @staticmethod
    def join(vectors) -> list[int]:
        return functools.reduce(lambda a, b: list(map(operator.or_, a, b)), vectors)

    def addable(self, vec: list[int], w: int) -> list[int]:
        """min(vec, w): the levels whose threshold is above w emptied."""
        k = bisect.bisect_right(self.thresholds, w)
        return vec[:k] + [0] * (len(vec) - k)

    @staticmethod
    def split(left: dict, pairs, views: dict, rem: int, level: int) -> tuple[int, str, str]:
        """``_Bits.split`` on the witness level."""
        left, views = ({k: vec[level] for k, vec in d.items()} for d in (left, views))
        return _Bits.split(left, pairs, views, rem, None)

    def best(self, answer: list[int], budget: int) -> tuple[int, int]:
        """The smallest weight b whose score exceeds B - b, i.e. at which
        no addable vertex fits, and the level a witness must reach: that
        of B + 1 - b.  Level j holds such a b iff b >= B + 1 - t_j."""
        b = min(
            lo + (hits & -hits).bit_length() - 1
            for t, vec in zip(self.thresholds, answer)
            if (hits := vec >> (lo := budget + 1 - t))
        )
        return b, bisect.bisect_left(self.thresholds, budget + 1 - b)


# Pairs (source state, child views) per destination state.
_Table = dict[str, tuple[tuple[str, tuple[str, ...]], ...]]


@dataclass(frozen=True)
class _Kind:
    """One tree DP over the semiring (max, min) on ``zero < one``: with
    booleans that is (OR, AND).

    Each node keeps one vector per state, indexed by the total weight of
    a selection in its subtree.  ``ops(weights, budget)`` builds the
    vector algebra (start, merge, join, shift, split search and answer
    read-out): ``_Bits`` for booleans, ``_Levels`` for (max, min) scores.
    ``start(w, leaf)`` gives, per state, the one weight at which it holds
    ``one`` before any child is merged (None: nowhere).
    ``table[arc v -> u]`` maps each state of v to its (source state, child
    views) pairs: the views are joined, merged into the source's
    accumulator, and the pairs joined.  The traceback takes the smallest
    split, then the first pair and the first view in table order.
    ``views(ops, acc, w)`` gives the vectors a father reads, and
    ``view_state`` the state each view resolves the child into.  The state ``plus``
    means "node selected".  A ``shifted`` state is built after each child
    step as the join of other states moved up by the node weight, which
    must equal what its table pairs give; its pairs then only drive the
    traceback, and the step saves a merge.
    """

    ops: Callable[[Iterable[int], int], object]
    start: Callable[[int, bool], dict[str, Optional[int]]]
    table: dict[bool, _Table]
    views: Callable[[object, dict, int], dict]
    view_state: dict[str, str]
    shifted: dict[str, tuple[str, ...]] = field(default_factory=dict)


# Strong closure on an oriented forest: a selected v forces a ch+ child
# (arc v -> u); an unselected v forbids a ch- child (arc u -> v).
_STRONG = _Kind(
    ops=lambda weights, budget: _Bits,
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
    views=lambda ops, acc, w: acc,
    view_state={"plus": "plus", "minus": "minus"},
)

# Maximal strong closure on an oriented tree.  A feasible selection S is
# maximal iff every addable vertex (unselected, all out-neighbours
# selected) weighs more than B - w(S).  A selection scores the least
# weight of its addable vertices (above every weight if it has none), and
# each weight keeps the best score of its selections, so maximality at
# weight b reads as score(b) > B - b.
# open: v unselected, every ch+ child selected (v is addable unless its
# father is an unselected out-neighbour); closed: v unselected with an
# unselected ch+ child.  The view ``addable`` is an open child whose
# father does not block it.
_MAXIMAL = _Kind(
    ops=_Levels,
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
    views=lambda ops, acc, w: {**acc, "addable": ops.addable(acc["open"], w)},
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
    ops=lambda weights, budget: _Bits,
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
    views=lambda ops, acc, w: {"plus": acc["plus"], "minus": acc["some_minus"]},
    view_state={"plus": "plus", "minus": "some_minus"},
    shifted={"plus": ("all_plus", "some_minus")},
)


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
        self.ops = ops = kind.ops(weights, cap)
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
        size: dict[int, int] = {}
        # Per node: the accumulators before each child, for the traceback.
        self.steps: dict[int, list[dict]] = {}
        self.views: dict[int, dict] = {}
        for v in order:
            sub = self.weights[v] + sum(size[u] - 1 for u in self.kids[v])
            size[v] = length = min(cap, sub) + 1
            acc = {state: ops.start(length, at) for state, at in self._spec(v).items()}
            steps = []
            for u in self.kids[v]:
                table = kind.table[(v, u) in self.arcs]
                child = self.views[u]
                steps.append(acc)
                acc = {
                    dest: ops.join(
                        [
                            ops.merge(acc[src], ops.join([child[x] for x in names]), length)
                            for src, names in table[dest]
                        ]
                    )
                    for dest in acc
                    if dest not in kind.shifted
                }
                for dest, parts in kind.shifted.items():
                    acc[dest] = ops.shift(ops.join([acc[p] for p in parts]), self.weights[v], length)
            self.steps[v] = steps
            self.views[v] = kind.views(ops, acc, self.weights[v])
        self.answer = acc["plus"]

    def _spec(self, v: int) -> dict[str, Optional[int]]:
        return self.kind.start(self.weights[v], not self.kids[v])

    def witness(self, b: int, level) -> set[int]:
        """A selection of weight b whose virtual-root entry is set at
        ``level`` (None for bits), read with an explicit stack."""
        out: set[int] = set()
        stack = [(self.root, "plus", b)]
        while stack:
            v, state, rem = stack.pop()
            if state == "plus" and v != self.root:
                out.add(v)
            for u, left in zip(reversed(self.kids[v]), reversed(self.steps[v])):
                pairs = self.kind.table[(v, u) in self.arcs][state]
                a, state, view = self.ops.split(left, pairs, self.views[u], rem, level)
                stack.append((u, self.kind.view_state[view], rem - a))
                rem = a
            # A start vector holds ``one`` at its single weight only.
            assert self._spec(v)[state] == rem, "corrupt DP table"
        return out


def _tree_solution(inst: WeightedInstance, kind: _Kind, starts: Iterable[int]) -> Solution:
    dp = _TreeDP(inst.graph, inst.weights, inst.budget, kind, starts)
    b, level = dp.ops.best(dp.answer, inst.budget)
    return Solution(frozenset(dp.witness(b, level)), b)


def _check_cap(inst: WeightedInstance) -> None:
    """The vectors are cut to min(B, total weight) + 1 entries."""
    if min(inst.budget, inst.total_weight()) > DEFAULT_BUDGET_CAP:
        raise CapExceeded(f"budget {inst.budget} exceeds DP table cap {DEFAULT_BUDGET_CAP}")


def solve_ssg_tree(inst: WeightedInstance) -> Solution:
    """Maximum-weight closed-and-budgeted set on an oriented forest."""
    g = inst.graph
    if not is_underlying_forest(g):
        raise SolverError("forest DP requires an oriented forest")
    _check_cap(inst)
    return _tree_solution(inst, _STRONG, g.nodes())


def solve_maximal_ssg_tree(inst: WeightedInstance) -> Solution:
    """Minimum-weight maximal solution on an oriented tree.

    Runs the addable-vertex score program and picks the smallest weight
    b whose best score exceeds B - b (no feasible single addition, which
    on a DAG is equivalent to having no feasible superset).
    """
    g = inst.graph
    if not is_underlying_tree(g):
        raise SolverError("maximal tree DP requires an oriented tree")
    if inst.total_weight() <= inst.budget:
        return Solution(frozenset(g.nodes()), inst.total_weight())
    _check_cap(inst)
    return _tree_solution(inst, _MAXIMAL, g.nodes())


def solve_ssgw_rooted_tree(inst: WeightedInstance) -> Solution:
    """Weak-closure maximization on an in-rooted or out-rooted tree.

    On in-rooted trees every node has a single in-neighbour, so the weak
    rule coincides with the strong closure rule and the forest DP applies
    directly.
    """
    g = inst.graph
    if is_in_rooted_tree(g):
        return solve_ssg_tree(inst)
    if not is_out_rooted_tree(g):
        raise SolverError(
            "weak-closure tree DP requires an in-rooted or out-rooted tree"
        )
    _check_cap(inst)
    sink = next(v for v in g.nodes() if not g.out_adj[v])
    return _tree_solution(inst, _WEAK, [sink])


# ---------------------------------------------------------------------------
# Tournaments and the balanced Eulerian case
# ---------------------------------------------------------------------------


def solve_tournament(inst: WeightedInstance) -> Solution:
    """The longest fitting suffix of the (condensed) tournament's
    Hamiltonian path.

    The closed sets are exactly the empty set and the suffixes of the
    path, so that suffix is both the heaviest feasible set and the only
    maximal one; ``ssg`` answers the empty set instead when the suffix
    weighs 0.
    """
    if inst.kind not in (ProblemKind.SSG, ProblemKind.MAXIMAL_SSG):
        raise SolverError("tournament solver handles the strong kinds only")
    g = inst.graph
    if is_tournament(g) and is_dag(g):
        cond = None
        h = g
        weights = inst.weights
    else:
        cond = condense(g, inst.weights)
        if not is_tournament(cond.dag):
            raise SolverError("input is not a tournament (nor condenses to one)")
        h = cond.dag
        weights = cond.component_weight
    # An acyclic tournament is transitive, so its path runs by decreasing
    # out-degree: walk it up from the sink while the budget holds.
    chosen, total = [], 0
    for c in sorted(range(h.n), key=lambda v: len(h.out_adj[v])):
        if total + weights[c] > inst.budget:
            break
        chosen.append(c)
        total += weights[c]
    if inst.kind is ProblemKind.SSG and total == 0:
        chosen = []
    if cond is not None:
        chosen = [v for c in chosen for v in cond.members[c]]
    return Solution(frozenset(chosen), total)


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
