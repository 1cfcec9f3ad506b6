"""Exact solvers.

- ``brute_force``: subset enumeration over bitmasks, the ground-truth
  oracle for every other solver.  ``_kernels`` yields the closed masks
  one block of 2^16 at a time (the masks over the 16 lowest nodes, under
  one pattern of the higher ones; see there for time), fed the neighbour
  masks of ``graph.neighbour_masks`` as int64 arrays, so no array holds
  an entry per mask.  The budget is cut to the total weight before it
  meets the tables.  ssg and ssgw take the blocks as they come, keeping
  the best weight and its tie winner; the maximal kinds take them after
  ``_kernels.inclusion_maximal`` (the same for both closure rules) has
  cut a packed bit table of all feasible masks to the maximal ones.  In
  each block the best weight (the largest, or for the maximal kinds the
  smallest) is read through one score table, and the lexicographically
  first of its ties off the boolean block, 8 nodes a step.  A block
  under a nonempty high pattern orders its low tuples with an extension
  before its prefix, as the high nodes follow them; block winners are
  compared by their sorted tuples.  Measured tracemalloc peaks at n = 20
  (a random DAG, arc probability 0.12, total weight below 2^15, and also
  when all 2^20 masks tie): 0.47 MB for ssg and ssgw, 0.99 MB for the
  maximal kinds, whose test adds three packed tables of 2^n / 8 bytes.
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
  ``_Levels`` for the maximal kind: one ``_Bits`` vector per score
  threshold, stored as runs of equal neighbouring levels, so a merge
  costs one shift-OR per stretch of levels over which neither operand
  changes, not one per level.  Each ``_Kind`` compiles its table to
  indices once, when it is defined: the states, the distinct joins of
  child views per arc direction, and the (dest, ((src, join), ...))
  rows.  Accumulators and views are lists indexed by them, each join is
  computed once per child, and the traceback walks the same indices.
  The traceback keeps every node's vectors and its accumulators from
  before each child, so memory is O(sum of the cut vector lengths) bits,
  times the number of level runs for the maximal kind.  The tree DPs
  refuse min(B, total weight) > ``DEFAULT_BUDGET_CAP``.
- ``solve_tournament``: the polynomial special case.  The closed sets
  of a tournament are the empty set and the suffixes of the Hamiltonian
  path of its condensation, so both strong kinds take the longest suffix
  that fits; ``ssg`` answers the empty set instead when that suffix
  weighs 0.  A connected digraph with every in- and out-degree 2 is
  strongly connected, so it condenses to a one-node tournament and this
  rule answers it too, as brute force would.
"""
from __future__ import annotations

import bisect
from typing import Callable, Iterable, Optional

import numpy as np

from . import _kernels
from .graph import (
    Digraph,
    GraphError,
    condense,
    is_in_rooted_tree,
    is_out_rooted_tree,
    is_tournament,
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


def _walk_order(width: int, extended: bool) -> np.ndarray:
    """The 2 * ``width`` options of one step of ``_lexicographic_first``
    over b nodes, ``width`` = 2^b, best first.  Option j takes the nodes
    of j and stops: a tuple that ends there, or in an extended walk goes
    on with high nodes.  Option width + j takes them and goes on with a
    node beyond the step's nodes but below the high ones."""
    nodes = [tuple(mask_nodes(j)) for j in range(width)]
    stop = width + 1 if extended else -1
    keys = [t + (stop,) for t in nodes] + [t + (width,) for t in nodes]
    return np.array(sorted(range(2 * width), key=keys.__getitem__))


# Nodes per step of ``_lexicographic_first``.
_WALK_NODES = 8
_WALK_ORDERS = {
    (1 << b, extended): _walk_order(1 << b, extended)
    for b in range(_WALK_NODES + 1)
    for extended in (False, True)
}


def _lexicographic_first(tie: np.ndarray, extended: bool = False) -> int:
    """The mask set in the boolean table ``tie`` whose sorted node tuple
    is smallest; with ``extended``, every tuple goes on with nodes above
    all of the table's (a block's high pattern), so an extension comes
    before its prefix: {0, 3, 17} before {0, 17}.

    The walk takes the nodes 8 at a time.  Reshaped to rows of 2^8, column
    j of the table holds the masks whose 8 lowest nodes are j, row r those
    whose further nodes are r: so the set masks offer the options "j, then
    stop" (row 0) and "j, then more" (any later row).  The best option
    present, by ``_WALK_ORDERS``, is taken; "more" descends into column j.
    The empty mask stops at once, so a plain walk takes it when set."""
    chosen = base = 0
    while True:
        width = min(tie.size, 1 << _WALK_NODES)
        rows = tie.reshape(-1, width)
        present = np.concatenate((rows[0], rows[1:].any(axis=0)))
        order = _WALK_ORDERS[width, extended]
        option = int(order[present[order].argmax()])
        chosen |= (option % width) << base
        if option < width:
            return chosen
        tie = rows[:, option % width]
        base += _WALK_NODES


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
        subsets = _kernels.weak_closed_subsets(np.array(pred, dtype=np.int64), weights)
    else:
        subsets = _kernels.closed_subsets(np.array(succ, dtype=np.int64), weights)
    # The empty set is closed under both rules and fits any budget, so
    # feasible sets exist, and so do maximal ones: some block holds one.
    # Under both rules a feasible S can be extended iff some feasible T
    # strictly contains it: for x in T - S, the least closed superset of
    # S + {x} (the strong closure or the weak completion) lies inside T
    # and so fits, and when it fits it is such a T.
    maximal = inst.kind.is_maximal
    low_weight = subsets.weight
    top = int(low_weight[-1])
    scratch = np.empty_like(low_weight)
    best = winner = None
    for high, high_weight, block in subsets.maximal(budget) if maximal else subsets.feasible(budget):
        # The block's best low weight, through a score >= 0 that the
        # block maximizes: the weight, or for the maximal kinds (the
        # lightest wins) the low total less the weight.  Unset masks
        # score 0, so a best score of 0 may mean no set mask.
        if maximal:
            np.subtract(top, low_weight, out=scratch)
            scratch *= block
        else:
            np.multiply(low_weight, block, out=scratch)
        score = int(scratch.max())
        if not score and not block.any():
            continue
        low = top - score if maximal else score
        weight = low + high_weight
        if best is not None and (weight > best if maximal else weight < best):
            continue
        block &= low_weight == low
        mask = _lexicographic_first(block, high != 0) | high
        if weight != best or tuple(mask_nodes(mask)) < tuple(mask_nodes(winner)):
            best, winner = weight, mask
    return Solution(frozenset(mask_nodes(winner)), best)


# ---------------------------------------------------------------------------
# Tree DPs: one post-order skeleton driven by three state tables
# ---------------------------------------------------------------------------


def _hang(g: Digraph, starts: Iterable[int]) -> tuple[list[list[tuple[int, bool]]], list[int]]:
    """The forest hung below a virtual root ``g.n``, each underlying
    component from the first unseen node of ``starts``: per node its
    children as (child, whether the arc runs father -> child) pairs,
    sorted by child, and an order of all nodes with each after its
    children."""
    n = g.n
    sides = (
        (memoryview(g.out_ptr), memoryview(g.head), True),
        (memoryview(g.in_ptr), memoryview(g.in_tail), False),
    )
    kids: list[list[tuple[int, bool]]] = [[] for _ in range(n + 1)]
    seen = [False] * n
    order: list[int] = []
    for start in starts:
        if seen[start]:
            continue
        seen[start] = True
        kids[n].append((start, False))
        stack = [start]
        while stack:
            v = stack.pop()
            order.append(v)
            for ptr, adj, up in sides:
                for u in adj[ptr[v]:ptr[v + 1]]:
                    if not seen[u]:
                        seen[u] = True
                        kids[v].append((u, up))
                        stack.append(u)
            kids[v].sort()
    order.reverse()
    order.append(n)
    return kids, order


class _Bits:
    """Boolean vectors as Python ints: bit b set means "a selection of
    weight b is reachable".  A vector of length ``size`` is an int below
    2**size."""

    @staticmethod
    def start(size: int, at: Optional[int]) -> int:
        return 0 if at is None or at >= size else 1 << at

    @staticmethod
    def join(vectors) -> int:
        out = 0
        for vec in vectors:
            out |= vec
        return out

    @staticmethod
    def shift(vec: int, w: int, size: int) -> int:
        return (vec << w) & ((1 << size) - 1)

    @staticmethod
    def step(acc: list, joins: list, rows, size: int) -> list:
        """The accumulators after one child: per row (dest, pairs) the OR
        over the pairs (src, join) of acc[src] shift-ORed with
        joins[join], cut to ``size`` bits.  ``shift_or``'s zero and
        one-bit cases are inlined, and the cut is made once per row."""
        out = acc[:]
        for dest, pairs in rows:
            vec = 0
            for src, j in pairs:
                a, b = acc[src], joins[j]
                if not (a and b):
                    continue
                if not a & (a - 1):
                    vec |= b << (a.bit_length() - 1)
                elif not b & (b - 1):
                    vec |= a << (b.bit_length() - 1)
                else:
                    vec |= _kernels.shift_or(a, b, size)
            out[dest] = vec & ((1 << size) - 1)
        return out

    @staticmethod
    def split(left: list, pairs, views: list, rem: int, level) -> tuple[int, int, int]:
        """(a, source, view): the smallest a with bit a of left[source]
        and bit rem - a of views[view] set, then the first pair and view
        in table order.  A pair's smallest a is that of its views joined,
        and its first view the first with bit rem - a set.  With k the
        joined view's length, at most rem + 1, and lo = rem + 1 - k, bit
        i of its k low bits reversed is bit rem - (lo + i), so it meets
        bit lo + i of left."""
        best = None
        for src, names in pairs:
            view = 0
            for name in names:
                view |= views[name]
            k = min(view.bit_length(), rem + 1)
            lo = rem + 1 - k
            hit = (left[src] >> lo) & _kernels.reverse_bits(view & ((1 << k) - 1), k)
            if hit:
                a = lo + (hit & -hit).bit_length() - 1
                if best is None or a < best[0]:
                    best = (a, src, names)
        assert best is not None, "no witness split found (corrupt DP table)"
        a, src, names = best
        if len(names) > 1:
            names = [name for name in names if (views[name] >> (rem - a)) & 1]
        return a, src, names[0]

    @staticmethod
    def best(answer: int, budget: int) -> tuple[int, None]:
        """The largest reachable weight; a witness needs no level."""
        return answer.bit_length() - 1, None


class _Levels:
    """(max, min) score vectors, one ``_Bits`` vector per level: bit b of
    level j is set iff a selection of weight b scores at least
    ``thresholds[j]``.  The thresholds are the distinct node weights up to
    the budget B, then B + 1 for every heavier weight and for "no addable
    vertex".  Scores are node weights or that, so for s <= B + 1 a score
    is >= s iff it is >= the smallest threshold >= s.

    A score that reaches a threshold reaches every lower one, so the
    levels are nested, and neighbouring levels are often equal.  A vector
    is therefore a list of runs [(end, bits), ...]: the levels from the
    end of the run before (0 for the first) up to ``end`` hold ``bits``.
    Ends rise, neighbouring runs differ, no run holds 0, and the levels
    from the last end up are empty ([] is the empty vector).  Run lists
    are never changed once built, so vectors share them.  No shift:
    ``_MAXIMAL`` has no shifted state."""

    def __init__(self, weights, budget: int):
        self.thresholds = sorted({w for w in weights if w <= budget}) + [budget + 1]

    def start(self, size: int, at: Optional[int]) -> list:
        bits = _Bits.start(size, at)
        return [(len(self.thresholds), bits)] if bits else []

    @staticmethod
    def merge(a: list, b: list, size: int) -> list:
        """min(x, y) >= t iff x >= t and y >= t: one shift-OR per stretch
        of levels over which neither a nor b changes run.  Nested levels
        merge to nested levels, so the first empty one ends the walk."""
        out: list = []
        i = j = 0
        while i < len(a) and j < len(b):
            (ea, va), (eb, vb) = a[i], b[j]
            bits = _kernels.shift_or(va, vb, size)
            if not bits:
                break
            end = ea if ea < eb else eb
            if out and out[-1][1] == bits:
                out[-1] = (end, bits)
            else:
                out.append((end, bits))
            i += ea == end
            j += eb == end
        return out

    @staticmethod
    def join(vectors) -> list:
        """OR per level, over the union of the run ends."""
        out = vectors[0]
        for b in vectors[1:]:
            if not out or not b:
                out = out or b
                continue
            a, out = out, []
            i = j = 0
            while i < len(a) and j < len(b):
                (ea, va), (eb, vb) = a[i], b[j]
                end = ea if ea < eb else eb
                bits = va | vb
                if out and out[-1][1] == bits:
                    out[-1] = (end, bits)
                else:
                    out.append((end, bits))
                i += ea == end
                j += eb == end
            for end, bits in a[i:] or b[j:]:
                if out[-1][1] == bits:
                    out[-1] = (end, bits)
                else:
                    out.append((end, bits))
        return out

    def step(self, acc: list, joins: list, rows, size: int) -> list:
        """``_Bits.step`` with (max, min) merges and per-level joins."""
        out = acc[:]
        for dest, pairs in rows:
            parts = [self.merge(acc[src], joins[j], size) for src, j in pairs]
            out[dest] = parts[0] if len(parts) == 1 else self.join(parts)
        return out

    def addable(self, vec: list, w: int) -> list:
        """min(vec, w): the levels whose threshold is above w emptied."""
        k = bisect.bisect_right(self.thresholds, w)
        for i, (end, bits) in enumerate(vec):
            if end >= k:
                return vec[:i] + [(k, bits)] if k else []
        return vec

    @staticmethod
    def level(vec: list, j: int) -> int:
        """The bits of level j."""
        for end, bits in vec:
            if j < end:
                return bits
        return 0

    @staticmethod
    def split(left: list, pairs, views: list, rem: int, level: int) -> tuple[int, int, int]:
        """``_Bits.split`` on the witness level."""
        at = _Levels.level
        return _Bits.split([at(x, level) for x in left], pairs, [at(x, level) for x in views], rem, None)

    def best(self, answer: list, budget: int) -> tuple[int, int]:
        """The smallest weight b whose score exceeds B - b, i.e. at which
        no addable vertex fits, and the level a witness must reach: that
        of B + 1 - b.  Level j holds such a b iff b >= B + 1 - t_j.  Over
        the levels of a run the bits stay and that bound falls, so the
        last level of each run gives the run's smallest b."""
        b = min(
            lo + (hits & -hits).bit_length() - 1
            for end, bits in answer
            if (hits := bits >> (lo := budget + 1 - self.thresholds[end - 1]))
        )
        return b, bisect.bisect_left(self.thresholds, budget + 1 - b)


# Pairs (source state, child views) per destination state.
_Table = dict[str, tuple[tuple[str, tuple[str, ...]], ...]]


class _Kind:
    """One tree DP over the semiring (max, min) on ``zero < one``: with
    booleans that is (OR, AND).

    Each node keeps one vector per state, indexed by the total weight of
    a selection in its subtree.  ``ops(weights, budget)`` builds the
    vector algebra (start, child step, join, shift, split search and
    answer read-out): ``_Bits`` for booleans, ``_Levels`` for (max, min)
    scores.  ``states`` names the states, ``plus`` ("node selected")
    first, and ``start(w, leaf)`` gives, in that order, the one weight at
    which each holds ``one`` before any child is merged (None: nowhere).
    ``table[arc v -> u]`` maps each state of v to its (source state, child
    views) pairs: the views are joined, merged into the source's
    accumulator, and the pairs joined.  The traceback takes the smallest
    split, then the first pair and the first view in table order.
    ``view_state`` names the views a father reads of a child, each with
    the state it resolves the child into; a view is that state's vector,
    cut by ``ops.addable`` to min(score, w) for the views in ``addable``.
    A ``shifted`` state is built after each child step as the join of
    other states moved up by the node weight, which must equal what its
    table pairs give; its pairs then only drive the traceback, and the
    step saves a merge.

    The tables are compiled to indices here, once per kind: ``views``
    holds each view's state, ``cut`` the views in ``addable``, ``shift``
    the shifted states as (dest, parts), and per arc direction ``up``,
    ``joins[up]`` the distinct view groups of the table (each joined once
    per child), ``rows[up]`` the unshifted states as (dest, ((src, join),
    ...)), and ``trace[up][dest]`` every state's pairs as ((src, views),
    ...) in table order.
    """

    def __init__(
        self,
        ops: Callable[[Iterable[int], int], object],
        states: tuple[str, ...],
        start: Callable[[int, bool], tuple[Optional[int], ...]],
        table: dict[bool, _Table],
        view_state: dict[str, str],
        addable: tuple[str, ...] = (),
        shifted: Optional[dict[str, tuple[str, ...]]] = None,
    ):
        self.ops, self.start = ops, start
        shifted = shifted or {}
        state = {s: i for i, s in enumerate(states)}
        view = {x: i for i, x in enumerate(view_state)}
        self.views = tuple(state[s] for s in view_state.values())
        self.cut = tuple(view[x] for x in addable)
        self.shift = tuple((state[d], tuple(state[p] for p in parts)) for d, parts in shifted.items())
        self.joins, self.rows, self.trace = {}, {}, {}
        for up, rows in table.items():
            assert list(rows) == list(states), "a table row per state, in order"
            groups = list(dict.fromkeys(group for pairs in rows.values() for _, group in pairs))
            self.joins[up] = tuple(tuple(view[x] for x in group) for group in groups)
            self.rows[up] = tuple(
                (state[dest], tuple((state[src], groups.index(group)) for src, group in pairs))
                for dest, pairs in rows.items()
                if dest not in shifted
            )
            self.trace[up] = tuple(
                tuple((state[src], tuple(view[x] for x in group)) for src, group in pairs)
                for pairs in rows.values()
            )


# Strong closure on an oriented forest: a selected v forces a ch+ child
# (arc v -> u); an unselected v forbids a ch- child (arc u -> v).
_STRONG = _Kind(
    ops=lambda weights, budget: _Bits,
    states=("plus", "minus"),
    start=lambda w, leaf: (w, 0),
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
    states=("plus", "open", "closed"),
    start=lambda w, leaf: (w, 0, None),
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
    view_state={"plus": "plus", "open": "open", "addable": "open", "closed": "closed"},
    addable=("addable",),
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
    states=("plus", "all_plus", "some_minus"),
    start=lambda w, leaf: (w, 0, 0 if leaf else None),
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
    child's vectors are never longer than its father's.  Accumulators,
    steps and views are lists indexed as the compiled tables of the kind.
    """

    def __init__(self, g: Digraph, weights, cap: int, kind: _Kind, starts: Iterable[int]):
        self.kind = kind
        self.ops = ops = kind.ops(weights, cap)
        self.root = g.n
        self.weights = w = list(weights) + [0]
        kids, order = _hang(g, starts)
        self.kids = kids
        size = [0] * (g.n + 1)
        # Per node: the accumulators before each child, for the traceback.
        self.steps: list = [None] * (g.n + 1)
        self.views: list = [None] * (g.n + 1)
        for v in order:
            sub = w[v]
            for u, _ in kids[v]:
                sub += size[u] - 1
            size[v] = length = min(cap, sub) + 1
            acc = [ops.start(length, at) for at in kind.start(w[v], not kids[v])]
            steps = []
            for u, up in kids[v]:
                child = self.views[u]
                joins = [
                    child[group[0]] if len(group) == 1 else ops.join([child[x] for x in group])
                    for group in kind.joins[up]
                ]
                steps.append(acc)
                acc = ops.step(acc, joins, kind.rows[up], length)
                for dest, parts in kind.shift:
                    acc[dest] = ops.shift(ops.join([acc[p] for p in parts]), w[v], length)
            self.steps[v] = steps
            view = [acc[s] for s in kind.views]
            for x in kind.cut:
                view[x] = ops.addable(view[x], w[v])
            self.views[v] = view
        self.answer = acc[0]

    def witness(self, b: int, level) -> set[int]:
        """A selection of weight b whose virtual-root entry is set at
        ``level`` (None for bits), read with an explicit stack.  State 0
        is ``plus``."""
        kind, split, views = self.kind, self.ops.split, self.views
        out: set[int] = set()
        stack = [(self.root, 0, b)]
        while stack:
            v, state, rem = stack.pop()
            if state == 0 and v != self.root:
                out.add(v)
            for (u, up), left in zip(reversed(self.kids[v]), reversed(self.steps[v])):
                a, state, view = split(left, kind.trace[up][state], views[u], rem, level)
                stack.append((u, kind.views[view], rem - a))
                rem = a
            # A start vector holds ``one`` at its single weight only.
            assert kind.start(self.weights[v], not self.kids[v])[state] == rem, "corrupt DP table"
        return out


def _tree_solution(inst: WeightedInstance, kind: _Kind, starts: Iterable[int]) -> Solution:
    """One DP of ``kind`` and its witness.  The vectors are cut to
    min(B, total weight) + 1 entries, which the cap bounds."""
    if min(inst.budget, inst.total_weight()) > DEFAULT_BUDGET_CAP:
        raise CapExceeded(f"budget {inst.budget} exceeds DP table cap {DEFAULT_BUDGET_CAP}")
    dp = _TreeDP(inst.graph, inst.weights, inst.budget, kind, starts)
    b, level = dp.ops.best(dp.answer, inst.budget)
    return Solution(frozenset(dp.witness(b, level)), b)


def solve_ssg_tree(inst: WeightedInstance) -> Solution:
    """Maximum-weight closed-and-budgeted set on an oriented forest."""
    if inst.kind is not ProblemKind.SSG:
        raise SolverError("forest DP handles ssg only")
    if not is_underlying_forest(inst.graph):
        raise SolverError("forest DP requires an oriented forest")
    return _tree_solution(inst, _STRONG, inst.graph.nodes())


def solve_maximal_ssg_tree(inst: WeightedInstance) -> Solution:
    """Minimum-weight maximal solution on an oriented tree.

    Runs the addable-vertex score program and picks the smallest weight
    b whose best score exceeds B - b (no feasible single addition, which
    on a DAG is equivalent to having no feasible superset).
    """
    if inst.kind is not ProblemKind.MAXIMAL_SSG:
        raise SolverError("maximal tree DP handles maximal-ssg only")
    g = inst.graph
    if not is_underlying_tree(g):
        raise SolverError("maximal tree DP requires an oriented tree")
    if inst.total_weight() <= inst.budget:
        return Solution(frozenset(g.nodes()), inst.total_weight())
    return _tree_solution(inst, _MAXIMAL, g.nodes())


def solve_ssgw_rooted_tree(inst: WeightedInstance) -> Solution:
    """Weak-closure maximization on an in-rooted or out-rooted tree.

    On in-rooted trees every node has a single in-neighbour, so the weak
    rule coincides with the strong closure rule and the forest DP applies
    directly.
    """
    if inst.kind is not ProblemKind.SSGW:
        raise SolverError("weak-closure tree DP handles ssgw only")
    g = inst.graph
    if is_in_rooted_tree(g):
        return _tree_solution(inst, _STRONG, g.nodes())
    if not is_out_rooted_tree(g):
        raise SolverError(
            "weak-closure tree DP requires an in-rooted or out-rooted tree"
        )
    sink = int(np.flatnonzero(g.out_ptr[1:] == g.out_ptr[:-1])[0])
    return _tree_solution(inst, _WEAK, [sink])


# ---------------------------------------------------------------------------
# Tournaments
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
    # ``condense`` hands back an acyclic tournament as it is.
    cond = condense(inst.graph, inst.weights)
    h, weights = cond.dag, cond.component_weight
    if not is_tournament(h):
        raise SolverError("input is not a tournament (nor condenses to one)")
    # An acyclic tournament is transitive, so its out-degrees are distinct
    # and its path runs by decreasing out-degree: walk it up from the sink
    # while the budget holds.  The suffix of length ``size`` is then the
    # components of out-degree below ``size``.
    out_degree = np.bincount(h.tail, minlength=h.n)
    size = total = 0
    for c in np.argsort(out_degree).tolist():
        if total + weights[c] > inst.budget:
            break
        size += 1
        total += weights[c]
    if inst.kind is ProblemKind.SSG and total == 0:
        size = 0
    comp = np.fromiter(cond.component_of, np.int64, inst.graph.n)
    return Solution(frozenset(np.flatnonzero(out_degree[comp] < size).tolist()), total)
