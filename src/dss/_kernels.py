"""Hot numeric kernels, in numpy.

Kernels:

- ``or_convolve(a, b)``: boolean OR-convolution of two feasibility
  vectors, capped at the length of ``a``; ``b`` may be shorter.  This is
  the inner loop of the tree dynamic programs.
- ``maxmin_convolve(a, b)``: (max, min) convolution of two score
  vectors, capped at the length of ``a``; ``b`` may be shorter.  Entry
  -1 means unreachable.  Inner loop of the maximal-minimization tree
  program.
- ``closed_subsets(out_masks, weights)``: for every bitmask over n
  nodes, whether the subset is closed under "selected implies all
  out-neighbours selected", plus its total weight.
- ``weak_closed_subsets(in_masks, weights)``: same for the weak rule
  "all in-neighbours selected forces the node".
- ``weak_completions(in_masks)``: for every bitmask, the bitmask of its
  completion under the weak rule.

These three are the brute-force oracle.  Bit i of a mask is node i, and
the neighbour masks carry no self bit (the graphs have no loops).  The
tables are filled in place by doubling: the masks [2^i, 2^(i+1)) are the
masks [0, 2^i) plus node i, so each step copies the prefix and then
applies only the rules whose highest node is i.  The closure tables take
O(2^n) time and memory for the strong rule; a weak rule costs 2^t at its
highest node t.  The completions add ceil(log2 n) + 1 gathers of 2^n at
most.

Both convolutions loop over the set entries of whichever operand has
fewer of them and merge a slice of the other operand per entry.
"""
from __future__ import annotations

import numpy as np

# The only backend; ``dss.BACKEND`` names it in benchmark run records.
BACKEND = "numpy"


def or_convolve(a, b):
    n = a.shape[0]
    out = np.zeros(n, dtype=np.bool_)
    ia, ib = a.nonzero()[0], b.nonzero()[0]
    if ib.size < ia.size:
        a, b, ia = b, a, ib
    for s in ia:
        seg = b[: n - s]
        out[s : s + seg.shape[0]] |= seg
    return out


def maxmin_convolve(a, b):
    n = a.shape[0]
    out = np.full(n, -1, dtype=np.int64)
    ia, ib = (a >= 0).nonzero()[0], (b >= 0).nonzero()[0]
    if ib.size < ia.size:
        a, b, ia = b, a, ib
    for s in ia:
        seg = b[: n - s]
        # min(a[s], -1) = -1 keeps unreachable entries unreachable.
        dst = out[s : s + seg.shape[0]]
        np.maximum(dst, np.minimum(seg, a[s]), out=dst)
    return out


def _tables(n):
    """The closed and weight tables of the empty node set, preallocated
    for all 2^n masks, and the masks below 2^(n-1) the doubling tests."""
    total = 1 << n
    closed = np.empty(total, dtype=np.bool_)
    weight = np.empty(total, dtype=np.int64)
    closed[0], weight[0] = True, 0
    return closed, weight, np.arange(total >> 1, dtype=np.int64)


def _double(closed, weight, h, w):
    """Masks [h, 2h) select node log2(h) on top of masks [0, h)."""
    closed[h : 2 * h] = closed[:h]
    np.add(weight[:h], w, out=weight[h : 2 * h])


def closed_subsets(out_masks, weights):
    n = out_masks.shape[0]
    closed, weight, low = _tables(n)
    for i in range(n):
        h = 1 << i
        lo = low[:h]
        _double(closed, weight, h, weights[i])
        # Arcs i -> v and u -> i with v, u < i: a selected i needs every
        # such v, an unselected i forbids every such u.
        up = int(out_masks[i]) & (h - 1)
        if up:
            closed[h : 2 * h] &= (lo & up) == up
        down = sum(1 << u for u in range(i) if (int(out_masks[u]) >> i) & 1)
        if down:
            closed[:h] &= (lo & down) == 0
    return closed, weight


def weak_closed_subsets(in_masks, weights):
    n = in_masks.shape[0]
    closed, weight, low = _tables(n)
    # The rule of node x binds at the highest node it names, x or an
    # in-neighbour of x.
    rules = [[] for _ in range(n)]
    for x in range(n):
        m = int(in_masks[x])
        if m:
            rules[max(x, m.bit_length() - 1)].append((x, m))
    for i in range(n):
        h = 1 << i
        lo = low[:h]
        _double(closed, weight, h, weights[i])
        for x, m in rules[i]:
            if x == i:  # x unselected with all in-neighbours selected
                closed[:h] &= (lo & m) != m
            else:  # i selected, the other in-neighbours of x too, x not
                rest = m ^ h
                closed[h : 2 * h] &= (lo & (rest | 1 << x)) != rest
    return closed, weight


def weak_completions(in_masks):
    """Per mask over n nodes, the mask of its weak completion: the least
    superset S holding every x whose in-neighbours (at least one) all lie
    in S."""
    n = in_masks.shape[0]
    total = 1 << n
    # One forcing step F(S) = S | {x : in[x] <= S}, by doubling: the term
    # of x turns on with its highest in-neighbour.
    step = np.empty(total, dtype=np.int64)
    step[0] = 0
    low = np.arange(total >> 1, dtype=np.int64)
    rules = [[] for _ in range(n)]
    for x in range(n):
        m = int(in_masks[x])
        if m:
            rules[m.bit_length() - 1].append((x, m))
    for i in range(n):
        h = 1 << i
        hi = step[h : 2 * h]
        np.bitwise_or(step[:h], h, out=hi)
        for x, m in rules[i]:
            rest = m ^ h
            np.bitwise_or(hi, 1 << x, out=hi, where=(low[:h] & rest) == rest)
    # Pointer doubling: F^(2^k) after k rounds.  F grows every mask and is
    # monotone, so its iterates of S stay below the least fixpoint above
    # S; a table T with T[T] = T holds fixpoints, so it is the completion.
    # Every step before the fixpoint adds a node: ceil(log2 n) rounds
    # reach it, and one more confirms it.
    while True:
        nxt = step[step]
        if np.array_equal(nxt, step):
            return step
        step = nxt
