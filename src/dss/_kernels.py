"""Hot numeric kernels, in numpy.

Kernels:

- ``or_convolve(a, b)``: boolean OR-convolution of two feasibility
  vectors, capped at the length of ``a``; ``b`` may be shorter.  This is
  the inner loop of the tree dynamic programs.
- ``maxmin_convolve(a, b)``: (max, min) convolution of two score
  vectors, capped at the length of ``a``; ``b`` may be shorter.  Entry
  -1 means unreachable.  Inner loop of the maximal-minimization tree
  program.
- ``closed_subsets(desc_masks, weights)``: for every bitmask over n
  nodes, whether the subset is closed under "selected implies all
  out-neighbours selected", plus its total weight.  Inner loop of the
  brute-force oracle (O(n 2^n)).
- ``weak_closed_subsets(in_masks, weights)``: same for the weak rule
  "all in-neighbours selected forces the node".

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


def closed_subsets(desc_masks, weights):
    n = desc_masks.shape[0]
    total = 1 << n
    masks = np.arange(total, dtype=np.int64)
    closed = np.ones(total, dtype=np.bool_)
    weight = np.zeros(total, dtype=np.int64)
    for i in range(n):
        sel = (masks >> i) & 1 == 1
        closed &= ~sel | ((masks & desc_masks[i]) == desc_masks[i])
        weight += np.where(sel, weights[i], 0)
    return closed, weight


def weak_closed_subsets(in_masks, weights):
    n = in_masks.shape[0]
    total = 1 << n
    masks = np.arange(total, dtype=np.int64)
    closed = np.ones(total, dtype=np.bool_)
    weight = np.zeros(total, dtype=np.int64)
    for i in range(n):
        sel = (masks >> i) & 1 == 1
        weight += np.where(sel, weights[i], 0)
        if in_masks[i] == 0:
            continue
        forced = (masks & in_masks[i]) == in_masks[i]
        closed &= ~forced | sel
    return closed, weight
