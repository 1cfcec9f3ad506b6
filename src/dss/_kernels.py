"""Hot numeric kernels: Python-int bitsets for the tree DPs, numpy for
brute force.

Kernels:

- ``shift_or(a, b, nbits)``: boolean convolution of two reachable-weight
  bitsets (bit b of an int means "weight b is reachable"), cut to
  ``nbits`` bits: the OR of ``b << s`` over the set bits s of ``a``.  A
  zero operand gives 0 and a one-bit operand one shift, with no scan.
  Otherwise it loops over the runs of set bits of the operand with fewer
  runs, peeling the lowest run off with one addition, and a run of r
  bits costs O(log r) shift-ORs (doubling), so an interval of reachable
  weights costs about as much as a single weight.  This is the inner
  loop of every tree dynamic program.
- ``reverse_bits(x, nbits)``: the ``nbits`` low bits of ``x`` in reverse
  order, so that the traceback can meet two bitsets at a fixed sum.
- ``closed_subsets(out_masks, weights)``: for every bitmask over n
  nodes, whether the subset is closed under "selected implies all
  out-neighbours selected", plus its total weight, as a ``Subsets``: the
  masks in blocks of ``BLOCK``.
- ``weak_closed_subsets(in_masks, weights)``: same for the weak rule
  "all in-neighbours selected forces the node".
- ``inclusion_maximal(words, n)``: clears, in place, every set bit of a
  packed bit table over all 2^n bitmasks that another set bit strictly
  contains.  Fed the feasible masks, it leaves the maximal ones.

These three are the brute-force oracle.  Bit i of a mask is node i, and
the neighbour masks carry no self bit (the graphs have no loops).

Both closure rules are lists of forbidden patterns (ones, zeros): a mask
is not closed when it holds every bit of ``ones`` and no bit of
``zeros``.  The strong rule gives one pattern per arc u -> v,
(1 << u, 1 << v); the weak rule one per node x with in-neighbours,
(in[x], 1 << x).  The masks a pattern matches form a sub-cube: reshaped
to (2,)*i, a table over the masks of the nodes below i is one axis per
node, and fixing the pattern's axes to 0 or 1 leaves a strided view of
exactly those masks (``_cube``).  So each pattern is one ``False`` write,
with no mask index array and no per-rule temporary.

No array holds an entry per mask.  The low nodes, those below
L = min(n, 16), get one closed and one weight table of 2^L entries,
filled in place by doubling (``_forbid``): the masks [2^i, 2^(i+1)) are
the masks [0, 2^i) plus node i, so each step copies the prefix and then
applies only the rules whose highest node is i.  Each pattern h of the
nodes from L up is one block of 2^L masks, copied from the low closed
table and cleared by the cubes of the rules whose high part binds h; its
weights are the low weights plus w(h), so no block has a weight table of
its own, and a block with w(h) over the budget is never built.  The
weight table takes the dtype of ``weights``: ``weight_dtype`` picks the
narrowest of int16, int32 and int64 that holds the total weight, so it
is 2 bytes a mask for totals below 2^15.  Views have at most 16 axes,
so n is bounded by the int64 neighbour masks (n <= 63) and by time;
``exact.DEFAULT_BRUTE_CAP`` is 20 and the tests go to 24.  Measured
tracemalloc peaks of ``exact.brute_force`` on a random DAG at n = 20:
0.47 MB for ssg and ssgw (the low tables, the block buffer and its
temporaries), and the same at n = 24.

For the maximal kinds ``Subsets.maximal`` packs every block's feasible
bits into one table, 64 masks per uint64 word, 2^n / 8 bytes.
``inclusion_maximal`` takes the OR over supersets (a zeta transform) in
place: per node below 6 one shift-and-mask step inside the words, per
node from 6 up one OR of the upper half of each group of words into the
lower.  The same steps applied once more, into a second packed table,
give for each mask whether some set bit lies strictly above it, and the
maximal bits are the transform and not that.  Blocks are then unpacked
one at a time.  That is three packed tables of 2^n / 8 bytes (the
transform, its shift temporary and the result) in 2n passes over
2^n / 64 words: 0.99 MB in all at n = 20, 6.9 MB at n = 24.
"""
from __future__ import annotations

import numpy as np

# The only backend; ``dss.BACKEND`` names it in benchmark run records.
BACKEND = "numpy"


def _runs(x: int) -> int:
    """Twice the number of runs of set bits of x (x >= 0)."""
    return (x ^ (x >> 1)).bit_count()


def shift_or(a: int, b: int, nbits: int) -> int:
    if not (a and b):
        return 0
    # One bit at s: b moved up by s.
    if not a & (a - 1):
        return (b << (a.bit_length() - 1)) & ((1 << nbits) - 1)
    if not b & (b - 1):
        return (a << (b.bit_length() - 1)) & ((1 << nbits) - 1)
    if _runs(b) < _runs(a):
        a, b = b, a
    out = 0
    while a:
        low = a & -a
        s = low.bit_length() - 1
        # Adding the lowest bit clears the lowest run [s, end) and sets
        # bit end, now the lowest.
        a += low
        top = a & -a
        a ^= top
        r = top.bit_length() - 1 - s
        # b << k for every k < r, by doubling: k < c, then k < 2c.
        x, c = b, 1
        while 2 * c <= r:
            x |= x << c
            c *= 2
        if r > c:
            x |= x << (r - c)
        out |= x << s
    return out & ((1 << nbits) - 1)


# Byte i with its eight bits in reverse order.
_REVERSED_BYTES = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))


def reverse_bits(x: int, nbits: int) -> int:
    nbytes = (nbits + 7) >> 3
    data = x.to_bytes(nbytes, "little").translate(_REVERSED_BYTES)
    return int.from_bytes(data, "big") >> (8 * nbytes - nbits)


def weight_dtype(total: int):
    """The narrowest of int16, int32 and int64 that holds ``total``, the
    sum of nonnegative weights: a weight table in it cannot overflow."""
    for dtype in (np.int16, np.int32):
        if total <= np.iinfo(dtype).max:
            return dtype
    return np.int64


# Masks per block: brute force holds no array with an entry per mask.
BLOCK = 1 << 16
_BLOCK_NODES = BLOCK.bit_length() - 1


def _cube(half, i, ones=0, zeros=0):
    """The view of ``half`` (2^i entries, one per mask over nodes below
    i) holding the masks with every bit of ``ones`` set and every bit of
    ``zeros`` clear; bits from i up are ignored.  Node k is axis
    i - 1 - k of the (2,)*i reshape."""
    idx = [slice(None)] * i
    for k in range(i):
        if (ones >> k) & 1:
            idx[i - 1 - k] = 1
        elif (zeros >> k) & 1:
            idx[i - 1 - k] = 0
    # The Ellipsis keeps a view even when every axis is fixed.
    return half.reshape((2,) * i)[tuple(idx) + (Ellipsis,)]


def _forbid(n, rules, weights):
    """The closed and weight tables of all 2^n masks over nodes below n,
    where a mask is closed unless it matches a rule (ones, zeros) of
    ``rules``: holds every bit of ``ones`` and no bit of ``zeros``."""
    closed = np.empty(1 << n, dtype=np.bool_)
    weight = np.empty(1 << n, dtype=weights.dtype)
    closed[0], weight[0] = True, 0
    # A rule binds at its highest node i, on the half that selects i or
    # on the half that does not.
    bound = [[] for _ in range(n)]
    for ones, zeros in rules:
        bound[(ones | zeros).bit_length() - 1].append((ones, zeros))
    for i in range(n):
        h = 1 << i
        closed[h : 2 * h] = closed[:h]
        np.add(weight[:h], weights[i], out=weight[h : 2 * h])
        for ones, zeros in bound[i]:
            half = closed[h : 2 * h] if ones & h else closed[:h]
            _cube(half, i, ones, zeros)[...] = False
    return closed, weight


class Subsets:
    """The closure tables of all 2^n masks, one block of ``BLOCK`` masks
    at a time: the masks over the ``low`` = min(n, 16) lowest nodes, each
    joined with one pattern h of the nodes from ``low`` up.

    ``closed`` and ``weight`` are the tables of the 2^low low masks under
    the rules whose highest node is below ``low``, built once by
    ``_forbid``; ``high_weight`` holds w(h) per pattern.  A high rule
    binds block h when its high ones lie in h and its high zeros miss h,
    and then clears the cube of its low part in the block (a rule with no
    low bits empties it).  Each cube is a view of the one block buffer,
    made once."""

    def __init__(self, n, rules, weights):
        self.n = n
        self.low = low = min(n, _BLOCK_NODES)
        self._block = np.empty(1 << low, dtype=np.bool_)
        lows = (1 << low) - 1
        inner, self._high = [], []
        for ones, zeros in rules:
            if (ones | zeros) <= lows:
                inner.append((ones, zeros))
            else:
                view = _cube(self._block, low, ones & lows, zeros & lows) if (ones | zeros) & lows else None
                self._high.append((ones >> low, zeros >> low, view))
        self.closed, self.weight = _forbid(low, inner, weights[:low])
        high_weight = np.zeros(1, dtype=weights.dtype)
        for w in weights[low:]:
            high_weight = np.concatenate((high_weight, high_weight + w))
        self.high_weight = high_weight

    def feasible(self, budget):
        """Per pattern h, in order, that some mask of its block could fit
        ``budget``: (h << low, w(h), the block's table of closed masks of
        weight at most ``budget``).  The table is one buffer, refilled for
        the next block."""
        block, low_total = self._block, int(self.weight[-1])
        for h, wh in enumerate(self.high_weight.tolist()):
            cap = budget - wh
            if cap < 0:
                continue
            np.copyto(block, self.closed)
            for ones, zeros, view in self._high:
                if not (ones & ~h or zeros & h):
                    if view is None:
                        break  # the rule forbids the whole block
                    view[...] = False
            else:
                if cap < low_total:
                    block &= self.weight <= cap
                yield h << self.low, wh, block

    def maximal(self, budget):
        """``feasible`` cut to the masks that no feasible mask strictly
        contains, for each block that holds one.  The feasible bits of all
        2^n masks are packed into one table of 2^n / 8 bytes (at least 8)
        for ``inclusion_maximal``; each block is unpacked from it."""
        size = 1 << self.low
        step = max(size >> 3, 1)
        packed = np.zeros(max(step * self.high_weight.size, 8), dtype=np.uint8)
        for high, _, block in self.feasible(budget):
            at = (high >> self.low) * step
            packed[at : at + step] = np.packbits(block, bitorder="little")
        inclusion_maximal(packed.view("<u8"), self.n)
        for h, wh in enumerate(self.high_weight.tolist()):
            part = packed[h * step : (h + 1) * step]
            if part.any():
                yield h << self.low, wh, np.unpackbits(part, count=size, bitorder="little").view(np.bool_)


def closed_subsets(out_masks, weights):
    # An arc u -> v forbids u selected with v not.
    n = out_masks.shape[0]
    rules = [
        (1 << u, 1 << v) for u, m in enumerate(map(int, out_masks)) for v in range(n) if m >> v & 1
    ]
    return Subsets(n, rules, weights)


def weak_closed_subsets(in_masks, weights):
    # A node x with in-neighbours forbids them all selected with x not.
    rules = [(m, 1 << x) for x, m in enumerate(map(int, in_masks)) if m]
    return Subsets(in_masks.shape[0], rules, weights)


# Per in-word bit i < 6 of a mask, the word with a one wherever bit i of
# the position is clear.
_IN_WORD = [
    np.uint64(m)
    for m in (
        0x5555555555555555,
        0x3333333333333333,
        0x0F0F0F0F0F0F0F0F,
        0x00FF00FF00FF00FF,
        0x0000FFFF0000FFFF,
        0x00000000FFFFFFFF,
    )
]


def _above(src, n, out):
    """For each node i < n, ``out[S] |= src[S | 1 << i]`` at every mask S
    without i, on tables packed 64 masks per word.  With ``out`` being
    ``src`` the nodes act one after another, so the result is the OR over
    all supersets."""
    # The in-word steps go one slice of at most BLOCK words at a time, so
    # their shift temporary stays that small; slices are independent.
    tmp = np.empty(min(src.size, BLOCK), dtype=src.dtype)
    for at in range(0, src.size, BLOCK):
        part, dst = src[at : at + BLOCK], out[at : at + BLOCK]
        t = tmp[: part.size]
        for i in range(min(n, 6)):
            np.right_shift(part, np.uint64(1 << i), out=t)
            t &= _IN_WORD[i]
            dst |= t
    for i in range(6, n):
        # Node i pairs the words of each group of 2^(i-5): the lower half
        # takes the upper.  Up to 8 words a half, the (groups, half) views
        # are walked half-major in C order, so each of the few inner loops
        # runs over all groups rather than over a half of a few words.
        half = 1 << (i - 6)
        dst = out.reshape(-1, 2, half)[:, 0]
        add = src.reshape(-1, 2, half)[:, 1]
        if half <= 8:
            dst, add = dst.T, add.T
        np.bitwise_or(dst, add, out=dst, order="C")


def inclusion_maximal(words, n):
    """Clear, in place, every set bit of ``words`` that another set bit
    strictly contains: ``words`` is a table over the 2^n masks packed 64
    per uint64 word, bit b of word k being mask 64k + b (below n = 6, one
    word whose bits from 2^n up are clear, which no node's step reads)."""
    above = np.zeros_like(words)
    # The OR over supersets, in place, then whether some set bit lies
    # strictly above: above S by one node, then any superset.  The OR over
    # supersets is the bit or that, so the maximal bits are it and not
    # the second.
    _above(words, n, words)
    _above(words, n, above)
    np.bitwise_not(above, out=above)
    words &= above
