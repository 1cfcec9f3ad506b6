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
  out-neighbours selected", plus its total weight.
- ``weak_closed_subsets(in_masks, weights)``: same for the weak rule
  "all in-neighbours selected forces the node".
- ``inclusion_maximal(closed)``: clears, in place, every set entry of a
  boolean table over all bitmasks that another set entry strictly
  contains.  Fed the feasible masks, it leaves the maximal ones.

These three are the brute-force oracle.  Bit i of a mask is node i, and
the neighbour masks carry no self bit (the graphs have no loops).  The
closure tables are filled in place by doubling: the masks [2^i, 2^(i+1))
are the masks [0, 2^i) plus node i, so each step copies the prefix and
then applies only the rules whose highest node is i.

Both closure rules are lists of forbidden patterns (ones, zeros): a mask
is not closed when it holds every bit of ``ones`` and no bit of
``zeros``.  The strong rule gives one pattern per arc u -> v,
(1 << u, 1 << v); the weak rule one per node x with in-neighbours,
(in[x], 1 << x).  One kernel, ``_forbid``, applies them.  The masks a
pattern matches form a sub-cube: reshaped to (2,)*i, the half table
[0, 2^i) or [2^i, 2^(i+1)) is one axis per node below i, and fixing the
pattern's axes to 0 or 1 leaves a strided view of exactly those masks
(``_cube``).  So each pattern, one per arc or per weak node, is one
``False`` write of 2^(t-k) entries for k fixed bits and highest node t.
No mask index array and no per-rule temporary is built, so the closure
tables hold a bool and a weight per mask, 1 + w bytes, where the weight
table takes the dtype of ``weights``: ``weight_dtype`` picks the
narrowest of int16, int32 and int64 that holds the total weight, so w is
2 for totals below 2^15.  A view has one axis per node, and numpy 1.x
allows 32 axes (2.x 64), so the kernels work up to n = 33;
``exact.DEFAULT_BRUTE_CAP`` is 20 and the tests go to 24.

``inclusion_maximal`` packs the table 64 masks per uint64 word and takes
the OR over supersets (a zeta transform) in place: per node below 6 one
shift-and-mask step inside the words, per node from 6 up one OR of the
upper half of a strided view into the lower.  The same steps applied
once more, into a second packed table, give for each mask whether some
set entry lies strictly above it; the complement is ANDed into the table
``BLOCK`` masks at a time.  That is three packed tables of 2^n / 8 bytes
(the transform, its shift temporary and the result) plus two block-sized
temporaries, about 0.5 MB at n = 20, in 2n passes over 2^n / 64 words.
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
    """The closed and weight tables of all 2^n masks, where a mask is
    closed unless it matches a rule (ones, zeros) of ``rules``: holds
    every bit of ``ones`` and no bit of ``zeros``."""
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


def closed_subsets(out_masks, weights):
    # An arc u -> v forbids u selected with v not.
    n = out_masks.shape[0]
    rules = [
        (1 << u, 1 << v) for u, m in enumerate(map(int, out_masks)) for v in range(n) if m >> v & 1
    ]
    return _forbid(n, rules, weights)


def weak_closed_subsets(in_masks, weights):
    # A node x with in-neighbours forbids them all selected with x not.
    rules = [(m, 1 << x) for x, m in enumerate(map(int, in_masks)) if m]
    return _forbid(in_masks.shape[0], rules, weights)


# Per in-word bit i < 6 of a mask, the word with a one wherever bit i of
# the position is clear.
_LOW = [
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

# Masks per block of a table-sized pass, so that no temporary as large
# as a table is built.
BLOCK = 1 << 16


def _above(src, n, out):
    """For each node i < n, ``out[S] |= src[S | 1 << i]`` at every mask S
    without i, on tables packed 64 masks per word.  With ``out`` being
    ``src`` the nodes act one after another, so the result is the OR over
    all supersets."""
    tmp = np.empty_like(src)
    for i in range(n):
        if i < 6:
            np.right_shift(src, np.uint64(1 << i), out=tmp)
            tmp &= _LOW[i]
            out |= tmp
        else:
            half = 1 << (i - 6)
            out.reshape(-1, 2, half)[:, 0] |= src.reshape(-1, 2, half)[:, 1]


def inclusion_maximal(closed):
    """Clear, in place, every set entry of the boolean table ``closed``
    (2^n entries, one per mask) that another set entry strictly
    contains."""
    n = closed.size.bit_length() - 1
    # Bit b of word k is mask 64k + b.  Below n = 6 one word is padded
    # with zeros, which no node's step reads.
    packed = np.packbits(closed, bitorder="little")
    if packed.size < 8:
        packed = np.pad(packed, (0, 8 - packed.size))
    sup = packed.view("<u8")
    _above(sup, n, sup)
    # Some set entry strictly above: above S by one node, then any superset.
    above = np.zeros_like(sup)
    _above(sup, n, above)
    above_bytes = above.view(np.uint8)
    for start in range(0, closed.size, BLOCK):
        bits = np.unpackbits(
            above_bytes[start >> 3 : (start + BLOCK) >> 3],
            count=min(BLOCK, closed.size - start),
            bitorder="little",
        )
        closed[start : start + BLOCK] &= bits == 0
