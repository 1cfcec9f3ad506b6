import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from dss import _kernels


def _bits(flags) -> int:
    return sum(1 << i for i, f in enumerate(flags) if f)


class TestShiftOr:
    def test_delta_identity(self):
        assert _kernels.shift_or(0b1, 0b10100, 6) == 0b10100

    def test_cap(self):
        assert _kernels.shift_or(0b1000, 0b1000, 4) == 0  # 3 + 3 overflows the cap

    def test_empty_operand(self):
        assert _kernels.shift_or(0, 0b111, 4) == 0
        assert _kernels.shift_or(0b111, 0, 4) == 0

    @given(
        st.lists(st.booleans(), min_size=1, max_size=12),
        st.lists(st.booleans(), min_size=1, max_size=12),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_reference(self, xs, ys):
        n = max(len(xs), len(ys))
        a = np.zeros(n, dtype=np.bool_)
        a[: len(xs)] = xs
        b = np.zeros(n, dtype=np.bool_)
        b[: len(ys)] = ys
        ref = np.zeros(n, dtype=np.bool_)
        for i in range(n):
            for j in range(n - i):
                if a[i] and b[j]:
                    ref[i + j] = True
        assert _kernels.shift_or(_bits(a), _bits(b), n) == _bits(ref)

    @given(
        st.lists(st.booleans(), min_size=1, max_size=12),
        st.lists(st.booleans(), min_size=1, max_size=12),
    )
    @settings(max_examples=80, deadline=None)
    def test_shorter_b_matches_reference(self, xs, ys):
        a, b = np.array(xs + ys), np.array(ys)  # len(b) < len(a)
        n = a.shape[0]
        ref = np.zeros(n, dtype=np.bool_)
        for i in range(n):
            for j in range(min(b.shape[0], n - i)):
                if a[i] and b[j]:
                    ref[i + j] = True
        assert _kernels.shift_or(_bits(a), _bits(b), n) == _bits(ref)

    @given(
        st.lists(st.tuples(st.integers(0, 300), st.integers(1, 300)), max_size=4),
        st.lists(st.tuples(st.integers(0, 300), st.integers(1, 300)), max_size=4),
        st.integers(1, 1200),
    )
    @settings(max_examples=60, deadline=None)
    def test_long_runs_match_reference(self, runs_a, runs_b, n):
        """Runs of set bits longer than a doubling step, in either operand."""
        a = b = 0
        for s, r in runs_a:
            a |= ((1 << r) - 1) << s
        for s, r in runs_b:
            b |= ((1 << r) - 1) << s
        ref = 0
        for i in range(a.bit_length()):
            if (a >> i) & 1:
                ref |= b << i
        assert _kernels.shift_or(a, b, n) == ref & ((1 << n) - 1)


# Operands that take shift_or's fast path: none, or one bit (bit 0 too).
_SHORT = st.one_of(st.just(0), st.integers(0, 80).map(lambda s: 1 << s))


class TestShiftOrFastPath:
    """A zero or one-bit operand on either side skips the run scan."""

    @given(_SHORT, st.integers(0, 2**80), st.integers(1, 100))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_either_side(self, short, other, nbits):
        ref = oracles.shift_or_reference(short, other, nbits)
        assert _kernels.shift_or(short, other, nbits) == ref
        assert _kernels.shift_or(other, short, nbits) == ref

    @pytest.mark.parametrize("other", [0, 1, 0b1011, 2**40 - 1])
    def test_bit_zero_is_identity(self, other):
        assert _kernels.shift_or(1, other, 41) == other
        assert _kernels.shift_or(other, 1, 41) == other

    @pytest.mark.parametrize("other", [0b1, 0b101, 0b111])
    def test_cut_keeps_bit_nbits_minus_one(self, other):
        """A one bit at s moves bit 0 of the other operand to s: kept at
        s = nbits - 1, dropped at s = nbits."""
        for a, b in ((1 << 9, other), (other, 1 << 9)):
            assert _kernels.shift_or(a, b, 10) == (1 << 9)
            assert _kernels.shift_or(a, b, 9) == 0
        assert _kernels.shift_or(1 << 4, 1 << 5, 10) == 1 << 9
        assert _kernels.shift_or(1 << 5, 1 << 5, 10) == 0


class TestReverseBits:
    @given(st.integers(0, 2**70), st.integers(0, 80))
    @settings(max_examples=100, deadline=None)
    def test_matches_string_reversal(self, x, nbits):
        x &= (1 << nbits) - 1
        expect = int(format(x, f"0{nbits}b")[::-1], 2) if nbits else 0
        assert _kernels.reverse_bits(x, nbits) == expect


def _random_masks(seed, n):
    rng = np.random.default_rng(seed)
    masks = rng.integers(0, 1 << n, size=n, dtype=np.int64)
    masks &= ~(np.int64(1) << np.arange(n, dtype=np.int64))  # no self bit
    weights = rng.integers(0, 9, size=n, dtype=np.int64)
    return masks, weights


def _closed_reference(masks, weights, weak=False):
    """Per mask: closed under the strong (weak) rule, and total weight."""
    n = masks.shape[0]
    closed = np.ones(1 << n, dtype=np.bool_)
    weight = np.zeros(1 << n, dtype=np.int64)
    for m in range(1 << n):
        for i in range(n):
            if (m >> i) & 1:
                weight[m] += weights[i]
                if not weak and m & masks[i] != masks[i]:
                    closed[m] = False
            elif weak and masks[i] != 0 and m & masks[i] == masks[i]:
                closed[m] = False
    return closed, weight


def _ordered_masks(seed, n, higher):
    """Random masks in which every neighbour of node i has a higher (or
    every one a lower) id than i: the doubling applies the two directions
    at different steps."""
    masks, weights = _random_masks(seed, n)
    below = (np.int64(1) << np.arange(n, dtype=np.int64)) - 1
    return (masks & ~below if higher else masks & below), weights


_EDGE_CASES = {
    "n0": _random_masks(0, 0),
    "n1": _random_masks(0, 1),
    "higher": _ordered_masks(5, 8, True),
    "lower": _ordered_masks(6, 8, False),
}


def _tables(subsets):
    """The closed and weight tables of all 2^n masks, put together from
    the blocks of a ``Subsets``: under a budget of the total weight, a
    block that ``feasible`` skips holds no closed mask."""
    size = 1 << subsets.low
    closed = np.zeros(size * subsets.high_weight.size, dtype=np.bool_)
    total = int(subsets.weight[-1]) + int(subsets.high_weight[-1])
    for high, _, block in subsets.feasible(total):
        closed[high : high + size] = block
    weight = (subsets.high_weight[:, None] + subsets.weight[None, :]).ravel()
    return closed, weight


def _inclusion_maximal(closed):
    """``_kernels.inclusion_maximal`` on a boolean table, in place: packed
    64 masks per word (one zero-padded word below n = 6) and unpacked."""
    n = closed.size.bit_length() - 1
    packed = np.zeros(max(closed.size >> 3, 8), dtype=np.uint8)
    bits = np.packbits(closed, bitorder="little")
    packed[: bits.size] = bits
    _kernels.inclusion_maximal(packed.view("<u8"), n)
    closed[:] = np.unpackbits(packed, count=closed.size, bitorder="little")


class TestSubsetKernels:
    @pytest.mark.parametrize("case", _EDGE_CASES)
    def test_edge_cases_match_reference(self, case):
        masks, weights = _EDGE_CASES[case]
        for weak, kernel in ((False, _kernels.closed_subsets), (True, _kernels.weak_closed_subsets)):
            got_c, got_w = _tables(kernel(masks, weights))
            ref_c, ref_w = _closed_reference(masks, weights, weak=weak)
            assert np.array_equal(got_c, ref_c)
            assert np.array_equal(got_w, ref_w)

    @pytest.mark.parametrize("total", [2**15 - 1, 2**15, 2**31 - 1, 2**31])
    def test_weight_width_boundaries(self, total):
        """Weights summing to exactly the largest total of a dtype, or one
        more, in the dtype ``weight_dtype`` picks: the full mask's weight
        must not wrap."""
        masks, _ = _random_masks(8, 8)
        dtype = _kernels.weight_dtype(total)
        assert dtype == (np.int16 if total < 2**15 else np.int32 if total < 2**31 else np.int64)
        weights = np.full(8, total // 8, dtype=dtype)
        weights[-1] += total % 8
        for weak, kernel in ((False, _kernels.closed_subsets), (True, _kernels.weak_closed_subsets)):
            got_c, got_w = _tables(kernel(masks, weights))
            ref_c, ref_w = _closed_reference(masks, weights, weak=weak)
            assert got_w.dtype == dtype and got_w[-1] == total
            assert np.array_equal(got_c, ref_c)
            assert np.array_equal(got_w, ref_w)

    @pytest.mark.parametrize("seed", range(5))
    def test_closed_backends_agree(self, seed):
        masks, weights = _random_masks(seed, 8)
        got_c, got_w = _tables(_kernels.closed_subsets(masks, weights))
        ref_c, ref_w = _closed_reference(masks, weights)
        assert np.array_equal(got_c, ref_c)
        assert np.array_equal(got_w, ref_w)

    @pytest.mark.parametrize("seed", range(5))
    def test_weak_backends_agree(self, seed):
        masks, weights = _random_masks(seed, 8)
        got_c, got_w = _tables(_kernels.weak_closed_subsets(masks, weights))
        ref_c, ref_w = _closed_reference(masks, weights, weak=True)
        assert np.array_equal(got_c, ref_c)
        assert np.array_equal(got_w, ref_w)

    def test_closed_literal_semantics(self):
        masks, weights = _random_masks(3, 6)
        closed, weight = _tables(_kernels.closed_subsets(masks, weights))
        for m in range(1 << 6):
            sel = [i for i in range(6) if (m >> i) & 1]
            expect_closed = all(m & masks[i] == masks[i] for i in sel)
            assert bool(closed[m]) == expect_closed
            assert weight[m] == sum(weights[i] for i in sel)

    def test_weak_literal_semantics(self):
        masks, weights = _random_masks(4, 6)
        closed, weight = _tables(_kernels.weak_closed_subsets(masks, weights))
        for m in range(1 << 6):
            expect_closed = all(
                (m >> i) & 1 or masks[i] == 0 or m & masks[i] != masks[i]
                for i in range(6)
            )
            assert bool(closed[m]) == expect_closed

    @pytest.mark.parametrize("n", [16, 17, 19])
    @pytest.mark.parametrize("weak", [False, True], ids=["strong", "weak"])
    def test_blocks_match_table_reference(self, n, weak):
        """Across the 2^16 boundary the blocks put together equal the
        earlier whole tables: rules within the low nodes, rules with a
        low and a high part, and (weak rule, in-neighbours all high) rules
        with no low part that empty whole blocks."""
        rng = np.random.default_rng(n)
        masks = np.where(rng.random((n, n)) < 3 / n, 1, 0) * (1 << np.arange(n, dtype=np.int64))
        masks = masks.sum(axis=1) & ~(np.int64(1) << np.arange(n, dtype=np.int64))
        masks[0] = 0b11 << (n - 2)
        masks[-1] = 1 << (n - 2)
        weights = rng.integers(0, 9, size=n).astype(np.int16)
        kernel = _kernels.weak_closed_subsets if weak else _kernels.closed_subsets
        reference = oracles.table_weak_closed_subsets if weak else oracles.table_closed_subsets
        got_c, got_w = _tables(kernel(masks, weights))
        ref_c, ref_w = reference(masks, weights)
        assert np.array_equal(got_c, ref_c)
        assert np.array_equal(got_w, ref_w)


def _inclusion_maximal_reference(closed):
    """Per mask: set, and no set entry strictly contains it."""
    top = np.flatnonzero(closed)
    return np.array(
        [bool(closed[s]) and not any(t != s and t & s == s for t in top) for s in range(closed.size)],
        dtype=np.bool_,
    )


class TestInclusionMaximal:
    @pytest.mark.parametrize("n", range(9))
    def test_random_tables_match_reference(self, n):
        """Below n = 6 the packed table is one zero-padded word."""
        rng = np.random.default_rng(n)
        for p in (0.05, 0.3, 0.7):
            closed = rng.random(1 << n) < p
            expected = _inclusion_maximal_reference(closed)
            _inclusion_maximal(closed)
            assert np.array_equal(closed, expected)

    @pytest.mark.parametrize("n", [0, 1, 5, 6, 7])
    @pytest.mark.parametrize("case", ["all", "none", "one"])
    def test_extreme_tables(self, n, case):
        """All set leaves only the full mask; all clear stays clear; a
        single entry stays."""
        size = 1 << n
        closed = np.full(size, case == "all")
        if case == "one":
            closed[size // 3] = True
        expected = np.zeros(size, dtype=np.bool_)
        if case != "none":
            expected[size - 1 if case == "all" else size // 3] = True
        _inclusion_maximal(closed)
        assert np.array_equal(closed, expected)

    @pytest.mark.parametrize("n", [1, 6, 8])
    def test_one_node_apart(self, n):
        """Two entries, S and S plus node i: only the larger stays, for
        every node (in-word and word-level steps) and for S empty or all
        but i."""
        full = (1 << n) - 1
        for i in range(n):
            for s in (0, full & ~(1 << i)):
                closed = np.zeros(1 << n, dtype=np.bool_)
                closed[[s, s | 1 << i]] = True
                _inclusion_maximal(closed)
                assert np.flatnonzero(closed).tolist() == [s | 1 << i]

    def test_sparse_table_across_blocks(self):
        """n = 17: two blocks of the final pass, and supersets whose
        subsets lie in the other block."""
        rng = np.random.default_rng(17)
        closed = np.zeros(1 << 17, dtype=np.bool_)
        closed[rng.integers(0, 1 << 17, size=60)] = True
        closed[[0, 1, 1 << 16, (1 << 16) | 1, 5]] = True
        expected = _inclusion_maximal_reference(closed)
        _inclusion_maximal(closed)
        assert np.array_equal(closed, expected)
        assert not closed[1] and not closed[0]
