import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dss import _kernels


class TestOrConvolve:
    def test_delta_identity(self):
        a = np.zeros(6, dtype=np.bool_)
        a[0] = True
        b = np.zeros(6, dtype=np.bool_)
        b[2] = b[4] = True
        assert np.array_equal(_kernels.or_convolve(a, b), b)

    def test_cap(self):
        a = np.zeros(4, dtype=np.bool_)
        b = np.zeros(4, dtype=np.bool_)
        a[3] = b[3] = True
        out = _kernels.or_convolve(a, b)
        assert not out.any()  # 3 + 3 overflows the cap

    @given(
        st.lists(st.booleans(), min_size=1, max_size=12),
        st.lists(st.booleans(), min_size=1, max_size=12),
    )
    @settings(max_examples=80, deadline=None)
    def test_backends_agree_and_match_reference(self, xs, ys):
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
        assert np.array_equal(_kernels.or_convolve(a, b), ref)

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
        assert np.array_equal(_kernels.or_convolve(a, b), ref)


class TestMaxminConvolve:
    def test_delta_identity(self):
        a = np.full(6, -1, dtype=np.int64)
        a[0] = 2**62  # "no constraint" score at weight 0
        b = np.full(6, -1, dtype=np.int64)
        b[2], b[4] = 7, 3
        assert np.array_equal(_kernels.maxmin_convolve(a, b), b)

    def test_unreachable_stays_unreachable(self):
        a = np.full(4, -1, dtype=np.int64)
        b = np.full(4, -1, dtype=np.int64)
        assert np.array_equal(_kernels.maxmin_convolve(a, b), a)

    @given(
        st.lists(st.integers(min_value=-1, max_value=9), min_size=1, max_size=10),
        st.lists(st.integers(min_value=-1, max_value=9), min_size=1, max_size=10),
    )
    @settings(max_examples=80, deadline=None)
    def test_backends_agree_and_match_reference(self, xs, ys):
        n = max(len(xs), len(ys))
        a = np.full(n, -1, dtype=np.int64)
        a[: len(xs)] = xs
        b = np.full(n, -1, dtype=np.int64)
        b[: len(ys)] = ys
        ref = np.full(n, -1, dtype=np.int64)
        for i in range(n):
            for j in range(n - i):
                if a[i] >= 0 and b[j] >= 0:
                    ref[i + j] = max(ref[i + j], min(a[i], b[j]))
        assert np.array_equal(_kernels.maxmin_convolve(a, b), ref)

    @given(
        st.lists(st.integers(min_value=-1, max_value=9), min_size=1, max_size=10),
        st.lists(st.integers(min_value=-1, max_value=9), min_size=1, max_size=10),
    )
    @settings(max_examples=80, deadline=None)
    def test_shorter_b_matches_reference(self, xs, ys):
        a = np.array(xs + ys, dtype=np.int64)
        b = np.array(ys, dtype=np.int64)  # len(b) < len(a)
        n = a.shape[0]
        ref = np.full(n, -1, dtype=np.int64)
        for i in range(n):
            for j in range(min(b.shape[0], n - i)):
                if a[i] >= 0 and b[j] >= 0:
                    ref[i + j] = max(ref[i + j], min(a[i], b[j]))
        assert np.array_equal(_kernels.maxmin_convolve(a, b), ref)


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


def _completion_reference(masks):
    """Per mask, the weak forcing rule applied until nothing changes."""
    n = masks.shape[0]
    out = np.zeros(1 << n, dtype=np.int64)
    for m in range(1 << n):
        grown = m
        while True:
            step = grown
            for x in range(n):
                if masks[x] != 0 and grown & masks[x] == masks[x]:
                    step |= 1 << x
            if step == grown:
                break
            grown = step
        out[m] = grown
    return out


class TestSubsetKernels:
    @pytest.mark.parametrize("case", _EDGE_CASES)
    def test_edge_cases_match_reference(self, case):
        masks, weights = _EDGE_CASES[case]
        for weak, kernel in ((False, _kernels.closed_subsets), (True, _kernels.weak_closed_subsets)):
            got_c, got_w = kernel(masks, weights)
            ref_c, ref_w = _closed_reference(masks, weights, weak=weak)
            assert np.array_equal(got_c, ref_c)
            assert np.array_equal(got_w, ref_w)

    @pytest.mark.parametrize("case", ["random", *_EDGE_CASES])
    def test_weak_completions_match_reference(self, case):
        masks, _ = {"random": _random_masks(7, 8), **_EDGE_CASES}[case]
        got = _kernels.weak_completions(masks)
        assert np.array_equal(got, _completion_reference(masks))

    @pytest.mark.parametrize("seed", range(5))
    def test_closed_backends_agree(self, seed):
        masks, weights = _random_masks(seed, 8)
        got_c, got_w = _kernels.closed_subsets(masks, weights)
        ref_c, ref_w = _closed_reference(masks, weights)
        assert np.array_equal(got_c, ref_c)
        assert np.array_equal(got_w, ref_w)

    @pytest.mark.parametrize("seed", range(5))
    def test_weak_backends_agree(self, seed):
        masks, weights = _random_masks(seed, 8)
        got_c, got_w = _kernels.weak_closed_subsets(masks, weights)
        ref_c, ref_w = _closed_reference(masks, weights, weak=True)
        assert np.array_equal(got_c, ref_c)
        assert np.array_equal(got_w, ref_w)

    def test_closed_literal_semantics(self):
        masks, weights = _random_masks(3, 6)
        closed, weight = _kernels.closed_subsets(masks, weights)
        for m in range(1 << 6):
            sel = [i for i in range(6) if (m >> i) & 1]
            expect_closed = all(m & masks[i] == masks[i] for i in sel)
            assert bool(closed[m]) == expect_closed
            assert weight[m] == sum(weights[i] for i in sel)

    def test_weak_literal_semantics(self):
        masks, weights = _random_masks(4, 6)
        closed, weight = _kernels.weak_closed_subsets(masks, weights)
        for m in range(1 << 6):
            expect_closed = all(
                (m >> i) & 1 or masks[i] == 0 or m & masks[i] != masks[i]
                for i in range(6)
            )
            assert bool(closed[m]) == expect_closed
