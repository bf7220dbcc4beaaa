"""Digit arithmetic: examples and independent oracles."""

import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from digitseq import (
    digit_sum,
    digit_sum_array,
    digits,
    fibonacci,
    thue_morse_prefix_sum_array,
    thue_morse_sign,
    thue_morse_sign_array,
    zeckendorf_digit_sum,
    zeckendorf_digit_sum_array,
)
from oracles import thue_morse_prefix_sum, zeckendorf_greedy


def test_digit_sum_examples():
    assert digit_sum(0, 2) == 0
    assert digit_sum(7, 2) == 3
    assert digit_sum(1234, 10) == 10


def test_digit_sum_validation():
    with pytest.raises(ValueError):
        digit_sum(5, 1)
    with pytest.raises(ValueError):
        digit_sum(-1, 2)


def test_digit_sum_huge_integer():
    n = 10 ** 50 - 1  # fifty nines
    assert digit_sum(n, 10) == 9 * 50


def test_binary_parity_matches_xor_fold():
    # independent oracle: iterated bit-xor of the binary digits
    n = np.arange(1 << 20, dtype=np.int64)
    xor_parity = np.zeros_like(n)
    for k in range(20):
        xor_parity ^= (n >> k) & 1
    assert np.array_equal(digit_sum_array(n, 2) & 1, xor_parity)


def test_digit_sum_array_matches_scalar():
    rng = np.random.default_rng(0)
    vals = np.concatenate([rng.integers(0, 10 ** 12, size=500),
                           rng.integers(0, 2 ** 63 - 1, size=500),
                           np.arange(2 ** 62 - 40, 2 ** 62 + 40), np.arange(2 ** 63 - 40, 2 ** 63 - 1)])
    for q in (2, 3, 4, 7, 8, 10, 16):
        arr = digit_sum_array(vals, q)
        assert all(int(arr[i]) == digit_sum(int(v), q) for i, v in enumerate(vals))


def test_thue_morse_examples_and_recurrences():
    assert thue_morse_sign(0) == 1
    assert thue_morse_sign(1) == -1
    assert thue_morse_sign(3) == 1
    for m in range(10_000):
        assert thue_morse_sign(2 * m) == thue_morse_sign(m)
        assert thue_morse_sign(2 * m + 1) == -thue_morse_sign(2 * m)
    n = np.arange(10_000)
    assert np.array_equal(thue_morse_sign_array(n),
                          np.array([thue_morse_sign(int(v)) for v in n]))


def test_fibonacci_values():
    assert fibonacci(0) == 0
    assert fibonacci(1) == 1
    assert fibonacci(2) == 1
    assert fibonacci(10) == 55
    for k in range(2, 90):
        assert fibonacci(k) == fibonacci(k - 1) + fibonacci(k - 2)


def test_zeckendorf_examples():
    for k in range(2, 30):
        assert zeckendorf_digit_sum(fibonacci(k)) == 1
    assert zeckendorf_digit_sum(0) == 0
    assert zeckendorf_digit_sum(100) == 3  # 3 + 8 + 89


def test_zeckendorf_reconstruction_bulk_million():
    # vectorised greedy replay: track the chosen Fibonacci mass and forbid
    # consecutive picks, for every n below 10^6
    n = np.arange(1_000_000, dtype=np.int64)
    rem = n.copy()
    recon = np.zeros_like(n)
    prev_mask = np.zeros(len(n), dtype=bool)
    kmax = 30  # F_30 = 832040 <= 10^6 - 1 < F_31
    assert fibonacci(kmax) <= len(n) - 1 < fibonacci(kmax + 1)
    for k in range(kmax, 1, -1):
        f = np.int64(fibonacci(k))
        mask = rem >= f
        assert not np.any(mask & prev_mask), "consecutive Fibonacci picks"
        rem[mask] -= f
        recon[mask] += f
        prev_mask = mask
    assert np.array_equal(recon, n)
    assert not rem.any()


@lru_cache(maxsize=None)
def _representation_sizes(i: int, rem: int) -> tuple[int, ...]:
    # summand counts of the non-consecutive subsets of {F_2..F_i} summing to
    # rem, one entry per subset
    if rem == 0:
        return (0,)
    if i < 2 or rem < 0:
        return ()
    return _representation_sizes(i - 1, rem) + tuple(
        size + 1 for size in _representation_sizes(i - 2, rem - fibonacci(i)))


def test_zeckendorf_uniqueness_backtracking():
    # Every n < 10^4 has exactly one representation, and the scalar s_Z, the
    # reference of the array kernel and of the benchmark's oracle checks,
    # counts its summands.
    top = 20  # F_20 = 6765 < 10^4 < F_21
    assert fibonacci(top) < 10 ** 4 < fibonacci(top + 1)
    for n in range(10 ** 4):
        assert _representation_sizes(top, n) == (zeckendorf_digit_sum(n),)


def test_zeckendorf_digit_sum_array_matches_scalar():
    rng = np.random.default_rng(1)
    vals = rng.integers(0, 10 ** 9, size=2000)
    arr = zeckendorf_digit_sum_array(vals)
    assert all(int(arr[i]) == zeckendorf_digit_sum(int(v)) for i, v in enumerate(vals))


def _boundaries(points) -> list[int]:
    # p - 1, p, p + 1 for every point p, then 0, 2^62 and 2^63 - 1; all < 2^63
    out = {0, 2 ** 62, 2 ** 63 - 1}
    out.update(p + d for p in points for d in (-1, 0, 1))
    return sorted(v for v in out if 0 <= v < 2 ** 63)


def _fibonacci_boundaries() -> list[int]:
    return _boundaries(fibonacci(k) for k in range(1, 94))  # F_93 > 2^63


def _power_boundaries(q: int) -> list[int]:
    # q^j for every j, so q^L - 1 and q^L for every block length L
    return _boundaries(q ** j for j in range(64) if q ** j < 2 ** 63)


def test_zeckendorf_kernel_at_fibonacci_boundaries():
    vals = _fibonacci_boundaries()
    got = zeckendorf_digit_sum_array(vals)
    assert got.tolist() == [zeckendorf_digit_sum(v) for v in vals]
    for v in vals:  # alone, so that the array maximum sets the passes
        assert zeckendorf_digit_sum_array([v]).tolist() == [zeckendorf_digit_sum(v)]


def test_zeckendorf_high_tables_match_the_greedy_kernel():
    # Every bucket end +-1 decides between bucket b and b - 1; around F_48,
    # where the tables end, the greedy passes take over.
    ends = np.arange(1, digits._ZECK_HIGH.size + 1, dtype=np.int64) * digits._ZECK_BUCKET - 1
    vals = np.unique(np.concatenate([ends - 1, ends, ends + 1]))
    assert np.array_equal(zeckendorf_digit_sum_array(vals), zeckendorf_greedy(vals))
    edge = [fibonacci(k) + d for k in range(digits._ZECK_HIGH_INDEX - 3,
                                            digits._ZECK_HIGH_INDEX + 4) for d in (-1, 0, 1)]
    assert zeckendorf_digit_sum_array(edge).tolist() == zeckendorf_greedy(edge).tolist()
    for v in edge:  # alone, so that the array maximum sets the greedy passes
        assert zeckendorf_digit_sum_array([v]).tolist() == zeckendorf_greedy([v]).tolist()


@pytest.mark.parametrize("top", [10 ** 6, fibonacci(48), 2 ** 40, 2 ** 62])
def test_zeckendorf_kernel_matches_the_greedy_kernel_on_random_values(top):
    vals = np.random.default_rng(top % 1000).integers(0, top, size=20_000)
    assert np.array_equal(zeckendorf_digit_sum_array(vals), zeckendorf_greedy(vals))


@pytest.mark.parametrize("q", range(2, 17))
def test_digit_sum_kernel_at_power_boundaries(q):
    vals = _power_boundaries(q)
    got = digit_sum_array(vals, q)
    assert got.tolist() == [digit_sum(v, q) for v in vals]
    for v in vals:
        assert digit_sum_array([v], q).tolist() == [digit_sum(v, q)]


@pytest.mark.parametrize("q", [2 ** 16 + 1, 10 ** 6, 2 ** 40, 2 ** 64])
def test_digit_sum_kernel_large_base_allocates_no_base_sized_table(q):
    vals = [v for v in sorted({*_power_boundaries(q), q - 1, q + 1, 123456789}) if v < 2 ** 63]
    arr = np.array(vals, dtype=np.int64)
    tracemalloc.start()
    try:
        got = digit_sum_array(arr, q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.tolist() == [digit_sum(v, q) for v in vals]
    assert peak < 4096  # a few arrays of len(vals) int64, no table


def test_digit_kernels_on_empty_arrays():
    for empty in ([], np.zeros(0, dtype=np.int64)):
        for q in (2, 3, 16, 17, 2 ** 40):
            got = digit_sum_array(empty, q)
            assert got.dtype == np.int64 and got.shape == (0,)
        for kernel in (zeckendorf_digit_sum_array, thue_morse_sign_array):
            got = kernel(empty)
            assert got.dtype == np.int64 and got.shape == (0,)


def test_digit_kernels_return_int64():
    # all-zero input, input below every table bound, and input above it
    for vals in ([0, 0], [1, 5, 99], [2 ** 63 - 1, 7]):
        arr = np.array(vals, dtype=np.int32 if max(vals) < 2 ** 31 else np.int64)
        for q in (2, 3, 10, 17, 2 ** 40):
            assert digit_sum_array(arr, q).dtype == np.int64
        assert zeckendorf_digit_sum_array(arr).dtype == np.int64
        assert thue_morse_sign_array(arr).dtype == np.int64


def test_thue_morse_prefix_sum_matches_the_running_sum():
    # T(n) = sum_{m<n} t(m) against cumsum, from 0 and across 2^62
    for base, count in ((0, 1 << 16), ((1 << 62) - (1 << 12), 1 << 13)):
        m = np.arange(base, base + count, dtype=np.int64)
        running = np.concatenate(([0], np.cumsum(thue_morse_sign_array(m))))
        got = [thue_morse_prefix_sum(base + i) - thue_morse_prefix_sum(base)
               for i in range(count + 1)]
        assert got == running.tolist()
    assert thue_morse_prefix_sum(0) == 0 and thue_morse_prefix_sum(1 << 62) == 0
    with pytest.raises(ValueError):
        thue_morse_prefix_sum(-1)


def test_thue_morse_prefix_sum_array_equals_the_scalar():
    rng = np.random.default_rng(20)
    for n in (np.arange(1 << 16, dtype=np.int64),
              rng.integers(0, 1 << 62, size=1 << 12, dtype=np.int64)):
        assert thue_morse_prefix_sum_array(n).tolist() == [thue_morse_prefix_sum(int(v))
                                                           for v in n]
    assert thue_morse_prefix_sum_array(np.zeros(0, dtype=np.int64)).tolist() == []
    with pytest.raises(ValueError):
        thue_morse_prefix_sum_array([5, -1])
