"""Digit arithmetic: examples and independent oracles."""

import math
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
import pytest

from digitseq import (
    digit_sum,
    digit_sum_array,
    digit_table_range_sums,
    digits,
    fibonacci,
    thue_morse_sign,
    thue_morse_sign_array,
    zeckendorf_digit_sum,
    zeckendorf_digit_sum_array,
)
from digitseq.experiments import PHI_FUNCTIONS, _digit_sum_width, resolve_phi
from oracles import exact_phi_sum, thue_morse_prefix_sum, zeckendorf_greedy


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


# The kernels' dtype limits: int32, and uint32, below which the block digit
# sums run narrow passes; 3^20 and 5^14, the reach of two lookups in tables of
# 3^10 and 5^7 entries.
_DTYPE_POINTS = (2 ** 31, 2 ** 32, 3 ** 20, 5 ** 14)


def _boundaries(points) -> list[int]:
    # p - 1, p, p + 1 for every point p and every dtype point, then 0, 2^62
    # and 2^63 - 1; all < 2^63
    out = {0, 2 ** 62, 2 ** 63 - 1}
    out.update(p + d for p in (*points, *_DTYPE_POINTS) for d in (-1, 0, 1))
    return sorted(v for v in out if 0 <= v < 2 ** 63)


def _fibonacci_boundaries() -> list[int]:
    return _boundaries(fibonacci(k) for k in range(1, 94))  # F_93 > 2^63


def _power_boundaries(q: int) -> list[int]:
    # q^j for every j, so q^L - 1 and q^L for every block length L
    return _boundaries(q ** j for j in range(64) if q ** j < 2 ** 63)


def test_zeckendorf_kernel_at_fibonacci_boundaries():
    vals = _fibonacci_boundaries()
    # sorted below F_48 (high parts by runs), and every value both sorted and
    # reversed (greedy passes, then two bucket reads per value)
    for arr in ([v for v in vals if v < fibonacci(48)], vals, vals[::-1]):
        got = zeckendorf_digit_sum_array(arr)
        assert got.tolist() == [zeckendorf_digit_sum(v) for v in arr]
    for v in vals:  # alone, so that the array maximum sets the passes
        assert zeckendorf_digit_sum_array([v]).tolist() == [zeckendorf_digit_sum(v)]


def test_zeckendorf_high_tables_match_the_greedy_kernel():
    # Every bucket end +-1 decides between bucket b and b - 1; around F_48,
    # where the tables end, the greedy passes take over.
    ends = np.arange(1, digits._ZECK_HIGH.size + 1, dtype=np.int64) * digits._ZECK_BUCKET - 1
    vals = np.unique(np.concatenate([ends - 1, ends, ends + 1]))
    for arr in (vals, vals[::-1]):  # high parts by runs, and by two bucket reads
        assert np.array_equal(zeckendorf_digit_sum_array(arr), zeckendorf_greedy(arr))
    edge = [fibonacci(k) + d for k in range(digits._ZECK_HIGH_INDEX - 3,
                                            digits._ZECK_HIGH_INDEX + 4) for d in (-1, 0, 1)]
    assert zeckendorf_digit_sum_array(edge).tolist() == zeckendorf_greedy(edge).tolist()
    for v in edge:  # alone, so that the array maximum sets the greedy passes
        assert zeckendorf_digit_sum_array([v]).tolist() == zeckendorf_greedy([v]).tolist()


@pytest.mark.parametrize("top", [10 ** 6, fibonacci(48), 2 ** 40, 2 ** 62])
def test_zeckendorf_kernel_matches_the_greedy_kernel_on_random_values(top):
    vals = np.sort(np.random.default_rng(top % 1000).integers(0, top, size=20_000))
    want = zeckendorf_greedy(vals)
    perm = np.random.default_rng(1).permutation(vals.size)
    assert np.array_equal(zeckendorf_digit_sum_array(vals[perm]), want[perm])
    # sorted runs that start anywhere in a bucket, before or after its high part
    for start in range(0, vals.size, 250):
        assert np.array_equal(zeckendorf_digit_sum_array(vals[start:]), want[start:])


def test_zeckendorf_kernel_on_sorted_arrays_with_repeats_one_value_or_past_f48():
    # Sorted arrays take the high parts by runs below F_48 and the greedy
    # passes from there: repeated values (empty runs between them), arrays of
    # one repeated value, and sorted arrays that cross F_48.
    rng = np.random.default_rng(23)
    f48 = fibonacci(48)
    bucket = digits._ZECK_BUCKET
    below = np.sort(rng.integers(0, 40 * bucket, size=300))
    arrays = [np.repeat(below, rng.integers(1, 5, size=below.size)),
              np.repeat([f48 - 2, f48 - 1], 3),
              np.arange(f48 - 300, f48 + 300, 3),
              np.sort(rng.integers(fibonacci(47), fibonacci(49), size=500))]
    arrays += [np.full(size, v) for v in (0, 1, bucket - 1, bucket, 7 * bucket - 1, f48 - 1,
                                          f48, 2 ** 62) for size in (1, 2, 17)]
    for arr in arrays:
        got = zeckendorf_digit_sum_array(arr)
        assert got.dtype == np.int64
        assert got.tolist() == [zeckendorf_digit_sum(int(v)) for v in arr]


def test_digit_kernels_leave_their_input_unchanged():
    # The kernels work in place on their own copies, never on the caller's
    # array: int32 and int64 input, below and above 2^32 (and F_48, where
    # the Zeckendorf kernel takes greedy passes), sorted and unsorted.
    rng = np.random.default_rng(21)
    inputs = [np.sort(rng.integers(0, 2 ** 31, size=4096)).astype(np.int32),
              rng.integers(0, 2 ** 31, size=4096).astype(np.int32),
              np.sort(rng.integers(0, 2 ** 32, size=4096)),
              rng.integers(0, 2 ** 32, size=4096),
              np.sort(rng.integers(2 ** 32, 2 ** 63 - 1, size=4096)),
              rng.integers(0, 2 ** 63 - 1, size=4096)]
    kernels = [*(lambda a, q=q: digit_sum_array(a, q) for q in (2, 3, 5, 10, 16, 17, 2 ** 40)),
               zeckendorf_digit_sum_array, thue_morse_sign_array,
               lambda a: digit_table_range_sums(a, a + 9, 3, PHI_FUNCTIONS["one"].table)]
    for arr in inputs:
        before = arr.copy()
        for kernel in kernels:
            kernel(arr)
            assert arr.dtype == before.dtype and np.array_equal(arr, before)


def test_import_time_tables_fit_their_byte_budget():
    # Every import builds these tables, so they count in the resident memory
    # of every process: at most 1.75 MB, under 4 % of a benchmark run's peak
    # RSS (about 48 MB).
    tables = [*digits._DIGIT_BLOCK_TABLES.values(), digits._ZECK_HIGH, digits._ZECK_LOW_TABLE]
    assert sum(t.nbytes for t in tables) <= 1_750_000
    for q, table in digits._DIGIT_BLOCK_TABLES.items():  # q^L for the largest L that fits
        assert table.size <= digits._BLOCK_TABLE_MAX < table.size * q


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


def test_thue_morse_range_sums_equal_the_prefix_sum_oracle():
    # sum_{lo <= m <= hi} t(m) = T(hi + 1) - T(lo), with T(n) from the oracle
    table = PHI_FUNCTIONS["thue-morse"].table
    rng = np.random.default_rng(20)
    for n in (np.arange(1 << 16, dtype=np.int64),
              rng.integers(0, 1 << 62, size=1 << 12, dtype=np.int64)):
        got = digit_table_range_sums(np.zeros_like(n), n - 1, 2, table)
        assert got.tolist() == [thue_morse_prefix_sum(int(v)) for v in n]
        lo = n - rng.integers(0, 1 << 12, size=n.size)
        lo = np.maximum(lo, 0)
        got = digit_table_range_sums(lo, n - 1, 2, table)
        assert got.tolist() == [thue_morse_prefix_sum(int(b)) - thue_morse_prefix_sum(int(a))
                                for a, b in zip(lo, n)]
    empty = np.zeros(0, dtype=np.int64)
    assert digit_table_range_sums(empty, empty, 2, table).tolist() == []
    with pytest.raises(ValueError):
        digit_table_range_sums([5, -1], [9, 3], 2, table)


def _exponential_tables(q: int, rng) -> dict[str, np.ndarray]:
    """The real exponential tables for base q, and digit-exp at two random
    rational alpha (the registry's own tables)."""
    s = np.arange(_digit_sum_width(q, 2 ** 63 - 1))
    tables = {"one": np.ones(s.size), "zero": np.zeros(s.size), "sign": 1.0 - 2.0 * (s & 1)}
    for b in (97, 1000):
        name = f"digit-exp:{q}:{rng.integers(1, b)}/{b}"
        tables[name] = resolve_phi(name).table
    return tables


def _range_ends_below(top: int, q: int, rng) -> np.ndarray:
    """Every value up to 2^7, each leading-digit boundary d q^j - 1, d q^j and
    d q^j + 1 (1 <= d < q), top - 1, top, and 64 random values, all in [0, top]."""
    ends = {*range(129), top - 1, top, *rng.integers(0, top + 1, size=64).tolist()}
    power = q
    while power <= top:
        ends |= {d * power + e for d in range(1, q) for e in (-1, 0, 1)}
        power *= q
    return np.array(sorted(v for v in ends if 0 <= v <= top), dtype=np.int64)


@pytest.mark.parametrize("q", range(2, 17))
def test_range_sums_equal_brute_force_below_2_12(q):
    # Every range [lo, hi] whose ends lo and hi + 1 lie in _range_ends_below(2^12);
    # the brute force counts each digit sum of the range exactly and weights
    # the table with the counts.
    rng = np.random.default_rng(q)
    top = 1 << 12
    ends = _range_ends_below(top, q, rng)
    lo, end = np.meshgrid(ends, ends, indexing="ij")
    lo, hi = lo[lo <= end], end[lo <= end] - 1
    sums = digit_sum_array(np.arange(top), q)
    cumulative = np.zeros((top + 1, sums.max() + 1), dtype=np.int64)
    cumulative[np.arange(1, top + 1), sums] = 1
    counts = np.cumsum(cumulative, axis=0)
    counts = counts[hi + 1] - counts[lo]
    for name, table in _exponential_tables(q, rng).items():
        got = digit_table_range_sums(lo, hi, q, table)
        want = counts @ table[:counts.shape[1]]
        if np.isrealobj(table):  # exact integers
            assert np.array_equal(got, want) and np.array_equal(got, np.round(got)), name
        else:
            # The table is exponential only up to its phase rounding, below
            # 1e-13 for these digit sums (test_registry_tables_are_exponential),
            # and each term of a block carries a few such roundings.
            assert (np.abs(got - want) <= 1e-12 * (hi - lo + 1)).all(), name


@pytest.mark.parametrize("q", [2, 3, 5, 10, 16])
def test_range_sums_near_2_40_match_exact_residue_counts(q):
    # Sampled ranges of up to 10^4 terms from 2^36 to 2^40, against the exact
    # sum of e(a s / b): residue counts of a s mod b weighted with 40-digit roots
    # of unity.  The bound is the table's own phase rounding over the terms
    # plus the worst case of pairwise summation, eps n log2 n; digit-exp:3:1/1000
    # is nearly constant (|g| close to q), where a prefix difference of the
    # sums from 0 would lose eps 2^40.
    rng = np.random.default_rng(36 + q)
    names = [f"digit-exp:{q}:{rng.integers(1, b)}/{b}" for b in (97, 1000)]
    if q == 3:
        names.append("digit-exp:3:1/1000")
    for name in names:
        phi = resolve_phi(name)
        alpha = Fraction(name.split(":")[2])
        with mpmath.workdps(40):  # over every digit sum below 2^41
            rounding = max(abs(complex(v) - mpmath.expjpi(mpmath.mpf(2 * alpha.numerator * s)
                                                          / alpha.denominator))
                           for s, v in enumerate(phi.table[:_digit_sum_width(q, 2 ** 41)]))
        for _ in range(4):
            lo, n = int(rng.integers(2 ** 36, 2 ** 40)), int(rng.integers(1, 10 ** 4 + 1))
            got = digit_table_range_sums([lo], [lo + n - 1], q, phi.table)[0]
            with mpmath.workdps(40):
                error = abs(got - exact_phi_sum(phi, np.arange(lo, lo + n, dtype=np.int64)))
            assert error <= n * (rounding + 2.0 ** -52 * max(1.0, math.log2(n))), (name, lo, n)
