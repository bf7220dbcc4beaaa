"""Exact integer digit arithmetic.

Base-q digit sums, the Thue-Morse sign and its prefix sums, Fibonacci
numbers, and the Zeckendorf digit sum s_Z (the number of summands in the
greedy representation by non-consecutive Fibonacci numbers).  Everything
here is pure integer arithmetic.

`digit_sum_array` sums masked popcounts for bases 2, 4, 8 and 16, and reads
the digit sums of 0 .. q^L - 1 (the largest L with q^L <= 2^16) from a uint8
block table for the other bases 3 <= q <= 16, splitting off one block per
floor division and multiply-subtract pass.  `zeckendorf_digit_sum_array`
reads the summands from F_27 up of a value below F_48 from two bucket
tables (the high part and its summand count at every multiple of F_26),
and s_Z of the rest, below F_27, from a uint8 low table; only values from
F_48 up take greedy passes first.  The tables, and the Fibonacci numbers up
to the first one above 2^63, are built at import, so worker threads only
ever read them.  The scalar functions extend the Fibonacci list on demand
for larger integers (an append-only cache).
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

__all__ = [
    "digit_sum",
    "digit_sum_array",
    "thue_morse_sign",
    "thue_morse_sign_array",
    "thue_morse_prefix_sum",
    "fibonacci",
    "fibonacci_index_below",
    "zeckendorf_digit_sum",
    "zeckendorf_digit_sum_array",
]


def digit_sum(n: int, q: int) -> int:
    """Sum of the base-q digits of n.  Exact for arbitrary-precision n >= 0."""
    if q < 2:
        raise ValueError(f"digit base must be >= 2, got {q}")
    if n < 0:
        raise ValueError(f"digit_sum needs n >= 0, got {n}")
    total = 0
    while n:
        n, r = divmod(n, q)
        total += r
    return total


_TABLE_SIZE = 1 << 16


def _digit_block_table(q: int) -> np.ndarray:
    """s_q(0), ..., s_q(q^L - 1) for the largest L with q^L <= 2^16, built
    digit by digit: s_q(d q^j + m) = d + s_q(m) for m < q^j."""
    table = np.zeros(1, dtype=np.uint8)
    digits = np.arange(q, dtype=np.uint8)
    while table.size * q <= _TABLE_SIZE:
        table = (digits[:, None] + table).ravel()
    return table


# Masks of bit i = 1 .. k-1 of every digit for q = 2^k <= 16: with P_i the popcount of
# n under mask i, s_q(n) = sum_i 2^i P_i = popcount(n) + sum_{i>=1} (2^i - 1) P_i < 256.
_DIGIT_PLANES = {1 << k: [sum(1 << j for j in range(i, 63, k)) for i in range(1, k)]
                 for k in range(1, 5)}
_DIGIT_BLOCK_TABLES = {q: _digit_block_table(q) for q in range(3, 17) if q not in _DIGIT_PLANES}


def digit_sum_array(values: np.ndarray, q: int) -> np.ndarray:
    """Vectorised digit_sum over a nonnegative int64 array (int64 result).

    q = 2, 4, 8 and 16 are sums of masked popcounts.  For the other bases
    3 <= q <= 16 each pass splits off a block of L base-q digits with one
    floor division by q^L and adds its digit sum from the block table, so a
    value takes ceil(digits / L) passes.  Larger bases split off one digit
    per pass and add it as it is."""
    if q < 2:
        raise ValueError(f"digit base must be >= 2, got {q}")
    v = np.asarray(values, dtype=np.int64)
    if v.size and int(v.min()) < 0:
        raise ValueError("digit_sum_array needs nonnegative values")
    planes = _DIGIT_PLANES.get(q)
    if planes is not None:
        out = np.bitwise_count(v)
        for i, plane in enumerate(planes, 1):
            out += np.bitwise_count(v & plane) * ((1 << i) - 1)
        return out.astype(np.int64)
    table = _DIGIT_BLOCK_TABLES.get(q)
    block = q if table is None else table.size
    out = np.zeros(v.shape, dtype=np.int64)
    top = int(v.max()) if v.size else 0
    if top >= block:
        v, quot, r = v.copy(), np.empty_like(v), np.empty_like(v)  # the passes work in place
    while top >= block:
        # r = v - (v // block) * block: cheaper than one np.divmod pass
        np.floor_divide(v, block, out=quot)
        np.multiply(quot, block, out=r)
        np.subtract(v, r, out=r)
        out += r if table is None else table[r]
        v, quot = quot, v
        top //= block
    out += v if table is None else table[v]
    return out


def thue_morse_sign(n: int) -> int:
    """(-1)**s_2(n): +1 on even binary digit sums, -1 on odd."""
    if n < 0:
        raise ValueError(f"thue_morse_sign needs n >= 0, got {n}")
    return 1 - 2 * (int(n).bit_count() & 1)


def thue_morse_prefix_sum(n: int) -> int:
    """T(n) = sum_{m<n} thue_morse_sign(m).  The pairs cancel, t(2i + 1) =
    -t(2i), so T(2k) = 0 and T(2k + 1) = t(2k) = t(k)."""
    if n < 0:
        raise ValueError(f"thue_morse_prefix_sum needs n >= 0, got {n}")
    return thue_morse_sign(n >> 1) if n & 1 else 0


def thue_morse_sign_array(values: np.ndarray) -> np.ndarray:
    """Vectorised thue_morse_sign over a nonnegative int64 array."""
    v = np.asarray(values, dtype=np.int64)
    if v.size and int(v.min()) < 0:
        raise ValueError("thue_morse_sign_array needs nonnegative values")
    # Parity and doubling stay uint8; only the final subtraction widens.
    return np.subtract(1, (np.bitwise_count(v) & 1) << 1, dtype=np.int64)


# Fibonacci list: F_0 = 0, F_1 = 1, ..., built at import past 2^63 (so the
# array kernels never extend it), then append-only for larger integers.
_FIB: list[int] = [0, 1]
while _FIB[-1] < 1 << 63:
    _FIB.append(_FIB[-1] + _FIB[-2])


def fibonacci(k: int) -> int:
    """Exact k-th Fibonacci number (F_0 = 0, F_1 = 1)."""
    if k < 0:
        raise ValueError(f"fibonacci needs k >= 0, got {k}")
    while len(_FIB) <= k:
        _FIB.append(_FIB[-1] + _FIB[-2])
    return _FIB[k]


def fibonacci_index_below(n: int) -> int:
    """Largest k with F_k <= n, for n >= 1.  Resolves the F_1 = F_2 tie
    upward so Zeckendorf indices start at 2."""
    if n < 1:
        raise ValueError("needs n >= 1")
    while _FIB[-1] <= n:
        _FIB.append(_FIB[-1] + _FIB[-2])
    return bisect_right(_FIB, n) - 1


def zeckendorf_digit_sum(n: int) -> int:
    """Number of summands in the Zeckendorf representation (s_Z; 0 at 0)."""
    if n < 0:
        raise ValueError(f"zeckendorf_digit_sum needs n >= 0, got {n}")
    count = 0
    rem = n
    while rem:
        rem -= _FIB[fibonacci_index_below(rem)]
        count += 1
    return count


# s_Z(n) for 0 <= n < F_27 (196418 entries), by T_{k+1} = T_k || (1 + T_{k-1}):
# n in [F_k, F_{k+1}) is F_k plus a remainder below F_{k-1}.
_ZECK_LOW_INDEX = 27


def _zeckendorf_low_table(k: int) -> np.ndarray:
    prev = cur = np.zeros(1, dtype=np.uint8)  # T_1 and T_2, both over [0, 1)
    for _ in range(2, k):
        prev, cur = cur, np.concatenate((cur, prev + 1))
    return cur


def _zeckendorf_greedy(v: np.ndarray, count: np.ndarray, k_hi: int, k_lo: int) -> None:
    """Greedy top-down subtraction of F_k for k = k_hi .. k_lo, in place,
    adding one to count per summand.  After subtracting F_k the remainder
    is < F_{k-1}, so the indices are automatically non-consecutive, and v
    ends below F_{k_lo} wherever it started below F_{k_hi + 1}."""
    m = np.empty(v.shape, dtype=bool)
    for k in range(k_hi, k_lo - 1, -1):
        np.greater_equal(v, _FIB[k], out=m)
        np.subtract(v, _FIB[k], out=v, where=m)
        count += m


_ZECK_LOW_TABLE = _zeckendorf_low_table(_ZECK_LOW_INDEX)

# The high part H(v) of v sums the Zeckendorf summands F_k with k >= 27.
# These sums are increasing in v, and consecutive ones differ by F_26 or
# F_27 (after a sum ending in F_27 comes the one with F_27 + F_26 = F_28 in
# its place; after any other, the one with F_27 added), so each bucket
# [b F_26, (b + 1) F_26) holds at most one start of a new high part.  H(v)
# is therefore H at the end of bucket b = v // F_26 if that is <= v, else H
# at the end of bucket b - 1.  The tables hold H and its summand count at
# every bucket end below F_48 (> 2^32); they take 0.36 MB.
_ZECK_BUCKET = _FIB[_ZECK_LOW_INDEX - 1]
_ZECK_HIGH_INDEX = 48


def _zeckendorf_high_tables(k: int) -> tuple[np.ndarray, np.ndarray]:
    # Built in place: a freed table-sized temporary still adds to the
    # resident memory of every process that imports the module.
    buckets = -(-_FIB[k] // _ZECK_BUCKET)
    high = np.arange(1, buckets + 1, dtype=np.int64)
    high *= _ZECK_BUCKET
    high -= 1
    rest, count = high.copy(), np.zeros(buckets, dtype=np.uint8)
    _zeckendorf_greedy(rest, count, fibonacci_index_below(int(high[-1])), _ZECK_LOW_INDEX)
    high -= rest
    return high, count


_ZECK_HIGH, _ZECK_HIGH_COUNT = _zeckendorf_high_tables(_ZECK_HIGH_INDEX)


def zeckendorf_digit_sum_array(values: np.ndarray) -> np.ndarray:
    """Vectorised s_Z over a nonnegative int64 array (int64 result).

    Values from F_48 up first take greedy passes for the indices k >= 48;
    the remainder, now below F_48, takes the count of its summands from
    F_27 up and its high part from the bucket tables, and what is left,
    below F_27, takes its s_Z from the low table."""
    v = np.array(values, dtype=np.int64, copy=True)
    if v.size and int(v.min()) < 0:
        raise ValueError("zeckendorf_digit_sum_array needs nonnegative values")
    count = np.zeros(v.shape, dtype=np.uint8)  # s_Z <= 46 below 2^63
    top = int(v.max()) if v.size else 0
    _zeckendorf_greedy(v, count, fibonacci_index_below(max(top, 1)), _ZECK_HIGH_INDEX)
    b = v // _ZECK_BUCKET
    b -= _ZECK_HIGH[b] > v
    v -= _ZECK_HIGH[b]
    count += _ZECK_HIGH_COUNT[b]
    count += _ZECK_LOW_TABLE[v]
    return count.astype(np.int64)
