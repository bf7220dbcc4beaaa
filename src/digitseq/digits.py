"""Exact integer digit arithmetic.

Base-q digit sums, the Thue-Morse sign, range sums of a table of the digit
sum by aligned digit blocks, Fibonacci numbers, and the Zeckendorf digit sum
s_Z (the number of summands in the greedy representation by non-consecutive
Fibonacci numbers).  All but the range sums are pure integer arithmetic.

`digit_sum_array` sums masked popcounts for bases 2, 4, 8 and 16, and reads
the digit sums of 0 .. q^L - 1 from a uint8 block table for the other bases
3 <= q <= 16, splitting off one block per floor division and
multiply-subtract pass.  Each table holds q^L entries for the largest L with
q^L <= 2^18 bytes; for q = 3, 5, 7, 10, 11 and 12 that is q^L >= 2^16, so
two lookups cover every value below 2^32.  Their passes run in uint32 when
the array maximum is below 2^32, else in int64.  `zeckendorf_digit_sum_array`
reads the summands from F_27 up of a value below F_48 from one packed
bucket table (the high part and its summand count at every multiple of
F_26), by runs for a sorted array below F_48 and by two reads per value
otherwise, and s_Z of the rest, below F_27, from a uint8 low table; only
values from F_48 up take greedy passes first.  Both kernels add their table
reads up in uint8, so the int64 result is the only wide pass.  The tables,
and the Fibonacci numbers up to the first one above 2^63, are built at
import, so worker threads only ever read them.  The scalar functions extend
the Fibonacci list on demand for larger integers (an append-only cache).
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

__all__ = [
    "digit_sum",
    "digit_sum_array",
    "digit_table_range_sums",
    "thue_morse_sign",
    "thue_morse_sign_array",
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


# Bytes of a block table: q^L <= 2^18 for the largest L.
_BLOCK_TABLE_MAX = 1 << 18


def _digit_block_table(q: int) -> np.ndarray:
    """s_q(0), ..., s_q(q^L - 1) for the largest L with q^L <= _BLOCK_TABLE_MAX,
    built digit by digit: s_q(d q^j + m) = d + s_q(m) for m < q^j."""
    table = np.zeros(1, dtype=np.uint8)
    digits = np.arange(q, dtype=np.uint8)
    while table.size * q <= _BLOCK_TABLE_MAX:
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
    value takes ceil(digits / L) passes: two below 2^32 for q = 3, 5, 7, 10,
    11 and 12.  The passes run in uint32 when the array maximum is below
    2^32, else in int64, and the table reads add up in uint8 (a base-q digit
    sum below 2^63 is at most 225 for q <= 16).  Larger bases split off one
    digit per pass, in the same dtypes, and add it as it is to an int64 sum."""
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
    top = int(v.max()) if v.size else 0
    # astype copies, so the in-place passes never write to the caller's array.
    v = v.astype(np.uint32 if top < 1 << 32 else np.int64)
    out = np.zeros(v.shape, dtype=np.int64 if table is None else np.uint8)
    while top >= block:
        quot = v // block
        v -= quot * block  # the remainder: cheaper than one np.divmod pass
        out += v if table is None else table.take(v)
        v = quot
        top //= block
    out += v if table is None else table.take(v)
    return out.astype(np.int64)


def thue_morse_sign(n: int) -> int:
    """(-1)**s_2(n): +1 on even binary digit sums, -1 on odd."""
    if n < 0:
        raise ValueError(f"thue_morse_sign needs n >= 0, got {n}")
    return 1 - 2 * (int(n).bit_count() & 1)


def thue_morse_sign_array(values: np.ndarray) -> np.ndarray:
    """Vectorised thue_morse_sign over a nonnegative int64 array."""
    v = np.asarray(values, dtype=np.int64)
    if v.size and int(v.min()) < 0:
        raise ValueError("thue_morse_sign_array needs nonnegative values")
    # Parity and doubling stay uint8; only the final subtraction widens.
    return np.subtract(1, (np.bitwise_count(v) & 1) << 1, dtype=np.int64)


def digit_table_range_sums(lo: np.ndarray, hi: np.ndarray, q: int,
                           table: np.ndarray) -> np.ndarray:
    """sum_{lo <= m <= hi} table[s_q(m)] over arrays of ranges (0 where hi < lo)
    for an exponential table, table[s + d] = table[s] table[d]: k digits run in
    place j under fixed higher digits sum to table[s_q(m)] spans[k] g^j, m the
    first value, spans[k] = sum_{d<k} table[d], g = spans[q].  Each level takes
    the runs from the left end to its block's end (or the right end) and from a
    later block's start to the right end, and passes the rest up: no term
    exceeds q |g|^j, one-value runs are exact, g = 0 (Thue-Morse) stops at once."""
    b = np.asarray(hi, dtype=np.int64) + 1
    a = np.minimum(np.asarray(lo, dtype=np.int64), b)
    spans = np.concatenate(([0], np.cumsum(table[:q])))
    total, weight = 0, 1  # weight = g^j
    while True:
        pa, pb = a // q, b // q
        da, db = a - pa * q, b - pb * q
        total = total + weight * (table[digit_sum_array(a, q)] * spans[np.minimum(q - da, b - a)]
                                  + table[digit_sum_array(pb, q)] * spans[db * (pb > pa)])
        a, b, weight = np.minimum(pa + 1, pb), pb, weight * spans[q]
        if weight == 0 or not (a < b).any():
            return total


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
# at the end of bucket b - 1.  The table holds one int64 record H << 8 | n
# at every bucket end below F_48 (> 2^32), n the summand count of H (at
# most 46); it takes 0.32 MB.
_ZECK_BUCKET = _FIB[_ZECK_LOW_INDEX - 1]
_ZECK_HIGH_INDEX = 48


def _zeckendorf_high_table(k: int) -> np.ndarray:
    # Built in place: a freed table-sized temporary still adds to the
    # resident memory of every process that imports the module.
    buckets = -(-_FIB[k] // _ZECK_BUCKET)
    high = np.arange(1, buckets + 1, dtype=np.int64)
    high *= _ZECK_BUCKET
    high -= 1
    rest, count = high.copy(), np.zeros(buckets, dtype=np.uint8)
    _zeckendorf_greedy(rest, count, fibonacci_index_below(int(high[-1])), _ZECK_LOW_INDEX)
    high -= rest
    high <<= 8
    high |= count
    return high


_ZECK_HIGH = _zeckendorf_high_table(_ZECK_HIGH_INDEX)


def zeckendorf_digit_sum_array(values: np.ndarray) -> np.ndarray:
    """Vectorised s_Z over a nonnegative int64 array (int64 result).

    A sorted 1-D array below F_48 (every floor chunk of n^c is one) takes
    its high part H and the count of its summands from F_27 up by runs: the
    records of the buckets it spans list every H that starts inside its
    range, one binary search into the array places each, and np.repeat
    writes out their counts and high parts, so the low table, for the rest
    below F_27, is the only read per value and its ends stand in for the
    minimum and maximum.  Any other array takes greedy passes for the
    indices k >= 48 first, on a copy, where it reaches F_48, and then reads
    two records per value, one to choose between bucket b and b - 1 and one
    for H and its count.  The counts add up in uint8.  Both paths stay in
    int64: uint32 passes measured no faster here, as every read of the
    int64 records would mix the two types."""
    v = np.asarray(values, dtype=np.int64)
    if not v.size:
        return np.zeros(v.shape, dtype=np.int64)
    is_sorted = v.ndim == 1 and bool((v[1:] >= v[:-1]).all())
    low, top = (int(v[0]), int(v[-1])) if is_sorted else (int(v.min()), int(v.max()))
    if low < 0:
        raise ValueError("zeckendorf_digit_sum_array needs nonnegative values")
    k_top = fibonacci_index_below(max(top, 1))
    if is_sorted and k_top < _ZECK_HIGH_INDEX:
        # H at the start of the first bucket is at most v[0]; each later one
        # covers the values from its searchsorted place to the next one's.
        record = _ZECK_HIGH[max(low // _ZECK_BUCKET - 1, 0):top // _ZECK_BUCKET + 1]
        high = record >> 8
        runs = np.diff(np.searchsorted(v, high), append=v.size)
        count = np.repeat(record.astype(np.uint8), runs)  # the low byte: the summand count
        high = np.repeat(high, runs)
    else:
        count = np.zeros(v.shape, dtype=np.uint8)  # s_Z <= 46 below 2^63
        if k_top >= _ZECK_HIGH_INDEX:
            v = v.copy()  # the greedy passes work in place
            _zeckendorf_greedy(v, count, k_top, _ZECK_HIGH_INDEX)
        b = v // _ZECK_BUCKET
        b -= (_ZECK_HIGH.take(b) >> 8) > v
        record = _ZECK_HIGH.take(b)
        count += record.astype(np.uint8)
        high = record >> 8
    count += _ZECK_LOW_TABLE.take(np.subtract(v, high, out=high))
    return count.astype(np.int64)
