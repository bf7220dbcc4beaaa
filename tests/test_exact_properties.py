"""Property tests of the certified floors against exact oracles: integer
roots for floor(n^c), Fractions for Beatty lines, and 60-digit mpmath floors
for the growth function x^c; and of the table-driven digit kernels against
the scalar digit sums and Thue-Morse signs.

The strategies aim at exact ties: n next to perfect c_den-th powers makes
n^c an integer or within a hair of one, and dyadic-rational slopes and
intercepts put n*alpha + beta exactly on integers.  Digit-kernel inputs sit
next to powers of the base and Fibonacci numbers, where the table lookups
and the greedy passes hand over.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitseq import (
    BeattyLine,
    PowerGrowth,
    beatty_floor,
    beatty_floor_range,
    digit_sum,
    digit_sum_array,
    fibonacci,
    int_nth_root,
    ps_block,
    ps_floor,
    thue_morse_sign,
    thue_morse_sign_array,
    zeckendorf_digit_sum,
    zeckendorf_digit_sum_array,
)
from digitseq import sequences

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)

EXPONENTS = [Fraction(3, 2), Fraction(4, 3), Fraction(5, 3), Fraction(7, 4), Fraction(9, 7),
             Fraction(21, 20), Fraction(71, 50), Fraction(5, 2)]


@st.composite
def near_perfect_powers(draw):
    """(f, n) with n within 3 of k**c_den, n < 2**52 and n^c < 2**60."""
    f = PowerGrowth(draw(st.sampled_from(EXPONENTS)))
    n_max = int(2.0 ** min(52.0, 60 / f.cf))
    k = draw(st.integers(1, max(1, int_nth_root(n_max, f.c_den) - 1)))
    n = k ** f.c_den + draw(st.integers(-3, 3))
    return f, max(n, 1)


@PROPERTY
@given(near_perfect_powers())
def test_ps_floor_near_perfect_powers_matches_integer_root(case):
    f, n = case
    assert ps_floor(n, f) == int_nth_root(n ** f.c_num, f.c_den)


@PROPERTY
@given(near_perfect_powers())
def test_ps_block_near_perfect_powers_matches_integer_root(case):
    f, n = case
    lo = max(1, n - 4)
    got = ps_block(lo, n + 4, f)
    assert got.tolist() == [int_nth_root(m ** f.c_num, f.c_den) for m in range(lo, n + 5)]


@st.composite
def increasing_chunks(draw):
    """Sorted doubles on one scale, from 1 up to 2^52: integers, integers
    within 1e-9, and arbitrary fractional parts."""
    base = draw(st.sampled_from([1, 10 ** 3, 10 ** 6, 10 ** 9, 10 ** 12, 2 ** 52 - 2 ** 21]))
    size = draw(st.integers(1, 40))
    ks = draw(st.lists(st.integers(0, 2 ** 20), min_size=size, max_size=size))
    offsets = draw(st.lists(st.one_of(st.just(0.0), st.floats(-1e-9, 1e-9),
                                      st.floats(0.0, 1.0, exclude_max=True)),
                            min_size=size, max_size=size))
    return np.sort(np.array(ks, dtype=np.float64) + base + np.array(offsets))


@PROPERTY
@given(increasing_chunks())
def test_fused_chunk_test_escalates_every_per_element_near_tie(x):
    frac = x - np.floor(x)
    guard = np.maximum(sequences._NEAR_MARGIN, sequences._FLOAT_GUARD_REL * np.maximum(x, 1.0))
    per_element = set(np.flatnonzero(np.minimum(frac, 1.0 - frac) < guard).tolist())
    fused = []
    got = sequences._certified_floor(x.copy(), sequences._pow_guard(float(x[-1])),
                                     lambda i: fused.append(i) or -1)
    assert per_element <= set(fused)
    far = np.ones(x.size, dtype=bool)
    far[fused] = False
    assert np.array_equal(got[far], np.floor(x[far]).astype(np.int64))


@st.composite
def seeded_roots(draw):
    """(f, n): n random below the double-seed limit n^c < 2^53, a
    perfect c_den-th power, or near 2^27."""
    c = draw(st.sampled_from([Fraction(19, 10), Fraction(71, 50), Fraction(3, 2), Fraction(9, 7)]))
    f = PowerGrowth(c)
    n_max = int(2.0 ** (53 / f.cf)) - 1
    k_max = int_nth_root(n_max, f.c_den)
    n = draw(st.one_of(st.integers(1, n_max),
                       st.integers(1, k_max).map(lambda k: k ** f.c_den),
                       st.integers(2 ** 27 - 2 ** 16, 2 ** 27 + 2 ** 16)))
    return f, n


@PROPERTY
@given(seeded_roots())
def test_seeded_root_equals_newton_root(case):
    f, n = case
    power = n ** f.c_num
    newton = int_nth_root(power, f.c_den)
    assert int_nth_root(power, f.c_den, int(float(n) ** f.cf)) == newton
    assert ps_floor(n, f) == newton


def dyadic(lo: int, hi: int, max_shift: int = 10):
    return st.builds(lambda num, shift: num / 2 ** shift,
                     st.integers(lo, hi), st.integers(0, max_shift))


def _exact_floor(n: int, line: BeattyLine) -> int:
    return math.floor(n * Fraction(line.alpha) + Fraction(line.beta))


@PROPERTY
@given(dyadic(1, 1 << 16), dyadic(-(1 << 16), 1 << 16), st.integers(-(1 << 20), 1 << 20))
def test_beatty_floors_on_dyadic_lines_match_fractions(alpha, beta, n_lo):
    line = BeattyLine(alpha, beta)
    got = beatty_floor_range(line, n_lo, n_lo + 40)
    exact = [_exact_floor(n, line) for n in range(n_lo, n_lo + 41)]
    assert got.tolist() == exact
    assert [beatty_floor(n, line) for n in range(n_lo, n_lo + 41)] == exact


FLOOR_GROWTHS = [PowerGrowth(c) for c in (2, Fraction(3, 2), Fraction(5, 4), Fraction(71, 50))]


def _mp_value(f, n: int):
    """n^c from its definition, at mpmath's working precision."""
    return mpmath.root(mpmath.mpf(n ** f.c.numerator), f.c.denominator)


@st.composite
def growth_ranges(draw):
    """(f, n_lo, n_hi, chunk): up to 41 indices anywhere in [2, 10^7], or
    around a perfect square, where x^(3/2) is an integer."""
    f = draw(st.sampled_from(FLOOR_GROWTHS))
    if draw(st.booleans()):
        n_lo = draw(st.integers(2, 10 ** 7))
    else:
        n_lo = max(2, draw(st.integers(2, 3000)) ** 2 - draw(st.integers(0, 20)))
    return f, n_lo, n_lo + draw(st.integers(0, 40)), draw(st.integers(1, 50))


@PROPERTY
@given(growth_ranges())
def test_growth_floor_block_matches_floor_exact_and_mpmath(case):
    f, n_lo, n_hi, chunk = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sequences, "_FLOOR_CHUNK", chunk)
        blocks = list(f.floor_block(n_lo, n_hi))
    assert all(b.dtype == np.int64 and b.size <= chunk for b in blocks)
    got = np.concatenate(blocks).tolist()
    assert got == [f.floor_exact(n) for n in range(n_lo, n_hi + 1)]
    with mpmath.workdps(60):
        assert got == [int(mpmath.floor(_mp_value(f, n))) for n in range(n_lo, n_hi + 1)]


BASES = [*range(2, 17), 17, 2 ** 16 + 1, 10 ** 6, 2 ** 40]


@st.composite
def digit_kernel_inputs(draw):
    """(q, values): int64 values anywhere below 2^63, or within 2 of a power
    of q or of a Fibonacci number, mixed in one array."""
    q = draw(st.sampled_from(BASES))
    powers = [q ** j for j in range(64) if q ** j < 2 ** 63]
    fibs = [fibonacci(k) for k in range(2, 93)]
    near = st.builds(lambda p, d: min(max(p + d, 0), 2 ** 63 - 1),
                     st.sampled_from(powers + fibs), st.integers(-2, 2))
    values = draw(st.lists(st.one_of(st.integers(0, 2 ** 63 - 1), near), max_size=30))
    return q, values


@PROPERTY
@given(digit_kernel_inputs())
def test_digit_kernels_match_scalar_digit_sums(case):
    q, values = case
    assert digit_sum_array(values, q).tolist() == [digit_sum(v, q) for v in values]
    assert zeckendorf_digit_sum_array(values).tolist() == [zeckendorf_digit_sum(v)
                                                         for v in values]
    assert thue_morse_sign_array(values).tolist() == [thue_morse_sign(v) for v in values]


@PROPERTY
@given(st.integers(0, 40), st.integers(0, 1 << 22), st.data())
def test_thue_morse_sign_splits_on_aligned_dyadic_blocks(k, j, data):
    # t(2^k j + r) = t(j) t(r) for r < 2^k: the block identity of the
    # Thue-Morse weighted sum in substitution_deviation
    r = data.draw(st.integers(0, (1 << k) - 1))
    n = (j << k) + r
    expect = thue_morse_sign(j) * thue_morse_sign(r)
    assert thue_morse_sign(n) == expect
    assert thue_morse_sign_array([n]).tolist() == [expect]
