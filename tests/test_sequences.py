"""Exact floors, Beatty lines, the growth function x^c and the tangent-line
floor mismatches."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

import digitseq
from digitseq import (
    BeattyLine,
    GrowthFunction,
    PowerGrowth,
    beatty_floor,
    beatty_floor_range,
    count_floor_mismatches,
    int_nth_root,
    ps_block_chunks,
    ps_floor,
    sequences,
)
from oracles import lemma_exp_part, ps_block


def pure_integer_root_oracle(n: int, num: int, den: int) -> int:
    """Largest m with m**den <= n**num; the comparison chain is decided by
    integer arithmetic only (the float is just a starting guess)."""
    target = n ** num
    m = max(0, int(float(n) ** (num / den)))
    while m ** den > target:
        m -= 1
    while (m + 1) ** den <= target:
        m += 1
    return m


def test_power_growth_decimal_parsing():
    assert PowerGrowth("1.42").c == Fraction(71, 50)
    assert PowerGrowth("1.05").c == Fraction(21, 20)
    assert PowerGrowth("1.5").c == Fraction(3, 2)
    f = PowerGrowth("1.42")
    assert (f.c_num, f.c_den, f.cf) == (71, 50, 1.42)


def test_power_growth_validation():
    with pytest.raises(ValueError):
        PowerGrowth(Fraction(1, 2))  # c <= 1
    with pytest.raises(ValueError):
        PowerGrowth(1)
    assert PowerGrowth(sequences._C_MAX).c == 62
    with pytest.raises(ValueError):
        PowerGrowth(sequences._C_MAX + Fraction(1, 2))
    with pytest.raises(ValueError):
        PowerGrowth(10 ** 20)  # floor(2^c) alone would not finish


def test_exponent_denominator_is_bounded():
    # One near-tie at a denominator of 10^20 would take an integer root of a
    # number with about 10^20 digits; the constructor refuses it.
    with pytest.raises(ValueError, match="denominator"):
        PowerGrowth("1.50000000000000000001")
    with pytest.raises(ValueError, match="denominator"):
        PowerGrowth(Fraction(1999, sequences._C_DEN_MAX + 1))
    f = PowerGrowth(Fraction(1999, sequences._C_DEN_MAX))
    assert f.c_den == sequences._C_DEN_MAX
    assert ps_floor(2 ** 27, f) == int_nth_root((2 ** 27) ** 1999, 1000)


def test_ps_floor_examples():
    assert ps_floor(4, PowerGrowth("3/2")) == 8
    assert ps_floor(3, PowerGrowth("3/2")) == 5  # isqrt(27)
    assert ps_floor(10, PowerGrowth("71/50")) == 26


def test_ps_floor_validation_and_integer_exponent():
    with pytest.raises(ValueError):
        ps_floor(0, PowerGrowth("3/2"))
    with pytest.raises(ValueError):
        ps_floor(0, PowerGrowth(2))
    assert ps_floor(7, PowerGrowth(2)) == 49


def test_int_nth_root():
    assert int_nth_root(0, 5) == 0
    assert int_nth_root(10 ** 18, 2) == 10 ** 9
    for n in (2, 17, 12345, 10 ** 30 + 7):
        for k in (2, 3, 5, 10):
            r = int_nth_root(n, k)
            assert r ** k <= n < (r + 1) ** k


def test_ps_block_examples():
    assert list(ps_block(1, 5, PowerGrowth("3/2"))) == [1, 2, 5, 8, 11]
    assert list(ps_block(7, 7, PowerGrowth("3/2"))) == [ps_floor(7, PowerGrowth("3/2"))]
    assert list(ps_block(1, 3, PowerGrowth(2))) == [1, 4, 9]


def test_integer_exponent_streams_exact_powers_without_escalating(monkeypatch):
    monkeypatch.setattr(sequences, "ps_floor", lambda *a: pytest.fail("ps_floor ran"))
    got = np.concatenate(list(ps_block_chunks(1, 300_000, PowerGrowth(2))))
    assert np.array_equal(got, np.arange(1, 300_001, dtype=np.int64) ** 2)


def test_ps_block_strictly_increasing_sample():
    # strictly increasing once n >= 2^(1/(c-1))
    vals = ps_block(4, 10_000, PowerGrowth("3/2"))
    assert np.all(np.diff(vals) > 0)
    lo = 1 << 20
    vals = ps_block(lo, lo + 10_000, PowerGrowth("21/20"))
    assert np.all(np.diff(vals) > 0)


@pytest.mark.parametrize("c", ["1.5", "4/3", "21/20", "71/50"])
def test_ps_floor_matches_integer_root_oracle(c):
    f = PowerGrowth(c)
    vals = ps_block(1, 100_000, f)
    for n in range(1, 100_001):
        assert vals[n - 1] == pure_integer_root_oracle(n, f.c_num, f.c_den)


def test_ps_floor_huge_values_escalate_correctly():
    f = PowerGrowth("3/2")
    for n in (10 ** 10, 10 ** 12 + 7, (1 << 40) + 3):
        assert ps_floor(n, f) == math.isqrt(n ** 3)


# The benchmark's floor(n^c) exponents, and 19/10, whose doubles near
# n = 2^27 are too coarse for the guard, so that every value escalates.
STREAM_EXPONENTS = ["3/2", "4/3", "9/7", "7/5", "71/50", "19/10"]


@pytest.mark.parametrize("chunk", [1, 7, 1 << 14])
@pytest.mark.parametrize("c", STREAM_EXPONENTS)
def test_ps_block_chunks_match_integer_roots_at_any_chunk_size(monkeypatch, c, chunk):
    monkeypatch.setattr(sequences, "_FLOOR_CHUNK", chunk)
    f = PowerGrowth(c)
    ranges = [(1, 60), (2 ** 27 - 30, 2 ** 27 + 30)] if chunk < 1 << 14 else [(1, chunk + 40)]
    for n_lo, n_hi in ranges:
        blocks = list(ps_block_chunks(n_lo, n_hi, f))
        assert max(b.size for b in blocks) <= chunk
        assert np.concatenate(blocks).tolist() == [
            int_nth_root(n ** f.c_num, f.c_den) for n in range(n_lo, n_hi + 1)]


@pytest.mark.parametrize("c", STREAM_EXPONENTS)
def test_exact_ties_up_to_2_27_match_integer_roots_without_escalating(monkeypatch, c):
    # Every exact tie n = k^c_den <= 2^27 with its two neighbours: inside a
    # chunk, and at the end and the start of a two-value chunk.  No tie
    # escalates unless its chunk's guard reaches 1/2, where every value does.
    f = PowerGrowth(c)
    escalated = []
    monkeypatch.setattr(sequences, "ps_floor", lambda n, g: escalated.append(n) or ps_floor(n, g))
    ties = [k ** f.c_den for k in range(1, int_nth_root(2 ** 27, f.c_den) + 1)]
    for chunk, ranges in ((1 << 14, [(t - 1, t + 1) for t in ties]),
                          (2, [(t - 1, t + 1) for t in ties] + [(t, t + 1) for t in ties])):
        monkeypatch.setattr(sequences, "_FLOOR_CHUNK", chunk)
        for lo, hi in ranges:
            lo = max(lo, 1)
            assert ps_block(lo, hi, f).tolist() == [
                int_nth_root(n ** f.c_num, f.c_den) for n in range(lo, hi + 1)]
    resolved = {t for t in ties if sequences._pow_guard(float(t + 1) ** f.cf) < 0.5}
    assert resolved and not set(escalated) & resolved


def test_beatty_floor_examples():
    assert beatty_floor(5, BeattyLine(1.0, 0.0)) == 5
    assert beatty_floor(3, BeattyLine(2.0, 0.5)) == 6
    golden = (1 + 5 ** 0.5) / 2
    assert beatty_floor(7, BeattyLine(golden, 0.0)) == 11


def test_beatty_floor_tie_cases_match_exact_rational():
    rng = np.random.default_rng(4)
    lines = [BeattyLine(1 / 3, 0.0), BeattyLine(0.1, 0.2), BeattyLine(2.5, -1.25),
             BeattyLine(7 / 3, 1 / 7)]
    for line in lines:
        ns = rng.integers(-10 ** 6, 10 ** 6, size=300)
        for n in ns:
            exact = math.floor(Fraction(int(n)) * Fraction(line.alpha) + Fraction(line.beta))
            assert beatty_floor(int(n), line) == exact
    line = BeattyLine(2.0, 0.5)
    got = beatty_floor_range(line, -50, 50)
    assert all(int(got[i]) == beatty_floor(n, line) for i, n in enumerate(range(-50, 51)))


class _Affine(GrowthFunction):
    """Test-only degenerate growth: f equals its own tangent everywhere."""

    def f(self, x):
        return 3.0 * np.asarray(x, dtype=float) + 0.25

    def df(self, x):
        return 3.0 * np.ones_like(np.asarray(x, dtype=float))

    def d2f(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def df_inv(self, y):
        return np.ones_like(np.asarray(y, dtype=float)) / 3.0

    def d2_sup(self, a, b):
        return 0.0

    def floor_block(self, n_lo, n_hi):
        yield 3 * np.arange(n_lo, n_hi + 1, dtype=np.int64)


def test_mismatches_zero_for_affine():
    rep = count_floor_mismatches(_Affine(), 10, 300, 3.0)
    assert rep.mismatch_count == 0
    assert rep.d < 0.5
    assert rep.mismatch_count <= rep.lemma_bound


def test_mismatches_degenerate_window():
    rep = count_floor_mismatches(PowerGrowth(Fraction(3, 2)), 50, 50, float(1.5 * 50 ** 0.5))
    assert rep.mismatch_count == 0


def test_mismatches_alpha_range_checked():
    f = PowerGrowth(Fraction(3, 2))
    with pytest.raises(ValueError):
        count_floor_mismatches(f, 100, 150, float(f.df(99)) * 0.9)


def _lemma_cases():
    """(f, a, b, alpha, r_terms): random slopes in f'([a, b]), dyadic slopes
    with r alpha an integer for some r (a zero sine), and R up to 2^16."""
    rng = np.random.default_rng(20)
    for c in (Fraction(3, 2), Fraction(13, 10), Fraction(7, 4)):
        f = PowerGrowth(c)
        for _ in range(12):
            a = int(rng.integers(2, 10 ** 6))
            b = a + int(rng.integers(1, 5000))
            lo, hi = float(f.df(a)), float(f.df(b))
            yield f, a, b, lo + (hi - lo) * rng.random(), int(rng.integers(1, 700))
    f = PowerGrowth(Fraction(3, 2))  # f'(3) = 2.6, f'(6) = 3.67
    for alpha in (2.75, 3.0, 3.125, 3.5):
        yield f, 3, 6, alpha, 64
    yield f, 4096, 5120, float(f.df(4600)), sequences._R_TERMS_MAX
    yield f, 999990, 1000010, 1500.0, sequences._R_TERMS_MAX


@pytest.mark.parametrize("f, a, b, alpha, r_terms", _lemma_cases())
def test_lemma_bound_equals_the_fraction_oracle(f, a, b, alpha, r_terms):
    rep = count_floor_mismatches(f, a, b, alpha, r_terms=r_terms)
    span = b - a
    want = (2.0 * rep.second_derivative_bound * span ** 3 + span / r_terms
            + lemma_exp_part(span, alpha, r_terms))
    assert rep.lemma_bound == want


def _int_root(n: int, k: int) -> int:
    lo, hi = 0, 1 << (-(-n.bit_length() // k) + 1)
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if mid ** k <= n:
            lo = mid
        else:
            hi = mid
    return lo


def test_mismatches_match_brute_force_sample():
    rng = np.random.default_rng(6)
    cases = (
        (PowerGrowth(Fraction(3, 2)), 3, 2, 10 ** 7, 10 ** 9, 60),
        (PowerGrowth(Fraction(13, 10)), 13, 10, 10 ** 5, 10 ** 7, 150),
    )
    for f, num, den, a_lo, a_hi, kmax in cases:
        for _ in range(30):
            a = int(rng.integers(a_lo, a_hi))
            b = a + int(rng.integers(2, kmax + 1))
            alpha = float(f.df(a + rng.random() * (b - a)))
            rep = count_floor_mismatches(f, a, b, alpha)
            alpha_q, beta_q = Fraction(rep.alpha), Fraction(rep.beta)
            brute = sum(
                _int_root(n ** num, den) != math.floor(n * alpha_q + beta_q)
                for n in range(a + 1, b + 1))
            assert brute == rep.mismatch_count
            if rep.d < 0.5:
                assert rep.mismatch_count <= rep.lemma_bound


def test_lemma_bound_matches_direct_exponential_sums():
    f = PowerGrowth(Fraction(3, 2))
    a, b = 999950, 1000050
    for alpha in (1500.0, float(f.df(a + 37.3))):
        rep = count_floor_mismatches(f, a, b, alpha)
        with mpmath.workdps(40):
            two_alpha = 2 * mpmath.mpf(alpha)  # the exact double
            direct = mpmath.fsum(
                abs(mpmath.fsum(mpmath.expjpi(n * r * two_alpha) for n in range(a + 1, b + 1))) / r
                for r in range(1, rep.r_terms + 1))
        span = b - a
        expect = 2 * rep.second_derivative_bound * span ** 3 + span / rep.r_terms + float(direct)
        assert rep.lemma_bound == pytest.approx(expect, rel=1e-14, abs=0)


def test_inverse_derivative_sum_stays_linear_in_scale():
    # sum over (f(A), f(2A)] of (f^-1)'(m) should stay below a fixed multiple of A
    for f in (PowerGrowth(Fraction(13, 10)), PowerGrowth(Fraction(21, 20))):
        for k in range(10, 21, 2):
            a_scale = 1 << k
            lo = f.floor_exact(a_scale)
            hi = f.floor_exact(2 * a_scale)
            total = 0.0
            for start in range(lo + 1, hi + 1, 1 << 22):
                m = np.arange(start, min(start + (1 << 22), hi + 1), dtype=np.float64)
                total += float(np.sum(f.df_inv(m)))
            assert 0.75 <= total / a_scale <= 1.25


def test_growth_inverse_roundtrips():
    for c in (Fraction(3, 2), Fraction(71, 50), Fraction(5, 4), 2):
        f = PowerGrowth(c)
        for x in (2.5, 57.3, 4096.0):
            assert f.df_inv(f.f(x)) == pytest.approx(1.0 / f.df(x), rel=1e-10)
        xs = np.array([2.5, 57.3, 4096.0])
        assert np.allclose(f.df_inv(f.f(xs)), 1.0 / f.df(xs), rtol=1e-10, atol=0)


def test_generic_floor_at_exact_integers():
    f = PowerGrowth(Fraction(3, 2))
    assert f.floor_exact(4225) == 274625  # 65^3
    assert f.floor_exact(4226) == ps_floor(4226, f)
    assert list(f.floor_block(4225, 4226))[0].tolist() == [274625, ps_floor(4226, f)]
    assert PowerGrowth(Fraction(5, 4)).floor_exact(16) == 32  # 16^(5/4)
    assert PowerGrowth(Fraction(5, 4)).floor_exact(17) == pure_integer_root_oracle(17, 5, 4)
    assert PowerGrowth(3).floor_exact(3) == 27


def test_integer_power_floors_stream_int64_powers():
    # floor(n^c) is defined on n >= 1 for every c, integer c included
    square = PowerGrowth(2)
    assert np.concatenate(list(square.floor_block(1, 5))).tolist() == [
        n * n for n in range(1, 6)]
    with pytest.raises(ValueError, match="n_lo"):
        next(square.floor_block(-3, 5))
    with pytest.raises(ValueError, match="int64"):
        next(square.floor_block(1, 2 ** 31))  # 2^62
    (top,) = square.floor_block(2 ** 31 - 2, 2 ** 31 - 1)
    assert top.tolist() == [(2 ** 31 - 2) ** 2, (2 ** 31 - 1) ** 2]


def test_generic_floors_never_load_mpmath():
    code = (
        "import sys\n"
        "import digitseq.cli\n"
        "from fractions import Fraction\n"
        "from digitseq import PowerGrowth\n"
        "assert PowerGrowth(Fraction(3, 2)).floor_exact(4225) == 274625\n"
        "assert PowerGrowth(Fraction(71, 50)).floor_exact(1000) == 18197\n"
        "assert list(PowerGrowth(Fraction(5, 4)).floor_block(16, 16))[0].tolist() == [32]\n"
        "assert PowerGrowth(2).floor_exact(1000) == 10 ** 6\n"
        "assert 'mpmath' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=str(Path(digitseq.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("v", [0.0, -0.0, 1.0, -1.0, -3.75, 1e-300, 2.0 ** -40, 1e6 + 0.25,
                               -1e12, 2.0 ** 53 - 1, 2.0 ** 53, -(2.0 ** 53) - 2, 2.0 ** 62,
                               math.inf, -math.inf])
def test_affine_guard_scalar_equals_the_array_guard(v):
    # The guard of each element is the Python-float formula, bit for bit.
    scalar = max(2.0 ** -40, 4e-15 * (abs(v) + 1.0))
    assert scalar == sequences._affine_guard(np.array([v]))[0]
