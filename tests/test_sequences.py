"""Exact floors, Beatty machinery, tangent approximation, admissibility."""

import decimal
import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

import digitseq
from digitseq import (
    BeattyLine,
    GrowthFunction,
    IntegerExponentWarning,
    PSSpec,
    PowerGrowth,
    PowerLogGrowth,
    SumGrowth,
    beatty_floor,
    beatty_floor_range,
    beatty_membership,
    beatty_membership_range,
    check_admissible,
    count_floor_mismatches,
    int_nth_root,
    ps_block,
    ps_block_chunks,
    ps_floor,
    sequences,
    tangent_window,
)


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


def test_psspec_decimal_parsing():
    assert PSSpec.from_decimal("1.42").c == Fraction(71, 50)
    assert PSSpec.from_decimal("1.05").c == Fraction(21, 20)
    assert PSSpec.from_decimal("1.5").c == Fraction(3, 2)


def test_psspec_validation():
    with pytest.raises(ValueError):
        PSSpec(6, 4)  # not in lowest terms
    with pytest.raises(ValueError):
        PSSpec(1, 2)  # c <= 1


def test_ps_floor_examples():
    assert ps_floor(4, PSSpec(3, 2)) == 8
    assert ps_floor(3, PSSpec(3, 2)) == 5  # isqrt(27)
    assert ps_floor(10, PSSpec(71, 50)) == 26


def test_ps_floor_validation_and_integer_warning():
    with pytest.raises(ValueError):
        ps_floor(0, PSSpec(3, 2))
    with pytest.warns(IntegerExponentWarning):
        assert ps_floor(7, PSSpec(2, 1)) == 49


def test_int_nth_root():
    assert int_nth_root(0, 5) == 0
    assert int_nth_root(10 ** 18, 2) == 10 ** 9
    for n in (2, 17, 12345, 10 ** 30 + 7):
        for k in (2, 3, 5, 10):
            r = int_nth_root(n, k)
            assert r ** k <= n < (r + 1) ** k


def test_ps_block_examples():
    assert list(ps_block(1, 5, PSSpec(3, 2))) == [1, 2, 5, 8, 11]
    assert list(ps_block(7, 7, PSSpec(3, 2))) == [ps_floor(7, PSSpec(3, 2))]
    with pytest.warns(IntegerExponentWarning):
        assert list(ps_block(1, 3, PSSpec(2, 1))) == [1, 4, 9]


def test_ps_block_strictly_increasing_sample():
    # strictly increasing once n >= 2^(1/(c-1))
    vals = ps_block(4, 10_000, PSSpec(3, 2))
    assert np.all(np.diff(vals) > 0)
    lo = 1 << 20
    vals = ps_block(lo, lo + 10_000, PSSpec(21, 20))
    assert np.all(np.diff(vals) > 0)


@pytest.mark.parametrize("c", ["1.5", "4/3", "21/20", "71/50"])
def test_ps_floor_matches_integer_root_oracle(c):
    spec = PSSpec.from_rational(Fraction(c))
    vals = ps_block(1, 100_000, spec)
    for n in range(1, 100_001):
        assert vals[n - 1] == pure_integer_root_oracle(n, spec.c_num, spec.c_den)


def test_ps_floor_huge_values_escalate_correctly():
    spec = PSSpec(3, 2)
    for n in (10 ** 10, 10 ** 12 + 7, (1 << 40) + 3):
        assert ps_floor(n, spec) == math.isqrt(n ** 3)


# The benchmark's floor(n^c) exponents, and 19/10, whose doubles near
# n = 2^27 are too coarse for the guard, so that every value escalates.
STREAM_EXPONENTS = ["3/2", "4/3", "9/7", "7/5", "71/50", "19/10"]


@pytest.mark.parametrize("chunk", [1, 7, 1 << 14])
@pytest.mark.parametrize("c", STREAM_EXPONENTS)
def test_ps_block_chunks_match_integer_roots_at_any_chunk_size(monkeypatch, c, chunk):
    monkeypatch.setattr(sequences, "_FLOOR_CHUNK", chunk)
    spec = PSSpec.from_rational(Fraction(c))
    ranges = [(1, 60), (2 ** 27 - 30, 2 ** 27 + 30)] if chunk < 1 << 14 else [(1, chunk + 40)]
    for n_lo, n_hi in ranges:
        blocks = list(ps_block_chunks(n_lo, n_hi, spec))
        assert max(b.size for b in blocks) <= chunk
        assert np.concatenate(blocks).tolist() == [
            int_nth_root(n ** spec.c_num, spec.c_den) for n in range(n_lo, n_hi + 1)]


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


def test_membership_examples():
    assert beatty_membership(12345, BeattyLine(1.0, 0.0))
    assert beatty_membership(4, BeattyLine(2.0, 0.0))
    assert not beatty_membership(3, BeattyLine(2.0, 0.0))
    with pytest.raises(ValueError):
        beatty_membership(3, BeattyLine(0.5, 0.0))


def test_membership_equals_enumeration_on_random_lines():
    rng = np.random.default_rng(5)
    for _ in range(200):
        alpha = float(1 + 9 * rng.random())
        beta = float(rng.uniform(-25, 25))
        line = BeattyLine(alpha, beta)
        member = beatty_membership_range(line, 0, 9_999)
        n_lo = math.floor(-beta / alpha) - 2
        n_hi = math.ceil((10_000 - beta) / alpha) + 2
        hits = beatty_floor_range(line, n_lo, n_hi)
        enum = {int(v) for v in hits if 0 <= v < 10_000}
        assert enum == set(np.flatnonzero(member).tolist())


def test_tangent_window_degenerate_and_direct():
    f32 = PowerGrowth(Fraction(3, 2))
    tw = tangent_window(f32, 100, 100)
    assert tw.alpha_lo == tw.alpha_hi == pytest.approx(float(f32.df(100)))
    assert tw.error_bound == 0.0
    fsq = PowerGrowth(2)
    tw = tangent_window(fsq, 10, 12)
    alpha = float(fsq.df(10))  # 20
    beta = tw.beta(alpha)  # 100 - 200 = -100
    assert beta == -100.0
    assert abs(12 * alpha + beta - 144) == pytest.approx(4.0)
    assert tw.error_bound == pytest.approx(8.0)  # M (b-a)^2 = 2 * 4


def test_tangent_window_quality_dense_sampling():
    f = PowerGrowth(Fraction(3, 2))
    for a, eps in ((10_000, 0.5), (250_000, 0.05)):
        k = int((eps / float(f.d2f(a))) ** 0.5)
        tw = tangent_window(f, a, a + k)
        xs = np.linspace(a, a + k, 4001)
        for alpha in (tw.alpha_lo, 0.5 * (tw.alpha_lo + tw.alpha_hi), tw.alpha_hi):
            err = np.max(np.abs(xs * alpha + tw.beta(alpha) - f.f(xs)))
            assert err <= tw.error_bound <= eps * 1.0000001


def test_tangent_window_rejects_bad_input():
    f = PowerGrowth(Fraction(3, 2))
    with pytest.raises(ValueError):
        tangent_window(f, 10, 5)
    with pytest.raises(ValueError):
        tangent_window(f, 0, 5)


class _Affine(GrowthFunction):
    """Test-only degenerate growth: f equals its own tangent everywhere."""

    c1, c2, delta = 1.0, 1.0, 0.0

    def f(self, x):
        return 3.0 * np.asarray(x, dtype=float) + 0.25

    def df(self, x):
        return 3.0 * np.ones_like(np.asarray(x, dtype=float))

    def d2f(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def f_inv(self, y):
        return (np.asarray(y, dtype=float) - 0.25) / 3.0

    def df_inv(self, y):
        return np.ones_like(np.asarray(y, dtype=float)) / 3.0

    def f_decimal(self, n):
        return 3 * Decimal(int(n)) + Decimal(1) / 4

    def d2_sup(self, a, b):
        return 0.0


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


def test_admissibility_reports():
    ok = check_admissible(PowerGrowth(Fraction(3, 2)), 2, 10 ** 6)
    assert ok.passed
    assert ok.c1_empirical == pytest.approx(2 ** -0.5, rel=1e-9)
    sq = check_admissible(PowerGrowth(2), 2, 10 ** 6)
    assert sq.passed
    assert sq.c1_empirical == pytest.approx(1.0) and sq.c2_empirical == pytest.approx(1.0)
    bad = check_admissible(_Affine(), 2, 10 ** 4)
    assert not bad.passed
    assert any("f''" in v for v in bad.violations)
    plog = check_admissible(PowerLogGrowth(1.4, 1.0), 2, 10 ** 6)
    assert plog.passed, plog.violations


def test_growth_inverse_roundtrips():
    plog = PowerLogGrowth(1.4, 1.0)
    for x in (2.5, 57.3, 4096.0):
        assert plog.f_inv(plog.f(x)) == pytest.approx(x, rel=1e-10)
        assert plog.df_inv(plog.f(x)) == pytest.approx(1.0 / plog.df(x), rel=1e-10)
    combo = SumGrowth([(2.0, PowerGrowth(Fraction(3, 2))), (1.0, PowerGrowth(Fraction(5, 4)))])
    assert check_admissible(combo, 2, 10 ** 5).passed
    assert combo.f_inv(combo.f(33.0)) == pytest.approx(33.0, rel=1e-10)
    assert combo.floor_exact(1000) == math.floor(2 * 1000 ** 1.5 + 1000 ** 1.25)


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


class _NearTie(GrowthFunction):
    """f(n) = n^2 + 10^-115: within 10^-108 of an integer at 120 digits, with
    no exact rational value to decide it."""

    def f(self, x):
        return np.asarray(x, dtype=float) ** 2

    def f_decimal(self, n):
        return Decimal(int(n)) ** 2 + Decimal(10) ** -115


class _RelativeTie(GrowthFunction):
    """f(n) = 10^15 + n + 10^-26: 10^-41 |f(n)| above an integer, closer than
    the relative error a 50-digit evaluation may carry.  Records the decimal
    precision of every evaluation."""

    def __init__(self):
        self.digits = []

    def f(self, x):
        return 1e15 + np.asarray(x, dtype=float)

    def f_decimal(self, n):
        self.digits.append(decimal.getcontext().prec)
        return Decimal(10 ** 15 + int(n)) + Decimal(10) ** -26


def test_generic_floor_at_exact_integers():
    square = SumGrowth([(1.0, PowerGrowth(Fraction(3, 2)))])
    assert square.floor_exact(4225) == 274625  # 65^3
    assert square.floor_exact(4226) == ps_floor(4226, PSSpec(3, 2))
    combo = SumGrowth([(2.0, PowerGrowth(Fraction(3, 2))), (1.0, PowerGrowth(Fraction(5, 4)))])
    assert combo.floor_exact(16) == 160  # 2 * 16^(3/2) + 16^(5/4)
    assert combo.f_exact(16) == 160 and combo.f_exact(17) is None
    assert SumGrowth([(0.5, PowerGrowth(3))]).floor_exact(3) == 13  # 27/2
    with pytest.raises(ArithmeticError, match="120 digits"):
        _NearTie().floor_exact(7)
    with pytest.raises(ArithmeticError, match="120 digits"):
        SumGrowth([(1.0, PowerLogGrowth(2.0, 0.0))]).floor_exact(3)  # 9, no exact form


class _ExactOnly(SumGrowth):
    """A SumGrowth whose decimal evaluation must not be reached."""

    def f_decimal(self, n):
        raise AssertionError("f_decimal was evaluated")


def test_settle_asks_f_exact_first():
    assert _ExactOnly([(1.0, PowerGrowth(Fraction(3, 2)))]).floor_exact(4225) == 274625


def test_settle_margin_is_relative_to_the_value():
    tie = _RelativeTie()
    assert tie.floor_exact(7) == 10 ** 15 + 7
    assert tie.digits == [50, 120]  # 10^-26 is inside 10^-38 * 10^15 at 50 digits


def test_integer_power_floors_stream_int64_powers():
    square = PowerGrowth(2)
    assert np.concatenate(list(square.floor_block(-3, 5))).tolist() == [
        n * n for n in range(-3, 6)]
    with pytest.raises(ValueError, match="int64"):
        square.floor_block(1, 2 ** 31)  # 2^62
    (top,) = square.floor_block(2 ** 31 - 2, 2 ** 31 - 1)
    assert top.tolist() == [(2 ** 31 - 2) ** 2, (2 ** 31 - 1) ** 2]
    with pytest.raises(ValueError, match="int64"):
        list(SumGrowth([(1.0, square)]).floor_block(2 ** 31, 2 ** 31))


def test_generic_floors_never_load_mpmath():
    code = (
        "import sys\n"
        "import digitseq.cli\n"
        "from fractions import Fraction\n"
        "from digitseq import PowerGrowth, PowerLogGrowth, SumGrowth\n"
        "assert SumGrowth([(1.0, PowerGrowth(Fraction(3, 2)))]).floor_exact(4225) == 274625\n"
        "assert PowerLogGrowth(1.4, 1.0).floor_exact(1000) == 109480\n"
        "assert 'mpmath' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=str(Path(digitseq.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
