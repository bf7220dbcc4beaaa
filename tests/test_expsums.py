"""Exponential-sum kernels: identities, bounds, exact-phase oracles, and the
two classical summation inequalities."""

import cmath
import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import oracles
from digitseq import expsums
from digitseq import (
    digit_fourier_decay_constant,
    digit_fourier_table,
    fourier_coefficient_bound,
    sine_product_decay,
    sine_product_integral,
    thue_morse_sign,
    thue_morse_sign_array,
    window_exp_sum,
)
from digitseq.digits import digit_sum_array
from digitseq.expsums import _phase_block, reduced_phase
from oracles import geometric_sum_modulus


def _ones(m):
    return np.ones(len(m))


def tm_dyadic_expsum(ell: int, level: int, theta) -> complex:
    """Thue-Morse signed exponential sum over [ell*2^level, (ell+1)*2^level)
    via the closed product: sign(ell) e(ell 2^level theta)
    prod_{k<level} (1 - e(2^k theta))."""
    prod = 1.0 + 0.0j
    for k in range(level):
        prod *= 1.0 - cmath.exp(2j * math.pi * reduced_phase(1 << k, theta))
    t0 = reduced_phase(ell << level, theta)
    return thue_morse_sign(ell) * cmath.exp(2j * math.pi * t0) * prod


def tm_sine_product_magnitude(level: int, theta) -> float:
    """2^level * prod_{k<level} |sin(2^k pi theta)| with each doubled phase
    reduced mod 1 exactly, so the factors stay accurate near sine zeros."""
    prod = 1.0
    for k in range(level):
        prod *= 2.0 * abs(math.sin(math.pi * reduced_phase(1 << k, theta)))
    return prod


def digit_fourier_coefficient(q: int, level: int, h: int, alpha: float) -> complex:
    """F_{q,level}(h, alpha) = q^-level sum_u e(alpha s_{q,level}(u) - h u / q^level),
    evaluated as the per-digit product in O(level * q) time."""
    out = 1.0 + 0.0j
    for j in range(level):
        t = alpha - h / float(q ** (level - j))
        s = sum(cmath.exp(2j * math.pi * (d * t)) for d in range(q))
        out *= s / q
    return out


def invert_fourier_table(table, n: int) -> complex:
    """Reconstruct e(alpha s_{q,level}(n)) from the coefficients of a table."""
    size = table.q ** table.level
    h = np.arange(size)
    return complex(np.sum(np.exp(2j * np.pi * ((h * (n % size)) % size) / size)
                          * table.coefficients))


def test_window_sum_trivial_cases():
    r = window_exp_sum(_ones, 0, 3, 0.0)
    assert r.value == pytest.approx(3.0) and r.term_count == 3
    assert window_exp_sum(_ones, 5, 0, 0.3).term_count == 0
    # full-period geometric cancellation
    r = window_exp_sum(_ones, 0, 12, Fraction(1, 12))
    assert abs(r.value) < 1e-12
    r = window_exp_sum(_ones, 0, 1000, 0.37)
    assert r.term_count == 1000 and abs(r.value) <= r.term_count + 1e-9


def test_reduced_phase_is_exact_for_large_m():
    theta = 0.1234567890123456
    num, den = theta.as_integer_ratio()
    for m in (10 ** 9 + 7, 2 ** 70 + 3):
        expect = ((m % den) * num % den) / den
        assert reduced_phase(m, theta) == expect
    ph = _phase_block(10 ** 9, 1000, [theta])[0]
    direct = [reduced_phase(10 ** 9 + j, theta) for j in range(1000)]
    assert np.max(np.abs(ph - direct)) < 5e-15


# Phases exactly on an integer, within 1e-12 of one (as doubles and as
# products r * alpha of an exact double alpha), and ones where count * theta
# is an integer but theta is not.
GEOMETRIC_PHASES = [Fraction(1500), 75.0, 3.000000000001, 2.999999999999, 1e-12,
                    0.999999999999, 7 * Fraction(1500.03125), 11 * Fraction(37.5),
                    Fraction(1, 7), 1500 + Fraction(1, 4096)]


@pytest.mark.parametrize("theta", GEOMETRIC_PHASES, ids=str)
def test_geometric_sum_modulus_matches_a_direct_sum(theta):
    exact = Fraction(theta)
    with mpmath.workdps(50):
        step = mpmath.expjpi(2 * mpmath.mpf(exact.numerator) / exact.denominator)
        total, term = mpmath.mpc(0), mpmath.mpc(1)
        for count in range(1, 4097):
            total += term
            term *= step
            if count in (1, 7, 100, 4096):
                want = abs(total)
                got = geometric_sum_modulus(count, theta)
                assert abs(got - want) <= 1e-13 * want + 1e-40, (count, got, want)


def test_tm_dyadic_examples():
    assert tm_dyadic_expsum(5, 0, 0.77) == pytest.approx(
        thue_morse_sign_array(np.array([5]))[0] * cmath.exp(2j * math.pi * reduced_phase(5, 0.77)))
    assert abs(tm_dyadic_expsum(3, 4, 0.0)) == 0.0  # factor 1 - e(0)
    assert abs(tm_dyadic_expsum(0, 1, 0.5)) == pytest.approx(2.0)


def test_tm_product_matches_direct_float_sums():
    # frozen seed: draws keep the block sums away from the float64
    # cancellation floor, where a 1e-9 relative comparison is meaningful
    rng = np.random.default_rng(3)
    for _ in range(100):
        level = int(rng.integers(0, 13))
        ell = int(rng.integers(0, 50))
        theta = float(rng.random())
        direct = window_exp_sum(thue_morse_sign_array, ell * 2 ** level - 1, 2 ** level, theta)
        prod = tm_dyadic_expsum(ell, level, theta)
        sinp = tm_sine_product_magnitude(level, theta)
        assert abs(direct.value - prod) <= 1e-9 * max(abs(prod), 1e-6)
        assert abs(abs(prod) - sinp) <= 1e-9 * max(sinp, 1e-12)


def test_tm_magnitude_independent_of_block_index():
    for theta in (0.137, 0.718281828):
        mags = {round(abs(tm_dyadic_expsum(ell, 7, theta)), 9) for ell in range(20)}
        assert len(mags) == 1


def test_tm_window_bound_from_decomposition():
    # arbitrary windows are covered by at most two blocks per scale
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = int(rng.integers(0, 10 ** 6))
        length = int(rng.integers(1, 4096))
        theta = float(rng.random())
        s = abs(window_exp_sum(thue_morse_sign_array, a - 1, length, theta).value)
        kmax = int(math.log2(length)) if length > 1 else 0
        bound = 2.0 * sum(tm_sine_product_magnitude(k, theta) for k in range(kmax + 1))
        assert s <= bound * (1 + 1e-9)


def test_sine_product_closed_forms_and_monotonicity():
    assert sine_product_integral(0).integral_value == 1.0
    r1 = sine_product_integral(1)
    assert r1.integral_value == pytest.approx(2 / math.pi, abs=1e-13)
    prev = 1.0
    for level in range(1, 13):
        r = sine_product_integral(level)
        assert 0 < r.integral_value <= prev + 1e-15
        prev = r.integral_value
    with pytest.raises(ValueError):
        sine_product_integral(1714)


# I_0 .. I_16 as the panel Gauss-Legendre quadrature (8 and 16 nodes on
# 2^(level-1) panels) gave them before the transfer operator replaced it.
_PANEL_QUADRATURE = (
    1.0, 0.6366197723675814, 0.42441318157838753, 0.2802666814574416,
    0.18538630039805862, 0.12259787267216544, 0.08107654272767537,
    0.05361785111372102, 0.035458673838688115, 0.023449626549563087,
    0.015507767417169641, 0.010255637185494333, 0.0067822846593951665,
    0.0044852781397814725, 0.0029662158103232793, 0.0019616255579486238,
    0.0012972673182541099,
)


def _gauss_legendre_long(order):
    """Gauss-Legendre rule on [-1, 1] in np.longdouble: the double nodes
    refined by Newton steps on the Legendre recurrence."""
    x = np.polynomial.legendre.leggauss(order)[0].astype(np.longdouble)
    for _ in range(3):
        p_prev, p = np.ones_like(x), x
        for k in range(2, order + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        dp = order * (x * p - p_prev) / (x * x - 1)
        x = x - p / dp
    return x, 2 / ((1 - x * x) * dp * dp)


def _panel_oracle(level, order=12):
    """I_level by Gauss-Legendre on each panel [j, j + 1] / 2^level, where
    every factor is analytic, in np.longdouble.  On panel j, 2^k theta mod 1
    is ((j 2^k mod 2^level) + 2^k s) / 2^level with s in [0, 1], the integer
    part reduced exactly; each sine is taken of the distance to the nearer
    integer, so no factor loses accuracy near its zeros.  The symmetry
    theta -> 1 - theta halves the panels."""
    if level == 0:
        return np.longdouble(1)
    x, w = _gauss_legendre_long(order)
    s = (x + 1) / 2
    panels = 1 << level
    j = np.arange(panels // 2, dtype=np.int64)[:, None]
    pi = 4 * np.arctan(np.longdouble(1))
    g = np.ones((panels // 2, order), dtype=np.longdouble)
    for k in range(level):
        a = ((j << k) % panels).astype(np.longdouble)
        left = a + s * 2 ** k
        g *= np.sin(pi * np.minimum(left, panels - left) / panels)
    return (g @ w).sum() / panels


def test_rho_rows_match_a_panel_oracle():
    # Integrals and ratios that changed with the transfer operator are at
    # least as close to the oracle as the panel quadrature's were.  geo_mean
    # is I ** (1/level) of the new integral, so it is held to one ulp.
    rows = sine_product_decay(16)
    oracle = [_panel_oracle(level) for level in range(17)]
    old = _PANEL_QUADRATURE
    for level in range(17):
        row = rows[level]
        err = abs(np.longdouble(row.integral) - oracle[level])
        assert err <= row.quadrature_err + 2 * math.ulp(row.integral)
        assert err <= 2e-15 * oracle[level]
        if row.integral != old[level]:
            assert err <= abs(np.longdouble(old[level]) - oracle[level]), level
        if level == 0:
            continue
        exact = oracle[level] / oracle[level - 1]
        old_ratio = old[level] / old[level - 1]
        if row.ratio != old_ratio:
            assert abs(row.ratio - exact) <= abs(old_ratio - exact), level
        geo = oracle[level] ** (1 / np.longdouble(level))
        assert abs(row.geo_mean - geo) <= math.ulp(row.geo_mean), level


def test_sine_product_levels_past_the_old_resource_guard():
    for level in (40, 200):
        prev, cur, nxt = (sine_product_integral(level + d).integral_value for d in (-1, 0, 1))
        assert cur > 0
        assert abs(cur / prev - nxt / cur) <= 1e-12
        assert cur / prev == pytest.approx(0.6613226020, abs=1e-10)


def test_sine_product_guard_is_the_edge_of_the_double_range():
    below = sine_product_integral(1712).integral_value
    top = sine_product_integral(1713).integral_value
    assert top >= sys.float_info.min
    assert top * (top / below) < sys.float_info.min
    with pytest.raises(ValueError, match="double range guard"):
        sine_product_integral(1714)


def test_decay_rows_are_the_per_level_integrals():
    rows = sine_product_decay(40)
    for level in (0, 1, 2, 17, 39, 40):
        res = sine_product_integral(level)
        assert (rows[level].integral, rows[level].quadrature_err) == \
            (res.integral_value, res.quadrature_error_estimate)


def test_decay_builds_one_operator_chain_per_node_count(monkeypatch):
    built = []
    chain = expsums._operator_integrals
    monkeypatch.setattr(expsums, "_operator_integrals",
                        lambda level_max, n: built.append((level_max, n)) or chain(level_max, n))
    expsums._sine_product_results.cache_clear()
    sine_product_decay(14)
    assert built == [(14, 64), (14, 128)]


def test_sine_product_decay_sequences():
    rows = sine_product_decay(12)
    assert rows[1].ratio == pytest.approx(2 / math.pi, abs=1e-12)
    assert rows[1].geo_mean == pytest.approx(2 / math.pi, abs=1e-12)
    final = rows[-1]
    assert 1 + math.log2(final.ratio) < 0.4076
    assert final.quadrature_err < 1e-10
    with pytest.raises(ValueError):
        sine_product_decay(1)


def test_fourier_coefficient_examples():
    assert digit_fourier_coefficient(2, 0, 0, 0.37) == pytest.approx(1.0)
    assert abs(digit_fourier_coefficient(2, 1, 1, 0.0)) < 1e-15
    assert abs(digit_fourier_coefficient(2, 1, 0, 0.5)) < 1e-15


def test_fourier_table_parseval_inversion_and_bound():
    rng = np.random.default_rng(7)
    for _ in range(20):
        q = int(rng.choice([2, 3, 5, 7]))
        level = int(rng.integers(0, 5))
        alpha = float(rng.random())
        table = digit_fourier_table(q, level, alpha)
        assert table.parseval_error() < 1e-10
        assert table.bound_violations() == 0
        spec_period = q ** level
        for n in rng.integers(0, 10 ** 6, size=3):
            s = int(digit_sum_array(np.array([int(n) % spec_period]), q)[0])
            expect = cmath.exp(2j * math.pi * ((alpha * s) % 1.0))
            assert abs(invert_fourier_table(table, int(n)) - expect) < 1e-9
        # table agrees with the scalar per-digit product
        h = int(rng.integers(0, spec_period))
        assert table.coefficients[h] == pytest.approx(
            digit_fourier_coefficient(q, level, h, alpha), abs=1e-12)


@pytest.mark.parametrize("q, level", [(2, 9), (3, 6), (5, 4)])
def test_fourier_table_chain_holds_every_lower_level(q, level):
    for alpha in (0.0, 0.37, 1 / 3, 0.5):
        chain = digit_fourier_table(q, level, alpha).chain()
        assert [t.level for t in chain] == list(range(level + 1))
        assert chain[0].coarser is None
        for table in chain:
            fresh = digit_fourier_table(q, table.level, alpha)
            assert (table.q, table.alpha) == (q, alpha)
            assert np.array_equal(table.coefficients, fresh.coefficients)


def test_fourier_bound_randomized_sweep():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        q = int(rng.choice([2, 3, 5]))
        level = int(rng.integers(2, 6))
        alpha = float(rng.random())
        table = digit_fourier_table(q, level, alpha)
        assert table.bound_violations() == 0


def test_fourier_decay_constant_value():
    # c_2 = pi^2 / (36 log 2)
    assert digit_fourier_decay_constant(2) == pytest.approx(math.pi ** 2 / (36 * math.log(2)))
    assert fourier_coefficient_bound(2, 0, 0.3) == pytest.approx(math.exp(math.pi ** 2 / 48))


def test_fourier_table_resource_guards():
    with pytest.raises(ValueError):
        digit_fourier_table(2, 23, 0.1)


@oracles.needs_long_double
def test_fourier_table_phases_stay_exact_at_large_h():
    # A phase h / q^k taken in double and never reduced loses accuracy as h
    # grows (1.2e-15 at h = 200 and 5.7e-14 at worst here).
    table = digit_fourier_table(3, 6, 0.37)
    exact = oracles.fourier_table(3, 6, 0.37, dps=30)
    with mpmath.workdps(30):
        errors = [abs(complex(c) - v) for c, v in zip(table.coefficients, exact)]
    assert max(errors) < 1e-16


@oracles.needs_long_double
def test_fourier_table_max_abs_coeff_is_correctly_rounded():
    rng = np.random.default_rng(21)
    for _ in range(20):
        q = int(rng.choice([2, 3, 5, 7]))
        level = int(rng.integers(0, 5 if q < 5 else 4))
        alpha = float(rng.random()) if rng.random() < 0.7 else int(rng.integers(16)) / 16
        table = digit_fourier_table(q, level, alpha)
        assert table.max_abs_coeff() == float(oracles.max_abs(oracles.fourier_table(q, level, alpha)))
        assert table.parseval_error() == 0.0


def test_l1_norm_lower_bound():
    # quadrature of |sum x_m e(m theta)| dominates max |x_m|
    rng = np.random.default_rng(12)
    thetas = (np.arange(8192) + 0.5) / 8192
    for _ in range(25):
        n = int(rng.integers(2, 64))
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        m = np.arange(n)
        vals = np.abs(np.exp(2j * np.pi * np.multiply.outer(thetas, m)) @ x)
        integral = float(np.mean(vals))
        assert integral >= np.max(np.abs(x)) - 1e-6


def test_van_der_corput_inequality():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(2, 201))
        r_cap = int(rng.integers(1, 21))
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        lhs = abs(np.sum(a)) ** 2
        rhs = 0.0
        for r in range(-r_cap + 1, r_cap):
            w = 1 - abs(r) / r_cap
            if r >= 0:
                corr = np.sum(a[r:] * np.conj(a[:n - r]))
            else:
                corr = np.sum(a[:n + r] * np.conj(a[-r:]))
            rhs += w * corr.real
        rhs *= (n - 1 + r_cap) / r_cap
        assert lhs <= rhs * (1 + 1e-12) + 1e-9
