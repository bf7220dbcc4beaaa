"""Exponential-sum kernels.

Windowed sums sum phi(m) e(m theta) with accurate phase reduction, the
Thue-Morse sine-product identity on dyadic blocks, the sine-product integral
and its geometric decay rate, discrete digit Fourier coefficients with their
uniform decay bound, joint two-base digit sums, and the Fibonacci-block sum
recurrence behind the Zeckendorf window sums.

Phases m*theta are never reduced in plain double arithmetic: the base point
is reduced exactly through the integer representation of the float (or an
exact Fraction) in reduced_phase, and in-window offsets use a Dekker split,
so e(m theta) stays accurate for m far beyond 2**53.

The sine-product integral I_level is level products of one transfer-operator
matrix on Chebyshev nodes with a vector, up to the edge of the double range.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .digits import (
    digit_sum_array,
    fibonacci,
    thue_morse_sign,
    zeckendorf_decompose,
    zeckendorf_digit_sum,
)

__all__ = [
    "WindowSumResult",
    "FourierTable",
    "SineProductResult",
    "ZeckBlockSum",
    "CharRoot",
    "JointRateParameters",
    "window_exp_sum",
    "tm_dyadic_expsum",
    "sine_product_integral",
    "sine_product_decay",
    "tm_sine_product_magnitude",
    "digit_fourier_coefficient",
    "digit_fourier_table",
    "digit_fourier_decay_constant",
    "fourier_coefficient_bound",
    "joint_digit_expsum",
    "joint_rate_parameters",
    "zeckendorf_block_sum",
    "zeckendorf_block_sums",
    "char_root_modulus",
    "zeckendorf_window_expsum",
    "reduced_phase",
    "reduced_phase_window",
    "dist_to_int",
    "max_table_bytes",
]

_SUM_EPS = 5e-16  # per-term relative bound fed into the residual estimate
_WINDOW_CHUNK = 1 << 18  # terms per partial sum of a window sum
_BOUND_SLACK = 1e-12  # rounding allowance of the uniform coefficient bound
_LEVEL_MAX = 1713  # I_1713 = 2.26e-308; I_1714 = 1.50e-308 is below the normal doubles


def max_table_bytes() -> int:
    """Allocation cap for coefficient tables (DIGITSEQ_MAX_MEMORY, bytes;
    1 GiB when unset)."""
    raw = os.environ.get("DIGITSEQ_MAX_MEMORY", "")
    if not raw:
        return 1 << 30
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap <= 0:
        raise ValueError(f"DIGITSEQ_MAX_MEMORY must be a positive byte count, got {raw!r}")
    return cap


def dist_to_int(x: float) -> float:
    """Distance from x to the nearest integer."""
    return abs(x - round(x))


def reduced_phase(m: int, theta) -> float:
    """{m * theta} computed exactly through the rational value of theta: a
    Fraction as it is, anything else through the exact value of its double."""
    if isinstance(theta, Fraction):
        num, den = theta.numerator, theta.denominator
    else:
        num, den = float(theta).as_integer_ratio()
    return ((m % den) * num % den) / den


def reduced_phase_window(m0: int, count: int, theta) -> np.ndarray:
    """{(m0 + j) * theta} for j < count.  Exact base reduction plus a
    Dekker-split product for the offsets keeps the error at ulp level."""
    if count <= 0:
        return np.zeros(0)
    base = reduced_phase(m0, theta)
    tf = float(theta)
    j = np.arange(count, dtype=np.float64)
    if count > 1 << 26:
        raise ValueError("window too long for the split-phase path")
    c = 134217729.0 * tf  # 2**27 + 1
    t_hi = c - (c - tf)
    t_lo = tf - t_hi
    ph = (j * t_hi) % 1.0 + (j * t_lo) % 1.0 + base
    return ph % 1.0


def _kahan(values: Iterable[complex]) -> complex:
    """Compensated (Kahan) sum, accumulated in the given order."""
    total = 0.0 + 0.0j
    comp = 0.0 + 0.0j
    for v in values:
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


@dataclass(frozen=True)
class WindowSumResult:
    """Value of a windowed exponential sum with its term count and a
    compensated-summation residual estimate."""

    value: complex
    term_count: int
    summation_error_bound: float


def window_exp_sum(phi: Callable[[np.ndarray], np.ndarray], x: float, z: float,
                   theta) -> WindowSumResult:
    """sum_{x < m <= x+z} phi(m) e(m theta).  phi maps an int64 array to
    values bounded by 1 in modulus (anything array-like is accepted)."""
    if z < 0:
        raise ValueError("window length must be nonnegative")
    m_lo = math.floor(x) + 1
    m_hi = math.floor(x + z)
    count = max(0, m_hi - m_lo + 1)
    if count == 0:
        return WindowSumResult(0j, 0, 0.0)
    partials = []
    for lo in range(m_lo, m_hi + 1, _WINDOW_CHUNK):
        n = min(_WINDOW_CHUNK, m_hi - lo + 1)
        ph = reduced_phase_window(lo, n, theta)
        vals = np.asarray(phi(np.arange(lo, lo + n, dtype=np.int64)))
        partials.append(complex(np.sum(vals * np.exp(2j * np.pi * ph))))
    total = _kahan(partials)
    return WindowSumResult(total, count, _SUM_EPS * count)


def tm_dyadic_expsum(ell: int, level: int, theta) -> complex:
    """Thue-Morse signed exponential sum over [ell*2^level, (ell+1)*2^level)
    via the closed product: sign(ell) e(ell 2^level theta)
    prod_{k<level} (1 - e(2^k theta))."""
    if ell < 0 or level < 0:
        raise ValueError("needs ell >= 0 and level >= 0")
    prod = 1.0 + 0.0j
    for k in range(level):
        prod *= 1.0 - cmath.exp(2j * math.pi * reduced_phase(1 << k, theta))
    t0 = reduced_phase(ell << level, theta)
    return thue_morse_sign(ell) * cmath.exp(2j * math.pi * t0) * prod


def tm_sine_product_magnitude(level: int, theta) -> float:
    """2^level * prod_{k<level} |sin(2^k pi theta)| with each doubled phase
    reduced mod 1 exactly, so the factors stay accurate near sine zeros."""
    if level < 0:
        raise ValueError("level must be >= 0")
    prod = 1.0
    for k in range(level):
        prod *= 2.0 * abs(math.sin(math.pi * reduced_phase(1 << k, theta)))
    return prod


@dataclass(frozen=True)
class SineProductResult:
    """Integral over [0,1] of prod_{k<level} |sin(2^k pi theta)|."""

    level: int
    integral_value: float
    quadrature_error_estimate: float


def _operator_integral(level: int, n: int) -> np.longdouble:
    """Fejer weights . L^level 1 on the n first-kind Chebyshev nodes (1 + cos phi) / 2."""
    pi = 4 * np.arctan(np.longdouble(1))
    phi = (np.arange(n, dtype=np.longdouble) + 0.5) * (pi / n)
    t = np.cos(phi)  # u = (1 + t) / 2
    bary = np.where(np.arange(n) % 2, -np.sin(phi), np.sin(phi))

    def interpolate_to(points: np.ndarray, factor: np.ndarray) -> np.ndarray:
        # No point is a node: a zero distance warns, and the tests fail on warnings.
        rows = bary / np.subtract.outer(points, t)
        return rows * (factor / rows.sum(axis=1))[:, None]

    half = pi / 4 * (1 + t)  # pi u / 2
    op = (interpolate_to((t - 1) / 2, np.sin(half) / 2)
          + interpolate_to((t + 1) / 2, np.cos(half) / 2))
    # Fejer: w_j = (1 - 2 sum_k cos(2 k phi_j) / (4k^2 - 1)) / n, where
    # 2 k phi_j = ((2j + 1) k mod 2n) pi / n indexes one table of cosines.
    k = np.arange(1, n // 2 + 1)
    cosines = np.cos(np.arange(2 * n) * (pi / n))
    terms = cosines[np.outer(2 * np.arange(n) + 1, k) % (2 * n)] / (4 * k * k - 1)
    values = np.ones(n, dtype=np.longdouble)
    for _ in range(level):
        values = op @ values
    return (1 - 2 * terms.sum(axis=1)) / n @ values


def sine_product_integral(level: int) -> SineProductResult:
    """I_level = int_0^1 prod_{k<level} |sin(2^k pi theta)| d theta.

    g_level(theta) = |sin(pi theta)| g_{level-1}(2 theta) gives I_level =
    int_0^1 (L^level 1)(u) du, L h(u) = (sin(pi u/2) h(u/2) + cos(pi u/2)
    h((u+1)/2)) / 2.  L is one matrix on N Chebyshev nodes of [0, 1]
    (barycentric interpolation, Fejer weights), in np.longdouble.  The value
    is the N = 128 one; |I_64 - I_128| estimates the discretisation and
    long-double rounding error, not the rounding to double.  Accepted
    levels: 0 ... 1713, where I_level is a normal double; checked first.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    if level > _LEVEL_MAX:
        raise ValueError(f"level above the double range guard ({_LEVEL_MAX})")
    if level == 0:
        return SineProductResult(0, 1.0, 0.0)
    i64, i128 = (_operator_integral(level, n) for n in (64, 128))
    return SineProductResult(level, float(i128), float(abs(i128 - i64)))


@dataclass(frozen=True)
class SineProductDecayRow:
    level: int
    integral: float
    ratio: float  # I_level / I_{level-1}; nan at level 0
    geo_mean: float  # I_level ** (1/level); nan at level 0
    quadrature_err: float


def sine_product_decay(level_max: int) -> list[SineProductDecayRow]:
    """Ratio and geometric-mean sequences of the sine-product integrals:
    both converge to the geometric decay rate of I_level."""
    if level_max < 2:
        raise ValueError("needs level_max >= 2")
    if level_max > _LEVEL_MAX:
        raise ValueError(f"level above the double range guard ({_LEVEL_MAX})")
    rows = []
    prev = None
    for lam in range(level_max + 1):
        res = sine_product_integral(lam)
        ratio = float("nan") if prev is None else res.integral_value / prev
        geo = float("nan") if lam == 0 else res.integral_value ** (1.0 / lam)
        rows.append(SineProductDecayRow(lam, res.integral_value, ratio, geo,
                                        res.quadrature_error_estimate))
        prev = res.integral_value
    return rows


def digit_fourier_decay_constant(q: int) -> float:
    """c_q = pi^2/(12 log q) * (1 - 2/(q+1)) in the uniform coefficient bound."""
    if q < 2:
        raise ValueError("base must be >= 2")
    return math.pi ** 2 / (12.0 * math.log(q)) * (1.0 - 2.0 / (q + 1))


def fourier_coefficient_bound(q: int, level: int, alpha: float) -> float:
    """Uniform-in-h bound exp(pi^2/48) * q^(-c_q ||(q-1)alpha||^2 level)."""
    c_q = digit_fourier_decay_constant(q)
    return math.exp(math.pi ** 2 / 48.0) * q ** (-c_q * dist_to_int((q - 1) * alpha) ** 2 * level)


def digit_fourier_coefficient(q: int, level: int, h: int, alpha: float) -> complex:
    """F_{q,level}(h, alpha) = q^-level sum_u e(alpha s_{q,level}(u) - h u / q^level),
    evaluated as the per-digit product in O(level * q) time."""
    if q < 2 or level < 0:
        raise ValueError("needs q >= 2 and level >= 0")
    out = 1.0 + 0.0j
    for j in range(level):
        t = alpha - h / float(q ** (level - j))
        s = sum(cmath.exp(2j * math.pi * (d * t)) for d in range(q))
        out *= s / q
    return out


@dataclass(frozen=True)
class FourierTable:
    """All digit Fourier coefficients at fixed (q, level, alpha); index h."""

    q: int
    level: int
    alpha: float
    coefficients: np.ndarray

    def parseval_error(self) -> float:
        return abs(float(np.sum(np.abs(self.coefficients) ** 2)) - 1.0)

    def uniform_bound(self) -> float:
        return fourier_coefficient_bound(self.q, self.level, self.alpha)

    def bound_violations(self) -> int:
        return int(np.count_nonzero(np.abs(self.coefficients) > self.uniform_bound() + _BOUND_SLACK))

    def invert(self, n: int) -> complex:
        """Reconstruct e(alpha s_{q,level}(n)) from the coefficients."""
        size = self.q ** self.level
        h = np.arange(size)
        return complex(np.sum(np.exp(2j * np.pi * ((h * (n % size)) % size) / size)
                              * self.coefficients))


def digit_fourier_table(q: int, level: int, alpha: float) -> FourierTable:
    """Coefficient table for all h < q^level (guarded to 2^22 entries and
    the DIGITSEQ_MAX_MEMORY allocation cap)."""
    if q < 2 or level < 0:
        raise ValueError("needs q >= 2 and level >= 0")
    size = q ** level
    if size > 1 << 22:
        raise ValueError(f"table of {size} coefficients exceeds the 2^22 guard")
    if 16 * size > max_table_bytes():
        raise ValueError("table exceeds DIGITSEQ_MAX_MEMORY")
    h = np.arange(size, dtype=np.float64)
    coeffs = np.ones(size, dtype=np.complex128)
    for j in range(level):
        t = alpha - h / float(q ** (level - j))
        s = np.zeros(size, dtype=np.complex128)
        for d in range(q):
            s += np.exp(2j * np.pi * (d * t))
        coeffs *= s / q
    return FourierTable(q=q, level=level, alpha=alpha, coefficients=coeffs)


def joint_digit_expsum(x: float, z: float, q1: int, q2: int, alpha: float,
                       beta: float, theta) -> WindowSumResult:
    """Direct evaluation of sum e(alpha s_q1(n) + beta s_q2(n) + n theta)
    over x < n <= x+z for coprime bases."""
    if math.gcd(q1, q2) != 1:
        raise ValueError(f"bases must be coprime, gcd({q1},{q2}) != 1")
    if z < 0:
        raise ValueError("window length must be nonnegative")

    def phi(m: np.ndarray) -> np.ndarray:
        s = alpha * digit_sum_array(m, q1) + beta * digit_sum_array(m, q2)
        return np.exp(2j * np.pi * (s % 1.0))

    return window_exp_sum(phi, x, z, theta)


class JointRateParameters(NamedTuple):
    """Proof-side parameter choices for the joint digit sums: truncation
    levels, the van der Corput length R, and the resulting error exponents
    (as exact fractions of log z where the arithmetic is exact)."""

    lambda1: float
    lambda2: float
    r_exponent: Fraction | float
    term_exponents: tuple
    max_exponent: Fraction | float
    eta_alpha: float | None


def joint_rate_parameters(z: float, q1: int, q2: int,
                          alpha: float | None = None) -> JointRateParameters:
    """Reproduce the exponent arithmetic of the two parameter choices:
    the universal one (levels 4 log z / (9 log q)) giving the z^(8/9) rate,
    and, when alpha is given, the alpha-dependent (4+c) variant giving
    z^(1 - eta(alpha)) with eta(alpha) = ||(q1-1)alpha||^2 / (15 log q1)."""
    if math.gcd(q1, q2) != 1:
        raise ValueError(f"bases must be coprime, gcd({q1},{q2}) != 1")
    if z < 1:
        raise ValueError("needs z >= 1")
    logz = math.log(z)
    if alpha is None:
        lam1 = 4.0 * logz / (9.0 * math.log(q1))
        lam2 = 4.0 * logz / (9.0 * math.log(q2))
        r_exp = Fraction(2, 9)
        terms = (
            Fraction(4, 9) + Fraction(4, 9),          # q1^l1 q2^l2
            Fraction(1, 2) + Fraction(1, 9),          # z^(1/2) R^(1/2)
            1 + Fraction(1, 9) - Fraction(2, 9),      # z R^(1/2) q^(-l/2)
            1 - Fraction(1, 9),                       # z R^(-1/2)
        )
        return JointRateParameters(lam1, lam2, r_exp, terms, max(terms), None)
    c = digit_fourier_decay_constant(q1) * dist_to_int((q1 - 1) * alpha) ** 2
    lam1 = 2.0 * logz / ((4.0 + c) * math.log(q1))
    lam2 = 2.0 * logz / ((4.0 + c) * math.log(q2))
    r_exp = (2.0 - 2.0 * c) / (4.0 + c)
    main = 1.0 - c / (4.0 + c)
    terms = (
        2.0 / (4.0 + c) + 2.0 / (4.0 + c),
        0.5 + r_exp / 2.0,
        1.0 + r_exp / 2.0 - 1.0 / (4.0 + c),
        1.0 + lam1 * (0.5 - c) * math.log(q1) / logz - r_exp / 2.0 if logz > 0 else main,
    )
    eta = dist_to_int((q1 - 1) * alpha) ** 2 / (15.0 * math.log(q1))
    return JointRateParameters(lam1, lam2, r_exp, terms, max(main, max(terms)), eta)


@dataclass(frozen=True)
class ZeckBlockSum:
    """G_k(alpha, theta) = sum_{u < F_k} e(alpha s_Z(u) + theta u)."""

    k: int
    alpha: float
    theta: float
    value: complex


def zeckendorf_block_sums(k_max: int, alpha: float, theta=0.0) -> list[complex]:
    """G_1..G_k_max by the two-term recurrence
    G_{k+1} = G_k + e(alpha + theta F_k) G_{k-1}, seeds G_1 = G_2 = 1."""
    if k_max < 1:
        raise ValueError("needs k_max >= 1")
    vals = [1.0 + 0.0j, 1.0 + 0.0j]  # G_1, G_2
    for k in range(2, k_max):
        ph = (alpha % 1.0 + reduced_phase(fibonacci(k), theta)) % 1.0
        vals.append(vals[-1] + cmath.exp(2j * math.pi * ph) * vals[-2])
    return vals[:k_max]


def zeckendorf_block_sum(k: int, alpha: float, theta=0.0) -> ZeckBlockSum:
    if k < 2:
        raise ValueError("needs k >= 2")
    value = zeckendorf_block_sums(k, alpha, theta)[-1]
    return ZeckBlockSum(k=k, alpha=alpha, theta=float(theta), value=value)


class CharRoot(NamedTuple):
    """Largest characteristic-root modulus of the block-sum recurrence and
    its closed-form bound 1/2 + (17 + 8 cos(2 pi alpha))^(1/4) / 2."""

    modulus: float
    bound: float


def char_root_modulus(alpha: float) -> CharRoot:
    w = cmath.sqrt(1.0 + 4.0 * cmath.exp(2j * math.pi * alpha))
    modulus = max(abs(0.5 + 0.5 * w), abs(0.5 - 0.5 * w))
    bound = 0.5 + 0.5 * (17.0 + 8.0 * math.cos(2.0 * math.pi * alpha)) ** 0.25
    return CharRoot(modulus=modulus, bound=bound)


def zeckendorf_window_expsum(x: float, z: float, alpha: float, theta=0.0) -> WindowSumResult:
    """sum_{x < n <= x+z} e(alpha s_Z(n) + n theta) assembled from the
    Fibonacci-block decomposition: each block [A, A + F_j) contributes
    e(alpha s_Z(A) + theta A) G_j."""
    if z < 0:
        raise ValueError("window length must be nonnegative")
    a = math.floor(x) + 1
    b = math.floor(x + z) + 1
    if b <= a:
        return WindowSumResult(0j, 0, 0.0)
    if a < 0:
        raise ValueError("window must lie in the nonnegative integers")
    segments = zeckendorf_decompose(a, b)
    if not segments:
        return WindowSumResult(0j, 0, 0.0)
    g = zeckendorf_block_sums(max(s.scale for s in segments), alpha, theta)
    partials = []
    for seg in segments:
        ph = (alpha * zeckendorf_digit_sum(seg.offset) % 1.0
              + reduced_phase(seg.offset, theta)) % 1.0
        partials.append(cmath.exp(2j * math.pi * ph) * g[seg.scale - 1])
    total = _kahan(partials)
    return WindowSumResult(total, b - a, _SUM_EPS * (b - a))
