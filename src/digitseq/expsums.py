"""Exponential-sum kernels.

Windowed sums sum phi(m) e(m theta) over a grid of theta with accurate
phase reduction, the Thue-Morse sine-product integral and its geometric
decay rate, and discrete digit Fourier coefficient tables with their uniform
decay bound.

Phases m*theta are never reduced in plain double arithmetic: the base point
is reduced exactly through the integer representation of the float (or an
exact Fraction) in reduced_phase, and in-window offsets use a Dekker split,
so e(m theta) stays accurate for m far beyond 2**53.

Digit Fourier tables are np.clongdouble products of per-digit factors taken
from one cached long-double table of roots of unity at exact integer
indices; their summaries round to double once.

The sine-product integral I_level is level products of one transfer-operator
matrix on Chebyshev nodes with a vector, up to the edge of the double range.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "WindowSumResult",
    "FourierTable",
    "SineProductResult",
    "window_exp_sum",
    "window_exp_sums",
    "sine_product_integral",
    "sine_product_decay",
    "digit_fourier_table",
    "digit_fourier_decay_constant",
    "fourier_coefficient_bound",
    "reduced_phase",
    "geometric_sum_modulus",
    "dist_to_int",
    "max_table_bytes",
]

_SUM_EPS = 5e-16  # per-term relative bound fed into the residual estimate
_WINDOW_CHUNK = 1 << 18  # terms per partial sum of a window sum
_BOUND_SLACK = 1e-12  # rounding allowance of the uniform coefficient bound
_LEVEL_MAX = 1713  # I_1713 = 2.26e-308; I_1714 = 1.50e-308 is below the normal doubles
_TWO_PI = 8 * np.arctan(np.longdouble(1))
_QUARTER_TURNS = np.array([1, 1j, -1, -1j], dtype=np.clongdouble)


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


def _phase_fraction(m: int, theta) -> tuple[int, int]:
    """(p, den) with {m * theta} = p / den exactly, through the rational
    value of theta: a Fraction as it is, anything else through the exact
    value of its double."""
    if isinstance(theta, Fraction):
        num, den = theta.numerator, theta.denominator
    else:
        num, den = float(theta).as_integer_ratio()
    return (m % den) * num % den, den


def reduced_phase(m: int, theta) -> float:
    """{m * theta}, the exact phase rounded once to a double."""
    p, den = _phase_fraction(m, theta)
    return p / den


def geometric_sum_modulus(count: int, theta) -> float:
    """|sum_{j<count} e(j theta)| = |sin(pi count theta) / sin(pi theta)|,
    and count where theta is an integer.  Each sine takes the exact distance
    of its phase to the nearest integer, so the quotient keeps full relative
    accuracy next to an integer, where a double phase would not."""
    def sin_pi(m: int) -> float:
        p, den = _phase_fraction(m, theta)
        return math.sin(math.pi * (min(p, den - p) / den))

    s = sin_pi(1)
    return float(count) if s == 0.0 else sin_pi(count) / s


def _phase_block(m0: int, count: int, thetas) -> np.ndarray:
    """{(m0 + j) * theta} for j < count, one row per theta.  Exact base
    reduction per row plus a Dekker-split product for the offsets keeps the
    error at ulp level."""
    if count <= 0:
        return np.zeros((len(thetas), 0))
    base = np.array([[reduced_phase(m0, t)] for t in thetas])
    tf = np.array([[float(t)] for t in thetas])
    j = np.arange(count, dtype=np.float64)
    if count > 1 << 26:
        raise ValueError("window too long for the split-phase path")
    c = 134217729.0 * tf  # 2**27 + 1
    t_hi = c - (c - tf)
    t_lo = tf - t_hi
    ph = (j * t_hi) % 1.0 + (j * t_lo) % 1.0 + base
    return ph % 1.0


def _kahan(values: Iterable[complex]) -> complex:
    """Compensated (Kahan) sum, accumulated in the given order (element-wise
    when the values are arrays)."""
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


def window_exp_sums(phi: Callable[[np.ndarray], np.ndarray], x: float, z: float,
                    thetas) -> np.ndarray:
    """sum_{x < m <= x+z} phi(m) e(m theta) for every theta of a sequence,
    as a complex128 array.  phi maps an int64 array to values bounded by 1
    in modulus (anything array-like is accepted).

    phi is evaluated once per chunk of at most _WINDOW_CHUNK terms; the
    thetas are rows of 2-D blocks of at most _WINDOW_CHUNK terms (one row
    when a chunk is that long), each row summed by np.sum like a single
    window.  Chunk partials are combined by _kahan in chunk order, so every
    entry is the one-theta sum bit for bit."""
    if z < 0:
        raise ValueError("window length must be nonnegative")
    m_lo = math.floor(x) + 1
    m_hi = math.floor(x + z)
    partials = []
    for lo in range(m_lo, m_hi + 1, _WINDOW_CHUNK):
        n = min(_WINDOW_CHUNK, m_hi - lo + 1)
        # phi values as a (1, n) row and the left operand, as in the 1-D
        # product: numpy's SIMD complex product fuses a_re * b into a
        # multiply-add, so it is not symmetric in its operands, and a bare
        # (n,) row against a (1, 1) block takes its unfused scalar loop.
        vals = np.asarray(phi(np.arange(lo, lo + n, dtype=np.int64))).reshape(1, n)
        rows = max(1, _WINDOW_CHUNK // n)
        partials.append(np.concatenate([
            np.sum(vals * np.exp(2j * np.pi * _phase_block(lo, n, thetas[r:r + rows])), axis=-1)
            for r in range(0, len(thetas), rows)]))
    if not partials:
        return np.zeros(len(thetas), dtype=np.complex128)
    return _kahan(partials)


def window_exp_sum(phi: Callable[[np.ndarray], np.ndarray], x: float, z: float,
                   theta) -> WindowSumResult:
    """sum_{x < m <= x+z} phi(m) e(m theta): the one-theta case of
    window_exp_sums.  No subcommand calls it; it stays as the span perfbench
    traces for window sums, and as the one-theta reference of the tests."""
    count = max(0, math.floor(x + z) - math.floor(x))
    value = complex(window_exp_sums(phi, x, z, [theta])[0])
    return WindowSumResult(value, count, _SUM_EPS * count)


@dataclass(frozen=True)
class SineProductResult:
    """Integral over [0,1] of prod_{k<level} |sin(2^k pi theta)|."""

    level: int
    integral_value: float
    quadrature_error_estimate: float


@functools.cache
def _transfer_operator(n: int) -> tuple[np.ndarray, np.ndarray]:
    """L and the Fejer weights on the n first-kind Chebyshev nodes
    (1 + cos phi) / 2, in np.longdouble; built once per node count."""
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
    weights = (1 - 2 * terms.sum(axis=1)) / n
    op.flags.writeable = weights.flags.writeable = False
    return op, weights


def _operator_integrals(level_max: int, n: int) -> list[np.longdouble]:
    """Fejer weights . L^level 1 for level = 0 ... level_max: one chain of
    matrix-vector products."""
    op, weights = _transfer_operator(n)
    values = np.ones(n, dtype=np.longdouble)
    integrals = [weights @ values]
    for _ in range(level_max):
        values = op @ values
        integrals.append(weights @ values)
    return integrals


def _sine_product_results(level_max: int) -> list[SineProductResult]:
    """SineProductResult for level = 0 ... level_max from one operator chain
    per node count (the levels are checked against the double range first)."""
    if level_max > _LEVEL_MAX:
        raise ValueError(f"level above the double range guard ({_LEVEL_MAX})")
    i64, i128 = (_operator_integrals(level_max, n) for n in (64, 128))
    return [SineProductResult(0, 1.0, 0.0)] + [
        SineProductResult(level, float(i128[level]), float(abs(i128[level] - i64[level])))
        for level in range(1, level_max + 1)]


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
    if level == 0:
        return SineProductResult(0, 1.0, 0.0)
    return _sine_product_results(level)[-1]


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
    # The levels below level_max are read off one chain.  The last row goes
    # through sine_product_integral, the span perfbench traces for these
    # integrals; it runs the same chain once more, to level_max.
    results = _sine_product_results(level_max - 1) + [sine_product_integral(level_max)]
    rows = []
    prev = None
    for lam, res in enumerate(results):
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


@dataclass(frozen=True)
class FourierTable:
    """All digit Fourier coefficients at fixed (q, level, alpha); index h.

    The coefficients are np.clongdouble.  The three summaries share one
    pass of squared moduli in long double, and each rounds to double once."""

    q: int
    level: int
    alpha: float
    coefficients: np.ndarray

    @functools.cached_property
    def _sq_moduli(self) -> np.ndarray:
        c = self.coefficients
        return c.real * c.real + c.imag * c.imag

    def max_abs_coeff(self) -> float:
        return float(np.sqrt(self._sq_moduli.max()))

    def parseval_error(self) -> float:
        return abs(float(self._sq_moduli.sum()) - 1.0)

    def uniform_bound(self) -> float:
        return fourier_coefficient_bound(self.q, self.level, self.alpha)

    def bound_violations(self) -> int:
        limit = np.longdouble(self.uniform_bound() + _BOUND_SLACK)
        return int(np.count_nonzero(self._sq_moduli > limit * limit))


def _e_long_double(phases) -> np.ndarray:
    """e(t) = exp(2 pi i t) for long-double phases t, as np.clongdouble:
    the quarter turn i^k, k = rint(4t), times e(t - k/4), whose sine and
    cosine take arguments of at most pi/4 (the fast and accurate range)."""
    t = np.asarray(phases, dtype=np.longdouble)
    k = np.rint(4 * t)
    r = _TWO_PI * (t - k / 4)
    out = np.empty(t.shape, dtype=np.clongdouble)
    out.real, out.imag = np.cos(r), np.sin(r)
    return out * _QUARTER_TURNS[k.astype(np.int64) % 4]


@functools.lru_cache(maxsize=1)
def _root_table(q: int, level: int) -> np.ndarray:
    """W[i] = e(-i / q^level) for i < q^level; only the last table is kept,
    which serves every alpha of one (q, level)."""
    size = q ** level
    roots = _e_long_double(-np.arange(size, dtype=np.longdouble) / size)
    roots.flags.writeable = False
    return roots


def digit_fourier_table(q: int, level: int, alpha: float) -> FourierTable:
    """Coefficients F(h) = q^-level sum_{u < q^level} e(alpha s_q(u) - h u / q^level)
    for all h < q^level (guarded to 2^22 entries and, before anything is
    allocated, to the DIGITSEQ_MAX_MEMORY cap on the table and its root table).

    F(h) is the product over k = 1 ... level of the digit factors
    (1/q) sum_{d<q} e(d alpha) e(-d r / q^k), which depend on h only through
    r = h mod q^k.  e(-r / q^k) is W[r q^(level-k)] of the root table, an
    exact integer index, and each {d alpha} is reduced exactly, so no phase
    grows with h.  Each factor is a Horner sum in those roots; the product
    is built up from k = 1, one broadcast per level.  Everything runs in
    long double, and the np.clongdouble coefficients are rounded only where
    a summary reports them."""
    if q < 2 or level < 0:
        raise ValueError("needs q >= 2 and level >= 0")
    size = q ** level
    if size > 1 << 22:
        raise ValueError(f"table of {size} coefficients exceeds the 2^22 guard")
    if 2 * size * np.dtype(np.clongdouble).itemsize > max_table_bytes():
        raise ValueError("table exceeds DIGITSEQ_MAX_MEMORY")
    roots = _root_table(q, level)
    digit_terms = _e_long_double([
        np.longdouble(p) / np.longdouble(den)
        for p, den in (_phase_fraction(d, alpha) for d in range(q))]) / q
    coeffs = np.ones(1, dtype=np.clongdouble)
    for k in range(1, level + 1):
        y = roots[::q ** (level - k)]
        factor = digit_terms[q - 1] * y
        for d in range(q - 2, 0, -1):
            factor += digit_terms[d]
            factor *= y
        factor += digit_terms[0]
        coeffs = (factor.reshape(q, -1) * coeffs).ravel()
    return FourierTable(q=q, level=level, alpha=alpha, coefficients=coeffs)
