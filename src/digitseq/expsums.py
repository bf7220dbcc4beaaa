"""Exponential-sum kernels.

Windowed sums sum phi(m) e(m theta) over a grid of theta with accurate
phase reduction, the Thue-Morse sine-product integral and its geometric
decay rate, and discrete digit Fourier coefficient tables with their uniform
decay bound.

A window holds at most _WINDOW_MAX terms and takes one phi pass.  Its
phases m*theta are never reduced in plain double arithmetic: the base point
is reduced exactly through the integer representation of the float (or an
exact Fraction) in reduced_phase, and in-window offsets use a Dekker split,
so e(m theta) stays accurate for m far beyond 2**53.

Digit Fourier tables are np.clongdouble products of per-digit factors taken
from one cached long-double table of roots of unity at exact integer
indices; one product chain yields the table of every level up to the one
asked for, and their summaries round to double once.

The sine-product integral I_level is level products of one transfer-operator
matrix on Chebyshev nodes with a vector, up to the edge of the double range.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

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
    "dist_to_int",
]

_WINDOW_MAX = 1 << 16  # longest window z of a window sum and of the estimates
_BLOCK_TERMS = 1 << 18  # terms of one 2-D block of theta rows
_BOUND_SLACK = 1e-12  # rounding allowance of the uniform coefficient bound
_TABLE_LOG2_MAX = 22  # digit Fourier tables hold at most 2^22 coefficients
_LEVEL_MAX = 1713  # I_1713 = 2.26e-308; I_1714 = 1.50e-308 is below the normal doubles
_TWO_PI = 8 * np.arctan(np.longdouble(1))
_QUARTER_TURNS = np.array([1, 1j, -1, -1j], dtype=np.clongdouble)


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


def _phase_block(m0: int, count: int, thetas) -> np.ndarray:
    """{(m0 + j) * theta} for j < count, one row per theta.  Exact base
    reduction per row plus a Dekker-split product for the offsets keeps the
    error at ulp level."""
    base = np.array([[reduced_phase(m0, t)] for t in thetas])
    tf = np.array([[float(t)] for t in thetas])
    j = np.arange(count, dtype=np.float64)
    c = 134217729.0 * tf  # 2**27 + 1
    t_hi = c - (c - tf)
    t_lo = tf - t_hi
    ph = (j * t_hi) % 1.0 + (j * t_lo) % 1.0 + base
    return ph % 1.0


@dataclass(frozen=True)
class WindowSumResult:
    """Value of a windowed exponential sum with its term count."""

    value: complex
    term_count: int


def window_exp_sums(phi: Callable[[np.ndarray], np.ndarray], x: float, z: float,
                    thetas) -> np.ndarray:
    """sum_{x < m <= x+z} phi(m) e(m theta) for every theta of a sequence,
    as a complex128 array.  phi maps an int64 array to values bounded by 1
    in modulus (anything array-like is accepted).

    The window length z lies in [0, _WINDOW_MAX], checked before phi runs.
    phi is evaluated once for the whole window; the thetas are rows of 2-D
    blocks of at most _BLOCK_TERMS terms, each row summed by np.sum like a
    single window, so every entry is the one-theta sum bit for bit."""
    if not 0 <= z <= _WINDOW_MAX:
        raise ValueError(f"window length must lie in [0, {_WINDOW_MAX}], got {z}")
    lo = math.floor(x) + 1
    n = math.floor(x + z) - lo + 1
    # phi values as a (1, n) row and the left operand, as in the 1-D
    # product: numpy's SIMD complex product fuses a_re * b into a
    # multiply-add, so it is not symmetric in its operands, and a bare
    # (n,) row against a (1, 1) block takes its unfused scalar loop.
    vals = np.asarray(phi(np.arange(lo, lo + n, dtype=np.int64))).reshape(1, n)
    rows = max(1, _BLOCK_TERMS // max(n, 1))
    return np.concatenate([
        np.sum(vals * np.exp(2j * np.pi * _phase_block(lo, n, thetas[r:r + rows])), axis=-1)
        for r in range(0, len(thetas), rows)])


def window_exp_sum(phi: Callable[[np.ndarray], np.ndarray], x: float, z: float,
                   theta) -> WindowSumResult:
    """sum_{x < m <= x+z} phi(m) e(m theta): the one-theta case of
    window_exp_sums.  No subcommand calls it; it stays as the span perfbench
    traces for window sums, and as the one-theta reference of the tests."""
    count = max(0, math.floor(x + z) - math.floor(x))
    return WindowSumResult(complex(window_exp_sums(phi, x, z, [theta])[0]), count)


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


@functools.lru_cache(maxsize=1)
def _sine_product_results(level_max: int) -> tuple[SineProductResult, ...]:
    """SineProductResult for level = 0 ... level_max from one operator chain
    per node count (the levels are checked against the double range first).
    The last chain is kept, so sine_product_decay reads its rows off the
    chain that its sine_product_integral call built."""
    if level_max > _LEVEL_MAX:
        raise ValueError(f"level above the double range guard ({_LEVEL_MAX})")
    i64, i128 = (_operator_integrals(level_max, n) for n in (64, 128))
    return (SineProductResult(0, 1.0, 0.0),) + tuple(
        SineProductResult(level, float(i128[level]), float(abs(i128[level] - i64[level])))
        for level in range(1, level_max + 1))


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
    # sine_product_integral, the span perfbench traces for these integrals,
    # builds the chain to level_max; every row is read off that one chain.
    sine_product_integral(level_max)
    rows = []
    prev = None
    for lam, res in enumerate(_sine_product_results(level_max)):
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
    pass of squared moduli in long double, and each rounds to double once.
    coarser is the level - 1 table of the same product chain (None at level
    0); chain() lists the tables from level 0 up to this one."""

    q: int
    level: int
    alpha: float
    coefficients: np.ndarray
    coarser: FourierTable | None = field(default=None, repr=False, compare=False)

    def chain(self) -> list[FourierTable]:
        tables = [self]
        while tables[-1].coarser is not None:
            tables.append(tables[-1].coarser)
        return tables[::-1]

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


def _check_fourier_table(q: int, level: int) -> None:
    """The guards of digit_fourier_table, without any allocation: q >= 2,
    level >= 0 and at most 2^22 coefficients (q ** level is never formed for
    a level past 22)."""
    if q < 2 or level < 0:
        raise ValueError("needs q >= 2 and level >= 0")
    if level > _TABLE_LOG2_MAX or q ** level > 1 << _TABLE_LOG2_MAX:
        raise ValueError(f"table of {q}^{level} coefficients exceeds the 2^{_TABLE_LOG2_MAX} guard")


def digit_fourier_table(q: int, level: int, alpha: float) -> FourierTable:
    """Coefficients F(h) = q^-level sum_{u < q^level} e(alpha s_q(u) - h u / q^level)
    for all h < q^level, with the tables of every lower level linked through
    coarser (guarded by _check_fourier_table before anything is allocated;
    the lower levels add at most 1/(q - 1) of the table's size).

    F(h) is the product over k = 1 ... level of the digit factors
    (1/q) sum_{d<q} e(d alpha) e(-d r / q^k), which depend on h only through
    r = h mod q^k.  e(-r / q^k) is W[r q^(level-k)] of the root table, an
    exact integer index, and each {d alpha} is reduced exactly, so no phase
    grows with h.  Each factor is a Horner sum in those roots; the product
    is built up from k = 1, one broadcast per level, and the product after
    k factors is the level-k table: its roots are bitwise those of the
    level-k root table, since r q^(level-k) / q^level rounds exactly as
    r / q^k does.  Everything runs in long double, and the np.clongdouble
    coefficients are rounded only where a summary reports them."""
    _check_fourier_table(q, level)
    table = FourierTable(q=q, level=0, alpha=alpha, coefficients=np.ones(1, dtype=np.clongdouble))
    if level == 0:  # the empty product; q may be far beyond the guard here
        return table
    roots = _root_table(q, level)
    digit_terms = _e_long_double([
        np.longdouble(p) / np.longdouble(den)
        for p, den in (_phase_fraction(d, alpha) for d in range(q))]) / q
    for k in range(1, level + 1):
        y = roots[::q ** (level - k)]
        factor = digit_terms[q - 1] * y
        for d in range(q - 2, 0, -1):
            factor += digit_terms[d]
            factor *= y
        factor += digit_terms[0]
        table = FourierTable(q=q, level=k, alpha=alpha, coarser=table,
                             coefficients=(factor.reshape(q, -1) * table.coefficients).ravel())
    return table
