"""Exact Piatetski-Shapiro floors, Beatty lines, the growth function
f(x) = x^c, and the count of floors where a tangent Beatty line misses
floor(f(n)).

PowerGrowth(c) is the one exponent type.  An integer c streams exact int64
powers; every other floor is certified by one helper in two tiers: the
double value is trusted wherever it lies farther from an integer than its
error guard, and only the remaining near-ties go to an exact fallback.  For
floor(n^c) that is the integer root, stepped from the double; for a Beatty
line it is beatty_floor, one Fraction floor per near-tie.  The exact ties of
floor(n^c) for c = p/q in lowest terms, n = k^q with n^c = k^p, are written
in closed form in each streamed chunk; they reach the fallback only where
the chunk's guard is 1/2 or more and every value does.  A chunk's doubles
x^c are x r^(c_num - c_den), r a square, cube or fourth root of x, for
1 < c < 2 with c_den <= 4, and np.power for every other c.

Beatty lines travel as two float arrays, slopes and intercepts: the slope
check and the integer-line test run once per call, and only a near-tie
builds a BeattyLine for beatty_floor.  The mismatch lemma takes alpha as
its exact ratio num/den once, so every phase r*alpha and span*r*alpha is an
integer residue mod den.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

__all__ = [
    "BeattyLine",
    "GrowthFunction",
    "PowerGrowth",
    "MismatchReport",
    "int_nth_root",
    "ps_floor",
    "ps_block_chunks",
    "beatty_floor",
    "beatty_floor_range",
    "beatty_floor_rows",
    "count_floor_mismatches",
]

_NEAR_MARGIN = 1e-8  # smallest distance to an integer trusted for x**c
_FLOAT_GUARD_REL = 1e-14  # conservative bound on the relative error of x**c
# Values per streamed floor chunk.  The floor, the Zeckendorf kernel and
# bincount keep a few live 8-byte arrays of 2^14 entries, the block digit sums
# 4- and 1-byte ones: under 1 MB in all, which leaves a 2 MB L2 cache room for
# the tables one digit kernel reads (0.51 MB at most, for s_Z).
_FLOOR_CHUNK = 1 << 14
# 0, 1, ..., _FLOOR_CHUNK - 1: a chunk's float grid n = lo + i in one pass.
_FLOAT_STEPS = np.arange(_FLOOR_CHUNK, dtype=np.float64)
# Largest exponent: floors are int64 values below 2^62, which 2^c leaves
# beyond it (and n**c_num alone would not finish for c near 10^20).
_C_MAX = 62
# Largest exponent denominator; the exponents in use have c_den <= 50.  Each
# near-tie of floor(n^c) costs one integer c_den-th root of n**c_num: at most
# tens of ms for c_den = 1000, c < 2 and n = 2^27 (CPython 3.11, x86-64), but
# hours for c_den = 10^20.
_C_DEN_MAX = 1000
# Most terms r of the mismatch lemma's exponential sums; the default R is at
# most 1001 (sqrt of the longest window, plus one).
_R_TERMS_MAX = 1 << 16
_MISMATCH_SPAN_MAX = 1_000_000  # longest window b - a: its floor rows are arrays that long
# Largest |E| of the decimal exponent of a rational literal, Python's own cap
# on the digits of an int literal (so "1e400" passes).  Fraction builds 10^|E|
# in full, which takes seconds for |E| near 10^7.
_LITERAL_EXP_MAX = 4300
_LITERAL_EXP = re.compile(r"e([-+]?[\d_]+)\s*$", re.IGNORECASE)


def _fraction(value, name: str) -> Fraction:
    """Fraction(value), after the check that a text value's decimal
    exponent E has |E| <= _LITERAL_EXP_MAX; the mantissa needs none, since
    Python rejects an int of more than 4300 digits at once."""
    exp = _LITERAL_EXP.search(value) if isinstance(value, str) else None
    if exp:
        digits = exp[1].lstrip("+-").replace("_", "").lstrip("0")
        if len(digits) > len(str(_LITERAL_EXP_MAX)) or int(digits or 0) > _LITERAL_EXP_MAX:
            raise ValueError(f"the decimal exponent of {name} must lie within "
                             f"+-{_LITERAL_EXP_MAX}")
    return Fraction(value)


def int_nth_root(n: int, k: int, seed: int | None = None) -> int:
    """floor(n**(1/k)), exact for any size: by integer Newton iteration, or by
    unit steps from `seed` where that is known to lie within a few units."""
    if n < 0 or k < 1:
        raise ValueError("needs n >= 0 and k >= 1")
    if k == 1 or n in (0, 1):
        return n
    if k == 2:
        return math.isqrt(n)
    x = seed
    if x is None:
        x = 1 << -(-n.bit_length() // k)  # >= true root
        while True:
            y = ((k - 1) * x + n // x ** (k - 1)) // k
            if y >= x:
                break
            x = y
    while x ** k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x


def _fourth_root(x: np.ndarray) -> np.ndarray:
    r = np.sqrt(x)
    return np.sqrt(r, out=r)


# x^c = x r^(c_num - c_den) for r = x^(1/c_den) and 1 < c < 2: below n = 2^22
# that is within 1.3 ulp (3/2, 4/3), 1.7 (5/4), 2.8 (5/3) and 5.4 (7/4) of
# the exact power, where np.power with the rounded exponent c is off by up
# to 11 ulp; _pow_guard allows at least 45.
_ROOTS = {2: np.sqrt, 3: np.cbrt, 4: _fourth_root}


def _power_in_place(x: np.ndarray, f: PowerGrowth) -> None:
    """x **= c in place: by a root of x for 1 < c < 2 with c_den in _ROOTS,
    by np.power for every other c."""
    root = _ROOTS.get(f.c_den)
    if root is None or f.c_num >= 2 * f.c_den:
        np.power(x, f.cf, out=x)
        return
    r = root(x)
    for _ in range(f.c_num - f.c_den):
        x *= r


def _pow_guard(x: float) -> float:
    """Distance to an integer below which a double x**c is not trusted."""
    return max(_NEAR_MARGIN, _FLOAT_GUARD_REL * x)


def _affine_guard(v: np.ndarray) -> np.ndarray:
    """Distance to an integer below which a double n*alpha + beta is not
    trusted: 2^-40, widened by the float error scale so large magnitudes
    still escalate before the double can lie."""
    return np.maximum(2.0 ** -40, 4e-15 * (np.abs(v) + 1.0))


def _certified_floor(v, guard, exact):
    """floor(v) wherever v lies farther than `guard` (a scalar or an array
    like v) from every integer, so rounding cannot have carried the double
    across one; exact(i) at each other position, i its flat (C-order) index
    (non-finite values included).  A scalar gives an int; a float64 array
    gives an int64 array of its shape and is overwritten.

    The test is |frac - 1/2| < fl(1/2 - guard), frac = v - floor(v) exact (a
    multiple of ulp(v) below 1).  Rounding is monotone, so a pass means
    |frac - 1/2| < 1/2 - guard in the reals, i.e. min(frac, 1 - frac) > guard:
    every near-tie escalates, NaN included."""
    if not isinstance(v, np.ndarray):
        if math.isfinite(v) and abs(v - math.floor(v) - 0.5) < 0.5 - guard:
            return math.floor(v)
        return exact(0)
    fl = np.floor(v)
    v -= fl
    v -= 0.5
    near = np.flatnonzero(~(np.abs(v, out=v) < 0.5 - guard))
    out = fl.astype(np.int64)
    for i in near:
        out.flat[i] = exact(int(i))
    return out


def ps_floor(n: int, f: PowerGrowth) -> int:
    """Exactly floor(n**c): n**c itself for an integer c, else a double fast
    path whose near-ties are decided by the integer root
    floor((n**c_num) ** (1/c_den)), stepped from the double where that still
    resolves units."""
    if n < 1:
        raise ValueError(f"ps_floor needs n >= 1, got {n}")
    if f.c_den == 1:
        return n ** f.c_num
    x = float(n) ** f.cf
    return _certified_floor(x, _pow_guard(x), lambda _: int_nth_root(
        n ** f.c_num, f.c_den, int(x) if x < 2**53 else None))


def ps_block_chunks(n_lo: int, n_hi: int, f: PowerGrowth) -> Iterator[np.ndarray]:
    """Stream floor(n**c) for n in [n_lo, n_hi] as int64 chunks, in index
    order: exact int64 powers for an integer c, else element-wise identical
    to ps_floor, which settles the near-ties other than the exact ties
    n = k**c_den, whose floors k**c_num each chunk writes directly."""
    if not 1 <= n_lo <= n_hi:
        raise ValueError(f"need 1 <= n_lo <= n_hi, got ({n_lo}, {n_hi})")
    if n_hi >= 2**53:
        raise ValueError("block evaluation is limited to n < 2**53")
    if f.c_den == 1 and n_hi ** f.c_num >= 2**62:
        raise ValueError("floor values exceed the int64 streaming range")
    prev_last: int | None = None
    for lo in range(n_lo, n_hi + 1, _FLOOR_CHUNK):
        hi = min(lo + _FLOOR_CHUNK - 1, n_hi)
        if f.c_den == 1:
            yield np.arange(lo, hi + 1, dtype=np.int64) ** f.c_num
            continue
        x = _FLOAT_STEPS[:hi - lo + 1] + lo
        _power_in_place(x, f)
        # x grows with n: x[-1] bounds the chunk and its guard every element's.
        if not x[-1] < 2**62:
            raise ValueError("floor values exceed the int64 streaming range")
        guard = _pow_guard(float(x[-1]))
        # The exact ties n = k^c_den, where n^c = k^c_num, are set apart from
        # every integer (x = 1/2) and written after the certified floor.
        k = np.arange(int_nth_root(lo - 1, f.c_den) + 1, int_nth_root(hi, f.c_den) + 1,
                      dtype=np.int64)
        ties = k ** f.c_den - lo
        x[ties] = 0.5
        out = _certified_floor(x, guard, lambda i: ps_floor(lo + i, f))
        out[ties] = k ** f.c_num
        if prev_last is not None and out[0] < prev_last:
            raise AssertionError("ps_block lost monotonicity at a chunk boundary")
        if np.any(out[1:] < out[:-1]):
            raise AssertionError("ps_block produced a decreasing value")
        prev_last = int(out[-1])
        yield out


@dataclass(frozen=True)
class BeattyLine:
    """Tangent pair: slope alpha > 0 and intercept beta."""

    alpha: float
    beta: float = 0.0

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"Beatty slope must be positive, got {self.alpha}")


def beatty_floor(n: int, line: BeattyLine) -> int:
    """floor(n*alpha + beta) in exact rationals: the near-tie fallback of
    beatty_floor_rows, which has already found the double too close to an
    integer to trust."""
    return math.floor(Fraction(n) * Fraction(line.alpha) + Fraction(line.beta))


def beatty_floor_rows(alphas, betas, n_lo: int, n_hi: int) -> Iterator[np.ndarray]:
    """Stream floor(n*alpha + beta) for n in [n_lo, n_hi], one int64 row per
    line (alphas[i], betas[i]), in blocks of whole rows and line order.  A
    block holds at most _FLOOR_CHUNK floors, or one row where a row is
    longer.  Element-wise identical to beatty_floor, which settles the
    near-ties; rows of integer lines whose values stay below 2**53 are exact
    doubles, so take guard -inf.  Every slope must be positive and finite,
    checked before any floor."""
    alphas = np.asarray(alphas, dtype=np.float64)
    betas = np.asarray(betas, dtype=np.float64)
    bad = alphas[~((alphas > 0) & (alphas < np.inf))]
    if bad.size:
        raise ValueError(f"Beatty slopes must be positive and finite, got {bad[0]}")
    n = np.arange(n_lo, n_hi + 1, dtype=np.float64)
    rows = max(1, _FLOOR_CHUNK // max(n.size, 1))
    reach = max(abs(n_lo), abs(n_hi))
    # A NaN intercept fails floor(b) == b, an infinite one the 2**53 test.
    exact = ((np.floor(alphas) == alphas) & (np.floor(betas) == betas)
             & (reach * alphas + np.abs(betas) < 2**53))
    for r in range(0, alphas.size, rows):
        a, b = alphas[r:r + rows], betas[r:r + rows]
        v = n * a[:, None] + b[:, None]
        if v.size and np.max(np.abs(v[:, [0, -1]])) >= 2**62:
            raise ValueError("Beatty values exceed the int64 range")
        guard = _affine_guard(v)
        guard[exact[r:r + rows]] = -np.inf
        yield _certified_floor(v, guard, lambda i: beatty_floor(
            n_lo + i % n.size, BeattyLine(float(a[i // n.size]), float(b[i // n.size]))))


def beatty_floor_range(line: BeattyLine, n_lo: int, n_hi: int) -> np.ndarray:
    """Vectorised beatty_floor for n in [n_lo, n_hi]: the one-line case of
    beatty_floor_rows."""
    (block,) = beatty_floor_rows([line.alpha], [line.beta], n_lo, n_hi)
    return block[0]


class GrowthFunction:
    """Amplitude function f of the substitution rule, with f, f', f'' > 0.

    A subclass provides f, df and d2f (scalars or numpy arrays), df_inv, the
    derivative of the inverse, d2_sup(a, b), the sup of f'' on [a, b], and
    floor_block, the exact floors streamed as int64 chunks.
    """

    def floor_exact(self, n: int) -> int:
        """floor(f(n)): the one-value case of floor_block."""
        (block,) = self.floor_block(n, n)
        return int(block[0])


class PowerGrowth(GrowthFunction):
    """f(x) = x**c for an exact rational exponent c = c_num/c_den in
    (1, _C_MAX], given as a Fraction or anything Fraction parses ("1.42" is
    71/50, and a decimal exponent lies within _LITERAL_EXP_MAX), with
    c_den <= _C_DEN_MAX."""

    def __init__(self, c):
        self.c = _fraction(c, "c")
        if not 1 < self.c <= _C_MAX:
            raise ValueError(f"PowerGrowth needs 1 < c <= {_C_MAX}")
        self.c_num, self.c_den = self.c.numerator, self.c.denominator
        if self.c_den > _C_DEN_MAX:
            raise ValueError(f"exponent denominator {self.c_den} exceeds {_C_DEN_MAX}")
        self.cf = float(self.c)

    def f(self, x):
        return x ** self.cf

    def df(self, x):
        return self.cf * x ** (self.cf - 1.0)

    def d2f(self, x):
        return self.cf * (self.cf - 1.0) * x ** (self.cf - 2.0)

    def df_inv(self, y):
        return (1.0 / self.cf) * y ** (1.0 / self.cf - 1.0)

    def d2_sup(self, a: float, b: float) -> float:
        return float(max(self.d2f(a), self.d2f(b)))

    def floor_exact(self, n: int) -> int:
        return ps_floor(n, self)

    def floor_block(self, n_lo: int, n_hi: int) -> Iterator[np.ndarray]:
        return ps_block_chunks(n_lo, n_hi, self)

    def label(self) -> str:
        return f"x^{self.c}"


@dataclass(frozen=True)
class MismatchReport:
    """Exact tangent-line floor mismatches on (a, b] plus the proven
    Erdos-Turan-flavoured upper bound (valid whenever d < 1/2)."""

    a: int
    b: int
    alpha: float
    beta: float
    mismatch_count: int
    lemma_bound: float
    second_derivative_bound: float
    d: float
    r_terms: int


def count_floor_mismatches(f: GrowthFunction, a: int, b: int, alpha: float,
                           r_terms: int | None = None) -> MismatchReport:
    """Count n in (a, b] where floor(f(n)) != floor(n*alpha + f(a) - a*alpha),
    both floors exact, and evaluate the lemma bound
    2*M*(b-a)^3 + (b-a)/R + sum_{r<=R} |sum e(n r alpha)|/r for R = r_terms
    >= 1.  Each inner sum is |sin(pi (b-a) r alpha) / sin(pi r alpha)|."""
    if not 0 <= a <= b:
        raise ValueError(f"need 0 <= a <= b, got a = {a}, b = {b}")
    if r_terms is not None and not 1 <= r_terms <= _R_TERMS_MAX:
        raise ValueError(f"needs r_terms >= 1 and r_terms <= {_R_TERMS_MAX}, got {r_terms}")
    if b - a > _MISMATCH_SPAN_MAX:
        raise ValueError(f"window b - a = {b - a} exceeds its limit of {_MISMATCH_SPAN_MAX}")
    span = b - a
    if span == 0:
        return MismatchReport(a, b, alpha, float(f.f(a)) - a * alpha, 0, 0.0,
                              f.d2_sup(a, max(a, 1)), 0.0, 1)
    tol = 1e-12 * (abs(alpha) + 1.0)
    if not (f.df(a) - tol <= alpha <= f.df(b) + tol):
        raise ValueError(f"alpha={alpha} outside f'([{a}, {b}])")
    f_a = float(f.f(a))
    beta = f_a - a * alpha
    # Absorb the rounding of f(a) - a*alpha into the curvature constant so
    # the lemma applies verbatim to the float line actually tested.
    beta_slack = 4e-16 * (abs(f_a) + abs(a * alpha))
    m_bound = f.d2_sup(a, b) + beta_slack / span ** 2
    floors = np.concatenate(list(f.floor_block(a + 1, b)))
    beatty = beatty_floor_range(BeattyLine(alpha=alpha, beta=beta), a + 1, b)
    mismatches = int(np.count_nonzero(floors != beatty))
    if r_terms is None:
        r_terms = max(1, math.isqrt(span) + 1)
    # |sum_{a<n<=b} e(n r alpha)| = |sin(pi span r alpha) / sin(pi r alpha)|,
    # or span where r alpha is an integer.  With alpha = num/den exactly,
    # each sine takes the distance of its phase p/den, p an integer mod den,
    # to the nearest integer, rounded once: full relative accuracy next to an
    # integer, where a double phase would not keep it.
    num, den = Fraction(alpha).as_integer_ratio()
    exp_part = 0.0
    for r in range(1, r_terms + 1):
        p = r * num % den
        s = math.sin(math.pi * (min(p, den - p) / den))
        if s == 0.0:
            exp_part += span / r
            continue
        p = span * r % den * num % den
        exp_part += math.sin(math.pi * (min(p, den - p) / den)) / s / r
    d = m_bound * span ** 2
    bound = 2.0 * m_bound * span ** 3 + span / r_terms + exp_part
    return MismatchReport(a=a, b=b, alpha=alpha, beta=beta, mismatch_count=mismatches,
                          lemma_bound=bound, second_derivative_bound=m_bound, d=d,
                          r_terms=r_terms)
