"""Exact Piatetski-Shapiro floors, Beatty lines, membership detection,
tangent-line approximation with mismatch counting, and the admissible
growth-function family.

Every floor here is certified by one helper in two tiers: the double value is
trusted wherever it lies farther from an integer than its error guard, and
only the remaining near-ties go to an exact fallback (integer roots for
floor(n^c), Fractions for Beatty lines, mpmath for generic growth functions).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import mpmath
import numpy as np

from .expsums import reduced_phase_window

__all__ = [
    "IntegerExponentWarning",
    "PSSpec",
    "BeattyLine",
    "GrowthFunction",
    "PowerGrowth",
    "PowerLogGrowth",
    "SumGrowth",
    "TangentWindow",
    "MismatchReport",
    "AdmissibilityReport",
    "int_nth_root",
    "ps_floor",
    "ps_block",
    "ps_block_chunks",
    "beatty_floor",
    "beatty_floor_range",
    "beatty_membership",
    "beatty_membership_range",
    "tangent_window",
    "count_floor_mismatches",
    "check_admissible",
]

_NEAR_MARGIN = 1e-8  # smallest distance to an integer trusted for x**c
_FLOAT_GUARD_REL = 1e-14  # conservative bound on the relative error of x**c
_FLOOR_CHUNK = 1 << 20  # values per streamed floor chunk


class IntegerExponentWarning(UserWarning):
    """The exponent c is an integer: floors are still well-defined but the
    analytic statements behind the experiments need noninteger c."""


@dataclass(frozen=True)
class PSSpec:
    """Exponent c = c_num/c_den in lowest terms."""

    c_num: int
    c_den: int = 1

    def __post_init__(self):
        if self.c_num <= 0 or self.c_den <= 0:
            raise ValueError("exponent must be a positive rational")
        if math.gcd(self.c_num, self.c_den) != 1:
            raise ValueError(f"{self.c_num}/{self.c_den} is not in lowest terms")
        if self.c_num <= self.c_den:
            raise ValueError("floor evaluation needs c > 1")

    @classmethod
    def from_rational(cls, c) -> "PSSpec":
        frac = Fraction(c)
        return cls(frac.numerator, frac.denominator)

    @classmethod
    def from_decimal(cls, text: str) -> "PSSpec":
        """Parse a decimal string like '1.42' to the exact rational 71/50."""
        return cls.from_rational(Fraction(text))

    @property
    def c(self) -> Fraction:
        return Fraction(self.c_num, self.c_den)

    @property
    def c_float(self) -> float:
        return self.c_num / self.c_den

    @property
    def is_integer(self) -> bool:
        return self.c_den == 1


def int_nth_root(n: int, k: int) -> int:
    """floor(n**(1/k)) by integer Newton iteration; exact for any size."""
    if n < 0 or k < 1:
        raise ValueError("needs n >= 0 and k >= 1")
    if k == 1 or n in (0, 1):
        return n
    if k == 2:
        return math.isqrt(n)
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


def _pow_guard(x):
    """Distance to an integer below which a double x**c is not trusted."""
    return np.maximum(_NEAR_MARGIN, _FLOAT_GUARD_REL * np.maximum(x, 1.0))


def _affine_guard(v):
    """Distance to an integer below which a double n*alpha + beta (or a
    quotient by alpha) is not trusted: 2^-40, widened by the float error
    scale so large magnitudes still escalate before the double can lie."""
    return np.maximum(2.0 ** -40, 4e-15 * (np.abs(v) + 1.0))


def _certified_floor(v, guard, exact):
    """floor(v) wherever v lies at least `guard` away from every integer, so
    rounding cannot have carried the double across one; exact(i) at each
    other position i (non-finite values included).  A float gives an int,
    a float64 array an int64 array."""
    fl = np.floor(v)
    frac = v - fl
    near = ~(np.minimum(frac, 1.0 - frac) >= guard)
    if np.ndim(v) == 0:
        return exact(0) if near else int(fl)
    out = fl.astype(np.int64)
    for i in np.flatnonzero(near):
        out[i] = exact(int(i))
    return out


def ps_floor(n: int, spec: PSSpec) -> int:
    """Exactly floor(n**c).  Double fast path; near-ties are decided by the
    integer root floor((n**c_num) ** (1/c_den))."""
    if n < 1:
        raise ValueError(f"ps_floor needs n >= 1, got {n}")
    if spec.is_integer:
        warnings.warn("integer exponent: floor(n^c) degenerates to an integer power",
                      IntegerExponentWarning, stacklevel=2)
        return n ** spec.c_num
    x = float(n) ** spec.c_float
    return _certified_floor(x, _pow_guard(x),
                            lambda _: int_nth_root(n ** spec.c_num, spec.c_den))


def ps_block_chunks(n_lo: int, n_hi: int, spec: PSSpec) -> Iterator[np.ndarray]:
    """Stream floor(n**c) for n in [n_lo, n_hi] as int64 chunks, in index
    order.  Element-wise identical to ps_floor, which settles the near-ties."""
    if not 1 <= n_lo <= n_hi:
        raise ValueError(f"need 1 <= n_lo <= n_hi, got ({n_lo}, {n_hi})")
    if n_hi >= 2**53:
        raise ValueError("block evaluation is limited to n < 2**53")
    if spec.is_integer:
        warnings.warn("integer exponent: floor(n^c) degenerates to an integer power",
                      IntegerExponentWarning, stacklevel=2)
    cf = spec.c_float
    prev_last: int | None = None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegerExponentWarning)
        for lo in range(n_lo, n_hi + 1, _FLOOR_CHUNK):
            hi = min(lo + _FLOOR_CHUNK - 1, n_hi)
            x = np.arange(lo, hi + 1, dtype=np.float64) ** cf
            if not np.all(np.isfinite(x)) or float(x[-1]) >= 2**62:
                raise ValueError("floor values exceed the int64 streaming range")
            out = _certified_floor(x, _pow_guard(x), lambda i: ps_floor(lo + i, spec))
            if prev_last is not None and out[0] < prev_last:
                raise AssertionError("ps_block lost monotonicity at a chunk boundary")
            if np.any(np.diff(out) < 0):
                raise AssertionError("ps_block produced a decreasing value")
            prev_last = int(out[-1])
            yield out


def ps_block(n_lo: int, n_hi: int, spec: PSSpec) -> np.ndarray:
    """Materialised ps_block_chunks (guarded to 2**26 values)."""
    if n_hi - n_lo + 1 > 1 << 26:
        raise ValueError("block too large to materialise; use ps_block_chunks")
    return np.concatenate(list(ps_block_chunks(n_lo, n_hi, spec)))


@dataclass(frozen=True)
class BeattyLine:
    """Tangent pair: slope alpha > 0 and intercept beta."""

    alpha: float
    beta: float = 0.0

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"Beatty slope must be positive, got {self.alpha}")


def beatty_floor(n: int, line: BeattyLine) -> int:
    """floor(n*alpha + beta) with exact-rational escalation near ties."""
    v = n * line.alpha + line.beta
    return _certified_floor(v, _affine_guard(v), lambda _: math.floor(
        Fraction(n) * Fraction(line.alpha) + Fraction(line.beta)))


def beatty_floor_range(line: BeattyLine, n_lo: int, n_hi: int) -> np.ndarray:
    """Vectorised beatty_floor for n in [n_lo, n_hi]."""
    v = np.arange(n_lo, n_hi + 1, dtype=np.float64) * line.alpha + line.beta
    if v.size and max(abs(v[0]), abs(v[-1])) >= 2**62:
        raise ValueError("Beatty values exceed the int64 range")
    return _certified_floor(v, _affine_guard(v), lambda i: beatty_floor(n_lo + i, line))


def beatty_membership(m: int, line: BeattyLine) -> bool:
    """Detection identity: m is hit by the Beatty line (alpha >= 1) iff
    floor((beta-m)/alpha) - floor((beta-m-1)/alpha) equals 1."""
    return bool(beatty_membership_range(line, m, m)[0])


def beatty_membership_range(line: BeattyLine, m_lo: int, m_hi: int) -> np.ndarray:
    """Vectorised membership test for m in [m_lo, m_hi]."""
    if line.alpha < 1:
        raise ValueError("membership characterisation needs alpha >= 1")
    m = np.arange(m_lo, m_hi + 1, dtype=np.float64)
    alpha, beta = Fraction(line.alpha), Fraction(line.beta)

    def floors(shift: int) -> np.ndarray:
        v = (line.beta - m - shift) / line.alpha
        return _certified_floor(v, _affine_guard(v), lambda i: math.floor(
            (beta - (m_lo + i) - shift) / alpha))

    return (floors(0) - floors(1)) == 1


def _solve_increasing(g, y, x_min: float):
    """x >= x_min with g(x) = y for increasing g, elementwise over y, by
    bisection down to adjacent doubles (the upper end is returned)."""
    y = np.asarray(y, dtype=np.float64)
    lo = np.full(y.shape, float(x_min))
    hi = np.maximum(lo * 2.0, 4.0)
    while np.any(short := g(hi) < y):
        hi = np.where(short, 2.0 * hi, hi)
    while True:
        mid = 0.5 * (lo + hi)
        live = (lo < mid) & (mid < hi)
        if not live.any():
            break
        below = g(mid) < y
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return float(hi) if hi.ndim == 0 else hi


class GrowthFunction:
    """Admissible amplitude function: f, f', f'' > 0 with f'' comparable on
    doubling intervals (constants c1 >= 1/2 and c2).

    Subclasses provide analytic derivatives; evaluators accept scalars or
    numpy arrays.  The inverse defaults to bisection on [X_MIN, oo).
    """

    c1: float
    c2: float
    A0: float
    delta: float
    X_MIN = 1e-9

    def f(self, x):
        raise NotImplementedError

    def df(self, x):
        raise NotImplementedError

    def d2f(self, x):
        raise NotImplementedError

    def f_inv(self, y):
        return _solve_increasing(self.f, y, self.X_MIN)

    def df_inv(self, y):
        return 1.0 / self.df(self.f_inv(y))

    def d2_sup(self, a: float, b: float) -> float:
        """sup of f'' on [a, b], by dense sampling unless overridden."""
        xs = np.linspace(a, b, 257)
        return float(np.max(self.d2f(xs)))

    def f_mp(self, x: int):
        """mpmath evaluation at the current working precision."""
        raise NotImplementedError

    def floor_exact(self, n: int) -> int:
        """floor(f(n)) with escalation to high precision near ties."""
        def settle(_) -> int:
            for dps in (50, 120):
                with mpmath.workdps(dps):
                    v = self.f_mp(n)
                    fl = mpmath.floor(v)
                    eps = mpmath.mpf(10) ** (12 - dps)
                    if eps < v - fl < 1 - eps:
                        return int(fl)
            raise ArithmeticError(f"could not certify floor(f({n})) at 120 digits")

        x = float(self.f(n))
        return _certified_floor(x, _pow_guard(x), settle)

    def floor_block(self, n_lo: int, n_hi: int) -> Iterator[np.ndarray]:
        """Stream exact floor(f(n)) in chunks; generic fallback path."""
        for lo in range(n_lo, n_hi + 1, _FLOOR_CHUNK):
            hi = min(lo + _FLOOR_CHUNK - 1, n_hi)
            yield np.array([self.floor_exact(n) for n in range(lo, hi + 1)], dtype=np.int64)

    def label(self) -> str:
        return type(self).__name__


class PowerGrowth(GrowthFunction):
    """f(x) = x**c for an exact rational exponent c > 1."""

    def __init__(self, c):
        self.c = Fraction(c)
        if self.c <= 1:
            raise ValueError("PowerGrowth needs c > 1")
        self.cf = float(self.c)
        self._spec = None
        if self.c.denominator > 1:
            self._spec = PSSpec(self.c.numerator, self.c.denominator)
        # f'' = c(c-1) x^(c-2): monotone, so doubling ratios are exact powers.
        if self.cf <= 2.0:
            self.c1, self.c2 = 2.0 ** (self.cf - 2.0), 1.0
        else:
            self.c1, self.c2 = 1.0, 2.0 ** (self.cf - 2.0)
        self.A0 = max(2.0, (1.0 / self.cf) ** (1.0 / (self.cf - 1.0)))
        self.delta = self.cf - 1.0

    def f(self, x):
        return x ** self.cf

    def df(self, x):
        return self.cf * x ** (self.cf - 1.0)

    def d2f(self, x):
        return self.cf * (self.cf - 1.0) * x ** (self.cf - 2.0)

    def f_inv(self, y):
        return y ** (1.0 / self.cf)

    def df_inv(self, y):
        return (1.0 / self.cf) * y ** (1.0 / self.cf - 1.0)

    def d2_sup(self, a: float, b: float) -> float:
        return float(max(self.d2f(a), self.d2f(b)))

    def f_mp(self, x: int):
        return mpmath.root(mpmath.mpf(int(x) ** self.c.numerator), self.c.denominator)

    def floor_exact(self, n: int) -> int:
        if self._spec is not None:
            return ps_floor(n, self._spec)
        return int(n) ** self.c.numerator

    def floor_block(self, n_lo: int, n_hi: int) -> Iterator[np.ndarray]:
        if self._spec is not None:
            return ps_block_chunks(n_lo, n_hi, self._spec)
        return super().floor_block(n_lo, n_hi)

    def label(self) -> str:
        return f"x^{self.c}"


class PowerLogGrowth(GrowthFunction):
    """f(x) = x**c * log(x)**eta on x >= 2, with eta >= 0."""

    X_MIN = 2.0

    def __init__(self, c: float, eta: float):
        if not c > 1:
            raise ValueError("needs c > 1")
        if eta < 0:
            raise ValueError("needs eta >= 0")
        self.cf = float(c)
        self.eta = float(eta)
        self.delta = self.cf - 1.0 + (0.1 if eta > 0 else 0.0)
        self._probe_doubling_constants()

    def _probe_doubling_constants(self):
        xs = np.geomspace(self.X_MIN, 2.0 ** 24, 64)
        lo, hi = np.inf, 0.0
        for x in xs:
            ys = np.linspace(x, 2 * x, 9)
            r = self.d2f(ys) / self.d2f(x)
            lo, hi = min(lo, float(r.min())), max(hi, float(r.max()))
        self.c1 = min(lo, 1.0)
        self.c2 = max(hi, 1.0)
        self.A0 = _solve_increasing(self.df, 1.0, self.X_MIN) \
            if self.df(self.X_MIN) < 1.0 else self.X_MIN

    def f(self, x):
        return x ** self.cf * np.log(x) ** self.eta

    def df(self, x):
        lx = np.log(x)
        return x ** (self.cf - 1.0) * lx ** (self.eta - 1.0) * (self.cf * lx + self.eta)

    def d2f(self, x):
        c, e = self.cf, self.eta
        lx = np.log(x)
        poly = c * (c - 1.0) * lx ** 2 + e * (2.0 * c - 1.0) * lx + e * (e - 1.0)
        return x ** (c - 2.0) * lx ** (e - 2.0) * poly

    def f_mp(self, x: int):
        return mpmath.mpf(x) ** mpmath.mpf(self.cf) * mpmath.log(x) ** self.eta

    def label(self) -> str:
        return f"x^{self.cf}*log^{self.eta}"


class SumGrowth(GrowthFunction):
    """Positive linear combination of admissible growth functions."""

    def __init__(self, terms: list[tuple[float, GrowthFunction]]):
        if not terms:
            raise ValueError("needs at least one term")
        if any(w <= 0 for w, _ in terms):
            raise ValueError("coefficients must be positive")
        self.terms = list(terms)
        self.c1 = min(g.c1 for _, g in terms)
        self.c2 = max(g.c2 for _, g in terms)
        self.A0 = max(g.A0 for _, g in terms)
        self.delta = max(g.delta for _, g in terms)

    def f(self, x):
        return sum(w * g.f(x) for w, g in self.terms)

    def df(self, x):
        return sum(w * g.df(x) for w, g in self.terms)

    def d2f(self, x):
        return sum(w * g.d2f(x) for w, g in self.terms)

    def f_mp(self, x: int):
        return mpmath.fsum(w * g.f_mp(x) for w, g in self.terms)

    def label(self) -> str:
        return " + ".join(f"{w}*{g.label()}" for w, g in self.terms)


@dataclass(frozen=True)
class TangentWindow:
    """Slope range and intercept map replacing floor(f(n)) on [a, b]:
    any alpha in [alpha_lo, alpha_hi] with beta(alpha) approximates f
    within sup|f''| * (b-a)^2 on the window."""

    a: int
    b: int
    alpha_lo: float
    alpha_hi: float
    f_a: float
    sup_d2: float
    error_bound: float

    def beta(self, alpha: float) -> float:
        return self.f_a - self.a * alpha


def tangent_window(f: GrowthFunction, a: int, b: int) -> TangentWindow:
    if not 0 < a <= b:
        raise ValueError(f"need 0 < a <= b, got ({a}, {b})")
    for x in (a, b):
        if not (f.f(x) > 0 and f.df(x) > 0 and f.d2f(x) > 0):
            raise ValueError(f"growth function not admissible at x={x}")
    m = f.d2_sup(a, b)
    return TangentWindow(a=a, b=b, alpha_lo=float(f.df(a)), alpha_hi=float(f.df(b)),
                         f_a=float(f.f(a)), sup_d2=m, error_bound=m * (b - a) ** 2)


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
    2*M*(b-a)^3 + (b-a)/R + sum_{r<=R} |sum e(n r alpha)|/r."""
    if b < a:
        raise ValueError("need a <= b")
    if b - a > 1_000_000:
        raise ValueError("window too long for exact evaluation")
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
    exp_part = 0.0
    for r in range(1, r_terms + 1):
        ph = reduced_phase_window(a + 1, span, r * alpha)
        exp_part += abs(np.sum(np.exp(2j * np.pi * ph))) / r
    d = m_bound * span ** 2
    bound = 2.0 * m_bound * span ** 3 + span / r_terms + exp_part
    return MismatchReport(a=a, b=b, alpha=alpha, beta=beta, mismatch_count=mismatches,
                          lemma_bound=bound, second_derivative_bound=m_bound, d=d,
                          r_terms=r_terms)


@dataclass(frozen=True)
class AdmissibilityReport:
    passed: bool
    violations: tuple[str, ...]
    c1_declared: float
    c2_declared: float
    c1_empirical: float
    c2_empirical: float
    constants: dict[str, float]


def check_admissible(f: GrowthFunction, x_lo: float, x_hi: float,
                     samples: int = 128) -> AdmissibilityReport:
    """Sampled admissibility audit: positivity of f, f', f'', monotone f',
    the doubling comparability of f'', and empirical constants for the
    standard growth estimates.  Never raises; failures land in the report."""
    if not 0 < x_lo < x_hi:
        raise ValueError("need 0 < x_lo < x_hi")
    if samples < 2:
        raise ValueError("need samples >= 2")
    xs = np.geomspace(x_lo, x_hi, samples)
    violations: list[str] = []
    with np.errstate(all="ignore"):
        fv, dfv, d2v = np.asarray(f.f(xs), float), np.asarray(f.df(xs), float), np.asarray(f.d2f(xs), float)
    for name, arr in (("f", fv), ("f'", dfv), ("f''", d2v)):
        bad = ~(arr > 0) | ~np.isfinite(arr)
        if bad.any():
            violations.append(f"{name} not positive at x={xs[bad][0]:.6g}")
    if np.any(np.diff(dfv) < -1e-12 * np.abs(dfv[:-1])):
        violations.append("f' is not monotone nondecreasing on the sample grid")
    if f.c1 < 0.5:
        violations.append(f"declared c1={f.c1} violates c1 >= 1/2")

    c1_emp, c2_emp = np.inf, 0.0
    if not violations:
        for x in xs[xs * 2 <= x_hi]:
            ys = np.linspace(x, 2 * x, 9)
            r = np.asarray(f.d2f(ys), float) / float(f.d2f(x))
            c1_emp = min(c1_emp, float(r.min()))
            c2_emp = max(c2_emp, float(r.max()))
        if np.isfinite(c1_emp):
            if c1_emp < f.c1 * (1 - 1e-9):
                violations.append(f"sampled doubling ratio {c1_emp:.6g} below declared c1={f.c1}")
            if c2_emp > f.c2 * (1 + 1e-9):
                violations.append(f"sampled doubling ratio {c2_emp:.6g} above declared c2={f.c2}")

    constants: dict[str, float] = {}
    if not violations:
        xd2 = xs * d2v
        # x f''(x) <~ y f''(y) for x <= y: worst prefix-max over the tail value
        constants["almost_monotone"] = float(np.max(np.maximum.accumulate(xd2) / xd2))
        constants["xd2f_over_df"] = float(np.max(xd2 / dfv))
        big = xs >= 2.0
        if big.any():
            constants["df_over_xd2f_log"] = float(np.max(dfv[big] / (xd2[big] * np.log(xs[big]))))
            constants["log_over_df"] = float(np.max(np.log(xs[big]) / dfv[big]))
            constants["df_over_x_delta"] = float(np.max(dfv[big] / xs[big] ** f.delta))
        pairs = xs[xs * 2 <= x_hi]
        if pairs.size:
            constants["doubling_df_ratio"] = float(max(f.df(2 * x) / f.df(x) for x in pairs))
            mvt1, mvt2 = [], []
            for x in pairs:
                aa = x * 1.25
                bb = x * 1.75
                mvt1.append((f.f(bb) - f.f(aa)) / (f.df(x) * (bb - aa)))
                mvt2.append((f.df(bb) - f.df(aa)) / (f.d2f(x) * (bb - aa)))
            constants["mvt1_lo"], constants["mvt1_hi"] = float(min(mvt1)), float(max(mvt1))
            constants["mvt2_lo"], constants["mvt2_hi"] = float(min(mvt2)), float(max(mvt2))

    return AdmissibilityReport(
        passed=not violations,
        violations=tuple(violations),
        c1_declared=f.c1,
        c2_declared=f.c2,
        c1_empirical=float(c1_emp) if np.isfinite(c1_emp) else float("nan"),
        c2_empirical=float(c2_emp),
        constants=constants,
    )
