"""End-to-end measurable experiments.

The substitution-rule deviation, the two sup-integral estimates from the
main inequality, the inequality audit itself, and the three application
experiments (Thue-Morse density, joint two-base digit residues, Zeckendorf
residues), plus the pure exponent arithmetic of the corollary.  Each takes
its exponent c as a PowerGrowth; for an integer c the residue experiments
warn once (IntegerExponentWarning), before any worker starts.

All experiments are deterministic: sampling grids are fixed (no RNG), index
ranges are partitioned into fixed-size chunks whatever the worker count,
and floating partial results are summed exactly by math.fsum, so reports
are bit-identical run to run and whatever the worker count.
"""

from __future__ import annotations

import itertools
import math
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .digits import (
    digit_sum_array,
    thue_morse_prefix_sum_array,
    thue_morse_sign_array,
    zeckendorf_digit_sum_array,
)
from .expsums import _WINDOW_MAX, window_exp_sums
from .sequences import (
    PowerGrowth,
    beatty_floor_rows,
    ps_block_chunks,
    ps_floor,
)

__all__ = [
    "IntegerExponentWarning",
    "ArithmeticFunction",
    "PHI_FUNCTIONS",
    "resolve_phi",
    "DeviationReport",
    "IntegralEstimate",
    "Theorem1Audit",
    "TmDensityCheckpoint",
    "TmDensityReport",
    "ResidueCountReport",
    "ExponentAudit",
    "substitution_deviation",
    "window_l1_integral",
    "beatty_substitution_integral",
    "audit_theorem1",
    "tm_density_experiment",
    "joint_residue_experiment",
    "zeckendorf_residue_experiment",
    "corollary1_exponent_audit",
]

_CHUNK = 1 << 17  # fixed partition size; independent of the worker count
_F_MAX = 1 << 40  # largest floor(f(2A)) an experiment accepts
_N_MAX = 1 << 27  # largest n or x of the three applications
# Largest grid and sup sample count of an estimate.  Each estimate also runs
# at twice both, and estimate-i holds a slope and an intercept per (alpha,
# beta) pair.
_GRID_MAX = 1 << 10
_SAMPLES_MAX = 1 << 6
_MODULUS_MAX = 1 << 16  # largest residue modulus, and product of the joint moduli
_HIST_MAX = 1 << 14  # raw digit-sum histogram cells counted per chunk
_ZECK_SUM_WIDTH = 47  # s_Z <= 46 below 2^63


class IntegerExponentWarning(UserWarning):
    """The exponent c is an integer: floors are still well-defined but the
    analytic statements behind the experiments need noninteger c."""


@dataclass(frozen=True)
class ArithmeticFunction:
    """Named arithmetic function bounded by 1, vectorised over int64 arrays."""

    name: str
    func: Callable[[np.ndarray], np.ndarray]

    def __call__(self, m: np.ndarray) -> np.ndarray:
        return self.func(m)


def _phi_digit_exp(q: int, alpha: float) -> Callable[[np.ndarray], np.ndarray]:
    def func(m: np.ndarray) -> np.ndarray:
        return np.exp(2j * np.pi * ((alpha * digit_sum_array(m, q)) % 1.0))
    return func


PHI_FUNCTIONS: dict[str, ArithmeticFunction] = {
    "one": ArithmeticFunction("one", lambda m: np.ones(np.shape(m))),
    "zero": ArithmeticFunction("zero", lambda m: np.zeros(np.shape(m))),
    "thue-morse": ArithmeticFunction(
        "thue-morse", lambda m: thue_morse_sign_array(m).astype(np.float64)),
}


_TM = PHI_FUNCTIONS["thue-morse"]  # the closed forms below are selected by identity
_DROP_REL = 2.0 ** -80  # dropped Thue-Morse blocks, relative to the first weight


def resolve_phi(phi: ArithmeticFunction | str) -> ArithmeticFunction:
    """Accept an ArithmeticFunction or a registry name."""
    if isinstance(phi, ArithmeticFunction):
        return phi
    if phi in PHI_FUNCTIONS:
        return PHI_FUNCTIONS[phi]
    if phi.startswith("digit-exp:"):
        _, q, alpha = phi.split(":")
        return ArithmeticFunction(phi, _phi_digit_exp(int(q), float(Fraction(alpha))))
    raise ValueError(f"unknown arithmetic function '{phi}'")


def _check_scale(f: PowerGrowth, A: int) -> int:
    """floor(f(2A)), after the guard f(2A) <= 2^40.  Past it the deviation
    sums grow beyond desk scale, and the window starts and Beatty intercepts,
    doubles near f(A) ... f(2A), lose the unit resolution their windows need
    (a double near 10^18 is a multiple of 128)."""
    m_hi = f.floor_exact(2 * A)
    if m_hi > _F_MAX:
        raise ValueError("f(2A) beyond the experiment resource guard")
    return m_hi


def _check_window(length) -> None:
    """Window lengths z and K lie in [1, 2^16]: the estimates spend about
    length terms per grid point, so a longer window never finishes."""
    if not 1 <= length <= _WINDOW_MAX:
        raise ValueError(f"window length must lie in [1, {_WINDOW_MAX}], got {length}")


def _check_grids(grid: int, samples: int) -> None:
    """An estimate's grid lies in [2, _GRID_MAX] and its sup sample count in
    [2, _SAMPLES_MAX], checked before any point is built."""
    if not (2 <= grid <= _GRID_MAX and 2 <= samples <= _SAMPLES_MAX):
        raise ValueError(f"needs a grid in [2, {_GRID_MAX}] and sup samples in "
                         f"[2, {_SAMPLES_MAX}], got {grid} and {samples}")


def _chunk_ranges(lo: int, hi: int, size: int = _CHUNK) -> list[tuple[int, int]]:
    """Inclusive index ranges of fixed size (the last may be short)."""
    return [(a, min(a + size - 1, hi)) for a in range(lo, hi + 1, size)]


def _map_ordered(func, items: Sequence, threads: int) -> list:
    if threads <= 1 or len(items) <= 1:
        return [func(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(func, items))


def _phi_sum(phi: ArithmeticFunction, m: np.ndarray) -> np.ndarray:
    """Sums of phi over the last axis of m (one phi pass over all of m).
    The Thue-Morse sign sums in float64, where sums of +-1 are exact
    integers; any other phi sums in complex128."""
    values = np.reshape(phi(m.ravel()), m.shape)
    if phi is _TM:
        return np.sum(values, axis=-1)
    return np.sum(np.asarray(values, dtype=np.complex128), axis=-1)


# Thue-Morse weighted sums sum_{m_lo < m <= m_hi} t(m) w(m) for f(x) = x^c,
# w = (f^-1)' = y^e / c with e = 1/c - 1 in (-1, 0).
#
# Block identity.  For r < 2^k the binary digits of 2^k j and r do not
# overlap, so t(2^k j + r) = t(j) t(r); and sum_{r<2^k} t(r) z^r =
# prod_{i<k} (1 - z^(2^i)) (choosing -z^(2^i) for i in a set S gives
# r = sum_{i in S} 2^i with sign (-1)^|S| = t(r)).  With the shift
# E w(y) = w(y + 1), the aligned block at x = 2^k j is therefore
#     sum_{r<2^k} t(x + r) w(x + r) = t(j) Delta_k w(x),
#     Delta_k = prod_{i<k} (1 - E^(2^i)).
# Bound.  (1 - E^h) g(y) = -int_0^h g'(y + s) ds, so Delta_k w(x) is
# (-1)^k times the integral of w^(k)(x + s_0 + ... + s_{k-1}) over the box
# prod_i [0, 2^i], of volume 2^(k(k-1)/2).  |w^(k)(y)| = |e (e-1) ...
# (e-k+1)| y^(e-k) / c decreases in y, and |e - i| <= i + 1 for -1 < e < 0,
# so |Delta_k w(x)| <= 2^(k(k-1)/2) k! x^(e-k) / c.  The n_b blocks starting
# at x >= x_0 (the first aligned start) sum to at most n_b times the bound
# at x_0.  The smallest k whose total is at most 2^-80 w(m_lo + 1) drops its
# blocks; only the head and the tail, fewer than 2^k terms each, are summed.


def _tm_block_log2_bound(cf: float, k: int, x: int) -> float:
    """log2 of the bound 2^(k(k-1)/2) k! x^(e-k) / c on |Delta_k w(x)|."""
    e = 1.0 / cf - 1.0
    return k * (k - 1) / 2 + math.log2(math.factorial(k)) + (e - k) * math.log2(x) \
        - math.log2(cf)


def _tm_blocks(cf: float, m_lo: int, m_hi: int, k: int) -> tuple[int, int, float]:
    """The aligned 2^k blocks [first, last) inside (m_lo, m_hi] and log2 of
    the bound on their total (-inf when there is none)."""
    first = (m_lo + (1 << k)) >> k << k
    last = (m_hi + 1) >> k << k
    if last <= first:
        return first, last, -math.inf
    return first, last, math.log2((last - first) >> k) + _tm_block_log2_bound(cf, k, first)


def _tm_block_order(cf: float, m_lo: int, m_hi: int) -> int | None:
    """Smallest k whose blocks in (m_lo, m_hi] are bounded by 2^-80 w(m_lo + 1),
    or None when no k leaves a block to drop."""
    limit = math.log2(_DROP_REL) + (1.0 / cf - 1.0) * math.log2(m_lo + 1) - math.log2(cf)
    for k in range(1, (m_hi - m_lo).bit_length()):
        first, last, log2_bound = _tm_blocks(cf, m_lo, m_hi, k)
        if last <= first:
            return None
        if log2_bound <= limit:
            return k
    return None


def _tm_weighted_sum(f: PowerGrowth, m_lo: int, m_hi: int) -> float:
    """sum_{m_lo < m <= m_hi} t(m) (f^-1)'(m) with the bounded blocks dropped.
    The other terms take long-double weights from the exact exponent 1/c - 1
    and are summed exactly: each term splits into two doubles for math.fsum."""
    k = _tm_block_order(f.cf, m_lo, m_hi)
    first = last = m_hi + 1  # no block dropped: the head is the whole range
    if k is not None:
        first, last, _ = _tm_blocks(f.cf, m_lo, m_hi, k)
    inv_c = np.longdouble(f.c.denominator) / f.c.numerator

    def split_terms(rng: tuple[int, int]) -> list[float]:
        m = np.arange(rng[0], rng[1] + 1, dtype=np.int64)
        terms = thue_morse_sign_array(m) * (inv_c * m.astype(np.longdouble) ** (inv_c - 1))
        hi = terms.astype(np.float64)
        return [*hi.tolist(), *(terms - hi).astype(np.float64).tolist()]

    ranges = _chunk_ranges(m_lo + 1, first - 1) + _chunk_ranges(last, m_hi)
    return math.fsum(itertools.chain.from_iterable(map(split_terms, ranges)))


def _fsum_complex(values) -> complex:
    """The exact sum of complex (or real) values rounded once per part, in
    any order: one math.fsum of the real parts and one of the imaginary."""
    values = list(values)
    return complex(math.fsum(v.real for v in values), math.fsum(v.imag for v in values))


@dataclass(frozen=True)
class DeviationReport:
    """Normalized substitution-rule deviation at scale A: both competing
    sums evaluated exactly, difference divided by A."""

    A: int
    lhs_per_A: float
    sum1: complex
    sum2: complex
    runtime: float
    phi_name: str
    f_label: str


def substitution_deviation(phi, f: PowerGrowth, A: int, threads: int = 1) -> DeviationReport:
    """|sum_{A<n<=2A} phi(floor(f(n))) - sum_{f(A)<m<=f(2A)} phi(m) (f^-1)'(m)| / A.

    For the Thue-Morse sign t and f(x) = x^c the second sum cancels in
    aligned dyadic blocks: for x = 2^k j the block sum_{r<2^k} t(x + r)
    w(x + r) is t(j) prod_{i<k} (1 - E^(2^i)) w(x), E the unit shift, and
    with w = y^e / c, e = 1/c - 1, its modulus is at most
    2^(k(k-1)/2) k! x^(e-k) / c.  Blocks whose bounds total at most
    2^-80 w(floor(f(A)) + 1) are dropped and the remaining terms are summed
    exactly; every other phi sums term by term."""
    phi = resolve_phi(phi)
    if A < 2:
        raise ValueError("needs A >= 2")
    m_hi = _check_scale(f, A)
    start = time.perf_counter()

    def part_floors(rng: tuple[int, int]) -> list[complex]:
        return [_phi_sum(phi, arr).item() for arr in f.floor_block(rng[0], rng[1])]

    def part_weighted(rng: tuple[int, int]) -> complex:
        m = np.arange(rng[0], rng[1] + 1, dtype=np.int64)
        w = np.asarray(f.df_inv(m.astype(np.float64)), dtype=np.float64)
        return complex(np.sum(np.asarray(phi(m), dtype=np.complex128) * w))

    sum1 = _fsum_complex(itertools.chain.from_iterable(
        _map_ordered(part_floors, _chunk_ranges(A + 1, 2 * A), threads)))
    m_lo = f.floor_exact(A)
    if m_hi <= m_lo:
        sum2 = 0j
    elif phi is _TM:
        sum2 = complex(_tm_weighted_sum(f, m_lo, m_hi))
    else:
        sum2 = _fsum_complex(_map_ordered(part_weighted, _chunk_ranges(m_lo + 1, m_hi), threads))
    return DeviationReport(A=A, lhs_per_A=abs(sum1 - sum2) / A, sum1=sum1, sum2=sum2,
                           runtime=time.perf_counter() - start,
                           phi_name=phi.name, f_label=f.label())


@dataclass(frozen=True)
class IntegralEstimate:
    """Sampled sup-integral estimate.  The sup over a continuum is sampled
    (stratified grid plus adversarial points near the range ends), so the
    value is lower-bound flavoured; refinement_delta is the change under
    doubling both grids and is always reported."""

    value: float
    grid_size: int
    sup_sample_count: int
    refinement_delta: float


def _sup_points(lo: float, hi: float, count: int, margin: float) -> list[float]:
    base = [lo + (hi - lo) * (i + 0.5) / count for i in range(count)]
    adversarial = [lo + (hi - lo) * 1e-6, hi - (hi - lo) * 1e-6, hi,
                   max(lo + (hi - lo) * 1e-6, hi - margin)]
    return sorted({p for p in base + adversarial if lo < p <= hi})


def window_l1_integral(phi, f: PowerGrowth, A: int, z: float,
                       theta_grid: int = 64, x_samples: int = 8) -> IntegralEstimate:
    """Integral over theta of the sup over window starts x in (f(A), f(2A)]
    of |sum_{x<m<=x+z} phi(m) e(m theta)| / z.

    Each window start takes the whole theta grid t/G at once
    (expsums.window_exp_sums): phi once per window, the grid as rows of 2-D
    blocks of at most expsums._BLOCK_TERMS terms.  Every modulus is np.hypot
    of the one-theta sum, the value abs() gives."""
    phi = resolve_phi(phi)
    _check_window(z)
    _check_grids(theta_grid, x_samples)
    _check_scale(f, A)
    lo, hi = float(f.f(A)), float(f.f(2 * A))

    def estimate(grid: int, samples: int) -> float:
        thetas = np.arange(grid) / grid
        best = np.zeros(grid)
        for xx in _sup_points(lo, hi, samples, z):
            s = window_exp_sums(phi, xx, z, thetas)
            best = np.maximum(best, np.hypot(s.real, s.imag))
        return math.fsum(best / z) / grid

    value = estimate(theta_grid, x_samples)
    refined = estimate(2 * theta_grid, 2 * x_samples)
    return IntegralEstimate(value=value, grid_size=theta_grid,
                            sup_sample_count=len(_sup_points(lo, hi, x_samples, z)),
                            refinement_delta=abs(refined - value))


def beatty_substitution_integral(phi, f: PowerGrowth, A: int, K: int,
                                 alpha_grid: int = 32,
                                 beta_samples: int = 8) -> IntegralEstimate:
    """Average over slopes alpha in [f'(A), f'(2A)] of the sup over
    intercepts beta in (f(A), f(2A)] of
    |sum_{0<n<=K} phi(floor(n alpha + beta)) - (1/alpha) sum_{beta<m<=beta+K alpha} phi(m)| / K.

    The (alpha, beta) pairs of an estimate are two float arrays, and their
    floors come as rows of sequences.beatty_floor_rows, in blocks of at most
    _FLOOR_CHUNK floors (one row where K is larger); the first sums are one
    phi pass and a row sum per block.  For the Thue-Morse sign the second
    sums are differences of the prefix-sum closed form, and the integrand is
    array arithmetic; any other phi sums each range of its own, and each
    integrand is one complex scalar expression."""
    phi = resolve_phi(phi)
    _check_window(K)
    _check_grids(alpha_grid, beta_samples)
    _check_scale(f, A)
    a_lo, a_hi = float(f.df(A)), float(f.df(2 * A))
    f_lo, f_hi = float(f.f(A)), float(f.f(2 * A))

    def estimate(grid: int, samples: int) -> float:
        betas = _sup_points(f_lo, f_hi, samples, K * a_hi)
        alphas = np.repeat(np.linspace(a_lo, a_hi, grid), len(betas))
        betas = np.tile(betas, grid)
        s1 = np.concatenate([_phi_sum(phi, block)
                             for block in beatty_floor_rows(alphas, betas, 1, K)])
        m_lo = np.floor(betas).astype(np.int64) + 1
        m_hi = np.floor(betas + K * alphas).astype(np.int64)
        if phi is _TM:
            # T(m_hi + 1) - T(m_lo), which is 0 on an empty range m_hi = m_lo - 1
            s2 = thue_morse_prefix_sum_array(m_hi + 1) - thue_morse_prefix_sum_array(m_lo)
            vals = np.abs(s1 - s2 / alphas) / K
        else:
            def integrand(s, alpha, lo, hi):
                s2 = 0 if hi < lo else _phi_sum(phi, np.arange(lo, hi + 1, dtype=np.int64)).item()
                return abs(s - s2 / alpha) / K
            vals = np.array(list(map(integrand, s1.tolist(), alphas.tolist(), m_lo.tolist(),
                                     m_hi.tolist())))
        weights = np.ones(grid)
        weights[0] = weights[-1] = 0.5  # trapezoid average in alpha
        best = np.max(vals.reshape(grid, -1), axis=1)
        return float(np.dot(weights, best) / weights.sum())

    value = estimate(alpha_grid, beta_samples)
    refined = estimate(2 * alpha_grid, 2 * beta_samples)
    return IntegralEstimate(value=value, grid_size=alpha_grid,
                            sup_sample_count=len(_sup_points(f_lo, f_hi, beta_samples, K * a_hi)),
                            refinement_delta=abs(refined - value))


@dataclass(frozen=True)
class Theorem1Audit:
    """Deviation against the main-inequality bracket.  The inequality's
    constant is unspecified, so the meaningful check is the stability of
    ratio = lhs_per_A / bracket across scale doublings."""

    A: int
    z: float
    lhs_per_A: float
    j_value: float
    j_refinement_delta: float
    taylor_term: float
    expsum_term: float
    bracket: float
    ratio: float
    phi_name: str
    f_label: str


def audit_theorem1(phi, f: PowerGrowth, A: int, z: float,
                   theta_grid: int = 64, x_samples: int = 8,
                   threads: int = 1) -> Theorem1Audit:
    phi = resolve_phi(phi)
    _check_window(z)  # before the deviation spends its work
    _check_grids(theta_grid, x_samples)
    dev = substitution_deviation(phi, f, A, threads=threads)
    j_est = window_l1_integral(phi, f, A, z, theta_grid=theta_grid, x_samples=x_samples)
    d2, d1 = float(f.d2f(A)), float(f.df(A))
    taylor_term = d2 / d1 ** 2 * z ** 2
    expsum_term = d1 * math.log(A) ** 3 * j_est.value
    bracket = taylor_term + expsum_term
    return Theorem1Audit(A=A, z=z, lhs_per_A=dev.lhs_per_A, j_value=j_est.value,
                         j_refinement_delta=j_est.refinement_delta,
                         taylor_term=taylor_term, expsum_term=expsum_term,
                         bracket=bracket, ratio=dev.lhs_per_A / bracket if bracket else 0.0,
                         phi_name=phi.name, f_label=f.label())


@dataclass(frozen=True)
class TmDensityCheckpoint:
    m: int
    partial_sum: int
    abs_mean: float
    plus_density: float


@dataclass(frozen=True)
class TmDensityReport:
    c_num: int
    c_den: int
    n: int
    checkpoints: tuple[TmDensityCheckpoint, ...]
    decay_slope: float
    outside_proven_range: bool


def tm_density_experiment(f: PowerGrowth, n: int, checkpoints: int = 12,
                          threads: int = 1) -> TmDensityReport:
    """Thue-Morse partial sums over floor(n^c) at geometric checkpoints,
    with the +1 density and a fitted log-log decay slope."""
    if not 1 < f.cf < 2:
        raise ValueError("density experiment needs 1 < c < 2")
    if n < 1:
        raise ValueError("needs n >= 1")
    if n > _N_MAX:
        raise ValueError("n beyond the experiment resource guard")
    if checkpoints < 1:
        raise ValueError("needs checkpoints >= 1")
    # n >> k is 0 for every k >= n.bit_length(), so the marks stop there.
    marks = sorted({max(1, n >> k) for k in range(min(checkpoints, n.bit_length()))})
    boundaries = sorted({0, n, *marks, *range(0, n, _CHUNK)})
    ranges = [(boundaries[i] + 1, boundaries[i + 1]) for i in range(len(boundaries) - 1)]

    def part(rng: tuple[int, int]) -> int:
        total = 0
        for arr in ps_block_chunks(rng[0], rng[1], f):
            total += int(np.sum(thue_morse_sign_array(arr)))
        return total

    partials = _map_ordered(part, ranges, threads)
    rows = []
    running = 0
    mark_iter = iter(marks)
    mark = next(mark_iter)
    for rng, p in zip(ranges, partials):
        running += p
        if mark is not None and rng[1] == mark:
            rows.append(TmDensityCheckpoint(
                m=mark, partial_sum=running, abs_mean=abs(running) / mark,
                plus_density=(mark + running) / (2.0 * mark)))
            mark = next(mark_iter, None)
    logs = [(math.log2(r.m), math.log2(r.abs_mean)) for r in rows if r.abs_mean > 0]
    slope = float("nan")
    if len(logs) >= 2:
        xs, ys = zip(*logs)
        slope = float(np.polyfit(xs, ys, 1)[0])
    return TmDensityReport(c_num=f.c_num, c_den=f.c_den, n=n,
                           checkpoints=tuple(rows), decay_slope=slope,
                           outside_proven_range=f.cf > 1.42)


@dataclass(frozen=True)
class ResidueCountReport:
    """Exact residue-cell counts with the equidistribution reference value.
    The tolerance judgements made on these numbers are desk-scale artifact
    targets, not the asymptotic statements themselves."""

    x: int
    moduli: tuple[int, ...]
    target: tuple[int, ...]
    counts: dict[tuple[int, ...], int]
    expected: float
    max_abs_deviation: float
    normalized_deviation: float
    target_count: int


def _warn_integer_exponent(f: PowerGrowth) -> None:
    if f.c_den == 1:
        warnings.warn(f"integer exponent c = {f.c}: floor(n^c) degenerates to an integer "
                      "power", IntegerExponentWarning, stacklevel=3)


def _residue_table(f: PowerGrowth, x: int, stat: Callable[[np.ndarray], np.ndarray],
                   fold: np.ndarray, cells: int, threads: int) -> np.ndarray:
    """Counts of n <= x by the cell fold[stat(floor(n^c))] in range(cells).
    Each fixed chunk counts its statistic values 0 .. fold.size - 1 with one
    bincount, and each part folds its histogram into the cells once; the
    parts are summed in chunk order."""
    def part(rng: tuple[int, int]) -> np.ndarray:
        hist = np.zeros(fold.size, dtype=np.int64)
        for arr in ps_block_chunks(rng[0], rng[1], f):
            hist += np.bincount(stat(arr), minlength=fold.size)
        table = np.zeros(cells, dtype=np.int64)
        np.add.at(table, fold, hist)
        return table
    return sum(_map_ordered(part, _chunk_ranges(1, x), threads), np.zeros(cells, dtype=np.int64))


def _check_moduli(*moduli: int) -> None:
    """Each modulus and their product lie in [1, _MODULUS_MAX]: the report
    lists one row per residue cell."""
    if not all(1 <= m <= _MODULUS_MAX for m in moduli) or math.prod(moduli) > _MODULUS_MAX:
        raise ValueError(f"moduli and their product must lie in [1, {_MODULUS_MAX}], "
                         f"got {moduli}")


def _digit_sum_width(q: int, top: int) -> int:
    """1 + the largest base-q digit sum of 0 .. top: at most q - 1 per digit,
    and at most the value itself."""
    digits, rest = 0, top
    while rest:
        rest //= q
        digits += 1
    return min(top, (q - 1) * digits) + 1


def _residue_report(x: int, moduli: tuple[int, ...], target: tuple[int, ...],
                    table: np.ndarray) -> ResidueCountReport:
    cells = list(np.ndindex(*moduli))
    counts = {cell: int(table[cell]) for cell in cells}
    expected = x / math.prod(moduli)
    max_dev = max((abs(c - expected) for c in counts.values()), default=0.0)
    return ResidueCountReport(
        x=x, moduli=moduli, target=target, counts=counts, expected=expected,
        max_abs_deviation=max_dev,
        normalized_deviation=max_dev / x if x else 0.0,
        target_count=counts.get(target, 0))


def joint_residue_experiment(f: PowerGrowth, q1: int, q2: int, m1: int, m2: int,
                             l1: int, l2: int, x: int,
                             threads: int = 1) -> ResidueCountReport:
    """Exact counts of n <= x by the pair (s_q1(floor(n^c)) mod m1,
    s_q2(floor(n^c)) mod m2).  Coprime bases are a hard requirement; the
    digit-sum/modulus coprimality hypotheses only affect the asymptotic
    guarantee, so their violation is a warning, not a failure."""
    if math.gcd(q1, q2) != 1:
        raise ValueError(f"hypothesis gcd(q1, q2) = 1 fails: gcd = {math.gcd(q1, q2)}")
    if min(q1, q2) < 2 or x < 0:
        raise ValueError("needs q1, q2 >= 2, x >= 0")
    _check_moduli(m1, m2)
    if x > _N_MAX:
        raise ValueError("x beyond the experiment resource guard")
    for name, (u, v) in (("(m1, q1 - 1)", (m1, q1 - 1)), ("(m2, q2 - 1)", (m2, q2 - 1))):
        if math.gcd(u, v) != 1:
            warnings.warn(f"hypothesis gcd{name} = 1 fails (gcd = {math.gcd(u, v)}); "
                          "equidistribution is no longer guaranteed", UserWarning,
                          stacklevel=2)
    _warn_integer_exponent(f)
    top = min(ps_floor(x, f), 1 << 62) if x else 0  # larger floors fail in the stream
    w1, w2 = _digit_sum_width(q1, top), _digit_sum_width(q2, top)
    # The raw pairs (s1, s2) are counted while they fit _HIST_MAX cells; past
    # that, each digit sum wider than its modulus is reduced before counting,
    # which leaves at most m1 m2 cells.  r1, r2 = 0 leave a sum raw.
    r1 = r2 = 0
    if w1 * w2 > _HIST_MAX:
        r1, r2 = m1 * (w1 > m1), m2 * (w2 > m2)
        w1, w2 = min(w1, m1), min(w2, m2)

    def stat(arr: np.ndarray) -> np.ndarray:
        s1, s2 = digit_sum_array(arr, q1), digit_sum_array(arr, q2)
        if r1:
            s1 %= r1
        if r2:
            s2 %= r2
        s1 *= w2
        s1 += s2
        return s1

    fold = (np.arange(w1)[:, None] % m1 * m2 + np.arange(w2) % m2).ravel()
    table = _residue_table(f, x, stat, fold, m1 * m2, threads)
    return _residue_report(x, (m1, m2), (l1 % m1, l2 % m2), table.reshape(m1, m2))


def zeckendorf_residue_experiment(f: PowerGrowth, m: int, a: int, x: int,
                                  threads: int = 1) -> ResidueCountReport:
    """Exact counts of n <= x by s_Z(floor(n^c)) mod m."""
    _check_moduli(m)
    if x < 0:
        raise ValueError("needs x >= 0")
    if x > _N_MAX:
        raise ValueError("x beyond the experiment resource guard")
    _warn_integer_exponent(f)
    fold = np.arange(_ZECK_SUM_WIDTH) % m
    table = _residue_table(f, x, zeckendorf_digit_sum_array, fold, m, threads)
    return _residue_report(x, (m,), (a % m,), table)


@dataclass(frozen=True)
class ExponentAudit:
    """Exact exponent arithmetic for the substitution-rule corollary:
    eta_max = (2 - (a+1) c) / (3 - a) against the reference (7 - 5c)/9.

    Accepted ranges are 0 < a <= 1 and 1 < c < 2. eta_max > 0 exactly when
    c < 2/(1+a), so the endpoint a = 1 admits no c (eta_max = 1 - c < 0).
    With a = 0.4076 the bound is 2/(1+a) = 1.42086..., which gives the
    paper's Thue-Morse range 1 < c <= 1.42."""

    a: Fraction
    c: Fraction
    eta_max: Fraction
    reference: Fraction
    validity: bool


def corollary1_exponent_audit(a, c) -> ExponentAudit:
    a = Fraction(a)
    c = Fraction(c)
    if not 0 < a <= 1:
        raise ValueError("needs 0 < a <= 1")
    if not 1 < c < 2:
        raise ValueError("needs 1 < c < 2")
    eta_max = (2 - (a + 1) * c) / (3 - a)
    reference = (7 - 5 * c) / 9
    validity = eta_max > max(Fraction(0), reference)
    return ExponentAudit(a=a, c=c, eta_max=eta_max, reference=reference, validity=validity)
