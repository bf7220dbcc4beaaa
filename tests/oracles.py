"""mpmath oracles with exact phases for the Erdos-Turan, Vaaler and digit
Fourier kernels, the greedy Zeckendorf kernel that the table-driven one
replaced, the Kahan sum that the window sums used to combine their chunks with,
ps_block, the floor stream materialised as one array, the exact sum of a
digit phi over any values (residue counts and 40-digit roots of unity for
digit-exp), and the scalar forms of the Beatty estimate and the mismatch
lemma: the Thue-Morse prefix sum, the geometric-sum modulus at a Fraction
phase, and one BeattyLine per (alpha, beta) pair.

Every phase is an exact rational (the exact value of a double, or a
Fraction) reduced mod 1 before mpmath takes its exponential, so the oracles
do not inherit the phase error of the float kernels they check.
"""

import math
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
import pytest

from digitseq.digits import (digit_sum_array, fibonacci, fibonacci_index_below,
                             thue_morse_sign, thue_morse_sign_array)
from digitseq.experiments import _sup_points
from digitseq.expsums import _phase_fraction
from digitseq.sequences import BeattyLine, PowerGrowth, ps_block_chunks

needs_long_double = pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 2.0 ** -63,
    reason="np.longdouble is not the x87 extended format, so the kernels are "
           "no more accurate than a double")


def _e(phase: Fraction) -> mpmath.mpc:
    """e(phase) = exp(2 pi i phase) at mpmath's working precision."""
    phase %= 1
    return mpmath.expjpi(2 * mpmath.mpf(phase.numerator) / phase.denominator)


def et_bound(points, degree: int, dps: int = 40) -> mpmath.mpf:
    """1/(H+1) + sum_{h<=H} |mean e(h x_n)|/h for the exact doubles x_n."""
    with mpmath.workdps(dps):
        z = [_e(Fraction(float(x))) for x in points]
        powers = list(z)
        total = mpmath.mpf(1) / (degree + 1)
        for h in range(1, degree + 1):
            total += abs(mpmath.fsum(powers) / len(z)) / h
            powers = [p * w for p, w in zip(powers, z)]
        return total


def vaaler_kernels(coefficients, t, dps: int = 40) -> tuple[mpmath.mpf, mpmath.mpf]:
    """psi_H(t) = -Im sum_{h<=H} (a(h)/h) e(ht) / pi and the Fejer majorant
    kappa_H(t) = |sum_{h<=H} e(ht)|^2 / (2 (H+1)^2), for the exact doubles t
    and a(h), H = len(coefficients), from one exact phase h t mod 1 per h."""
    with mpmath.workdps(dps):
        terms = [_e(h * Fraction(float(t))) for h in range(len(coefficients) + 1)]
        psi = -mpmath.fsum(mpmath.mpf(float(a)) / h * terms[h].imag
                           for h, a in enumerate(coefficients, 1)) / mpmath.pi
        return psi, abs(mpmath.fsum(terms)) ** 2 / (2 * len(terms) ** 2)


def fourier_table(q: int, level: int, alpha, dps: int = 40) -> list[mpmath.mpc]:
    """F(h) = prod_{k=1..level} (1/q) sum_{d<q} e(d alpha - d h / q^k) for all
    h < q^level, alpha taken as its exact rational value."""
    a = Fraction(alpha)
    factors: dict[tuple[int, int], mpmath.mpc] = {}
    with mpmath.workdps(dps):
        out = []
        for h in range(q ** level):
            value = mpmath.mpc(1)
            for k in range(1, level + 1):
                r = h % q ** k
                if (k, r) not in factors:
                    factors[k, r] = mpmath.fsum(
                        _e(d * a - Fraction(d * r, q ** k)) for d in range(q)) / q
                value *= factors[k, r]
            out.append(value)
        return out


def max_abs(values: list[mpmath.mpc], dps: int = 40) -> mpmath.mpf:
    with mpmath.workdps(dps):
        return max(abs(v) for v in values)


def zeckendorf_greedy(values) -> np.ndarray:
    """s_Z by masked greedy passes over every index from the largest F_k <=
    max(values) down to F_2, with no table: after subtracting F_k the
    remainder is < F_{k-1}, so the summands are non-consecutive."""
    v = np.array(values, dtype=np.int64, copy=True)
    count = np.zeros(v.shape, dtype=np.int64)
    if v.size and int(v.max()) > 0:
        for k in range(fibonacci_index_below(int(v.max())), 1, -1):
            m = v >= fibonacci(k)
            v[m] -= fibonacci(k)
            count += m
    assert not v.any()
    return count


def kahan(values) -> complex:
    """Compensated (Kahan) sum, accumulated in the given order."""
    total = 0.0 + 0.0j
    comp = 0.0 + 0.0j
    for v in values:
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def ps_block(n_lo: int, n_hi: int, f: PowerGrowth) -> np.ndarray:
    """floor(n**c) for n in [n_lo, n_hi] as one int64 array."""
    return np.concatenate(list(ps_block_chunks(n_lo, n_hi, f)))


def thue_morse_prefix_sum(n: int) -> int:
    """T(n) = sum_{m<n} thue_morse_sign(m).  The pairs cancel, t(2i + 1) =
    -t(2i), so T(2k) = 0 and T(2k + 1) = t(2k) = t(k)."""
    if n < 0:
        raise ValueError(f"thue_morse_prefix_sum needs n >= 0, got {n}")
    return thue_morse_sign(n >> 1) if n & 1 else 0


def geometric_sum_modulus(count: int, theta) -> float:
    """|sum_{j<count} e(j theta)| = |sin(pi count theta) / sin(pi theta)|,
    and count where theta is an integer.  Each sine takes the exact distance
    of its phase to the nearest integer, through the reduced Fraction of
    theta (or the exact value of its double)."""
    def sin_pi(m: int) -> float:
        p, den = _phase_fraction(m, theta)
        return math.sin(math.pi * (min(p, den - p) / den))

    s = sin_pi(1)
    return float(count) if s == 0.0 else sin_pi(count) / s


def lemma_exp_part(span: int, alpha: float, r_terms: int) -> float:
    """sum_{r<=R} |sum_{a<n<=b} e(n r alpha)| / r, one Fraction product
    r * alpha per term, summed in order of r."""
    alpha_q = Fraction(alpha)
    total = 0.0
    for r in range(1, r_terms + 1):
        total += geometric_sum_modulus(span, r * alpha_q) / r
    return total


def exact_phi_sum(phi, m: np.ndarray) -> mpmath.mpc:
    """sum of phi over the int64 array m, exact at the working precision.  The
    real tables hold exact integers, so their float sum is exact; digit-exp:q:a/b
    counts the residues a s_q(m) mod b and weights each with its root of unity
    e(r / b) (the table rounds e(a s / b) in its phase)."""
    if np.isrealobj(phi.table):
        return mpmath.mpf(math.fsum(phi(m)))
    alpha = Fraction(phi.name.split(":")[2])
    counts = np.bincount(digit_sum_array(m, phi.q) * alpha.numerator % alpha.denominator,
                         minlength=alpha.denominator)
    roots = _roots_of_unity(alpha.denominator, mpmath.mp.dps)
    return mpmath.fsum(int(c) * roots[r] for r, c in enumerate(counts) if c)


@lru_cache
def _roots_of_unity(den: int, dps: int) -> tuple:
    with mpmath.workdps(dps):
        return tuple(_e(Fraction(r, den)) for r in range(den))


@lru_cache(maxsize=2)
def _per_line_terms(phi, f: PowerGrowth, A: int, K: int, grid: int, samples: int) -> tuple:
    """The lines of one estimate, one BeattyLine per (alpha, beta), each with
    its exact rational floors, its second-sum range and its integrand from
    one direct sum per range (no digit blocks) in Python scalar arithmetic;
    and the number of lines per slope.  The Thue-Morse values come from
    thue_morse_sign_array, the others from phi, over the whole span of the
    second ranges at once; each range then sums its own slice."""
    a_lo, a_hi = float(f.df(A)), float(f.df(2 * A))
    f_lo, f_hi = float(f.f(A)), float(f.f(2 * A))
    betas = _sup_points(f_lo, f_hi, samples, K * a_hi)
    lines = [BeattyLine(alpha=float(al), beta=b)
             for al in np.linspace(a_lo, a_hi, grid) for b in betas]
    # floor(n alpha + beta) from the exact integer ratios of the doubles
    ratios = [(line.alpha.as_integer_ratio(), line.beta.as_integer_ratio()) for line in lines]
    floors = np.array([[(n * a_num * b_den + b_num * a_den) // (a_den * b_den)
                        for n in range(1, K + 1)] for (a_num, a_den), (b_num, b_den) in ratios],
                      dtype=np.int64)
    ranges = [(math.floor(line.beta) + 1, math.floor(line.beta + K * line.alpha))
              for line in lines]
    start = min(lo for lo, _ in ranges)
    span = np.arange(start, max(hi for _, hi in ranges) + 1, dtype=np.int64)
    if phi.name == "thue-morse":  # sums of +-1 are exact in any order
        s1 = thue_morse_sign_array(floors).sum(axis=-1).astype(np.float64)
        values = thue_morse_sign_array(span).astype(np.float64)
    else:
        s1, values = np.sum(phi(floors), axis=-1), phi(span)
    terms = []
    for line, row, first, (lo, hi) in zip(lines, floors, s1.tolist(), ranges):
        second = np.add.reduce(values[lo - start:hi - start + 1]).item() if hi >= lo else 0
        terms.append((line.alpha, row, first, (lo, hi), abs(first - second / line.alpha) / K))
    return terms, len(betas)


def beatty_estimate_per_line(phi, f: PowerGrowth, A: int, K: int, grid: int, samples: int,
                             exact_s1: bool = False, exact_s2: bool = False):
    """One estimate of beatty_substitution_integral, at this grid and sample
    count, from the per-line integrands of _per_line_terms.

    With exact_s2 (and exact_s1) the second (and first) sums are
    exact_phi_sum, and the integrands, sups and average are taken at 40
    digits; the estimate is then an mpmath number.  Only the lines whose
    direct integrand lies within 1e-6 of their slope's largest take the
    exact form: a direct integrand is off by its sums' rounding, at most
    |terms| 2^-40 here, so no other line can hold the exact sup."""
    terms, per_slope = _per_line_terms(phi, f, A, K, grid, samples)
    direct = np.reshape([t[-1] for t in terms], (grid, per_slope))
    if not (exact_s1 or exact_s2):
        weights = np.ones(grid)
        weights[0] = weights[-1] = 0.5
        return float(np.dot(weights, np.max(direct, axis=1)) / weights.sum())

    def integrand(alpha, floors, s1, second, _):
        m = np.arange(second[0], second[1] + 1, dtype=np.int64)
        s1 = exact_phi_sum(phi, floors) if exact_s1 else s1
        s2 = exact_phi_sum(phi, m) if exact_s2 and m.size else 0
        return abs(s1 - s2 / mpmath.mpf(alpha)) / K

    with mpmath.workdps(40):
        best = [max(integrand(*terms[i * per_slope + j])
                    for j in np.flatnonzero(row >= row.max() - 1e-6))
                for i, row in enumerate(direct)]
        return (mpmath.fsum(best) - (best[0] + best[-1]) / 2) / (grid - 1)


def beatty_integral_per_line(phi, f: PowerGrowth, A: int, K: int, alpha_grid: int,
                             beta_samples: int) -> tuple[float, float]:
    """(value, refinement_delta) of beatty_substitution_integral from two
    beatty_estimate_per_line, the second at twice the grid and samples."""
    value = beatty_estimate_per_line(phi, f, A, K, alpha_grid, beta_samples)
    refined = beatty_estimate_per_line(phi, f, A, K, 2 * alpha_grid, 2 * beta_samples)
    return value, abs(refined - value)
