"""mpmath oracles with exact phases for the Erdos-Turan and digit Fourier
kernels, the greedy Zeckendorf kernel that the table-driven one replaced,
the Kahan sum that the window sums used to combine their chunks with,
ps_block, the floor stream materialised as one array, and the scalar forms
of the Beatty estimate and the mismatch lemma: the Thue-Morse prefix sum,
the geometric-sum modulus at a Fraction phase, and one BeattyLine per
(alpha, beta) pair.

Every phase is an exact rational (the exact value of a double, or a
Fraction) reduced mod 1 before mpmath takes its exponential, so the oracles
do not inherit the phase error of the float kernels they check.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from digitseq.digits import fibonacci, fibonacci_index_below, thue_morse_sign
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


def beatty_integral_per_line(phi, f: PowerGrowth, A: int, K: int, alpha_grid: int,
                             beta_samples: int) -> tuple[float, float]:
    """(value, refinement_delta) of beatty_substitution_integral with one
    BeattyLine per (alpha, beta): exact rational floors, one direct sum per
    range (no prefix-sum closed form), and each integrand in Python scalar
    arithmetic."""
    a_lo, a_hi = float(f.df(A)), float(f.df(2 * A))
    f_lo, f_hi = float(f.f(A)), float(f.f(2 * A))
    tm = phi.name == "thue-morse"

    def phi_sum(m: list[int]):
        if tm:  # sums of +-1 are exact in any order
            return float(sum(map(thue_morse_sign, m)))
        return complex(np.sum(np.asarray(phi(np.array(m, dtype=np.int64)),
                                         dtype=np.complex128)))

    def integrand(line: BeattyLine):
        # floor(n alpha + beta) from the exact integer ratios of the doubles
        (a_num, a_den), (b_num, b_den) = (line.alpha.as_integer_ratio(),
                                          line.beta.as_integer_ratio())
        s1 = phi_sum([(n * a_num * b_den + b_num * a_den) // (a_den * b_den)
                      for n in range(1, K + 1)])
        m_lo = math.floor(line.beta) + 1
        m_hi = math.floor(line.beta + K * line.alpha)
        s2 = phi_sum(list(range(m_lo, m_hi + 1))) if m_hi >= m_lo else 0
        return abs(s1 - s2 / line.alpha) / K

    def estimate(grid: int, samples: int) -> float:
        betas = _sup_points(f_lo, f_hi, samples, K * a_hi)
        lines = [BeattyLine(alpha=float(al), beta=b)
                 for al in np.linspace(a_lo, a_hi, grid) for b in betas]
        vals = [integrand(line) for line in lines]
        weights = np.ones(grid)
        weights[0] = weights[-1] = 0.5
        best = np.max(np.reshape(vals, (grid, len(betas))), axis=1)
        return float(np.dot(weights, best) / weights.sum())

    value = estimate(alpha_grid, beta_samples)
    return value, abs(estimate(2 * alpha_grid, 2 * beta_samples) - value)
