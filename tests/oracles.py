"""mpmath oracles with exact phases for the Erdos-Turan and digit Fourier
kernels, and the greedy Zeckendorf kernel that the table-driven one replaced.

Every phase is an exact rational (the exact value of a double, or a
Fraction) reduced mod 1 before mpmath takes its exponential, so the oracles
do not inherit the phase error of the float kernels they check.
"""

from fractions import Fraction

import mpmath
import numpy as np
import pytest

from digitseq.digits import fibonacci, fibonacci_index_below

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
