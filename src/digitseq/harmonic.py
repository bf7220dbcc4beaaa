"""Sawtooth machinery and discrepancy bounds.

The Vaaler trigonometric approximation of the sawtooth with its Fejer-type
majorant, the constant-1 Erdos-Turan discrepancy inequality with an exact
sorted-points discrepancy, and the two small integral lemmas (the min-kernel
integral and the summation range extension) as verifiable numeric checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_GATE_GRID = 4096  # points of the Vaaler construction gate
_EXTENSION_GRID = 2048  # first trapezoid grid of range_extension_check
_MAX_DOUBLINGS = 4  # refinements of that grid

__all__ = [
    "VaalerApprox",
    "sawtooth",
    "build_vaaler_approx",
    "vaaler_psi_h",
    "fejer_majorant",
    "erdos_turan_bound",
    "exact_discrepancy",
    "min_kernel_integral_check",
    "range_extension_check",
]


def sawtooth(x) -> float:
    """psi(x) = {x} - 1/2, 1-periodic, valued in [-1/2, 1/2)."""
    x = np.asarray(x, dtype=np.float64)
    out = (x - np.floor(x)) - 0.5
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class VaalerApprox:
    """Degree-H trigonometric approximation of the sawtooth; coefficients
    a(h) in [0,1], even in h.  Construction is gated by the defining
    inequality |psi - psi_H| <= kappa_H on a dense grid."""

    degree: int
    coefficients: np.ndarray  # a(1..H)


def _vaaler_coefficients(degree: int) -> np.ndarray:
    n = degree + 1
    h = np.arange(1, degree + 1, dtype=np.float64)
    t = h / n
    a = np.pi * t * (1.0 - t) / np.tan(np.pi * t) + t
    return np.clip(a, 0.0, 1.0)


def vaaler_psi_h(approx: VaalerApprox, t) -> float:
    """psi_H(t) = -(1/pi) sum_{h<=H} a(h)/h sin(2 pi h t) (the conjugate-
    symmetric form of the two-sided coefficient sum)."""
    t = np.asarray(t, dtype=np.float64)
    h = np.arange(1, approx.degree + 1, dtype=np.float64)
    weights = approx.coefficients / h
    out = -(np.sin(2.0 * np.pi * np.multiply.outer(t, h)) @ weights) / np.pi
    return float(out) if out.ndim == 0 else out


def fejer_majorant(degree: int, t) -> float:
    """kappa_H(t) = |sum_{h<=H} e(ht)|^2 / (2 (H+1)^2) >= 0 (Fejer form)."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    t = np.asarray(t, dtype=np.float64)
    n = degree + 1
    h = np.arange(n, dtype=np.float64)
    s = np.exp(2j * np.pi * np.multiply.outer(t, h)).sum(axis=-1)
    out = np.abs(s) ** 2 / (2.0 * n * n)
    return float(out) if out.ndim == 0 else out


def build_vaaler_approx(degree: int) -> VaalerApprox:
    """Standard sawtooth-approximation coefficients a(h) = pi t (1-t) cot(pi t) + t
    at t = h/(H+1), clamped to [0,1].  Fails loudly if the defining
    inequality is violated anywhere on the gate grid."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    approx = VaalerApprox(degree=degree, coefficients=_vaaler_coefficients(degree))
    ts = (np.arange(_GATE_GRID) + 0.318) / _GATE_GRID  # irrational-ish offset avoids atypical lattice points
    err = np.abs(sawtooth(ts) - vaaler_psi_h(approx, ts))
    kappa = fejer_majorant(degree, ts)
    worst = float(np.max(err - kappa))
    if worst > 1e-12:
        raise RuntimeError(f"sawtooth approximation gate failed at degree {degree}: "
                           f"excess {worst:.3e}")
    return approx


def exact_discrepancy(points) -> float:
    """Two-sided discrepancy sup over closed intervals [r, s] in [0, 1) of
    |#{x_n in [r,s]}/N - (s - r)|, computed exactly from the sorted points."""
    x = np.sort(np.asarray(points, dtype=np.float64))
    n = x.size
    if n == 0:
        raise ValueError("needs at least one point")
    if x[0] < 0.0 or x[-1] >= 1.0:
        raise ValueError("points must lie in [0, 1)")
    i = np.arange(1, n + 1, dtype=np.float64)
    # Overfull closed intervals [x_(i), x_(j)]: count (j-i+1)/n vs length.
    g_hi = i / n - x
    g_lo = (i - 1.0) / n - x
    plus = float(np.max(g_hi - np.minimum.accumulate(g_lo)))
    # Underfull open gaps: sup over intervals pinched between points.
    y = np.concatenate(([0.0], x, [1.0]))
    b = y - np.arange(n + 2, dtype=np.float64) / n
    minus = float(np.max(b[1:] - np.minimum.accumulate(b)[:-1])) + 1.0 / n
    return max(plus, minus, 0.0)


def erdos_turan_bound(points, degree: int) -> float:
    """Constant-1 Erdos-Turan bound 1/(H+1) + sum_{h<=H} |mean e(h x_n)|/h;
    dominates the exact closed-interval discrepancy."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    x = np.asarray(points, dtype=np.float64)
    if x.size == 0:
        raise ValueError("needs at least one point")
    h = np.arange(1, degree + 1, dtype=np.float64)
    means = np.abs(np.exp(2j * np.pi * np.multiply.outer(h, x)).mean(axis=1))
    return 1.0 / (degree + 1) + float(np.sum(means / h))


def _min_kernel_antiderivative(t: float, b_cap: float) -> float:
    # int_0^t min(B, ||x||^-1) dx for t in [0, 1].
    per = 2.0 * (1.0 + math.log(b_cap / 2.0))

    def half(u: float) -> float:  # u in [0, 1/2]
        if u <= 1.0 / b_cap:
            return b_cap * u
        return 1.0 + math.log(b_cap * u)

    if t <= 0.5:
        return half(t)
    return per - half(1.0 - t)


def min_kernel_integral_check(a: float, b: float, b_cap: float) -> tuple[float, float]:
    """Closed-form integral of min(B, ||x||^-1) over [a, b] together with
    the bound 2 (b - a + 1)(1 + log B); the integral never exceeds it."""
    if b < a:
        raise ValueError("need a <= b")
    if b_cap < 2:
        raise ValueError("need B >= 2")
    per = 2.0 * (1.0 + math.log(b_cap / 2.0))

    def cumulative(x: float) -> float:
        fl = math.floor(x)
        return fl * per + _min_kernel_antiderivative(x - fl, b_cap)

    integral = cumulative(b) - cumulative(a)
    bound = 2.0 * (b - a + 1.0) * (1.0 + math.log(b_cap))
    return integral, bound


def range_extension_check(coefficients, x: float, y: float, z: float) -> tuple[float, float]:
    """Partial-sum bound |sum_{x<n<=y} a_n| <=
    int_0^1 min(y-x+1, ||xi||^-1) |sum_{x<n<=z} a_n e(n xi)| d xi,
    the right side by trapezoid quadrature refined until stable.  At
    xi = (k+1/2)/res the inner sum is one inverse DFT of a_j e(j/(2 res)),
    j = n - n_lo, folded by j mod res (the phase index j mod 2 res is exact)."""
    if not x <= y <= z:
        raise ValueError("need x <= y <= z")
    coefs = np.asarray(coefficients, dtype=np.complex128)
    n_lo = math.floor(x) + 1
    n_hi = math.floor(z)
    if coefs.size != max(0, n_hi - n_lo + 1):
        raise ValueError("coefficient count must match the integer window (x, z]")
    if coefs.size == 0:
        return 0.0, 0.0
    m = math.floor(y) - math.floor(x)
    lhs = float(abs(coefs[:m].sum()))
    j = np.arange(coefs.size)
    cap = y - x + 1.0

    def quad(res: int) -> float:
        xi = (np.arange(res) + 0.5) / res
        kernel = np.minimum(cap, 1.0 / np.minimum(xi, 1.0 - xi))
        shifted = coefs * np.exp(1j * np.pi * (j % (2 * res)) / res)
        folded = np.pad(shifted, (0, -j.size % res)).reshape(-1, res).sum(axis=0)
        inner = res * np.abs(np.fft.ifft(folded))
        return float(np.mean(kernel * inner))

    rhs = quad(_EXTENSION_GRID)
    for doubling in range(1, _MAX_DOUBLINGS + 1):
        prev, rhs = rhs, quad(_EXTENSION_GRID << doubling)
        if abs(rhs - prev) < 1e-9 * max(1.0, abs(rhs)):
            break
    return lhs, rhs
