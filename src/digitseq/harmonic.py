"""Sawtooth machinery and discrepancy bounds.

The Vaaler trigonometric approximation of the sawtooth with its Fejer-type
majorant, the constant-1 Erdos-Turan discrepancy inequality with an exact
sorted-points discrepancy.

The Erdos-Turan bound is summed in long double from the exact phases of the
points and rounded to double once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expsums import _e_long_double

_GATE_GRID = 4096  # points of the Vaaler construction gate
_DEGREE_MAX = 1 << 10  # largest degree H: the gate holds 4096 x (H + 1) complex values
_ET_ROWS = 16  # rows h of the Erdos-Turan sums held at once

__all__ = [
    "VaalerApprox",
    "sawtooth",
    "build_vaaler_approx",
    "vaaler_psi_h",
    "fejer_majorant",
    "erdos_turan_bound",
    "exact_discrepancy",
]


def _check_degree(degree: int) -> None:
    """1 <= H <= 2^10, checked before anything is allocated."""
    if not 1 <= degree <= _DEGREE_MAX:
        raise ValueError(f"degree must lie in [1, {_DEGREE_MAX}], got {degree}")


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
    _check_degree(degree)
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
    _check_degree(degree)
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
    dominates the exact closed-interval discrepancy.

    Runs in long double.  z_n = e(x_n) is taken once, from x_n mod 1, which
    fmod takes exactly from each double; e(h x_n) = z_n^h comes from
    cumulative products, _ET_ROWS rows of h at a time, each block carried
    forward by its last row, so the H x N matrix is never formed.  Row means
    are pairwise sums, and the whole bound is accumulated in long double and
    rounded to double once."""
    _check_degree(degree)
    x = np.asarray(points, dtype=np.float64).ravel()
    if x.size == 0:
        raise ValueError("needs at least one point")
    z = _e_long_double(np.fmod(x, 1.0))
    powers = np.cumprod(np.broadcast_to(z, (min(degree, _ET_ROWS), z.size)), axis=0)
    total = np.longdouble(1) / (degree + 1)
    block = powers
    for h0 in range(0, degree, _ET_ROWS):
        if h0:
            block = powers * block[-1]
        means = np.abs(block[:degree - h0].mean(axis=1))
        total += np.sum(means / np.arange(h0 + 1, h0 + 1 + means.size))
    return float(total)
