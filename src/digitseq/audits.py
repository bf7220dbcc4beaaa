"""Randomized and exhaustive audit sweeps used by the command-line surface.

Each audit replays a proven inequality over a deterministic (seeded or
exhaustive) configuration sweep and reports per-configuration rows plus a
violation count, so a nonzero count can map to a failing exit status.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expsums import _check_fourier_table, digit_fourier_table
from .harmonic import _check_degree, build_vaaler_approx, erdos_turan_bound, \
    exact_discrepancy, fejer_majorant, sawtooth, vaaler_psi_h
from .sequences import BeattyLine, beatty_floor_range

_MAX_POINTS = 1 << 16  # largest point set of et_audit: 16 x N long-double powers at once
_ALPHA_GRID_MAX = 1 << 12  # alpha grid of fourier_bound_audit
_SETS_MAX = 1 << 16  # point sets of et_audit
_Q_LIST_MAX = 1 << 6  # bases of fourier_bound_audit, each a full level and alpha sweep
_H_LIST_MAX = 1 << 6  # degrees of vaaler_audit, each a construction gate and a grid sweep
# grid x (H + 1) Horner steps of psi_H that vaaler_audit takes per degree: as
# many as the construction gate takes at the largest degree, 4096 x 1024.
_VAALER_CELLS_MAX = 1 << 22
# Coefficients of one block of alphas in fourier_bound_audit's top-level
# table, a few L2-sized long-double arrays like sequences._FLOOR_CHUNK.
_FOURIER_BLOCK = 1 << 14
# Long-double steps of fourier_bound_audit over all bases and alphas: level
# k >= 1 of a table takes q passes over its q^k entries (q - 1 Horner steps
# and the product), at 15-20 ns per step, and each row with its summaries
# and its report line costs about 10 us, counted as _ROW_STEPS.  2^25 steps
# take about a second; one base-2 table at the 2^22-coefficient guard takes 2^24.
_ROW_STEPS = 1 << 9
_FOURIER_STEPS_MAX = 1 << 25


def _fourier_steps(q: int, level_max: int) -> int:
    """Steps of one (q, alpha) table chain and its rows, for a level_max
    within the table guard."""
    return sum(q ** (k + 1) for k in range(1, level_max + 1)) + (level_max + 1) * _ROW_STEPS


__all__ = [
    "FourierAuditRow",
    "VaalerAuditRow",
    "EtAuditRow",
    "fourier_bound_audit",
    "vaaler_audit",
    "et_audit",
]


@dataclass(frozen=True)
class FourierAuditRow:
    q: int
    level: int
    alpha: float
    max_abs_coeff: float
    uniform_bound: float
    parseval_error: float
    violations: int


def fourier_bound_audit(q_list: tuple[int, ...], level_max: int,
                        alpha_grid: int) -> list[FourierAuditRow]:
    """Exhaustive check of the uniform coefficient bound and Parseval over
    all h, for every base, level <= level_max and a uniform alpha grid.

    Every guard is checked first: the table guard of each base, then an
    alpha grid within _ALPHA_GRID_MAX and the _FOURIER_STEPS_MAX work limit.
    Each base's grid then goes in blocks of at most _FOURIER_BLOCK
    coefficients (at least one alpha): one digit_fourier_table call per
    block at level_max, whose chain holds the tables of every lower level
    with one row per alpha.  One chain is held at a time, and the rows come
    out in (q, level, alpha) order."""
    if level_max < 0:
        raise ValueError(f"needs level_max >= 0, got {level_max}")
    if len(q_list) > _Q_LIST_MAX:
        raise ValueError(f"at most {_Q_LIST_MAX} bases, got {len(q_list)}")
    for q in q_list:
        _check_fourier_table(q, level_max)
    steps = sum(_fourier_steps(q, level_max) for q in q_list)
    grid_max = min(_ALPHA_GRID_MAX, _FOURIER_STEPS_MAX // max(steps, 1))
    if not 1 <= alpha_grid <= grid_max:
        raise ValueError(f"needs 1 <= alpha_grid <= {grid_max} at level {level_max} for "
                         f"these bases: at most {_ALPHA_GRID_MAX} alphas and "
                         f"{_FOURIER_STEPS_MAX} table steps, {steps} per alpha")
    rows = []
    for q in q_list:
        by_level = [[] for _ in range(level_max + 1)]
        block = max(1, _FOURIER_BLOCK // q ** level_max)
        for lo in range(0, alpha_grid, block):
            alphas = np.arange(lo, min(lo + block, alpha_grid)) / alpha_grid
            for table in digit_fourier_table(q, level_max, alphas).chain():
                by_level[table.level] += [FourierAuditRow(q, table.level, *row) for row in zip(
                    alphas.tolist(), table.max_abs_coeff().tolist(),
                    table.uniform_bound().tolist(), table.parseval_error().tolist(),
                    table.bound_violations().tolist())]
        for level_rows in by_level:
            rows += level_rows
    return rows


@dataclass(frozen=True)
class VaalerAuditRow:
    degree: int
    grid: int
    max_excess: float  # max of |psi - psi_H| - kappa_H over the grid
    min_kappa: float
    coeff_min: float
    coeff_max: float


def vaaler_audit(degrees: tuple[int, ...], grid: int = 10000) -> list[VaalerAuditRow]:
    """Grid check of the defining sawtooth inequality and of the majorant's
    nonnegativity for each requested degree."""
    if len(degrees) > _H_LIST_MAX:
        raise ValueError(f"at most {_H_LIST_MAX} degrees, got {len(degrees)}")
    for degree in degrees:
        _check_degree(degree)
    degree_max = max(degrees, default=0)
    grid_max = _VAALER_CELLS_MAX // (degree_max + 1)
    if not 2 <= grid <= grid_max:
        raise ValueError(f"needs 2 <= grid <= {grid_max} at degree {degree_max}")
    rows = []
    ts = np.arange(grid, dtype=np.float64) / grid
    for degree in degrees:
        approx = build_vaaler_approx(degree)
        err = np.abs(sawtooth(ts) - vaaler_psi_h(approx, ts))
        kappa = fejer_majorant(degree, ts)
        rows.append(VaalerAuditRow(
            degree=degree, grid=grid,
            max_excess=float(np.max(err - kappa)),
            min_kappa=float(np.min(kappa)),
            coeff_min=float(np.min(approx.coefficients)),
            coeff_max=float(np.max(approx.coefficients))))
    return rows


@dataclass(frozen=True)
class EtAuditRow:
    index: int
    kind: str
    n_points: int
    degree: int
    discrepancy: float
    bound: float
    ok: bool


def et_audit(sets: int = 1000, degree: int = 64, seed: int = 0,
             max_points: int = 2000) -> list[EtAuditRow]:
    """Exact discrepancy against the constant-1 bound on seeded point sets:
    uniform draws, clustered draws, and Beatty-line fractional orbits."""
    if not 1 <= sets <= _SETS_MAX or not 3 <= max_points <= _MAX_POINTS:
        raise ValueError(f"needs 1 <= sets <= {_SETS_MAX} and 3 <= max_points <= {_MAX_POINTS}")
    _check_degree(degree)
    rng = np.random.default_rng(seed)
    rows = []
    kinds = ("uniform", "clustered", "beatty")
    for i in range(sets):
        kind = kinds[i % 3]
        n = int(rng.integers(2, max_points))
        if kind == "uniform":
            pts = rng.random(n)
        elif kind == "clustered":
            centre = rng.random()
            pts = (rng.normal(centre, 0.05, n)) % 1.0
        else:
            alpha = 1.0 + 9.0 * rng.random()
            beta = rng.uniform(0.0, 10.0)
            line = BeattyLine(alpha, beta)
            hits = beatty_floor_range(line, 1, n)
            pts = (hits * (0.5 * (5 ** 0.5) - 0.5)) % 1.0
        pts = np.clip(pts, 0.0, np.nextafter(1.0, 0.0))
        disc = exact_discrepancy(pts)
        bound = erdos_turan_bound(pts, degree)
        rows.append(EtAuditRow(index=i, kind=kind, n_points=n, degree=degree,
                               discrepancy=disc, bound=bound, ok=disc <= bound + 1e-12))
    return rows
