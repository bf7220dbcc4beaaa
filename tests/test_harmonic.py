"""Sawtooth approximation and the discrepancy bound."""

import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

import oracles
from digitseq import audits
from digitseq import (
    BeattyLine,
    beatty_floor_range,
    build_vaaler_approx,
    erdos_turan_bound,
    exact_discrepancy,
    fejer_majorant,
    sawtooth,
    vaaler_psi_h,
)


def test_sawtooth_values_and_periodicity():
    assert sawtooth(0.0) == -0.5
    assert sawtooth(0.75) == pytest.approx(0.25)
    assert sawtooth(-0.25) == pytest.approx(0.25)
    xs = np.linspace(-3, 3, 601)
    assert np.allclose(sawtooth(xs), sawtooth(xs + 7.0))
    assert np.all(sawtooth(xs) >= -0.5) and np.all(sawtooth(xs) < 0.5)


def test_vaaler_coefficient_endpoint():
    approx = build_vaaler_approx(1)
    assert approx.coefficients[0] == pytest.approx(0.5)  # pi/4 * cot(pi/2) + 1/2


def test_vaaler_coefficients_in_unit_interval():
    for degree in (1, 3, 10, 64, 200):
        a = build_vaaler_approx(degree).coefficients
        assert np.all(a >= 0.0) and np.all(a <= 1.0)


def test_vaaler_defining_inequality_on_grid():
    ts = np.arange(10_000) / 10_000
    for degree in (1, 5, 10, 50, 200):
        approx = build_vaaler_approx(degree)
        err = np.abs(sawtooth(ts) - vaaler_psi_h(approx, ts))
        kappa = fejer_majorant(degree, ts)
        assert np.max(err - kappa) <= 1e-12
        assert np.min(kappa) >= -1e-12


def test_vaaler_build_gate_rejects_broken_coefficients():
    approx = build_vaaler_approx(8)
    bad = type(approx)(degree=8, coefficients=approx.coefficients * 0.2)
    ts = np.arange(2048) / 2048
    err = np.abs(sawtooth(ts) - vaaler_psi_h(bad, ts))
    assert np.max(err - fejer_majorant(8, ts)) > 1e-3  # the gate has teeth


def test_psi_h_symmetry_points():
    approx = build_vaaler_approx(9)
    assert vaaler_psi_h(approx, 0.0) == pytest.approx(0.0, abs=1e-14)
    assert vaaler_psi_h(approx, 0.5) == pytest.approx(0.0, abs=1e-12)
    one = build_vaaler_approx(1)
    assert vaaler_psi_h(one, 0.25) == pytest.approx(-0.5 / math.pi)


def test_fejer_majorant_values():
    for degree in (1, 7, 33):
        assert fejer_majorant(degree, 0.0) == pytest.approx(0.5)
    assert fejer_majorant(1, 0.5) == pytest.approx(0.0, abs=1e-15)
    # integral over a period keeps only the constant term
    ts = (np.arange(20_000) + 0.5) / 20_000
    for degree in (3, 12):
        integral = float(np.mean(fejer_majorant(degree, ts)))
        assert integral == pytest.approx(1 / (2 * degree + 2), rel=1e-6)
    # weighted-sum form agrees with the squared-magnitude form
    h = np.arange(-12, 13)
    w = 1 - np.abs(h) / 13
    for t in (0.1, 0.37, 0.925):
        direct = np.sum(w * np.exp(2j * np.pi * h * t)).real / 26
        assert fejer_majorant(12, t) == pytest.approx(direct, abs=1e-12)


# Negatives, 0, +-1/2, integers, 2^-40 and doubles next to integers and to
# 1/2, where a phase 2 pi h t taken in double loses the most, then seeded
# points in [-8, 8).
_VAALER_POINTS = [0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -3.0, 2.0 ** -40, -2.0 ** -40, 1 - 2.0 ** -53,
                  1 + 2.0 ** -52, -1 + 2.0 ** -53, 7 - 2.0 ** -50, 0.5 + 2.0 ** -40, 0.25, -0.75,
                  *np.random.default_rng(24).uniform(-8.0, 8.0, 40)]


@oracles.needs_long_double
@pytest.mark.parametrize("degree", [1, 5, 64, 1024])
def test_vaaler_kernels_match_an_exact_phase_oracle(degree):
    approx = build_vaaler_approx(degree)
    psi, kappa = (vaaler_psi_h(approx, _VAALER_POINTS), fejer_majorant(degree, _VAALER_POINTS))
    for t, got_psi, got_kappa in zip(_VAALER_POINTS, psi, kappa):
        exact_psi, exact_kappa = oracles.vaaler_kernels(approx.coefficients, t)
        assert abs(got_psi - exact_psi) <= 1e-16, (t, got_psi)
        assert abs(got_kappa - exact_kappa) <= 1e-16, (t, got_kappa)
        # The scalar form is the same computation.
        assert (vaaler_psi_h(approx, t), fejer_majorant(degree, t)) == (got_psi, got_kappa)


def test_vaaler_kernels_are_exact_at_their_zeros():
    assert fejer_majorant(1, 0.5) == 0.0
    for degree in (3, 7, 63):
        assert np.all(fejer_majorant(degree, np.arange(1, degree + 1) / (degree + 1)) == 0.0)
        assert np.all(fejer_majorant(degree, np.array([-2.0, 0.0, 1.0, 5.0])) == 0.5)
        approx = build_vaaler_approx(degree)
        assert np.all(vaaler_psi_h(approx, np.array([-1.5, -1.0, 0.0, 0.5, 3.0])) == 0.0)


def test_vaaler_audit_and_gate_hold_no_grid_by_degree_array():
    # A grid x (H + 1) complex128 array at H = 1023, grid 4096 is 64 MB.
    for run in (lambda: audits.vaaler_audit((1, 1023), grid=4096),
                lambda: build_vaaler_approx(1024)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20, peak


def _brute_discrepancy(pts):
    pts = sorted(pts)
    n = len(pts)
    best = 0.0
    for r, s in itertools.product(pts, repeat=2):
        if r <= s:
            cnt = sum(1 for p in pts if r <= p <= s)
            best = max(best, cnt / n - (s - r))
    ys = [0.0] + pts + [1.0]
    for i, j in itertools.combinations(range(len(ys)), 2):
        cnt = sum(1 for p in pts if ys[i] < p < ys[j])
        best = max(best, (ys[j] - ys[i]) - cnt / n)
    return best


def test_exact_discrepancy_matches_brute_force():
    rng = np.random.default_rng(14)
    for trial in range(300):
        n = int(rng.integers(1, 28))
        if trial % 3 == 0:
            pts = rng.random(n)
        elif trial % 3 == 1:
            pts = np.clip(rng.normal(0.5, 0.07, n) % 1.0, 0.0, 0.999999)
        else:
            pts = (np.round(rng.random(n) * 8) / 8) % 1.0
        assert exact_discrepancy(pts) == pytest.approx(_brute_discrepancy(list(pts)), abs=1e-12)


def test_exact_discrepancy_edge_cases():
    assert exact_discrepancy([0.0]) == pytest.approx(1.0)
    grid = np.arange(100) / 100
    assert exact_discrepancy(grid) == pytest.approx(1 / 100)
    with pytest.raises(ValueError):
        exact_discrepancy([])
    with pytest.raises(ValueError):
        exact_discrepancy([1.0])


def test_erdos_turan_examples():
    n = 256
    grid = np.arange(n) / n
    bound = erdos_turan_bound(grid, n)
    assert exact_discrepancy(grid) == pytest.approx(1 / n)
    assert 1 / n <= bound
    # degenerate cluster: discrepancy 1, bound stays >= 1 - 1/(H+1)
    pts = np.full(50, 0.37)
    assert exact_discrepancy(pts) == pytest.approx(1.0)
    assert erdos_turan_bound(pts, 30) >= 1 - 1 / 31
    # golden-ratio orbit
    golden = (5 ** 0.5 - 1) / 2
    orbit = (np.arange(1, 10_001) * golden) % 1.0
    assert exact_discrepancy(orbit) <= erdos_turan_bound(orbit, 100)


def test_erdos_turan_dominates_on_random_suites():
    rng = np.random.default_rng(15)
    for trial in range(300):
        kind = trial % 3
        n = int(rng.integers(2, 800))
        if kind == 0:
            pts = rng.random(n)
        elif kind == 1:
            pts = rng.normal(rng.random(), 0.04, n) % 1.0
        else:
            line = BeattyLine(1.0 + 9 * rng.random(), 10 * rng.random())
            pts = (beatty_floor_range(line, 1, n) * ((5 ** 0.5 - 1) / 2)) % 1.0
        pts = np.clip(pts, 0.0, np.nextafter(1.0, 0.0))
        degree = int(rng.integers(1, 80))
        assert exact_discrepancy(pts) <= erdos_turan_bound(pts, degree) + 1e-12


@oracles.needs_long_double
def test_erdos_turan_bound_is_correctly_rounded():
    rng = np.random.default_rng(16)
    for trial in range(21):
        n = int(rng.integers(1, 300))
        # uniform draws, a Kronecker orbit, and points outside [0, 1)
        pts = (rng.random(n), (np.arange(1, n + 1) * rng.random()) % 1.0,
               rng.uniform(-1000.0, 1000.0, n))[trial % 3]
        degree = int(rng.integers(1, 70))
        assert erdos_turan_bound(pts, degree) == float(oracles.et_bound(pts, degree))


def _within_one_ulp(value: float, exact) -> bool:
    with mpmath.workdps(40):
        return abs(mpmath.mpf(value) - exact) < np.spacing(float(exact))


@oracles.needs_long_double
def test_erdos_turan_bound_past_the_first_block_is_faithful():
    # H > 16 sums the later blocks as products with z^h0; N and H as large
    # as the workloads' sets.
    rng = np.random.default_rng(17)
    cases = ((rng.random(1000), 40),
             ((np.arange(1, 1501) * ((5 ** 0.5 - 1) / 2)) % 1.0, 53),
             (rng.normal(0.3, 0.05, 2000) % 1.0, 64))
    for pts, degree in cases:
        assert _within_one_ulp(erdos_turan_bound(pts, degree), oracles.et_bound(pts, degree))


# Seed-0 expsum-audits sets (workload op and set index, with that op's
# et-audit arguments) whose bounds lie so close to a halfway point between
# doubles that a long-double sum is easily one ulp off.
_PINNED_ET_SETS = {
    (111, 13): dict(degree=52, seed=354802522, max_points=263),
    (111, 40): dict(degree=52, seed=354802522, max_points=263),
    (195, 46): dict(degree=17, seed=1027598424, max_points=388),
    (255, 29): dict(degree=63, seed=599512340, max_points=292),
    (323, 119): dict(degree=17, seed=475638006, max_points=2001),
}


@oracles.needs_long_double
@pytest.mark.parametrize("op, index", _PINNED_ET_SETS, ids=[f"{op}-{i}" for op, i in _PINNED_ET_SETS])
def test_erdos_turan_bound_is_faithful_on_workload_sets(op, index, monkeypatch):
    seen = []
    monkeypatch.setattr(audits, "erdos_turan_bound", lambda pts, degree: seen.append(pts) or 0.0)
    audits.et_audit(sets=150, **_PINNED_ET_SETS[op, index])
    monkeypatch.undo()
    pts, degree = seen[index], _PINNED_ET_SETS[op, index]["degree"]
    assert _within_one_ulp(erdos_turan_bound(pts, degree), oracles.et_bound(pts, degree))
