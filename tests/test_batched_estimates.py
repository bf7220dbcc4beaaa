"""The whole-grid estimates against their one-at-a-time forms, bit for bit.

window_exp_sums evaluates a window for a whole theta grid, and
beatty_floor_rows gives the floors of many Beatty lines at once.  The
oracles here are the scalar forms the estimates used before: one
window_exp_sum per (x, theta) with its phases rebuilt term by term, and one
Fraction floor per position.  The chunk sizes are patched small in some
cases, so windows span several chunks and grids several blocks.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitseq import (
    BeattyLine,
    PowerGrowth,
    beatty_floor_range,
    beatty_floor_rows,
    beatty_substitution_integral,
    window_exp_sum,
    window_exp_sums,
    window_l1_integral,
)
from digitseq import expsums, sequences
from digitseq.experiments import _sup_points, resolve_phi
from digitseq.expsums import _kahan, reduced_phase

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
PHIS = ("thue-morse", "digit-exp:3:1/3")


def _scalar_window_sum(phi, x: float, z: float, theta) -> complex:
    """sum_{x<m<=x+z} phi(m) e(m theta), one theta, chunk by chunk: the exact
    base phase, a Dekker split of theta for the offsets, np.exp and np.sum
    per chunk, and the chunk partials in Kahan order."""
    m_lo, m_hi = math.floor(x) + 1, math.floor(x + z)
    partials = []
    for lo in range(m_lo, m_hi + 1, expsums._WINDOW_CHUNK):
        n = min(expsums._WINDOW_CHUNK, m_hi - lo + 1)
        tf = float(theta)
        c = 134217729.0 * tf
        t_hi = c - (c - tf)
        t_lo = tf - t_hi
        j = np.arange(n, dtype=np.float64)
        ph = ((j * t_hi) % 1.0 + (j * t_lo) % 1.0 + reduced_phase(lo, theta)) % 1.0
        vals = np.asarray(phi(np.arange(lo, lo + n, dtype=np.int64)))
        partials.append(complex(np.sum(vals * np.exp(2j * np.pi * ph))))
    return _kahan(partials)


def _assert_grid_matches(phi, x, z, grid):
    thetas = np.arange(grid) / grid
    got = window_exp_sums(phi, x, z, thetas)
    moduli = np.hypot(got.real, got.imag)
    for t in range(grid):
        want = _scalar_window_sum(phi, x, z, t / grid)
        assert complex(got[t]) == want, (x, z, t, grid)
        assert moduli[t] == abs(window_exp_sum(phi, x, z, t / grid).value) == abs(want)


@PROPERTY
@given(phi=st.sampled_from(PHIS),
       x=st.floats(0.0, 1e7, allow_nan=False, allow_infinity=False),
       z=st.one_of(st.integers(1, 300).map(float), st.floats(1.0, 300.0)),
       grid=st.integers(2, 40))
def test_window_grid_equals_one_theta_sums(phi, x, z, grid):
    _assert_grid_matches(resolve_phi(phi), x, z, grid)


@PROPERTY
@given(phi=st.sampled_from(PHIS),
       x=st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
       z=st.floats(1.0, 100.0), grid=st.integers(2, 24), chunk=st.integers(3, 40))
def test_window_grid_across_chunks_and_blocks(phi, x, z, grid, chunk):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(expsums, "_WINDOW_CHUNK", chunk)
        _assert_grid_matches(resolve_phi(phi), x, z, grid)


@pytest.mark.parametrize("phi", PHIS)
def test_window_longer_than_a_chunk(phi):
    # Two chunks, the second one short, and one row per block.
    _assert_grid_matches(resolve_phi(phi), 12345.25, expsums._WINDOW_CHUNK + 100.5, 3)


def test_window_grid_takes_exact_thetas():
    thetas = [Fraction(1, 12), Fraction(5, 7), 0.37]
    got = window_exp_sums(resolve_phi("thue-morse"), 2.0 ** 40, 50, thetas)
    for theta, value in zip(thetas, got):
        assert complex(value) == window_exp_sum(resolve_phi("thue-morse"), 2.0 ** 40, 50,
                                                theta).value
    assert window_exp_sums(resolve_phi("one"), 5.0, 0.5, thetas).tolist() == [0j] * 3


def _fraction_floors(line: BeattyLine, n_lo: int, n_hi: int) -> list[int]:
    return [math.floor(Fraction(n) * Fraction(line.alpha) + Fraction(line.beta))
            for n in range(n_lo, n_hi + 1)]


_DYADIC = st.builds(lambda a, k: a / 2 ** k, st.integers(-64, 64), st.integers(0, 4))


@PROPERTY
@given(slopes=st.lists(st.builds(lambda a, k: a / 2 ** k, st.integers(1, 64),
                                 st.integers(0, 4)), min_size=1, max_size=12),
       beta=_DYADIC, n_lo=st.integers(-40, 40), length=st.integers(0, 90),
       chunk=st.integers(1, 200))
def test_beatty_rows_equal_fraction_floors_at_dyadic_lines(slopes, beta, n_lo, length, chunk):
    # At dyadic alpha and beta, n alpha + beta is an exact double, and an
    # exact integer (a tie) at a share of the positions: 1/2^k of them.
    lines = [BeattyLine(alpha=a, beta=beta + i / 4) for i, a in enumerate(slopes)]
    n_hi = n_lo + length - 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sequences, "_FLOOR_CHUNK", chunk)
        blocks = list(beatty_floor_rows(lines, n_lo, n_hi))
    assert all(b.size <= max(chunk, length) for b in blocks)
    rows = [row.tolist() for block in blocks for row in block]
    assert rows == [_fraction_floors(line, n_lo, n_hi) for line in lines]


def _count_escalations(monkeypatch) -> list:
    calls = []
    scalar = sequences.beatty_floor

    def counted(n, line):
        calls.append((n, line))
        return scalar(n, line)

    monkeypatch.setattr(sequences, "beatty_floor", counted)
    return calls


def test_beatty_rows_where_every_position_is_a_tie(monkeypatch):
    # integer alpha and beta: exact doubles, so no position escalates
    calls = _count_escalations(monkeypatch)
    lines = [BeattyLine(alpha=float(a), beta=float(b)) for a in (1, 2, 7) for b in (-3, 0, 5)]
    (block,) = beatty_floor_rows(lines, -20, 20)
    assert block.tolist() == [_fraction_floors(line, -20, 20) for line in lines]
    assert beatty_floor_range(lines[4], -20, 20).tolist() == block[4].tolist()
    assert calls == []


def test_beatty_rows_escalate_ties_a_double_may_not_hold(monkeypatch):
    calls = _count_escalations(monkeypatch)
    lines = [BeattyLine(alpha=0.5, beta=0.25), BeattyLine(alpha=0.5, beta=3.0),
             BeattyLine(alpha=2.0 ** 50, beta=1.0)]  # 8 * 2^50 + 1 > 2^53
    (block,) = beatty_floor_rows(lines, 1, 8)
    assert block.tolist() == [_fraction_floors(line, 1, 8) for line in lines]
    assert [line for _, line in calls] == [lines[1]] * 4 + [lines[2]] * 8


def test_beatty_rows_guard_the_int64_range():
    with pytest.raises(ValueError, match="int64"):
        list(beatty_floor_rows([BeattyLine(1.0), BeattyLine(2.0 ** 60)], 1, 8))


def _phi_sum_1d(phi, m):
    if phi.name == "thue-morse":
        return float(np.sum(phi(m)))
    return complex(np.sum(np.asarray(phi(m), dtype=np.complex128)))


def _scalar_window_l1(phi, f, A, z, theta_grid, x_samples):
    """window_l1_integral as one window_exp_sum per (theta, x)."""
    lo, hi = float(f.f(A)), float(f.f(2 * A))

    def estimate(grid, samples):
        xs = _sup_points(lo, hi, samples, z)
        vals = [max(abs(_scalar_window_sum(phi, xx, z, t / grid)) for xx in xs) / z
                for t in range(grid)]
        return math.fsum(vals) / grid

    value = estimate(theta_grid, x_samples)
    return value, abs(estimate(2 * theta_grid, 2 * x_samples) - value)


def _scalar_beatty_integral(phi, f, A, K, alpha_grid, beta_samples):
    """beatty_substitution_integral as one Fraction-floor line per (alpha, beta)."""
    a_lo, a_hi = float(f.df(A)), float(f.df(2 * A))
    f_lo, f_hi = float(f.f(A)), float(f.f(2 * A))

    def integrand(alpha, beta):
        line = BeattyLine(alpha=alpha, beta=beta)
        s1 = _phi_sum_1d(phi, np.array(_fraction_floors(line, 1, K), dtype=np.int64))
        m = np.arange(math.floor(beta) + 1, math.floor(beta + K * alpha) + 1, dtype=np.int64)
        s2 = _phi_sum_1d(phi, m) if m.size else 0
        if phi.name == "thue-morse":
            s2 = int(s2)
        return abs(s1 - s2 / alpha) / K

    def estimate(grid, samples):
        betas = _sup_points(f_lo, f_hi, samples, K * a_hi)
        weights = np.ones(grid)
        weights[0] = weights[-1] = 0.5
        vals = [max(integrand(float(al), b) for b in betas)
                for al in np.linspace(a_lo, a_hi, grid)]
        return float(np.dot(weights, vals) / weights.sum())

    value = estimate(alpha_grid, beta_samples)
    return value, abs(estimate(2 * alpha_grid, 2 * beta_samples) - value)


@pytest.mark.parametrize("phi", PHIS)
@pytest.mark.parametrize("c, A, z", [(Fraction(3, 2), 2048, 64.0), (Fraction(5, 4), 4096, 40.5),
                                     (Fraction(3, 2), 3000, 17.25)])
@pytest.mark.parametrize("chunk", [None, 24])
def test_window_l1_integral_equals_the_one_theta_form(phi, c, A, z, chunk):
    f, phi = PowerGrowth(c), resolve_phi(phi)
    with pytest.MonkeyPatch.context() as mp:
        if chunk:
            mp.setattr(expsums, "_WINDOW_CHUNK", chunk)
        est = window_l1_integral(phi, f, A, z, theta_grid=6, x_samples=3)
        want = _scalar_window_l1(phi, f, A, z, 6, 3)
    assert (est.value, est.refinement_delta) == want


@pytest.mark.parametrize("phi", PHIS)
@pytest.mark.parametrize("c, A, K", [(Fraction(3, 2), 4096, 64), (Fraction(5, 4), 2048, 33)])
@pytest.mark.parametrize("chunk", [None, 100])
def test_beatty_integral_equals_the_one_line_form(phi, c, A, K, chunk):
    f, phi = PowerGrowth(c), resolve_phi(phi)
    with pytest.MonkeyPatch.context() as mp:
        if chunk:
            mp.setattr(sequences, "_FLOOR_CHUNK", chunk)
        est = beatty_substitution_integral(phi, f, A, K, alpha_grid=4, beta_samples=3)
    assert (est.value, est.refinement_delta) == _scalar_beatty_integral(phi, f, A, K, 4, 3)
