"""The whole-grid estimates against their one-at-a-time forms, bit for bit.

window_exp_sums evaluates a window for a whole theta grid, and
beatty_floor_rows gives the floors of many Beatty lines at once.  The
oracles here are the scalar forms the estimates used before: one
window_exp_sum per (x, theta) with its phases rebuilt term by term and its
chunk partials Kahan-summed, and one Fraction floor per position.  The block
and chunk sizes are patched small in some cases, so grids span several
blocks and Beatty rows several floor chunks.
"""

import math
from fractions import Fraction
from unittest import mock

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
from digitseq import experiments, expsums, sequences
from digitseq.experiments import _sup_points, resolve_phi
from digitseq.expsums import reduced_phase
from oracles import beatty_integral_per_line, kahan

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
PHIS = ("thue-morse", "digit-exp:3:1/3")
_CHUNK = 1 << 18  # terms per partial sum of the chunked window sums


def _scalar_window_sum(phi, x: float, z: float, theta) -> complex:
    """sum_{x<m<=x+z} phi(m) e(m theta), one theta, chunk by chunk: the exact
    base phase, a Dekker split of theta for the offsets, np.exp and np.sum
    per chunk, and the chunk partials in Kahan order.  A chunk holds more
    terms than the longest window, so every accepted window is one chunk."""
    m_lo, m_hi = math.floor(x) + 1, math.floor(x + z)
    partials = []
    for lo in range(m_lo, m_hi + 1, _CHUNK):
        n = min(_CHUNK, m_hi - lo + 1)
        tf = float(theta)
        c = 134217729.0 * tf
        t_hi = c - (c - tf)
        t_lo = tf - t_hi
        j = np.arange(n, dtype=np.float64)
        ph = ((j * t_hi) % 1.0 + (j * t_lo) % 1.0 + reduced_phase(lo, theta)) % 1.0
        vals = np.asarray(phi(np.arange(lo, lo + n, dtype=np.int64)))
        partials.append(complex(np.sum(vals * np.exp(2j * np.pi * ph))))
    return kahan(partials)


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
    # The kernel's theta blocks are patched small; the reference stays one chunk.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(expsums, "_BLOCK_TERMS", chunk)
        _assert_grid_matches(resolve_phi(phi), x, z, grid)


def test_window_one_term_past_the_limit_raises_before_phi():
    phi = mock.Mock(side_effect=AssertionError("phi ran before the window limit"))
    limit = expsums._WINDOW_MAX
    with pytest.raises(ValueError, match=str(limit)):
        window_exp_sums(phi, 12345.0, limit + 1, [0.0, 0.5])
    phi.assert_not_called()


@pytest.mark.parametrize("phi", PHIS)
def test_window_longer_than_a_chunk(phi):
    # The longest accepted window, longer than a patched block of terms:
    # one phi pass, and still one row per block of a grid of 3.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(expsums, "_BLOCK_TERMS", expsums._WINDOW_MAX // 2)
        _assert_grid_matches(resolve_phi(phi), 12345.25, expsums._WINDOW_MAX, 3)


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


def _rows(lines: list[BeattyLine], n_lo: int, n_hi: int):
    """beatty_floor_rows of the lines as slope and intercept arrays."""
    return beatty_floor_rows(np.array([line.alpha for line in lines]),
                             np.array([line.beta for line in lines]), n_lo, n_hi)


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
        blocks = list(_rows(lines, n_lo, n_hi))
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
    (block,) = _rows(lines, -20, 20)
    assert block.tolist() == [_fraction_floors(line, -20, 20) for line in lines]
    assert beatty_floor_range(lines[4], -20, 20).tolist() == block[4].tolist()
    assert calls == []


def test_beatty_rows_escalate_ties_a_double_may_not_hold(monkeypatch):
    calls = _count_escalations(monkeypatch)
    lines = [BeattyLine(alpha=0.5, beta=0.25), BeattyLine(alpha=0.5, beta=3.0),
             BeattyLine(alpha=2.0 ** 50, beta=1.0)]  # 8 * 2^50 + 1 > 2^53
    (block,) = _rows(lines, 1, 8)
    assert block.tolist() == [_fraction_floors(line, 1, 8) for line in lines]
    assert [line for _, line in calls] == [lines[1]] * 4 + [lines[2]] * 8


def test_beatty_rows_guard_the_int64_range():
    with pytest.raises(ValueError, match="int64"):
        list(beatty_floor_rows([1.0, 2.0 ** 60], [0.0, 0.0], 1, 8))


@pytest.mark.parametrize("bad", [0.0, -1.0, -0.0, math.nan, math.inf])
def test_beatty_rows_check_every_slope_before_any_floor(bad, monkeypatch):
    monkeypatch.setattr(sequences, "_certified_floor", lambda *a: pytest.fail(
        "a floor was computed before the slope check"))
    alphas = np.full(3 * sequences._FLOOR_CHUNK, 1.5)
    alphas[-1] = bad
    with pytest.raises(ValueError, match="positive and finite"):
        next(beatty_floor_rows(alphas, np.zeros_like(alphas), 1, 8))


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


@pytest.mark.parametrize("phi", PHIS)
@pytest.mark.parametrize("c, A, z", [(Fraction(3, 2), 2048, 64.0), (Fraction(5, 4), 4096, 40.5),
                                     (Fraction(3, 2), 3000, 17.25)])
@pytest.mark.parametrize("chunk", [None, 24])
def test_window_l1_integral_equals_the_one_theta_form(phi, c, A, z, chunk):
    f, phi = PowerGrowth(c), resolve_phi(phi)
    with pytest.MonkeyPatch.context() as mp:
        if chunk:
            mp.setattr(expsums, "_BLOCK_TERMS", chunk)
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
    assert (est.value, est.refinement_delta) == beatty_integral_per_line(phi, f, A, K, 4, 3)


class _Slopes(PowerGrowth):
    """x^(3/2) with f' scaled by `scale`, so the estimate's slopes can lie
    below 1/K (empty second ranges) or on integers."""

    def __init__(self, scale: float):
        super().__init__(Fraction(3, 2))
        self.scale = scale

    def df(self, x):
        return self.scale * super().df(x)


ALL_PHIS = ("thue-morse", "one", "zero", "digit-exp:3:1/3")


@pytest.mark.parametrize("phi", ALL_PHIS)
@pytest.mark.parametrize("scale, A, K", [(2.0 ** -12, 1024, 1), (2.0 ** -9, 1024, 3),
                                         (2.0 ** -5, 2048, 5)])
def test_beatty_integral_equals_the_per_line_loop(phi, scale, A, K):
    f, phi = _Slopes(scale), resolve_phi(phi)
    if scale == 2.0 ** -12:
        # K alpha < 1/32: most ranges (beta, beta + K alpha] hold no integer
        assert K * f.df(2 * A) < 1 / 32
    if A == 2048:
        # f(2A) = 64^3 and f'(2A) = 3: the top slope with the intercepts
        # f(2A) and f(2A) - 3K makes integer lines
        assert (f.f(2 * A), f.df(2 * A)) == (2.0 ** 18, 3.0)
    est = beatty_substitution_integral(phi, f, A, K, alpha_grid=5, beta_samples=4)
    assert (est.value, est.refinement_delta) == beatty_integral_per_line(phi, f, A, K, 5, 4)


def test_beatty_integral_at_the_grid_limit_equals_the_per_line_loop():
    # Thue-Morse only: every other phi takes the per-line path at any grid size.
    f, phi = PowerGrowth(Fraction(3, 2)), resolve_phi("thue-morse")
    grid, samples = experiments._GRID_MAX, experiments._SAMPLES_MAX
    est = beatty_substitution_integral(phi, f, 4096, 1, alpha_grid=grid, beta_samples=samples)
    assert (est.value, est.refinement_delta) == beatty_integral_per_line(phi, f, 4096, 1, grid,
                                                                         samples)
