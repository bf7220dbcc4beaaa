"""Experiment driver: trivial identities, conservation, determinism, and
the recorded desk-scale regression anchors."""

import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from digitseq import (
    PHI_FUNCTIONS,
    IntegerExponentWarning,
    PowerGrowth,
    audit_theorem1,
    beatty_substitution_integral,
    corollary1_exponent_audit,
    digit_sum_array,
    experiments,
    joint_residue_experiment,
    substitution_deviation,
    thue_morse_sign_array,
    tm_density_experiment,
    window_l1_integral,
    zeckendorf_digit_sum_array,
    zeckendorf_residue_experiment,
)
from digitseq.experiments import (
    ArithmeticFunction,
    _tm_block_log2_bound,
    _tm_block_order,
    _tm_blocks,
    _tm_weighted_sum,
    resolve_phi,
)
from digitseq.cli import dispatch
from oracles import ps_block

F32 = PowerGrowth(Fraction(3, 2))
F1310 = PowerGrowth(Fraction(13, 10))


def test_resolve_phi():
    assert resolve_phi("one").name == "one"
    assert resolve_phi(PHI_FUNCTIONS["thue-morse"]).name == "thue-morse"
    phi = resolve_phi("digit-exp:3:1/3")
    vals = phi(np.array([1, 3, 4]))  # s_3 = 1, 1, 2
    assert vals[0] == pytest.approx(np.exp(2j * np.pi / 3))
    assert vals[2] == pytest.approx(np.exp(4j * np.pi / 3))
    with pytest.raises(ValueError):
        resolve_phi("nope")


def test_deviation_zero_function():
    rep = substitution_deviation("zero", F32, 64)
    assert rep.lhs_per_A == 0.0 and rep.sum1 == 0 and rep.sum2 == 0


def test_deviation_one_regression_anchor():
    rep = substitution_deviation("one", F32, 1000)
    # recorded during development; the two sums agree to O(1/A)
    assert rep.lhs_per_A == pytest.approx(2.5651258915786457e-06, rel=1e-9)
    assert rep.sum1 == pytest.approx(1000.0)


def test_deviation_one_stays_bounded_across_doublings():
    vals = [substitution_deviation("one", F1310, 1 << k).lhs_per_A for k in range(8, 15)]
    assert max(vals) < 0.01


def test_deviation_is_deterministic_across_threads():
    a = substitution_deviation("thue-morse", F1310, 3000, threads=1)
    b = substitution_deviation("thue-morse", F1310, 3000, threads=4)
    assert a.sum1 == b.sum1 and a.sum2 == b.sum2 and a.lhs_per_A == b.lhs_per_A


TM_EXPONENTS = [Fraction(3, 2), Fraction(5, 4), Fraction(4, 3), Fraction(71, 50), Fraction(2)]


def _mp_weights(c: Fraction, m_lo: int, m_hi: int) -> list:
    """t(m) (f^-1)'(m) = t(m) m^(1/c - 1) / c for m_lo < m <= m_hi, by mpmath."""
    e = mpmath.mpf(c.denominator) / c.numerator - 1
    m = np.arange(m_lo + 1, m_hi + 1, dtype=np.int64)
    return [int(t) * mpmath.power(int(x), e) * c.denominator / c.numerator
            for t, x in zip(thue_morse_sign_array(m), m.tolist())]


def _log2_weight(c: Fraction, m: int) -> float:
    return (1 / float(c) - 1) * math.log2(m) - math.log2(float(c))


@pytest.mark.parametrize("c", TM_EXPONENTS, ids=str)
def test_tm_weighted_sum_matches_a_direct_mpmath_sum(c):
    f = PowerGrowth(c)
    eps = float(np.finfo(np.longdouble).eps)
    # blocks dropped far out; none dropped near 2^12
    for m_lo, m_hi, drops in ((10 ** 9 + 12345, 10 ** 9 + 15346, True), (5001, 7002, False)):
        with mpmath.workdps(30):
            want = mpmath.fsum(_mp_weights(c, m_lo, m_hi))
        k = _tm_block_order(float(c), m_lo, m_hi)
        assert (k is not None) == drops
        first, last, _ = _tm_blocks(float(c), m_lo, m_hi, k) if drops else (m_hi + 1,) * 3
        kept = (first - m_lo - 1) + (m_hi + 1 - last)
        assert kept < (2 << k if drops else 1 << 12)
        # dropped blocks, long-double weights (exponent, power, product) and
        # the final rounding of an exact sum
        w = 2.0 ** _log2_weight(c, m_lo + 1)
        tol = 2.0 ** -80 * w + eps * (math.log(m_hi) + 4) * kept * w
        got = _tm_weighted_sum(f, m_lo, m_hi)
        assert abs(got - float(want)) <= tol + 0.5 * np.spacing(abs(got)), (m_lo, got, want)


@pytest.mark.parametrize("c", TM_EXPONENTS, ids=str)
def test_dropped_block_bound_covers_every_block(c):
    cf, m_lo, m_hi = float(c), 3007, 3607
    with mpmath.workdps(40):
        terms = _mp_weights(c, m_lo, m_hi)
        for k in range(2, 6):
            first, last, log2_total = _tm_blocks(cf, m_lo, m_hi, k)
            size = 1 << k
            blocks = [mpmath.fsum(terms[x - m_lo - 1:x - m_lo - 1 + size])
                      for x in range(first, last, size)]
            assert len(blocks) == (last - first) >> k >= 8
            # each block by its own bound, which is within 2^5 of the truth
            for x, block in zip(range(first, last, size), blocks):
                bound = 2.0 ** _tm_block_log2_bound(cf, k, x)
                assert abs(block) <= bound < 32 * abs(block)
            assert abs(mpmath.fsum(blocks)) <= 2.0 ** log2_total


@pytest.mark.parametrize("c", TM_EXPONENTS, ids=str)
@pytest.mark.parametrize("m_lo,m_hi", [(262144, 741455), (441636, 1050406), (1 << 24, 3 << 24),
                                       (10 ** 9, 10 ** 9 + 4000)])
def test_block_order_is_the_smallest_k_within_the_bound(c, m_lo, m_hi):
    cf = float(c)
    limit = -80 + _log2_weight(c, m_lo + 1)

    def total_bound(k):
        first = -(-(m_lo + 1) // 2 ** k) * 2 ** k
        blocks = (m_hi + 1) // 2 ** k - first // 2 ** k
        return (math.log2(blocks) + k * (k - 1) / 2 + math.log2(math.factorial(k))
                + (1 / cf - 1 - k) * math.log2(first) - math.log2(cf))

    k = _tm_block_order(cf, m_lo, m_hi)
    assert k is not None
    assert _tm_blocks(cf, m_lo, m_hi, k)[2] == pytest.approx(total_bound(k), abs=1e-9)
    assert total_bound(k) <= limit
    assert all(total_bound(j) > limit for j in range(1, k))


def test_closed_forms_are_selected_by_identity_not_by_name():
    impostor = ArithmeticFunction("thue-morse", PHI_FUNCTIONS["one"].func)
    for A in (1 << 10, 1 << 12):
        got, want = substitution_deviation(impostor, F32, A), substitution_deviation("one", F32, A)
        assert (got.sum1, got.sum2) == (want.sum1, want.sum2)
    got = beatty_substitution_integral(impostor, F32, 1 << 12, 64, alpha_grid=4, beta_samples=3)
    want = beatty_substitution_integral("one", F32, 1 << 12, 64, alpha_grid=4, beta_samples=3)
    assert got == want


def test_closed_forms_agree_with_the_direct_sums():
    # the same Thue-Morse values through the direct paths of another
    # ArithmeticFunction object
    tm = PHI_FUNCTIONS["thue-morse"]
    copy = ArithmeticFunction("tm-copy", tm.func)
    f = PowerGrowth(Fraction(71, 50))
    closed = substitution_deviation(tm, f, 4096)
    direct = substitution_deviation(copy, f, 4096)
    assert direct.sum1 == closed.sum1
    assert abs(direct.sum2 - closed.sum2) < 1e-14
    got = beatty_substitution_integral(tm, F32, 1 << 12, 64, alpha_grid=4, beta_samples=3)
    want = beatty_substitution_integral(copy, F32, 1 << 12, 64, alpha_grid=4, beta_samples=3)
    assert got == want


def test_window_integral_unit_window_is_one():
    est = window_l1_integral("one", F32, 64, 1.0, theta_grid=8, x_samples=4)
    assert est.value == 1.0


def test_window_integral_bounds_and_refinement():
    est = window_l1_integral("one", F32, 64, 16.0, theta_grid=16, x_samples=4)
    assert 0 < est.value <= 1.0
    assert est.refinement_delta >= 0
    # refinement deltas shrink along the shipped config chain
    deltas = [window_l1_integral("thue-morse", F32, 256, 32.0,
                                 theta_grid=g, x_samples=s).refinement_delta
              for g, s in ((8, 4), (16, 8), (32, 16))]
    assert deltas[0] > deltas[1] > deltas[2]


def test_beatty_integral_trivial_and_trend():
    est = beatty_substitution_integral("zero", F32, 256, 64, alpha_grid=8, beta_samples=4)
    assert est.value == 0.0
    est = beatty_substitution_integral("one", F32, 1 << 12, 128, alpha_grid=8, beta_samples=4)
    alpha_min = float(F32.df(1 << 12))
    assert est.value <= (1 + 1 / alpha_min) * 2 / 128
    vals = [beatty_substitution_integral("thue-morse", F32, 1 << 14, k,
                                         alpha_grid=12, beta_samples=6).value
            for k in (16, 64, 256, 1024)]
    assert vals[0] > vals[-1]  # decreasing trend in the window length


def test_audit_theorem1_zero_and_one():
    rep = audit_theorem1("zero", F32, 1 << 12, 64.0, theta_grid=8, x_samples=4)
    assert rep.ratio == 0.0
    rep = audit_theorem1("one", F32, 1 << 12, 64.0, theta_grid=8, x_samples=4)
    assert np.isfinite(rep.ratio) and rep.ratio >= 0
    assert rep.bracket == pytest.approx(rep.taylor_term + rep.expsum_term)


def test_tm_density_small_and_flags():
    rep = tm_density_experiment(PowerGrowth("1.3"), 1, checkpoints=1)
    assert rep.checkpoints[0].m == 1 and rep.checkpoints[0].partial_sum == -1
    rep = tm_density_experiment(PowerGrowth("3/2"), 64, checkpoints=3)
    assert rep.outside_proven_range
    rep = tm_density_experiment(PowerGrowth("1.3"), 64, checkpoints=3)
    assert not rep.outside_proven_range
    assert not tm_density_experiment(PowerGrowth("1.42"), 64, checkpoints=3).outside_proven_range
    with pytest.raises(ValueError):
        tm_density_experiment(PowerGrowth("5/2"), 64)  # c >= 2


def test_tm_density_checkpoint_consistency():
    n = 5000
    rep = tm_density_experiment(PowerGrowth("1.3"), n, checkpoints=5)
    floors = ps_block(1, n, PowerGrowth("1.3"))
    signs = thue_morse_sign_array(floors)
    cums = np.cumsum(signs)
    for cp in rep.checkpoints:
        assert cp.partial_sum == int(cums[cp.m - 1])
        assert cp.plus_density == pytest.approx((cp.m + cp.partial_sum) / (2 * cp.m))


def test_tm_partial_sum_identity_even_blocks():
    # the signed count over [0, 2K) vanishes for every K
    signs = thue_morse_sign_array(np.arange(200_000))
    cums = np.cumsum(signs)
    assert np.all(cums[1::2] == 0)


def test_joint_residue_trivial_and_conservation():
    f = PowerGrowth("1.05")
    rep = joint_residue_experiment(f, 2, 3, 1, 1, 0, 0, 777)
    assert rep.counts[(0, 0)] == 777 and rep.expected == 777
    rep = joint_residue_experiment(f, 2, 3, 3, 5, 1, 2, 0)
    assert sum(rep.counts.values()) == 0 and rep.target_count == 0
    rep = joint_residue_experiment(f, 2, 3, 3, 5, 1, 2, 20_000)
    assert sum(rep.counts.values()) == 20_000
    assert rep.expected == pytest.approx(20_000 / 15)


def test_joint_residue_hypothesis_signals():
    f = PowerGrowth("1.05")
    with pytest.raises(ValueError, match=r"gcd\(q1, q2\)"):
        joint_residue_experiment(f, 2, 4, 1, 1, 0, 0, 10)
    with pytest.warns(UserWarning, match=r"gcd\(m1, q1 - 1\)"):
        joint_residue_experiment(f, 3, 2, 2, 1, 0, 0, 10)


def test_joint_residue_deterministic_across_threads():
    f = PowerGrowth("1.05")
    a = joint_residue_experiment(f, 2, 3, 3, 5, 1, 2, 300_000, threads=1)
    b = joint_residue_experiment(f, 2, 3, 3, 5, 1, 2, 300_000, threads=8)
    assert a.counts == b.counts


@pytest.mark.parametrize("run", [
    lambda f: joint_residue_experiment(f, 2, 3, 3, 5, 1, 2, 1000, threads=2),
    lambda f: zeckendorf_residue_experiment(f, 3, 0, 1000, threads=2),
], ids=["joint", "zeck"])
def test_residue_experiments_warn_once_for_an_integer_exponent(run):
    with pytest.warns(IntegerExponentWarning) as record:
        rep = run(PowerGrowth(2))
    assert len(record) == 1
    assert sum(rep.counts.values()) == 1000
    run(PowerGrowth("3/2"))  # no warning: warnings are errors here


def test_integer_exponent_runs_leave_the_warning_filters_alone(tmp_path):
    # Worker threads must not touch the process-wide filter list: a filter
    # left behind by one run would silence the warning for every later run.
    argv = ["joint-residues", "--c", "2", "--q1", "2", "--q2", "3", "--m1", "3", "--m2", "5",
            "--x", "400000", "--threads", "2", "--out", str(tmp_path / "out")]
    for _ in range(6):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            filters = list(warnings.filters)
            assert dispatch(argv) == 0
            assert warnings.filters == filters
        assert [w.category for w in caught] == [IntegerExponentWarning]


def _floors(f: PowerGrowth, x: int) -> np.ndarray:
    return ps_block(1, x, f) if x else np.zeros(0, dtype=np.int64)


@pytest.mark.parametrize("c, q1, q2, m1, m2, x", [
    ("3/2", 2, 3, 3, 5, 20_000),
    ("71/50", 3, 4, 5, 5, 20_000),
    ("3/2", 2, 3, 3, 5, 0),
    # s_q1 of a huge base is about the value itself: reduced before counting
    ("3/2", 10 ** 12, 3, 2, 5, 20_000),
    # m1 m2 = 65280 cells; s_q2 reduced, s_q1 counted raw
    ("4/3", 3, 2 ** 40, 255, 256, 5_000),
])
@pytest.mark.parametrize("hist_max", [None, 1])  # 1 reduces every sum wider than its modulus
def test_joint_histogram_counts_match_a_direct_recount(monkeypatch, c, q1, q2, m1, m2, x,
                                                       hist_max):
    if hist_max is not None:
        monkeypatch.setattr(experiments, "_HIST_MAX", hist_max)
    f = PowerGrowth(c)
    floors = _floors(f, x)
    cells = (digit_sum_array(floors, q1) % m1) * m2 + digit_sum_array(floors, q2) % m2
    want = np.bincount(cells, minlength=m1 * m2)
    rep = joint_residue_experiment(f, q1, q2, m1, m2, 0, 0, x, threads=2)
    assert [rep.counts[divmod(i, m2)] for i in range(m1 * m2)] == want.tolist()


@pytest.mark.parametrize("m", [1, 5, 47, 48, 2 ** 16])
@pytest.mark.parametrize("x", [0, 20_000])
def test_zeckendorf_histogram_counts_match_a_direct_recount(m, x):
    f = PowerGrowth("3/2")
    want = np.bincount(zeckendorf_digit_sum_array(_floors(f, x)) % m, minlength=m)
    rep = zeckendorf_residue_experiment(f, m, 0, x)
    assert [rep.counts[(i,)] for i in range(m)] == want.tolist()


def test_zeckendorf_residue_trivial_and_conservation():
    f = PowerGrowth("1.25")
    rep = zeckendorf_residue_experiment(f, 1, 0, 555)
    assert rep.counts[(0,)] == 555
    rep = zeckendorf_residue_experiment(f, 4, 2, 50_000)
    assert sum(rep.counts.values()) == 50_000
    assert rep.target == (2,)
    with pytest.raises(ValueError):
        zeckendorf_residue_experiment(f, 0, 0, 10)


def test_exponent_audit_cases():
    rep = corollary1_exponent_audit(Fraction(4076, 10000), Fraction(71, 50))
    assert rep.validity and rep.eta_max > 0 and rep.reference < 0
    rep = corollary1_exponent_audit(Fraction(8, 9), Fraction(18, 17))
    assert rep.eta_max == 0 and not rep.validity
    # reference stays below eta_max at a = 0.4076 on the grid c = 1.01 ... 1.42
    for c100 in range(101, 143):
        rep = corollary1_exponent_audit(Fraction(4076, 10000), Fraction(c100, 100))
        assert rep.reference < rep.eta_max
    with pytest.raises(ValueError):
        corollary1_exponent_audit(Fraction(3, 2), Fraction(11, 10))
    with pytest.raises(ValueError):
        corollary1_exponent_audit(Fraction(1, 2), Fraction(5, 2))


def test_exponent_boundary_collapse():
    # eta_max > 0 exactly when c < 2/(1+a); at the endpoint a = 1 that range
    # is empty: eta_max = 1 - c < 0 on all of 1 < c < 2
    for c in (Fraction(101, 100), Fraction(3, 2), Fraction(199, 100)):
        rep = corollary1_exponent_audit(1, c)
        assert rep.eta_max == 1 - c and rep.eta_max < 0
        assert not rep.validity
    # at a = 0.4076 the boundary 2/(1+a) = 1.42086... sits between c = 1.42
    # (a small positive exponent) and c = 1.43 (none)
    a = Fraction(4076, 10000)
    rep = corollary1_exponent_audit(a, Fraction(142, 100))
    assert 0 < rep.eta_max < Fraction(1, 100) and rep.validity
    rep = corollary1_exponent_audit(a, Fraction(143, 100))
    assert rep.eta_max < 0 and not rep.validity


def test_generic_floors_settle_exact_integers_in_the_deviation():
    # floor(n^(3/2)) is an integer at every square n; the floors in the
    # deviation decide those from the exact value.
    A = 4096
    rep = substitution_deviation("thue-morse", F32, A)
    floors = [math.isqrt(n ** 3) for n in range(A + 1, 2 * A + 1)]
    assert floors[65 ** 2 - A - 1] == 65 ** 3
    assert rep.sum1 == sum(thue_morse_sign_array(np.array(floors, dtype=np.int64)).tolist())
