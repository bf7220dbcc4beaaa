"""Bad outside input is rejected before any work is spent, and proven
invariants are checked by explicit raises that survive ``python -O``."""

import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import digitseq
from digitseq import audits, experiments, expsums, sequences, thue_morse_sign, \
    thue_morse_sign_array
from digitseq.cli import dispatch


def _no_quadrature(level, *args):
    pytest.fail(f"a sine-product integral up to level {level} ran before the level guard")


def test_rho_level_guard_runs_before_any_level(monkeypatch, tmp_path):
    monkeypatch.setattr(expsums, "sine_product_integral", _no_quadrature)
    monkeypatch.setattr(expsums, "_operator_integrals", _no_quadrature)
    for level in ("1", "1714"):
        assert dispatch(["rho", "--lambda-max", level, "--out", str(tmp_path / "out")]) == 2
    with pytest.raises(ValueError, match=">= 2"):
        expsums.sine_product_decay(1)
    with pytest.raises(ValueError, match="double range guard"):
        expsums.sine_product_decay(1714)


def _no_floors(*args, **kwargs):
    pytest.fail("ps_block_chunks ran before the size guard")


@pytest.mark.parametrize("argv", [
    ["tm-density", "--c", "3/2", "--n", str((1 << 27) + 1)],
    ["joint-residues", "--c", "3/2", "--q1", "2", "--q2", "3", "--m1", "3", "--m2", "5",
     "--x", str((1 << 27) + 1)],
    ["zeck-residues", "--c", "3/2", "--m", "3", "--x", str((1 << 27) + 1)],
])
def test_residue_size_guard_runs_before_any_floor(argv, monkeypatch, tmp_path):
    monkeypatch.setattr(experiments, "ps_block_chunks", _no_floors)
    assert dispatch([*argv, "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("argv", [
    ["zeck-residues", "--c", "3/2", "--m", "1000000000000", "--x", "1000"],
    ["zeck-residues", "--c", "3/2", "--m", "0", "--x", "1000"],
    ["joint-residues", "--c", "3/2", "--q1", "2", "--q2", "3", "--m1", "1000000000000",
     "--m2", "5", "--x", "1000"],
    # each modulus within the limit, their product 2^16 + 2^9 + 1 beyond it
    ["joint-residues", "--c", "3/2", "--q1", "2", "--q2", "3", "--m1", "257", "--m2", "257",
     "--x", "1000"],
], ids=["zeck-m", "zeck-m-0", "joint-m1", "joint-product"])
def test_residue_moduli_are_bounded_before_any_floor(argv, monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(experiments, "ps_block_chunks", _no_floors)
    assert dispatch([*argv, "--out", str(tmp_path / "out")]) == 2
    assert str(experiments._MODULUS_MAX) in capsys.readouterr().err


def test_checkpoints_stop_at_the_bit_length_of_n(tmp_path):
    def report(checkpoints: int) -> bytes:
        out = tmp_path / f"out-{checkpoints}"
        assert dispatch(["tm-density", "--c", "3/2", "--n", "100", "--checkpoints",
                         str(checkpoints), "--out", str(out)]) == 0
        return out.read_bytes()

    start = time.perf_counter()
    huge = report(10 ** 12)
    assert time.perf_counter() - start < 1.0
    assert huge == report((100).bit_length())


_SCALE_1E12 = ["--f-power", "3/2", "--scale", "1000000000000"]
_SMALL_SCALE = ["--f-power", "3/2", "--scale", "4096"]
_WINDOW_SUMS = [(experiments, "window_exp_sums")]
_BEATTY_ROWS = [(experiments, "beatty_floor_rows")]
_ET_KERNELS = [(audits, "exact_discrepancy"), (audits, "erdos_turan_bound")]

_OVERSIZED = {
    # f(A) ... f(2A) is 1e18 ... 2.8e18, where doubles are multiples of 128
    # to 512 and no window (x, x + z] of doubles holds a term: estimate-j
    # would read 0.
    "estimate-j-scale": (["estimate-j", *_SCALE_1E12, "--z", "64", "--theta-grid", "2",
                          "--x-samples", "2"], _WINDOW_SUMS),
    "estimate-i-scale": (["estimate-i", *_SCALE_1E12, "--window", "64"], _BEATTY_ROWS),
    # Inputs that would run out of memory or never finish.
    "estimate-i-window": (["estimate-i", *_SMALL_SCALE, "--window", "2000000000"],
                          _BEATTY_ROWS),
    "estimate-j-z": (["estimate-j", *_SMALL_SCALE, "--z", "1e12"], _WINDOW_SUMS),
    "audit-thm1-z": (["audit-thm1", *_SMALL_SCALE, "--z", "1e9"],
                     [(experiments, "substitution_deviation"), *_WINDOW_SUMS]),
    "vaaler-audit-h": (["vaaler-audit", "--h-list", "200000"],
                       [(audits, "build_vaaler_approx")]),
    "vaaler-audit-h-after-a-valid-one": (["vaaler-audit", "--h-list", "5,200000"],
                                         [(audits, "build_vaaler_approx")]),
    "et-audit-max-points": (["et-audit", "--max-points", "2000000000"], _ET_KERNELS),
    "et-audit-h": (["et-audit", "--h", "2000000000"], _ET_KERNELS),
    "et-audit-sets": (["et-audit", "--sets", "1000000000000"], _ET_KERNELS),
    "fourier-audit-alpha-grid": (["fourier-audit", "--alpha-grid", "1000000000000"],
                                 [(audits, "digit_fourier_table")]),
    "fourier-audit-q-list": (["fourier-audit", "--q-list", ",".join(["5"] * 65)],
                             [(audits, "digit_fourier_table")]),
    # 2^14 coefficients fit the guard, 3^14 do not: no base-2 table is built.
    "fourier-audit-level-past-the-guard-in-a-later-base": (
        ["fourier-audit", "--q-list", "2,3", "--lambda-max", "14", "--alpha-grid", "1"],
        [(audits, "digit_fourier_table")]),
}


@pytest.mark.parametrize("argv, kernels", _OVERSIZED.values(), ids=_OVERSIZED.keys())
def test_oversized_input_exits_2_before_any_kernel(argv, kernels, monkeypatch, tmp_path):
    for module, name in kernels:
        monkeypatch.setattr(module, name, lambda *a, _name=name, **k: pytest.fail(
            f"{_name} ran before the size guard"))
    assert dispatch([*argv, "--out", str(tmp_path / "out")]) == 2


_TINY_WINDOW = [*_SMALL_SCALE, "--z", "8"]

# Each bounded input: the arguments before its value, its limit, and the
# kernels that must not run past the limit.
_LIMITS = {
    "estimate-j-theta-grid": (["estimate-j", *_TINY_WINDOW, "--x-samples", "2", "--theta-grid"],
                              experiments._GRID_MAX, _WINDOW_SUMS),
    "estimate-j-x-samples": (["estimate-j", *_TINY_WINDOW, "--theta-grid", "2", "--x-samples"],
                             experiments._SAMPLES_MAX, _WINDOW_SUMS),
    "audit-thm1-theta-grid": (["audit-thm1", *_TINY_WINDOW, "--x-samples", "2", "--theta-grid"],
                              experiments._GRID_MAX,
                              [(experiments, "substitution_deviation"), *_WINDOW_SUMS]),
    "estimate-i-alpha-grid": (["estimate-i", *_SMALL_SCALE, "--window", "8", "--beta-samples",
                               "2", "--alpha-grid"], experiments._GRID_MAX, _BEATTY_ROWS),
    "estimate-i-beta-samples": (["estimate-i", *_SMALL_SCALE, "--window", "8", "--alpha-grid",
                                 "2", "--beta-samples"], experiments._SAMPLES_MAX, _BEATTY_ROWS),
    "beatty-mismatch-r-terms": (["beatty-mismatch", "--f-power", "3/2", "--a", "999990",
                                 "--b", "1000010", "--r-terms"], sequences._R_TERMS_MAX,
                                [(sequences.PowerGrowth, "floor_block")]),
    # The grid limit falls as the largest degree grows: 4096 at H = 1023.
    "vaaler-audit-grid": (["vaaler-audit", "--h-list", "1,1023", "--grid"],
                          audits._VAALER_CELLS_MAX // 1024, [(audits, "build_vaaler_approx")]),
}


@pytest.mark.parametrize("argv, limit, kernels", _LIMITS.values(), ids=_LIMITS.keys())
def test_input_past_its_limit_exits_2_within_a_second(argv, limit, kernels, monkeypatch,
                                                      capsys, tmp_path):
    for module, name in kernels:
        monkeypatch.setattr(module, name, lambda *a, _name=name, **k: pytest.fail(
            f"{_name} ran before the size guard"))
    for value in (limit + 1, 10 ** 12):
        start = time.perf_counter()
        assert dispatch([*argv, str(value), "--out", str(tmp_path / "out")]) == 2
        assert time.perf_counter() - start < 1.0
        assert str(limit) in capsys.readouterr().err


@pytest.mark.parametrize("argv, limit", [v[:2] for v in _LIMITS.values()], ids=_LIMITS.keys())
def test_input_at_its_limit_is_accepted(argv, limit, tmp_path):
    assert dispatch([*argv, str(limit), "--out", str(tmp_path / "out")]) == 0


_HUGE_DENOMINATOR = "1.50000000000000000001"  # c_den = 10^20

_QUICK_EXITS = {
    # A tie at n = 4 would need the 10^20-th root of 4^(1.5 * 10^20).
    "tm-density-huge-denominator": (["tm-density", "--c", _HUGE_DENOMINATOR, "--n", "10"], 2),
    "deviation-huge-denominator": (["deviation", "--f-power", _HUGE_DENOMINATOR,
                                    "--scale", "4"], 2),
    "deviation-huge-integer-exponent": (["deviation", "--f-power", "100000000000000000000",
                                         "--scale", "4"], 2),
    "tm-density-largest-denominator": (["tm-density", "--c", "1999/1000", "--n", "10"], 0),
    # Level 0 is the one-entry table, whatever the base; level 1 has q entries.
    "fourier-audit-level-0-huge-base": (["fourier-audit", "--q-list", "1000000000000",
                                         "--lambda-max", "0", "--alpha-grid", "1"], 0),
    "fourier-audit-level-1-huge-base": (["fourier-audit", "--q-list", "1000000000000",
                                         "--lambda-max", "1", "--alpha-grid", "1"], 2),
    # s_q1 is about the value itself: reduced mod m1 before it is counted.
    "joint-residues-huge-base": (["joint-residues", "--c", "3/2", "--q1", "1000000000000",
                                  "--q2", "3", "--m1", "2", "--m2", "5", "--x", "400000"], 0),
}


@pytest.mark.parametrize("argv, status", _QUICK_EXITS.values(), ids=_QUICK_EXITS.keys())
def test_extreme_exponents_and_bases_exit_within_a_second(argv, status, tmp_path):
    start = time.perf_counter()
    assert dispatch([*argv, "--out", str(tmp_path / "out")]) == status
    assert time.perf_counter() - start < 1.0


def test_fourier_level_guard_runs_before_any_root_table(monkeypatch, tmp_path):
    monkeypatch.setattr(expsums, "_root_table", lambda q, level: pytest.fail(
        f"a root table of {q}^{level} entries was built before the level guard"))
    argv = ["fourier-audit", "--q-list", "2", "--lambda-max", "1000000000000",
            "--alpha-grid", "1", "--out", str(tmp_path / "out")]
    start = time.perf_counter()
    assert dispatch(argv) == 2
    assert time.perf_counter() - start < 1.0


def test_audit_loops_are_bounded_by_named_limits():
    with pytest.raises(ValueError, match=str(audits._ALPHA_GRID_MAX)):
        audits.fourier_bound_audit((2,), 1, audits._ALPHA_GRID_MAX + 1)
    with pytest.raises(ValueError, match=str(audits._SETS_MAX)):
        audits.et_audit(sets=audits._SETS_MAX + 1)
    with pytest.raises(ValueError, match=str(audits._Q_LIST_MAX)):
        audits.fourier_bound_audit((2,) * (audits._Q_LIST_MAX + 1), 1, 1)


@pytest.mark.parametrize("c, limit", [
    (_HUGE_DENOMINATOR, str(sequences._C_DEN_MAX)),
    ("1", f"1 < c <= {sequences._C_MAX}"),
])
def test_bad_exponent_names_the_limit(c, limit, capsys, tmp_path):
    assert dispatch(["tm-density", "--c", c, "--n", "10", "--out", str(tmp_path / "out")]) == 2
    assert limit in capsys.readouterr().err


def _no_floor_block(*args, **kwargs):
    pytest.fail("floor_block ran before the r_terms check")


@pytest.mark.parametrize("r_terms", ["0", "-3"])
def test_mismatch_r_terms_check_runs_before_any_floor(r_terms, monkeypatch, tmp_path):
    monkeypatch.setattr(sequences.PowerGrowth, "floor_block", _no_floor_block)
    argv = ["beatty-mismatch", "--f-power", "3/2", "--a", "4096", "--b", "5120",
            "--r-terms", r_terms, "--out", str(tmp_path / "out")]
    assert dispatch(argv) == 2
    f = sequences.PowerGrowth(3 / 2)
    with pytest.raises(ValueError, match="needs r_terms >= 1"):
        sequences.count_floor_mismatches(f, 4096, 5120, float(f.df(4608)),
                                         r_terms=int(r_terms))


def test_thue_morse_array_rejects_negative_values_like_the_scalar():
    with pytest.raises(ValueError):
        thue_morse_sign(-1)
    with pytest.raises(ValueError, match="nonnegative"):
        thue_morse_sign_array([-1, -3])


@pytest.mark.parametrize("threads", ["0", "-1", "two"])
def test_threads_must_be_positive(threads, tmp_path):
    argv = ["tm-density", "--c", "3/2", "--n", "100", "--threads", threads,
            "--out", str(tmp_path / "out")]
    assert dispatch(argv) == 2


def test_invariant_checks_survive_python_O():
    # Each check breaks a proven invariant on purpose; the floor stream's
    # checks see a floor that decreases within a chunk and across chunks.
    script = textwrap.dedent("""
        import numpy as np
        from digitseq import sequences

        def decreasing_floors(chunk):
            def check():
                sequences._FLOOR_CHUNK = chunk
                sequences._certified_floor = \\
                    lambda v, guard, exact: -np.floor(v).astype(np.int64)
                list(sequences.ps_block_chunks(10, 20, sequences.PowerGrowth("3/2")))
            check.__name__ = f"decreasing_floors_in_chunks_of_{chunk}"
            return check

        for check in (decreasing_floors(1 << 14), decreasing_floors(1)):
            try:
                check()
            except AssertionError:
                continue
            raise SystemExit(f"{check.__name__}: violation passed unnoticed")
        try:
            list(sequences.ps_block_chunks(2 ** 42, 2 ** 42 + 1, sequences.PowerGrowth("3/2")))
        except ValueError:
            pass
        else:
            raise SystemExit("floors beyond 2**62 passed unnoticed")
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(digitseq.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
