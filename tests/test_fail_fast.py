"""Bad outside input is rejected before any work is spent, and proven
invariants are checked by explicit raises that survive ``python -O``."""

import os
import subprocess
import sys
import textwrap
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
}


@pytest.mark.parametrize("argv, kernels", _OVERSIZED.values(), ids=_OVERSIZED.keys())
def test_oversized_input_exits_2_before_any_kernel(argv, kernels, monkeypatch, tmp_path):
    for module, name in kernels:
        monkeypatch.setattr(module, name, lambda *a, _name=name, **k: pytest.fail(
            f"{_name} ran before the size guard"))
    assert dispatch([*argv, "--out", str(tmp_path / "out")]) == 2


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


@pytest.mark.parametrize("raw", ["1GiB", "0", "-5"])
def test_max_memory_must_be_a_positive_byte_count(raw, monkeypatch, tmp_path):
    monkeypatch.setenv("DIGITSEQ_MAX_MEMORY", raw)
    with pytest.raises(ValueError, match="DIGITSEQ_MAX_MEMORY"):
        expsums.max_table_bytes()
    argv = ["fourier-audit", "--lambda-max", "2", "--alpha-grid", "2",
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
                list(sequences.ps_block_chunks(10, 20, sequences.PSSpec(3, 2)))
            check.__name__ = f"decreasing_floors_in_chunks_of_{chunk}"
            return check

        for check in (decreasing_floors(1 << 14), decreasing_floors(1)):
            try:
                check()
            except AssertionError:
                continue
            raise SystemExit(f"{check.__name__}: violation passed unnoticed")
        try:
            list(sequences.ps_block_chunks(2 ** 42, 2 ** 42 + 1, sequences.PSSpec(3, 2)))
        except ValueError:
            pass
        else:
            raise SystemExit("floors beyond 2**62 passed unnoticed")
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(digitseq.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
