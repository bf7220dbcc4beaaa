"""Bad outside input is rejected before any work is spent, and proven
invariants are checked by explicit raises that survive ``python -O``."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import digitseq
from digitseq import experiments, expsums, thue_morse_sign, thue_morse_sign_array
from digitseq.cli import dispatch


def _no_quadrature(level):
    pytest.fail(f"sine_product_integral({level}) ran before the level guard")


def test_rho_level_guard_runs_before_any_level(monkeypatch, tmp_path):
    monkeypatch.setattr(expsums, "sine_product_integral", _no_quadrature)
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
    # Each check breaks a proven invariant on purpose.
    script = textwrap.dedent("""
        import numpy as np
        from digitseq import digits

        def descend_with_wrong_top_index():
            digits._zeck_descend(4, 5)

        def carries_without_truncation():
            digits.truncated_digit_sum_array = \\
                lambda values, spec: np.asarray(values, dtype=np.int64)
            digits.count_carry_mismatches(0, 1000, 1, digits.TruncatedDigitSpec(2, 8))

        for check in (descend_with_wrong_top_index, carries_without_truncation):
            try:
                check()
            except AssertionError:
                continue
            raise SystemExit(f"{check.__name__}: violation passed unnoticed")
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(digitseq.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
