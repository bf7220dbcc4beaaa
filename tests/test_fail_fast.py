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
from digitseq import audits, cli, experiments, expsums, sequences, thue_morse_sign, \
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


# In every row the flag it bounds comes last (test_every_flag_has_a_row_or_a_reason).
_SCALE_1E12 = ["--f-power", "3/2", "--scale", "1000000000000"]
_SMALL_SCALE = ["--f-power", "3/2", "--scale", "4096"]
_WINDOW_SUMS = [(experiments, "window_exp_sums")]
_BEATTY_ROWS = [(experiments, "beatty_floor_rows")]
_ET_KERNELS = [(audits, "exact_discrepancy"), (audits, "erdos_turan_bound")]

_OVERSIZED = {
    # f(A) ... f(2A) is 1e18 ... 2.8e18, where doubles are multiples of 128
    # to 512 and no window (x, x + z] of doubles holds a term: estimate-j
    # would read 0.
    "estimate-j-scale": (["estimate-j", "--z", "64", "--theta-grid", "2", "--x-samples", "2",
                          *_SCALE_1E12], _WINDOW_SUMS),
    "estimate-i-scale": (["estimate-i", "--window", "64", *_SCALE_1E12], _BEATTY_ROWS),
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
    "vaaler-audit-h-list": (["vaaler-audit", "--h-list", ",".join(["5"] * 65)],
                            [(audits, "build_vaaler_approx")]),
    "et-audit-max-points": (["et-audit", "--max-points", "2000000000"], _ET_KERNELS),
    "et-audit-h": (["et-audit", "--h", "2000000000"], _ET_KERNELS),
    "et-audit-sets": (["et-audit", "--sets", "1000000000000"], _ET_KERNELS),
    "fourier-audit-alpha-grid": (["fourier-audit", "--alpha-grid", "1000000000000"],
                                 [(audits, "digit_fourier_table")]),
    "fourier-audit-q-list": (["fourier-audit", "--q-list", ",".join(["5"] * 65)],
                             [(audits, "digit_fourier_table")]),
    # A chain of 16 385 coefficients, but level 1 takes 16 384 passes over
    # its entries: 2^28 steps, eight times the work limit.
    "fourier-audit-level-1-wide-base": (["fourier-audit", "--q-list", "16384", "--lambda-max",
                                         "1", "--alpha-grid", "1"],
                                        [(audits, "digit_fourier_table")]),
    # 2^14 coefficients fit the guard, 3^14 do not: no base-2 table is built.
    "fourier-audit-level-past-the-guard-in-a-later-base": (
        ["fourier-audit", "--q-list", "2,3", "--alpha-grid", "1", "--lambda-max", "14"],
        [(audits, "digit_fourier_table")]),
}

# A malformed --phi is rejected before the first floor and the first digit sum.
_FLOORS_AND_DIGITS = [(sequences.PowerGrowth, "floor_exact"),
                      (sequences.PowerGrowth, "floor_block"),
                      (experiments, "beatty_floor_rows"), (experiments, "window_exp_sums"),
                      (experiments, "digit_sum_array"), (experiments, "digit_table_range_sums")]
_BAD_PHI = {
    "deviation-phi-base-1": ["deviation", *_SMALL_SCALE, "--phi", "digit-exp:1:1/3"],
    "estimate-i-phi-two-fields": ["estimate-i", "--window", "8", *_SMALL_SCALE, "--phi",
                                  "digit-exp:3"],
    "estimate-j-phi-huge-base": ["estimate-j", "--z", "8", *_SMALL_SCALE, "--phi",
                                 "digit-exp:1000000000000:1/3"],
    "audit-thm1-phi-base-past-the-limit": ["audit-thm1", "--z", "8", *_SMALL_SCALE, "--phi",
                                           f"digit-exp:{experiments._PHI_BASE_MAX + 1}:1/3"],
    "deviation-phi-base-past-the-int-digit-limit": ["deviation", *_SMALL_SCALE, "--phi",
                                                    f"digit-exp:{'1' * 5000}:1/3"],
    "deviation-phi-zero-denominator": ["deviation", *_SMALL_SCALE, "--phi", "digit-exp:3:1/0"],
    "estimate-j-phi-alpha-not-a-fraction": ["estimate-j", "--z", "8", *_SMALL_SCALE, "--phi",
                                            "digit-exp:3:x"],
}
_OVERSIZED.update({name: (argv, _FLOORS_AND_DIGITS) for name, argv in _BAD_PHI.items()})

# A rational literal's decimal exponent E is bounded before Fraction builds
# 10^|E| in full: each argv up to the literal, and the literal's form.
_LITERAL_EXP_MAX = sequences._LITERAL_EXP_MAX
_LITERAL_FLAGS = {
    "tm-density-c": (["tm-density", "--n", "100", "--c"], "{}"),
    "deviation-f-power": (["deviation", "--scale", "4096", "--f-power"], "{}"),
    "deviation-phi": (["deviation", *_SMALL_SCALE, "--phi"], "digit-exp:3:{}"),
    "exponents-a": (["exponents", "--c", "3/2", "--a"], "{}"),
    "exponents-c": (["exponents", "--a", "1/2", "--c"], "{}"),
}
_OVERSIZED.update({f"{name}-exponent": ([*argv, form.format("1e10000000")], _FLOORS_AND_DIGITS)
                   for name, (argv, form) in _LITERAL_FLAGS.items()})

# A window start where f' is not real (a < 0) or, for c < 2, f'' is unbounded
# (a = 0) is rejected before any floor, by a message that names --a.
_BAD_WINDOW_START = {
    "beatty-mismatch-negative-a": ["beatty-mismatch", "--f-power", "3/2", "--b", "1000",
                                   "--a", "-5"],
    "beatty-mismatch-a-0-where-f2-is-unbounded": ["beatty-mismatch", "--f-power", "3/2",
                                                  "--b", "1000000", "--a", "0"],
    "beatty-mismatch-negative-a-at-c-2": ["beatty-mismatch", "--f-power", "2", "--b", "1000",
                                          "--a", "-1"],
}
_OVERSIZED.update({name: (argv, [(sequences.PowerGrowth, "floor_block")])
                   for name, argv in _BAD_WINDOW_START.items()})

_DEVIATION_SUMS = [(sequences.PowerGrowth, "floor_block"), (sequences.PowerGrowth, "df_inv"),
                   (experiments, "_tm_weighted_sum")]

# Work limits of the deviation sums, whose values f(2A) <= 2^40 are in range:
# each input, and the limit its message names.
_WORK_LIMITS = {
    # A = 2^27 + 1 first-sum terms; f(2A) is about 2^28.3 at c = 101/100.
    "deviation-first-sum": (["deviation", "--f-power", "101/100", "--scale",
                             str(experiments._N_MAX + 1)], experiments._N_MAX),
    # f(2A) - f(A) is about 1.5e10 terms, summed term by term for phi = one.
    "deviation-second-sum": (["deviation", "--phi", "one", "--f-power", "3/2", "--scale",
                              "4000000"], experiments._TERMS_MAX),
    "deviation-second-sum-digit-exp": (["deviation", "--phi", "digit-exp:3:1/3", "--f-power",
                                        "3/2", "--scale", "200000"], experiments._TERMS_MAX),
    "audit-thm1-second-sum": (["audit-thm1", "--phi", "one", "--z", "8", "--f-power", "3/2",
                               "--scale", "4000000"], experiments._TERMS_MAX),
}
_OVERSIZED.update({name: (argv, [*_DEVIATION_SUMS, *_WINDOW_SUMS])
                   for name, (argv, _) in _WORK_LIMITS.items()})


def _fail_kernels(monkeypatch, kernels) -> None:
    for module, name in kernels:
        monkeypatch.setattr(module, name, lambda *a, _name=name, **k: pytest.fail(
            f"{_name} ran before the size guard"))


@pytest.mark.parametrize("argv, kernels", _OVERSIZED.values(), ids=_OVERSIZED.keys())
def test_oversized_input_exits_2_before_any_kernel(argv, kernels, monkeypatch, tmp_path):
    _fail_kernels(monkeypatch, kernels)
    assert dispatch([*argv, "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("argv, limit", _WORK_LIMITS.values(), ids=_WORK_LIMITS.keys())
def test_deviation_work_limit_is_named_within_a_second(argv, limit, monkeypatch, capsys,
                                                       tmp_path):
    _fail_kernels(monkeypatch, [*_DEVIATION_SUMS, *_WINDOW_SUMS])
    start = time.perf_counter()
    assert dispatch([*argv, "--out", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - start < 1.0
    assert str(limit) in capsys.readouterr().err


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
    "audit-thm1-x-samples": (["audit-thm1", *_TINY_WINDOW, "--theta-grid", "2", "--x-samples"],
                             experiments._SAMPLES_MAX,
                             [(experiments, "substitution_deviation"), *_WINDOW_SUMS]),
    "estimate-i-alpha-grid": (["estimate-i", *_SMALL_SCALE, "--window", "8", "--beta-samples",
                               "2", "--alpha-grid"], experiments._GRID_MAX, _BEATTY_ROWS),
    "estimate-i-beta-samples": (["estimate-i", *_SMALL_SCALE, "--window", "8", "--alpha-grid",
                                 "2", "--beta-samples"], experiments._SAMPLES_MAX, _BEATTY_ROWS),
    "beatty-mismatch-r-terms": (["beatty-mismatch", "--f-power", "3/2", "--a", "999990",
                                 "--b", "1000010", "--r-terms"], sequences._R_TERMS_MAX,
                                [(sequences.PowerGrowth, "floor_block")]),
    # b - a from a = 0, where f'' = 2 is bounded (for c < 2 it is not, and
    # the lemma's curvature bound fails at a = 0 before the window matters).
    "beatty-mismatch-window": (["beatty-mismatch", "--f-power", "2", "--a", "0", "--b"],
                               sequences._MISMATCH_SPAN_MAX,
                               [(sequences.PowerGrowth, "floor_block")]),
    "rho-lambda-max": (["rho", "--lambda-max"], expsums._LEVEL_MAX,
                       [(expsums, "sine_product_integral"), (expsums, "_operator_integrals")]),
    # The grid limit falls as the largest degree grows: 4096 at H = 1023.
    "vaaler-audit-grid": (["vaaler-audit", "--h-list", "1,1023", "--grid"],
                          audits._VAALER_CELLS_MAX // 1024, [(audits, "build_vaaler_approx")]),
    # Past the work limit the grid falls below _ALPHA_GRID_MAX: 331 at q = 5, level 6.
    "fourier-audit-alpha-grid-work": (["fourier-audit", "--q-list", "5", "--lambda-max", "6",
                                       "--alpha-grid"],
                                      audits._FOURIER_STEPS_MAX // audits._fourier_steps(5, 6),
                                      [(audits, "digit_fourier_table")]),
    # Rejected by the CLI type check, before any worker pool starts.
    "threads": (["tm-density", "--c", "3/2", "--n", "100", "--threads"], cli._THREADS_MAX,
                [(experiments, "_map_ordered"), (experiments, "ps_block_chunks")]),
}


@pytest.mark.parametrize("argv, limit, kernels", _LIMITS.values(), ids=_LIMITS.keys())
def test_input_past_its_limit_exits_2_within_a_second(argv, limit, kernels, monkeypatch,
                                                      capsys, tmp_path):
    _fail_kernels(monkeypatch, kernels)
    for value in (limit + 1, 10 ** 12):
        start = time.perf_counter()
        assert dispatch([*argv, str(value), "--out", str(tmp_path / "out")]) == 2
        assert time.perf_counter() - start < 1.0
        assert str(limit) in capsys.readouterr().err


@pytest.mark.parametrize("argv, limit", [v[:2] for v in _LIMITS.values()], ids=_LIMITS.keys())
def test_input_at_its_limit_is_accepted(argv, limit, tmp_path):
    assert dispatch([*argv, str(limit), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("argv", _BAD_PHI.values(), ids=_BAD_PHI.keys())
def test_malformed_phi_names_its_form_and_base_limit(argv, monkeypatch, capsys, tmp_path):
    _fail_kernels(monkeypatch, _FLOORS_AND_DIGITS)
    assert dispatch([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "digit-exp:q:a/b" in err and str(experiments._PHI_BASE_MAX) in err
    # The text is echoed up to experiments._ECHO_MAX characters, and its length past that.
    assert len(err) <= 256


@pytest.mark.parametrize("argv, form", _LITERAL_FLAGS.values(), ids=_LITERAL_FLAGS.keys())
def test_literal_exponent_past_its_limit_is_named_within_a_second(argv, form, monkeypatch,
                                                                  capsys, tmp_path):
    _fail_kernels(monkeypatch, _FLOORS_AND_DIGITS)
    for literal in (f"1e{_LITERAL_EXP_MAX + 1}", f"1E-{_LITERAL_EXP_MAX + 1}", "1e10000000",
                    "1e-1_000_000_0", f"1e{'9' * 5000}"):
        start = time.perf_counter()
        assert dispatch([*argv, form.format(literal), "--out", str(tmp_path / "out")]) == 2
        assert time.perf_counter() - start < 1.0
        assert str(_LITERAL_EXP_MAX) in capsys.readouterr().err


# At the limit the literal is parsed.  10^-4300 is a valid digit-exp a/b and a
# valid exponent a; no c of 10^+-4300 lies in its range, which is named instead.
_AT_LITERAL_LIMIT = {
    "deviation-phi-1e400": (["deviation", *_SMALL_SCALE, "--phi", "digit-exp:3:1e400"],
                            0, ""),
    "deviation-phi": (["deviation", *_SMALL_SCALE, "--phi", f"digit-exp:3:1e{_LITERAL_EXP_MAX}"],
                      0, ""),
    "exponents-a": (["exponents", "--c", "3/2", "--a", f"1e-{_LITERAL_EXP_MAX}"], 0, ""),
    "exponents-c": (["exponents", "--a", "1/2", "--c", f"1e-{_LITERAL_EXP_MAX}"], 2,
                    "needs 1 < c < 2"),
    "tm-density-c": (["tm-density", "--n", "100", "--c", f"1e-{_LITERAL_EXP_MAX}"], 2,
                     f"1 < c <= {sequences._C_MAX}"),
    "deviation-f-power": (["deviation", "--scale", "4096", "--f-power",
                           f"1e{_LITERAL_EXP_MAX}"], 2, f"1 < c <= {sequences._C_MAX}"),
}


@pytest.mark.parametrize("argv, status, message", _AT_LITERAL_LIMIT.values(),
                         ids=_AT_LITERAL_LIMIT.keys())
def test_literal_exponent_at_its_limit_is_parsed(argv, status, message, capsys, tmp_path):
    start = time.perf_counter()
    assert dispatch([*argv, "--out", str(tmp_path / "out")]) == status
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert message in err and "decimal exponent" not in err


# A scale below 1 is named before the floor f(2A); the argv up to the scale.
_SCALE_FLOORS = [(sequences.PowerGrowth, "floor_exact"), (sequences.PowerGrowth, "floor_block")]
_SCALED = {
    "estimate-j": ["estimate-j", "--z", "8", "--f-power", "3/2", "--scale"],
    "estimate-i": ["estimate-i", "--window", "8", "--f-power", "3/2", "--scale"],
}


@pytest.mark.parametrize("argv", _SCALED.values(), ids=_SCALED.keys())
def test_scale_below_1_is_named_and_1_is_accepted(argv, monkeypatch, capsys, tmp_path):
    assert dispatch([*argv, "1", "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    _fail_kernels(monkeypatch, _SCALE_FLOORS)
    for scale in ("0", "-3"):
        start = time.perf_counter()
        assert dispatch([*argv, scale, "--out", str(tmp_path / "out")]) == 2
        assert time.perf_counter() - start < 1.0
        assert f"A >= 1, got {scale}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", _BAD_WINDOW_START.values(), ids=_BAD_WINDOW_START.keys())
def test_bad_window_start_names_a(argv, monkeypatch, capsys, tmp_path):
    _fail_kernels(monkeypatch, [(sequences.PowerGrowth, "floor_block")])
    assert dispatch([*argv, "--out", str(tmp_path / "out")]) == 2
    assert "--a" in capsys.readouterr().err
    f = sequences.PowerGrowth(argv[2])
    if int(argv[-1]) < 0:
        with pytest.raises(ValueError, match="0 <= a <= b"):
            sequences.count_floor_mismatches(f, int(argv[-1]), 1000, 1.0)


# Flags that no row of _OVERSIZED or _LIMITS bounds, with what bounds them or
# why they need no bound, as "command --flag".
_EXEMPT = {
    **dict.fromkeys(["joint-residues --c", "zeck-residues --c", "beatty-mismatch --f-power",
                     "audit-thm1 --f-power", "estimate-j --f-power", "estimate-i --f-power"],
                    "PowerGrowth bounds c, its denominator (test_bad_exponent_names_the_limit) "
                    "and its literal's exponent (_LITERAL_FLAGS, tm-density --c)"),
    **dict.fromkeys(["tm-density --n", "joint-residues --x", "zeck-residues --x"],
                    "_N_MAX, checked before any floor "
                    "(test_residue_size_guard_runs_before_any_floor)"),
    **dict.fromkeys(["joint-residues --m1", "joint-residues --m2", "zeck-residues --m"],
                    "_MODULUS_MAX (test_residue_moduli_are_bounded_before_any_floor)"),
    **dict.fromkeys(["joint-residues --q1", "joint-residues --q2"],
                    "any base: a digit sum wider than its modulus is reduced before it is "
                    "counted (_QUICK_EXITS, joint-residues-huge-base)"),
    **dict.fromkeys(["joint-residues --l1", "joint-residues --l2", "zeck-residues --a"],
                    "a residue target, reduced mod its modulus"),
    "tm-density --checkpoints": "the marks stop at the bit length of n "
                                "(test_checkpoints_stop_at_the_bit_length_of_n)",
    "beatty-mismatch --alpha": "must lie in f'([a, b]), checked before any floor",
    "et-audit --seed": "seeds the point sets: every seed costs the same",
    # The flags that every subcommand takes, named without a command.
    "--out": "an output path, opened once the report is built",
    "--format": "a choice of csv or json",
}


def test_every_flag_has_a_row_or_a_reason():
    sub = next(a for a in cli._PARSER._actions if a.dest == "command")
    by_command = {name: {flag for a in p._actions for flag in a.option_strings} - {"-h", "--help"}
                  for name, p in sub.choices.items()}
    common = set.intersection(*by_command.values())

    def key(command: str, flag: str) -> str:
        return flag if flag in common else f"{command} {flag}"

    rows = [argv for argv, *_ in (*_OVERSIZED.values(), *_LIMITS.values())]
    bounded = {key(argv[0], [a for a in argv if a.startswith('--')][-1]) for argv in rows}
    flags = {key(name, flag) for name, command_flags in by_command.items()
             for flag in command_flags}
    assert sorted(flags - bounded - _EXEMPT.keys()) == []
    assert sorted(_EXEMPT.keys() - flags) == [] and sorted(_EXEMPT.keys() & bounded) == []


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


def test_fourier_work_limit_admits_the_defaults():
    # Bases 2, 3 and 5 at level 6: the CLI's default grid of 64 alphas, and
    # perfbench's largest fourier-audit grid is 16.
    assert 64 * sum(audits._fourier_steps(q, 6) for q in (2, 3, 5)) <= audits._FOURIER_STEPS_MAX


def test_h_list_at_its_length_limit_is_accepted_and_past_it_named(monkeypatch, capsys, tmp_path):
    def argv(length: int) -> list[str]:
        return ["vaaler-audit", "--h-list", ",".join(["1"] * length), "--grid", "2",
                "--out", str(tmp_path / "out")]

    assert dispatch(argv(audits._H_LIST_MAX)) == 0
    capsys.readouterr()
    _fail_kernels(monkeypatch, [(audits, "build_vaaler_approx")])
    assert dispatch(argv(audits._H_LIST_MAX + 1)) == 2
    assert f"at most {audits._H_LIST_MAX} degrees" in capsys.readouterr().err


def test_et_audit_needs_three_as_max_points(monkeypatch, capsys, tmp_path):
    # n is drawn from [2, max_points), which is empty at max_points = 2.
    argv = ["et-audit", "--sets", "3", "--out", str(tmp_path / "out"), "--max-points"]
    assert dispatch([*argv, "3"]) == 0
    capsys.readouterr()
    _fail_kernels(monkeypatch, _ET_KERNELS)
    assert dispatch([*argv, "2"]) == 2
    assert f"3 <= max_points <= {audits._MAX_POINTS}" in capsys.readouterr().err


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
