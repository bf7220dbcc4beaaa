"""Golden report bytes for every subcommand, byte identity across --threads,
and the exit-code contract (0 ok, 1 audit failed, 2 bad input).

The files under tests/golden/ pin the CSV and JSON reports byte for byte.
They are recorded once and only rewritten for a deliberate change of report
contents, one named case at a time, with

    PYTHONPATH=src python tests/test_cli_golden.py CASE [CASE ...]

Without a case name the recorder lists the cases and writes nothing.

The cases are small but tie-heavy: exponents 3/2, 4/3 and 5/4 put exact
integers floor(n^c) at perfect powers inside every range, and the mismatch
windows contain n = 1000^2 and n = 30^4.
"""

import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import mpmath
import numpy as np
import pytest

import digitseq
import oracles
from digitseq import audits, cli, experiments, expsums, sequences, thue_morse_sign_array
from digitseq.cli import dispatch
from oracles import needs_long_double

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "rho": ["rho", "--lambda-max", "12"],
    "fourier-audit": ["fourier-audit", "--q-list", "2,3", "--lambda-max", "3",
                      "--alpha-grid", "8"],
    # 5^5 = 3125 coefficients at the top level: a grid of 7 alphas falls into
    # uneven blocks of alphas (5 + 2 at q = 5), and q = 5 is reached.
    "fourier-audit-3-5": ["fourier-audit", "--q-list", "3,5", "--lambda-max", "5",
                          "--alpha-grid", "7"],
    "tm-density-3-2": ["tm-density", "--c", "3/2", "--n", "1048576", "--checkpoints", "8"],
    "tm-density-71-50": ["tm-density", "--c", "71/50", "--n", "300000"],
    "joint-residues": ["joint-residues", "--c", "9/7", "--q1", "2", "--q2", "3",
                       "--m1", "3", "--m2", "5", "--x", "400000"],
    "joint-residues-3-4": ["joint-residues", "--c", "3/2", "--q1", "3", "--q2", "4",
                           "--m1", "3", "--m2", "5", "--l1", "1", "--l2", "2",
                           "--x", "400000"],
    "joint-residues-4-5": ["joint-residues", "--c", "71/50", "--q1", "4", "--q2", "5",
                           "--m1", "5", "--m2", "3", "--x", "400000"],
    "zeck-residues-4-3": ["zeck-residues", "--c", "4/3", "--m", "3", "--x", "400000"],
    "zeck-residues-71-50": ["zeck-residues", "--c", "71/50", "--m", "5", "--a", "2",
                            "--x", "400000"],
    "beatty-mismatch-3-2": ["beatty-mismatch", "--f-power", "3/2",
                            "--a", "999950", "--b", "1000050"],
    "beatty-mismatch-3-2-narrow": ["beatty-mismatch", "--f-power", "3/2",
                                   "--a", "999990", "--b", "1000010"],
    "beatty-mismatch-3-2-alpha": ["beatty-mismatch", "--f-power", "3/2",
                                  "--a", "999900", "--b", "1000100", "--alpha", "1500.03125"],
    "beatty-mismatch-5-4": ["beatty-mismatch", "--f-power", "5/4",
                            "--a", "808000", "--b", "812000"],
    "deviation-3-2": ["deviation", "--f-power", "3/2", "--scale", "4096"],
    "deviation-5-4": ["deviation", "--f-power", "5/4", "--scale", "32768"],
    # A complex phi, whose 2nd sum is taken term by term through f.df_inv,
    # and c = 2, whose floors come from the int64 power stream.
    "deviation-digit-exp": ["deviation", "--phi", "digit-exp:3:1/3", "--f-power", "5/4",
                            "--scale", "4096"],
    "deviation-2": ["deviation", "--f-power", "2", "--scale", "1024"],
    "audit-thm1-3-2": ["audit-thm1", "--f-power", "3/2", "--scale", "2048", "--z", "64",
                       "--theta-grid", "8", "--x-samples", "3"],
    "audit-thm1-5-4": ["audit-thm1", "--f-power", "5/4", "--scale", "4096", "--z", "64",
                       "--theta-grid", "8", "--x-samples", "3"],
    "estimate-j": ["estimate-j", "--f-power", "5/4", "--scale", "4096", "--z", "64",
                   "--theta-grid", "8", "--x-samples", "3"],
    "estimate-i": ["estimate-i", "--f-power", "3/2", "--scale", "4096", "--window", "64",
                   "--alpha-grid", "4", "--beta-samples", "3"],
    # Complex phi (complex row sums, s2 summed term by term) and a fractional
    # z, whose window term counts differ between window starts.
    "estimate-j-digit-exp": ["estimate-j", "--phi", "digit-exp:3:1/3", "--f-power", "5/4",
                             "--scale", "4096", "--z", "40.5", "--theta-grid", "8",
                             "--x-samples", "3"],
    "estimate-i-digit-exp": ["estimate-i", "--phi", "digit-exp:2:1/3", "--f-power", "3/2",
                             "--scale", "4096", "--window", "64", "--alpha-grid", "4",
                             "--beta-samples", "3"],
    "audit-thm1-3-2-fractional-z": ["audit-thm1", "--f-power", "3/2", "--scale", "2048",
                                    "--z", "40.5", "--theta-grid", "8", "--x-samples", "3"],
    "exponents": ["exponents", "--a", "1/2", "--c", "5/4"],
    "vaaler-audit": ["vaaler-audit", "--h-list", "1,5,10", "--grid", "1000"],
    "et-audit": ["et-audit", "--sets", "9", "--h", "16", "--max-points", "200"],
}

# Commands whose work is split over --threads workers.
THREADED = ("tm-density-3-2", "joint-residues", "joint-residues-3-4", "joint-residues-4-5",
            "zeck-residues-4-3", "zeck-residues-71-50", "deviation-3-2", "audit-thm1-3-2")


def _report(argv: list[str], path: Path) -> bytes:
    assert dispatch([*argv, "--out", str(path)]) == 0
    return path.read_bytes()


def test_every_subcommand_has_a_golden_case():
    from digitseq.cli import _build_parser

    sub = next(a for a in _build_parser()._actions if a.dest == "command")
    assert set(sub.choices) == {argv[0] for argv in CASES.values()}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden(name, fmt, tmp_path):
    got = _report([*CASES[name], "--format", fmt], tmp_path / "out")
    assert got == (GOLDEN / f"{name}.{fmt}").read_bytes()


@pytest.mark.parametrize("name", THREADED)
def test_threads_do_not_change_report_bytes(name, tmp_path):
    one = _report([*CASES[name], "--threads", "1"], tmp_path / "one")
    two = _report([*CASES[name], "--threads", "2"], tmp_path / "two")
    assert one == two


# sum2 and lhs_per_A of the deviation cases as the term-by-term complex128
# sum gave them before the Thue-Morse block cancellation replaced it.
_TERM_BY_TERM = {
    "deviation-3-2": (0.010416666666665995, 0.014162699381510416),
    "deviation-5-4": (-0.050000000000001626, 0.01526031494140625),
}

@lru_cache
def _long_double_sum2(name: str) -> np.longdouble:
    """sum2 of a deviation case, sum_{f(A)<m<=f(2A)} t(m) m^(1/c-1)/c, term by
    term over the whole range in np.longdouble."""
    argv = CASES[name]
    c = Fraction(argv[argv.index("--f-power") + 1])
    A = int(argv[argv.index("--scale") + 1])
    f = sequences.PowerGrowth(c)
    m = np.arange(f.floor_exact(A) + 1, f.floor_exact(2 * A) + 1, dtype=np.int64)
    inv_c = np.longdouble(c.denominator) / c.numerator
    return np.sum(thue_morse_sign_array(m) * (inv_c * m.astype(np.longdouble) ** (inv_c - 1)))


@needs_long_double
@pytest.mark.parametrize("name", sorted(_TERM_BY_TERM))
def test_deviation_sum2_matches_a_long_double_sum(name):
    argv = CASES[name]
    f = sequences.PowerGrowth(Fraction(argv[argv.index("--f-power") + 1]))
    rep = experiments.substitution_deviation("thue-morse", f, int(argv[argv.index("--scale") + 1]))
    assert abs(np.longdouble(rep.sum2.real) - _long_double_sum2(name)) <= np.spacing(abs(rep.sum2.real))


@needs_long_double
@pytest.mark.parametrize("name", sorted(_TERM_BY_TERM))
def test_deviation_rows_match_an_oracle(name):
    # Every JSON and CSV value that changed with the block cancellation is at
    # least as close to the long-double oracle as the term-by-term value was.
    report = json.loads((GOLDEN / f"{name}.json").read_text())
    header, row = (GOLDEN / f"{name}.csv").read_text().splitlines()
    row = dict(zip(header.split(","), row.split(",")))
    sum2 = _long_double_sum2(name)
    lhs = abs(np.longdouble(report["sum1"]["re"]) - sum2) / report["A"]
    old_sum2, old_lhs = _TERM_BY_TERM[name]
    for new, old, exact in ((report["sum2"]["re"], old_sum2, sum2),
                            (float(row["sum2_re"]), float("%.15g" % old_sum2), sum2),
                            (report["lhs_per_A"], old_lhs, lhs),
                            (float(row["lhs_per_A"]), float("%.15g" % old_lhs), lhs)):
        if new != old:
            assert abs(np.longdouble(new) - exact) <= abs(np.longdouble(old) - exact), (new, old)


# value and refinement_delta of estimate-i-digit-exp as the pairwise sum of
# each second range gave them, before the second sums took digit blocks.
_PAIRWISE_S2 = {"estimate-i-digit-exp": (0.18085711292023446, 0.05898648760529088)}


def _estimate_i_case(name: str) -> tuple:
    argv = CASES[name]
    flag = lambda name: argv[argv.index(name) + 1]
    return (experiments.resolve_phi(flag("--phi")), sequences.PowerGrowth(flag("--f-power")),
            int(flag("--scale")), int(flag("--window")), int(flag("--alpha-grid")),
            int(flag("--beta-samples")))


@pytest.mark.parametrize("name", sorted(_PAIRWISE_S2))
def test_estimate_i_rows_match_an_oracle(name):
    # Every JSON and CSV value that changed with the digit blocks is at least
    # as close as the old value to the per-line estimates with exact second
    # sums, e(a s / b) weighted by exact residue counts at 40 digits; the first
    # sums did not change.  With exact first sums too, the value stays within
    # the table's rounding of phi, which the first sums still carry.
    phi, f, A, K, grid, samples = _estimate_i_case(name)
    report = json.loads((GOLDEN / f"{name}.json").read_text())
    header, row = (GOLDEN / f"{name}.csv").read_text().splitlines()
    row = dict(zip(header.split(","), row.split(",")))
    old_value, old_delta = _PAIRWISE_S2[name]
    with mpmath.workdps(40):
        value, refined = (oracles.beatty_estimate_per_line(phi, f, A, K, g, s, exact_s2=True)
                          for g, s in ((grid, samples), (2 * grid, 2 * samples)))
        for new, old, exact in ((report["value"], old_value, value),
                                (float(row["value"]), float("%.15g" % old_value), value),
                                (report["refinement_delta"], old_delta, abs(refined - value)),
                                (float(row["refinement_delta"]), float("%.15g" % old_delta),
                                 abs(refined - value))):
            if new != old:
                assert abs(new - exact) <= abs(old - exact), (new, old)
        alpha = Fraction(phi.name.split(":")[2])
        top = int(f.f(2 * A) + K * f.df(2 * A)) + 1  # above every floor and second range
        rounding = max(abs(complex(phi.table[s]) - mpmath.expjpi(
            mpmath.mpf(2 * alpha.numerator * s) / alpha.denominator))
            for s in range(experiments._digit_sum_width(phi.q, top)))
        exact = oracles.beatty_estimate_per_line(phi, f, A, K, grid, samples, exact_s1=True,
                                                 exact_s2=True)
        assert abs(report["value"] - exact) <= rounding


@pytest.mark.parametrize("name", sorted(_PAIRWISE_S2))
def test_estimate_i_second_sums_are_closer_than_the_pairwise_sums(name):
    # Each second sum of both estimates of the case, by digit blocks and by a
    # pairwise sum of its range, against its exact value.
    phi, f, A, K, grid, samples = _estimate_i_case(name)
    a_lo, a_hi, f_lo, f_hi = (float(v) for v in (f.df(A), f.df(2 * A), f.f(A), f.f(2 * A)))
    for g, s in ((grid, samples), (2 * grid, 2 * samples)):
        betas = experiments._sup_points(f_lo, f_hi, s, K * a_hi)
        alphas = np.repeat(np.linspace(a_lo, a_hi, g), len(betas))
        lo = np.floor(np.tile(betas, g)).astype(np.int64) + 1
        hi = np.floor(np.tile(betas, g) + K * alphas).astype(np.int64)
        blocks = digitseq.digit_table_range_sums(lo, hi, phi.q, phi.table)
        for a, b, got in zip(lo.tolist(), hi.tolist(), blocks):
            m = np.arange(a, b + 1, dtype=np.int64)
            with mpmath.workdps(40):
                exact = oracles.exact_phi_sum(phi, m)
                assert abs(got - exact) <= abs(np.sum(phi(m)) - exact), (a, b)


# JSON values of the audit reports that the complex128 Erdos-Turan, digit
# Fourier and Vaaler kernels gave before the exact-phase long-double kernels,
# by field and row; every other value of those reports is unchanged.
_COMPLEX128 = {
    "et-audit": {"bound": {
        0: 0.2886524367465822, 1: 1.9251522252436486, 3: 0.8591684513815823,
        4: 1.9237770375122718, 5: 0.13550304402258223, 7: 1.9386354660385454,
        8: 0.19567708918417026}},
    "fourier-audit": {
        "max_abs_coeff": {
            22: 0.7071067811865475, 23: 0.8535533905932738, 25: 0.7885805074747374,
            28: 0.6532814824381882, 30: 0.6532814824381875, 42: 0.9106836025229593,
            43: 0.9772838841927121, 44: 0.6666666666666669, 45: 0.9772838841927121,
            47: 0.8047378541243648, 50: 0.6938119582052927, 51: 0.916241290990423,
            52: 0.6398633870159591, 54: 0.6938119582052923, 55: 0.6476030138606875,
            58: 0.5677110064729055, 59: 0.7845564446628231, 60: 0.6369790354712712,
            61: 0.7845564446628228, 62: 0.5677110064729053, 63: 0.521150659698721},
        "parseval_error": {
            10: 2.220446049250313e-16, 13: 1.1102230246251565e-16, 20: 2.220446049250313e-16,
            22: 2.220446049250313e-16, 23: 2.220446049250313e-16, 25: 1.1102230246251565e-16,
            28: 3.3306690738754696e-16, 30: 1.1102230246251565e-15, 41: 2.220446049250313e-16,
            42: 4.440892098500626e-16, 43: 2.220446049250313e-16, 44: 2.220446049250313e-16,
            45: 2.220446049250313e-16, 46: 1.1102230246251565e-16, 47: 6.661338147750939e-16,
            51: 3.3306690738754696e-16, 52: 7.771561172376096e-16, 53: 1.1102230246251565e-16,
            54: 4.440892098500626e-16, 55: 1.1102230246251565e-15, 58: 2.220446049250313e-16,
            59: 3.3306690738754696e-16, 60: 3.885780586188048e-15, 61: 1.7763568394002505e-15,
            62: 4.440892098500626e-16, 63: 4.440892098500626e-16}},
    "vaaler-audit": {
        "max_excess": {0: 1.9490859162596874e-17, 1: 1.9490859162596865e-17},
        "min_kappa": {0: 1.874699728327322e-33, 1: 1.8746997283273217e-33,
                      2: 5.12819439637143e-07}},
}
# The fields of each audit report that are a correctly rounded exact value.
_ROUNDED = {"et-audit": ("bound",), "fourier-audit": ("max_abs_coeff",),
            "vaaler-audit": ("max_excess", "min_kappa")}


@lru_cache
def _audit_oracle(name: str) -> dict[str, list]:
    """40-digit exact-phase oracle of every row of an audit case, by field.
    Parseval's identity makes the exact parseval_error 0; the Vaaler rows
    take the sawtooth and both kernels exactly at each grid point."""
    rows = json.loads((GOLDEN / f"{name}.json").read_text())
    if name == "fourier-audit":
        return {"max_abs_coeff": [oracles.max_abs(oracles.fourier_table(r["q"], r["level"], r["alpha"]))
                                  for r in rows],
                "parseval_error": [0] * len(rows)}
    argv = CASES[name]
    if name == "vaaler-audit":
        grid = int(argv[argv.index("--grid") + 1])
        ts = np.arange(grid, dtype=np.float64) / grid
        oracle = {"max_excess": [], "min_kappa": []}
        for r in rows:
            coefficients = digitseq.build_vaaler_approx(r["degree"]).coefficients
            kernels = [oracles.vaaler_kernels(coefficients, t) for t in ts]
            with mpmath.workdps(40):
                oracle["max_excess"].append(max(
                    abs(t - mpmath.floor(t) - 0.5 - psi) - kappa
                    for t, (psi, kappa) in zip(map(mpmath.mpf, ts), kernels)))
            oracle["min_kappa"].append(min(kappa for _, kappa in kernels))
        return oracle
    seen = []

    def record(pts, degree):
        seen.append((pts, degree))
        return 0.0

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(audits, "erdos_turan_bound", record)
        audits.et_audit(sets=int(argv[argv.index("--sets") + 1]),
                        degree=int(argv[argv.index("--h") + 1]),
                        max_points=int(argv[argv.index("--max-points") + 1]))
    assert [len(pts) for pts, _ in seen] == [r["n_points"] for r in rows]
    return {"bound": [oracles.et_bound(pts, degree) for pts, degree in seen]}


@needs_long_double
@pytest.mark.parametrize("name", sorted(_COMPLEX128))
def test_audit_rows_are_correctly_rounded(name):
    rows = json.loads((GOLDEN / f"{name}.json").read_text())
    for field in _ROUNDED[name]:
        exact = _audit_oracle(name)[field]
        assert [r[field] for r in rows] == [float(v) for v in exact], field


@needs_long_double
@pytest.mark.parametrize("name", sorted(_COMPLEX128))
def test_audit_rows_match_an_oracle(name):
    # Every JSON and CSV value that changed with the long-double kernels is
    # at least as close to the oracle as the complex128 value was.
    rows = json.loads((GOLDEN / f"{name}.json").read_text())
    header, *lines = (GOLDEN / f"{name}.csv").read_text().splitlines()
    csv_rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    oracle = _audit_oracle(name)
    for field, old_values in _COMPLEX128[name].items():
        for i, old in old_values.items():
            exact = oracle[field][i]
            for new, before in ((rows[i][field], old),
                                (float(csv_rows[i][field]), float("%.15g" % old))):
                if new != before:
                    with mpmath.workdps(40):
                        assert abs(new - exact) <= abs(before - exact), (field, i, new, before)


def _doubled_fourier_table(q, level, alpha):
    table = expsums.digit_fourier_table(q, level, alpha)
    return dataclasses.replace(table, coefficients=2 * table.coefficients)


def _mismatch_above_the_bound(*args, **kwargs):
    report = sequences.count_floor_mismatches(*args, **kwargs)
    return dataclasses.replace(report, mismatch_count=int(report.lemma_bound) + 1)


# Each patch breaks the inequality its audit checks; the case must then exit 1.
AUDIT_FAILURES = {
    "fourier-audit": (audits, "digit_fourier_table", _doubled_fourier_table),
    "vaaler-audit": (audits, "fejer_majorant", lambda degree, ts: np.full_like(ts, -1.0)),
    "beatty-mismatch-3-2-narrow": (cli, "count_floor_mismatches", _mismatch_above_the_bound),
    "et-audit": (audits, "erdos_turan_bound", lambda pts, degree: 0.0),
}


@pytest.mark.parametrize("name", sorted(AUDIT_FAILURES))
def test_exit_status_one_when_an_audit_fails(name, monkeypatch, tmp_path):
    assert dispatch([*CASES[name], "--out", str(tmp_path / "ok")]) == 0
    monkeypatch.setattr(*AUDIT_FAILURES[name])
    assert dispatch([*CASES[name], "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize("argv", [
    ["tm-density", "--c", "1/2", "--n", "100"],
    ["tm-density", "--c", "abc", "--n", "100"],
    ["joint-residues", "--c", "3/2", "--q1", "2", "--q2", "4", "--m1", "3", "--m2", "3",
     "--x", "100"],
    ["beatty-mismatch", "--a", "999990", "--b", "1000010"],
    ["beatty-mismatch", "--f-power", "1/0", "--a", "10", "--b", "20"],
    ["exponents", "--a", "x", "--c", "3/2"],
])
def test_exit_status_two_on_bad_input(argv, tmp_path):
    assert dispatch([*argv, "--out", str(tmp_path / "out")]) == 2


def test_dispatch_reuses_one_parser(monkeypatch, tmp_path):
    def rebuild():
        pytest.fail("dispatch rebuilt the parser")

    monkeypatch.setattr(cli, "_build_parser", rebuild)
    for name in ("exponents", "vaaler-audit"):
        assert dispatch([*CASES[name], "--out", str(tmp_path / name)]) == 0


def _console(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(digitseq.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "digitseq", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_console_entry_point():
    ok = _console(*CASES["exponents"])
    assert ok.returncode == 0, ok.stderr
    assert ok.stdout == (GOLDEN / "exponents.csv").read_text()

    bad = _console("tm-density", "--c", "1/2", "--n", "100")
    assert bad.returncode == 2
    assert bad.stdout == ""
    assert len(bad.stderr.splitlines()) == 1 and bad.stderr.startswith("digitseq: error:")

    usage = _console("--help")
    assert usage.returncode == 0
    assert len({argv[0] for argv in CASES.values()}) == 13
    for command in {argv[0] for argv in CASES.values()}:
        assert command in usage.stdout


def record(names: list[str], directory: Path = GOLDEN) -> int:
    """Rewrite the golden files of the named cases only; exit status 2 and
    the list of cases when no name, or an unknown one, is given."""
    unknown = [name for name in names if name not in CASES]
    if not names or unknown:
        if unknown:
            print(f"unknown case(s): {' '.join(unknown)}", file=sys.stderr)
        print("usage: python tests/test_cli_golden.py CASE [CASE ...]\ncases:",
              *sorted(CASES), sep="\n  ", file=sys.stderr)
        return 2
    directory.mkdir(exist_ok=True)
    for case in names:
        for fmt in ("csv", "json"):
            out = directory / f"{case}.{fmt}"
            if dispatch([*CASES[case], "--format", fmt, "--out", str(out)]) != 0:
                print(f"{case} failed", file=sys.stderr)
                return 1
    return 0


def test_recorder_writes_only_the_named_cases(tmp_path, capsys):
    assert record([], tmp_path) == 2
    assert "exponents" in capsys.readouterr().err
    assert record(["exponents", "no-such-case"], tmp_path) == 2
    assert not any(tmp_path.iterdir())
    assert record(["exponents"], tmp_path) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exponents.csv", "exponents.json"]
    assert (tmp_path / "exponents.csv").read_bytes() == (GOLDEN / "exponents.csv").read_bytes()


if __name__ == "__main__":
    sys.exit(record(sys.argv[1:]))
