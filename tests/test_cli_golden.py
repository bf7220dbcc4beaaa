"""Golden report bytes for every subcommand, byte identity across --threads,
and the exit-code contract (0 ok, 1 audit failed, 2 bad input).

The files under tests/golden/ pin the CSV and JSON reports byte for byte.
They are recorded once and only rewritten for a deliberate change of report
contents, with

    PYTHONPATH=src python tests/test_cli_golden.py

The cases are small but tie-heavy: exponents 3/2, 4/3 and 5/4 put exact
integers floor(n^c) at perfect powers inside every range, and the mismatch
windows contain n = 1000^2 and n = 30^4.
"""

import sys
from pathlib import Path

import pytest

from digitseq import audits
from digitseq.cli import dispatch

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "rho": ["rho", "--lambda-max", "12"],
    "fourier-audit": ["fourier-audit", "--q-list", "2,3", "--lambda-max", "3",
                      "--alpha-grid", "8"],
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
    "audit-thm1-3-2": ["audit-thm1", "--f-power", "3/2", "--scale", "2048", "--z", "64",
                       "--theta-grid", "8", "--x-samples", "3"],
    "audit-thm1-5-4": ["audit-thm1", "--f-power", "5/4", "--scale", "4096", "--z", "64",
                       "--theta-grid", "8", "--x-samples", "3"],
    "estimate-j": ["estimate-j", "--f-power", "5/4", "--scale", "4096", "--z", "64",
                   "--theta-grid", "8", "--x-samples", "3"],
    "estimate-i": ["estimate-i", "--f-power", "3/2", "--scale", "4096", "--window", "64",
                   "--alpha-grid", "4", "--beta-samples", "3"],
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


def test_exit_status_one_when_an_audit_fails(monkeypatch, tmp_path):
    monkeypatch.setattr(audits, "erdos_turan_bound", lambda pts, degree: 0.0)
    assert dispatch([*CASES["et-audit"], "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize("argv", [
    ["tm-density", "--c", "1/2", "--n", "100"],
    ["tm-density", "--c", "abc", "--n", "100"],
    ["joint-residues", "--c", "3/2", "--q1", "2", "--q2", "4", "--m1", "3", "--m2", "3",
     "--x", "100"],
])
def test_exit_status_two_on_bad_input(argv, tmp_path):
    assert dispatch([*argv, "--out", str(tmp_path / "out")]) == 2


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, case_argv in CASES.items():
        for fmt in ("csv", "json"):
            out = GOLDEN / f"{case}.{fmt}"
            if dispatch([*case_argv, "--format", fmt, "--out", str(out)]) != 0:
                sys.exit(f"{case} failed")
