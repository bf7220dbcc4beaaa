"""Command-line surface.

One subcommand per experiment or audit; long-form flags only.  Reports are
serialized deterministically (CSV or JSON) to --out or stdout, diagnostics
and timings go to stderr.  Exit status: 0 on success, 1 when an audit or
invariant check fails, 2 on invalid arguments or hypothesis violations.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction

from . import audits, experiments
from .expsums import sine_product_decay
from .sequences import PSSpec, PowerGrowth, count_floor_mismatches
from .reports import serialize_report


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # single-line diagnostic, status 2
        raise CliError(message)


class CliError(Exception):
    pass


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"not an exact rational: {text!r} ({exc})")


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise CliError(f"not a comma-separated integer list: {text!r}")


def _threads(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise CliError(f"--threads must be a positive integer, got {text!r}")
    return count


def _build_parser() -> _Parser:
    parser = _Parser(prog="digitseq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--threads", type=_threads, default=1,
                       help="worker count; never affects output bytes")
        return p

    p = common(sub.add_parser("rho", help="sine-product integrals and decay-rate estimates"))
    p.add_argument("--lambda-max", type=int, required=True)

    p = common(sub.add_parser("fourier-audit", help="digit Fourier bound and Parseval sweep"))
    p.add_argument("--q-list", type=_int_list, default=(2, 3, 5))
    p.add_argument("--lambda-max", type=int, default=6)
    p.add_argument("--alpha-grid", type=int, default=64)

    p = common(sub.add_parser("tm-density", help="Thue-Morse density along floor(n^c)"))
    p.add_argument("--c", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--checkpoints", type=int, default=12)

    p = common(sub.add_parser("joint-residues", help="joint digit-sum residue counts"))
    p.add_argument("--c", required=True)
    p.add_argument("--q1", type=int, required=True)
    p.add_argument("--q2", type=int, required=True)
    p.add_argument("--m1", type=int, required=True)
    p.add_argument("--m2", type=int, required=True)
    p.add_argument("--l1", type=int, default=0)
    p.add_argument("--l2", type=int, default=0)
    p.add_argument("--x", type=int, required=True)

    p = common(sub.add_parser("zeck-residues", help="Zeckendorf digit-sum residue counts"))
    p.add_argument("--c", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--x", type=int, required=True)

    p = common(sub.add_parser("beatty-mismatch", help="tangent-line floor mismatch count"))
    p.add_argument("--f-power", required=True, help="rational exponent of the growth function")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--alpha", type=float, default=None,
                   help="tangent slope (default: f' at the window midpoint)")
    p.add_argument("--r-terms", type=int, default=None)

    p = common(sub.add_parser("deviation", help="substitution-rule deviation at one scale"))
    p.add_argument("--phi", default="thue-morse")
    p.add_argument("--f-power", required=True)
    p.add_argument("--scale", type=int, required=True)

    p = common(sub.add_parser("audit-thm1", help="main-inequality constant-stability audit"))
    p.add_argument("--phi", default="thue-morse")
    p.add_argument("--f-power", required=True)
    p.add_argument("--scale", type=int, required=True)
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--theta-grid", type=int, default=64)
    p.add_argument("--x-samples", type=int, default=8)

    p = common(sub.add_parser("estimate-j", help="sup-window exponential-sum integral"))
    p.add_argument("--phi", default="thue-morse")
    p.add_argument("--f-power", required=True)
    p.add_argument("--scale", type=int, required=True)
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--theta-grid", type=int, default=64)
    p.add_argument("--x-samples", type=int, default=8)

    p = common(sub.add_parser("estimate-i", help="Beatty substitution integral"))
    p.add_argument("--phi", default="thue-morse")
    p.add_argument("--f-power", required=True)
    p.add_argument("--scale", type=int, required=True)
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--alpha-grid", type=int, default=32)
    p.add_argument("--beta-samples", type=int, default=8)

    p = common(sub.add_parser("exponents", help="corollary exponent arithmetic"))
    p.add_argument("--a", required=True)
    p.add_argument("--c", required=True)

    p = common(sub.add_parser("vaaler-audit", help="sawtooth approximation inequality sweep"))
    p.add_argument("--h-list", type=_int_list, default=(1, 5, 10, 50, 200))
    p.add_argument("--grid", type=int, default=10000)

    p = common(sub.add_parser("et-audit", help="discrepancy bound sweep on seeded point sets"))
    p.add_argument("--sets", type=int, default=1000)
    p.add_argument("--h", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-points", type=int, default=2000)

    return parser


def _growth(args) -> PowerGrowth:
    return PowerGrowth(_fraction(args.f_power))


def _spec(text: str) -> PSSpec:
    try:
        return PSSpec.from_rational(_fraction(text))
    except ValueError as exc:
        raise CliError(str(exc))


def _run(args) -> tuple[object, int]:
    """Build the report for a parsed command; returns (report, exit_status)."""
    cmd = args.command
    if cmd == "rho":
        if args.lambda_max < 2:
            raise CliError("--lambda-max must be >= 2")
        return sine_product_decay(args.lambda_max), 0
    if cmd == "fourier-audit":
        rows = audits.fourier_bound_audit(args.q_list, args.lambda_max, args.alpha_grid)
        bad = sum(r.violations for r in rows) + sum(r.parseval_error > 1e-10 for r in rows)
        return rows, (1 if bad else 0)
    if cmd == "tm-density":
        report = experiments.tm_density_experiment(
            _spec(args.c), args.n, checkpoints=args.checkpoints, threads=args.threads)
        return report, 0
    if cmd == "joint-residues":
        report = experiments.joint_residue_experiment(
            _spec(args.c), args.q1, args.q2, args.m1, args.m2, args.l1, args.l2,
            args.x, threads=args.threads)
        return report, 0
    if cmd == "zeck-residues":
        report = experiments.zeckendorf_residue_experiment(
            _spec(args.c), args.m, args.a, args.x, threads=args.threads)
        return report, 0
    if cmd == "beatty-mismatch":
        f = _growth(args)
        alpha = args.alpha if args.alpha is not None else float(f.df((args.a + args.b) / 2.0))
        report = count_floor_mismatches(f, args.a, args.b, alpha, r_terms=args.r_terms)
        bad = report.d < 0.5 and report.mismatch_count > report.lemma_bound
        return report, (1 if bad else 0)
    if cmd == "deviation":
        report = experiments.substitution_deviation(
            args.phi, _growth(args), args.scale, threads=args.threads)
        return report, 0
    if cmd == "audit-thm1":
        report = experiments.audit_theorem1(
            args.phi, _growth(args), args.scale, args.z,
            theta_grid=args.theta_grid, x_samples=args.x_samples, threads=args.threads)
        return report, 0
    if cmd == "estimate-j":
        report = experiments.window_l1_integral(
            args.phi, _growth(args), args.scale, args.z,
            theta_grid=args.theta_grid, x_samples=args.x_samples)
        return report, 0
    if cmd == "estimate-i":
        report = experiments.beatty_substitution_integral(
            args.phi, _growth(args), args.scale, args.window,
            alpha_grid=args.alpha_grid, beta_samples=args.beta_samples)
        return report, 0
    if cmd == "exponents":
        return experiments.corollary1_exponent_audit(_fraction(args.a), _fraction(args.c)), 0
    if cmd == "vaaler-audit":
        rows = audits.vaaler_audit(args.h_list, grid=args.grid)
        bad = any(r.max_excess > 1e-12 or r.min_kappa < -1e-12
                  or r.coeff_min < 0 or r.coeff_max > 1 for r in rows)
        return rows, (1 if bad else 0)
    if cmd == "et-audit":
        rows = audits.et_audit(sets=args.sets, degree=args.h, seed=args.seed,
                               max_points=args.max_points)
        return rows, (1 if any(not r.ok for r in rows) else 0)
    raise CliError(f"unknown command {cmd!r}")


def dispatch(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        start = time.perf_counter()
        report, status = _run(args)
        payload = serialize_report(report, args.format)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8", newline="") as fh:
                    fh.write(payload)
            except OSError as exc:
                raise CliError(f"cannot write {args.out}: {exc}")
        else:
            sys.stdout.write(payload)
        print(f"digitseq {args.command}: done in {time.perf_counter() - start:.3f} s "
              f"(status {status})", file=sys.stderr)
        return status
    except CliError as exc:
        print(f"digitseq: error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"digitseq: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch())
