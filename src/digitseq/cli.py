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
from typing import Callable, NamedTuple

from . import audits, experiments
from .expsums import sine_product_decay
from .sequences import PowerGrowth, count_floor_mismatches
from .reports import serialize_report


_THREADS_MAX = 1 << 6  # a run starts a thread per part, up to 1024 (tm-density at n = 2^27)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # single-line diagnostic, status 2
        raise CliError(message)


class CliError(Exception):
    pass


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
    if not 1 <= count <= _THREADS_MAX:
        raise CliError(f"--threads must be an integer in [1, {_THREADS_MAX}], got {text!r}")
    return count


def _growth(text: str) -> PowerGrowth:
    """PowerGrowth(text), with the constructor's reason kept in the message
    (argparse would replace it by "invalid PowerGrowth value") and the flag
    named by argparse."""
    try:
        return PowerGrowth(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"invalid exponent {text!r}: {exc}")


def _mismatches(args):
    f = args.f_power
    # f' is real on x >= 0 only, and for c < 2 f'' is unbounded at 0: the
    # lemma's curvature bound takes f''(a).
    a_min = 1 if f.c < 2 else 0
    if args.a < a_min:
        raise CliError(f"--a must be >= {a_min} for f(x) = {f.label()}, got {args.a}")
    alpha = args.alpha if args.alpha is not None else float(f.df((args.a + args.b) / 2.0))
    return count_floor_mismatches(f, args.a, args.b, alpha, r_terms=args.r_terms)


class Command(NamedTuple):
    """One subcommand.  A flag is (name, type[, default[, help]]) and is
    required when its default is absent or ``...``.  ``run`` maps the parsed
    arguments to a report; the exit status is 1 when ``failed`` holds for
    any report row (a single-object report is one row)."""

    help: str
    flags: tuple
    run: Callable
    failed: Callable | None = None


_GROWTH = (("--phi", str, "thue-morse"), ("--f-power", _growth), ("--scale", int))
_WINDOW = (("--z", float), ("--theta-grid", int, 64), ("--x-samples", int, 8))

# Runners look layer functions up when they run, so patched module bindings
# (tests, span tracing) take effect.
COMMANDS = {
    "rho": Command(
        "sine-product integrals and decay-rate estimates",
        (("--lambda-max", int),),
        lambda a: sine_product_decay(a.lambda_max)),
    "fourier-audit": Command(
        "digit Fourier bound and Parseval sweep",
        (("--q-list", _int_list, (2, 3, 5)), ("--lambda-max", int, 6),
         ("--alpha-grid", int, 64)),
        lambda a: audits.fourier_bound_audit(a.q_list, a.lambda_max, a.alpha_grid),
        lambda r: r.violations > 0 or r.parseval_error > 1e-10),
    "tm-density": Command(
        "Thue-Morse density along floor(n^c)",
        (("--c", _growth), ("--n", int), ("--checkpoints", int, 12)),
        lambda a: experiments.tm_density_experiment(
            a.c, a.n, checkpoints=a.checkpoints, threads=a.threads)),
    "joint-residues": Command(
        "joint digit-sum residue counts",
        (("--c", _growth), ("--q1", int), ("--q2", int), ("--m1", int), ("--m2", int),
         ("--l1", int, 0), ("--l2", int, 0), ("--x", int)),
        lambda a: experiments.joint_residue_experiment(
            a.c, a.q1, a.q2, a.m1, a.m2, a.l1, a.l2, a.x, threads=a.threads)),
    "zeck-residues": Command(
        "Zeckendorf digit-sum residue counts",
        (("--c", _growth), ("--m", int), ("--a", int, 0), ("--x", int)),
        lambda a: experiments.zeckendorf_residue_experiment(
            a.c, a.m, a.a, a.x, threads=a.threads)),
    "beatty-mismatch": Command(
        "tangent-line floor mismatch count",
        (("--f-power", _growth, ..., "rational exponent of the growth function"),
         ("--a", int), ("--b", int),
         ("--alpha", float, None, "tangent slope (default: f' at the window midpoint)"),
         ("--r-terms", int, None)),
        _mismatches,
        lambda r: r.d < 0.5 and r.mismatch_count > r.lemma_bound),
    "deviation": Command(
        "substitution-rule deviation at one scale",
        _GROWTH,
        lambda a: experiments.substitution_deviation(
            a.phi, a.f_power, a.scale, threads=a.threads)),
    "audit-thm1": Command(
        "main-inequality constant-stability audit",
        _GROWTH + _WINDOW,
        lambda a: experiments.audit_theorem1(
            a.phi, a.f_power, a.scale, a.z, theta_grid=a.theta_grid,
            x_samples=a.x_samples, threads=a.threads)),
    "estimate-j": Command(
        "sup-window exponential-sum integral",
        _GROWTH + _WINDOW,
        lambda a: experiments.window_l1_integral(
            a.phi, a.f_power, a.scale, a.z, theta_grid=a.theta_grid,
            x_samples=a.x_samples)),
    "estimate-i": Command(
        "Beatty substitution integral",
        _GROWTH + (("--window", int), ("--alpha-grid", int, 32), ("--beta-samples", int, 8)),
        lambda a: experiments.beatty_substitution_integral(
            a.phi, a.f_power, a.scale, a.window, alpha_grid=a.alpha_grid,
            beta_samples=a.beta_samples)),
    "exponents": Command(
        "corollary exponent arithmetic",
        (("--a", str), ("--c", str)),
        lambda a: experiments.corollary1_exponent_audit(a.a, a.c)),
    "vaaler-audit": Command(
        "sawtooth approximation inequality sweep",
        (("--h-list", _int_list, (1, 5, 10, 50, 200)), ("--grid", int, 10000)),
        lambda a: audits.vaaler_audit(a.h_list, grid=a.grid),
        lambda r: (r.max_excess > 1e-12 or r.min_kappa < -1e-12
                   or r.coeff_min < 0 or r.coeff_max > 1)),
    "et-audit": Command(
        "discrepancy bound sweep on seeded point sets",
        (("--sets", int, 1000), ("--h", int, 64), ("--seed", int, 0),
         ("--max-points", int, 2000)),
        lambda a: audits.et_audit(sets=a.sets, degree=a.h, seed=a.seed,
                                  max_points=a.max_points),
        lambda r: not r.ok),
}


def _add_flag(p: argparse.ArgumentParser, flag: str, kind, default=..., help=None) -> None:
    p.add_argument(flag, type=kind, required=default is ...,
                   default=None if default is ... else default, help=help)


def _build_parser() -> _Parser:
    parser = _Parser(prog="digitseq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag in command.flags:
            _add_flag(p, *flag)
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--threads", type=_threads, default=1,
                       help="worker count; never affects output bytes")
    return parser


_PARSER = _build_parser()


def dispatch(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        command = COMMANDS[args.command]
        start = time.perf_counter()
        report = command.run(args)
        rows = report if isinstance(report, list) else [report]
        status = int(command.failed is not None and any(map(command.failed, rows)))
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
    except (CliError, ValueError, ArithmeticError) as exc:
        print(f"digitseq: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch())
