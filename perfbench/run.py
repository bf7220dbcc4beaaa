"""digitseq benchmark: seeded closed-loop workloads over the CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload ps-residues --seed 1 --seconds 30 --trace 0

One client process runs a closed loop: it calls ``digitseq.cli.dispatch``
in process with the next generated argv only after the previous call has
returned, always with ``--threads 1``.  After the timed loop every report is
checked (invariants on any seed, reference reports on the default seed) and
a seeded sample of operations is rerun with ``--threads 2``, which must give
byte-identical CSV.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs every
operation once untraced and once with span tracing, and reports the
per-layer metrics, the tracing overhead and exact oracle spot-checks of the
floor and digit kernels.  Spans are written to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's context (versions, sizes, tail percentile).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import reference
import tracing
from workloads import (DEFAULT_SEED, WORKLOADS, invariant_errors, operation, warmup_ops,
                       with_threads)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 5
DETERMINISM_SAMPLE = 3
DETERMINISM_WORKLOADS = ("ps-residues", "beatty-substitution")
TAIL_BEYOND = 10

# Spawned once per set-up sample: a fresh interpreter imports digitseq and
# runs one warm-up operation of each kind; it prints its own elapsed time.
SETUP_CHILD = """
import contextlib, io, json, sys, time
t0 = time.perf_counter()
import digitseq
from digitseq import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        if cli.dispatch(argv) != 0:
            sys.exit(3)
print(time.perf_counter() - t0)
"""


def load_package():
    """Import digitseq from this checkout's src/ (never an installed copy)."""
    package = SRC / "digitseq"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no digitseq package under {SRC}")
    sys.path.insert(0, str(SRC))
    import digitseq
    from digitseq import cli

    if Path(digitseq.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported digitseq from {digitseq.__file__}")
    return cli


def run_op(cli, argv: list[str]) -> tuple[int, str, float]:
    """(exit status, report text, seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.dispatch(argv)
    except Exception:
        status = -1
        out.write(traceback.format_exc())
    return status, out.getvalue(), perf_counter() - t0


def _record(cli, i: int, argv: list[str]) -> dict:
    status, text, dt = run_op(cli, argv)
    return {"i": i, "argv": argv, "status": status, "csv": text, "latency": dt}


def closed_loop(cli, workload: str, seed: int, seconds: float,
                between, segments: int) -> tuple[list[dict], float]:
    """Run operations 0, 1, ... for ``seconds`` of loop time.  The loop is cut
    into ``segments`` equal parts; ``between()`` runs after each part, off
    the clock, so set-up samples spread over the same stretch of time as the
    operations."""
    ops = []
    elapsed = 0.0
    for k in range(1, segments + 1):
        t0 = perf_counter()
        while elapsed + perf_counter() - t0 < seconds * k / segments:
            i = len(ops)
            ops.append(_record(cli, i, with_threads(operation(workload, seed, i), 1)))
        elapsed += perf_counter() - t0
        between()
    return ops, elapsed


def traced_pairs(cli, workload: str, seed: int, seconds: float,
                 tracer: tracing.Tracer) -> tuple[list[dict], list[dict]]:
    """Run each operation untraced and traced, alternating which goes first
    so drift in machine speed cancels from the overhead estimate."""
    plain, traced = [], []
    t0 = perf_counter()
    while perf_counter() - t0 < seconds:
        i = len(plain)
        argv = with_threads(operation(workload, seed, i), 1)
        for traced_now in ((False, True) if i % 2 == 0 else (True, False)):
            if not traced_now:
                plain.append(_record(cli, i, argv))
                continue
            tracer.op_id = i
            tracer.install()
            try:
                traced.append(_record(cli, i, argv))
            finally:
                tracer.uninstall()
    return plain, traced


def check_reports(workload: str, seed: int, ops: list[dict]) -> list[str]:
    refs = reference.load(workload) if seed == DEFAULT_SEED else []
    errors = []
    for op in ops:
        found = invariant_errors(op["argv"][:-2], op["status"], op["csv"])
        if op["i"] < len(refs):
            ref = refs[op["i"]]
            if ref["argv"] != op["argv"]:
                found.append("operation differs from the recorded reference")
            else:
                found += reference.compare(ref["csv"], op["csv"])
        if found:
            errors.append(f"op {op['i']} {' '.join(op['argv'])}: {'; '.join(found[:3])}")
    return errors


def check_determinism(cli, workload: str, seed: int, ops: list[dict]) -> tuple[int, list[str]]:
    """Rerun a seeded sample with --threads 2; reports must be byte-identical."""
    if workload not in DETERMINISM_WORKLOADS or not ops:
        return 0, []
    sample = random.Random(f"determinism:{seed}").sample(ops, min(DETERMINISM_SAMPLE, len(ops)))
    errors = []
    for op in sample:
        status, text, _ = run_op(cli, op["argv"][:-2] + ["--threads", "2"])
        if status != op["status"] or text != op["csv"]:
            errors.append(f"op {op['i']}: --threads 2 report differs from --threads 1")
    return len(sample), errors


def setup_seconds(workload: str) -> float:
    """A fresh interpreter's import plus one warm-up operation of each kind."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, json.dumps(warmup_ops(workload))],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up child failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, latency) at the highest percentile that has at least
    TAIL_BEYOND samples beyond it: the (TAIL_BEYOND + 1)-th largest latency."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def static_context() -> dict:
    import tomllib
    from importlib import metadata

    loc = sum(len(p.read_text().splitlines()) for p in (SRC / "digitseq").glob("*.py"))
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return {
        "src_loc": loc,
        "runtime_deps": len(deps),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
    }


def computed_bytes_per_value() -> dict[str, float]:
    """Bytes moved per value, computed from the numpy passes each kernel
    makes over its arrays (8-byte elements, 1-byte masks; a pass reading two
    arrays and writing one counts 24) for values below 2**32, the range of
    every workload here.  Computed, not measured."""
    # astype, >>1, &, a-b, &, >>2, &, a+b, >>4, a+b, &, *, >>56, astype
    popcount = 11 * 16 + 3 * 24
    zeck_passes = 46  # Fibonacci indices 47 down to 2; F_47 < 2**32 < F_48

    def base_q(q: int) -> int:
        passes = math.ceil(32 / math.log2(q))
        return 16 + 8 + 8 + passes * (8 + 16 + 24 + 16)  # copy, min, zeros; any, %, +=, //=

    return {
        # arange, pow, isfinite+all, floor, sub, 3 guard passes, astype, two
        # compares, 1-guard, or, flatnonzero, diff, <0, any
        "sequences.ps_block_chunks": 8 + 16 + 10 + 16 + 24 + 48 + 16 + 34 + 16 + 3 + 1 + 24 + 9 + 1,
        "digits.digit_sum_array.q2": 16 + 8 + popcount,  # copy, min, popcount
        "digits.digit_sum_array.q3": base_q(3),
        "digits.digit_sum_array.q4": base_q(4),
        "digits.digit_sum_array.q5": base_q(5),
        # copy, min, zeros, max; per index: >=, any, masked -=, masked +=
        "digits.zeckendorf_digit_sum_array": 40 + zeck_passes * (9 + 1 + 17 + 17),
        "digits.thue_morse_sign_array": popcount + 3 * 16,  # popcount, &1, 2*, 1-
    }


def per_layer_metrics(tracer: tracing.Tracer, untraced_s: float, traced_s: float,
                      ops: int, oracle_checks: int, context: dict) -> dict:
    """Per-layer metrics of a traced run: name -> (value, unit)."""
    summary = tracer.summary()

    def get(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0.0)

    def rate(name: str) -> float:
        busy = get(name, "busy")
        return get(name, "work") / busy if busy else 0.0

    m: dict[str, tuple[float, str]] = {}
    for span, scalar in (("sequences.ps_block_chunks", "sequences.ps_floor"),
                         ("sequences.beatty_floor_range", "sequences.beatty_floor")):
        values = get(span, "work")
        escalations = summary.get(span, {}).get("children", {}).get(scalar, 0)
        m[f"{span}.values_per_s"] = (rate(span), "1/s")
        m[f"{span}.busy_s"] = (get(span, "busy"), "s")
        m[f"{span}.escalation_ratio"] = (escalations / values if values else 0.0, "ratio")
    m["sequences.floor_exact.calls"] = (get("sequences.floor_exact", "calls"), "count")
    m["sequences.floor_exact.busy_s"] = (get("sequences.floor_exact", "busy"), "s")
    m["sequences.count_floor_mismatches.self_s"] = (
        get("sequences.count_floor_mismatches", "self"), "s")
    for span in ("digits.digit_sum_array.q2", "digits.digit_sum_array.q3",
                 "digits.digit_sum_array.q4", "digits.digit_sum_array.q5",
                 "digits.zeckendorf_digit_sum_array", "digits.thue_morse_sign_array"):
        m[f"{span}.values_per_s"] = (rate(span), "1/s")
        m[f"{span}.busy_s"] = (get(span, "busy"), "s")
    m["expsums.window_exp_sum.calls"] = (get("expsums.window_exp_sum", "calls"), "count")
    m["expsums.window_exp_sum.terms_per_s"] = (rate("expsums.window_exp_sum"), "1/s")
    m["expsums.window_exp_sum.busy_s"] = (get("expsums.window_exp_sum", "busy"), "s")
    m["expsums.sine_product_integral.calls"] = (get("expsums.sine_product_integral", "calls"), "count")
    m["expsums.sine_product_integral.busy_s"] = (get("expsums.sine_product_integral", "busy"), "s")
    m["expsums.digit_fourier_table.coeffs_per_s"] = (rate("expsums.digit_fourier_table"), "1/s")
    m["expsums.digit_fourier_table.busy_s"] = (get("expsums.digit_fourier_table", "busy"), "s")
    m["harmonic.erdos_turan_bound.busy_s"] = (get("harmonic.erdos_turan_bound", "busy"), "s")
    m["harmonic.exact_discrepancy.busy_s"] = (get("harmonic.exact_discrepancy", "busy"), "s")
    for module, attr, span, _ in tracing.TARGETS:
        if module in ("digitseq.experiments", "digitseq.audits") or span == "cli.dispatch":
            m[f"{span}.self_s"] = (get(span, "self"), "s")
    m["reports.serialize_report.busy_s"] = (get("reports.serialize_report", "busy"), "s")
    m["reports.serialize_report.bytes"] = (get("reports.serialize_report", "work"), "B")
    for layer in tracing.LAYERS:
        m[f"layer.{layer}.self_s"] = (
            sum(s["self"] for name, s in summary.items() if name.split(".")[0] == layer), "s")
    m["trace.ops"] = (ops, "count")
    m["trace.spans"] = (len(tracer.start), "count")
    m["trace.untraced_op_s"] = (untraced_s, "s")
    m["trace.op_s"] = (traced_s, "s")
    m["trace.overhead_ratio"] = (traced_s / untraced_s - 1.0 if untraced_s else 0.0, "ratio")
    m["trace.oracle_checks"] = (oracle_checks, "count")
    for span, value in computed_bytes_per_value().items():
        m[f"{span}.computed_bytes_per_value"] = (value, "B/value")
    m["static.src_loc"] = (context["src_loc"], "lines")
    m["static.runtime_deps"] = (context["runtime_deps"], "count")
    m["static.nproc"] = (context["nproc"], "count")
    return m


def run(workload: str, seed: int, seconds: float, trace: bool,
        setup_repeats: int = SETUP_REPEATS) -> dict:
    """One benchmark run; returns the result object (and prints context)."""
    cli = load_package()
    context = static_context()
    for argv in warmup_ops(workload):
        status, _, _ = run_op(cli, with_threads(argv, 1))
        if status != 0:
            raise SystemExit(f"perfbench: warm-up {argv} exited {status}")

    errors: list[str] = []
    if not trace:
        setups: list[float] = []
        ops, elapsed = closed_loop(cli, workload, seed, seconds,
                                   between=lambda: setups.append(setup_seconds(workload)),
                                   segments=setup_repeats)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        latencies = [op["latency"] for op in ops]
        percentile, tail_s = tail(latencies)
        metrics = {
            "ops_per_s": (len(ops) / elapsed, "1/s"),
            "op_p50_s": (statistics.median(latencies), "s"),
            "op_tail_s": (tail_s, "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        context.update(op_tail_percentile=percentile, op_samples=len(ops),
                       setup_samples_s=setups)
        attempted = len(ops)
    else:
        tracer = tracing.Tracer(seed)
        ops, traced = traced_pairs(cli, workload, seed, seconds, tracer)
        for a, b in zip(ops, traced):
            if (a["status"], a["csv"]) != (b["status"], b["csv"]):
                errors.append(f"op {a['i']}: traced report differs from untraced")
        oracle_checks, oracle_errors = tracing.oracle_errors(tracer.samples)
        errors += oracle_errors
        metrics = per_layer_metrics(
            tracer, sum(op["latency"] for op in ops), sum(op["latency"] for op in traced),
            len(traced), oracle_checks, context)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"trace-{workload}.npz")
        attempted = len(ops) + len(traced) + oracle_checks

    errors += check_reports(workload, seed, ops)
    reruns, determinism_errors = check_determinism(cli, workload, seed, ops)
    errors += determinism_errors
    attempted += reruns
    for line in errors[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps({"context": context}))
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
