"""Reference reports for the default seed and the tolerant report check.

``python3 perfbench/reference.py`` runs the first REFERENCE_OPS operations
of every workload at the default seed and writes their CSV reports to
``perfbench/reference/<workload>.json``.  A benchmark run on the default
seed compares each of those operations against the file:

- integer, boolean and text fields must match exactly;
- float fields must agree within REL_TOL relative (plus ABS_TOL absolute),
  so a change that moves only the last bits still passes;
- error-estimate fields are upper bounds: the new value may be smaller.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
REFERENCE_OPS = 24
REL_TOL = 1e-9
ABS_TOL = 1e-12

FLOAT_COLUMNS = {
    "abs_mean", "plus_density", "expected", "deviation", "integral", "ratio", "geo_mean",
    "value", "alpha", "max_abs_coeff", "uniform_bound", "parseval_error", "discrepancy",
    "bound", "lhs_per_A", "sum1_re", "sum1_im", "sum2_re", "sum2_im", "beta", "lemma_bound",
    "second_derivative_bound", "d", "z", "j_value", "taylor_term", "expsum_term", "bracket",
}
UPPER_BOUND_COLUMNS = {"quadrature_err", "refinement_delta", "j_refinement_delta"}


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load(workload: str) -> list[dict]:
    path = reference_path(workload)
    if not path.is_file():
        return []
    return json.loads(path.read_text())["ops"]


def _float(text: str) -> float:
    return float(text) if text else math.nan


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_TOL


def compare(ref_csv: str, csv_text: str) -> list[str]:
    """Differences between a reference report and a new one."""
    ref_lines, new_lines = ref_csv.splitlines(), csv_text.splitlines()
    if not new_lines or ref_lines[0] != new_lines[0]:
        return ["report header differs"]
    if len(ref_lines) != len(new_lines):
        return [f"{len(new_lines) - 1} rows, reference has {len(ref_lines) - 1}"]
    header = ref_lines[0].split(",")
    errors = []
    for row, (ref_line, new_line) in enumerate(zip(ref_lines[1:], new_lines[1:])):
        for col, ref, new in zip(header, ref_line.split(","), new_line.split(",")):
            if col in UPPER_BOUND_COLUMNS and ref and new:
                ok = _float(new) <= _float(ref) * (1.0 + REL_TOL) + ABS_TOL
            elif col in FLOAT_COLUMNS and ref and new:
                ok = _close(_float(ref), _float(new))
            else:
                ok = ref == new
            if not ok:
                errors.append(f"row {row} {col}: {new} (reference {ref})")
    return errors


def main() -> int:
    import run
    from workloads import DEFAULT_SEED, WORKLOADS, operation, with_threads

    cli = run.load_package()
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        ops = []
        for i in range(REFERENCE_OPS):
            argv = with_threads(operation(workload, DEFAULT_SEED, i), 1)
            status, csv_text, _ = run.run_op(cli, argv)
            if status != 0:
                print(f"{workload} op {i} {argv}: exit status {status}", file=sys.stderr)
                return 1
            ops.append({"argv": argv, "csv": csv_text})
        reference_path(workload).write_text(
            json.dumps({"seed": DEFAULT_SEED, "ops": ops}, indent=1) + "\n")
        print(f"wrote {reference_path(workload)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
