"""Deterministic report serialization.

CSV carries a header row and decimal values at 15 significant digits;
JSON mirrors dataclass field names with complex numbers split into
re/im pairs and exact rationals as "p/q" strings.  Identical reports
serialize to identical bytes.

Wall-clock runtime fields are volatile, so they serialize as empty/null;
the measured value travels on the diagnostic stream instead.
"""

from __future__ import annotations

import dataclasses
import io
import json
from fractions import Fraction
from typing import Any

import numpy as np

from .expsums import FourierTable, SineProductDecayRow
from .experiments import (
    DeviationReport,
    ExponentAudit,
    IntegralEstimate,
    ResidueCountReport,
    Theorem1Audit,
    TmDensityReport,
)
from .sequences import MismatchReport

__all__ = ["serialize_report", "report_to_jsonable"]

_VOLATILE_FIELDS = {"runtime"}


def _fmt(v: Any) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Fraction):
        v = float(v)
    if isinstance(v, (float, np.floating)):
        return "%.15g" % v
    return str(v)


def _jsonable_value(v: Any) -> Any:
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, np.ndarray):
        return [_jsonable_value(x) for x in v.tolist()]
    if isinstance(v, dict):
        return {",".join(map(str, k)) if isinstance(k, tuple) else str(k): _jsonable_value(x)
                for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable_value(x) for x in v]
    if dataclasses.is_dataclass(v) and not isinstance(v, type):
        return report_to_jsonable(v)
    return v


def report_to_jsonable(report) -> dict:
    out: dict[str, Any] = {}
    for f in dataclasses.fields(report):
        v = getattr(report, f.name)
        out[f.name] = None if f.name in _VOLATILE_FIELDS else _jsonable_value(v)
    return out


def _rows_of(report) -> tuple[list[str], list[list]]:
    """Per-type CSV schema: header plus data rows."""
    if isinstance(report, list) and report and isinstance(report[0], SineProductDecayRow):
        header = ["lambda", "integral", "ratio", "geo_mean", "quadrature_err"]
        rows = [[r.level, r.integral, r.ratio, r.geo_mean, r.quadrature_err] for r in report]
        return header, rows
    if isinstance(report, TmDensityReport):
        header = ["checkpoint", "partial_sum", "abs_mean", "plus_density"]
        rows = [[r.m, r.partial_sum, r.abs_mean, r.plus_density] for r in report.checkpoints]
        return header, rows
    if isinstance(report, ResidueCountReport):
        header = [f"r{i + 1}" for i in range(len(report.moduli))] + ["count", "expected", "deviation"]
        rows: list[list] = []
        for cell in sorted(report.counts):
            count = report.counts[cell]
            rows.append([*cell, count, report.expected, count - report.expected])
        rows.append(["total", *[""] * (len(report.moduli) - 1), report.x,
                     report.max_abs_deviation, report.normalized_deviation])
        return header, rows
    if isinstance(report, DeviationReport):
        header = ["A", "lhs_per_A", "sum1_re", "sum1_im", "sum2_re", "sum2_im", "runtime_ms"]
        rows = [[report.A, report.lhs_per_A, report.sum1.real, report.sum1.imag,
                 report.sum2.real, report.sum2.imag, None]]
        return header, rows
    if isinstance(report, Theorem1Audit):
        header = ["A", "z", "lhs_per_A", "j_value", "j_refinement_delta",
                  "taylor_term", "expsum_term", "bracket", "ratio"]
        rows = [[report.A, report.z, report.lhs_per_A, report.j_value,
                 report.j_refinement_delta, report.taylor_term, report.expsum_term,
                 report.bracket, report.ratio]]
        return header, rows
    if isinstance(report, IntegralEstimate):
        header = ["value", "grid_size", "sup_sample_count", "refinement_delta"]
        return header, [[report.value, report.grid_size, report.sup_sample_count,
                         report.refinement_delta]]
    if isinstance(report, ExponentAudit):
        header = ["a", "c", "eta_max", "reference_7m5c_over_9", "validity"]
        return header, [[float(report.a), float(report.c), float(report.eta_max),
                         float(report.reference), report.validity]]
    if isinstance(report, MismatchReport):
        header = ["a", "b", "alpha", "beta", "mismatch_count", "lemma_bound",
                  "second_derivative_bound", "d", "r_terms"]
        return header, [[report.a, report.b, report.alpha, report.beta,
                         report.mismatch_count, report.lemma_bound,
                         report.second_derivative_bound, report.d, report.r_terms]]
    if isinstance(report, FourierTable):
        header = ["h", "re", "im", "abs"]
        coeffs = report.coefficients
        rows = [[h, c.real, c.imag, abs(c)] for h, c in enumerate(coeffs)]
        return header, rows
    if isinstance(report, list):
        if not report:
            return ["empty"], []
        if dataclasses.is_dataclass(report[0]):
            header = [f.name for f in dataclasses.fields(report[0])]
            rows = [[getattr(r, name) for name in header] for r in report]
            return header, rows
    raise TypeError(f"no CSV schema for {type(report).__name__}")


def serialize_report(report, fmt: str = "csv") -> str:
    """Render a report deterministically; newline-terminated."""
    if fmt == "csv":
        header, rows = _rows_of(report)
        buf = io.StringIO()
        buf.write(",".join(header) + "\n")
        for row in rows:
            buf.write(",".join(_fmt(v) for v in row) + "\n")
        return buf.getvalue()
    if fmt == "json":
        if isinstance(report, list):
            payload: Any = [report_to_jsonable(r) if dataclasses.is_dataclass(r)
                            else _jsonable_value(r) for r in report]
        else:
            payload = report_to_jsonable(report)
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"unknown format '{fmt}'")
