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
import json
from fractions import Fraction
from typing import Any

import numpy as np

from .expsums import SineProductDecayRow
from .experiments import DeviationReport, ExponentAudit, ResidueCountReport, TmDensityReport

__all__ = ["serialize_report", "report_to_jsonable"]

_VOLATILE_FIELDS = {"runtime"}
_LABEL_FIELDS = {"phi_name", "f_label"}  # JSON only


def _fmt(v: Any) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):  # before Fraction's slower ABC check
        return "%.15g" % v
    if isinstance(v, Fraction):
        return "%.15g" % float(v)
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
    """CSV header plus data rows.  A dataclass, or a list of them, writes
    its fields in order; the reports below name or shape columns otherwise."""
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
    if isinstance(report, ExponentAudit):
        header = ["a", "c", "eta_max", "reference_7m5c_over_9", "validity"]
        return header, [[report.a, report.c, report.eta_max, report.reference, report.validity]]
    items = report if isinstance(report, list) else [report]
    if not items:
        return ["empty"], []
    if not dataclasses.is_dataclass(items[0]):
        raise TypeError(f"no CSV schema for {type(items[0]).__name__}")
    header = [f.name for f in dataclasses.fields(items[0]) if f.name not in _LABEL_FIELDS]
    return header, [[getattr(r, name) for name in header] for r in items]


def serialize_report(report, fmt: str = "csv") -> str:
    """Render a report deterministically; newline-terminated."""
    if fmt == "csv":
        header, rows = _rows_of(report)
        return "".join(",".join(map(_fmt, row)) + "\n" for row in [header, *rows])
    if fmt == "json":
        return json.dumps(_jsonable_value(report), indent=2) + "\n"
    raise ValueError(f"unknown format '{fmt}'")
