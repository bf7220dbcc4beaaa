"""Smoke test of the benchmark: every workload at minimum size, untraced and
traced.  Emitted metric names and units must match BENCHMARK.json, every
report check must pass, and the trace must show what each workload is for."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = 0.2


def _units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def _value(result: dict, name: str) -> float:
    return result["metrics"][name]["value"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run(workload):
    result = run.run(workload, seed=0, seconds=SECONDS, trace=False, setup_repeats=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    result = run.run(workload, seed=0, seconds=SECONDS, trace=True)
    assert result["correct"] and result["failed"] == 0
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert _value(result, "trace.oracle_checks") > 0
    if workload == "ps-residues":
        floors_and_digits = (_value(result, "layer.sequences.self_s")
                             + _value(result, "layer.digits.self_s"))
        assert floors_and_digits > 0.5 * _value(result, "trace.op_s")
        assert _value(result, "layer.expsums.self_s") == 0
        assert _value(result, "layer.harmonic.self_s") == 0
    elif workload == "expsum-audits":
        assert _value(result, "sequences.ps_block_chunks.busy_s") == 0
        assert _value(result, "expsums.sine_product_integral.calls") > 0
    else:
        assert _value(result, "sequences.floor_exact.calls") > 0
        assert _value(result, "sequences.beatty_floor_range.busy_s") > 0


def test_workload_names_match():
    assert sorted(WORKLOADS) == sorted(run.WORKLOADS)
