"""Smoke test for the benchmark itself: every workload at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import run  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402


def bench(workload: str, trace: int) -> tuple[list[str], dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_spec_lists_the_metrics_run_py_reports():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, unit, better, _, _ in run.PER_LAYER
    ]
    assert WORKLOADS == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_printed_with_units(workload):
    lines, result = bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.startswith("failed_frac 0 ratio") for line in lines)
    assert any(line.startswith("# host ") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_self_times_sum_to_traced_wall(workload):
    _, result = bench(workload, 1)
    metrics = result["metrics"]
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    layer_self = sum(v["value"] for k, v in metrics.items() if k.startswith("layer."))
    assert layer_self == pytest.approx(metrics["trace.wall_s"]["value"], rel=0.01, abs=0.005)
    assert metrics["cp.run_cp.calls"]["value"] == metrics["trace.instances"]["value"]


def test_missing_layer_name_is_reported_absent():
    extra = (
        ("offline.gone", "bdsched.offline", "no_such_function"),
        ("model.gone", "bdsched.model", "Quad17.no_such_method"),
        ("nowhere.gone", "bdsched.no_such_module", "f"),
    )
    tracer = Tracer(TARGETS + extra)
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == [
        "bdsched.offline.no_such_function",
        "bdsched.model.Quad17.no_such_method",
        "bdsched.no_such_module.f",
    ]
    assert tracer.absent_spans() == {"offline.gone", "model.gone", "nowhere.gone"}
