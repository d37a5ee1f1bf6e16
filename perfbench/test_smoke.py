"""Smoke check of the benchmark harness: one operation per workload.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs one operation untraced and once traced; every metric
``BENCHMARK.json`` names must be reported and no operation may fail.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

import tracing  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_one_operation_reports_every_metric(workload, trace, monkeypatch):
    monkeypatch.setattr(run, "MIN_OPS", 1)
    result = run.run(workload, seed=1, seconds=0, trace=trace, limit=1)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert result["attempted"] == (2 if trace else 1)
    assert result["failed"] == 0 and result["correct"]


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [m["name"] for m in SPEC["per_layer"]] == tracing.metric_names()


def test_closed_form_bypasses_matching_oracle_and_certify():
    metrics = run.run("closed-form", seed=1, seconds=0, trace=True, limit=1)["metrics"]
    calls = {name: m["value"] for name, m in metrics.items() if name.endswith(".calls_per_op")}
    assert calls["cli.run.calls_per_op"] == 1
    assert not any(
        value for name, value in calls.items()
        if name.startswith(("matching.", "oracle.", "certify."))
    )


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
