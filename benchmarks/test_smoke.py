"""Self-test of the benchmark at a tiny scale.

    python3 -m pytest benchmarks/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is emitted with its
unit, that a corrupted output fails a check and counts as a failed op,
and that the benchmark refuses to run without the package source.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ.pop("UCSB_THREADS", None)

import workloads  # noqa: E402
from workloads import SMOKE  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.PASSES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_declared_metric_is_emitted(workload, trace):
    result = workloads.run_workload(workload, seed=3, seconds=0.01, trace=trace, scale=SMOKE)
    summary = json.loads(json.dumps(result.summary()))
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in summary["metrics"].items()
    }
    for name, value in summary["metrics"].items():
        assert isinstance(value["value"], (int, float)), name
    if not trace:
        assert all(v["value"] > 0 for v in summary["metrics"].values())


def test_lab_at_smoke_scale_is_correct():
    result = workloads.run_workload("lab", seed=3, seconds=0.01, trace=False, scale=SMOKE)
    assert result.run.failed == 0, result.run.errors
    assert result.summary()["correct"]


def test_corrupted_enumeration_fails_the_run(monkeypatch):
    real = workloads.ucslab.enumerate_or_closed
    monkeypatch.setattr(workloads.ucslab, "enumerate_or_closed", lambda n: list(real(n))[:-1])
    result = workloads.run_workload("lab", seed=3, seconds=0.01, trace=False, scale=SMOKE)
    assert result.run.failed >= 3  # one per enumerated n
    assert not result.summary()["correct"]


def test_checks_reject_corrupted_outputs():
    argmin = dict(workloads.REF_ARGMIN)
    assert workloads.check_reference(1.0000088929, argmin) == []
    assert workloads.check_reference(1.0000188929, argmin)
    assert workloads.check_reference(float("nan"), argmin)
    assert workloads.check_reference(1.0000088929, {**argmin, "beta": 0.158})
    assert workloads.check_count(4, 4959) == [] and workloads.check_count(4, 4958)
    assert workloads.check_min_peak(0.5) == [] and workloads.check_min_peak(0.4)
    p, q, r = 0.3, 0.6, 0.25
    rho = abs(r - p * q) / (p * (1 - p) * q * (1 - q)) ** 0.5
    assert workloads.check_maxcorr(rho, p, q, r) == []
    assert workloads.check_maxcorr(rho + 1e-6, p, q, r)


def test_reports_must_repeat_byte_for_byte():
    ctx = {"digests": {}}
    verify = workloads._cli_check("maxcorr", lambda report, csv: [], ctx)
    assert verify([b'{"a": 1}', b"{}"]) == []
    assert verify([b'{"a": 1}', b"{}"]) == []
    assert verify([b'{"a": 2}', b"{}"])
    assert verify([b"not json", b"{}"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "lab", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
