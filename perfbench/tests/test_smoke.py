"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402

bench.import_library(ROOT)

import cgfusion as cg  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
#: Per-layer figures the library does not reach at all today (it has no QR call).
ZERO_TODAY = {"linalg.qr.calls"}


def tiny_run(name, trace, tmp_path):
    return bench.run(name, seed=0, seconds=0.01, trace=trace, root=tmp_path, tiny=True)


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    return {
        (name, trace): tiny_run(name, trace, out)
        for name in workloads.WORKLOADS
        for trace in (False, True)
    }


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert tuple(workloads.WORKLOADS) == bench.WORKLOADS


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(records, name):
    record = records[(name, False)]
    assert record["correct"], record["failures_by_reason"]
    line = bench.result_line(record, SPEC)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        assert metric["name"] in record["metrics"]
        assert line["metrics"][metric["name"]]["value"] > 0
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert "error_rate" in record["metrics"]
    assert record["host_ref_ms"]["samples"] >= 1
    if name == "cli-wide":
        assert record["metrics"]["cmd_read_p50_ms"] > 0
        assert record["metrics"]["cmd_write_p50_ms"] > 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(records, name):
    record = records[(name, True)]
    assert record["correct"], record["failures_by_reason"]
    line = bench.result_line(record, SPEC)
    assert [m["name"] for m in SPEC["per_layer"]] == list(line["metrics"])
    assert 0.5 < record["metrics"]["trace.coverage"] <= 1.0
    assert "trace.overhead_s" in record["metrics"]
    assert record["metrics"]["host.ref_ms"] > 0


def test_every_per_layer_metric_is_measured_by_some_workload(records):
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        values = [records[(w, True)]["metrics"].get(name, 0.0) for w in workloads.WORKLOADS]
        if name in ZERO_TODAY:
            assert values == [0.0, 0.0, 0.0], name
        else:
            assert any(values), name


def test_layer_split_between_workloads(records):
    certify = records[("certify-tall", True)]["metrics"]
    cli = records[("cli-wide", True)]["metrics"]
    assert certify["operators.orthonormal_columns.calls"] == 0
    assert certify["sysio.load_document.busy_s"] == 0
    assert cli["sysio.bytes_read"] > 0 and cli["report.bytes_written"] > 0
    assert cli["cli.main.check.busy_s"] > 0


def test_corrupted_frame_bounds_fail_the_operation(monkeypatch, tmp_path):
    real = cg.frame_bounds

    def corrupted(system, *args, **kwargs):
        bounds = real(system, *args, **kwargs)
        return cg.FrameBounds(bounds.lower, bounds.upper * 1.5, bounds.classification)

    monkeypatch.setattr(cg, "frame_bounds", corrupted)
    workload = workloads.make("campaign-small", 0, tmp_path, tiny=True)
    record = harness.measure(workload, 0.01)
    assert record["failed"] == record["attempted"]
    assert not record["correct"]
    assert record["failures_by_reason"]["check:frame_bounds"] == record["attempted"]


def test_failure_counts_do_not_depend_on_run_length(monkeypatch, tmp_path):
    real = cg.bounded_below_analysis

    def failing_on_odd_systems(pair, *args, **kwargs):
        report = real(pair, *args, **kwargs)
        odd = pair.chi.ambient_dim % 2 == 1
        return dataclasses.replace(report, passed=report.passed and not odd)

    monkeypatch.setattr(cg, "bounded_below_analysis", failing_on_odd_systems)
    workload = workloads.make("campaign-small", 0, tmp_path, tiny=True)
    short = harness.measure(workload, 0.0)
    long = harness.measure(workload, 1.0)
    assert short["executions"] == short["attempted"] == 8 < long["executions"]
    assert 0 < short["failed"] == long["failed"] < 8
    assert short["failed_keys"] == long["failed_keys"]
    assert long["unstable"] == 0


def test_corrupted_and_changed_cli_outputs_are_rejected(tmp_path):
    workload = workloads.make("cli-wide", 0, tmp_path, tiny=True)
    workload.setup()
    assert workload.check(0, workload.run(0)) == []
    out = workload.run(0)
    assert workload.check(0, out) == []  # byte-identical to the first pass
    parseval = workload.files["P"]
    doc = json.loads(parseval.read_text(encoding="utf-8"))
    doc["nodes"][0]["v"] *= 2.0
    parseval.write_text(json.dumps(doc), encoding="utf-8")
    reasons = workload.check(0, out)
    assert ("check", "parseval_identity") in reasons
    assert ("check", "nondeterministic_P") in reasons


def test_run_refuses_a_checkout_without_sources(tmp_path):
    with pytest.raises(ImportError):
        bench.import_library(tmp_path)
