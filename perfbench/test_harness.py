"""Self-test of the benchmark harness on tiny sizes.

    python3 -m pytest -q perfbench/test_harness.py

One base set at restarts=1 and a few predictions: every metric named in
BENCHMARK.json is emitted with its unit, span self times are consistent,
a tampered manifest counts as a failure, and the command fails cleanly
where there are no sources.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run

run.import_program()

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 1    # not the pinned seed, so the tiny workloads need no pins

TINY_TRAIN = replace(workloads.WORKLOADS["restart_search"], name="tiny_train", restarts=1)
TINY_SERVE = replace(workloads.WORKLOADS["predict_serve"], name="tiny_serve",
                     restarts=1, enabled_sets=(10,))


@pytest.fixture(autouse=True)
def tiny(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(workloads, "MIN_PIPELINES", 2)
    monkeypatch.setattr(workloads, "MIN_PREDICTS", 12)
    monkeypatch.setattr(workloads, "SERVE_CHUNK_S", 0.0)
    monkeypatch.setattr(workloads, "SETUP_EVERY", 4)
    monkeypatch.setattr(workloads, "STORE_BUILDS", 2)
    monkeypatch.setattr(workloads, "EPOCH_PREFIX", 1)
    monkeypatch.setattr(workloads, "TRACE_PREDICTS", 3)
    monkeypatch.setattr(workloads, "TRACE_CLI_CALLS", 2)


def bench(workload):
    return workloads.Bench(workload, SEED, 0.05, checks.Pins())


def expect_metrics(metrics: dict, declared: list[dict]) -> None:
    assert list(metrics) == [m["name"] for m in declared]
    for m in declared:
        value, unit = metrics[m["name"]]
        assert unit == m["unit"], m["name"]
        assert isinstance(value, (int, float)) and math.isfinite(value), m["name"]


@pytest.mark.parametrize("workload", [TINY_TRAIN, TINY_SERVE], ids=lambda w: w.name)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    b = bench(workload)
    metrics = b.measure()
    expect_metrics(metrics, SPEC["end_to_end"])
    assert all(metrics[m["name"]][0] > 0 for m in SPEC["end_to_end"])
    assert b.tally.attempted > 0 and b.tally.failed == 0, b.tally.problems


@pytest.mark.parametrize("workload", [TINY_TRAIN, TINY_SERVE], ids=lambda w: w.name)
def test_traced_run_emits_every_per_layer_metric(workload, tmp_path):
    b = bench(workload)
    metrics = b.measure_traced(tmp_path / "spans.json")
    expect_metrics(metrics, SPEC["per_layer"])
    assert b.tally.failed == 0, b.tally.problems
    written = json.loads((tmp_path / "spans.json").read_text(encoding="utf-8"))["spans"]
    assert len(written) == metrics["trace.spans"][0] > 0


def test_self_times_are_nonnegative_and_bounded_by_parent(tmp_path):
    b = bench(TINY_SERVE)
    b.measure_traced(tmp_path / "spans.json")
    span_list = json.loads((tmp_path / "spans.json").read_text(encoding="utf-8"))["spans"]
    dur, self_ns = spans.span_times(span_list)
    assert min(self_ns) >= 0
    subtree_self = list(self_ns)
    for i in reversed(range(len(span_list))):     # children come after parents
        parent = span_list[i][spans.PARENT]
        if parent >= 0:
            assert parent < i
            subtree_self[parent] += subtree_self[i]
    for i in range(len(span_list)):
        assert subtree_self[i] <= dur[i]
    names = {s[spans.NAME] for s in span_list}
    assert {"pipeline.predict_from_run", "cli.main", "neural.load_model"} <= names


def test_tampered_manifest_counts_as_failure():
    b = bench(TINY_TRAIN)
    config = b.write_inputs()
    _, run_dir, _ = b.pipeline_once(config)
    assert b.tally.failed == 0, b.tally.problems
    path = run_dir / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))

    manifest["created_at"] = "2000-01-01T00:00:00Z"     # outside the digest
    path.write_text(json.dumps(manifest), encoding="utf-8")
    digest = checks.manifest_digest(manifest)
    assert checks.check_pipeline_run(run_dir, digest) == []

    entry = manifest["candidates"][3]
    entry["predicted_levels"][0] = math.nextafter(entry["predicted_levels"][0], math.inf)
    path.write_text(json.dumps(manifest), encoding="utf-8")
    tally = workloads.Tally()
    tally.attempt(lambda: None, lambda _: checks.check_pipeline_run(run_dir, digest))
    assert (tally.attempted, tally.failed) == (1, 1)
    assert any("digest" in p for p in tally.problems)
    assert any(entry["name"] in p for p in tally.problems)


def test_tail_latency_keeps_ten_samples_beyond():
    assert workloads.tail_latency(list(range(1000)))[0] == 989       # p99
    value, pct = workloads.tail_latency(list(range(200)))
    assert value == 189 and pct == pytest.approx(95.0)


def test_command_fails_without_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "predict_serve",
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
