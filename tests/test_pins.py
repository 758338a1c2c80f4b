"""The bit-exact claim, checked against the benchmark's seed-7 pins.

Each workload's stored-run set-up runs through the benchmark's own
``Bench`` (``perfbench/workloads.py``) in a temporary directory: inputs,
one checked ``run_pipeline`` and the first prediction. The checks in
``perfbench/checks.py`` re-score every stored model and compare the
manifest digest and the forecast with ``perfbench/pinned.json``, so
0 failed operations means the run reproduced the pinned numbers bit for
bit. Pins hold only on the platform they were taken on; elsewhere the
test skips with the reason the pins give.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import checks  # noqa: E402
import workloads  # noqa: E402

PINS = checks.Pins()


@pytest.mark.parametrize("name", ["pipeline_demo", "restart_search", "predict_serve"])
def test_stored_run_matches_pins(name, tmp_path, monkeypatch):
    status = PINS.status(PINS.seed)
    if status != "checked":
        pytest.skip(status)
    monkeypatch.chdir(tmp_path)
    bench = workloads.Bench(workloads.WORKLOADS[name], PINS.seed, seconds=0.0, pins=PINS)
    config = bench.write_inputs()
    seconds, run_dir, _ = bench.pipeline_once(config)
    assert seconds is not None, bench.tally.problems
    bench.first_prediction(run_dir)
    assert bench.tally.attempted == 2
    assert bench.tally.failed == 0, bench.tally.problems
