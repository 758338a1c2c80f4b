"""Rewrite pinned.json: manifest digests and forecasts at the default seed.

    python3 perfbench/pin.py

Runs each workload's pipeline once, as the benchmark configures it, on this
platform. Re-pin only for a change that is meant to alter the numbers, and
name that change; a change that claims "same answers, faster" must pass
against the existing pins.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

from run import ROOT, import_program


def main() -> int:
    import_program()
    import checks
    import workloads
    from spreadnet import pipeline

    pins = {"seed": workloads.DEFAULT_SEED,
            "platform": checks.platform_key(checks.provenance()),
            "workloads": {}}
    home = os.getcwd()
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="pin-", dir=ROOT / ".bench_work")
    try:
        os.chdir(work)
        for name, workload in workloads.WORKLOADS.items():
            bench = workloads.Bench(workload, workloads.DEFAULT_SEED, 1.0, pins=None)
            pipeline.run_pipeline(bench.write_inputs(), run_dir=name)
            report = pipeline.predict_from_run(name)
            pins["workloads"][name] = {
                "manifest_sha256": checks.manifest_digest(pipeline.load_run(name)),
                "forecast": checks.report_fingerprint(report),
            }
            print(f"{name}: forecast {report.target_month} {report.forecast.value!r}")
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)
    checks.PINS_PATH.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {checks.PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
