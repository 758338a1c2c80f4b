"""spreadnet benchmark: one command, three workloads, every output checked.

    python3 perfbench/run.py --workload pipeline_demo --seed 7 --seconds 30 --trace 0

Run it from the root of a checkout: it imports ``spreadnet`` from ``src/``
there and nowhere else, and works in ``.bench_work/`` (removed on exit).
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run (spans go to ``.bench_out/``). The last
line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One process, one thread: keep BLAS from starting a thread pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def import_program() -> None:
    """Make ``import spreadnet`` load this checkout's sources, or exit."""
    if not (SRC / "spreadnet" / "__init__.py").is_file():
        sys.exit(f"perfbench: no spreadnet sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import spreadnet

    if Path(spreadnet.__file__).resolve().parent != (SRC / "spreadnet").resolve():
        sys.exit(f"perfbench: imported spreadnet from {spreadnet.__file__}, not {SRC}")


def _json_number(value):
    return value if math.isfinite(value) else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    import_program()
    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    pins = checks.Pins()
    bench = workloads.Bench(workload, args.seed, args.seconds, pins)

    work = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True)
    home = os.getcwd()
    os.chdir(work)
    try:
        if args.trace:
            spans_path = ROOT / ".bench_out" / f"spans-{workload.name}-seed{args.seed}.json"
            metrics = bench.measure_traced(spans_path)
        else:
            metrics = bench.measure()
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass    # another benchmark process still works there

    tally = bench.tally
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}, seconds {args.seconds:g}, trace {args.trace}; "
          f"pins {pins.status(args.seed)}")
    for note in bench.notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:>14.6g} {unit}")
    print(f"  {'error_rate':44s} {tally.failed / max(tally.attempted, 1):>14.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    for problem in tally.problems[:10]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": _json_number(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
