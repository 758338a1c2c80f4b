"""The benchmark's workloads: set-up, the measured phases and their metrics.

One process, one thread, closed loop. Program entry points are looked up
on their module at call time (``pipeline.run_pipeline``), so a traced call
reaches the tracer's wrapper. A training workload runs whole
``run_pipeline`` calls and then serves predictions from the last run it
wrote; ``predict_serve`` builds its stored run during set-up and spends the
measured time serving predictions. Every operation's output is checked
outside its timed region.
"""

from __future__ import annotations

import contextlib
import io
import math
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from spreadnet import cli, pipeline
from spreadnet.demo import write_demo_workspace
from spreadnet.neural import restart_seeds, split, train
from spreadnet.pipeline import PipelineConfig

import checks
import spans

DEFAULT_SEED = 7                    # maps to the demo defaults: rng_seed 2024
RNG_SEED_OFFSET = 2024 - DEFAULT_SEED
SERIES_SEED = 7                     # demo default; see write_inputs
MIN_PIPELINES = 2
MIN_PREDICTS = 200
SERVE_CHUNK_S = 4.0                 # predictions served after each measured pipeline run
SETUP_EVERY = 50                    # predictions between set-up repetitions
STORE_BUILDS = 3                    # set-ups of predict_serve's stored run
EPOCH_PREFIX = 2                    # restart seeds per matrix re-trained for epoch counts
TRACE_PREDICTS = 150                # traced/untraced prediction pairs on predict_serve
TRACE_CLI_CALLS = 40


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    restarts: int
    enabled_sets: tuple[int, ...] | None    # None: all ten base sets
    serve_only: bool                        # trains only in set-up


WORKLOADS = {w.name: w for w in (
    Workload("pipeline_demo",
             "the user's full run: all 64 matrices plus the master at restarts=4, "
             "so per-matrix overhead shows",
             restarts=4, enabled_sets=None, serve_only=False),
    Workload("restart_search",
             "set 10 only (10 matrices) at restarts=40: many restarts on few matrices "
             "isolate the trainer and the per-restart scorer",
             restarts=40, enabled_sets=(10,), serve_only=False),
    Workload("predict_serve",
             "closed loop of predict_from_run on a run stored in set-up "
             "(restarts=2); trains nothing while measured",
             restarts=2, enabled_sets=None, serve_only=True),
)}


@dataclass
class Tally:
    """Attempted and failed operations; a wrong output counts as failed."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])

    def attempt(self, operation, check, around=contextlib.nullcontext):
        """Run ``operation`` timed inside ``around()``, then ``check`` it untimed.

        Returns (seconds, result), or (None, None) if the operation raised.
        """
        try:
            with around():
                start = time.perf_counter()
                result = operation()
                seconds = time.perf_counter() - start
        except Exception:   # a failing operation is counted, not fatal
            self.record([traceback.format_exc(limit=4)])
            return None, None
        try:
            problems = check(result)
        except Exception:   # so is a check that cannot complete
            problems = [traceback.format_exc(limit=4)]
        self.record(problems)
        return seconds, result


class Bench:
    """One benchmark process: a workload at a seed, in its own work directory."""

    def __init__(self, workload: Workload, seed: int, seconds: float, pins: checks.Pins):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.pins = pins
        self.tally = Tally()
        self.notes: list[str] = []
        self.setup_times: list[float] = []
        self.pipe_times: list[float] = []
        self.latencies: list[float] = []
        self.restarts = 0
        self._runs = 0

    # -- inputs ------------------------------------------------------------

    def write_inputs(self) -> PipelineConfig:
        """Demo CSV and config in the current directory, seeded by ``--seed``.

        ``--seed`` sets the config's ``rng_seed`` (mod 2**32), hence every restart's
        initial weights. The series keeps the demo seed: a different series
        changes which matrices stop early, and with it the amount of work
        (epochs per restart on set 10 range 528-901 over series seeds 7-12,
        against 566-573 over five rng seeds), so timings across seeds would
        compare different workloads.
        """
        _, config_path = write_demo_workspace(
            ".",
            restarts=self.w.restarts,
            rng_seed=(self.seed + RNG_SEED_OFFSET) % 2**32,
            enabled_sets=list(self.w.enabled_sets) if self.w.enabled_sets else None,
            seed=SERIES_SEED,
        )
        return PipelineConfig.from_file(config_path)

    def _pin(self, key: str) -> str | None:
        return self.pins.get(self.seed, self.w.name, key)

    # -- operations ----------------------------------------------------------

    def pipeline_once(self, config: PipelineConfig,
                      around=contextlib.nullcontext) -> tuple[float | None, Path, int]:
        """One checked ``run_pipeline``; returns (seconds, run dir, restarts trained)."""
        self._runs += 1
        run_dir = Path(f"run-{self._runs}")
        pinned = self._pin("manifest_sha256")
        seconds, result = self.tally.attempt(
            lambda: pipeline.run_pipeline(config, run_dir=run_dir),
            lambda _: checks.check_pipeline_run(run_dir, pinned),
            around,
        )
        restarts = 0 if result is None else config.train_cfg.restarts * (len(result.matrices) + 1)
        return seconds, run_dir, restarts

    def first_prediction(self, run_dir: Path) -> tuple[float | None, str | None]:
        """Warm-up call; its fingerprint is what later calls must equal."""
        pinned = self._pin("forecast")
        fingerprint = []

        def check(report):
            fingerprint.append(checks.report_fingerprint(report))
            if pinned is not None and fingerprint[0] != pinned:
                return [f"forecast {fingerprint[0]} != pinned {pinned}"]
            return []

        seconds, _ = self.tally.attempt(lambda: pipeline.predict_from_run(run_dir), check)
        return seconds, fingerprint[0] if fingerprint else None

    def predict_once(self, run_dir: Path, reference: str | None,
                     around=contextlib.nullcontext) -> float | None:
        def check(report):
            got = checks.report_fingerprint(report)
            return [] if got == reference else [f"forecast {got} != first call {reference}"]

        return self.tally.attempt(lambda: pipeline.predict_from_run(run_dir), check, around)[0]

    def serve(self, run_dir: Path, until: float, reference: str | None,
              min_calls: int = 0) -> list[float]:
        """Closed loop, one client, until ``until`` and at least ``min_calls`` calls.

        On a training workload the input set-up is repeated every SETUP_EVERY
        calls, so its samples spread over the run as well.
        """
        latencies, calls = [], 0
        while calls < min_calls or time.perf_counter() < until:
            calls += 1
            seconds = self.predict_once(run_dir, reference)
            if seconds is not None:
                latencies.append(seconds)
            if not self.w.serve_only and calls % SETUP_EVERY == 0:
                start = time.perf_counter()
                self.write_inputs()
                self.setup_times.append(time.perf_counter() - start)
        return latencies

    # -- untraced run --------------------------------------------------------

    def measure(self) -> dict:
        """End-to-end metrics. Builds alternate with serve chunks, so both
        kinds of sample spread over the whole run."""
        if self.w.serve_only:
            self._measure_serving()
        else:
            self._measure_training()

        lat = self.latencies
        p99, p99_pct = tail_latency(lat)
        self.notes += [
            f"{len(self.setup_times)} set-ups, {len(self.pipe_times)} pipeline runs "
            f"({self.restarts} restarts), {len(lat)} predictions",
            f"not gated: predict_p50_ms {median(lat) * 1e3:.6g} ms, "
            f"predict_p{p99_pct:.2f}_ms {p99 * 1e3:.6g} ms, "
            f"predicts_per_s {len(lat) / sum(lat) if lat else math.nan:.6g} 1/s",
        ]
        return {
            "setup_s": (median(self.setup_times), "s"),
            "pipeline_s": (median(self.pipe_times), "s"),
            "restarts_per_s": (self.restarts / sum(self.pipe_times)
                               if self.pipe_times else math.nan, "1/s"),
            "predict_min_ms": (min(lat) * 1e3 if lat else math.nan, "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }

    def _build(self) -> tuple[float | None, float, Path]:
        """Write inputs, then one checked run_pipeline; returns its time."""
        start = time.perf_counter()
        config = self.write_inputs()
        inputs_s = time.perf_counter() - start
        seconds, run_dir, trained = self.pipeline_once(config)
        if seconds is not None:
            self.pipe_times.append(seconds)
            self.restarts += trained
        return seconds, inputs_s, run_dir

    def _measure_training(self) -> None:
        """Pipeline, serve chunk, pipeline, serve chunk ... until --seconds."""
        end = time.perf_counter() + self.seconds
        reference, run_dir, builds = None, None, 0
        while True:
            old = run_dir
            _, inputs_s, run_dir = self._build()
            self.setup_times.append(inputs_s)
            builds += 1
            if old is not None:
                shutil.rmtree(old, ignore_errors=True)
            if reference is None:
                _, reference = self.first_prediction(run_dir)
            last = builds >= MIN_PIPELINES and (
                not self.pipe_times
                or time.perf_counter() + median(self.pipe_times) + SERVE_CHUNK_S > end)
            until = end if last else time.perf_counter() + SERVE_CHUNK_S
            self.latencies += self.serve(run_dir, until, reference,
                                         MIN_PREDICTS - len(self.latencies) if last else 0)
            if last:
                return

    def _measure_serving(self) -> None:
        """Set-up (inputs, stored run, warm-up call) then a serve chunk, STORE_BUILDS times."""
        reference, run_dir = None, None
        for build in range(STORE_BUILDS):
            old = run_dir
            seconds, inputs_s, run_dir = self._build()
            warm_s, first = self.first_prediction(run_dir)
            if old is not None:
                shutil.rmtree(old, ignore_errors=True)
            if reference is None:
                reference = first
            elif first != reference:
                self.tally.record([f"set-up {build} forecast differs from set-up 0"])
            if seconds is not None and warm_s is not None:
                self.setup_times.append(inputs_s + seconds + warm_s)
            self.latencies += self.serve(
                run_dir, time.perf_counter() + self.seconds / STORE_BUILDS, reference,
                MIN_PREDICTS // STORE_BUILDS)

    # -- traced run ----------------------------------------------------------

    def measure_traced(self, spans_path: Path) -> dict:
        """Fixed work, untraced then traced; returns the per-layer metrics."""
        observed = {"trainings": [], "matrices": 0, "master_rows": 0}
        tracer = spans.Tracer(observers={
            "neural.multi_restart_train":
                lambda a, k, r: observed["trainings"].append((a[0], a[1], len(r))),
            "preprocess.assemble_base_sets":
                lambda a, k, r: observed.__setitem__("matrices", len(r)),
            "ensemble.build_master_matrix":
                lambda a, k, r: observed.__setitem__("master_rows", r.rows),
        })
        if self.w.serve_only:
            config = self.write_inputs()
            _, run_dir, _ = self.pipeline_once(config)
            _, reference = self.first_prediction(run_dir)
            plain, traced = [], []
            for _ in range(TRACE_PREDICTS):
                plain.append(self.predict_once(run_dir, reference))
                traced.append(self.predict_once(run_dir, reference, tracer.active))
            self.cli_predicts(tracer, run_dir)
            overhead = overhead_pct(traced, plain)
            epochs = None
        else:
            config = self.write_inputs()
            plain, _, _ = self.pipeline_once(config)
            traced, run_dir, _ = self.pipeline_once(config, tracer.active)
            overhead = overhead_pct([traced], [plain])
            epochs = count_epochs(observed["trainings"])
        tracer.write(spans_path)
        manifest = run_dir / "manifest.json"
        observed["manifest_bytes"] = manifest.stat().st_size if manifest.exists() else 0
        self.notes.append(f"{len(tracer.spans)} spans written to {spans_path}")
        return layer_metrics(tracer.spans, observed, epochs, overhead)

    def cli_predicts(self, tracer: spans.Tracer, run_dir: Path) -> None:
        """``spreadnet predict --run`` in process, stdout captured, traced."""
        outputs = []

        def call():
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.main(["predict", "--run", str(run_dir)])
            return code, buffer.getvalue()

        def check(result):
            outputs.append(result)
            return [] if result == outputs[0] and result[0] == 0 else [f"cli predict gave {result}"]

        for _ in range(TRACE_CLI_CALLS):
            self.tally.attempt(call, check, tracer.active)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile (at most p99) with at least ten samples beyond it."""
    n = len(latencies)
    if n < 11:
        return math.nan, math.nan
    ordered = sorted(latencies)
    index = min(n - 11, math.ceil(0.99 * n) - 1)
    return ordered[index], 100.0 * (index + 1) / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def overhead_pct(traced: list, plain: list) -> float:
    traced = [t for t in traced if t is not None]
    plain = [p for p in plain if p is not None]
    return 100.0 * (median(traced) / median(plain) - 1.0)


def count_epochs(trainings: list) -> dict:
    """Re-train a fixed prefix of each matrix's restart seeds, counting epochs.

    ``neural.train`` with ``history`` appends one entry per epoch, accepted
    or rejected, so ``len(history)`` is the epoch count; fewer than
    ``cycles`` entries means the restart stopped early.
    """
    epochs = early = restarts = 0
    seconds = 0.0
    for matrix, cfg, _ in trainings:
        train_part = split(matrix, cfg)[0]
        for seed in restart_seeds(cfg.rng_seed, cfg.restarts)[:EPOCH_PREFIX]:
            history: list = []
            start = time.perf_counter()
            train(train_part, cfg, seed=int(seed), history=history)
            seconds += time.perf_counter() - start
            epochs += len(history)
            early += len(history) < cfg.cycles
            restarts += 1
    return {"epochs": epochs, "early": early, "restarts": restarts, "seconds": seconds}


def layer_metrics(span_list: list, observed: dict, epochs: dict | None,
                  overhead: float) -> dict:
    """Every per-layer metric; a layer the workload does not reach reads 0."""
    agg = spans.aggregate(span_list)
    dur, self_ns = spans.span_times(span_list)
    zero = {"calls": 0, "total_ms": 0.0, "self_ms": 0.0}

    def total(name):
        return agg.get(name, zero)["total_ms"]

    def mean_ms(name):
        a = agg.get(name, zero)
        return a["total_ms"] / a["calls"] if a["calls"] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}
    for name in spans.traced_names():
        a = agg.get(name, zero)
        out[f"{name}.calls"] = (a["calls"], "count")
        out[f"{name}.total_ms"] = (a["total_ms"], "ms")
        out[f"{name}.self_ms"] = (a["self_ms"], "ms")

    trainings = observed["trainings"]
    attempted = sum(cfg.restarts for _, cfg, _ in trainings)
    runs = agg.get("pipeline.run_pipeline", zero)["calls"]
    epochs = epochs or {"epochs": 0, "early": 0, "restarts": 0, "seconds": 0.0}
    out.update({
        "neural.restart_ms": (ratio(agg.get("neural.multi_restart_train", zero)["self_ms"],
                                    attempted), "ms"),
        "neural.epoch_us": (ratio(epochs["seconds"] * 1e6, epochs["epochs"]), "us"),
        "neural.epochs_per_restart": (ratio(epochs["epochs"], epochs["restarts"]), "count"),
        "neural.early_stop_ratio": (ratio(epochs["early"], epochs["restarts"]), "ratio"),
        "neural.diverged": (sum(cfg.restarts - n for _, cfg, n in trainings), "count"),
        "neural.save_model_ms": (mean_ms("neural.save_model"), "ms"),
        "neural.load_model_ms": (mean_ms("neural.load_model"), "ms"),
        "neural.predict_us": (mean_ms("neural.predict") * 1e3, "us"),
        "scoring.ism_scorer_us": (mean_ms("scoring.ism_scorer") * 1e3, "us"),
        "scoring.ism_scorer_share": (ratio(total("scoring.ism_scorer"),
                                           total("neural.multi_restart_train")), "ratio"),
        "scoring.score_model_ms": (mean_ms("scoring.score_model"), "ms"),
        "metrics.equity_curves_us": (mean_ms("metrics.equity_curves") * 1e3, "us"),
        "metrics.modified_sharpe_us": (mean_ms("metrics.modified_sharpe") * 1e3, "us"),
        "series.ingest_ms": (mean_ms("pipeline.ingest"), "ms"),
        "preprocess.assemble_ms": (mean_ms("preprocess.assemble_base_sets"), "ms"),
        "preprocess.derived_ms": (mean_ms("preprocess.build_derived_columns"), "ms"),
        "preprocess.matrices": (observed["matrices"], "count"),
        "pipeline.load_run_ms": (mean_ms("pipeline.load_run"), "ms"),
        "pipeline.manifest_ms": (ratio(total("pipeline.build_manifest")
                                       + total("pipeline._write_manifest"), runs), "ms"),
        "pipeline.reports_ms": (mean_ms("pipeline.emit_reports"), "ms"),
        "pipeline.manifest_bytes": (observed["manifest_bytes"], "bytes"),
        "ensemble.select_ms": (mean_ms("ensemble.select_best"), "ms"),
        "ensemble.build_master_ms": (mean_ms("ensemble.build_master_matrix"), "ms"),
        "ensemble.train_master_ms": (mean_ms("ensemble.train_master"), "ms"),
        "ensemble.master_rows": (observed["master_rows"], "count"),
    })

    # cli.predict_ms: a cli.main span minus the predict_from_run it wraps.
    cli_calls = [i for i, s in enumerate(span_list) if s[spans.NAME] == "cli.main"]
    inner = sum(dur[i] for i, s in enumerate(span_list)
                if s[spans.NAME] == "pipeline.predict_from_run"
                and s[spans.PARENT] >= 0 and span_list[s[spans.PARENT]][spans.NAME] == "cli.main")
    out["cli.predict_ms"] = (ratio((sum(dur[i] for i in cli_calls) - inner) / 1e6,
                                   len(cli_calls)), "ms")

    # Self time per layer, per root operation (a pipeline run or a prediction).
    roots = [i for i, s in enumerate(span_list) if s[spans.PARENT] < 0]
    root_ms = sum(dur[i] for i in roots) / 1e6
    layer_self = {layer: 0.0 for layer in spans.LAYERS}
    for i, s in enumerate(span_list):
        layer_self[s[spans.NAME].split(".", 1)[0]] += self_ns[i] / 1e6
    for layer, ms in layer_self.items():
        out[f"{layer}.self_ms"] = (ratio(ms, len(roots)), "ms")

    serve_path = (total("pipeline.load_run") + total("pipeline.ingest")
                  + total("preprocess.build_derived_columns") + total("neural.load_model"))
    out.update({
        "trace.overhead_pct": (overhead, "%"),
        "trace.spans": (len(span_list), "count"),
        "trace.train_path_share": (ratio(layer_self["neural"] + layer_self["scoring"],
                                         root_ms), "ratio"),
        "trace.serve_path_share": (ratio(serve_path, total("pipeline.predict_from_run")),
                                   "ratio"),
    })
    return out
