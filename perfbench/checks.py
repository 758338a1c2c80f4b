"""Output checks for the benchmark, run outside every timed region.

A pipeline run is checked by reloading every stored model, rebuilding its
test split from the run's own config, and re-scoring it: the ISM and the
predicted levels must equal the manifest's bit for bit. At the default
seed the manifest digest (``created_at`` removed) must also equal the
pinned one. A prediction is checked against the first prediction from the
same run and, at the default seed, against the pinned fingerprint.

Pins hold only for the platform they were taken on (CPU, numpy, BLAS),
because bit-exact floating point depends on it; elsewhere the pin is
reported as not comparable and the other checks still apply.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
from pathlib import Path

import numpy as np
import scipy

from spreadnet.ensemble import Candidate, build_master_matrix
from spreadnet.metrics import PERFECT_STRATEGY
from spreadnet.neural import load_model, split
from spreadnet.pipeline import PipelineConfig, assemble, ingest, load_run
from spreadnet.scoring import score_model

PINS_PATH = Path(__file__).resolve().parent / "pinned.json"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def manifest_digest(manifest: dict) -> str:
    """SHA-256 of the manifest with its timestamp removed."""
    body = {k: v for k, v in manifest.items() if k != "created_at"}
    return hashlib.sha256(canonical(body).encode("utf-8")).hexdigest()


def _score_problems(label: str, score, entry: dict) -> list[str]:
    problems = []
    ism = "perfect" if score.ism is PERFECT_STRATEGY else float(score.ism)
    if canonical(ism) != canonical(entry["ism"]):
        problems.append(f"{label}: re-scored ISM {ism!r} != manifest {entry['ism']!r}")
    levels = [float(v) for v in score.predicted_levels]
    if canonical(levels) != canonical(entry["predicted_levels"]):
        problems.append(f"{label}: re-scored predicted levels differ from the manifest")
    return problems


def check_pipeline_run(run_dir: Path, pinned_digest: str | None = None) -> list[str]:
    """Problems found in a finished run; an empty list means it checks out."""
    manifest = load_run(run_dir)
    problems = []
    if pinned_digest is not None and manifest_digest(manifest) != pinned_digest:
        problems.append(f"manifest digest {manifest_digest(manifest)} != pinned {pinned_digest}")
    config = PipelineConfig.from_dict(manifest["config"])
    cfg = config.train_cfg
    matrices = {(m.base_set_id, m.lag): m for m in assemble(config, ingest(config))}
    entries = manifest.get("candidates", [])
    if len(entries) != len(matrices):
        problems.append(f"{len(entries)} candidates for {len(matrices)} matrices")
    by_name = {}
    for entry in entries:
        matrix = matrices[(entry["base_set"], entry["lag"])]
        model = load_model(run_dir / entry["model_path"])
        score = score_model(model, split(matrix, cfg)[1])
        problems += _score_problems(entry["name"], score, entry)
        by_name[entry["name"]] = Candidate(entry["base_set"], entry["lag"],
                                           entry["winning_seed"], model, score)
    if "master" not in manifest:
        return problems + ["manifest has no master"]
    members = [by_name[name] for name in manifest["members"]]
    master_matrix = build_master_matrix(members)
    master = load_model(run_dir / manifest["master"]["model_path"])
    score = score_model(master, split(master_matrix, cfg)[1])
    return problems + _score_problems("master", score, manifest["master"])


def report_fingerprint(report) -> str:
    """Every number a prediction returns, as canonical JSON."""
    return canonical({
        "target_month": report.target_month,
        "value": report.forecast.value,
        "direction": report.forecast.direction,
        "up_vote_percent": report.forecast.up_vote_percent,
        "members": report.member_forecasts,
        "last_actual": report.last_actual,
    })


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": deps.get("name"), "version": deps.get("version"),
                "config": deps.get("openblas configuration")}
    except (TypeError, KeyError):
        return {"name": None, "version": None, "config": None}


def _simd() -> list[str]:
    try:
        return list(np.show_config(mode="dicts")["SIMD Extensions"]["found"])
    except (TypeError, KeyError):
        return []


def provenance() -> dict:
    """Machine and library facts that timings and bit-exactness depend on."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "simd": _simd(),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def platform_key(prov: dict) -> dict:
    """The part of the provenance that decides floating-point bits."""
    return {k: prov[k] for k in ("cpu_model", "machine", "numpy", "blas", "simd")}


class Pins:
    """Pinned digests and fingerprints for the default seed."""

    def __init__(self, path: Path = PINS_PATH):
        data = json.loads(path.read_text(encoding="utf-8"))
        self.seed = data["seed"]
        self.platform = data["platform"]
        self.workloads = data["workloads"]
        self._same_platform = self.platform == platform_key(provenance())

    def applies(self, seed: int) -> bool:
        return seed == self.seed and self._same_platform

    def status(self, seed: int) -> str:
        if seed != self.seed:
            return f"not checked: pins are for seed {self.seed}"
        if not self.applies(seed):
            return "not checked: platform differs from the pinned one"
        return "checked"

    def get(self, seed: int, workload: str, key: str) -> str | None:
        if not self.applies(seed):
            return None
        return self.workloads[workload][key]
