"""Pipeline orchestration: one declarative JSON config drives ingest,
base-set assembly, multi-restart training, selection, master training,
and report emission, with a manifest that pins every seed, score, and
artifact path. A second run with the same config reproduces every number
bit-exactly (the manifest differs only in its timestamp).

Stages run sequentially; all randomness flows from the config's root seed
through per-matrix seeds derived as SeedSequence([root, set, lag]).
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import json
import numbers
import os
import time
import types
import typing
from dataclasses import dataclass, field, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import preprocess as pp
from .ensemble import (
    Candidate,
    Forecast,
    build_master_matrix,
    fit_candidates,
    master_forecast,
    select_best,
    shared_window,
    train_master,
)
from .errors import (
    IncompleteManifest,
    MissingFile,
    PipelineStageError,
    SpreadnetError,
    StaleModel,
)
from .metrics import (
    PERFECT_STRATEGY,
    divergence_percentage,
    equity_curves,
    positions_from_forecasts,
)
from .neural import TrainConfig, load_model, predict, save_model
from .preprocess import (
    BaseSetSpec,
    BlockAverageConfig,
    SmoothingConfig,
    TrainingMatrix,
    VarConfig,
    assemble_base_sets,
    build_derived_columns,
    default_base_sets,
)
from .series import AlignedFrame, MonthlySeries, align, format_month, load_series, parse_month

STAGES = ("ingest", "preprocess", "train", "select", "master", "report")
VARIABLES = (pp.INDICATOR, pp.OUTPUT_VARIABLE, pp.GLOBAL_SPREAD, pp.TBILL)
# data.variables: for each variable, the CSV file and column its series is read from.
DataEntry = typing.TypedDict("DataEntry", {"path": str, "column": str})
DataVariables = typing.TypedDict("DataVariables", {v: DataEntry for v in VARIABLES})

MANIFEST_FORMAT = 1
MANIFEST_NAME = "manifest.json"
SERVE_NAME = "serve.json"
MASTER_MODEL_PATH = "models/master.json"
REPORT_FORMATS = ("csv", "txt")
# The paper's regime: TrainConfig defaults to it, PipelineConfig to desk scale.
FULL_SCALE_RESTARTS = TrainConfig.restarts


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineConfig:
    """Typed view of the JSON pipeline config; round-trips exactly.

    Each field's annotation (and, for a config dataclass, its fields'
    annotations) is the type its JSON key takes; ``_SECTIONS`` is where the
    key sits in the JSON document.
    """

    variables: DataVariables = field(default_factory=dict)
    date_column: str = "date"
    var_cfg: VarConfig = field(default_factory=VarConfig)
    smoothing: SmoothingConfig = field(default_factory=SmoothingConfig)
    ma_levels: tuple[BlockAverageConfig, ...] = pp.DEFAULT_MA_LEVELS
    enabled_sets: tuple[int, ...] = tuple(range(1, 11))
    single_lag: int = 1
    training: TrainConfig = field(default_factory=lambda: TrainConfig(restarts=50))
    full_scale: bool = False
    top_k: int = 10
    output_dir: str = "runs"
    formats: tuple[str, ...] = ("csv", "txt")

    def __post_init__(self):
        for name, hint in _hints(type(self)).items():
            object.__setattr__(self, name, _checked(getattr(self, name), hint, _PLACES[name]))
        for name in ("top_k", "single_lag"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"config {_PLACES[name]} must be at least 1, got {getattr(self, name)}")
        for i, set_id in enumerate(self.enabled_sets):
            if set_id not in _BASE_SET_IDS:
                raise ValueError(f"config base_sets.enabled.{i} names no base set: {set_id}")
        for i, fmt in enumerate(self.formats):
            if fmt not in REPORT_FORMATS:
                raise ValueError(f"config output.formats.{i} is an unknown format {fmt!r}; "
                                 f"choose from {list(REPORT_FORMATS)}")

    @property
    def train_cfg(self) -> TrainConfig:
        """The effective training config; full_scale forces the paper's restart count."""
        if self.full_scale:
            return replace(self.training, restarts=FULL_SCALE_RESTARTS)
        return self.training

    def base_set_specs(self) -> tuple[BaseSetSpec, ...]:
        return default_base_sets(single_lag=self.single_lag)

    def to_dict(self) -> dict:
        document: dict = {}
        for section, keys in _SECTIONS.items():
            for key, name in keys.items():
                value = _to_json(getattr(self, name))
                if key is None:
                    document[section] = value
                else:
                    document.setdefault(section, {})[key] = value
        return document

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        """Parse the layout ``to_dict`` writes; absent keys keep the defaults.

        An unknown key at any level, a section that is not an object, or a
        value that is not of its field's type raises ValueError naming the
        dotted key.
        """
        kwargs = {}
        for section, value in _config_object(data, "", _SECTIONS).items():
            keys = _SECTIONS[section]
            whole = keys.get(None)
            if whole and not (isinstance(value, dict) and is_dataclass(_hints(cls)[whole])):
                kwargs[whole] = value  # ma_levels' list, or a section the checker rejects
                continue
            value = dict(_config_object(value, section, value if whole else keys))
            kwargs.update((keys[key], value.pop(key)) for key in list(value) if key in keys)
            if whole:  # the config dataclass takes the other keys, over the field's default
                kwargs[whole] = {**vars(cls.__dataclass_fields__[whole].default_factory()), **value}
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        """Parse a JSON config file; ValueError names a file that is not UTF-8 JSON."""
        path = Path(path)
        if not path.exists():
            raise MissingFile(f"config file not found: {path}")
        return cls.from_dict(_read_json(path, ValueError))


# JSON section -> {key: PipelineConfig field}. The key None marks the field
# that takes the whole section: a config dataclass's fields are the section's
# other keys, and ma_levels is the section's list.
_SECTIONS = {
    "data": {"date_column": "date_column", "variables": "variables"},
    "var": {None: "var_cfg"},
    "smoothing": {None: "smoothing"},
    "ma_levels": {None: "ma_levels"},
    "base_sets": {"enabled": "enabled_sets", "single_lag": "single_lag"},
    "training": {None: "training", "full_scale": "full_scale"},
    "selection": {"top_k": "top_k"},
    "output": {"directory": "output_dir", "formats": "formats"},
}
_PLACES = {name: section if key is None else f"{section}.{key}"
           for section, keys in _SECTIONS.items() for key, name in keys.items()}
_BASE_SET_IDS = frozenset(spec.id for spec in default_base_sets())

# Resolved annotations of the config types; resolving one takes about 0.5 ms.
_hints = functools.cache(typing.get_type_hints)

_SCALARS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number"),
            bool: (bool, "true or false"), str: (str, "a string")}


def _checked(value, hint, where: str):
    """``value`` as the annotation ``hint`` reads it; ValueError names ``where`` if it is not one.

    ``int`` takes Python and numpy integers (returned as int), ``float`` any
    real number, and neither a bool. ``X | None`` takes null, ``tuple[X, ...]``
    a list, a TypedDict an object with all its keys, and a config dataclass
    an object of its fields or an instance, built anew from its checked
    fields.
    """
    scalar = _SCALARS.get(hint)
    if scalar:
        if type(value) is hint:
            return value
        if isinstance(value, scalar[0]) and (hint is bool or not isinstance(value, bool)):
            return int(value) if hint is int else value
        raise ValueError(f"config {where} must be {scalar[1]}, got {value!r}")
    if isinstance(hint, types.UnionType):  # X | None
        return None if value is None else _checked(value, hint.__args__[0], where)
    if getattr(hint, "__origin__", None) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"config {where} must be a list, got {value!r}")
        return tuple(_checked(v, hint.__args__[0], f"{where}.{i}") for i, v in enumerate(value))
    hints = _hints(hint)
    items = _config_object(vars(value) if type(value) is hint else value, where, hints)
    checked = {k: _checked(v, hints[k], f"{where}.{k}") for k, v in items.items()}
    missing = sorted(getattr(hint, "__required_keys__", set()) - checked.keys())
    if missing:  # only a TypedDict requires keys
        raise ValueError(f"config {where} lacks {missing}")
    try:
        return hint(**checked)
    except ValueError as exc:  # a config dataclass's range error opens with the field name
        raise ValueError(f"config {where}.{exc}") from exc


def _to_json(value):
    """``value`` with config dataclasses as objects and tuples as lists."""
    if is_dataclass(value):
        return {k: _to_json(v) for k, v in vars(value).items()}
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    if isinstance(value, dict):
        return {k: _to_json(v) for k, v in value.items()}
    return value


def _config_object(value, where: str, keys) -> dict:
    """``value``, checked to be an object whose keys are all in ``keys``."""
    if not isinstance(value, dict):
        raise ValueError(f"config {where or 'document'} must be an object, got {value!r}")
    for key in value:
        if key not in keys:
            raise ValueError(f"unknown config key {where + '.' if where else ''}{key}")
    return value


def config_hash(config: PipelineConfig) -> str:
    canon = json.dumps(config.to_dict(), sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def derive_matrix_seed(root_seed: int, base_set_id: int, lag: int) -> int:
    """Stable per-matrix seed; the master matrix uses (MASTER_SET_ID, 0)."""
    return int(np.random.SeedSequence([int(root_seed), base_set_id, lag]).generate_state(1)[0])


def _matrix_seed(config: PipelineConfig, fit) -> int:
    """Seed of a training matrix, or of the Candidate fitted on it (master included)."""
    return derive_matrix_seed(config.train_cfg.rng_seed, fit.base_set_id, fit.lag)


# ---------------------------------------------------------------------------
# Run state
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    """Everything a pipeline run produced, in memory plus on disk."""

    config: PipelineConfig
    run_dir: Path
    stages: list[str] = field(default_factory=list)
    frame: AlignedFrame | None = None
    matrices: list[TrainingMatrix] = field(default_factory=list)
    candidates: list[Candidate] = field(default_factory=list)
    members: list[Candidate] = field(default_factory=list)
    master: Candidate | None = None
    manifest: dict = field(default_factory=dict)
    report_paths: list[Path] = field(default_factory=list)


@contextlib.contextmanager
def _stage(name):
    """Context manager and decorator: a SpreadnetError or an OSError inside fails
    stage ``name`` (a PipelineStageError from an inner stage passes unchanged)."""
    try:
        yield
    except PipelineStageError:
        raise
    except (SpreadnetError, OSError) as exc:
        raise PipelineStageError(name, exc) from exc


@_stage("ingest")
def ingest(config: PipelineConfig) -> AlignedFrame:
    """Load every configured variable and align to the common month range."""
    by_path: dict[str, dict[str, str]] = {}
    for var, entry in config.variables.items():
        by_path.setdefault(entry["path"], {})[var] = entry["column"]
    series: dict[str, MonthlySeries] = {}
    for path, columns in by_path.items():
        for s in load_series(path, columns, date_column=config.date_column):
            series[s.name] = s
    return align([series[v] for v in VARIABLES])


@_stage("preprocess")
def assemble(config: PipelineConfig, frame: AlignedFrame) -> list[TrainingMatrix]:
    return assemble_base_sets(
        frame,
        var_cfg=config.var_cfg,
        smooth_cfg=config.smoothing,
        ma_levels=config.ma_levels,
        specs=config.base_set_specs(),
        enabled=set(config.enabled_sets),
    )


@_stage("train")
def train_all(config: PipelineConfig, matrices: list[TrainingMatrix]) -> list[Candidate]:
    """Best-of-restarts network per training matrix, all trained together."""
    return fit_candidates(matrices, [config.train_cfg.with_seed(_matrix_seed(config, m))
                                     for m in matrices])


@_stage("select")
def select(config: PipelineConfig, candidates: list[Candidate]) -> list[Candidate]:
    return select_best(candidates, k=config.top_k)


@_stage("master")
def master_stage(config: PipelineConfig, members: list[Candidate]) -> Candidate:
    matrix = build_master_matrix(members)
    return train_master(matrix, config.train_cfg.with_seed(_matrix_seed(config, matrix)))


def run_pipeline(
    config: PipelineConfig,
    through: str = "report",
    run_dir: str | Path | None = None,
) -> RunResult:
    """Execute the pipeline up to and including ``through``.

    Always writes the manifest (and any models trained so far) into the
    run directory; the manifest is written once, atomically, at the end.
    A file that cannot be written fails the stage that writes it: "config" for
    the run directory, and ``through`` for the manifest and serve record.
    """
    if through not in STAGES:
        raise ValueError(f"unknown stage {through!r}; choose from {STAGES}")
    last = STAGES.index(through)
    run_dir = Path(run_dir) if run_dir is not None else _new_run_dir(config)
    with _stage("config"):
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / "config.json").write_text(
            json.dumps(config.to_dict(), indent=2, sort_keys=True), encoding="utf-8"
        )
    result = RunResult(config=config, run_dir=run_dir)

    result.frame = ingest(config)
    result.stages.append("ingest")
    if last >= 1:
        result.matrices = assemble(config, result.frame)
        result.stages.append("preprocess")
    if last >= 2:
        with _stage("train"):
            result.candidates = train_all(config, result.matrices)
            _write_models(run_dir, result.candidates)
        result.stages.append("train")
    if last >= 3:
        result.members = select(config, result.candidates)
        result.stages.append("select")
    if last >= 4:
        with _stage("master"):
            result.master = master_stage(config, result.members)
            save_model(result.master.model, run_dir / MASTER_MODEL_PATH)
        result.stages.append("master")

    result.manifest = build_manifest(result)
    with _stage(through):
        _write_manifest(run_dir, result.manifest)

    if last >= 5:
        with _stage("report"):
            result.report_paths = emit_reports(result.manifest, run_dir)
        result.stages.append("report")
    return result


def _new_run_dir(config: PipelineConfig) -> Path:
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    base = Path(config.output_dir) / f"{stamp}-{config_hash(config)[:8]}"
    run_dir = base
    n = 1
    while run_dir.exists():
        n += 1
        run_dir = base.with_name(f"{base.name}-{n}")
    return run_dir


def _write_models(run_dir: Path, candidates: list[Candidate]) -> None:
    models = run_dir / "models"
    models.mkdir(parents=True, exist_ok=True)
    for cand in candidates:
        save_model(cand.model, models / f"{cand.name}.json")


def _write_manifest(run_dir: Path, manifest: dict) -> None:
    """Replace the manifest and, for a run with a master, its serve record.

    The old record goes first and the new one comes after the manifest, so
    a run directory never holds a record older than its manifest.
    """
    (run_dir / SERVE_NAME).unlink(missing_ok=True)
    _write_json(run_dir / MANIFEST_NAME, manifest)
    if "master" in manifest:
        _write_json(run_dir / SERVE_NAME, serve_record(manifest))


def _write_json(target: Path, document: dict) -> None:
    """Write ``document`` to ``target`` atomically (tmp file + rename); a
    write or rename that fails leaves no tmp file behind."""
    tmp = target.with_suffix(".json.tmp")
    try:
        tmp.write_text(json.dumps(document, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------


def _fit_to_json(config: PipelineConfig, fit: Candidate, model_path: str) -> dict:
    """The manifest fields that candidate and master entries share. JSON has no
    infinity: a PERFECT_STRATEGY ISM is written as "perfect"."""
    score = fit.score
    return {
        "matrix_seed": _matrix_seed(config, fit),
        "winning_seed": fit.seed,
        "restarts": config.train_cfg.restarts,
        "model_path": model_path,
        "ism": "perfect" if score.ism == PERFECT_STRATEGY else float(score.ism),
        "q_ratio": float(score.report.q_ratio),
        "ave_negative_vol": float(score.report.ave_negative_vol),
        "failures": len(score.report.failures),
        "norm_ep": None if score.norm_ep is None else float(score.norm_ep),
        "ep_statistic": None if score.ep is None else float(score.ep.statistic),
        "hit_rate": float(score.hit_rate),
        "test_months": [format_month(m) for m in score.months],
        "predicted_levels": [float(v) for v in score.predicted_levels],
        "actual_levels": [float(v) for v in score.actual_levels],
    }


def build_manifest(result: RunResult) -> dict:
    config = result.config
    swept = {s.id: len(s.lags) > 1 for s in config.base_set_specs()}
    manifest: dict = {
        "manifest_format": MANIFEST_FORMAT,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": config.to_dict(),
        "config_hash": config_hash(config),
        "stages": list(result.stages),
        "restart_seed_rule": "SeedSequence(matrix_seed).generate_state(restarts)",
    }
    if result.frame is not None:
        manifest["frame"] = {
            "start": format_month(result.frame.months[0]),
            "end": format_month(result.frame.months[-1]),
            "rows": len(result.frame),
        }
    if result.matrices:
        manifest["matrices"] = [
            {
                "base_set": m.base_set_id,
                "lag": m.lag,
                "rows": m.rows,
                "input_names": list(m.input_names),
                "output_recipe": m.output_recipe,
                "matrix_seed": _matrix_seed(config, m),
            }
            for m in result.matrices
        ]
    if result.candidates:
        by_key = {(m.base_set_id, m.lag): m for m in result.matrices}
        manifest["candidates"] = [
            {
                "name": c.name,
                "base_set": c.base_set_id,
                "lag": c.lag,
                "lag_swept": swept.get(c.base_set_id, False),
                "input_names": list(by_key[(c.base_set_id, c.lag)].input_names),
                "output_recipe": by_key[(c.base_set_id, c.lag)].output_recipe,
                **_fit_to_json(config, c, f"models/{c.name}.json"),
            }
            for c in result.candidates
        ]
    if result.members:
        manifest["members"] = [m.name for m in result.members]
    if result.master is not None:
        manifest["master"] = {
            "member_count": len(result.members),
            **_fit_to_json(config, result.master, MASTER_MODEL_PATH),
        }
    return manifest


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _member_entries(manifest: dict) -> list[dict]:
    """Each member's candidate entry, in rank order. A manifest without
    ``members`` raises the KeyError, which its reader turns into a named
    failure; a member without an entry raises IncompleteManifest."""
    by_name = {c["name"]: c for c in manifest.get("candidates", [])}
    names = manifest["members"]
    try:
        return [by_name[name] for name in names]
    except KeyError as exc:
        raise IncompleteManifest(f"manifest lacks member entry {exc}") from exc


def emit_reports(manifest: dict, run_dir: str | Path) -> list[Path]:
    """Emit divergence, curve, and grouped-mean reports from the manifest.

    Every number is recomputed from the manifest's stored predictions via
    the metrics module; emission only groups and averages.
    """
    if "candidates" not in manifest:
        raise IncompleteManifest("manifest has no candidates; run the train stage first")
    if "members" not in manifest:
        raise IncompleteManifest("manifest has no members; run the select stage first")
    run_dir = Path(run_dir)
    reports = run_dir / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    formats = _record_config(manifest, run_dir / MANIFEST_NAME).formats
    members = _member_entries(manifest)
    paths: list[Path] = []

    if "csv" in formats:
        paths.append(_write_divergence(reports, members))
        paths += [_write_curve(reports, entry) for entry in members]
        if "master" in manifest:
            paths.append(_write_curve(reports, manifest["master"], name="master"))
        swept = [c for c in manifest["candidates"] if c["lag_swept"]]
        paths.append(_write_group_means(reports / "base_set_summary.csv",
                                        manifest["candidates"], key="base_set"))
        paths.append(_write_group_means(reports / "lag_summary.csv", swept, key="lag"))
    if "txt" in formats:
        paths.append(_write_summary_text(reports / "summary.txt", manifest))
    return paths


def _member_votes(members: list[dict]) -> tuple[list[str], np.ndarray]:
    """Shared month labels and the (members x dates) direction-vote matrix."""
    months, offsets = shared_window(
        [(parse_month(e["test_months"][0]), parse_month(e["test_months"][-1])) for e in members]
    )
    votes = []
    for e, lo in zip(members, offsets):
        pred = np.asarray(e["predicted_levels"][lo : lo + len(months)])
        act = np.asarray(e["actual_levels"][lo : lo + len(months)])
        votes.append(positions_from_forecasts(pred, act))
    return [format_month(m) for m in months[1:]], np.vstack(votes)


def _write_divergence(reports: Path, members: list[dict]) -> Path:
    labels, votes = _member_votes(members)
    pct = divergence_percentage(votes)
    return _write_csv(reports / "divergence.csv", ["date", "up_vote_percent"],
                      ([label, repr(float(p))] for label, p in zip(labels, pct)))


def _write_curve(reports: Path, entry: dict, name: str | None = None) -> Path:
    report = equity_curves(np.asarray(entry["predicted_levels"]),
                           np.asarray(entry["actual_levels"]))
    return _write_csv(reports / f"curves_{name or entry['name']}.csv", ["date", "eq", "pe"],
                      ([label, repr(float(eq)), repr(float(pe))]
                       for label, eq, pe in zip(entry["test_months"][1:], report.eq, report.pe)))


def _group_means(candidates: list[dict], key: str) -> list[dict]:
    groups: dict[int, list[dict]] = {}
    for c in candidates:
        groups.setdefault(c[key], []).append(c)
    rows = []
    for value in sorted(groups):
        entries = groups[value]
        finite = [c["ism"] for c in entries if c["ism"] != "perfect"]
        eps = [c["norm_ep"] for c in entries if c["norm_ep"] is not None]
        rows.append(
            {
                key: value,
                "models": len(entries),
                "perfect": sum(1 for c in entries if c["ism"] == "perfect"),
                "mean_ism": _mean(finite) if finite else None,
                "mean_norm_ep": _mean(eps) if eps else None,
                "mean_hit_rate": _mean([c["hit_rate"] for c in entries]),
            }
        )
    return rows


def _mean(values: list[float]) -> float:
    """The mean of finite values, finite and within their [min, max].

    ``np.mean`` where its sum stays finite; where it overflows (two ISMs
    near 1.7e308), the mean of the values over their largest magnitude,
    times that magnitude. Rounding can put a mean an ulp outside the
    values' range (three equal values), so it is clipped to it.
    """
    x = np.asarray(values, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.mean(x)
    if not np.isfinite(mean):
        scale = np.max(np.abs(x))
        mean = scale * np.mean(x / scale)
    return float(np.clip(mean, x.min(), x.max()))


def _write_group_means(path: Path, candidates: list[dict], key: str) -> Path:
    means = ("mean_ism", "mean_norm_ep", "mean_hit_rate")  # None is written empty
    return _write_csv(path, [key, "models", "perfect", *means],
                      ([row[key], row["models"], row["perfect"],
                        *("" if row[m] is None else repr(row[m]) for m in means)]
                       for row in _group_means(candidates, key)))


def _write_csv(path: Path, header: list[str], rows) -> Path:
    """Write ``header``, then each row of ``rows``, as a UTF-8 CSV file at ``path``."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _fmt(value, width=10, digits=4):
    if value is None:
        return " " * (width - 1) + "-"
    return f"{value:>{width}.{digits}f}"


def _mean_table(title: str, key: str, label: str, candidates: list[dict]) -> list[str]:
    """A summary.txt table of ``_group_means`` by ``key``, then a blank line."""
    lines = [title,
             f"{label:>4} {'models':>7} {'perfect':>8} {'mean ISM':>10} {'mean EP%':>10} {'hits':>7}"]
    for row in _group_means(candidates, key):
        lines.append(
            f"{row[key]:>4} {row['models']:>7} {row['perfect']:>8}"
            f" {_fmt(row['mean_ism'])} {_fmt(row['mean_norm_ep'])} {row['mean_hit_rate']:>7.2f}"
        )
    return lines + [""]


def _score_text(entry: dict) -> str:
    """ISM, normEP and hit rate of a candidate or master manifest entry."""
    ism = "perfect" if entry["ism"] == "perfect" else f"{entry['ism']:.4f}"
    ep = "-" if entry["norm_ep"] is None else f"{entry['norm_ep']:.2f}%"
    return f"ISM={ism}  normEP={ep}  hits={entry['hit_rate']:.2f}"


def _write_summary_text(path: Path, manifest: dict) -> Path:
    frame = manifest.get("frame", {})
    lines = ["spreadnet run summary",
             f"config hash : {manifest.get('config_hash')}",
             f"frame       : {frame.get('start')}..{frame.get('end')} ({frame.get('rows')} months)",
             ""]
    lines += _mean_table("mean scores by base set", "base_set", "set", manifest["candidates"])
    swept = [c for c in manifest["candidates"] if c["lag_swept"]]
    if swept:
        lines += _mean_table("mean scores by lag (lag-swept sets only)", "lag", "lag", swept)

    lines.append("selected members (rank order)")
    for rank, entry in enumerate(_member_entries(manifest), start=1):
        lines.append(f"{rank:>3}. {entry['name']}  {_score_text(entry)}")
    lines.append("")

    if "master" in manifest:
        lines.append(f"master: {_score_text(manifest['master'])}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Prediction from a stored run
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PredictionReport:
    """Next-month forecast plus the member-level detail behind it."""

    target_month: str
    forecast: Forecast
    member_forecasts: dict[str, float]
    last_actual: float


def load_run(run_dir: str | Path) -> dict:
    """A stored run's manifest, checked against ``_MANIFEST`` (a partial run
    lacks some top-level parts); IncompleteManifest names the place."""
    run_dir = Path(run_dir)
    path = run_dir / MANIFEST_NAME
    if not path.exists():
        raise MissingFile(f"no {MANIFEST_NAME} in {run_dir}")
    manifest = _read_record(path, _MANIFEST, partial=True)
    fits = {f"candidates.{i}": c for i, c in enumerate(manifest.get("candidates", ()))}
    if "master" in manifest:
        fits["master"] = manifest["master"]
    for where, entry in fits.items():
        counts = [len(entry[key]) for key in _SERIES_KEYS]
        if min(counts) == 0 or len(set(counts)) > 1:
            held = ", ".join(f"{n} {key}" for n, key in zip(counts, _SERIES_KEYS))
            raise IncompleteManifest(f"{path} holds {held} at {where}, "
                                     "not one non-empty length")
    return manifest


# The JSON kinds of run-record values: each plain kind's name and the classes
# ``json.loads`` gives its values (a bool is no integer, an integer a number).
_JSON_TYPES = {dict: ({dict}, "a JSON object"), list: ({list}, "a JSON array"),
               str: ({str}, "a string"), bool: ({bool}, "true or false"), int: ({int}, "an integer"),
               float: ({int, float}, "a number"), type(None): ({type(None)}, "null")}
# The shape of each run record, key for key as its writer writes it (see ``_walk``).
_RECIPE = typing.Literal[pp.RAW_OUTPUT, pp.NORMALIZED_OUTPUT]
_SERVE_MEMBER = {"name": str, "lag": int, "input_names": list[str], "output_recipe": _RECIPE,
                 "model_path": str}
_SERVE = {"config": dict, "members": [_SERVE_MEMBER], "master": {"model_path": str}}
_FIT = {"matrix_seed": int, "winning_seed": int, "restarts": int, "model_path": str,
        "ism": float | typing.Literal["perfect"], "q_ratio": float, "ave_negative_vol": float,
        "failures": int, "norm_ep": float | None, "ep_statistic": float | None, "hit_rate": float,
        "test_months": list[str], "predicted_levels": list[float], "actual_levels": list[float]}
_MANIFEST = {"manifest_format": int, "created_at": str, "config": dict, "config_hash": str,
             "stages": list[str], "restart_seed_rule": str,
             "frame": {"start": str, "end": str, "rows": int},
             "matrices": [{"base_set": int, "lag": int, "rows": int, "input_names": list[str],
                           "output_recipe": _RECIPE, "matrix_seed": int}],
             "candidates": [{**_SERVE_MEMBER, "base_set": int, "lag_swept": bool, **_FIT}],
             "members": list[str], "master": {"member_count": int, **_FIT}}
# a scored fit's series, which reports read in step, one entry per test month
_SERIES_KEYS = ("test_months", "predicted_levels", "actual_levels")


def _is(value, kind) -> bool:
    """Whether the value ``json.loads`` gave is of ``kind``: a key of
    ``_JSON_TYPES``, ``list[X]`` with X one of them, a ``Literal`` of the
    strings allowed, or a union of these."""
    if kind.__class__ is type:
        return value.__class__ in _JSON_TYPES[kind][0]
    args = kind.__args__
    if kind.__class__ is types.GenericAlias:  # list[X]
        return value.__class__ is list and set(map(type, value)) <= _JSON_TYPES[args[0]][0]
    if getattr(kind, "__origin__", None) is typing.Literal:
        return value.__class__ is str and value in args
    return any(_is(value, k) for k in args)


def _kind_name(kind) -> str:
    """How ``kind`` (see ``_is``) reads in an error message."""
    if kind.__class__ is type:
        return _JSON_TYPES[kind][1]
    args = kind.__args__
    if kind.__class__ is types.GenericAlias:
        return f"a JSON array, each item {_kind_name(args[0])}"
    if getattr(kind, "__origin__", None) is typing.Literal:
        return " or ".join(json.dumps(v) for v in args)
    return " or ".join(_kind_name(k) for k in args)


def _read_record(path: Path, shape: dict, partial: bool = False) -> dict:
    """The run record in ``path`` once it has ``shape`` (see ``_walk``); IncompleteManifest
    names the file and each key missing (a ``partial`` record may lack top-level keys)."""
    record = _read_json(path, IncompleteManifest)
    missing: list[str] = []
    _walk(record, shape, path, "", missing, partial)
    if missing:
        raise IncompleteManifest(f"{path} lacks {', '.join(missing)}")
    return record


def _walk(value, shape, path: Path, where: str, missing: list[str], partial=False) -> None:
    """Check ``value`` at the dotted place ``where`` against ``shape``: a dict is a JSON
    object holding at least its keys (a key it lacks goes into ``missing`` unless
    ``partial``), a one-item list an array of such items, anything else a JSON kind
    (``_is``). A value of a wrong kind raises IncompleteManifest naming its place."""
    kind = shape.__class__ if shape.__class__ in (dict, list) else shape
    if not _is(value, kind):
        at = f" at {where}" if where else ""
        got = repr(value) if isinstance(value, str) else f"a {type(value).__name__}"
        raise IncompleteManifest(f"{path} holds {got}{at}, not {_kind_name(kind)}")
    if shape.__class__ is dict:
        for key, part in shape.items():
            place = f"{where}.{key}" if where else key
            if key in value:
                _walk(value[key], part, path, place, missing)
            elif not partial:
                missing.append(place)
    elif shape.__class__ is list:
        for i, item in enumerate(value):
            _walk(item, shape[0], path, f"{where}.{i}", missing)


def _read_json(path: Path, fault: type[Exception]):
    """The JSON value in ``path``; ``fault`` names a file that is not UTF-8 JSON,
    or nests too deep to decode."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise fault(f"{path} is not valid JSON: {exc}") from exc


def serve_record(manifest: dict) -> dict:
    """The part of a finished run's manifest that a forecast reads.

    The config, each member's name, lag, inputs, output recipe and model
    path (rank order), and the master's model path; no scores and no
    weights. ``_write_manifest`` stores it as ``serve.json``.
    """
    if "master" not in manifest:
        raise IncompleteManifest("run has no trained master; run the master stage first")
    return {
        "config": manifest["config"],
        "members": [{k: e[k] for k in _SERVE_MEMBER} for e in _member_entries(manifest)],
        "master": {"model_path": manifest["master"]["model_path"]},
    }


def _load_serve_record(run_dir: Path) -> tuple[Path, dict]:
    """The file a forecast is served from and its record: ``serve.json``, or for a run
    without one the manifest (checked by ``load_run``) and the record projected from it."""
    path = run_dir / SERVE_NAME
    if path.exists():
        return path, _read_record(path, _SERVE)
    path = run_dir / MANIFEST_NAME
    try:
        return path, serve_record(load_run(run_dir))
    except KeyError as exc:
        raise IncompleteManifest(f"{path} lacks {exc}") from exc


def _record_config(record: dict, path: Path) -> PipelineConfig:
    """The config a run record holds; IncompleteManifest names a file without a valid one."""
    if "config" not in record:
        raise IncompleteManifest(f"{path} lacks config")
    try:
        return PipelineConfig.from_dict(record["config"])
    except ValueError as exc:
        raise IncompleteManifest(f"{path} holds an invalid config: {exc}") from exc


def predict_from_run(
    run_dir: str | Path,
    config: PipelineConfig | None = None,
) -> PredictionReport:
    """Forecast the month after the frame's last observation.

    Reads the run's serve record (``serve.json``; for a run stored without
    one, the same record projected from the manifest), loads the stored
    member and master models, builds only the derived columns the members
    read, rebuilds each member's input row for its lag, stacks the member
    forecasts, and runs the master. The frame comes from ``config``
    (defaults to the run's config).

    Every call reads every file it uses. What a call keeps for the next is
    keyed by a file's content, never by its path or time: a model text is
    decoded, and a data CSV text parsed, once per distinct text (a bounded
    memo in ``neural.load_model`` and ``series.load_series``), so a file
    rewritten with other bytes is parsed afresh on the next call.
    """
    run_dir = Path(run_dir)
    path, record = _load_serve_record(run_dir)
    config = config or _record_config(record, path)

    frame = ingest(config)
    try:
        derived = build_derived_columns(
            frame, var_cfg=config.var_cfg, smooth_cfg=config.smoothing,
            ma_levels=config.ma_levels,
            names={name for entry in record["members"] for name in entry["input_names"]},
        )
    except SpreadnetError as exc:
        raise StaleModel(f"frame cannot supply the members' inputs: {exc}") from exc
    levels = derived["output_raw"]
    last_month = int(frame.months[-1])
    target = last_month + 1

    member_values: dict[str, float] = {}
    for entry in record["members"]:
        model = load_model(run_dir / entry["model_path"])
        month_in = target - entry["lag"]
        try:
            row = np.array(
                [derived[name].value_at(month_in) for name in entry["input_names"]]
            )
        except KeyError as exc:
            raise StaleModel(
                f"member {entry['name']} needs inputs at {format_month(month_in)}: {exc}"
            ) from exc
        value = float(predict(model, row[None, :])[0])
        if entry["output_recipe"] == pp.NORMALIZED_OUTPUT:
            value = pp.denormalize_output(value, levels.values[-3:])
        member_values[entry["name"]] = value

    master_model = load_model(run_dir / record["master"]["model_path"])
    inputs = np.array([member_values[name] for name in member_values])
    last_actual = float(levels.values[-1])
    if master_model.n_inputs != len(inputs):
        raise StaleModel(
            f"master expects {master_model.n_inputs} member inputs, got {len(inputs)}"
        )
    forecast = master_forecast(master_model, inputs, last_actual)
    return PredictionReport(format_month(target), forecast, member_values, last_actual)


# ---------------------------------------------------------------------------
# Matrix CSV export (inspection)
# ---------------------------------------------------------------------------


def export_matrices(matrices: list[TrainingMatrix], directory: str | Path) -> list[Path]:
    """Dump each training matrix as a CSV for eyeballing."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for m in matrices:
        rows = zip(m.months_in(), m.inputs, m.months_out, m.output, m.output_levels)
        paths.append(_write_csv(
            directory / f"{m.name}.csv",
            ["month_in", *m.input_names, "month_out", "output", "output_level"],
            ([format_month(month_in), *(repr(float(v)) for v in inputs),
              format_month(month_out), repr(float(out)), repr(float(level))]
             for month_in, inputs, month_out, out, level in rows)))
    return paths
