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
from .neural import TrainConfig, load_model, predict_many, save_model
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
from .series import (NO_FILE, AlignedFrame, MonthlySeries, _no_month, align, format_month,
                     load_series, parse_month, read_file)

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


# Each plain kind of a declared type: its name in a message, and the class of values it takes.
_KINDS = {dict: ("a JSON object", dict), list: ("a JSON array", list), str: ("a string", str),
          bool: ("true or false", bool), int: ("an integer", numbers.Integral),
          float: ("a number", numbers.Real), type(None): ("null", type(None))}


class _Misfit(Exception):
    """A value not of its kind, ``args`` (place, value, kind's name); worded by its reader."""


def _place(where) -> str:
    """The dotted text of a place: a string, or (parent place, key or index) built
    as a check descends, so a place is spelled out only in a fault's message."""
    if where.__class__ is not tuple:
        return where or ""
    parent, key = where
    return f"{_place(parent)}.{key}" if parent else str(key)


def _compile(hint):
    """The check of the declared type ``hint``, built once: ``check(value, where,
    missing)`` returns ``value`` as ``hint`` reads it, raises ``_Misfit`` for a value
    of a wrong kind at the place ``where`` (see ``_place``), and puts the place of
    each key an object lacks into ``missing``. A dict is a record's object (at least
    its keys, read as is); a TypedDict or a config dataclass a config object (no other
    key, built anew); ``[shape]`` and ``tuple[X, ...]`` an array checked item by item
    (read as a tuple); ``list[X]`` an array checked whole; ``X | Y`` null if it may be,
    else the first that takes the value; a ``Literal`` one of its strings; a plain kind
    a value of its class (no bool but for ``bool``; an ``int`` read as an int).
    """
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint.__class__ is dict:
        parts = [(key, _compile(part)) for key, part in hint.items()]

        def check(value, where, missing):
            if value.__class__ is not dict:
                raise _Misfit(where, value, _KINDS[dict][0])
            for key, part in parts:
                if key in value:
                    part(value[key], (where, key), missing)
                else:
                    missing.append((where, key))
            return value
    elif hint.__class__ is list or origin is tuple:
        item = _compile(hint[0] if hint.__class__ is list else args[0])

        def check(value, where, missing):
            if not isinstance(value, (list, tuple)):
                raise _Misfit(where, value, _KINDS[list][0])
            return tuple([item(v, (where, i), missing) for i, v in enumerate(value)])
    elif origin is list:  # one pass over the items' classes, in C
        name, kind = _KINDS[args[0]]
        name = f"{_KINDS[list][0]}, each item {name}"
        classes = {c for c in _KINDS if c is args[0] or (c is not bool and issubclass(c, kind))}

        def check(value, where, missing):
            if value.__class__ is not list or not set(map(type, value)) <= classes:
                raise _Misfit(where, value, name)
            return value
    elif origin is typing.Literal:
        name = " or ".join(map(json.dumps, args))

        def check(value, where, missing):
            if value.__class__ is not str or value not in args:
                raise _Misfit(where, value, name)
            return value
    elif origin in (typing.Union, types.UnionType):
        arms = [_compile(arg) for arg in args]
        optional = type(None) in args

        def check(value, where, missing):
            if value is None and optional:  # taken before any arm can raise
                return value
            kinds = []
            for arm in arms:
                try:
                    return arm(value, where, missing)
                except _Misfit as fault:
                    kinds.append(fault.args[2])
            raise _Misfit(where, value, " or ".join(kinds))
    elif hint in _KINDS:
        name, kind = _KINDS[hint]

        def check(value, where, missing):
            if value.__class__ is hint:
                return value
            if value.__class__ is bool or not isinstance(value, kind):
                raise _Misfit(where, value, name)
            return int(value) if hint is int else value
    else:  # a TypedDict or a config dataclass
        fields = {key: _compile(part) for key, part in typing.get_type_hints(hint).items()}
        required = [key for key in fields if key in getattr(hint, "__required_keys__", ())]

        def check(value, where, missing):
            items = _config_object(vars(value) if value.__class__ is hint else value, where, fields)
            for key in required:
                if key not in items:
                    missing.append((where, key))
            checked = {key: fields[key](v, (where, key), missing) for key, v in items.items()}
            try:
                return hint(**checked)
            except ValueError as exc:  # a config dataclass's range error opens with the field name
                raise ValueError(f"config {_place(where)}.{exc}") from exc
    return check


def _config_object(value, where, keys) -> dict:
    """``value``, checked to be an object whose keys are all in ``keys``."""
    if not isinstance(value, dict):
        raise _Misfit(where, value, _KINDS[dict][0])
    for key in value:
        if key not in keys:
            raise ValueError(f"unknown config key {_place((where, key))}")
    return value


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
    # a config dataclass is frozen, so one default instance serves every config
    var_cfg: VarConfig = VarConfig()
    smoothing: SmoothingConfig = SmoothingConfig()
    ma_levels: tuple[BlockAverageConfig, ...] = pp.DEFAULT_MA_LEVELS
    enabled_sets: tuple[int, ...] = tuple(range(1, 11))
    single_lag: int = 1
    training: TrainConfig = TrainConfig(restarts=50)
    full_scale: bool = False
    top_k: int = 10
    output_dir: str = "runs"
    formats: tuple[str, ...] = ("csv", "txt")

    def __post_init__(self):
        missing: list = []
        try:
            for name, check in _FIELD_CHECKS.items():
                object.__setattr__(self, name, check(getattr(self, name), _PLACES[name], missing))
        except _Misfit as fault:
            raise _config_fault(fault) from None
        if missing:
            raise ValueError(f"config lacks {', '.join(map(_place, missing))}")
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
        try:
            for section, value in _config_object(data, None, _SECTIONS).items():
                keys = _SECTIONS[section]
                whole = keys.get(None)
                if whole and not (isinstance(value, dict) and whole in _SECTION_DEFAULTS):
                    kwargs[whole] = value  # ma_levels' list, or a section its check rejects
                    continue
                value = dict(_config_object(value, section, value if whole else keys))
                kwargs.update((keys[key], value.pop(key)) for key in list(value) if key in keys)
                if whole:  # the config dataclass takes the other keys, over the field's default
                    kwargs[whole] = {**_SECTION_DEFAULTS[whole], **value}
        except _Misfit as fault:
            raise _config_fault(fault) from None
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        """Parse a JSON config file (see ``_read_config``)."""
        return cls.from_dict(_read_config(path))


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
# the sections that say how a forecast derives its members' inputs from the data
_DERIVATION_SECTIONS = ("var", "smoothing", "ma_levels")

_FIELD_CHECKS = {name: _compile(hint)
                 for name, hint in typing.get_type_hints(PipelineConfig).items()}
# each config dataclass section's keys and their defaults, over which from_dict lays a section
_SECTION_DEFAULTS = {name: vars(f.default)
                     for name, f in PipelineConfig.__dataclass_fields__.items()
                     if is_dataclass(f.default)}


def _read_config(path: str | Path):
    """The JSON document in the config file at ``path``; MissingFile if there is none."""
    try:
        return _read_json(path, ValueError)
    except NO_FILE:
        raise MissingFile(f"config file not found: {path}") from None


def _config_fault(fault: _Misfit) -> ValueError:
    """A config value of a wrong kind, in the config's words."""
    where, value, kind = fault.args
    return ValueError(f"config {_place(where) or 'document'} must be {kind}, got {value!r}")


def _to_json(value):
    """``value`` with config dataclasses as objects and tuples as lists."""
    if is_dataclass(value):
        return {k: _to_json(v) for k, v in vars(value).items()}
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    if isinstance(value, dict):
        return {k: _to_json(v) for k, v in value.items()}
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
        with _stage("select"):
            result.members = select_best(result.candidates, k=config.top_k)
        result.stages.append("select")
    if last >= 4:
        with _stage("master"):
            matrix = build_master_matrix(result.members)
            cfg = config.train_cfg.with_seed(_matrix_seed(config, matrix))
            result.master = train_master(matrix, cfg)
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
    try:
        manifest = _read_record(path, _MANIFEST_CHECK, partial=True)
    except NO_FILE:
        raise MissingFile(f"no {MANIFEST_NAME} in {run_dir}") from None
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


# The shape of each run record, key for key as its writer writes it (see ``_compile``).
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


_SERVE_CHECK = _compile(_SERVE)
_MANIFEST_CHECK = _compile(_MANIFEST)


def _read_record(path: Path, check, partial: bool = False) -> dict:
    """The run record in ``path`` once it passes ``check`` (``_SERVE_CHECK`` or
    ``_MANIFEST_CHECK``). IncompleteManifest names the file and the place of the first
    value of a wrong kind, else each key missing (a ``partial`` record may lack
    top-level keys)."""
    record = _read_json(path, IncompleteManifest)
    missing: list = []
    try:
        check(record, None, missing)
    except _Misfit as fault:
        where, value, kind = fault.args
        at = f" at {_place(where)}" if where else ""
        got = repr(value) if isinstance(value, str) else f"a {type(value).__name__}"
        raise IncompleteManifest(f"{path} holds {got}{at}, not {kind}") from None
    if partial:
        missing = [place for place in missing if place[0] is not None]
    if missing:
        raise IncompleteManifest(f"{path} lacks {', '.join(map(_place, missing))}")
    return record


def _read_json(path: Path, fault: type[Exception]):
    """The JSON value in ``path``; ``fault`` names a file that is not UTF-8 JSON,
    or nests too deep to decode."""
    try:  # decoded as UTF-8 only: ``json.loads`` would take UTF-16 bytes too
        return json.loads(read_file(path).decode("utf-8"))
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
    with contextlib.suppress(*NO_FILE):
        return path, _read_record(path, _SERVE_CHECK)
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
    read, reads each member's input row for its lag by index on each
    column's month axis, stacks the member forecasts, and runs the master.
    The frame comes from ``config`` (defaults to the run's config), whose
    data paths and unread sections may differ from the recorded config;
    its ``var``, ``smoothing`` and ``ma_levels``, which say how the members'
    inputs are derived, may not (else StaleModel names the section). Each
    member's row must have its model's width (else StaleModel names the
    member). The members are predicted in one stacked pass per layer shape
    (``predict_many``), and the normalized ones inverted in one
    ``denormalize_output`` call: the same bits as one member at a time.

    Every call reads every file it uses, as bytes and with no stat first,
    and checks each input once, where it comes in: the record and the config
    against their declared types (``_compile``), a CSV when it is parsed. A
    series derived on a checked month axis checks only its values. A model
    file is decoded, and a data CSV parsed, once per distinct content (a
    bounded memo in ``neural.load_model`` and ``series.load_series``), never
    per path or time, so a file rewritten with other bytes is parsed afresh.
    """
    run_dir = Path(run_dir)
    path, record = _load_serve_record(run_dir)
    recorded = _record_config(record, path)
    if config is None:
        config = recorded
    for section in _DERIVATION_SECTIONS:  # the members were trained on the recorded inputs
        name = _SECTIONS[section][None]
        if getattr(config, name) != getattr(recorded, name):
            raise StaleModel(f"config {section} {json.dumps(_to_json(getattr(config, name)))} "
                             f"differs from {json.dumps(_to_json(getattr(recorded, name)))}, "
                             f"which {path} records")
    members = record["members"]

    frame = ingest(config)
    try:
        derived = build_derived_columns(
            frame, var_cfg=config.var_cfg, smooth_cfg=config.smoothing,
            ma_levels=config.ma_levels,
            names={name for entry in members for name in entry["input_names"]},
        )
    except SpreadnetError as exc:
        raise StaleModel(f"frame cannot supply the members' inputs: {exc}") from exc
    levels = derived["output_raw"]
    last_month = int(frame.months[-1])
    target = last_month + 1

    # each column's name, first month and values: an input is read by its index on that axis
    axes = {key: (s.name, s.first_month, s.values) for key, s in derived.items()}
    by_shape: dict[tuple, list[int]] = {}  # member positions by layer sizes, in rank order
    models, rows = [], []
    for k, entry in enumerate(members):
        model = load_model(os.path.join(run_dir, entry["model_path"]))
        month_in = target - entry["lag"]
        row = []
        try:
            for key in entry["input_names"]:
                series_name, first, column = axes[key]
                i = month_in - first
                if not 0 <= i < len(column):
                    raise _no_month(series_name, month_in)
                row.append(column[i])
        except KeyError as exc:
            raise StaleModel(
                f"member {entry['name']} needs inputs at {format_month(month_in)}: {exc}"
            ) from exc
        if len(row) != model.n_inputs:
            raise StaleModel(f"member {entry['name']} lists {len(row)} inputs, "
                             f"its model takes {model.n_inputs}")
        models.append(model)
        rows.append(row)
        by_shape.setdefault(model.layer_sizes, []).append(k)
    values = np.empty(len(members))
    for ks in by_shape.values():
        values[ks] = predict_many([models[k] for k in ks],
                                  np.array([rows[k] for k in ks])[:, None, :])[:, 0]
    normalized = [k for k, entry in enumerate(members)
                  if entry["output_recipe"] == pp.NORMALIZED_OUTPUT]
    if normalized:
        values[normalized] = pp.denormalize_output(values[normalized], levels.values[-3:])
    member_values = dict(zip([entry["name"] for entry in members], values.tolist()))

    master_model = load_model(os.path.join(run_dir, record["master"]["model_path"]))
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
