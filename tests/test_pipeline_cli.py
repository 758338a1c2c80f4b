"""End-to-end pipeline runs, manifest semantics, reports, CLI subcommands."""

import copy
import csv
import functools
import json
import multiprocessing
import operator
import os
import re
import shutil
import subprocess
import sys
import tempfile
import textwrap
import typing
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import spreadnet
from spreadnet import neural, pipeline, preprocess, reference, series
from spreadnet.cli import EXIT_CODES
from spreadnet.cli import main as cli_main
from spreadnet.demo import write_demo_csv, write_demo_workspace
from spreadnet.errors import (
    ConstantOutput,
    CorruptModel,
    DivergedTraining,
    IncompleteManifest,
    MissingFile,
    NonPositiveValue,
    PipelineStageError,
    SpreadnetError,
    StaleModel,
)
from spreadnet.metrics import equity_curves
from spreadnet.neural import TrainConfig, load_model, predict
from spreadnet.pipeline import (
    MANIFEST_NAME,
    SERVE_NAME,
    VARIABLES,
    PipelineConfig,
    config_hash,
    derive_matrix_seed,
    emit_reports,
    ingest,
    load_run,
    predict_from_run,
    run_pipeline,
    serve_record,
    train_all,
)
from spreadnet.preprocess import (
    MASTER_SET_ID,
    OUTPUT_VARIABLE,
    BlockAverageConfig,
    SmoothingConfig,
    VarConfig,
    build_derived_columns,
)
from spreadnet.series import format_month, parse_month


def readme_config() -> dict:
    """The JSON example under README's "Config" heading."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Config\n", 1)[1]
    return json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])


def dotted_keys(node, prefix=""):
    """Every dotted key of a JSON document, list indices included."""
    if not isinstance(node, (dict, list)):
        return
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        yield f"{prefix}{key}"
        yield from dotted_keys(child, f"{prefix}{key}.")


README_CONFIG = readme_config()
KNOWN_KEYS = list(dotted_keys(README_CONFIG))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8,
)


@pytest.fixture(scope="module")
def set7_run(tmp_path_factory):
    """A finished run of base set 7 alone, whose members read only global and tbill."""
    tmp = tmp_path_factory.mktemp("set7")
    _, config_path = write_demo_workspace(tmp, restarts=1, enabled_sets=[7])
    config = PipelineConfig.from_file(config_path)
    return config, run_pipeline(config, through="master", run_dir=tmp / "run").run_dir


def read_csv(path: Path, reader=csv.reader) -> list:
    """Every row ``reader`` reads from the CSV file at ``path``, which is closed after."""
    with Path(path).open(newline="", encoding="utf-8") as fh:
        return list(reader(fh))


def with_csv_edit(config, directory, edit):
    """``config`` reading a copy of its CSV that ``edit(rows)`` changed in place."""
    source = Path(config.variables["igaem"]["path"])
    rows = read_csv(source)
    edit(rows)
    target = Path(directory) / "edited.csv"
    with target.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    data = config.to_dict()
    for entry in data["data"]["variables"].values():
        entry["path"] = str(target)
    return PipelineConfig.from_dict(data)


def fresh_python(script: str) -> str:
    """The standard output of ``script`` run by a fresh interpreter on this package."""
    src = str(Path(spreadnet.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def fingerprint(report) -> str:
    """Every number of a forecast, floats spelled exactly."""
    return json.dumps(asdict(report))


@st.composite
def scored_entries(draw, count):
    """The scores and series of ``count`` manifest entries whose test windows
    (5-10 consecutive months, starting 0-2 months apart) share at least three months."""
    base = parse_month("2001-01")
    finite = st.floats(allow_nan=False, allow_infinity=False)
    entries = []
    for _ in range(count):
        start, n = base + draw(st.integers(0, 2)), draw(st.integers(5, 10))
        levels = st.lists(st.floats(1e-3, 1e6), min_size=n, max_size=n)
        entries.append({
            "ism": draw(st.just("perfect") | finite),
            "norm_ep": draw(st.none() | finite),
            "hit_rate": draw(st.floats(0.0, 1.0)),
            "test_months": [format_month(start + i) for i in range(n)],
            "predicted_levels": draw(levels),
            "actual_levels": draw(levels),
        })
    return entries


def first_member(manifest: dict) -> dict:
    """The candidate entry of the manifest's first member."""
    return next(c for c in manifest["candidates"] if c["name"] == manifest["members"][0])


def replaced(path: Path, by_dir: bool) -> Path:
    """``path``, whatever was there replaced by an empty directory or a file."""
    if path.is_dir():
        shutil.rmtree(path)
    path.unlink(missing_ok=True)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.mkdir() if by_dir else path.write_text("in the way\n")
    return path


def edit_json(path: Path, edit) -> None:
    """Rewrite the JSON document at ``path`` after ``edit(document)`` changed it in place."""
    document = json.loads(path.read_text())
    edit(document)
    path.write_text(json.dumps(document))


def reading(config_path: Path, data: Path) -> Path:
    """``data``, once the config at ``config_path`` reads every variable from it."""
    edit_json(config_path, lambda c: [e.update(path=str(data))
                                      for e in c["data"]["variables"].values()])
    return data


def not_utf8(config_path: Path, directory: Path) -> Path:
    """A copy of the config's CSV whose first data row opens with byte 0xff."""
    source = Path(json.loads(config_path.read_text())["data"]["variables"]["igaem"]["path"])
    target = directory / "latin1.csv"
    target.write_bytes(source.read_bytes().replace(b"\n", b"\n\xff", 1))
    return reading(config_path, target)


def served(run: Path, edit, named: str) -> Path:
    """``run / named``, once ``edit`` changed the run's serve record."""
    edit_json(run / SERVE_NAME, edit)
    return run / named


# A file a command cannot read or write: (command, exit code, fault(run, config
# path) -> the path the failure names). Read-side faults first, then write-side.
FILE_FAULTS = {
    "serve_is_a_directory": ("predict", 8, lambda run, cfg: replaced(run / SERVE_NAME, True)),
    "manifest_is_a_directory": ("report", 7, lambda run, cfg: replaced(run / MANIFEST_NAME, True)),
    "member_model_path_empty": ("predict", 8, lambda run, cfg: served(
        run, lambda r: r["members"][0].update(model_path=""), "")),
    "master_model_path_a_directory": ("predict", 8, lambda run, cfg: served(
        run, lambda r: r["master"].update(model_path="models"), "models")),
    "data_path_a_directory": ("validate", 2, lambda run, cfg: reading(
        cfg, replaced(run.parent / "data", True))),
    "data_not_utf8": ("validate", 2, lambda run, cfg: not_utf8(cfg, run.parent)),
    # the ingest inside a forecast keeps its own stage and exit code
    "data_missing_on_predict": ("predict", 2, lambda run, cfg: served(run, lambda r: [
        e.update(path=str(run.parent / "gone.csv"))
        for e in r["config"]["data"]["variables"].values()], run.parent / "gone.csv")),
    "reports_is_a_file": ("report", 7, lambda run, cfg: replaced(run / "reports", False)),
    "models_is_a_file": ("train", 4, lambda run, cfg: replaced(run / "models", False)),
    "manifest_is_a_directory_when_written": (
        "train", 4, lambda run, cfg: replaced(run / MANIFEST_NAME, True)),
    "matrices_is_a_file": ("preprocess", 3, lambda run, cfg: replaced(run / "matrices", False)),
}


def json_classes(part) -> set:
    """The classes of the JSON values that a run-record shape entry accepts."""
    if part.__class__ in (dict, list):  # an object, or an array of objects
        return {part.__class__}
    if part.__class__ is type:  # a JSON integer is a number too
        return {int, float} if part is float else {part}
    origin = typing.get_origin(part)
    if origin is list:
        return {list}
    if origin is typing.Literal:
        return {str}
    return set().union(*map(json_classes, typing.get_args(part)))


def shape_places(shape, where=()):
    """(key path, shape entry) of every place in a run-record shape; an
    array's item and the places in it are those of its first item."""
    for key, part in shape.items():
        place = (*where, key)
        yield place, part
        if part.__class__ is list:
            place, part = (*place, 0), part[0]
            yield place, part
        if part.__class__ is dict:
            yield from shape_places(part, place)


RECORD_SHAPES = {SERVE_NAME: pipeline._SERVE, MANIFEST_NAME: pipeline._MANIFEST}
RECORD_PLACES = [(name, place, part) for name, shape in RECORD_SHAPES.items()
                 for place, part in shape_places(shape)]
OTHER_KINDS = [None, True, 7, 2.5, "x", [], {}]
DELETED = "<deleted>"
# a JSON document nested deeper than the decoder recurses
NESTED = "[" * 100_000 + "]" * 100_000


@pytest.fixture(scope="session")
def small_run(tmp_path_factory):
    """One compact but complete pipeline run shared by the read-only tests."""
    tmp = tmp_path_factory.mktemp("pipeline")
    _, config_path = write_demo_workspace(tmp, restarts=3, enabled_sets=[1, 3, 7, 8])
    config = PipelineConfig.from_file(config_path)
    result = run_pipeline(config, through="report")
    return config_path, config, result


class TestRunPipeline:
    def test_completes_and_writes_artifacts(self, small_run):
        _, config, result = small_run
        assert result.stages == ["ingest", "preprocess", "train", "select", "master", "report"]
        assert len(result.matrices) == 31  # sets 1,7,8 x 10 lags + set 3 x 1
        assert len(result.candidates) == 31
        assert len(result.members) == 10
        assert (result.run_dir / MANIFEST_NAME).exists()
        assert (result.run_dir / "models" / "master.json").exists()
        for member in result.members:
            assert (result.run_dir / "models" / f"{member.name}.json").exists()

    def test_manifest_contents(self, small_run):
        _, config, result = small_run
        manifest = load_run(result.run_dir)
        assert manifest["config_hash"] == config_hash(config)
        assert len(manifest["candidates"]) == 31
        for entry in manifest["candidates"]:
            assert entry["matrix_seed"] == derive_matrix_seed(
                config.training.rng_seed, entry["base_set"], entry["lag"]
            )
            assert len(entry["predicted_levels"]) == len(entry["actual_levels"])
        assert manifest["members"] == [m.name for m in result.members]
        master = manifest["master"]
        assert master["model_path"] == "models/master.json"
        assert master["matrix_seed"] == derive_matrix_seed(
            config.training.rng_seed, MASTER_SET_ID, 0
        )
        assert master["winning_seed"] == result.master.seed

    def test_missing_csv_halts_at_ingest(self, tmp_path):
        _, config_path = write_demo_workspace(tmp_path, restarts=2, enabled_sets=[7])
        data = json.loads(config_path.read_text())
        for entry in data["data"]["variables"].values():
            entry["path"] = str(tmp_path / "absent.csv")
        config = PipelineConfig.from_dict(data)
        with pytest.raises(PipelineStageError) as err:
            run_pipeline(config, through="report", run_dir=tmp_path / "run")
        assert err.value.stage == "ingest"

    def test_partial_run_through_train(self, tmp_path):
        _, config_path = write_demo_workspace(
            tmp_path, restarts=2, enabled_sets=[7], rng_seed=5
        )
        config = PipelineConfig.from_file(config_path)
        result = run_pipeline(config, through="train", run_dir=tmp_path / "run")
        manifest = load_run(result.run_dir)
        assert manifest["stages"] == ["ingest", "preprocess", "train"]
        assert "members" not in manifest
        with pytest.raises(Exception):
            emit_reports(manifest, result.run_dir)


class TestConfigRoundTrip:
    def test_parse_serialize_parse_identical(self, small_run):
        config_path, config, _ = small_run
        echoed = PipelineConfig.from_dict(config.to_dict())
        assert echoed == config
        assert echoed.to_dict() == config.to_dict()
        on_disk = json.loads(Path(config_path).read_text())
        assert PipelineConfig.from_dict(on_disk).to_dict() == on_disk

    def test_full_scale_flag(self):
        data = {
            "data": {"variables": {v: {"path": "x.csv", "column": v}
                                   for v in ("igaem", "embi_venezuela", "embi_global", "tbill")}},
            "training": {"restarts": 50, "full_scale": True},
        }
        config = PipelineConfig.from_dict(data)
        assert config.training.restarts == 50
        assert config.train_cfg.restarts == 5000

    @pytest.mark.parametrize("edit, named", [
        (lambda d: d["training"].update(restart=200), "training.restart"),
        (lambda d: d.update(trainig={"restarts": 2}), "trainig"),
        (lambda d: d["ma_levels"][1].update(m=4), "ma_levels.1.m"),
        (lambda d: d["data"]["variables"]["igaem"].update(colum="x"),
         "data.variables.igaem.colum"),
        (lambda d: d["data"]["variables"].update(spx={"path": "x.csv", "column": "spx"}),
         "data.variables.spx"),
        (lambda d: d["data"]["variables"]["tbill"].pop("column"), "data.variables.tbill"),
        (lambda d: d.update(output=["runs"]), "output"),
        (lambda d: d.update(ma_levels={"M": 2}), "ma_levels"),
        (lambda d: d["selection"].update(top_k=-3), "selection.top_k"),
        (lambda d: d["selection"].update(top_k=0), "selection.top_k"),
        (lambda d: d["base_sets"].update(single_lag=0), "base_sets.single_lag"),
        (lambda d: d["base_sets"].update(single_lag=-2), "base_sets.single_lag"),
        (lambda d: d["base_sets"].update(enabled=[7, 11]), "base_sets.enabled"),
        (lambda d: d["base_sets"].update(enabled=[0]), "base_sets.enabled"),
        (lambda d: d["output"].update(formats=["pdf"]), "output.formats"),
        (lambda d: d["output"].update(formats=["csv", "CSV"]), "output.formats"),
        (lambda d: d["training"].update(restarts=1.5), "training.restarts"),
        (lambda d: d["training"].update(cycles=True), "training.cycles"),
        (lambda d: d["training"].update(rng_seed=0.5), "training.rng_seed"),
        (lambda d: d["training"].update(hidden_size=2.5), "training.hidden_size"),
        (lambda d: d["base_sets"].update(single_lag=1.5), "base_sets.single_lag"),
        (lambda d: d["base_sets"].update(enabled=[7, 8.0]), "base_sets.enabled.1"),
        (lambda d: d["selection"].update(top_k=2.5), "selection.top_k"),
        (lambda d: d["var"].update(window=30.5), "var.window"),
        (lambda d: d["ma_levels"][1].update(M=4.0), "ma_levels.1.M"),
        (lambda d: d["ma_levels"][0].update(n=True), "ma_levels.0.n"),
        (lambda d: d["training"].update(full_scale="no"), "training.full_scale"),
        (lambda d: d["training"].update(full_scale=1), "training.full_scale"),
        (lambda d: d["training"].update(full_scale="true"), "training.full_scale"),
        (lambda d: d["training"].update(restarts="abc"), "training.restarts"),
        (lambda d: d["training"].update(restarts=None), "training.restarts"),
        (lambda d: d["training"].update(cycles="5"), "training.cycles"),
        (lambda d: d["training"].update(hidden_size="3"), "training.hidden_size"),
        (lambda d: d["var"].update(window="12"), "var.window"),
        (lambda d: d["ma_levels"][0].update(M=2.5), "ma_levels.0.M"),
        (lambda d: d["ma_levels"][1].update(n="3"), "ma_levels.1.n"),
        (lambda d: d["training"].update(stop_error="abc"), "training.stop_error"),
        (lambda d: d["training"].update(learning_rate=None), "training.learning_rate"),
        (lambda d: d["var"].update(confidence="0.9"), "var.confidence"),
        (lambda d: d["smoothing"].update(beta=True), "smoothing.beta"),
        (lambda d: d["smoothing"].update(seed_value="a"), "smoothing.seed_value"),
        (lambda d: d["training"].update(split=True), "training.split"),
        (lambda d: d["output"].update(directory=5), "output.directory"),
        (lambda d: d["data"].update(date_column=5), "data.date_column"),
        (lambda d: d["data"]["variables"]["igaem"].update(path=5), "data.variables.igaem.path"),
        (lambda d: d["base_sets"].update(enabled=7), "base_sets.enabled"),
        (lambda d: d["output"].update(formats="csv"), "output.formats"),
        (lambda d: d["training"].update(rng_seed=-1), "training.rng_seed"),
        (lambda d: d["training"].update(restarts=0), "training.restarts"),
        (lambda d: d["var"].update(window=5), "var.window"),
        (lambda d: d["data"]["variables"].pop("tbill"), "data.variables"),
        *[(lambda d, key=key, value=value: d[key[0]].update({key[1]: value}), ".".join(key))
          for key in (("training", "learning_rate"), ("smoothing", "seed_value"))
          for value in (float("nan"), float("inf"), float("-inf"), 10**400, -10**400)],
    ])
    def test_strict_keys_and_sections(self, small_run, edit, named):
        config_path, _, _ = small_run
        data = json.loads(Path(config_path).read_text())
        edit(data)
        with pytest.raises(ValueError, match=re.escape(named)):
            PipelineConfig.from_dict(data)

    def test_numpy_integers_pass(self, small_run):
        _, config, _ = small_run
        config = replace(config, top_k=np.int64(4), single_lag=np.int32(2),
                         training=replace(config.training, restarts=np.int64(3)))
        assert config.top_k == 4 and config.single_lag == 2
        assert type(config.training.restarts) is int
        config_hash(config)  # the config serializes

    @pytest.mark.parametrize("change, named", [
        (dict(top_k=2.5), "selection.top_k"),
        (dict(formats="csv"), "output.formats"),
        (dict(enabled_sets=[7, "8"]), "base_sets.enabled.1"),
        (dict(output_dir=Path("runs")), "output.directory"),
        (dict(smoothing=SmoothingConfig(seed_value="a")), "smoothing.seed_value"),
        (dict(ma_levels=(BlockAverageConfig(), BlockAverageConfig(n=1.5))), "ma_levels.1.n"),
    ])
    def test_direct_construction_checked(self, small_run, change, named):
        _, config, _ = small_run
        with pytest.raises(ValueError, match=re.escape(named)):
            replace(config, **change)

    @settings(max_examples=150)
    @given(config=st.builds(
        PipelineConfig,
        variables=st.fixed_dictionaries(
            {v: st.fixed_dictionaries({"path": st.text(), "column": st.text()})
             for v in VARIABLES}),
        date_column=st.text(),
        var_cfg=st.builds(VarConfig, window=st.integers(20, 10**6),
                          confidence=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True)),
        smoothing=st.builds(SmoothingConfig,
                            beta=st.floats(0.0, 1.0, exclude_min=True) | st.just(1),
                            seed_value=st.none() | st.integers() | st.floats(allow_nan=False,
                                                                            allow_infinity=False)),
        ma_levels=st.lists(st.builds(BlockAverageConfig, M=st.integers(0, 20).map(lambda m: 2 * m),
                                     n=st.integers(1, 60)), max_size=3).map(tuple),
        enabled_sets=st.lists(st.integers(1, 10), max_size=12).map(tuple),
        single_lag=st.integers(1, 24),
        training=st.builds(TrainConfig, cycles=st.integers(1, 10**6),
                           stop_error=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                           learning_rate=st.floats(1e-9, 1e3) | st.integers(1, 9),
                           restarts=st.integers(1, 10**6), rng_seed=st.integers(0, 2**63),
                           split=st.floats(0.55, 0.70), hidden_size=st.none() | st.integers(1, 64)),
        full_scale=st.booleans(),
        top_k=st.integers(1, 100),
        output_dir=st.text(),
        formats=st.lists(st.sampled_from(["csv", "txt"]), max_size=3).map(tuple),
    ))
    def test_to_dict_json_from_dict_round_trip(self, config):
        text = json.dumps(config.to_dict())
        assert PipelineConfig.from_dict(json.loads(text)) == config
        assert json.loads(text) == config.to_dict()

    @settings(max_examples=400)
    @given(key=st.sampled_from(KNOWN_KEYS), value=JSON_VALUES)
    def test_any_value_at_a_known_key_parses_or_is_named(self, key, value):
        data = copy.deepcopy(README_CONFIG)
        *parents, last = [int(p) if p.isdigit() else p for p in key.split(".")]
        node = data
        for part in parents:
            node = node[part]
        node[last] = value
        try:
            PipelineConfig.from_dict(data)
        except ValueError as exc:  # any other exception type fails the test
            assert key in str(exc)

    def test_readme_example_is_the_layout(self):
        assert PipelineConfig.from_dict(README_CONFIG).to_dict() == README_CONFIG

    # the second is not UTF-8, the third nests too deep to decode
    @pytest.mark.parametrize("raw", [b"{not json", b'{"data": "\xff"}',
                                     pytest.param(NESTED.encode(), id="nested")])
    def test_from_file_names_a_malformed_file(self, tmp_path, raw):
        path = tmp_path / "config.json"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="not valid JSON") as info:
            PipelineConfig.from_file(path)
        assert str(path) in str(info.value)


class TestReports:
    def test_report_files_exist(self, small_run):
        _, _, result = small_run
        names = {p.name for p in result.report_paths}
        assert "divergence.csv" in names
        assert "curves_master.csv" in names
        assert "base_set_summary.csv" in names
        assert "lag_summary.csv" in names
        assert "summary.txt" in names

    def test_divergence_recomputable_from_manifest(self, small_run):
        _, _, result = small_run
        manifest = load_run(result.run_dir)
        rows = read_csv(result.run_dir / "reports" / "divergence.csv", csv.DictReader)
        members = [c for c in manifest["candidates"] if c["name"] in manifest["members"]]
        votes = []
        for e in members:
            pred = np.asarray(e["predicted_levels"])
            act = np.asarray(e["actual_levels"])
            votes.append(np.where(pred[1:] >= act[:-1], 1.0, -1.0))
        expected = np.mean(np.vstack(votes) > 0, axis=0) * 100.0
        got = np.array([float(r["up_vote_percent"]) for r in rows])
        assert np.allclose(got, expected, atol=1e-12)

    def test_curves_recomputable_from_manifest(self, small_run):
        _, _, result = small_run
        manifest = load_run(result.run_dir)
        entry = manifest["master"]
        rows = read_csv(result.run_dir / "reports" / "curves_master.csv", csv.DictReader)
        report = equity_curves(
            np.asarray(entry["predicted_levels"]), np.asarray(entry["actual_levels"])
        )
        assert np.allclose([float(r["eq"]) for r in rows], report.eq, atol=1e-12)
        assert np.allclose([float(r["pe"]) for r in rows], report.pe, atol=1e-12)

    def test_lag_summary_covers_swept_sets_disjointly(self, small_run):
        _, _, result = small_run
        manifest = load_run(result.run_dir)
        rows = read_csv(result.run_dir / "reports" / "lag_summary.csv", csv.DictReader)
        total = sum(int(r["models"]) for r in rows)
        swept = [c for c in manifest["candidates"] if c["lag_swept"]]
        assert total == len(swept) == 30
        assert [int(r["lag"]) for r in rows] == sorted({c["lag"] for c in swept})

    @settings(max_examples=30)
    @given(data=st.data())
    def test_reports_of_a_reloaded_manifest_equal_the_written_ones(self, small_run, data):
        # the manifest to the reports: written, read back, and reported byte for byte alike
        _, _, result = small_run
        manifest = copy.deepcopy(result.manifest)
        by_name = {c["name"]: c for c in manifest["candidates"]}
        scored = [by_name[name] for name in manifest["members"]] + [manifest["master"]]
        for entry, drawn in zip(scored, data.draw(scored_entries(len(scored)))):
            entry.update(drawn)
        with tempfile.TemporaryDirectory() as tmp:
            written, reloaded = Path(tmp, "written"), Path(tmp, "reloaded")
            written.mkdir()
            pipeline._write_manifest(written, manifest)
            emit_reports(manifest, written)
            emit_reports(load_run(written), reloaded)
            names = sorted(p.name for p in (written / "reports").iterdir())
            assert names == sorted(p.name for p in (reloaded / "reports").iterdir())
            for name in names:
                assert (written / "reports" / name).read_bytes() == \
                    (reloaded / "reports" / name).read_bytes(), name

    @staticmethod
    def group(isms):
        """Candidates of one base set with these ISMs, as a manifest lists them."""
        return [{"base_set": 1, "ism": ism, "norm_ep": 50.0, "hit_rate": 0.5} for ism in isms]

    def test_group_mean_of_isms_near_the_float_limit_is_finite(self):
        # np.mean's sum of these overflows: the mean is taken over the largest ISM
        (row,) = pipeline._group_means(self.group([1.7e308, 1.7e308, "perfect"]), "base_set")
        assert row["mean_ism"] == 1.7e308 and row["perfect"] == 1
        (row,) = pipeline._group_means(self.group([-1.7e308, -1.7e308, 0.0]), "base_set")
        assert row["mean_ism"] == pytest.approx(-1.7e308 / 3 * 2, rel=1e-15)

    @settings(max_examples=300)
    @given(isms=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                         max_size=12))
    def test_group_mean_of_finite_isms_is_finite_and_within_them(self, isms):
        (row,) = pipeline._group_means(self.group(isms), "base_set")
        assert np.isfinite(row["mean_ism"])
        assert min(isms) <= row["mean_ism"] <= max(isms)
        with np.errstate(over="ignore", invalid="ignore"):
            plain = float(np.mean(isms))
        if np.isfinite(plain) and min(isms) <= plain <= max(isms):
            assert row["mean_ism"] == plain  # a sum that stays finite keeps its bytes

    @staticmethod
    def summary_sections(run_dir):
        """summary.txt as {section header: its lines up to the next blank line}."""
        blocks = (run_dir / "reports" / "summary.txt").read_text().split("\n\n")
        return {b.splitlines()[0]: b.splitlines()[1:] for b in blocks if b.strip()}

    def test_summary_text_tables(self, small_run, tmp_path):
        _, config, result = small_run
        sections = self.summary_sections(result.run_dir)
        assert "spreadnet run summary" in sections
        by_set = sections["mean scores by base set"]
        assert [int(r.split()[0]) for r in by_set[1:]] == list(config.enabled_sets)
        by_lag = sections["mean scores by lag (lag-swept sets only)"]
        assert [int(r.split()[0]) for r in by_lag[1:]] == list(range(1, 11))
        members = sections["selected members (rank order)"]
        assert [r.split()[1] for r in members] == load_run(result.run_dir)["members"]
        assert members[0].startswith("  1. ") and "ISM=" in members[0]
        master = (result.run_dir / "reports" / "summary.txt").read_text().splitlines()[-1]
        assert master.startswith("master: ISM=") and "normEP=" in master

        # single-lag sets only: no by-lag table
        _, config_path = write_demo_workspace(tmp_path, restarts=1, enabled_sets=[3, 4, 5, 6])
        config = replace(PipelineConfig.from_file(config_path), top_k=4)
        single = run_pipeline(config, through="report", run_dir=tmp_path / "run")
        sections = self.summary_sections(single.run_dir)
        assert [int(r.split()[0]) for r in sections["mean scores by base set"][1:]] == [3, 4, 5, 6]
        assert not any(title.startswith("mean scores by lag") for title in sections)


class TestPredictFromRun:
    def test_forecast_next_month(self, small_run):
        _, _, result = small_run
        report = predict_from_run(result.run_dir)
        manifest = load_run(result.run_dir)
        assert report.target_month == "2005-11"  # demo frame ends 2005-10
        assert report.forecast.direction in (-1, 1)
        assert len(report.member_forecasts) == len(manifest["members"])
        assert np.isfinite(report.forecast.value)

    def test_normalized_members_denormalized(self, tmp_path):
        _, config_path = write_demo_workspace(tmp_path, restarts=1, enabled_sets=[8, 10])
        config = PipelineConfig.from_file(config_path)
        result = run_pipeline(config, through="master", run_dir=tmp_path / "run")
        report = predict_from_run(result.run_dir)
        manifest = load_run(result.run_dir)

        frame = ingest(config)
        derived = build_derived_columns(frame, var_cfg=config.var_cfg,
                                        smooth_cfg=config.smoothing, ma_levels=config.ma_levels)
        a, b, c = frame[OUTPUT_VARIABLE].values[-3:]
        target = parse_month(report.target_month)
        entries = {e["name"]: e for e in manifest["candidates"]}
        assert len(report.member_forecasts) == 10
        for name in manifest["members"]:
            entry = entries[name]
            assert entry["output_recipe"] == "normalized"
            row = [derived[col].value_at(target - entry["lag"]) for col in entry["input_names"]]
            p = predict(load_model(result.run_dir / entry["model_path"]), np.array([row]))[0]
            assert report.member_forecasts[name] == p * ((a + b + c) / 3) + c

    def test_stale_frame(self, small_run, tmp_path):
        _, config, result = small_run
        short_csv = write_demo_csv(tmp_path / "short.csv", n_months=40)
        data = config.to_dict()
        for entry in data["data"]["variables"].values():
            entry["path"] = str(short_csv)
        stale = PipelineConfig.from_dict(data)
        with pytest.raises(StaleModel):
            predict_from_run(result.run_dir, config=stale)


    def test_builds_only_the_columns_members_read(self, set7_run, monkeypatch):
        config, run = set7_run
        record = json.loads((run / SERVE_NAME).read_text())
        assert {n for m in record["members"] for n in m["input_names"]} == {"global", "tbill"}
        calls = dict.fromkeys(("indicator_var_series", "double_smooth", "block_average_column"), 0)
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(preprocess, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(preprocess, name, counted)
        predict_from_run(run)
        assert calls == dict.fromkeys(calls, 0)
        build_derived_columns(ingest(config))  # the counters do see a full build
        assert all(calls.values())

    def test_a_warm_forecast_builds_no_checked_series(self, small_run, monkeypatch):
        # outside input is checked where it comes in; a warm call reads no new input, and
        # a series derived on a checked axis is not checked again
        _, _, result = small_run
        predict_from_run(result.run_dir)  # the cold call parses the CSV
        runs = {}

        def counted(self, _check=series.MonthlySeries.__post_init__):
            runs["MonthlySeries"] = runs.get("MonthlySeries", 0) + 1
            _check(self)
        monkeypatch.setattr(series.MonthlySeries, "__post_init__", counted)
        predict_from_run(result.run_dir)
        assert runs == {}
        series.MonthlySeries("x", [0], [1.0])  # the counter does see the public constructor
        assert runs == {"MonthlySeries": 1}

    def test_a_member_input_off_its_column_is_named(self, small_run, tmp_path):
        # read by index on the column's axis, a month the column lacks fails as
        # ``value_at`` fails: a lag-0 member would need the month being forecast
        _, config, result = small_run
        run = shutil.copytree(result.run_dir, tmp_path / "run")
        record = json.loads((run / SERVE_NAME).read_text())
        member = record["members"][0]
        member["lag"] = 0
        (run / SERVE_NAME).write_text(json.dumps(record))
        derived = build_derived_columns(ingest(config), var_cfg=config.var_cfg,
                                        smooth_cfg=config.smoothing, ma_levels=config.ma_levels)
        target = parse_month(predict_from_run(result.run_dir).target_month)
        with pytest.raises(KeyError) as missing:
            derived[member["input_names"][0]].value_at(target)
        with pytest.raises(StaleModel) as info:
            predict_from_run(run)
        assert str(info.value) == (f"member {member['name']} needs inputs at "
                                   f"{format_month(target)}: {missing.value}")

    @pytest.mark.parametrize("section, value", [
        ("var", {"window": 30, "confidence": 0.95}),
        ("smoothing", {"beta": 0.5, "seed_value": None}),
        ("ma_levels", [{"M": 2, "n": 2}]),
    ])
    def test_other_derivation_settings_are_refused(self, small_run, tmp_path, capsys,
                                                   section, value):
        # the members were trained on inputs derived with the recorded settings
        config_path, config, result = small_run
        data = config.to_dict()
        data[section] = value
        record = re.escape(str(result.run_dir / SERVE_NAME))
        with pytest.raises(StaleModel, match=rf"^config {section} .* which {record} records$"):
            predict_from_run(result.run_dir, config=PipelineConfig.from_dict(data))
        path = tmp_path / "other.json"
        path.write_text(json.dumps(data))
        assert cli_main(["predict", "--run", str(result.run_dir), "-c", str(path)]) == 8
        assert f"stage 'predict' failed: config {section} " in capsys.readouterr().err

    @pytest.mark.parametrize("unread_sections_too", [False, True])
    def test_other_data_paths_and_unread_sections_are_served(self, small_run, tmp_path,
                                                             unread_sections_too):
        _, config, result = small_run
        data = config.to_dict()
        for entry in data["data"]["variables"].values():
            entry["path"] = str(shutil.copy(entry["path"], tmp_path / "copy.csv"))
        if unread_sections_too:
            data["training"]["restarts"] = 99
            data["selection"]["top_k"] = 2
        other = PipelineConfig.from_dict(data)
        assert predict_from_run(result.run_dir, config=other) == predict_from_run(result.run_dir)

    def test_unread_column_cannot_fail_a_forecast(self, set7_run, tmp_path):
        # A non-positive indicator level breaks the VaR chain, which no set-7
        # member reads; the forecast is served, and unchanged.
        config, run = set7_run

        def zero_level(rows):
            rows[100][rows[0].index("igaem")] = "0.0"

        edited = with_csv_edit(config, tmp_path, zero_level)
        with pytest.raises(NonPositiveValue):
            build_derived_columns(ingest(edited))
        assert predict_from_run(run, config=edited) == predict_from_run(run)


class TestServeRecord:
    def test_record_is_the_manifest_projection(self, small_run):
        _, _, result = small_run
        record = json.loads((result.run_dir / SERVE_NAME).read_text())
        assert record == serve_record(load_run(result.run_dir))
        text = json.dumps(record)
        for key in ("predicted_levels", "actual_levels", "test_months", "candidates"):
            assert key not in text

    def test_run_without_record_predicts_from_manifest(self, small_run, tmp_path):
        _, _, result = small_run
        run = shutil.copytree(result.run_dir, tmp_path / "run")
        (run / SERVE_NAME).unlink()
        assert predict_from_run(run) == predict_from_run(result.run_dir)

    def test_rerun_without_master_removes_record(self, tmp_path):
        _, config_path = write_demo_workspace(tmp_path, restarts=1, enabled_sets=[7])
        config = PipelineConfig.from_file(config_path)
        run = tmp_path / "run"
        run_pipeline(config, through="report", run_dir=run)
        assert (run / SERVE_NAME).exists()
        run_pipeline(config, through="train", run_dir=run)
        assert not (run / SERVE_NAME).exists()
        with pytest.raises(IncompleteManifest, match="no trained master"):
            predict_from_run(run)

    def test_select_stage_writes_no_record(self, tmp_path):
        _, config_path = write_demo_workspace(tmp_path, restarts=1, enabled_sets=[7])
        config = PipelineConfig.from_file(config_path)
        result = run_pipeline(config, through="select", run_dir=tmp_path / "run")
        assert "members" in result.manifest
        assert not (result.run_dir / SERVE_NAME).exists()


class TestDecodeMemo:
    """Model and CSV texts are decoded once per distinct content and shared, so
    a call never sees another file's, an older file's or a mutated result."""

    def test_calls_share_decoded_files_and_agree(self, set7_run):
        _, run = set7_run
        with pytest.MonkeyPatch.context() as patch:  # the reference decodes every file afresh
            patch.setattr(neural, "_decode_model", neural._decode_model.__wrapped__)
            patch.setattr(series, "_parse_csv", series._parse_csv.__wrapped__)
            want = fingerprint(predict_from_run(run))
        decoded = []
        for _ in range(2):
            got = fingerprint(predict_from_run(run))
            decoded.append((neural._decode_model.cache_info().misses,
                            series._parse_csv.cache_info().misses))
            assert got == want
        # the first call decodes 10 members, the master and one CSV; the second nothing
        assert decoded == [(11, 1), (11, 1)]

    def test_a_rewritten_model_is_decoded_again(self, set7_run, tmp_path):
        _, source = set7_run
        run = shutil.copytree(source, tmp_path / "run")
        before = predict_from_run(run)
        member = json.loads((run / SERVE_NAME).read_text())["members"][0]
        path = run / member["model_path"]
        document = json.loads(path.read_text())
        document["weights"][-1][0][-1] += 1.0  # another output bias: another valid model
        path.write_text(json.dumps(document, indent=1))
        after = predict_from_run(run)
        assert after.member_forecasts[member["name"]] != before.member_forecasts[member["name"]]
        assert after.forecast != before.forecast
        assert fingerprint(after) == fresh_python(f"""
            from dataclasses import asdict
            import json
            from spreadnet.pipeline import predict_from_run
            print(json.dumps(asdict(predict_from_run({str(run)!r}))))
        """)

    def test_an_edited_csv_is_parsed_again(self, set7_run, tmp_path):
        config, run = set7_run
        edited = with_csv_edit(config, tmp_path, lambda rows: None)
        before = predict_from_run(run, config=edited)
        path = Path(edited.variables[OUTPUT_VARIABLE]["path"])
        rows = read_csv(path)
        rows[-1][1:] = [repr(float(v) * 1.25) for v in rows[-1][1:]]  # the last month
        with path.open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        after = predict_from_run(run, config=edited)
        assert after.last_actual == float(rows[-1][rows[0].index(OUTPUT_VARIABLE)])
        assert after.last_actual != before.last_actual
        # the lag-1 member reads the last month's inputs, the others earlier months'
        lag1 = "set07_lag01"
        assert after.member_forecasts[lag1] != before.member_forecasts[lag1]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(series, "_parse_csv", series._parse_csv.__wrapped__)
            assert fingerprint(after) == fingerprint(predict_from_run(run, config=edited))

    def test_a_corrupt_model_fails_every_call_until_restored(self, set7_run, tmp_path):
        _, source = set7_run
        run = shutil.copytree(source, tmp_path / "run")
        want = fingerprint(predict_from_run(run))
        path = run / "models" / "master.json"
        good = path.read_text()
        path.write_text(good[: len(good) // 2])
        for _ in range(2):
            with pytest.raises(CorruptModel, match=re.escape(str(path))):
                predict_from_run(run)
        path.write_text(good)
        assert fingerprint(predict_from_run(run)) == want

    def test_a_shared_model_is_read_only(self, set7_run):
        _, run = set7_run
        path = run / json.loads((run / SERVE_NAME).read_text())["master"]["model_path"]
        model = load_model(path)
        assert load_model(path) is model  # one decoded model, shared by every call
        scalings = (model.input_scaling, model.output_scaling)
        for array in (*model.weights, *(a for m in scalings for a in (m.scale, m.offset))):
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 0.0


class TestDeterminism:
    def test_two_runs_identical_manifests(self, tmp_path):
        _, config_path = write_demo_workspace(
            tmp_path, restarts=2, enabled_sets=[7, 8], rng_seed=11
        )
        config = PipelineConfig.from_file(config_path)
        a = run_pipeline(config, through="report", run_dir=tmp_path / "a")
        b = run_pipeline(config, through="report", run_dir=tmp_path / "b")
        ma, mb = a.manifest.copy(), b.manifest.copy()
        ma.pop("created_at"), mb.pop("created_at")
        assert json.dumps(ma, sort_keys=True) == json.dumps(mb, sort_keys=True)

    def test_one_and_two_workers_write_the_same_run(self, tmp_path, monkeypatch, pools):
        _, config_path = write_demo_workspace(
            tmp_path, restarts=3, enabled_sets=[1, 7, 10], rng_seed=13
        )
        config = PipelineConfig.from_file(config_path)
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(neural, "_worker_count", lambda: workers)
            run = run_pipeline(config, run_dir=tmp_path / f"workers-{workers}").run_dir
            assert multiprocessing.active_children() == []
            files = {p.relative_to(run).as_posix(): p.read_bytes()
                     for p in sorted(run.rglob("*")) if p.is_file()}
            manifest = json.loads(files.pop(MANIFEST_NAME))
            manifest.pop("created_at")
            runs.append((files, manifest))
        assert pools == [2, 2]  # the train stage's pool, then the master's
        assert runs[0] == runs[1]

    def test_failing_worker_fails_the_train_stage(self, tmp_path, monkeypatch, pools):
        def poisoned(*args):
            raise DivergedTraining("poisoned kernel")

        monkeypatch.setattr(neural, "_worker_count", lambda: 2)
        monkeypatch.setattr(neural, "_epoch_math", poisoned)
        _, config_path = write_demo_workspace(tmp_path, restarts=2, enabled_sets=[7])
        with pytest.raises(PipelineStageError, match="poisoned kernel") as info:
            run_pipeline(PipelineConfig.from_file(config_path), run_dir=tmp_path / "run")
        assert info.value.stage == "train"
        assert pools == [2]
        assert multiprocessing.active_children() == []


class TestCli:
    def test_validate(self, small_run, capsys):
        config_path, _, _ = small_run
        assert cli_main(["validate", "-c", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert "aligned months" in out

    def test_validate_missing_file_exit_code(self, tmp_path, capsys):
        _, config_path = write_demo_workspace(tmp_path, enabled_sets=[7])
        data = json.loads(config_path.read_text())
        for entry in data["data"]["variables"].values():
            entry["path"] = str(tmp_path / "gone.csv")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert cli_main(["validate", "-c", str(bad)]) == 2

    def test_validate_short_row_without_date_exit_code(self, set7_run, tmp_path, capsys):
        config, _ = set7_run

        def date_last_row_two_short(rows):
            rows[:] = [[*row[1:], row[0]] for row in rows]
            del rows[2][-1]

        edited = with_csv_edit(config, tmp_path, date_last_row_two_short)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(edited.to_dict()))
        assert cli_main(["validate", "-c", str(path)]) == 2
        err = capsys.readouterr().err
        assert "stage 'ingest' failed" in err and "row 2: date '' is not in YYYY-MM" in err

    def test_report_from_run_dir(self, small_run, capsys):
        _, _, result = small_run
        assert cli_main(["report", "--run", str(result.run_dir)]) == 0
        out = capsys.readouterr().out
        assert "summary.txt" in out

    def test_report_on_disjoint_member_windows(self, small_run, tmp_path, capsys):
        _, _, result = small_run
        manifest = load_run(result.run_dir)
        first = first_member(manifest)
        first["test_months"] = [format_month(parse_month(m) + 240) for m in first["test_months"]]
        run = tmp_path / "run"
        run.mkdir()
        (run / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(SpreadnetError, match="do not intersect"):
            emit_reports(manifest, run)
        assert cli_main(["report", "--run", str(run)]) == 7
        assert "do not intersect" in capsys.readouterr().err

    def test_report_on_incomplete_run_exit_code(self, tmp_path, capsys):
        _, config_path = write_demo_workspace(tmp_path, restarts=2, enabled_sets=[7])
        config = PipelineConfig.from_file(config_path)
        run_pipeline(config, through="preprocess", run_dir=tmp_path / "run")
        assert cli_main(["report", "--run", str(tmp_path / "run")]) == 7

    @pytest.mark.parametrize("argv, flag", [
        (["predict", "--run", "RUN", "--set", "training.restarts=-5"], "--set"),  # no --config
        (["predict", "--run", "RUN", "-o", "OUT"], "-o"),
        (["predict", "--run", "RUN", "--run-dir", "OUT"], "--run-dir"),
        (["predict", "--run", "RUN", "-c", "CONFIG", "-o", "OUT"], "-o"),
        (["report", "--run", "RUN", "--config", "CONFIG"], "--config"),
        (["report", "--run", "RUN", "--set", "training.restarts=-5"], "--set"),
        (["report", "--run", "RUN", "-o", "OUT"], "-o"),
        (["report", "--run", "RUN", "--run-dir", "OUT"], "--run-dir"),
        (["validate", "-c", "CONFIG", "-o", "OUT"], "-o"),
        (["validate", "-c", "CONFIG", "--run-dir", "OUT"], "--run-dir"),
    ])
    def test_unread_flag_exit_code(self, small_run, tmp_path, capsys, argv, flag):
        config_path, _, result = small_run
        fill = {"RUN": str(result.run_dir), "CONFIG": str(config_path), "OUT": str(tmp_path / "out")}
        assert cli_main([fill.get(a, a) for a in argv]) == EXIT_CODES["config"]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "stage 'config' failed" in captured.err and f"does not read {flag}" in captured.err
        assert not (tmp_path / "out").exists()

    def test_predict_reads_set_with_config(self, small_run, capsys):
        config_path, _, result = small_run
        assert cli_main(["predict", "--run", str(result.run_dir), "-c", str(config_path),
                         "--set", "training.restarts=-5"]) == EXIT_CODES["config"]
        assert "training.restarts" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [[], ["predict"], ["nonsense"], ["report", "--bogus"],
                                      ["validate"], ["train", "-c"]])
    def test_usage_error_exits_as_config(self, argv, capsys):
        # argparse's own code, 2, is the ingest stage's
        with pytest.raises(SystemExit) as info:
            cli_main(argv)
        assert info.value.code == EXIT_CODES["config"] == 1
        assert "usage: spreadnet" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["predict", "--help"], ["report", "-h"]])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            cli_main(argv)
        assert info.value.code == 0
        assert "usage: spreadnet" in capsys.readouterr().out

    def test_predict_cli(self, small_run, capsys):
        _, _, result = small_run
        assert cli_main(["predict", "--run", str(result.run_dir)]) == 0
        out = capsys.readouterr().out
        assert "forecast 2005-11" in out
        assert "member votes up" in out

    def test_stage_commands_print_the_summary_scores(self, tmp_path, capsys):
        # select and master print each score as summary.txt does (ISM=perfect, not inf)
        _, config_path = write_demo_workspace(tmp_path, restarts=1, enabled_sets=[7])
        assert cli_main(["master", "-c", str(config_path), "--run-dir", str(tmp_path / "a")]) == 0
        printed_master = next(line for line in capsys.readouterr().out.splitlines()
                              if line.startswith("master: "))
        assert cli_main(["report", "--run", str(tmp_path / "a")]) == 0
        summary = (tmp_path / "a" / "reports" / "summary.txt").read_text().splitlines()
        assert printed_master == summary[-1]
        assert cli_main(["select", "-c", str(config_path), "--run-dir", str(tmp_path / "b")]) == 0
        printed_members = [line.strip() for line in capsys.readouterr().out.splitlines()
                           if "ISM=" in line]
        ranked = summary[summary.index("selected members (rank order)") + 1:-2]
        assert printed_members == [line.strip() for line in ranked]

    def test_preprocess_exports_matrices(self, tmp_path, capsys):
        _, config_path = write_demo_workspace(tmp_path, enabled_sets=[3, 7])
        code = cli_main([
            "preprocess", "-c", str(config_path), "--run-dir", str(tmp_path / "run"),
        ])
        assert code == 0
        exported = sorted((tmp_path / "run" / "matrices").glob("*.csv"))
        assert len(exported) == 11
        with exported[0].open() as fh:
            header = fh.readline().strip().split(",")
        assert header[0] == "month_in" and "output_level" in header

    def test_set_override(self, tmp_path, capsys):
        _, config_path = write_demo_workspace(tmp_path, restarts=2, enabled_sets=[7])
        code = cli_main([
            "train", "-c", str(config_path),
            "--set", "base_sets.enabled=[7]",
            "--set", "training.restarts=1",
            "--run-dir", str(tmp_path / "run"),
        ])
        assert code == 0
        manifest = load_run(tmp_path / "run")
        assert manifest["config"]["training"]["restarts"] == 1

    @pytest.mark.parametrize("extra", [
        ["--set", "var.window=5"],
        ["--set", "training.split=0.9"],
        ["--set", "var.window=abc"],
        ["--set", "selection.top_k=-3"],
        ["--set", "selection.top_k=0"],
        ["--set", "base_sets.single_lag=-2"],
        ["--set", "base_sets.single_lag=0"],
        ["--set", "base_sets.enabled=[11]"],
        ["--set", 'output.formats=["pdf"]'],
        ["--set", "training.restarts=1.5"],
        ["--set", "training.cycles=true"],
        ["--set", "base_sets.single_lag=1.5"],
        ["--set", "selection.top_k=2.5"],
        ["--set", "training.full_scale=no"],
        ["--set", "training.full_scale=1"],
        ["--set", 'training.full_scale="true"'],
        ["--set", "training.restarts=abc"],
        ["--set", 'training.cycles="5"'],
        ["--set", 'training.hidden_size="3"'],
        ["--set", 'var.window="12"'],
        ["--set", 'ma_levels=[{"M": 2.5, "n": 2}]'],
        ["--set", "training.stop_error=abc"],
        ["--set", "training.learning_rate=null"],
        ["--set", 'var.confidence="0.9"'],
        ["--set", "smoothing.beta=true"],
        ["--set", "smoothing.seed_value=a"],
        ["--set", "training.split=true"],
        ["--set", "output.directory=5"],
        ["--set", "data.date_column=5"],
        ["--set", "data.variables.igaem.path=5"],
        ["--set", "base_sets.enabled=7"],
        ["--set", "output.formats=csv"],
        ["--set", "training.rng_seed=-1"],
        ["--set", "training.learning_rate=Infinity"],
        ["--set", "training.learning_rate=NaN"],
        ["--set", "smoothing.seed_value=-Infinity"],
    ])
    def test_bad_config_value_exit_code(self, tmp_path, capsys, extra):
        _, config_path = write_demo_workspace(tmp_path, enabled_sets=[7])
        assert cli_main(["validate", "-c", str(config_path), *extra]) == 1
        err = capsys.readouterr().err
        assert "stage 'config' failed" in err and extra[1].split("=")[0] in err

    @pytest.mark.parametrize("text, problem", [
        ("{", "not valid JSON"),
        pytest.param(NESTED, "not valid JSON", id="nested"),
        ("[1, 2]", "not a JSON object"),
        pytest.param(b"\xff", "not valid JSON", id="non-utf8"),
        # json.loads would take these bytes as an array
        pytest.param("[1, 2]".encode("utf-16"), "not valid JSON", id="utf16"),
    ])
    @pytest.mark.parametrize("command, name, code", [
        ("predict", SERVE_NAME, 8),
        ("predict", MANIFEST_NAME, 8),  # with serve.json removed, predict reads the manifest
        ("report", MANIFEST_NAME, 7),
        ("report", SERVE_NAME, 0),  # report reads only the manifest
    ])
    def test_corrupt_run_record_exit_code(self, small_run, tmp_path, capsys,
                                          text, problem, command, name, code):
        _, _, result = small_run
        run = shutil.copytree(result.run_dir, tmp_path / "run")
        if (command, name) == ("predict", MANIFEST_NAME):
            (run / SERVE_NAME).unlink()
        (run / name).write_bytes(text if isinstance(text, bytes) else text.encode())
        assert cli_main([command, "--run", str(run)]) == code
        if code:
            err = capsys.readouterr().err
            assert f"stage '{command}' failed" in err and name in err and problem in err

    @pytest.mark.parametrize("command, name, edit, code, problem", [
        ("predict", SERVE_NAME, lambda r: {}, 8, f"{SERVE_NAME} lacks config, members, master"),
        ("predict", MANIFEST_NAME, lambda r: {}, 8, "no trained master"),
        ("report", MANIFEST_NAME, lambda r: {}, 7, "no candidates"),
        ("report", SERVE_NAME, lambda r: {}, 0, None),
        ("predict", SERVE_NAME, lambda r: r["members"][1].pop("lag") and r, 8,
         f"{SERVE_NAME} lacks members.1.lag"),
        ("predict", SERVE_NAME, lambda r: r.update(members=5) or r, 8,
         f"{SERVE_NAME} holds a int at members, not a JSON array"),
        ("predict", SERVE_NAME, lambda r: r.update(members=[5]) or r, 8,
         f"{SERVE_NAME} holds a int at members.0, not a JSON object"),
        ("predict", SERVE_NAME, lambda r: r.update(master={}) or r, 8,
         f"{SERVE_NAME} lacks master.model_path"),
        ("predict", SERVE_NAME, lambda r: r.update(master=5) or r, 8,
         f"{SERVE_NAME} holds a int at master, not a JSON object"),
        ("predict", SERVE_NAME, lambda r: r["config"]["training"].update(restarts=0) or r, 8,
         f"{SERVE_NAME} holds an invalid config: config training.restarts"),
        ("report", MANIFEST_NAME, lambda r: r.pop("config") and r, 7,
         f"{MANIFEST_NAME} lacks config"),
        ("predict", MANIFEST_NAME, lambda r: r.pop("config") and r, 8,
         f"{MANIFEST_NAME} lacks 'config'"),
        # a value of the wrong JSON kind
        ("predict", SERVE_NAME, lambda r: r["members"][0].update(lag="x") or r, 8,
         f"{SERVE_NAME} holds 'x' at members.0.lag, not an integer"),
        ("predict", SERVE_NAME, lambda r: r["members"][0].update(lag=True) or r, 8,
         f"{SERVE_NAME} holds a bool at members.0.lag, not an integer"),
        ("predict", SERVE_NAME, lambda r: r["members"][1].update(input_names=5) or r, 8,
         f"{SERVE_NAME} holds a int at members.1.input_names, "
         "not a JSON array, each item a string"),
        ("predict", SERVE_NAME, lambda r: r["members"][0].update(input_names=["a", 5]) or r, 8,
         f"{SERVE_NAME} holds a list at members.0.input_names, not a JSON array"),
        ("predict", SERVE_NAME, lambda r: r["members"][0].update(output_recipe="normalised") or r,
         8, f"{SERVE_NAME} holds 'normalised' at members.0.output_recipe, not "
         '"raw" or "normalized"'),
        ("predict", SERVE_NAME, lambda r: r["members"][0].update(name=None) or r, 8,
         f"{SERVE_NAME} holds a NoneType at members.0.name, not a string"),
        ("predict", SERVE_NAME, lambda r: r["master"].update(model_path=5) or r, 8,
         f"{SERVE_NAME} holds a int at master.model_path, not a string"),
        ("predict", MANIFEST_NAME, lambda r: r["master"].update(model_path=5) or r, 8,
         f"{MANIFEST_NAME} holds a int at master.model_path, not a string"),
        ("predict", MANIFEST_NAME, lambda r: r["candidates"][2].update(lag="x") or r, 8,
         f"{MANIFEST_NAME} holds 'x' at candidates.2.lag, not an integer"),
        # what report reads of a manifest
        ("report", MANIFEST_NAME, lambda r: [c.pop("hit_rate") for c in r["candidates"]] and r, 7,
         f"{MANIFEST_NAME} lacks candidates.0.hit_rate, candidates.1.hit_rate"),
        ("report", MANIFEST_NAME, lambda r: [c.pop("test_months") for c in r["candidates"]] and r,
         7, f"{MANIFEST_NAME} lacks candidates.0.test_months, candidates.1.test_months"),
        ("report", MANIFEST_NAME, lambda r: r.update(members=5) or r, 7,
         f"{MANIFEST_NAME} holds a int at members, not a JSON array, each item a string"),
        ("report", MANIFEST_NAME, lambda r: r.update(frame=[1]) or r, 7,
         f"{MANIFEST_NAME} holds a list at frame, not a JSON object"),
        ("report", MANIFEST_NAME, lambda r: r["master"].update(ism="inf") or r, 7,
         f"{MANIFEST_NAME} holds 'inf' at master.ism, not a number or " '"perfect"'),
        ("report", MANIFEST_NAME, lambda r: r["master"].update(norm_ep="x") or r, 7,
         f"{MANIFEST_NAME} holds 'x' at master.norm_ep, not a number or null"),
        ("report", MANIFEST_NAME, lambda r: r["candidates"].insert(1, 5) or r, 7,
         f"{MANIFEST_NAME} holds a int at candidates.1, not a JSON object"),
        # series that reports pair up month by month: one length, at least one month
        ("report", MANIFEST_NAME, lambda r: first_member(r)["test_months"].clear() or r, 7,
         "holds 0 test_months, 36 predicted_levels, 36 actual_levels at candidates."),
        ("report", MANIFEST_NAME, lambda r: first_member(r)["test_months"].__delitem__(slice(3, None)) or r,
         7,
         "holds 3 test_months, 36 predicted_levels, 36 actual_levels at candidates."),
        ("report", MANIFEST_NAME, lambda r: r["master"]["actual_levels"].pop() and r, 7,
         f"{MANIFEST_NAME} holds 15 test_months, 15 predicted_levels, 14 actual_levels at "
         "master, not one non-empty length"),
        # a manifest-only run with a master but no members
        ("predict", MANIFEST_NAME, lambda r: r.pop("members") and r, 8,
         f"{MANIFEST_NAME} lacks 'members'"),
    ])
    def test_empty_run_record_exit_code(self, small_run, tmp_path, capsys,
                                        command, name, edit, code, problem):
        # a JSON object without the keys a command reads, or with an invalid
        # config: a named failure
        _, _, result = small_run
        run = shutil.copytree(result.run_dir, tmp_path / "run")
        if (command, name) == ("predict", MANIFEST_NAME):
            (run / SERVE_NAME).unlink()
        (run / name).write_text(json.dumps(edit(json.loads((run / name).read_text()))))
        assert cli_main([command, "--run", str(run)]) == code
        if code:
            err = capsys.readouterr().err
            assert f"stage '{command}' failed" in err and problem in err

    @pytest.mark.parametrize("model, text", [
        ("member", "{"),                  # truncated
        ("member", "{}"),                 # not a model document
        ("member", None),                 # a model document without layer_sizes
        ("master", None),                 # no master.json at all
        pytest.param("member", NESTED, id="member-nested"),
        pytest.param("master", NESTED, id="master-nested"),
        pytest.param("member", b"\xff", id="member-non-utf8"),
        pytest.param("master", b"\xff", id="master-non-utf8"),
        # the model's own document re-encoded: json.loads would read it
        pytest.param("member", "utf-16", id="member-utf16"),
        pytest.param("master", "utf-16", id="master-utf16"),
    ])
    def test_unreadable_model_file_exit_code(self, small_run, tmp_path, capsys, model, text):
        _, _, result = small_run
        run = shutil.copytree(result.run_dir, tmp_path / "run")
        entry = json.loads((run / SERVE_NAME).read_text())
        path = run / (entry["members"][0]["model_path"] if model == "member"
                      else entry["master"]["model_path"])
        if (model, text) == ("master", None):
            path.unlink()
        elif text is None:
            document = json.loads(path.read_text())
            del document["layer_sizes"]
            path.write_text(json.dumps(document))
        elif text == "utf-16":
            path.write_bytes(path.read_text().encode("utf-16"))
        else:
            path.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert cli_main(["predict", "--run", str(run)]) == 8
        err = capsys.readouterr().err
        assert "stage 'predict' failed" in err and str(path) in err

    @pytest.mark.parametrize("key", ["input_scaling", "output_scaling"])
    def test_member_model_without_a_scaling_exit_code(self, small_run, tmp_path, capsys, key):
        # every model carries both scalings: a member file with a null one is refused
        _, _, result = small_run
        run = shutil.copytree(result.run_dir, tmp_path / "run")
        path = run / json.loads((run / SERVE_NAME).read_text())["members"][0]["model_path"]
        document = json.loads(path.read_text())
        document[key] = None
        path.write_text(json.dumps(document))
        assert cli_main(["predict", "--run", str(run)]) == 8
        err = capsys.readouterr().err
        assert "stage 'predict' failed" in err and str(path) in err

    @pytest.mark.parametrize("edit", [lambda names: names + names[:1], lambda names: names[:-1],
                                      lambda names: []], ids=["one-more", "one-fewer", "none"])
    def test_member_inputs_other_than_its_models_exit_code(self, small_run, tmp_path, capsys,
                                                           edit):
        # a record whose member lists another number of inputs than its model takes
        _, _, result = small_run
        run = shutil.copytree(result.run_dir, tmp_path / "run")
        record = json.loads((run / SERVE_NAME).read_text())
        member = record["members"][2]
        width = len(member["input_names"])
        member["input_names"] = edit(member["input_names"])
        (run / SERVE_NAME).write_text(json.dumps(record))
        assert cli_main(["predict", "--run", str(run)]) == 8
        err = capsys.readouterr().err
        assert "stage 'predict' failed" in err
        assert (f"member {member['name']} lists {len(member['input_names'])} inputs, "
                f"its model takes {width}") in err

    def test_record_one_member_short_exit_code(self, small_run, tmp_path, capsys):
        # the master stacks one forecast per member it was trained on
        _, _, result = small_run
        run = shutil.copytree(result.run_dir, tmp_path / "run")
        record = json.loads((run / SERVE_NAME).read_text())
        width = len(record["members"])
        del record["members"][1]
        (run / SERVE_NAME).write_text(json.dumps(record))
        assert cli_main(["predict", "--run", str(run)]) == 8
        err = capsys.readouterr().err
        assert "stage 'predict' failed" in err
        assert f"master expects {width} member forecasts, got shape ({width - 1},)" in err

    @pytest.mark.parametrize("extra, named", [
        (["--set", "training.restart=200"], "training.restart"),
        (["--set", "trainig.restarts=2"], "trainig"),
        (["--set", "training=5"], "training"),
        (["--set", "data=5"], "data"),
        (["--set", "training=5", "--set", "training.restarts=2"], "training"),
        (["--set", "var.window.size=5"], "var.window"),
    ])
    def test_unknown_key_or_bad_section_exit_code(self, tmp_path, capsys, extra, named):
        _, config_path = write_demo_workspace(tmp_path, enabled_sets=[7])
        assert cli_main(["validate", "-c", str(config_path), *extra]) == 1
        err = capsys.readouterr().err
        assert "stage 'config' failed" in err and named in err

    @pytest.mark.parametrize("extra", [[], ["--set", "training.restarts=2"]])
    def test_non_object_config_document_exit_code(self, tmp_path, capsys, extra):
        listed = tmp_path / "list.json"
        listed.write_text("[1, 2]")
        assert cli_main(["validate", "-c", str(listed), *extra]) == 1
        assert "config document" in capsys.readouterr().err

    def test_missing_config_file_exit_code(self, tmp_path, capsys):
        (tmp_path / "a-file").write_text("{}")
        for path in (tmp_path / "nope.json", tmp_path / "a-file" / "config.json"):
            assert cli_main(["validate", "-c", str(path)]) == 1
            err = capsys.readouterr().err
            assert "stage 'config' failed" in err and f"config file not found: {path}\n" in err

    @pytest.mark.parametrize("where", ["nope.json", "a-file/config.json"])
    def test_config_file_not_found(self, tmp_path, where):
        (tmp_path / "a-file").write_text("{}")
        path = tmp_path / where
        with pytest.raises(MissingFile, match=re.escape(f"config file not found: {path}")):
            PipelineConfig.from_file(path)

    @pytest.mark.parametrize("command, code", [("predict", 8), ("report", 7)])
    @pytest.mark.parametrize("run_is", ["absent", "a-file"])
    def test_run_path_without_a_run_exit_code(self, tmp_path, capsys, command, code, run_is):
        run = tmp_path / "run"
        if run_is == "a-file":
            run.write_text("{}")
        assert cli_main([command, "--run", str(run)]) == code
        err = capsys.readouterr().err
        assert f"stage '{command}' failed" in err and f"no {MANIFEST_NAME} in {run}\n" in err

    @pytest.mark.parametrize("text", ["{not json", pytest.param(NESTED, id="nested"),
                                      pytest.param(b"\xff", id="non-utf8")])
    def test_malformed_config_json_exit_code(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert cli_main(["validate", "-c", str(bad)]) == 1
        assert "stage 'config' failed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "predict"])
    def test_utf16_config_exit_code(self, small_run, tmp_path, capsys, command):
        # a valid config re-encoded as UTF-16 with its BOM: json.loads would read
        # the bytes, but a config is UTF-8 text
        config_path, _, result = small_run
        bad = tmp_path / "utf16.json"
        bad.write_bytes(config_path.read_text().encode("utf-16"))
        assert bad.read_bytes()[:2] == b"\xff\xfe"
        run = ["--run", str(result.run_dir)] if command == "predict" else []
        assert cli_main([command, "-c", str(bad), *run]) == 1
        err = capsys.readouterr().err
        assert "stage 'config' failed" in err and "not valid JSON" in err

    def test_diverged_training_exits_as_train_stage(self, tmp_path, capsys, monkeypatch):
        from spreadnet import neural

        real = neural._init_weights

        def init(n_inputs, cfg, seed):
            sizes, weights = real(n_inputs, cfg, seed)
            weights[1][0, 0] = np.nan  # every restart's initial loss is NaN
            return sizes, weights

        monkeypatch.setattr(neural, "_init_weights", init)
        _, config_path = write_demo_workspace(tmp_path, restarts=2, enabled_sets=[7])
        assert cli_main(["train", "-c", str(config_path),
                         "--run-dir", str(tmp_path / "run")]) == 4
        assert ("stage 'train' failed: set07_lag01: all 2 restarts diverged"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("extremes", [("1e308", "-1e308"), ("1.7e308", "1.6e308")])
    def test_extreme_column_exits_as_train_stage(self, set7_run, tmp_path, capsys, extremes):
        # a span that overflows (a zero scale), or values whose offset overflows
        config, _ = set7_run

        def extreme_tbill(rows):
            j = rows[0].index("tbill")
            for i, row in enumerate(rows[1:]):
                row[j] = extremes[i % 2]

        path = tmp_path / "extreme.json"
        path.write_text(json.dumps(with_csv_edit(config, tmp_path, extreme_tbill).to_dict()))
        assert cli_main(["train", "-c", str(path), "--run-dir", str(tmp_path / "run")]) == 4
        err = capsys.readouterr().err
        assert "error: stage 'train' failed: set07_lag01: column 'tbill' spans" in err
        assert "min-max scaling is not finite" in err

    def test_extreme_master_column_exits_as_master_stage(self, tmp_path, capsys, monkeypatch):
        real, names = pipeline.build_master_matrix, []

        def extreme(members):  # the first member's forecasts swing across the float range
            matrix = real(members)
            inputs = matrix.inputs.copy()
            inputs[:, 0] = np.where(np.arange(matrix.rows) % 2, 1e308, -1e308)
            names.append(matrix.input_names[0])
            return replace(matrix, inputs=inputs)

        monkeypatch.setattr(pipeline, "build_master_matrix", extreme)
        _, config_path = write_demo_workspace(tmp_path, restarts=1, enabled_sets=[7])
        assert cli_main(["master", "-c", str(config_path),
                         "--run-dir", str(tmp_path / "run")]) == 6
        err = capsys.readouterr().err
        assert f"error: stage 'master' failed: master: column {names[0]!r} spans" in err

    @pytest.mark.parametrize("flag", ["--run-dir", "-o"])
    def test_run_dir_on_a_file_exits_as_config_stage(self, tmp_path, capsys, flag):
        # the directory itself (--run-dir) or its parent (-o) is a file
        csv_path, config_path = write_demo_workspace(tmp_path, restarts=1, enabled_sets=[7])
        assert cli_main(["train", "-c", str(config_path), flag, str(csv_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage 'config' failed:") and str(csv_path) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("fault", FILE_FAULTS)
    def test_file_fault_fails_its_stage(self, set7_run, tmp_path, capsys, fault):
        # a file that cannot be read or written fails the stage that touches it,
        # and leaves no tmp file of an atomic write behind
        command, code, make = FILE_FAULTS[fault]
        config, finished = set7_run
        run = shutil.copytree(finished, tmp_path / "run")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config.to_dict()))
        named = make(run, config_path)
        if command in ("report", "predict"):
            argv = [command, "--run", str(run)]
        else:  # validate writes nothing, so it takes no run directory
            argv = [command, "-c", str(config_path),
                    *(["--run-dir", str(run)] if command != "validate" else [])]
        assert cli_main(argv) == code
        stage = next(name for name, c in EXIT_CODES.items() if c == code)
        err = capsys.readouterr().err
        assert err.startswith(f"error: stage '{stage}' failed:") and str(named) in err
        assert sorted(run.rglob("*.tmp")) == []

    @pytest.fixture(scope="class")
    def record_run(self, set7_run, tmp_path_factory):
        """A copy of the set-7 run whose records a test edits and restores."""
        return shutil.copytree(set7_run[1], tmp_path_factory.mktemp("records") / "run")

    @pytest.mark.parametrize("name, place, part", RECORD_PLACES,
                             ids=[f"{n}:{'.'.join(map(str, p))}" for n, p, _ in RECORD_PLACES])
    @settings(max_examples=4,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_every_place_of_a_run_record_is_checked(self, record_run, capsys, data,
                                                    name, place, part):
        # deleting a key (a partial manifest may lack a top-level part) or writing a
        # value of another JSON kind fails the command, naming the file and the place
        deletable = isinstance(place[-1], str) and (name == SERVE_NAME or len(place) > 1)
        edit = data.draw(st.sampled_from([DELETED] * deletable + [
            value for value in OTHER_KINDS if value.__class__ not in json_classes(part)]))
        path, serve = record_run / name, record_run / SERVE_NAME
        original = path.read_text()
        record = json.loads(original)
        node = functools.reduce(operator.getitem, place[:-1], record)
        if edit == DELETED:
            del node[place[-1]]
        else:
            node[place[-1]] = edit
        path.write_text(json.dumps(record))
        dotted = ".".join(map(str, place))
        try:
            for command, code in ([("predict", 8)] if name == SERVE_NAME
                                  else [("report", 7), ("predict", 8)]):
                if name == MANIFEST_NAME and command == "predict":
                    serve.rename(record_run / "serve.away")  # predict reads the manifest
                assert cli_main([command, "--run", str(record_run)]) == code
                err = capsys.readouterr().err
                assert err.startswith(f"error: stage '{command}' failed: {path} ")
                assert (err.endswith(f" lacks {dotted}\n") if edit == DELETED
                        else f" at {dotted}, not " in err)
        finally:
            path.write_text(original)
            if not serve.exists():
                (record_run / "serve.away").rename(serve)

    def test_faulty_matrix_fails_train_stage(self, small_run):
        _, config, result = small_run
        ok = result.matrices[0]
        constant = replace(result.matrices[1], output=np.full(result.matrices[1].rows, 5.0))
        with pytest.raises(PipelineStageError) as info:
            train_all(config, [ok, constant, ok.slice_rows(0, 10)])
        assert info.value.stage == "train"
        assert isinstance(info.value.cause, ConstantOutput)
        assert str(info.value.cause) == (f"{constant.name}: "
                                         "output column is constant; nothing to fit")

    def test_constant_second_matrix_is_named_by_the_cli(self, tmp_path, capsys, monkeypatch):
        real = pipeline.assemble_base_sets

        def second_constant(*args, **kwargs):
            matrices = real(*args, **kwargs)
            matrices[1] = replace(matrices[1], output=np.full(matrices[1].rows, 5.0))
            return matrices

        monkeypatch.setattr(pipeline, "assemble_base_sets", second_constant)
        _, config_path = write_demo_workspace(tmp_path, restarts=1, enabled_sets=[7])
        assert cli_main(["train", "-c", str(config_path),
                         "--run-dir", str(tmp_path / "run")]) == 4
        assert capsys.readouterr().err == ("error: stage 'train' failed: set07_lag02: "
                                           "output column is constant; nothing to fit\n")


class TestReference:
    def test_operating_point_is_the_defaults(self):
        # the paper's operating point, restated in spreadnet.reference, is what a
        # config gets by default (and at full scale, the paper's restarts)
        var, training = preprocess.VarConfig(), TrainConfig()
        defaults = {
            "VAR_WINDOW": var.window, "VAR_CONFIDENCE": var.confidence,
            "SMOOTHING_BETA": preprocess.SmoothingConfig().beta,
            "TRAIN_CYCLES": training.cycles, "TRAIN_STOP_ERROR": training.stop_error,
            "TRAIN_LEARNING_RATE": training.learning_rate, "TRAIN_RESTARTS": training.restarts,
            "TRAIN_SPLIT": training.split, "TEST_FRACTION_CAP": neural.MAX_TEST_FRACTION,
        }
        assert defaults == {name: getattr(reference, name) for name in defaults}
        assert pipeline.FULL_SCALE_RESTARTS == reference.TRAIN_RESTARTS


class TestImportFloor:
    @pytest.mark.parametrize("module, loads", [
        ("series", ["errors", "series"]),
        ("metrics", ["errors", "metrics"]),
        ("neural", ["errors", "metrics", "neural", "preprocess", "series"]),
    ])
    def test_a_module_loads_only_its_imports(self, module, loads):
        # the package root imports nothing, so a module loads only what it imports
        # (neural, say, none of scoring, ensemble or pipeline); this pytest process
        # has loaded every module, so a fresh interpreter runs the check
        assert fresh_python(f"""
            import sys
            import spreadnet.{module}
            print(sorted(name for name in sys.modules if name.startswith("spreadnet")))
        """) == str(["spreadnet", *(f"spreadnet.{name}" for name in loads)])

    def test_no_scipy_in_a_fresh_process(self, tmp_path):
        # scipy.stats alone costs about 70 MB and 0.9 s of every command's start-up,
        # scipy.special about 24 MB and 0.17 s. This pytest process imports both
        # itself, so a fresh interpreter runs the check.
        assert fresh_python(f"""
            import sys
            import spreadnet, spreadnet.cli
            from spreadnet.demo import write_demo_workspace
            from spreadnet.pipeline import PipelineConfig, predict_from_run, run_pipeline
            _, config_path = write_demo_workspace({str(tmp_path)!r}, restarts=2, enabled_sets=[7])
            run = run_pipeline(PipelineConfig.from_file(config_path),
                               run_dir={str(tmp_path / "run")!r})
            predict_from_run(run.run_dir)
            print(sorted(name for name in sys.modules if name.startswith("scipy")))
        """) == "[]"

    def test_a_forecast_loads_no_pool(self, set7_run):
        # A forecast trains nothing: its process need not load the training pool's
        # modules (multiprocessing with queue, socket, selectors; about 9 ms).
        _, run = set7_run
        assert fresh_python(f"""
            import sys
            from spreadnet import cli
            assert cli.main(["predict", "--run", {str(run)!r}]) == 0
            print(sorted(name for name in sys.modules
                         for pool in ("multiprocessing", "concurrent.futures")
                         if name == pool or name.startswith(pool + ".")))
        """).splitlines()[-1] == "[]"
