"""End-to-end pipeline runs, manifest semantics, reports, CLI subcommands."""

import copy
import csv
import json
import re
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreadnet import preprocess
from spreadnet.cli import main as cli_main
from spreadnet.demo import write_demo_csv, write_demo_workspace
from spreadnet.errors import (
    ConstantOutput,
    IncompleteManifest,
    NonPositiveValue,
    PipelineStageError,
    SpreadnetError,
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


def with_csv_edit(config, directory, edit):
    """``config`` reading a copy of its CSV that ``edit(rows)`` changed in place."""
    source = Path(config.variables["igaem"]["path"])
    rows = list(csv.reader(source.open(newline="", encoding="utf-8")))
    edit(rows)
    target = Path(directory) / "edited.csv"
    with target.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    data = config.to_dict()
    for entry in data["data"]["variables"].values():
        entry["path"] = str(target)
    return PipelineConfig.from_dict(data)


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

    @settings(max_examples=150, deadline=None)
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

    @settings(max_examples=400, deadline=None)
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

    @pytest.mark.parametrize("raw", [b"{not json", b'{"data": "\xff"}'])  # the second is not UTF-8
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
        rows = list(csv.DictReader(
            (result.run_dir / "reports" / "divergence.csv").open()
        ))
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
        rows = list(csv.DictReader(
            (result.run_dir / "reports" / "curves_master.csv").open()
        ))
        report = equity_curves(
            np.asarray(entry["predicted_levels"]), np.asarray(entry["actual_levels"])
        )
        assert np.allclose([float(r["eq"]) for r in rows], report.eq, atol=1e-12)
        assert np.allclose([float(r["pe"]) for r in rows], report.pe, atol=1e-12)

    def test_lag_summary_covers_swept_sets_disjointly(self, small_run):
        _, _, result = small_run
        manifest = load_run(result.run_dir)
        rows = list(csv.DictReader(
            (result.run_dir / "reports" / "lag_summary.csv").open()
        ))
        total = sum(int(r["models"]) for r in rows)
        swept = [c for c in manifest["candidates"] if c["lag_swept"]]
        assert total == len(swept) == 30
        assert [int(r["lag"]) for r in rows] == sorted({c["lag"] for c in swept})

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
        a, b, c = frame.columns[OUTPUT_VARIABLE][-3:]
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
        from spreadnet.errors import StaleModel

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
        first = next(c for c in manifest["candidates"] if c["name"] == manifest["members"][0])
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

    def test_predict_cli(self, small_run, capsys):
        _, _, result = small_run
        assert cli_main(["predict", "--run", str(result.run_dir)]) == 0
        out = capsys.readouterr().out
        assert "forecast 2005-11" in out
        assert "member votes up" in out

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

    @pytest.mark.parametrize("text, problem", [("{", "not valid JSON"),
                                               ("[1, 2]", "not a JSON object")])
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
        (run / name).write_text(text)
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
        ("predict", SERVE_NAME, lambda r: r["config"]["training"].update(restarts=0) or r, 8,
         f"{SERVE_NAME} holds an invalid config: config training.restarts"),
        ("report", MANIFEST_NAME, lambda r: r.pop("config") and r, 7,
         f"{MANIFEST_NAME} lacks config"),
        ("predict", MANIFEST_NAME, lambda r: r.pop("config") and r, 8,
         f"{MANIFEST_NAME} lacks 'config'"),
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
    ])
    def test_unreadable_model_file_exit_code(self, small_run, tmp_path, capsys, model, text):
        _, _, result = small_run
        run = shutil.copytree(result.run_dir, tmp_path / "run")
        entry = json.loads((run / SERVE_NAME).read_text())
        path = run / (entry["members"][0]["model_path"] if model == "member"
                      else entry["master"]["model_path"])
        if model == "master":
            path.unlink()
        elif text is None:
            document = json.loads(path.read_text())
            del document["layer_sizes"]
            path.write_text(json.dumps(document))
        else:
            path.write_text(text)
        assert cli_main(["predict", "--run", str(run)]) == 8
        err = capsys.readouterr().err
        assert "stage 'predict' failed" in err and str(path) in err

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
        assert cli_main(["validate", "-c", str(tmp_path / "nope.json")]) == 1
        assert "stage 'config' failed" in capsys.readouterr().err

    def test_malformed_config_json_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli_main(["validate", "-c", str(bad)]) == 1
        assert "stage 'config' failed" in capsys.readouterr().err

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
        assert "stage 'train' failed: all 2 restarts diverged" in capsys.readouterr().err

    def test_faulty_matrix_fails_train_stage(self, small_run):
        _, config, result = small_run
        ok = result.matrices[0]
        constant = replace(result.matrices[1], output=np.full(result.matrices[1].rows, 5.0))
        with pytest.raises(PipelineStageError) as info:
            train_all(config, [ok, constant, ok.slice_rows(0, 10)])
        assert info.value.stage == "train"
        assert isinstance(info.value.cause, ConstantOutput)
