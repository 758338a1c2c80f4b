"""End-to-end pipeline runs, manifest semantics, reports, CLI subcommands."""

import csv
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from spreadnet.cli import main as cli_main
from spreadnet.demo import write_demo_csv, write_demo_workspace
from spreadnet.errors import ConstantOutput, PipelineStageError, SpreadnetError
from spreadnet.metrics import equity_curves
from spreadnet.neural import load_model, predict
from spreadnet.pipeline import (
    MANIFEST_NAME,
    PipelineConfig,
    config_hash,
    derive_matrix_seed,
    emit_reports,
    ingest,
    load_run,
    predict_from_run,
    run_pipeline,
    train_all,
)
from spreadnet.preprocess import MASTER_SET_ID, OUTPUT_VARIABLE, build_derived_columns
from spreadnet.series import format_month, parse_month


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
    ])
    def test_strict_keys_and_sections(self, small_run, edit, named):
        config_path, _, _ = small_run
        data = json.loads(Path(config_path).read_text())
        edit(data)
        with pytest.raises(ValueError, match=re.escape(named)):
            PipelineConfig.from_dict(data)


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
    ])
    def test_bad_config_value_exit_code(self, tmp_path, capsys, extra):
        _, config_path = write_demo_workspace(tmp_path, enabled_sets=[7])
        assert cli_main(["validate", "-c", str(config_path), *extra]) == 1
        assert "stage 'config' failed" in capsys.readouterr().err

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
