"""Command-line front end.

Subcommands map onto pipeline stages:

    validate     load and check the configured CSV data
    preprocess   assemble base-set matrices (exported as CSV)
    train        multi-restart training over every matrix
    select       top-k member selection
    master       train the stacking network
    report       emit report files for a finished run
    predict      next-month forecast from a finished run

Each staged command runs the pipeline from scratch up to its stage (runs
are deterministic, so partial runs agree with full ones). ``--set
key.path=value`` overrides any config key. Exit codes are distinct per
failing stage.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import PipelineStageError, SpreadnetError
from .pipeline import (
    MANIFEST_NAME,
    PipelineConfig,
    _member_entries,
    _read_json,
    _score_text,
    _stage,
    emit_reports,
    export_matrices,
    ingest,
    load_run,
    predict_from_run,
    run_pipeline,
)
from .series import format_month

EXIT_CODES = {
    "config": 1,
    "ingest": 2,
    "preprocess": 3,
    "train": 4,
    "select": 5,
    "master": 6,
    "report": 7,
    "predict": 8,
}


def _parse_override(text: str) -> tuple[list[str], object]:
    if "=" not in text:
        raise ValueError(f"override {text!r} must look like key.path=value")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.split("."), value


def _apply_overrides(data: dict, overrides: list[str]) -> dict:
    for text in overrides:
        path, value = _parse_override(text)
        node = data
        for depth, part in enumerate(path):
            if not isinstance(node, dict):
                where = ".".join(path[:depth]) or "document"
                raise ValueError(f"config {where} is not an object")
            if depth < len(path) - 1:
                node = node.setdefault(part, {})
        node[path[-1]] = value
    return data


def _load_config(args) -> PipelineConfig:
    """Read, override and parse the config; any fault in it exits as "config"."""
    try:
        data = _read_json(Path(args.config), ValueError)
        if args.set:
            data = _apply_overrides(data, args.set)
        if args.output_dir:
            data.setdefault("output", {})["directory"] = args.output_dir
        return PipelineConfig.from_dict(data)
    except (OSError, ValueError, TypeError) as exc:
        raise PipelineStageError("config", exc) from exc


def _run_to(args, stage: str):
    config = _load_config(args)
    return run_pipeline(config, through=stage, run_dir=args.run_dir)


def cmd_validate(args) -> int:
    _refuse_unread(args, "validate", "-o", "--run-dir")  # it writes nothing
    config = _load_config(args)
    frame = ingest(config)
    print(f"ok: {len(frame)} aligned months "
          f"{format_month(frame.months[0])}..{format_month(frame.months[-1])}")
    for name in frame.column_names():
        col = frame.columns[name]
        print(f"  {name:16s} min={col.min():.4f} max={col.max():.4f}")
    return 0


def cmd_preprocess(args) -> int:
    result = _run_to(args, "preprocess")
    out = result.run_dir / "matrices"
    with _stage("preprocess"):
        export_matrices(result.matrices, out)
    print(f"assembled {len(result.matrices)} matrices -> {out}")
    print(f"manifest: {result.run_dir / MANIFEST_NAME}")
    return 0


def cmd_train(args) -> int:
    result = _run_to(args, "train")
    print(f"trained {len(result.candidates)} candidates "
          f"({result.config.train_cfg.restarts} restarts each)")
    for entry in sorted(result.manifest["candidates"], key=lambda e: e["name"])[:10]:
        print(f"  {entry['name']}: {_score_text(entry)}")
    print(f"manifest: {result.run_dir / MANIFEST_NAME}")
    return 0


def cmd_select(args) -> int:
    result = _run_to(args, "select")
    print(f"selected {len(result.members)} members:")
    for rank, entry in enumerate(_member_entries(result.manifest), start=1):
        print(f"  {rank:2d}. {entry['name']}  {_score_text(entry)}")
    print(f"manifest: {result.run_dir / MANIFEST_NAME}")
    return 0


def cmd_master(args) -> int:
    result = _run_to(args, "master")
    print(f"master: {_score_text(result.manifest['master'])}")
    print(f"manifest: {result.run_dir / MANIFEST_NAME}")
    return 0


# each flag that a command may leave unread, by its ``args`` attribute
_FLAG_DEST = {"--config": "config", "--set": "set", "-o": "output_dir", "--run-dir": "run_dir"}


def _refuse_unread(args, command: str, *flags: str) -> None:
    """Fail as "config", naming each of ``flags`` given: flags ``command`` would not read."""
    given = [flag for flag in flags if getattr(args, _FLAG_DEST[flag]) not in (None, [])]
    if given:
        raise PipelineStageError("config", ValueError(
            f"{command} does not read {', '.join(given)}"))


def cmd_report(args) -> int:
    if args.run:
        _refuse_unread(args, "report --run", "--config", "--set", "-o", "--run-dir")
        with _stage("report"):
            paths = emit_reports(load_run(args.run), args.run)
    elif args.config:
        result = _run_to(args, "report")
        paths = result.report_paths
    else:
        print("error: report needs --run or --config", file=sys.stderr)
        return EXIT_CODES["config"]
    for path in paths:
        print(path)
    return 0


def cmd_predict(args) -> int:
    _refuse_unread(args, "predict", "-o", "--run-dir")
    if not args.config:
        _refuse_unread(args, "predict without --config", "--set")
    config = _load_config(args) if args.config else None
    with _stage("predict"):
        report = predict_from_run(args.run, config=config)
    arrow = "rise" if report.forecast.direction > 0 else "fall"
    print(f"forecast {report.target_month}: {report.forecast.value:.2f} "
          f"({arrow} vs last actual {report.last_actual:.2f})")
    print(f"member votes up: {report.forecast.up_vote_percent:.0f}%")
    for name, value in report.member_forecasts.items():
        print(f"  {name}: {value:.2f}")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors exit as "config" (1): argparse's own
    code, 2, is the ingest stage's here. ``--help`` still exits 0."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CODES["config"], f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spreadnet",
        description="Country-risk spread forecasting pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, needs_config=True, needs_run=False):
        p = sub.add_parser(name)
        if needs_config:
            p.add_argument("-c", "--config", required=not needs_run,
                           help="pipeline config JSON")
        if needs_run:
            p.add_argument("--run", required=(name == "predict"),
                           help="existing run directory")
        p.add_argument("--set", action="append", default=[],
                       metavar="KEY.PATH=VALUE", help="override a config key")
        p.add_argument("-o", "--output-dir", help="override output.directory")
        p.add_argument("--run-dir", help="exact run directory to use")
        p.set_defaults(handler=fn)
        return p

    add("validate", cmd_validate)
    add("preprocess", cmd_preprocess)
    add("train", cmd_train)
    add("select", cmd_select)
    add("master", cmd_master)
    add("report", cmd_report, needs_run=True)
    add("predict", cmd_predict, needs_run=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except PipelineStageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES.get(exc.stage, 1)
    except SpreadnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
