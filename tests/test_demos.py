"""The demo scripts and the README's library example run against the current package.

Demo 01 drives the ``MonthlySeries`` transforms and the VaR grid search;
demo 02 calls ``block_average`` and the block-average column through
``build_derived_columns``; demo 03 assembles base sets and trains one
network and a restart search; demo 04 runs the whole pipeline and then
``predict_from_run``. Each runs in process, in a temporary directory
that also serves as ``tempfile``'s directory, so nothing is left behind.
The README's "Quick start (library)" block runs as written.
"""

import runpy
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


def readme_quick_start() -> str:
    """The Python code block under README's "Quick start (library)" heading."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Quick start (library)\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


@pytest.mark.parametrize("script", [
    "01_var_backtest.py",
    "02_preprocessing_and_base_sets.py",
    "03_network_training.py",
    "04_full_pipeline.py",
])
def test_demo_runs(script, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(DEMOS / script), run_name="__main__")


def test_readme_quick_start_runs(capsys):
    exec(compile(readme_quick_start(), "README.md", "exec"), {"__name__": "__main__"})
    float(capsys.readouterr().out)  # it prints the winner's out-of-sample ISM
