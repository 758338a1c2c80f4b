"""The demo scripts run to the end against the current package.

Demo 01 drives the ``MonthlySeries`` transforms and the VaR grid search;
demo 02 calls ``block_average`` and the block-average column through
``build_derived_columns``; demo 03 assembles base sets and trains one
network and a restart search; demo 04 runs the whole pipeline and then
``predict_from_run``. Each runs in process, in a temporary directory
that also serves as ``tempfile``'s directory, so nothing is left behind.
"""

import runpy
import tempfile
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


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
