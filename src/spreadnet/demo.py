"""Deterministic synthetic data for demos and end-to-end tests.

The generated spread level is a fixed nonlinear function of the global
spread and the T-bill rate three months earlier, times multiplicative
noise, so lag-3 networks have a genuinely learnable target while other
lags see only what autocorrelation leaks through. The indicator series
is an independent positive random walk with occasional sharp falls, which
gives its rolling VaR realistic texture.
"""

from __future__ import annotations

import csv
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from .pipeline import VARIABLES, PipelineConfig
from .series import MonthlySeries, format_month, parse_month

DEFAULT_MONTHS = 190
DEFAULT_SEED = 7
SIGNAL_LAG = 3


def _spread_signal(global_spread: np.ndarray, tbill: np.ndarray) -> np.ndarray:
    """The fixed nonlinear map from month-t inputs to the month-t+3 level."""
    return 1500.0 * np.exp(
        0.8 * np.tanh((global_spread - 600.0) / 180.0) + 0.2 * np.sin(tbill)
    )


def synthetic_series(
    n_months: int = DEFAULT_MONTHS,
    seed: int = DEFAULT_SEED,
    noise: float = 0.05,
    start: str = "1990-01",
) -> dict[str, MonthlySeries]:
    """Generate the four demo variables on one shared month axis."""
    rng = np.random.default_rng(seed)
    months = np.arange(parse_month(start), parse_month(start) + n_months, dtype=np.int64)
    t = np.arange(n_months)

    # Indicator: positive random walk with occasional sharp falls.
    steps = 0.003 + 0.025 * rng.standard_normal(n_months)
    steps -= 0.08 * (rng.random(n_months) < 0.05)
    igaem = 100.0 * np.exp(np.cumsum(steps))

    # Global spread: strong 9-month cycle plus AR(1) noise.
    ar = np.zeros(n_months)
    shocks = 35.0 * rng.standard_normal(n_months)
    for i in range(1, n_months):
        ar[i] = 0.6 * ar[i - 1] + shocks[i]
    global_spread = 600.0 + 220.0 * np.sin(2.0 * np.pi * t / 9.0) + ar

    # Short rate: slow cycle plus a small random walk, kept in a sane band.
    tbill = 3.0 + 1.5 * np.sin(2.0 * np.pi * t / 60.0)
    tbill += np.cumsum(0.08 * rng.standard_normal(n_months))
    tbill = np.clip(tbill, 0.5, 8.0)

    # Target: nonlinear function of the lag-3 inputs, times bounded noise.
    eps = np.clip(rng.standard_normal(n_months), -4.0, 4.0)
    target = np.empty(n_months)
    base = _spread_signal(global_spread, tbill)
    target[SIGNAL_LAG:] = base[:-SIGNAL_LAG] * (1.0 + noise * eps[SIGNAL_LAG:])
    target[:SIGNAL_LAG] = 1500.0 * (1.0 + noise * eps[:SIGNAL_LAG])

    return {
        "igaem": MonthlySeries("igaem", months, igaem),
        "embi_venezuela": MonthlySeries("embi_venezuela", months, target),
        "embi_global": MonthlySeries("embi_global", months, global_spread),
        "tbill": MonthlySeries("tbill", months, tbill),
    }


def write_demo_csv(path: str | Path, **kwargs) -> Path:
    """Write the four demo variables into one CSV with a YYYY-MM date column."""
    path = Path(path)
    data = synthetic_series(**kwargs)
    names = list(data)
    months = data[names[0]].months
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", *names])
        for i, m in enumerate(months):
            writer.writerow([format_month(m), *(repr(float(data[n].values[i])) for n in names)])
    return path


def write_demo_workspace(
    directory: str | Path,
    restarts: int | None = None,
    rng_seed: int = 2024,
    enabled_sets: list[int] | None = None,
    **series_kwargs,
) -> tuple[Path, Path]:
    """Write demo.csv plus a ready-to-run pipeline config; returns both paths.

    ``restarts`` and ``enabled_sets`` left as None keep the PipelineConfig
    defaults.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    csv_path = write_demo_csv(directory / "demo.csv", **series_kwargs)

    config = PipelineConfig(
        variables={name: {"path": str(csv_path), "column": name} for name in VARIABLES},
        output_dir=str(directory / "runs"),
    )
    restarts = config.training.restarts if restarts is None else restarts
    training = replace(config.training, restarts=restarts, rng_seed=rng_seed)
    config = replace(config, training=training, enabled_sets=enabled_sets or config.enabled_sets)
    config_path = directory / "config.json"
    config_path.write_text(json.dumps(config.to_dict(), indent=2), encoding="utf-8")
    return csv_path, config_path
