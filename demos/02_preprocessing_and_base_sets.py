#!/usr/bin/env python3
"""Smoothing flavors, output normalization, and the ten base sets.

Shows every transform the training matrices draw on:

  1. compound moving average (single and double pass) on the VaR band
  2. centered block averages (the "moving average level 1 / level 2" columns)
  3. the normalized-difference output transform and its exact inverse
  4. assembling all ten base sets into lagged 89-row training matrices
"""

import numpy as np

from spreadnet.demo import synthetic_series
from spreadnet.preprocess import (
    BlockAverageConfig,
    SmoothingConfig,
    assemble_base_sets,
    block_average,
    build_derived_columns,
    denormalize_output,
    double_smooth,
    ema_smooth,
    normalize_output,
)
from spreadnet.series import align, format_month

frame = align(list(synthetic_series().values()))
derived = build_derived_columns(frame)
var = derived["var"]

# ---------------------------------------------------------------------------
# 1. Compound moving averages
# ---------------------------------------------------------------------------
single = ema_smooth(var.values, SmoothingConfig(beta=0.1))
double = double_smooth(var.values, SmoothingConfig(beta=0.1))
print("VaR smoothing (beta = 0.1), last four months:")
for i in range(-4, 0):
    print(f"  {format_month(var.months[i])}  raw={var.values[i]:8.2f} "
          f"single={single[i]:8.2f}  double={double[i]:8.2f}")
identity = ema_smooth(var.values, SmoothingConfig(beta=1.0))
print(f"beta = 1 leaves the data untouched: {np.array_equal(identity, var.values)}")

# ---------------------------------------------------------------------------
# 2. Block averages
# ---------------------------------------------------------------------------
cfg = BlockAverageConfig(M=4, n=3)
t = len(var) - 1
print(f"\nblock average (M={cfg.M}, n={cfg.n}) at the last month: "
      f"{block_average(var.values, cfg, t):.2f} "
      f"(mean of the {cfg.M + 1} points centered {cfg.n} months back)")

# ---------------------------------------------------------------------------
# 3. Output normalization and its inverse
# ---------------------------------------------------------------------------
levels = frame["embi_venezuela"].values
mod = normalize_output(levels)
print("\nnormalized-difference output (first three):", np.round(mod[:3], 5))
rebuilt = np.array([denormalize_output(mod[i], levels[i : i + 3]) for i in range(3)])
print("inverse reproduces the levels:", np.allclose(rebuilt, levels[3:6], rtol=1e-12))

# ---------------------------------------------------------------------------
# 4. The ten base sets
# ---------------------------------------------------------------------------
matrices = assemble_base_sets(frame)
print(f"\nassembled {len(matrices)} training matrices across 10 base sets")
print(f"{'set':>4} {'lags':>6} {'rows':>5} {'output':>11}  inputs")
seen = {}
for m in matrices:
    seen.setdefault(m.base_set_id, []).append(m)
for set_id in sorted(seen):
    group = seen[set_id]
    lags = f"{group[0].lag}-{group[-1].lag}" if len(group) > 1 else str(group[0].lag)
    m = group[0]
    print(f"{set_id:>4} {lags:>6} {m.rows:>5} {m.output_recipe:>11}  {', '.join(m.input_names)}")
