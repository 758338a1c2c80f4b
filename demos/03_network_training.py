#!/usr/bin/env python3
"""One network end to end: split, train, verify gradients, rank restarts.

  1. chronological 60/40 split of a base-set matrix
  2. gradient training with the monotone step rule, loss trace shown
  3. independent gradient verification by central finite differences
  4. a 25-restart search ranked by out-of-sample modified Sharpe
"""

import numpy as np

from spreadnet.demo import synthetic_series
from spreadnet.neural import TrainConfig, gradient_check, multi_restart_train, split, train
from spreadnet.preprocess import assemble_base_sets
from spreadnet.scoring import ism_scorer, score_model
from spreadnet.series import align, format_month

frame = align(list(synthetic_series().values()))
matrix = next(m for m in assemble_base_sets(frame) if m.base_set_id == 7 and m.lag == 3)
print(f"matrix: base set {matrix.base_set_id}, lag {matrix.lag}, "
      f"{matrix.rows} rows, inputs {matrix.input_names}")

# ---------------------------------------------------------------------------
# 1. Chronological split
# ---------------------------------------------------------------------------
cfg = TrainConfig(restarts=25, rng_seed=2024)
train_part, test_part = split(matrix, cfg)
print(f"split: {train_part.rows} train rows "
      f"(..{format_month(train_part.months_out[-1])}), "
      f"{test_part.rows} test rows "
      f"({format_month(test_part.months_out[0])}..)")

# ---------------------------------------------------------------------------
# 2. Single training run
# ---------------------------------------------------------------------------
history = []
model = train(train_part, cfg, seed=1, history=history)
print(f"\ntrained {len(history)} epochs; loss {history[0]:.5f} -> {history[-1]:.5f} "
      f"(non-increasing: {all(b <= a for a, b in zip(history, history[1:]))})")

# ---------------------------------------------------------------------------
# 3. Gradient verification
# ---------------------------------------------------------------------------
sample = (train_part.inputs[0], float(train_part.output[0]))
gap = gradient_check(model, sample, epsilon=1e-5)
print(f"max relative gap, analytic vs finite-difference gradients: {gap:.2e}")

# ---------------------------------------------------------------------------
# 4. Multi-restart search
# ---------------------------------------------------------------------------
results = multi_restart_train(matrix, cfg, ism_scorer)
keys = [r.score for r in results]
print(f"\n{cfg.restarts} restarts ranked by out-of-sample ISM:")
print(f"  best {keys[0]:.3f} | median {np.median(keys):.3f} | worst {keys[-1]:.3f}")

best = score_model(results[0].model, test_part)
print(f"\nbest restart on the test window: ISM={best.ism!r}, "
      f"normEP={'-' if best.norm_ep is None else f'{best.norm_ep:.2f}%'}, "
      f"hit rate {best.hit_rate:.2f}")
print("equity vs perfect equity, last four test months:")
for m, eq, pe in list(zip(best.months[1:], best.report.eq, best.report.pe))[-4:]:
    print(f"  {format_month(m)}  eq={eq:8.2f}  pe={pe:8.2f}")
