"""Out-of-sample scoring of trained networks, in actual level units.

Predictions made in normalized-difference units are inverted against
realized history before any curve or test is computed, so every model is
judged on the same footing: forecast levels versus actual levels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, DegenerateStrategy
from .metrics import (
    EPResult,
    EquityReport,
    directional_accuracy,
    equity_curves,
    excess_predictability,
    modified_sharpe,
    positions_from_forecasts,
)
from .neural import NetworkModel, predict, predict_many
from .preprocess import TrainingMatrix


@dataclass
class ModelScore:
    """Everything the selection and reports need about one test run."""

    ism: float                      # PERFECT_STRATEGY (+inf) without failures
    norm_ep: float | None
    ep: EPResult | None
    report: EquityReport
    months: np.ndarray              # test output months
    predicted_levels: np.ndarray
    actual_levels: np.ndarray
    hit_rate: float


def score_levels(predicted_levels: np.ndarray, actual_levels: np.ndarray,
                 months: np.ndarray) -> ModelScore:
    """Score level forecasts against actual levels over dated months."""
    report = equity_curves(predicted_levels, actual_levels, months=months)
    ism = modified_sharpe(report)
    try:
        ep = excess_predictability(predicted_levels, actual_levels)
        norm_ep = ep.norm_ep
    except (DegenerateStrategy, DegenerateInput):
        ep, norm_ep = None, None
    return ModelScore(
        ism=ism,
        norm_ep=norm_ep,
        ep=ep,
        report=report,
        months=np.asarray(months),
        predicted_levels=np.asarray(predicted_levels, dtype=np.float64),
        actual_levels=np.asarray(actual_levels, dtype=np.float64),
        hit_rate=directional_accuracy(predicted_levels, actual_levels),
    )


def score_model(model: NetworkModel, test_part: TrainingMatrix) -> ModelScore:
    """Predict the test rows, invert normalization, and score the levels."""
    levels = test_part.denormalize_predictions(predict(model, test_part.inputs))
    return score_levels(levels, test_part.output_levels, test_part.months_out)


def ism_scorer(models: list[NetworkModel], test_part: TrainingMatrix) -> list[float]:
    """Ranking scorer for multi-restart training: each model's out-of-sample ISM.

    One call scores the models given, in order: a matrix's restarts in
    one training block, in the worker that trained them. It skips the EP
    test and hit rate that ``score_model`` adds for the winner. The models,
    which share one ``layer_sizes``, are predicted in one stacked pass
    (``predict_many``, bit-identical to ``predict`` on each), the stack of
    predictions is denormalized in one call, and the ISM is computed once
    per distinct long/short position vector: without ``months``,
    ``equity_curves`` reads the predictions only through those positions,
    so restarts that call every month alike share one exact score, in any
    split of the models into calls.
    """
    actual = test_part.output_levels
    levels = test_part.denormalize_predictions(predict_many(models, test_part.inputs))
    by_positions: dict[bytes, float] = {}
    scores = []
    for predicted in levels:
        key = positions_from_forecasts(predicted, actual).tobytes()
        if key not in by_positions:
            by_positions[key] = modified_sharpe(equity_curves(predicted, actual))
        scores.append(by_positions[key])
    return scores
