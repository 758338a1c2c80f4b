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
)
from .neural import NetworkModel, predict
from .preprocess import TrainingMatrix


@dataclass
class ModelScore:
    """Everything the selection and reports need about one test run."""

    ism: object                     # float or PERFECT_STRATEGY
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


def _predicted_levels(model: NetworkModel, test_part: TrainingMatrix) -> np.ndarray:
    """Predict the test rows and invert the output normalization."""
    return test_part.denormalize_predictions(predict(model, test_part.inputs))


def score_model(model: NetworkModel, test_part: TrainingMatrix) -> ModelScore:
    """Predict the test rows, invert normalization, and score the levels."""
    levels = _predicted_levels(model, test_part)
    return score_levels(levels, test_part.output_levels, test_part.months_out)


def ism_scorer(model: NetworkModel, test_part: TrainingMatrix):
    """Ranking scorer for multi-restart training: out-of-sample ISM only.

    It runs once per restart, so it skips the EP test and hit rate that
    ``score_model`` adds for the winner.
    """
    report = equity_curves(_predicted_levels(model, test_part), test_part.output_levels)
    return modified_sharpe(report)
