"""Top-10 selection across all base sets, and the stacking master network.

Members feed the master only their out-of-sample forecasts, converted to
actual level units, so training-fit optimism never leaks into the stack.
The master matrix pairs same-month member forecasts with the realized
target (lag 0) and is trained with the same regime as the members.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DateMismatch, NoCandidates
from .neural import (
    NetworkModel,
    Search,
    TrainConfig,
    forward,
    multi_matrix_train,
    multi_restart_train,
    split,
)
from .preprocess import MASTER_SET_ID, TrainingMatrix
from .scoring import ModelScore, ism_scorer, score_model


@dataclass(frozen=True)
class Candidate:
    """Best network found for one training matrix: a (base set, lag) member,
    or the master at (MASTER_SET_ID, 0)."""

    base_set_id: int
    lag: int
    seed: int
    model: NetworkModel
    score: ModelScore
    name = TrainingMatrix.name  # the rule reads only base_set_id and lag


def select_best(candidates: list[Candidate], k: int = 10) -> list[Candidate]:
    """Top-k candidates by out-of-sample ISM.

    Ties break toward higher norm_EP, then earlier base set, then shorter
    lag, so the selection is fully deterministic. Returns everything (with
    a warning) when fewer than k candidates exist; k must be at least 1.
    """
    if k < 1:
        raise ValueError(f"top-k selection needs k >= 1, got {k}")
    if not candidates:
        raise NoCandidates("no candidates to select from")
    ranked = sorted(
        candidates,
        key=lambda c: (
            -c.score.ism,
            -(c.score.norm_ep if c.score.norm_ep is not None else -np.inf),
            c.base_set_id,
            c.lag,
        ),
    )
    if len(ranked) < k:
        warnings.warn(
            f"only {len(ranked)} candidates available; requested top {k}",
            stacklevel=2,
        )
        return ranked
    return ranked[:k]


def shared_window(spans: list[tuple[int, int]]) -> tuple[np.ndarray, list[int]]:
    """The months that every member's test window covers.

    ``spans`` holds each member's first and last test month (windows are
    consecutive months). Returns the shared months and, per member, the
    index of the first shared month in its own window. Raises DateMismatch
    when the windows do not intersect.
    """
    start = max(int(first) for first, _ in spans)
    stop = min(int(last) for _, last in spans)
    if start > stop:
        raise DateMismatch("member test windows do not intersect")
    return np.arange(start, stop + 1, dtype=np.int64), [start - int(first) for first, _ in spans]


def build_master_matrix(members: list[Candidate]) -> TrainingMatrix:
    """Stack same-month member forecasts against the realized target.

    Input column j is member j's out-of-sample forecast (level units) for
    the month the row predicts; the output is the realized level for that
    same month, so the matrix carries lag 0.
    """
    if not members:
        raise NoCandidates("no members to stack")
    months, offsets = shared_window([(m.score.months[0], m.score.months[-1]) for m in members])

    cols = []
    actual = None
    for m, lo in zip(members, offsets):
        cols.append(m.score.predicted_levels[lo : lo + len(months)])
        window = m.score.actual_levels[lo : lo + len(months)]
        if actual is None:
            actual = window
        elif not np.array_equal(actual, window):
            raise DateMismatch(
                f"member {m.name} disagrees on realized levels over the shared range"
            )
    return TrainingMatrix(
        base_set_id=MASTER_SET_ID,
        lag=0,
        input_names=tuple(m.name for m in members),
        inputs=np.column_stack(cols),
        output=actual,
        months_out=months,
    )


def fit_candidates(matrices: list[TrainingMatrix], cfgs: list[TrainConfig]) -> list[Candidate]:
    """Per matrix, the best of ``cfg.restarts`` restarts by out-of-sample ISM,
    scored in full. All matrices train together (``multi_matrix_train``)."""
    searches = multi_matrix_train(matrices, cfgs, ism_scorer)
    return [_best_candidate(m, cfg, search) for m, cfg, search in zip(matrices, cfgs, searches)]


def train_master(matrix: TrainingMatrix, cfg: TrainConfig) -> Candidate:
    """Multi-restart training of the stacking network, same regime as members:
    the one-matrix case of ``fit_candidates``, through the per-matrix entry
    point ``multi_restart_train``. Both names stay while the benchmark times
    the master stage by them (``perfbench/spans.py``); once it traces
    ``multi_matrix_train``, the master stage can call ``fit_candidates``."""
    return _best_candidate(matrix, cfg, multi_restart_train(matrix, cfg, ism_scorer))


def _best_candidate(matrix: TrainingMatrix, cfg: TrainConfig, search: Search) -> Candidate:
    _, test_part = split(matrix, cfg)
    return Candidate(matrix.base_set_id, matrix.lag, search.seed, search.model,
                     score_model(search.model, test_part))


@dataclass(frozen=True)
class Forecast:
    """One next-month call: level, direction (+1 rise / -1 fall), vote split."""

    value: float
    direction: int
    up_vote_percent: float


def master_forecast(
    master_model: NetworkModel,
    member_forecasts: np.ndarray,
    last_actual: float,
) -> Forecast:
    """Stack member level forecasts through the master network.

    Direction comes from the master's own output against the last observed
    actual, not from the member votes; the vote split is reported alongside.
    """
    inputs = np.asarray(member_forecasts, dtype=np.float64)
    value = forward(master_model, inputs)  # raises DimensionMismatch on a wrong width
    direction = 1 if value >= last_actual else -1
    up = float(np.mean(inputs >= last_actual) * 100.0)
    return Forecast(value=value, direction=direction, up_vote_percent=up)

