"""The batched ranking scorer equals scoring each model on its own."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import unit_scaling
from spreadnet.errors import SpreadnetError
from spreadnet.metrics import PERFECT_STRATEGY, equity_curves, modified_sharpe
from spreadnet.neural import AffineMap, NetworkModel, predict
from spreadnet.preprocess import NORMALIZED_OUTPUT, RAW_OUTPUT, TrainingMatrix, denormalize_output
from spreadnet.scoring import ism_scorer

PRIOR = {RAW_OUTPUT: 0, NORMALIZED_OUTPUT: 3}


def random_model(rng, n_inputs, hidden, scaled):
    sizes = (n_inputs, hidden, 1)
    weights = [rng.uniform(-1.0, 1.0, size=(sizes[l + 1], sizes[l] + 1)) for l in range(2)]
    out_map = AffineMap(np.array([rng.uniform(0.5, 4.0)]), np.array([rng.uniform(-1, 1)]))
    return NetworkModel(sizes, tuple(weights), unit_scaling(n_inputs),
                        out_map if scaled else unit_scaling(1))


def constant_model(n_inputs, hidden, value):
    """Predicts ``value`` on every row: its positions hold whatever its value's size."""
    return NetworkModel((n_inputs, hidden, 1), (np.zeros((hidden, n_inputs + 1)),
                                                np.array([[0.0] * hidden + [value]])),
                        unit_scaling(n_inputs), unit_scaling(1))


def perfect_levels(recipe, predicted, first):
    """Levels against which ``predicted`` (recipe units) calls every move right.

    Each level goes up when the forecast of its month, denormalized on the
    levels before it, is at or above the previous level, and down otherwise.
    """
    levels = list(first)
    for t, p in enumerate(predicted):
        if t == 0 and recipe == RAW_OUTPUT:
            continue  # the first row has no previous level to call against
        level = p if recipe == RAW_OUTPUT else denormalize_output(p, np.array(levels[t:t + 3]))
        levels.append(levels[-1] * (1.05 if level >= levels[-1] else 0.95))
    return np.array(levels)


def one_by_one(models, test_part):
    """Each model's ISM scored alone, or the type of the error the first raises."""
    try:
        return [modified_sharpe(equity_curves(
            test_part.denormalize_predictions(predict(model, test_part.inputs)),
            test_part.output_levels)) for model in models]
    except SpreadnetError as exc:
        return type(exc)


model_specs = st.lists(st.one_of(
    st.tuples(st.just("random"), st.integers(0, 2**16), st.booleans()),
    st.tuples(st.just("constant"), st.sampled_from([-1e3, -7.0, 5.0, 1e3, 2e3])),
    st.tuples(st.just("repeat"), st.integers(0, 20)),
    st.tuples(st.just("perfect")),
), min_size=1, max_size=12)


@settings(max_examples=80, deadline=None)
@example(seed=1, recipe=NORMALIZED_OUTPUT, n_inputs=4, hidden=None, rows=21,  # the demo's shape
         specs=[("random", 3, False), ("perfect",), ("constant", 1e3), ("repeat", 0),
                ("constant", 2e3), ("random", 4, False), ("perfect",)])
@example(seed=2, recipe=RAW_OUTPUT, n_inputs=1, hidden=2, rows=12,
         specs=[("constant", -1e3), ("random", 5, True), ("constant", -7.0), ("perfect",)])
@example(seed=3, recipe=NORMALIZED_OUTPUT, n_inputs=4, hidden=None, rows=36,  # a set-10 block
         specs=[("random", k, k % 2 == 0) for k in range(20)])
@given(
    seed=st.integers(0, 2**16),
    recipe=st.sampled_from([RAW_OUTPUT, NORMALIZED_OUTPUT]),
    n_inputs=st.integers(1, 4),
    hidden=st.one_of(st.none(), st.integers(1, 6)),
    rows=st.integers(2, 30),
    specs=model_specs,
)
def test_batched_equals_one_by_one(seed, recipe, n_inputs, hidden, rows, specs):
    rng = np.random.default_rng(seed)
    hidden = n_inputs if hidden is None else hidden
    inputs = rng.uniform(-1.0, 3.0, size=(rows, n_inputs))
    perfect = random_model(rng, n_inputs, hidden, scaled=recipe == RAW_OUTPUT)
    models = []
    for spec in specs:
        if spec[0] == "random":
            models.append(random_model(np.random.default_rng(spec[1]), n_inputs, hidden, spec[2]))
        elif spec[0] == "constant":
            models.append(constant_model(n_inputs, hidden, spec[1]))
        elif spec[0] == "repeat" and models:
            models.append(models[spec[1] % len(models)])
        else:
            models.append(perfect)
    levels = rng.uniform(0.5, 2.0, size=PRIOR[recipe] + rows)
    if any(model is perfect for model in models):
        levels = perfect_levels(recipe, predict(perfect, inputs), levels[:max(PRIOR[recipe], 1)])
    test_part = TrainingMatrix(
        base_set_id=1, lag=1, input_names=tuple(f"x{i}" for i in range(n_inputs)),
        inputs=inputs, output=levels[PRIOR[recipe]:], months_out=np.arange(rows),
        output_recipe=recipe, levels=levels)

    want = one_by_one(models, test_part)
    if not isinstance(want, list):
        with pytest.raises(want):
            ism_scorer(models, test_part)
        return
    scores = ism_scorer(models, test_part)
    assert np.array(scores).tobytes() == np.array(want).tobytes()  # bit for bit
    for model, score in zip(models, scores):
        if model is perfect:
            assert score is PERFECT_STRATEGY


def test_positions_one_call_apart():
    # model k calls month k short and every other month long: each position vector
    # differs from the all-long one in one place, the first and the last included
    rows = 6
    levels = np.random.default_rng(3).uniform(0.5, 2.0, size=rows)
    test_part = TrainingMatrix(base_set_id=1, lag=1, input_names=tuple(f"x{i}" for i in range(rows)),
                               inputs=np.eye(rows), output=levels, months_out=np.arange(rows))
    models = [constant_model(rows, 1, 1e3)]
    for k in range(1, rows):
        hidden = np.zeros((1, rows + 1))
        hidden[0, k] = 1.0
        models.append(NetworkModel((rows, 1, 1), (hidden, np.array([[-1e4, 1e3]])),
                                   unit_scaling(rows), unit_scaling(1)))
    models.append(models[0])
    scores = ism_scorer(models, test_part)
    assert len(set(scores[:-1])) == rows
    assert scores == one_by_one(models, test_part)

