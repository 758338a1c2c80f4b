"""Forward pass, training behaviour, restarts, gradients, serialization."""

import json
import multiprocessing
import re
import sys
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import make_matrix, unit_scaling
from spreadnet.errors import (
    AllDiverged,
    ConstantOutput,
    CorruptModel,
    DegenerateInput,
    DimensionMismatch,
    DivergedTraining,
    TooFewRows,
)
from spreadnet import neural
from spreadnet.metrics import PERFECT_STRATEGY
from spreadnet.neural import (
    AffineMap,
    NetworkModel,
    TrainConfig,
    gradient_check,
    load_model,
    model_from_dict,
    model_to_dict,
    multi_restart_train,
    predict,
    predict_many,
    restart_seeds,
    save_model,
    split,
    train,
)


def small_model(seed=0, n_in=3, hidden=3, scalings=False):
    rng = np.random.default_rng(seed)
    weights = (
        rng.uniform(-0.5, 0.5, size=(hidden, n_in + 1)),
        rng.uniform(-0.5, 0.5, size=(1, hidden + 1)),
    )
    in_map, out_map = unit_scaling(n_in), unit_scaling(1)
    if scalings:
        in_map = AffineMap(rng.uniform(0.5, 2.0, size=n_in), rng.uniform(-1, 1, size=n_in))
        out_map = AffineMap(np.array([0.02]), np.array([-1.0]))
    return NetworkModel(
        layer_sizes=(n_in, hidden, 1),
        weights=weights,
        input_scaling=in_map,
        output_scaling=out_map,
    )


class TestAffineMap:
    def test_minmax_to_unit_interval(self):
        cols = np.array([[0.0, 10.0], [5.0, 20.0], [10.0, 30.0]])
        m = AffineMap.fit_minmax(cols)
        scaled = m.apply(cols)
        assert scaled.min() == -1.0 and scaled.max() == 1.0
        assert np.allclose(m.invert(scaled), cols, atol=1e-12)

    def test_constant_column_maps_to_zero(self):
        m = AffineMap.fit_minmax(np.array([[5.0], [5.0], [5.0]]))
        assert np.allclose(m.apply(np.array([5.0])), 0.0)
        assert np.allclose(m.invert(np.array([0.0])), 5.0)

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            AffineMap(np.array([0.0]), np.array([1.0]))

    @pytest.mark.parametrize("extremes", [(1e308, -1e308), (1.7e308, 1.6e308), (1e-310, 2e-310)])
    def test_non_finite_scaling_names_the_column(self, extremes):
        # a span that overflows (zero scale), an offset that overflows, a scale that overflows
        cols = np.array([[0.0, extremes[0]], [1.0, extremes[1]], [2.0, extremes[0]]])
        with pytest.raises(DegenerateInput, match="column 'b' spans .* not finite"):
            AffineMap.fit_minmax(cols, ("a", "b"))
        with pytest.raises(DegenerateInput, match="column 1 spans"):
            AffineMap.fit_minmax(cols)


class TestForward:
    def test_zero_weights_tanh_identity(self):
        model = NetworkModel(
            layer_sizes=(2, 3, 1),
            weights=(np.zeros((3, 3)), np.zeros((1, 4))),
            input_scaling=unit_scaling(2),
            output_scaling=AffineMap(np.array([0.5]), np.array([1.0])),
        )
        # network emits 0 in scaled space; inverted: (0 - 1) / 0.5 = -2
        assert predict(model, np.array([3.0, -4.0]))[0] == -2.0

    def test_single_linear_layer_dot_product(self):
        model = NetworkModel(
            layer_sizes=(2, 1),
            weights=(np.array([[2.0, 3.0, 0.0]]),),
            input_scaling=unit_scaling(2),
            output_scaling=unit_scaling(1),
        )
        assert predict(model, np.array([1.0, 1.0]))[0] == 5.0

    def test_matches_hand_rolled_oracle(self):
        model = small_model(seed=1, scalings=True)
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.uniform(-2, 2, size=3)
            z = x * model.input_scaling.scale + model.input_scaling.offset
            h = np.tanh(model.weights[0] @ np.append(z, 1.0))
            out = float((model.weights[1] @ np.append(h, 1.0))[0])
            out = (out - model.output_scaling.offset[0]) / model.output_scaling.scale[0]
            assert predict(model, x)[0] == pytest.approx(out, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            predict(small_model(), np.ones(4))

    def test_predict_batches(self):
        model = small_model(seed=3)
        xs = np.random.default_rng(4).uniform(-1, 1, size=(7, 3))
        batch = predict(model, xs)
        assert batch.shape == (7,)
        for i in range(7):
            assert batch[i] == pytest.approx(predict(model, xs[i])[0], abs=1e-12)



def reference_predict(model, inputs):
    """One model's forward pass written out step by step, as ``predict`` ran before
    models were stacked: the bits ``predict`` and ``predict_many`` must keep."""
    h = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    h = h * model.input_scaling.scale + model.input_scaling.offset
    for l, w in enumerate(model.weights):
        h = np.concatenate([h, np.ones((len(h), 1))], axis=1) @ w.T
        if l < len(model.weights) - 1:
            h = np.tanh(h)
    return (h[:, 0] - model.output_scaling.offset) / model.output_scaling.scale


class TestPredictMany:
    """One stacked pass over models of one shape gives each model's ``predict`` bits."""

    @settings(max_examples=150)
    @given(count=st.integers(1, 20), n_in=st.integers(1, 11), hidden=st.integers(1, 12),
           rows=st.integers(1, 53), shared=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_equals_predict_per_model(self, count, n_in, hidden, rows, shared, seed):
        rng = np.random.default_rng(seed)

        def draw(shape):
            """Values over six decades, about one in six a signed zero."""
            x = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 3, size=shape)
            zeros = rng.random(shape) < 0.15
            x[zeros] = rng.choice([-0.0, 0.0], size=int(zeros.sum()))
            return x

        def scaling(width):
            return AffineMap(rng.uniform(0.05, 8.0, width) * rng.choice([-1.0, 1.0], width),
                             draw(width))

        sizes = (n_in, hidden, 1)
        shapes = [(o, i + 1) for i, o in zip(sizes[:-1], sizes[1:])]
        models = [NetworkModel(sizes, tuple(map(draw, shapes)), scaling(n_in), scaling(1))
                  for _ in range(count)]
        x = draw((rows, n_in) if shared else (count, rows, n_in))
        got = predict_many(models, x)
        assert got.shape == (count, rows)
        for b, model in enumerate(models):
            want = reference_predict(model, x if shared else x[b])
            assert got[b].tobytes() == want.tobytes()
            assert predict(model, x if shared else x[b]).tobytes() == want.tobytes()

    def test_deeper_models_per_model(self):
        rng = np.random.default_rng(8)
        sizes = (4, 3, 5, 1)
        models = [NetworkModel(sizes, tuple(rng.normal(size=(o, i + 1))
                                            for i, o in zip(sizes[:-1], sizes[1:])),
                               AffineMap(rng.uniform(0.5, 2, 4), rng.normal(size=4)),
                               AffineMap(np.array([0.3]), np.array([-0.2])))
                  for _ in range(6)]
        x = rng.normal(size=(6, 9, 4))
        got = predict_many(models, x)
        for b, model in enumerate(models):
            assert got[b].tobytes() == reference_predict(model, x[b]).tobytes()

    def test_mixed_layer_sizes_raise(self):
        with pytest.raises(DimensionMismatch, match="layer sizes"):
            predict_many([small_model(n_in=3), small_model(n_in=2)], np.ones((4, 3)))
        with pytest.raises(DimensionMismatch, match="layer sizes"):
            predict_many([small_model(hidden=3), small_model(hidden=4)], np.ones((4, 3)))

    @pytest.mark.parametrize("shape", [(4, 2), (4, 4), (2, 4, 2), (3, 4, 3), (3,), (1, 2, 4, 3)])
    def test_wrong_input_shape_raises(self, shape):
        with pytest.raises(DimensionMismatch, match="inputs have shape"):
            predict_many([small_model(), small_model(seed=1)], np.ones(shape))

    def test_no_models_raises(self):
        with pytest.raises(ValueError, match="at least one model"):
            predict_many([], np.ones((2, 3)))

    def test_scaling_width_must_match_the_layers(self):
        with pytest.raises(ValueError, match="input scaling"):
            NetworkModel((3, 1), (np.zeros((1, 4)),), unit_scaling(1), unit_scaling(1))
        with pytest.raises(ValueError, match="output scaling"):
            NetworkModel((3, 1), (np.zeros((1, 4)),), unit_scaling(3), unit_scaling(2))


class TestSplit:
    def test_89_rows_60_split(self):
        matrix = make_matrix(n_rows=89)
        train_part, test_part = split(matrix, TrainConfig(restarts=1))
        assert train_part.rows == 53
        assert test_part.rows == 36
        assert train_part.months_out[-1] + 1 == test_part.months_out[0]

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            split(make_matrix(n_rows=10), TrainConfig(restarts=1))

    def test_invalid_split_rejected_by_config(self):
        with pytest.raises(ValueError):
            TrainConfig(split=0.50)

    def test_test_share_capped_at_45_percent(self):
        for n in range(20, 90):
            matrix = make_matrix(n_rows=n)
            _, test_part = split(matrix, TrainConfig(restarts=1, split=0.55))
            assert test_part.rows / n <= 0.45 + 1e-12

    def test_chronological_no_shuffle(self):
        matrix = make_matrix(n_rows=30)
        train_part, test_part = split(matrix, TrainConfig(restarts=1))
        assert np.array_equal(
            np.concatenate([train_part.output, test_part.output]), matrix.output
        )


class TestTrain:
    def test_learns_linear_target(self):
        matrix = make_matrix(n_rows=60, seed=5)
        cfg = TrainConfig(restarts=1, rng_seed=9)
        model = train(matrix, cfg)
        mae = np.mean(np.abs(predict(model, matrix.inputs) - matrix.output))
        y_range = matrix.output.max() - matrix.output.min()
        assert mae / y_range < 0.10

    def test_constant_output(self):
        matrix = make_matrix(n_rows=30, target=lambda x: np.full(len(x), 2.0))
        with pytest.raises(ConstantOutput):
            train(matrix, TrainConfig(restarts=1))

    def test_same_seed_bit_identical(self):
        matrix = make_matrix(n_rows=40, seed=6)
        cfg = TrainConfig(restarts=1, rng_seed=77)
        a = train(matrix, cfg)
        b = train(matrix, cfg)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_loss_history_non_increasing(self):
        matrix = make_matrix(n_rows=50, seed=7, noise=0.3)
        history: list = []
        train(matrix, TrainConfig(restarts=1, rng_seed=1, stop_error=0.001), history=history)
        assert len(history) >= 1
        assert all(b <= a + 1e-15 for a, b in zip(history, history[1:]))

    def test_early_stop_after_single_epoch(self):
        # generous stop criterion: the first epoch already clears it
        matrix = make_matrix(n_rows=40, seed=8)
        history: list = []
        train(matrix, TrainConfig(restarts=1, rng_seed=2, stop_error=0.99), history=history)
        assert len(history) == 1

    def test_config_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)


def table_scorer(table):
    """A scorer that is a pure function of each model: the entry of ``table``
    a checksum of the model's weights picks."""
    def scorer(models, test_part):
        return [table[zlib.crc32(b"".join(w.tobytes() for w in m.weights)) % len(table)]
                for m in models]
    return scorer


# drawn scores: repeats, signed zeros and +inf included
SCORES = st.one_of(st.just(PERFECT_STRATEGY), st.sampled_from([0.0, -0.0, 1.5]),
                   st.floats(allow_nan=False))


def same_bits(got, want):
    return np.array(got, dtype=np.float64).tobytes() == np.array(want, dtype=np.float64).tobytes()


def best_seed(seeds, scores):
    """The ranking rule's winner: the highest score, then the lowest seed."""
    return min(zip(seeds, scores), key=lambda pair: (-pair[1], pair[0]))[0]


def record_block_weights(monkeypatch):
    """Make ``_train_blocks`` also hand back every restart's weights, as they
    left the process that trained them. Returns the list it fills with one
    (batch, regime, seed, weights) entry per restart, in block order."""
    real, trained = neural._train_blocks, []

    def recording(batches, cfgs, seeds, workers, finish):
        outcomes = real(batches, cfgs, seeds, workers,
                        lambda b, finals: (finals, finish(b, finals)))
        for preps, cfg, block_seeds, (finals, _) in zip(batches, cfgs, seeds, outcomes):
            trained.extend((prep, cfg, int(seed), weights)
                           for prep, seed, weights in zip(preps, block_seeds, finals))
        return [outcome for _, outcome in outcomes]

    monkeypatch.setattr(neural, "_train_blocks", recording)
    return trained


class TestMultiRestart:
    def test_single_restart_singleton(self):
        matrix = make_matrix(n_rows=40, seed=10)
        scorer = lambda models, test_part: [1.0] * len(models)
        search = multi_restart_train(matrix, TrainConfig(restarts=1), scorer)
        assert len(search) == 1
        assert search.seed == search.seeds[0] == restart_seeds(0, 1)[0]
        assert same_bits(search.scores, [1.0])

    @settings(max_examples=30)
    @given(table=st.lists(SCORES, min_size=1, max_size=8), restarts=st.integers(1, 8),
           poison=st.lists(st.integers(0, 7), max_size=3))
    def test_ranks_by_score_then_seed(self, table, restarts, poison):
        # a scorer that hands each model one of the drawn floats; poisoned seeds diverge
        matrix = make_matrix(n_rows=40, seed=14)
        cfg = TrainConfig(restarts=restarts, rng_seed=9, cycles=2)
        scorer = table_scorer(table)
        seeds = [int(s) for s in restart_seeds(cfg.rng_seed, cfg.restarts)]
        poisoned = {seeds[i % restarts] for i in poison}
        with pytest.MonkeyPatch.context() as mp:
            TestMultiRestart.poison_seeds(mp, poisoned)
            trained = record_block_weights(mp)
            got_error, search = first_error_and_rankings(
                lambda: multi_restart_train(matrix, cfg, scorer))
        train_part, test_part = split(matrix, cfg)
        assert sorted(seed for _, _, seed, _ in trained) == sorted(seeds)
        for _, _, seed, weights in trained:  # every restart, as its block returned it
            if seed in poisoned:
                assert weights is None
            else:
                assert_same_weights(weights, train(train_part, cfg, seed=seed).weights)
        survivors = [seed for seed in seeds if seed not in poisoned]
        assert got_error is (None if survivors else AllDiverged)
        if not survivors:
            return
        scores = [scorer([train(train_part, cfg, seed=seed)], test_part)[0] for seed in survivors]
        assert search.seeds.dtype == np.uint32 and search.scores.dtype == np.float64
        assert search.seeds.tolist() == survivors  # generation order, diverged left out
        assert same_bits(search.scores, scores)
        assert type(search.seed) is int and search.seed == best_seed(survivors, scores)
        assert_same_weights(search.model.weights,
                            train(train_part, cfg, seed=search.seed).weights)

    def test_top_beats_median(self):
        matrix = make_matrix(n_rows=60, seed=11, noise=0.5)
        from spreadnet.scoring import ism_scorer

        search = multi_restart_train(matrix, TrainConfig(restarts=20, rng_seed=3), ism_scorer)
        (top,) = search.scores[search.seeds == search.seed]
        assert top == search.scores.max() >= np.median(search.scores)
        assert search.seed == best_seed(search.seeds.tolist(), search.scores.tolist())

    def test_deterministic_ranking(self):
        matrix = make_matrix(n_rows=40, seed=12, noise=0.4)
        from spreadnet.scoring import ism_scorer

        cfg = TrainConfig(restarts=8, rng_seed=5)
        a = multi_restart_train(matrix, cfg, ism_scorer)
        b = multi_restart_train(matrix, cfg, ism_scorer)
        assert a.seed == b.seed
        assert a.seeds.tolist() == b.seeds.tolist()
        assert same_bits(a.scores, b.scores)
        assert_same_weights(a.model.weights, b.model.weights)

    def test_distinct_derived_seeds(self):
        seeds = restart_seeds(123, 50)
        assert len(set(seeds.tolist())) == 50

    @staticmethod
    def poison_seeds(monkeypatch, poisoned):
        """Give the listed seeds a NaN output weight, so their initial loss is NaN."""
        real = neural._init_weights

        def init(n_inputs, cfg, seed):
            sizes, weights = real(n_inputs, cfg, seed)
            if seed in poisoned:
                weights[1][0, 0] = np.nan
            return sizes, weights

        monkeypatch.setattr(neural, "_init_weights", init)

    def test_all_diverged(self, monkeypatch):
        matrix = make_matrix(n_rows=40, seed=13)
        cfg = TrainConfig(restarts=3)
        self.poison_seeds(monkeypatch, {int(s) for s in restart_seeds(cfg.rng_seed, 3)})
        with pytest.raises(AllDiverged):
            multi_restart_train(matrix, cfg, lambda models, test_part: [0.0] * len(models))

    def test_diverged_restarts_dropped_rest_ranked(self, monkeypatch):
        from spreadnet.scoring import ism_scorer

        matrix = make_matrix(n_rows=40, seed=13, noise=0.4)
        cfg = TrainConfig(restarts=9, rng_seed=6, cycles=80)
        trained = record_block_weights(monkeypatch)
        clean = multi_restart_train(matrix, cfg, ism_scorer)
        clean_weights = {seed: weights for _, _, seed, weights in trained}
        trained.clear()
        poisoned = {int(s) for s in restart_seeds(cfg.rng_seed, 9)[::3]}
        self.poison_seeds(monkeypatch, poisoned)
        partial = multi_restart_train(matrix, cfg, ism_scorer)
        partial_weights = {seed: weights for _, _, seed, weights in trained}

        survivors = [seed not in poisoned for seed in clean.seeds.tolist()]
        assert len(clean) == 9 and len(partial) == 6
        assert partial.seeds.tolist() == clean.seeds[survivors].tolist()
        assert same_bits(partial.scores, clean.scores[survivors])
        assert partial_weights.keys() == clean_weights.keys()
        for seed, weights in partial_weights.items():
            if seed in poisoned:
                assert weights is None
            else:
                assert_same_weights(weights, clean_weights[seed])
        assert_same_weights(partial.model.weights, clean_weights[partial.seed])
        assert partial.seed == best_seed(partial.seeds.tolist(), partial.scores.tolist())

    def test_train_raises_on_nonfinite_initial_loss(self, monkeypatch):
        self.poison_seeds(monkeypatch, {4})
        with pytest.raises(DivergedTraining):
            train(make_matrix(n_rows=30), TrainConfig(restarts=1), seed=4)


def oracle_epoch(aug0, y, w1, w2):
    """Reference: one epoch of one network on 2-D arrays in the model's layout;
    returns (loss, [grad1, grad2], MAE), all in scaled space."""
    n = len(y)
    t = np.tanh(aug0 @ w1.T)
    aug1 = np.hstack([t, np.ones((n, 1))])
    err = (aug1 @ w2.T)[:, 0] - y
    delta2 = err[:, None] / n
    delta1 = (delta2 @ w2[:, :-1]) * (1.0 - t * t)
    grads = [delta1.T @ aug0, delta2.T @ aug1]
    return 0.5 * float(np.mean(err * err)), grads, float(np.mean(np.abs(err)))


def oracle_train(prep, cfg: TrainConfig, seed: int):
    """Reference: one restart trained alone, 2-D arrays, one epoch at a time."""
    aug0, y = prep.aug0, prep.y_scaled
    rng = np.random.default_rng(seed)
    n_in = aug0.shape[1] - 1
    hidden = cfg.hidden_size or n_in
    weights = [rng.uniform(-0.5, 0.5, size=(hidden, n_in + 1)),
               rng.uniform(-0.5, 0.5, size=(1, hidden + 1))]
    loss, grads, _ = oracle_epoch(aug0, y, *weights)
    lr, history = cfg.learning_rate, []
    for _ in range(cfg.cycles):
        candidate = [w - lr * g for w, g in zip(weights, grads)]
        c_loss, c_grads, c_mae = oracle_epoch(aug0, y, *candidate)
        if np.isfinite(c_loss) and c_loss <= loss:
            weights, loss, grads, lr = candidate, c_loss, c_grads, cfg.learning_rate
            history.append(loss)
            if c_mae / 2.0 < cfg.stop_error:
                break
        else:
            lr *= 0.5
            history.append(loss)
            if lr < 1e-15:
                break
    return weights, history


def rejections_per_epoch(histories):
    """For each epoch after the first, the set of outcomes of the restarts still training.

    An outcome is True for a rejected step, which repeats the previous loss
    in the history, and False for an accepted one.
    """
    return [{h[e] == h[e - 1] for h in histories if len(h) > e}
            for e in range(1, max(map(len, histories)))]


def assert_same_weights(weights, want_weights):
    """Byte for byte, signed zeros included (``np.array_equal`` takes -0.0 for +0.0)."""
    assert len(weights) == len(want_weights)
    for got, want in zip(weights, want_weights):
        got, want = np.asarray(got), np.asarray(want)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


class TestStackedKernel:
    """Restart s gives the same bits trained alone, in any batch, and by the oracle."""

    @settings(max_examples=40)
    @given(
        data_seed=st.integers(0, 2**16),
        n_rows=st.integers(20, 45),
        n_inputs=st.integers(1, 11),
        hidden=st.one_of(st.none(), st.integers(1, 12)),
        cycles=st.integers(1, 60),
        stop_error=st.sampled_from([0.01, 0.1, 0.3, 0.9]),
        learning_rate=st.sampled_from([0.1, 1.0, 8.0, 40.0]),
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=8),
        cuts=st.lists(st.integers(1, 7), max_size=3),
    )
    def test_alone_batched_and_oracle_agree(self, data_seed, n_rows, n_inputs, hidden,
                                            cycles, stop_error, learning_rate, seeds, cuts):
        matrix = make_matrix(n_rows=n_rows, n_inputs=n_inputs, seed=data_seed, noise=0.5)
        cfg = TrainConfig(cycles=cycles, stop_error=stop_error, learning_rate=learning_rate,
                          restarts=len(seeds), hidden_size=hidden)
        prep = neural._prepare(matrix)
        whole = neural._train_stack([prep] * len(seeds), cfg, seeds)
        bounds = [0] + sorted({c for c in cuts if c < len(seeds)}) + [len(seeds)]
        pieces = [w for a, b in zip(bounds, bounds[1:])
                  for w in neural._train_stack([prep] * (b - a), cfg, seeds[a:b])]
        for seed, in_whole, in_piece in zip(seeds, whole, pieces):
            history: list = []
            alone = train(matrix, cfg, seed=seed, history=history)
            want_weights, want_history = oracle_train(prep, cfg, seed)
            assert history == want_history
            for weights in (alone.weights, in_whole, in_piece):
                assert_same_weights(weights, want_weights)

    def test_early_stop_paths_differ_per_restart(self):
        # a loose stop criterion: restarts leave the stack at different epochs
        matrix = make_matrix(n_rows=40, seed=21, noise=0.3)
        cfg = TrainConfig(cycles=200, stop_error=0.12, restarts=12, rng_seed=8)
        prep = neural._prepare(matrix)
        seeds = [int(s) for s in restart_seeds(cfg.rng_seed, cfg.restarts)]
        histories = [[] for _ in seeds]
        finals = neural._train_stack([prep] * len(seeds), cfg, seeds, histories)
        lengths = {len(h) for h in histories}
        assert min(lengths) < cfg.cycles and len(lengths) > 1
        assert {False} in rejections_per_epoch(histories)  # an epoch where every restart accepts
        for seed, weights, history in zip(seeds, finals, histories):
            want_weights, want_history = oracle_train(prep, cfg, seed)
            assert history == want_history
            assert_same_weights(weights, want_weights)

    def test_reject_and_halve_path(self):
        # an oversized rate: early steps overshoot, are rejected and halved
        matrix = make_matrix(n_rows=35, seed=22, noise=0.3)
        cfg = TrainConfig(cycles=40, stop_error=0.01, learning_rate=50.0, restarts=6)
        prep = neural._prepare(matrix)
        seeds = [int(s) for s in restart_seeds(3, cfg.restarts)]
        histories = [[] for _ in seeds]
        finals = neural._train_stack([prep] * len(seeds), cfg, seeds, histories)
        for seed, weights, history in zip(seeds, finals, histories):
            want_weights, want_history = oracle_train(prep, cfg, seed)
            assert history == want_history
            assert any(a == b for a, b in zip(history, history[1:]))  # a rejected epoch
            assert_same_weights(weights, want_weights)
        # an epoch in which some restarts reject while others accept: a per-restart select
        assert {True, False} in rejections_per_epoch(histories)

    @pytest.mark.parametrize("workers, started", [(1, []), (2, [2])])
    def test_multi_restart_blocks_match_oracle(self, monkeypatch, pools, workers, started):
        # seeds fed in blocks of 3: the block boundary, and the process a
        # block trains in, change no bit
        from spreadnet.scoring import ism_scorer

        matrix = make_matrix(n_rows=40, seed=23, noise=0.4)
        cfg = TrainConfig(cycles=50, restarts=7, rng_seed=4)
        monkeypatch.setattr(neural, "RESTART_BLOCK", 3)
        monkeypatch.setattr(neural, "_worker_count", lambda: workers)
        trained = record_block_weights(monkeypatch)
        search = multi_restart_train(matrix, cfg, ism_scorer)
        assert pools == started
        prep = neural._prepare(split(matrix, cfg)[0])
        seeds = [int(s) for s in restart_seeds(cfg.rng_seed, cfg.restarts)]
        assert search.seeds.tolist() == seeds
        assert sorted(seed for _, _, seed, _ in trained) == sorted(seeds)
        for _, _, seed, weights in trained:  # every restart, as its block returned it
            assert_same_weights(weights, oracle_train(prep, cfg, seed)[0])
        assert_same_weights(search.model.weights, oracle_train(prep, cfg, search.seed)[0])

    @settings(max_examples=40)
    @given(
        data_seed=st.integers(0, 2**16),
        n_rows=st.integers(12, 45),
        n_inputs=st.integers(1, 11),
        hidden=st.integers(1, 12),
        stack=st.integers(1, 9),
        prefix=st.integers(1, 9),
        zeros=st.sampled_from([0.0, 0.3, 1.0]),
    )
    def test_one_epoch_equals_each_network_alone(self, data_seed, n_rows, n_inputs, hidden,
                                                 stack, prefix, zeros):
        # each network of a stack, and of a prefix the workspace was resized
        # to, gets the loss, MAE and gradients of a 2-D epoch, byte for byte
        rng = np.random.default_rng(data_seed)
        preps = [neural._prepare(make_matrix(n_rows=n_rows, n_inputs=n_inputs,
                                             seed=data_seed + b, noise=0.5))
                 for b in range(stack)]
        # exact zeros drawn in, so that products of signed zeros occur
        weights = [[np.where(rng.random(shape) < zeros, 0.0, rng.uniform(-2.0, 2.0, shape))
                     for shape in ((hidden, n_inputs + 1), (1, hidden + 1))]
                   for _ in range(stack)]
        ws = neural._Workspace((n_inputs, hidden, 1), stack, n_rows)
        row = neural._pack(ws, weights)
        aug0 = np.stack([p.aug0 for p in preps])
        y_scaled = np.stack([p.y_scaled for p in preps])
        for m in (stack, min(prefix, stack)):
            ws.resize(m)
            loss, grad, mae = neural._epoch_math(ws.layers(row[:m]), aug0[:m], y_scaled[:m], ws)
            assert loss.shape == mae.shape == (m,) and grad.shape == (m, ws.n_params)
            for b, (w, got_grads) in enumerate(zip(weights, zip(*ws.layers(grad)))):
                want_loss, want_grads, want_mae = oracle_epoch(preps[b].aug0, preps[b].y_scaled, *w)
                assert same_bits(loss[b], want_loss) and same_bits(mae[b], want_mae)
                assert_same_weights([g.T for g in got_grads], want_grads)

    def test_finals_own_their_memory_at_one_hidden_unit(self, monkeypatch):
        # a (fan_in + 1, 1) layer's transpose is already contiguous, so a final
        # made by ascontiguousarray would be a view of the block's rows, which
        # the epochs after it overwrite
        rows_seen, layers = [], neural._Workspace.layers

        def recording(ws, row):
            rows_seen.append(row)
            return layers(ws, row)

        monkeypatch.setattr(neural._Workspace, "layers", recording)
        matrix = make_matrix(n_rows=40, seed=21, noise=0.3)
        cfg = TrainConfig(cycles=200, stop_error=0.12, restarts=12, rng_seed=8, hidden_size=1)
        prep = neural._prepare(matrix)
        seeds = [int(s) for s in restart_seeds(cfg.rng_seed, cfg.restarts)]
        histories = [[] for _ in seeds]
        finals = neural._train_stack([prep] * len(seeds), cfg, seeds, histories)
        assert len({len(h) for h in histories}) > 1  # restarts left at different epochs
        arrays = [w for weights in finals for w in weights]
        for i, a in enumerate(arrays):
            assert a.flags.owndata
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])
            assert not any(np.shares_memory(a, row) for row in rows_seen)
        for seed, weights in zip(seeds, finals):
            assert_same_weights(weights, oracle_train(prep, cfg, seed)[0])

    def test_an_epoch_allocates_no_array(self):
        import tracemalloc

        stack, prep = 64, neural._prepare(make_matrix(n_rows=40, n_inputs=4, seed=24, noise=0.4))
        sizes = neural._init_weights(prep.n_inputs, TrainConfig(), 0)[0]
        ws = neural._Workspace(sizes, stack, len(prep.y_scaled))
        row = neural._pack(ws, [neural._init_weights(prep.n_inputs, TrainConfig(), s)[1]
                                for s in range(stack)])
        weights = ws.layers(row)
        aug0 = np.stack([prep.aug0] * stack)
        y_scaled = np.stack([prep.y_scaled] * stack)
        neural._epoch_math(weights, aug0, y_scaled, ws)  # warm-up
        tracemalloc.start()
        try:
            neural._epoch_math(weights, aug0, y_scaled, ws)
            _, peak = tracemalloc.get_traced_memory()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        kept = snapshot.filter_traces([tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
        assert kept.statistics("lineno") == []  # no numpy data outlives the call
        # and none was made on the way: everything the call allocated at once,
        # Python's objects included, is smaller than one (B, rows) array
        assert peak < y_scaled.nbytes


@st.composite
def float_arrays(draw):
    """1-D to 3-D float64 arrays with 1-12 columns."""
    lead = draw(st.lists(st.integers(1, 60), max_size=2))
    shape = (*lead, draw(st.integers(1, 12)))
    return draw(hnp.arrays(np.float64, shape, elements=st.floats(allow_nan=False)))


@settings(max_examples=60)
@given(x=float_arrays())
def test_augment_equals_concatenate(x):
    got = neural._augment(x)
    rows = np.atleast_2d(x)
    want = np.concatenate([rows, np.ones(rows.shape[:-1] + (1,))], axis=-1)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


def first_error_and_rankings(run):
    """``run()``'s result, or the type of the error it raised."""
    try:
        return None, run()
    except (AllDiverged, ConstantOutput, TooFewRows) as exc:
        return type(exc), None


class TestMultiMatrix:
    """Matrices trained together rank exactly as each trained alone."""

    @settings(max_examples=30)
    @given(
        specs=st.lists(st.tuples(st.sampled_from([24, 31]), st.integers(1, 3),
                                 st.sampled_from([None, 2])),
                       min_size=1, max_size=5),
        restarts=st.integers(1, 4),
        stop_error=st.sampled_from([0.1, 0.2, 0.3]),
        block=st.integers(1, 6),
        poison=st.lists(st.integers(0, 19), max_size=3),
        workers=st.sampled_from([1, 2]),
    )
    def test_grouped_equals_alone(self, specs, restarts, stop_error, block, poison, workers):
        from spreadnet.scoring import ism_scorer

        matrices = [make_matrix(n_rows=n, n_inputs=k, seed=j, noise=0.4)
                    for j, (n, k, _) in enumerate(specs)]
        # a loose stop criterion: restarts leave a shared stack at different epochs
        cfgs = [TrainConfig(cycles=40, stop_error=stop_error, restarts=restarts, rng_seed=j,
                            hidden_size=hidden)
                for j, (_, _, hidden) in enumerate(specs)]
        seeds = [int(s) for cfg in cfgs for s in restart_seeds(cfg.rng_seed, cfg.restarts)]
        poisoned = {seeds[i % len(seeds)] for i in poison}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(neural, "RESTART_BLOCK", block)
            TestMultiRestart.poison_seeds(mp, poisoned)
            # grouped in blocks over the drawn number of worker processes
            mp.setattr(neural, "_worker_count", lambda: workers)
            with pytest.MonkeyPatch.context() as recorded:
                trained = record_block_weights(recorded)
                got_error, grouped = first_error_and_rankings(
                    lambda: neural.multi_matrix_train(matrices, cfgs, ism_scorer))
            # every restart the blocks trained, against the same batch and seed trained alone
            for prep, cfg, seed, weights in trained:
                (want,) = neural._train_stack([prep], cfg, [seed])
                assert (weights is None) == (want is None) == (seed in poisoned)
                if want is not None:
                    assert_same_weights(weights, want)
            mp.setattr(neural, "_worker_count", lambda: 1)
            want_error, alone = first_error_and_rankings(
                lambda: [multi_restart_train(m, cfg, ism_scorer)
                         for m, cfg in zip(matrices, cfgs)])
        assert got_error is want_error
        if want_error is not None:
            return
        for matrix, cfg, got, want in zip(matrices, cfgs, grouped, alone):
            assert got.seed == want.seed
            assert got.seeds.tolist() == want.seeds.tolist()
            assert not poisoned & set(got.seeds.tolist())
            assert same_bits(got.scores, want.scores)
            best = train(split(matrix, cfg)[0], cfg, seed=got.seed)
            assert_same_weights(got.model.weights, best.weights)

    @settings(max_examples=25)
    @given(
        specs=st.lists(st.tuples(st.sampled_from([24, 31]), st.integers(1, 2)),
                       min_size=1, max_size=4),
        restarts=st.integers(1, 6),
        table=st.lists(SCORES, min_size=1, max_size=4),
        block=st.integers(1, 7),
        workers=st.integers(1, 3),
        poison=st.lists(st.integers(0, 23), max_size=3),
    )
    def test_merged_bests_equal_one_block(self, specs, restarts, table, block, workers, poison):
        # the blocks' bests merged by (-score, seed), over 1-3 worker processes:
        # the winner and every (score, seed) of each matrix trained as one block here
        matrices = [make_matrix(n_rows=n, n_inputs=k, seed=j, noise=0.4)
                    for j, (n, k) in enumerate(specs)]
        cfgs = [TrainConfig(cycles=5, restarts=restarts, rng_seed=j) for j in range(len(specs))]
        seeds = [int(s) for cfg in cfgs for s in restart_seeds(cfg.rng_seed, cfg.restarts)]
        poisoned = {seeds[i % len(seeds)] for i in poison}
        scorer = table_scorer(table)
        with pytest.MonkeyPatch.context() as mp:
            TestMultiRestart.poison_seeds(mp, poisoned)
            mp.setattr(neural, "RESTART_BLOCK", block)
            mp.setattr(neural, "_worker_count", lambda: workers)
            got_error, merged = first_error_and_rankings(
                lambda: neural.multi_matrix_train(matrices, cfgs, scorer))
            mp.setattr(neural, "RESTART_BLOCK", restarts)
            mp.setattr(neural, "_worker_count", lambda: 1)
            want_error, alone = first_error_and_rankings(
                lambda: [multi_restart_train(m, cfg, scorer) for m, cfg in zip(matrices, cfgs)])
        assert got_error is want_error
        if want_error is not None:
            return
        for matrix, cfg, got, want in zip(matrices, cfgs, merged, alone):
            assert got.seeds.tolist() == want.seeds.tolist()
            assert same_bits(got.scores, want.scores)
            assert got.seed == want.seed == best_seed(got.seeds.tolist(), got.scores.tolist())
            best = train(split(matrix, cfg)[0], cfg, seed=got.seed)  # the winner's own model
            assert_same_weights(got.model.weights, best.weights)

    def test_the_search_costs_this_process_a_few_array_bytes_per_restart(self, monkeypatch):
        """The traced peak of a search grows with the restart count by a few
        array entries per restart: its seed, score, matrix and batch slot.
        The search this replaced kept Python objects per restart (a ranked
        result, an int seed, a (matrix, restart) tuple and list slots): this
        test measured it at 182 bytes per restart, and measures 38 now."""
        import tracemalloc

        monkeypatch.setattr(neural, "_worker_count", lambda: 1)  # blocks of 256, in process
        matrix = make_matrix(n_rows=24, n_inputs=2, seed=40, noise=0.4)
        scorer = lambda models, test_part: [float(m.weights[-1][0, 0]) for m in models]

        def peak(restarts):
            cfg = TrainConfig(cycles=1, restarts=restarts, rng_seed=5)
            tracemalloc.start()
            try:
                multi_restart_train(matrix, cfg, scorer)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        low, high = 512, 1536  # two blocks against six, all of 256 restarts
        peak(low)  # warm-up
        assert (peak(high) - peak(low)) / (high - low) < 64

    @pytest.mark.parametrize("faults, expected", [
        (["ok", "constant", "short"], ConstantOutput),
        (["ok", "short", "constant"], TooFewRows),
        (["diverged", "short"], TooFewRows),  # input faults come before training
        (["short", "diverged"], TooFewRows),
        (["ok", "diverged", "constant"], ConstantOutput),
        (["constant", "diverged"], ConstantOutput),
        (["diverged", "ok"], AllDiverged),
    ])
    def test_first_faulty_matrix_in_input_order_raises(self, monkeypatch, faults, expected):
        from spreadnet.scoring import ism_scorer

        monkeypatch.setattr(neural, "_worker_count", lambda: 1)  # two: TestWorkerPool
        matrices, cfgs = faulty_matrices(monkeypatch, faults, restarts=3)
        with pytest.raises(expected):
            neural.multi_matrix_train(matrices, cfgs, ism_scorer)


def faulty_matrices(monkeypatch, faults, restarts):
    """One matrix per named fault, with its regime; "diverged" gets every seed poisoned."""
    build = {
        "ok": lambda: make_matrix(n_rows=30, seed=1, noise=0.4),
        "diverged": lambda: make_matrix(n_rows=30, seed=2, noise=0.4),
        "constant": lambda: make_matrix(n_rows=30, target=lambda x: np.full(len(x), 5.0)),
        "short": lambda: make_matrix(n_rows=10),
    }
    cfgs = [TrainConfig(cycles=10, restarts=restarts, rng_seed=j) for j in range(len(faults))]
    TestMultiRestart.poison_seeds(monkeypatch, {
        int(s) for f, cfg in zip(faults, cfgs) if f == "diverged"
        for s in restart_seeds(cfg.rng_seed, cfg.restarts)})
    return [build[f]() for f in faults], cfgs


class Poisoned(Exception):
    """Raised by a kernel a test has poisoned."""


class TestWorkerPool:
    """Blocks trained in forked workers: the same models, and no process left behind."""

    def test_worker_exception_reaches_the_caller(self, monkeypatch, pools):
        def poisoned(*args):
            raise Poisoned("poisoned kernel")

        monkeypatch.setattr(neural, "_worker_count", lambda: 2)
        monkeypatch.setattr(neural, "_epoch_math", poisoned)  # the forked workers inherit it
        with pytest.raises(Poisoned, match="poisoned kernel"):
            multi_restart_train(make_matrix(n_rows=40, seed=30), TrainConfig(restarts=4),
                                lambda models, test_part: [0.0] * len(models))
        assert pools == [2]
        assert multiprocessing.active_children() == []

    def test_pooled_models_are_read_only(self, monkeypatch, pools):
        from spreadnet.scoring import ism_scorer

        monkeypatch.setattr(neural, "_worker_count", lambda: 2)
        search = multi_restart_train(make_matrix(n_rows=40, seed=31, noise=0.4),
                                     TrainConfig(cycles=30, restarts=4), ism_scorer)
        assert pools == [2]
        assert multiprocessing.active_children() == []
        assert len(search) == 4
        for w in search.model.weights:
            assert not w.flags.writeable
            with pytest.raises(ValueError):
                w[0, 0] = 1.0

    @pytest.mark.parametrize("faults, expected, started", [
        (["diverged", "short"], TooFewRows, []),
        (["short", "diverged"], TooFewRows, []),
        (["ok", "diverged", "short"], TooFewRows, []),
        (["ok", "diverged"], AllDiverged, [2]),
    ])
    def test_first_faulty_matrix_raises_under_two_workers(self, monkeypatch, pools,
                                                          faults, expected, started):
        # four restarts a matrix over two workers: each matrix's restarts span two blocks
        from spreadnet.scoring import ism_scorer

        monkeypatch.setattr(neural, "_worker_count", lambda: 2)
        matrices, cfgs = faulty_matrices(monkeypatch, faults, restarts=4)
        with pytest.raises(expected):
            neural.multi_matrix_train(matrices, cfgs, ism_scorer)
        assert pools == started
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_last_faulty_matrix_raises_before_any_training(self, monkeypatch, pools, workers):
        # the constant output of the last matrix is found before the first block trains
        from spreadnet.scoring import ism_scorer

        def never(*args, **kwargs):
            raise AssertionError("a block trained")

        monkeypatch.setattr(neural, "_worker_count", lambda: workers)
        monkeypatch.setattr(neural, "_train_stack", never)
        matrices, cfgs = faulty_matrices(monkeypatch, ["ok", "ok", "constant"], restarts=4)
        with pytest.raises(ConstantOutput):
            neural.multi_matrix_train(matrices, cfgs, ism_scorer)
        assert pools == []

    @pytest.mark.parametrize("workers, block, sizes", [
        (1, 256, [10, 6]),              # one CPU: the blocks of RESTART_BLOCK
        (1, 4, [4, 3, 3, 3, 3]),        # a group's blocks differ in size by at most one
        (3, 256, [5, 5, 6]),            # one worker's share of all 16 restarts: 6
        (2, 256, [5, 5, 3, 3]),         # 3 blocks by the share, 4 for 2 workers
        (64, 256, [1] * 16),            # more workers than restarts: one restart each
        # RESTART_BLOCK bounds a block; 9 blocks, not 8, so each of 3 workers runs 3
        (3, 2, [2, 2, 2, 2, 1, 1, 2, 2, 2]),
    ])
    def test_blocks_split_per_worker(self, monkeypatch, workers, block, sizes):
        # the split at any worker count, trained here in this process
        from spreadnet.scoring import ism_scorer

        matrices = [make_matrix(n_rows=24, n_inputs=k, seed=j, noise=0.4)
                    for j, k in enumerate([2, 2, 3])]
        cfgs = [TrainConfig(cycles=5, restarts=r, rng_seed=j) for j, r in enumerate([5, 5, 6])]
        want = neural.multi_matrix_train(matrices, cfgs, ism_scorer)
        real, seen = neural._train_blocks, []

        def in_process(batches, block_cfgs, seeds, count, finish):
            seen.append((count, [len(s) for s in seeds]))
            return real(batches, block_cfgs, seeds, 1, finish)

        monkeypatch.setattr(neural, "_worker_count", lambda: workers)
        monkeypatch.setattr(neural, "RESTART_BLOCK", block)
        monkeypatch.setattr(neural, "_train_blocks", in_process)
        got = neural.multi_matrix_train(matrices, cfgs, ism_scorer)
        assert seen == [(workers, sizes)]
        for g, w in zip(got, want):
            assert g.seed == w.seed and g.seeds.tolist() == w.seeds.tolist()
            assert same_bits(g.scores, w.scores)
            assert_same_weights(g.model.weights, w.model.weights)

    @settings(max_examples=200)
    @given(lengths=st.lists(st.integers(1, 600), min_size=1, max_size=6),
           workers=st.integers(1, 64), block=st.integers(1, 300))
    def test_plan_covers_each_pair_once_in_bounded_even_blocks(self, lengths, workers, block):
        # the job runs the groups one after another: group g's restarts are the
        # job's indices from ends[g] - lengths[g] up to ends[g]
        job, ends = range(sum(lengths)), np.cumsum(lengths)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(neural, "RESTART_BLOCK", block)
            blocks = [job[b] for b in neural._plan_blocks(lengths, workers)]
        assert [i for b in blocks for i in b] == list(job)
        group = [int(np.searchsorted(ends, b[0], side="right")) for b in blocks]
        assert all(np.searchsorted(ends, b[-1], side="right") == g for b, g in zip(blocks, group))
        share = min(block, -(-sum(lengths) // workers))
        cut = sum(-(-n // share) for n in lengths)  # each group cut by the share alone
        if cut <= workers:
            assert len(blocks) == cut
        else:  # rounded up to a multiple of the workers, unless every block holds one pair
            assert cut <= len(blocks) < cut + workers
            assert len(blocks) % workers == 0 or all(len(b) == 1 for b in blocks)
        for g, n in enumerate(lengths):
            sizes = [len(b) for b, in_group in zip(blocks, group) if in_group == g]
            assert sum(sizes) == n and max(sizes) - min(sizes) <= 1
            assert max(sizes) <= share

    @pytest.mark.parametrize("restarts, sizes", [
        (4, [88, 88, 40, 40]),
        # 13 blocks by the share, 14 for 2 workers: the added one goes to the largest blocks
        (50, [245] * 4 + [244] * 5 + [167, 167, 166, 250, 250]),
    ])
    def test_demo_plan_at_two_workers(self, monkeypatch, tmp_path, restarts, sizes):
        # the 64 demo matrices in three shape groups, planned and not trained
        from spreadnet import pipeline
        from spreadnet.demo import write_demo_workspace

        class Planned(Exception):
            pass

        def record(batches, block_cfgs, seeds, count, finish):
            raise Planned(count, [len(s) for s in seeds])

        _, config_path = write_demo_workspace(tmp_path, restarts=restarts)
        config = pipeline.PipelineConfig.from_file(config_path)
        matrices = pipeline.assemble(config, pipeline.ingest(config))
        monkeypatch.setattr(neural, "_worker_count", lambda: 2)
        monkeypatch.setattr(neural, "_train_blocks", record)
        with pytest.raises(Planned) as planned:
            pipeline.train_all(config, matrices)
        assert len(matrices) == 64
        assert planned.value.args == (2, sizes)

    def test_worker_count(self, monkeypatch):
        # the CPUs in this process's affinity mask, measured without starting a process
        monkeypatch.setattr(neural.os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert neural._worker_count() == 3
        monkeypatch.delattr(neural.os, "sched_getaffinity")
        monkeypatch.setattr(neural.os, "cpu_count", lambda: 6)
        assert neural._worker_count() == 6
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert neural._worker_count() == 1


class TestGradientCheck:
    def test_random_small_models(self):
        rng = np.random.default_rng(30)
        for seed in range(5):
            model = small_model(seed=seed, scalings=True)
            x = rng.uniform(-1, 1, size=3)
            y = rng.uniform(-50, 50)
            assert gradient_check(model, (x, y), epsilon=1e-5) < 1e-4

    @pytest.mark.parametrize("sizes", [(3, 4, 2, 1), (5, 2, 4, 3, 1)])
    def test_deeper_models(self, sizes):
        # the kernel handles any depth: hidden layers feeding hidden layers
        rng = np.random.default_rng(sum(sizes))
        for _ in range(3):
            weights = tuple(rng.uniform(-0.8, 0.8, size=(o, i + 1))
                            for i, o in zip(sizes[:-1], sizes[1:]))
            model = NetworkModel(layer_sizes=sizes, weights=weights,
                                 input_scaling=AffineMap(rng.uniform(0.5, 2.0, sizes[0]),
                                                         rng.uniform(-1, 1, sizes[0])),
                                 output_scaling=AffineMap(np.array([0.02]), np.array([-1.0])))
            x = rng.uniform(-1, 1, size=sizes[0])
            assert gradient_check(model, (x, rng.uniform(-50, 50)), epsilon=1e-5) < 1e-4

    def test_zero_stationary_point_exact(self):
        model = NetworkModel(
            layer_sizes=(2, 2, 1),
            weights=(np.zeros((2, 3)), np.zeros((1, 3))),
            input_scaling=unit_scaling(2),
            output_scaling=unit_scaling(1),
        )
        assert gradient_check(model, (np.zeros(2), 0.0)) == 0.0

    def test_linear_network_near_machine_precision(self):
        # a single (linear) output layer: the loss is quadratic in the weights
        rng = np.random.default_rng(31)
        model = NetworkModel(layer_sizes=(3, 1), weights=(rng.uniform(-0.3, 0.3, (1, 4)),),
                             input_scaling=unit_scaling(3), output_scaling=unit_scaling(1))
        x = rng.uniform(-1, 1, size=3)
        assert gradient_check(model, (x, 0.7), epsilon=1e-4) < 1e-7

    def test_epsilon_bounds(self):
        with pytest.raises(ValueError):
            gradient_check(small_model(), (np.zeros(3), 0.0), epsilon=1e-2)


# finite floats with the edge cases a text format can lose: signed zero, subnormals, huge values
edgy = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                 st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                                  1e300, -1e300, sys.float_info.max, -sys.float_info.max]))


class TestSerialization:
    def test_roundtrip_bit_exact(self, tmp_path):
        model = small_model(seed=40, scalings=True)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.layer_sizes == model.layer_sizes
        for wa, wb in zip(model.weights, loaded.weights):
            assert np.array_equal(wa, wb)
        assert np.array_equal(loaded.input_scaling.scale, model.input_scaling.scale)
        xs = np.random.default_rng(41).uniform(-1, 1, size=(5, 3))
        assert np.array_equal(predict(model, xs), predict(loaded, xs))

    @settings(max_examples=60,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), sizes=st.lists(st.integers(1, 5), min_size=1, max_size=3))
    def test_roundtrip_bit_exact_property(self, tmp_path, data, sizes):
        # both round trips (file and dict) return every weight and scaling bit for bit:
        # -0.0, subnormals and floats near the largest included
        layer_sizes = (*sizes, 1)
        weights = tuple(data.draw(hnp.arrays(np.float64, (fan_out, fan_in + 1), elements=edgy))
                        for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]))

        def scaling(width):
            return AffineMap(data.draw(hnp.arrays(np.float64, width, elements=edgy.filter(bool))),
                             data.draw(hnp.arrays(np.float64, width, elements=edgy)))

        model = NetworkModel(layer_sizes, weights, scaling(layer_sizes[0]), scaling(1))
        path = tmp_path / "model.json"
        save_model(model, path)
        for loaded in (load_model(path), model_from_dict(model_to_dict(model))):
            assert loaded.layer_sizes == layer_sizes
            assert [w.tobytes() for w in loaded.weights] == [w.tobytes() for w in weights]
            for got, want in ((loaded.input_scaling, model.input_scaling),
                              (loaded.output_scaling, model.output_scaling)):
                assert got.scale.tobytes() == want.scale.tobytes()
                assert got.offset.tobytes() == want.offset.tobytes()

    @pytest.mark.parametrize("key", ["input_scaling", "output_scaling"])
    def test_null_scaling_is_corrupt(self, tmp_path, key):
        # every model carries both scalings; a file without one names itself
        data = model_to_dict(small_model())
        data[key] = None
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(CorruptModel, match=re.escape(str(path))):
            load_model(path)

    def test_version_gate(self):
        data = model_to_dict(small_model())
        data["version"] = 99
        with pytest.raises(ValueError):
            model_from_dict(data)

    def test_format_gate(self):
        with pytest.raises(ValueError):
            model_from_dict({"format": "something-else"})

    def test_saved_model_names_fixed_activations(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(small_model(), path)
        data = json.loads(path.read_text())
        assert data["hidden_activation"] == "tanh"
        assert data["output_activation"] == "identity"

    @pytest.mark.parametrize("key, name", [
        ("hidden_activation", "sigmoid"),
        ("output_activation", "tanh"),
        ("hidden_activation", None),
    ])
    def test_other_activations_rejected(self, key, name):
        data = model_to_dict(small_model())
        data[key] = name
        with pytest.raises(ValueError, match=key):
            model_from_dict(data)


class TestTrainedScalingConsistency:
    def test_scaling_applied_exactly_once(self):
        # predict() must equal: invert-output(scaled-net(scale-input(x)))
        matrix = make_matrix(n_rows=40, seed=42)
        model = train(matrix, TrainConfig(restarts=1, rng_seed=4))
        x = matrix.inputs[:5]
        manual_in = model.input_scaling.apply(x)
        out = predict(replace(model, input_scaling=unit_scaling(3), output_scaling=unit_scaling(1)),
                      manual_in)
        manual = model.output_scaling.invert(out)
        assert np.array_equal(predict(model, x), manual)
