"""Selection, master-matrix stacking, master training, and prediction."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import unit_scaling
from spreadnet.ensemble import (
    Candidate,
    build_master_matrix,
    master_forecast,
    select_best,
    train_master,
)
from spreadnet.errors import DateMismatch, DimensionMismatch, NoCandidates
from spreadnet.metrics import PERFECT_STRATEGY
from spreadnet.neural import NetworkModel, TrainConfig
from spreadnet.preprocess import MASTER_SET_ID
from spreadnet.scoring import score_levels
from spreadnet.series import parse_month


def dummy_model(n_inputs=2):
    return NetworkModel(
        layer_sizes=(n_inputs, 1),
        weights=(np.zeros((1, n_inputs + 1)),),
        input_scaling=unit_scaling(n_inputs),
        output_scaling=unit_scaling(1),
    )


def level_path(moves, start=100.0):
    return start * np.exp(np.concatenate([[0.0], np.cumsum(moves)]))


def make_member(set_id, lag, months, predicted, actual):
    score = score_levels(np.asarray(predicted), np.asarray(actual), np.asarray(months))
    return Candidate(base_set_id=set_id, lag=lag, seed=0,
                     model=dummy_model(), score=score)


def fabricated_member(set_id, lag, ism, norm_ep):
    """Candidate with a hand-set score, for pure selection-order tests."""
    months = np.arange(parse_month("2003-01"), parse_month("2003-01") + 12)
    actual = level_path(np.full(11, 0.05))
    member = make_member(set_id, lag, months, actual * 1.01, actual)
    member.score.ism = ism
    member.score.norm_ep = norm_ep
    return member


class TestSelectBest:
    def test_top_k_descending(self):
        rng = np.random.default_rng(50)
        candidates = [
            fabricated_member(1 + i % 10, 1 + i % 5, float(rng.uniform(-5, 20)), float(rng.uniform(0, 100)))
            for i in range(64)
        ]
        members = select_best(candidates, k=10)
        assert len(members) == 10
        keys = [m.score.ism for m in members]
        assert keys == sorted(keys, reverse=True)

    def test_prefix_of_full_ranking(self):
        rng = np.random.default_rng(51)
        candidates = [
            fabricated_member(1 + i % 10, 1, float(rng.uniform(-5, 20)), float(rng.uniform(0, 100)))
            for i in range(30)
        ]
        top = select_best(candidates, k=10)
        everything = select_best(candidates, k=30)
        assert [m.name for m in top] == [m.name for m in everything[:10]]

    def test_fewer_than_k_warns(self):
        candidates = [fabricated_member(i + 1, 1, float(i), 50.0) for i in range(3)]
        with pytest.warns(UserWarning, match="only 3"):
            members = select_best(candidates, k=10)
        assert len(members) == 3

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_below_one_rejected(self, k):
        candidates = [fabricated_member(i + 1, 1, float(i), 50.0) for i in range(10)]
        with pytest.raises(ValueError, match="k >= 1"):
            select_best(candidates, k=k)

    def test_tie_broken_by_norm_ep(self):
        a = fabricated_member(2, 1, 5.0, 90.0)
        b = fabricated_member(1, 1, 5.0, 99.0)
        members = select_best([a, b], k=2)
        assert members[0] is b

    def test_perfect_sentinel_ranks_first(self):
        a = fabricated_member(1, 1, 1e6, 99.0)
        b = fabricated_member(2, 1, PERFECT_STRATEGY, 10.0)
        assert select_best([a, b], k=2)[0] is b

    def test_no_candidates(self):
        with pytest.raises(NoCandidates):
            select_best([], k=10)

    @settings(max_examples=40, deadline=None)
    @given(specs=st.lists(st.tuples(
        st.integers(1, 10), st.integers(1, 4),
        st.one_of(st.just(PERFECT_STRATEGY), st.sampled_from([0.0, 2.5]),
                  st.floats(allow_nan=False, allow_infinity=False)),
        st.one_of(st.none(), st.sampled_from([10.0, 50.0]), st.floats(0.0, 100.0))),
        min_size=1, max_size=12), k=st.integers(1, 14))
    def test_ranks_by_ism_ep_set_lag(self, specs, k):
        candidates = [fabricated_member(*spec) for spec in specs]

        def rank(c):  # a missing normEP ranks below every number
            ep = c.score.norm_ep
            return (-c.score.ism, math.inf if ep is None else -ep, c.base_set_id, c.lag)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # fewer than k candidates
            got = select_best(candidates, k=k)
        assert [id(c) for c in got] == [id(c) for c in sorted(candidates, key=rank)[:k]]


class TestBuildMasterMatrix:
    def test_shape_and_lag_zero(self):
        months = np.arange(parse_month("2002-01"), parse_month("2002-01") + 36)
        actual = level_path(np.random.default_rng(52).uniform(-0.2, 0.2, size=35))
        members = [
            make_member(set_id, set_id, months, actual * (1 + 0.01 * set_id), actual)
            for set_id in range(1, 11)
        ]
        matrix = build_master_matrix(members)
        assert matrix.inputs.shape == (36, 10)
        assert matrix.output.shape == (36,)
        assert matrix.lag == 0
        assert matrix.base_set_id == MASTER_SET_ID
        assert np.array_equal(matrix.months_in(), matrix.months_out)

    def test_months_are_exact_intersection(self):
        rng = np.random.default_rng(53)
        base = parse_month("2002-01")
        full = level_path(rng.uniform(-0.1, 0.1, size=59))
        all_months = np.arange(base, base + 60)
        members = []
        windows = [(0, 40), (5, 50), (10, 60)]
        for i, (lo, hi) in enumerate(windows):
            members.append(
                make_member(i + 1, 1, all_months[lo:hi], full[lo:hi] * 1.001, full[lo:hi])
            )
        matrix = build_master_matrix(members)
        expected = np.arange(base + 10, base + 40)
        assert np.array_equal(matrix.months_out, expected)

    def test_disjoint_dates(self):
        base = parse_month("2002-01")
        actual = level_path(np.full(11, 0.1))
        a = make_member(1, 1, np.arange(base, base + 12), actual, actual)
        b = make_member(2, 1, np.arange(base + 20, base + 32), actual, actual)
        with pytest.raises(DateMismatch):
            build_master_matrix([a, b])

    def test_inconsistent_actuals(self):
        base = parse_month("2002-01")
        months = np.arange(base, base + 12)
        actual = level_path(np.full(11, 0.1))
        a = make_member(1, 1, months, actual, actual)
        b = make_member(2, 1, months, actual, actual * 2.0)
        with pytest.raises(DateMismatch):
            build_master_matrix([a, b])


class TestTrainMaster:
    def build_members(self, seed=54, n_months=40, oracle_first=True):
        rng = np.random.default_rng(seed)
        moves = 0.5 * (-1.0) ** np.arange(n_months - 1) + rng.uniform(-0.05, 0.05, n_months - 1)
        actual = level_path(moves)
        months = np.arange(parse_month("2001-01"), parse_month("2001-01") + n_months)
        members = []
        if oracle_first:
            members.append(make_member(1, 1, months, actual.copy(), actual))
        while len(members) < 10:
            noisy = actual * (1 + 0.1 * rng.standard_normal(n_months))
            members.append(make_member(len(members) + 1, 1, months, noisy, actual))
        return members

    def test_stacking_dominates_oracle_member(self):
        members = self.build_members()
        oracle_key = members[0].score.ism
        assert math.isinf(oracle_key)  # a true oracle never fails
        matrix = build_master_matrix(members)
        cfg = TrainConfig(restarts=30, rng_seed=6, cycles=400, stop_error=0.05)
        result = train_master(matrix, cfg)
        assert result.score.ism >= 0.9 * oracle_key
        assert isinstance(result, Candidate)
        assert (result.base_set_id, result.lag) == (MASTER_SET_ID, 0)

    def test_deterministic(self):
        members = self.build_members(seed=55)
        matrix = build_master_matrix(members)
        cfg = TrainConfig(restarts=5, rng_seed=7, cycles=200)
        a = train_master(matrix, cfg)
        b = train_master(matrix, cfg)
        assert a.seed == b.seed
        for wa, wb in zip(a.model.weights, b.model.weights):
            assert np.array_equal(wa, wb)
        assert a.score.ism == b.score.ism


class TestPredictNext:
    """Next-month calls through ``master_forecast``, the pipeline's predict path."""

    @staticmethod
    def consensus_master(k=10):
        # equal-weight linear stack: output is exactly the member mean
        weights = np.zeros((1, k + 1))
        weights[0, :k] = 1.0 / k
        return NetworkModel(layer_sizes=(k, 1), weights=(weights,),
                            input_scaling=unit_scaling(k), output_scaling=unit_scaling(1))

    def test_consensus_output(self):
        forecasts = np.linspace(90.0, 110.0, 10)
        result = master_forecast(self.consensus_master(), forecasts, last_actual=100.0)
        assert result.value == pytest.approx(forecasts.mean(), abs=1e-12)

    def test_wrong_width(self):
        # one member forecast per input: a stack of rows is refused, never read as its first
        for forecasts in (np.ones(9), np.ones((2, 10)), np.ones((1, 10))):
            with pytest.raises(DimensionMismatch):
                master_forecast(self.consensus_master(), forecasts, last_actual=100.0)

    def test_direction_from_master_not_votes(self):
        # every member forecasts exactly the last actual (votes 100% up by the
        # tie rule) but a shrunken master output lands below it: direction -1
        k = 10
        weights = np.zeros((1, k + 1))
        weights[0, :k] = 0.9 / k
        model = NetworkModel(layer_sizes=(k, 1), weights=(weights,),
                             input_scaling=unit_scaling(k), output_scaling=unit_scaling(1))
        forecasts = np.full(k, 100.0)
        result = master_forecast(model, forecasts, last_actual=100.0)
        assert result.up_vote_percent == 100.0
        assert result.value == pytest.approx(90.0)
        assert result.direction == -1
