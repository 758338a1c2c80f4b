"""Equity curves, the modified Sharpe discriminant, EP, and the OLS baseline."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import ndtr

from spreadnet.errors import (
    ConstantRegressor,
    DegenerateInput,
    DegenerateStrategy,
    EmptyEnsemble,
    LengthMismatch,
    NonPositiveValue,
    SpreadnetError,
    ZeroPerfectSlope,
)
from spreadnet.metrics import (
    EquityReport,
    PERFECT_STRATEGY,
    count_outliers,
    directional_accuracy,
    divergence_percentage,
    equity_curves,
    excess_predictability,
    excess_predictability_from_positions,
    mean_abs_error,
    modified_sharpe,
    normal_cdf_percent,
    ols_fit,
    positions_from_forecasts,
    two_sided_t_p,
    weighted_slope,
)


# The branch points of Cephes' ndtr in its argument a, both signs: |a| = 1 (erf
# or erfc), sqrt(2) (erfc through erf), 8 sqrt(2) (the P/Q or R/S fraction) and
# sqrt(2 MAXLOG), past which exp(-a**2 / 2) underflows and erfc returns 0 or 2.
NDTR_BRANCHES = [sign * b for b in (1.0, math.sqrt(2), 8 * math.sqrt(2),
                                    math.sqrt(2 * 7.09782712893383996843E2))
                 for sign in (1.0, -1.0)]
NDTR_EDGES = [x for b in NDTR_BRANCHES
              for x in (math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf))]


def levels_from_returns(returns, start=100.0):
    return start * np.exp(np.concatenate([[0.0], np.cumsum(returns)]))


def forecasts_for_positions(actual, positions):
    """Level forecasts that produce the requested +-1 positions."""
    pred = np.empty_like(actual)
    pred[0] = actual[0]
    for t in range(1, len(actual)):
        pred[t] = actual[t - 1] * (1.01 if positions[t - 1] > 0 else 0.99)
    return pred


class TestEquityCurves:
    def test_perfect_strategy_curves_match(self):
        actual = levels_from_returns([0.01, -0.02])
        pred = forecasts_for_positions(actual, [+1, -1])
        report = equity_curves(pred, actual)
        assert np.allclose(report.eq, [1.0, 3.0])
        assert np.allclose(report.pe, [1.0, 3.0])
        assert report.failures == []
        assert report.ave_negative_vol == 0.0

    def test_always_wrong_mirror(self):
        actual = levels_from_returns([0.01, -0.02])
        pred = forecasts_for_positions(actual, [-1, +1])
        report = equity_curves(pred, actual)
        assert np.allclose(report.eq, [-1.0, -3.0])
        assert np.allclose(report.pe, [1.0, 3.0])
        assert len(report.failures) == 2
        # negative volatility stays in raw log-return units
        assert report.ave_negative_vol == pytest.approx((0.01 + 0.02) / 2)

    def test_matches_step_by_step_oracle(self):
        rng = np.random.default_rng(12)
        actual = levels_from_returns(rng.uniform(-0.05, 0.05, size=50))
        pred = actual * rng.uniform(0.97, 1.03, size=51)
        report = equity_curves(pred, actual)

        eq = pe = 0.0
        eqs, pes, fails = [], [], []
        for t in range(1, 51):
            ret = math.log(actual[t] / actual[t - 1])
            pos = 1.0 if pred[t] >= actual[t - 1] else -1.0
            eq += pos * ret * 100.0
            pe += abs(ret) * 100.0
            eqs.append(eq)
            pes.append(pe)
            if pos * ret < 0:
                fails.append(abs(ret))
        assert np.allclose(report.eq, eqs, atol=1e-12)
        assert np.allclose(report.pe, pes, atol=1e-12)
        assert [m for _, m in report.failures] == pytest.approx(fails)

    def test_invariants_random(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = rng.integers(3, 40)
            actual = levels_from_returns(rng.uniform(-0.1, 0.1, size=n))
            pred = actual * rng.uniform(0.9, 1.1, size=n + 1)
            report = equity_curves(pred, actual)
            assert np.all(np.diff(report.pe) >= -1e-15)
            assert np.all(report.pe >= np.abs(report.eq) - 1e-12)
            if report.failures:
                assert not np.array_equal(report.eq, report.pe)
            else:
                assert np.array_equal(report.eq, report.pe)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            equity_curves(np.ones(3), np.ones(4))


class TestMoveRule:
    """The curves, the EP test and the hit rate read one set of moves and refuse
    the same inputs with the same error."""

    @pytest.mark.parametrize("score", [equity_curves, excess_predictability,
                                       directional_accuracy])
    @pytest.mark.parametrize("predicted, actual, fault", [
        ([1.0, 1.0, 1.0, 1.0], [1.0, 0.0, 2.0, 3.0], NonPositiveValue),
        ([1.0, 1.0, 1.0], [-1.0, -2.0, -3.0], NonPositiveValue),
        ([1.0, 1.0, 1.0], [1.0, 2.0, 3.0, 4.0], LengthMismatch),
        ([1.0], [1.0], LengthMismatch),
    ], ids=["zero-level", "negative-levels", "unequal-lengths", "one-observation"])
    def test_each_score_refuses_alike(self, score, predicted, actual, fault):
        with pytest.raises(SpreadnetError) as caught:
            score(np.array(predicted), np.array(actual))
        assert type(caught.value) is fault


class TestWeightedSlope:
    def test_zero_curve(self):
        assert weighted_slope(np.zeros(10)) == 0.0

    def test_constant_curve_closed_form(self):
        # amplified values c * (1 + 10 i / n) are linear in i: slope 10c/n
        for c, n in [(3.0, 7), (-2.5, 30), (11.0, 89)]:
            assert weighted_slope(np.full(n, c)) == pytest.approx(10.0 * c / n, rel=1e-12)

    def test_matches_normal_equation_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            curve = rng.standard_normal(rng.integers(2, 60))
            n = len(curve)
            i = np.arange(1, n + 1, dtype=float)
            amplified = curve * (1 + 10 * i / n)
            a = np.array([[n, i.sum()], [i.sum(), (i * i).sum()]])
            b = np.array([amplified.sum(), (i * amplified).sum()])
            slope = np.linalg.solve(a, b)[1]
            assert weighted_slope(curve) == pytest.approx(slope, abs=1e-9)

    def test_degenerate(self):
        with pytest.raises(DegenerateInput):
            weighted_slope(np.array([1.0]))


class TestModifiedSharpe:
    def test_perfect_sentinel(self):
        actual = levels_from_returns([0.02, -0.01, 0.03])
        pred = forecasts_for_positions(actual, [+1, -1, +1])
        report = equity_curves(pred, actual)
        assert modified_sharpe(report) is PERFECT_STRATEGY
        assert report.ism is PERFECT_STRATEGY

    def test_constructed_arithmetic(self):
        pe = np.array([2.0, 4.0, 6.0])
        report = EquityReport(eq=0.5 * pe, pe=pe, failures=[(1, 0.05)], ave_negative_vol=0.05)
        assert modified_sharpe(report) == pytest.approx(10.0, rel=1e-12)
        assert report.q_ratio == pytest.approx(0.5, rel=1e-12)

    def test_zero_perfect_slope(self):
        report = EquityReport(eq=np.zeros(5), pe=np.zeros(5), failures=[(1, 0.1)],
                              ave_negative_vol=0.1)
        with pytest.raises(ZeroPerfectSlope):
            modified_sharpe(report)

    def test_sign_matches_q(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            actual = levels_from_returns(rng.uniform(-0.08, 0.08, size=25))
            pred = actual * rng.uniform(0.95, 1.05, size=26)
            report = equity_curves(pred, actual)
            ism = modified_sharpe(report)
            if ism is not PERFECT_STRATEGY and ism != 0:
                assert math.copysign(1, ism) == math.copysign(1, report.q_ratio)

    def test_scale_invariance(self):
        rng = np.random.default_rng(16)
        actual = levels_from_returns(rng.uniform(-0.06, 0.06, size=30))
        pred = actual * rng.uniform(0.96, 1.04, size=31)
        base = modified_sharpe(equity_curves(pred, actual))
        for c in (0.01, 3.0, 1000.0):
            scaled = modified_sharpe(equity_curves(c * pred, c * actual))
            assert scaled == pytest.approx(base, rel=1e-9)

    # one month's move: none, one to three doubles up or down (the smallest
    # nonzero log returns), or a relative change of up to 20%
    MOVES = st.one_of(st.just(("flat", 0)), st.tuples(st.just("ulps"), st.integers(-3, 3)),
                      st.tuples(st.just("rel"), st.floats(-0.2, 0.2)))

    @staticmethod
    def moved(level, move):
        kind, size = move
        if kind == "ulps":
            for _ in range(abs(size)):
                level = float(np.nextafter(level, math.copysign(math.inf, size)))
            return level
        return level * (1.0 + size) if kind == "rel" else level

    @settings(max_examples=300, deadline=None)
    @given(start=st.floats(1e-3, 1e3), months=st.lists(st.tuples(MOVES, st.booleans()),
                                                       min_size=2, max_size=30))
    def test_perfect_exactly_without_failures(self, start, months):
        actual = [start]
        for move, _ in months:
            actual.append(self.moved(actual[-1], move))
        actual = np.array(actual)
        report = equity_curves(forecasts_for_positions(actual, [1 if up else -1
                                                               for _, up in months]), actual)
        if not report.pe.any():  # no move at all
            with pytest.raises(ZeroPerfectSlope):
                modified_sharpe(report)
            return
        ism = modified_sharpe(report)
        if report.failures:
            assert math.isfinite(ism) and ism is not PERFECT_STRATEGY
        else:
            assert ism is PERFECT_STRATEGY and report.ism is PERFECT_STRATEGY

    def test_sentinel_ordering(self):
        assert PERFECT_STRATEGY > 1e18
        assert not (PERFECT_STRATEGY < 5.0)
        assert PERFECT_STRATEGY == math.inf
        assert sorted([2.0, PERFECT_STRATEGY, -1.0])[-1] is PERFECT_STRATEGY


class TestMeanAbsError:
    def test_identical(self):
        assert mean_abs_error(np.ones(4), np.ones(4)) == 0.0

    def test_hand_case(self):
        assert mean_abs_error(np.array([1.0, 2.0]), np.array([2.0, 4.0])) == 1.5

    def test_mismatch(self):
        with pytest.raises(LengthMismatch):
            mean_abs_error(np.ones(3), np.ones(2))


class TestCountOutliers:
    def test_band_above(self):
        assert count_outliers(np.array([10.0, 20.0]), np.array([50.0, 50.0])) == 0

    def test_hand_case(self):
        falls = np.array([10.0, 120.0, 80.0, 300.0])
        band = np.array([100.0, 100.0, 100.0, 100.0])
        assert count_outliers(falls, band) == 2


class TestExcessPredictability:
    def test_all_long_degenerate(self):
        actual = levels_from_returns(np.full(15, 0.01))
        pred = actual * 1.05
        with pytest.raises(DegenerateStrategy):
            excess_predictability(pred, actual)

    def test_formula_against_hand_computation(self):
        rng = np.random.default_rng(20)
        y = rng.standard_normal(40) * 0.05
        s = rng.choice([-1.0, 1.0], size=40)
        res = excess_predictability_from_positions(s, y)
        t = 40
        a = np.mean(s * y)
        b = np.mean(s) * np.mean(y)
        p = 0.5 * (1 + np.mean(s))
        v = 4.0 / t**2 * p * (1 - p) * np.sum((y - y.mean()) ** 2)
        assert res.a_t == pytest.approx(a, abs=1e-15)
        assert res.b_t == pytest.approx(b, abs=1e-15)
        assert res.variance_hat == pytest.approx(v, rel=1e-12)
        assert res.statistic == pytest.approx((a - b) / math.sqrt(v), rel=1e-12)
        assert res.norm_ep == stats.norm.cdf(res.statistic) * 100

    @settings(max_examples=300, deadline=None)
    @given(statistic=st.one_of(
        st.sampled_from([0.0, -0.0, math.inf, -math.inf, 40.5, -40.5, 1e300, -1e300, 5e-324,
                         *NDTR_EDGES]),
        st.floats(allow_nan=False)))
    def test_norm_ep_bit_equals_scipy_stats(self, statistic):
        got = normal_cdf_percent(statistic)
        want = float(stats.norm.cdf(statistic)) * 100
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)

    def test_norm_ep_sweep_bit_equals_scipy_special(self):
        # about 10^5 arguments: a grid over +-45 that crosses every branch, and
        # the 1,000 doubles either side of each branch point
        ulps = np.arange(-1000, 1001)
        near = [(np.array([b]).view(np.int64) + ulps).view(np.float64) for b in NDTR_BRANCHES]
        args = np.concatenate([np.linspace(-45.0, 45.0, 84_001), *near,
                               [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.2e-308]])
        got = np.array([normal_cdf_percent(a) for a in args.tolist()])
        want = ndtr(args) * 100.0
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_norm_ep_of_nan_is_nan(self):
        assert math.isnan(normal_cdf_percent(math.nan))
        assert math.isnan(float(stats.norm.cdf(math.nan)))

    def test_antisymmetric_under_position_flip(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            y = rng.standard_normal(30) * 0.02
            s = rng.choice([-1.0, 1.0], size=30)
            if abs(s.sum()) == 30:
                continue
            plus = excess_predictability_from_positions(s, y)
            minus = excess_predictability_from_positions(-s, y)
            assert minus.statistic == pytest.approx(-plus.statistic, abs=1e-9)

    def test_norm_ep_strictly_increasing(self):
        rng = np.random.default_rng(22)
        results = []
        for seed in range(30):
            y = np.random.default_rng(seed).standard_normal(25) * 0.04
            s = rng.choice([-1.0, 1.0], size=25)
            if abs(s.sum()) == 25:
                continue
            results.append(excess_predictability_from_positions(s, y))
        results.sort(key=lambda r: r.statistic)
        eps = [r.norm_ep for r in results]
        assert all(a < b for a, b in zip(eps, eps[1:]) if a != b)
        assert all(0 <= e <= 100 for e in eps)

    def test_too_short(self):
        with pytest.raises(DegenerateInput):
            excess_predictability_from_positions(np.array([1.0, -1.0]), np.array([0.1, 0.2]))


class TestDirectionalAccuracy:
    def test_perfect(self):
        actual = levels_from_returns([0.02, -0.01, 0.04])
        pred = forecasts_for_positions(actual, [+1, -1, +1])
        assert directional_accuracy(pred, actual) == 1.0

    def test_inverted(self):
        actual = levels_from_returns([0.02, -0.01, 0.04])
        pred = forecasts_for_positions(actual, [-1, +1, -1])
        assert directional_accuracy(pred, actual) == 0.0

    def test_mixed_matches_hand_count(self):
        rng = np.random.default_rng(23)
        actual = levels_from_returns(rng.uniform(-0.05, 0.05, size=50))
        pred = actual * rng.uniform(0.97, 1.03, size=51)
        hits = 0
        for t in range(1, 51):
            pos = 1.0 if pred[t] >= actual[t - 1] else -1.0
            if pos * math.log(actual[t] / actual[t - 1]) >= 0:
                hits += 1
        assert directional_accuracy(pred, actual) == pytest.approx(hits / 50)


class TestDivergence:
    def test_unanimous_up(self):
        votes = np.ones((10, 4))
        assert np.allclose(divergence_percentage(votes), 100.0)

    def test_split_half(self):
        votes = np.vstack([np.ones((5, 3)), -np.ones((5, 3))])
        assert np.allclose(divergence_percentage(votes), 50.0)

    def test_seven_of_ten(self):
        votes = np.vstack([np.ones((7, 1)), -np.ones((3, 1))])
        assert divergence_percentage(votes).tolist() == [70.0]

    def test_empty(self):
        with pytest.raises(EmptyEnsemble):
            divergence_percentage(np.empty((0, 5)))


class TestOlsFit:
    def test_noiseless_line(self):
        x = np.linspace(0, 10, 20)
        y = 3.0 * x + 1.0
        res = ols_fit(x, y)
        assert res.slope == pytest.approx(3.0, abs=1e-9)
        assert res.r_squared == pytest.approx(1.0, abs=1e-12)
        assert res.p_value < 1e-12
        assert res.r == pytest.approx(1.0, abs=1e-12)

    def test_centered_intercept_is_mean(self):
        # y = a + b (x - x_bar) exactly: the centered intercept recovers a
        rng = np.random.default_rng(24)
        x = rng.uniform(50, 150, size=89)
        a, b = 1812.6, -9.55
        y = a + b * (x - x.mean())
        res = ols_fit(x, y)
        assert res.intercept == pytest.approx(a, rel=1e-12)
        assert res.slope == pytest.approx(b, rel=1e-12)

    def test_matches_normal_equation_oracle(self):
        rng = np.random.default_rng(25)
        for _ in range(30):
            n = int(rng.integers(5, 80))
            x = rng.standard_normal(n) * 10
            y = rng.standard_normal(n) * 5
            res = ols_fit(x, y)
            a = np.array([[n, x.sum()], [x.sum(), (x * x).sum()]])
            b = np.array([y.sum(), (x * y).sum()])
            intercept0, slope = np.linalg.solve(a, b)
            assert res.slope == pytest.approx(slope, abs=1e-9)
            assert res.intercept == pytest.approx(intercept0 + slope * x.mean(), abs=1e-9)
            corr = np.corrcoef(x, y)[0, 1]
            assert res.r_squared == pytest.approx(corr * corr, abs=1e-9)
            assert res.r == pytest.approx(abs(corr), abs=1e-9)
            se = math.sqrt(
                ((y - intercept0 - slope * x) ** 2).sum()
                / (n - 2)
                / ((x - x.mean()) ** 2).sum()
            )
            p = 2 * stats.t.sf(abs(slope / se), n - 2)
            assert res.p_value == pytest.approx(p, abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(3, 90), seed=st.integers(0, 2**16), slope=st.sampled_from([0.0, 0.3, 5.0]))
    def test_p_value_bit_equals_scipy_stats(self, n, seed, slope):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        y = slope * x + rng.standard_normal(n)
        res = ols_fit(x, y)
        # the t statistic, computed as ols_fit computes it
        x_c, y_c = x - x.mean(), y - y.mean()
        sxx = float(np.dot(x_c, x_c))
        b = float(np.dot(x_c, y_c)) / sxx
        residuals = y_c - b * x_c
        t = b / math.sqrt(float(np.dot(residuals, residuals)) / (n - 2) / sxx)
        assert res.p_value == 2 * stats.t.sf(abs(t), n - 2)

    @settings(max_examples=300, deadline=None)
    @given(t=st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf, 40.5, -40.5, 1e300]),
                       st.floats(allow_nan=False)),
           df=st.one_of(st.integers(1, 5), st.integers(1, 10**6)))
    def test_two_sided_t_p_bit_equals_scipy_stats(self, t, df):
        assert two_sided_t_p(t, df) == 2 * float(stats.t.sf(abs(t), df))

    def test_probability_consistent_with_r_squared(self):
        # r^2 = 0.09 over n = 89 implies a slope t-stat near 2.933 and a
        # two-sided probability near 0.0043, whatever the data scale.
        rng = np.random.default_rng(26)
        x = rng.standard_normal(89)
        y = 0.3 * x + np.sqrt(1 - 0.09) * rng.standard_normal(89)
        # construct exact r^2 = 0.09 via projection
        x_c = (x - x.mean()) / np.linalg.norm(x - x.mean())
        y_c = y - y.mean()
        y_perp = y_c - (y_c @ x_c) * x_c
        y_exact = 0.3 * x_c + math.sqrt(0.91) * y_perp / np.linalg.norm(y_perp)
        res = ols_fit(x_c, y_exact)
        assert res.r_squared == pytest.approx(0.09, abs=1e-12)
        assert res.p_value == pytest.approx(0.004285, abs=2e-4)

    def test_constant_regressor(self):
        with pytest.raises(ConstantRegressor):
            ols_fit(np.full(10, 2.0), np.arange(10.0))


class TestPositions:
    def test_tie_goes_long(self):
        actual = np.array([100.0, 100.0])
        pred = np.array([0.0, 100.0])
        assert positions_from_forecasts(pred, actual).tolist() == [1.0]
