"""VaR, smoothing, block averages, normalization, and matrix assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreadnet import preprocess
from spreadnet.errors import (
    IndexOutOfRange,
    InsufficientHistory,
    InsufficientRows,
    MissingColumn,
    NonPositiveValue,
    ZeroTrailingMean,
)
from spreadnet.preprocess import (
    BaseSetSpec,
    BlockAverageConfig,
    OUTPUT_COLUMN,
    SmoothingConfig,
    TrainingMatrix,
    VarConfig,
    assemble_base_sets,
    block_average,
    block_average_column,
    build_derived_columns,
    build_lagged_matrix,
    default_base_sets,
    denormalize_output,
    double_smooth,
    ema_smooth,
    grid_search_var_params,
    historical_var,
    normalize_output,
    rolling_var,
)
from spreadnet.series import AlignedFrame, MonthlySeries, parse_month


def brute_force_var(window_values, rank):
    """Independent oracle: sort the window ascending, pick rank, flip sign."""
    return -sorted(window_values)[rank - 1]


def months(start, n):
    return np.arange(parse_month(start), parse_month(start) + n)


class TestHistoricalVar:
    def test_rank_rule(self):
        assert VarConfig(window=65, confidence=0.95).rank == 3
        assert VarConfig(window=50, confidence=0.95).rank == 2
        assert VarConfig(window=80, confidence=0.95).rank == 4
        assert VarConfig(window=20, confidence=0.99).rank == 1  # floor 0.2 -> min 1

    def test_first_window_hand_case(self):
        # Three most negative returns in the first window: -300, -200, -150.
        # The sort-and-pick oracle with k=3 selects -150; sign-flipped 150.
        values = np.concatenate([[-300.0, -200.0, -150.0], np.arange(1.0, 63.0), [10.0]])
        assert len(values) == 66
        band = rolling_var(values, VarConfig(window=65, confidence=0.95))
        assert band.shape == (1,)
        assert band[0] == brute_force_var(values[:65], rank=3) == 150.0

    def test_constant_window_negative_var(self):
        values = np.full(66, 10.0)
        band = rolling_var(values, VarConfig(window=65))
        assert band[0] == -10.0  # no fall in the window: "loss" of -10

    def test_insufficient_history(self):
        with pytest.raises(InsufficientHistory):
            rolling_var(np.zeros(64), VarConfig(window=65))

    def test_matches_brute_force_on_random_windows(self):
        cfg = VarConfig(window=65, confidence=0.95)
        rng = np.random.default_rng(42)
        values = rng.standard_normal(565) * 150.0
        band = rolling_var(values, cfg)
        assert len(band) == 500
        for t in range(500):
            assert band[t] == brute_force_var(values[t : t + 65], cfg.rank)

    def test_series_dating(self):
        rng = np.random.default_rng(1)
        s = MonthlySeries("r", months("2000-01", 70), rng.standard_normal(70))
        out = historical_var(s, VarConfig(window=65))
        assert len(out) == 5
        assert out.months[0] == s.months[65]


def numpy_scalar_ema(values, cfg):
    """The compound moving average as a loop over numpy scalars: the bits that
    ``ema_smooth`` keeps."""
    x = np.asarray(values, dtype=np.float64)
    out = np.empty_like(x)
    prev = float(x[0]) if cfg.seed_value is None else float(cfg.seed_value)
    with np.errstate(all="ignore"):  # numpy scalars warn on overflow; the bits are the point
        for i, p in enumerate(x):
            prev = cfg.beta * p + (1.0 - cfg.beta) * prev
            out[i] = prev
    return out


class TestEmaSmooth:
    @settings(max_examples=300)
    @given(values=st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                     st.floats(-1e3, 1e3), st.sampled_from([-0.0, 0.0])),
                           min_size=1, max_size=120),
           beta=st.one_of(st.floats(0.0, 1.0, exclude_min=True), st.sampled_from([0.1, 1.0])),
           seed_value=st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False),
                                st.sampled_from([-0.0, 0.0])))
    def test_equals_the_numpy_scalar_loop(self, values, beta, seed_value):
        cfg = SmoothingConfig(beta=beta, seed_value=seed_value)
        got = ema_smooth(np.array(values), cfg)
        assert got.dtype == np.float64 and got.shape == (len(values),)
        assert got.tobytes() == numpy_scalar_ema(values, cfg).tobytes()

    def test_beta_one_identity(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(30)
        assert np.array_equal(ema_smooth(x, SmoothingConfig(beta=1.0)), x)

    def test_constant_fixed_point(self):
        x = np.full(10, 7.5)
        out = ema_smooth(x, SmoothingConfig(beta=0.1, seed_value=7.5))
        assert np.allclose(out, 7.5)

    def test_two_step_hand_unrolled(self):
        out = ema_smooth(np.array([100.0, 100.0]), SmoothingConfig(beta=0.1, seed_value=0.0))
        assert out.tolist() == [10.0, 19.0]

    def test_default_seed_is_first_observation(self):
        out = ema_smooth(np.array([40.0, 50.0]), SmoothingConfig(beta=0.5))
        assert out.tolist() == [40.0, 45.0]

    def test_output_within_seed_input_envelope(self):
        rng = np.random.default_rng(3)
        for beta in (0.05, 0.3, 1.0):
            x = rng.uniform(-5, 5, size=50)
            out = ema_smooth(x, SmoothingConfig(beta=beta, seed_value=1.0))
            for t in range(len(x)):
                seen = np.concatenate([[1.0], x[: t + 1]])
                assert seen.min() - 1e-12 <= out[t] <= seen.max() + 1e-12


class TestDoubleSmooth:
    def test_beta_one_identity(self):
        x = np.arange(8.0)
        assert np.array_equal(double_smooth(x, SmoothingConfig(beta=1.0)), x)

    def test_constant_fixed_point(self):
        out = double_smooth(np.full(6, 3.0), SmoothingConfig(beta=0.1, seed_value=3.0))
        assert np.allclose(out, 3.0)

    def test_hand_unrolled(self):
        out = double_smooth(np.array([100.0, 100.0]), SmoothingConfig(beta=0.1, seed_value=0.0))
        assert np.allclose(out, [1.0, 2.8], atol=1e-12)


class TestBlockAverage:
    def test_single_point_window(self):
        s = np.array([5.0, 6.0, 7.0, 8.0])
        assert block_average(s, BlockAverageConfig(M=0, n=2), t=3) == s[1]

    def test_constant(self):
        s = np.full(10, 4.2)
        assert block_average(s, BlockAverageConfig(M=4, n=3), t=7) == pytest.approx(4.2)

    def test_hand_case(self):
        s = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        assert block_average(s, BlockAverageConfig(M=2, n=2), t=4) == 3.0

    def test_out_of_range(self):
        s = np.arange(5.0)
        with pytest.raises(IndexOutOfRange):
            block_average(s, BlockAverageConfig(M=2, n=2), t=2)  # needs index -1

    def test_commutes_with_constant_shift(self):
        rng = np.random.default_rng(4)
        s = rng.standard_normal(30)
        cfg = BlockAverageConfig(M=4, n=3)
        for t in (6, 12, 25):
            assert block_average(s + 11.0, cfg, t) == pytest.approx(
                block_average(s, cfg, t) + 11.0, abs=1e-12
            )

    def test_column_dating(self):
        s = MonthlySeries("v", months("2000-01", 20), np.arange(20.0))
        col = block_average_column(s, BlockAverageConfig(M=2, n=2))
        # first full window needs t >= n + M/2 = 3
        assert col.months[0] == s.months[3]
        assert col.months[-1] == s.months[-1]
        assert col.values[0] == np.mean(np.arange(20.0)[0:3])

    @settings(max_examples=200)
    @given(
        values=st.lists(
            st.tuples(st.floats(1e-3, 1e6), st.booleans()).map(lambda v: -v[0] if v[1] else v[0]),
            min_size=2, max_size=300,
        ),
        level=st.integers(0, 10).flatmap(
            lambda half: st.integers(1, half + 5).map(lambda n: BlockAverageConfig(2 * half, n))
        ),
    )
    def test_column_equals_scalar_loop(self, values, level):
        # windows of up to 21 points cross numpy's 8-element pairwise-sum blocks;
        # n < M/2 trims the windows that would reach past the data
        s = MonthlySeries("v", months("2000-01", len(values)), np.array(values))
        scalar = {}
        for t in range(len(s)):
            try:
                scalar[t] = block_average(s.values, level, t)
            except IndexOutOfRange:
                pass
        if not scalar:
            with pytest.raises(InsufficientHistory):
                block_average_column(s, level)
            return
        col = block_average_column(s, level)
        assert col.months.tolist() == s.months[sorted(scalar)].tolist()
        assert np.array_equal(col.values, [scalar[t] for t in sorted(scalar)])


class TestNormalizeOutput:
    def test_constant_series_zeroes(self):
        out = normalize_output(np.full(8, 50.0))
        assert np.allclose(out, 0.0)
        assert len(out) == 5

    def test_hand_case(self):
        out = normalize_output(np.array([100.0, 100.0, 100.0, 110.0]))
        assert out.tolist() == [0.1]

    def test_zero_trailing_mean(self):
        with pytest.raises(ZeroTrailingMean):
            normalize_output(np.array([0.0, 0.0, 0.0, 5.0]))

    def test_denormalize_hand_case(self):
        assert denormalize_output(0.1, np.array([100.0, 100.0, 100.0])) == pytest.approx(110.0)

    def test_denormalize_zero_change(self):
        assert denormalize_output(0.0, np.array([90.0, 95.0, 100.0])) == 100.0

    def test_roundtrip(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            x = 100.0 * np.exp(np.cumsum(rng.uniform(-0.2, 0.2, size=30)))
            mod = normalize_output(x)
            rebuilt = np.array(
                [denormalize_output(mod[i], x[i : i + 3]) for i in range(len(mod))]
            )
            assert np.allclose(rebuilt, x[3:], rtol=1e-12, atol=1e-12)


def little_frame(n=130, seed=9):
    rng = np.random.default_rng(seed)
    m = months("2000-01", n)
    cols = {
        "a": rng.uniform(1, 2, size=n),
        "b": rng.uniform(1, 2, size=n),
        OUTPUT_COLUMN: 100.0 * np.exp(np.cumsum(rng.uniform(-0.1, 0.1, size=n))),
    }
    return AlignedFrame(m, cols)


class TestBuildLaggedMatrix:
    spec = BaseSetSpec(1, ("a", "b"), lags=(1,))

    def levels(self, frame):
        return MonthlySeries("levels", frame.months, frame.columns[OUTPUT_COLUMN])

    def test_lag_zero_shares_dates(self):
        frame = little_frame(40)
        m = build_lagged_matrix(frame, self.spec, 0, self.levels(frame))
        assert np.array_equal(m.months_in(), m.months_out)

    def test_row_date_invariant_exhaustive(self):
        frame = little_frame(60)
        for lag in range(0, 11):
            m = build_lagged_matrix(frame, self.spec, lag, self.levels(frame))
            assert np.array_equal(m.months_in() + lag, m.months_out)
            # input rows carry the values dated months_out - lag
            for i in (0, m.rows - 1):
                src = int(m.months_out[i] - lag - frame.months[0])
                assert m.inputs[i, 0] == frame.columns["a"][src]

    def test_cap_at_89_most_recent(self):
        frame = little_frame(130)
        m = build_lagged_matrix(frame, self.spec, 5, self.levels(frame))
        assert m.rows == 89
        assert m.months_out[-1] == frame.months[-1]  # oldest rows dropped

    def test_insufficient_rows(self):
        frame = little_frame(35)
        with pytest.raises(InsufficientRows):
            build_lagged_matrix(frame, self.spec, 10, self.levels(frame))

    def test_missing_column(self):
        frame = little_frame(40)
        spec = BaseSetSpec(1, ("a", "missing"), lags=(1,))
        with pytest.raises(MissingColumn):
            build_lagged_matrix(frame, spec, 1, self.levels(frame))

    def test_normalized_recipe_prior_levels(self):
        frame = little_frame(50)
        levels = self.levels(frame)
        norm = normalize_output(frame.columns[OUTPUT_COLUMN])
        norm_frame = AlignedFrame(
            frame.months[3:],
            {
                "a": frame.columns["a"][3:],
                "b": frame.columns["b"][3:],
                OUTPUT_COLUMN: norm,
            },
        )
        spec = BaseSetSpec(8, ("a", "b"), output_recipe="normalized", lags=(2,))
        m = build_lagged_matrix(norm_frame, spec, 2, levels)
        # denormalizing the true normalized outputs must reproduce the levels
        rebuilt = m.denormalize_predictions(m.output)
        assert np.allclose(rebuilt, m.output_levels, rtol=1e-12)
        # one levels array, from three months before the first row, month by month
        first = int(m.months_out[0]) - 3
        by_month = [levels.value_at(k) for k in range(first, first + m.rows + 3)]
        assert np.array_equal(m.levels, by_month)
        assert np.array_equal(m.output_levels, m.levels[3:])

    @pytest.mark.parametrize("recipe, lo, hi", [
        ("raw", 1, 50),          # levels start after the first row's month
        ("raw", 0, 49),          # ... or end before the last row's month
        ("normalized", 3, 50),   # levels lack the three months before the first row
    ])
    def test_levels_must_cover_rows(self, recipe, lo, hi):
        frame = little_frame(50)
        if recipe == "normalized":
            frame = AlignedFrame(frame.months[3:], {k: v[3:] for k, v in frame.columns.items()})
        levels = self.levels(little_frame(50))
        short = MonthlySeries("levels", levels.months[lo:hi], levels.values[lo:hi])
        spec = BaseSetSpec(8, ("a", "b"), output_recipe=recipe, lags=(0,))
        build_lagged_matrix(frame, spec, 0, levels)  # the full series covers them
        with pytest.raises(InsufficientHistory, match="do not cover"):
            build_lagged_matrix(frame, spec, 0, short)

    def test_slice_rows_keeps_history(self):
        frame = little_frame(50)
        levels = self.levels(frame)
        norm = normalize_output(frame.columns[OUTPUT_COLUMN])
        norm_frame = AlignedFrame(
            frame.months[3:],
            {"a": frame.columns["a"][3:], "b": frame.columns["b"][3:], OUTPUT_COLUMN: norm},
        )
        spec = BaseSetSpec(8, ("a", "b"), output_recipe="normalized", lags=(1,))
        m = build_lagged_matrix(norm_frame, spec, 1, levels)
        tail = m.slice_rows(30, m.rows)
        rebuilt = tail.denormalize_predictions(tail.output)
        assert np.allclose(rebuilt, tail.output_levels, rtol=1e-12)


class TestDenormalizePredictions:
    """The vectorised inverse equals the normalized-difference inverse written out."""

    @staticmethod
    def normalized_matrix(levels, rows):
        """A normalized-recipe matrix of ``rows`` rows whose levels start 3 months earlier."""
        return TrainingMatrix(
            base_set_id=8,
            lag=1,
            input_names=("a",),
            inputs=np.zeros((rows, 1)),
            output=np.zeros(rows),
            months_out=np.arange(rows),
            output_recipe="normalized",
            levels=levels,
        )

    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 2**16),
        rows=st.integers(1, 89),
        scale=st.sampled_from([1e-3, 1.0, 250.0, 1e5]),
        start=st.integers(0, 88),
    )
    def test_bit_identical_to_row_by_row(self, seed, rows, scale, start):
        rng = np.random.default_rng(seed)
        full = scale * rng.uniform(0.5, 2.0, size=rows + 3)
        matrix = self.normalized_matrix(full, rows)
        if start < rows:  # also through a slice, whose prior comes from the parent
            matrix = matrix.slice_rows(start, rows)
            full = full[start:]
        predicted = rng.normal(0.0, 0.2, size=matrix.rows)
        # p * mean(a, b, c) + c over the three actual levels before each row
        rowwise = np.array([
            p * ((a + b + c) / 3) + c
            for p, (a, b, c) in zip(predicted, zip(full, full[1:], full[2:]))
        ])
        assert np.array_equal(matrix.denormalize_predictions(predicted), rowwise)

    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 2**16),
        rows=st.integers(1, 60),
        models=st.integers(1, 6),
        recipe=st.sampled_from(["raw", "normalized"]),
        start=st.integers(0, 59),
    )
    def test_stack_equals_row_by_row(self, seed, rows, models, recipe, start):
        # a (models, rows) stack of predictions, as one scoring call denormalizes them
        rng = np.random.default_rng(seed)
        full = rng.uniform(0.5, 2.0, size=rows + 3)
        if recipe == "normalized":
            matrix = self.normalized_matrix(full, rows)
        else:
            matrix = TrainingMatrix(base_set_id=8, lag=1, input_names=("a",),
                                    inputs=np.zeros((rows, 1)), output=full[3:],
                                    months_out=np.arange(rows))
        if start < rows:
            matrix = matrix.slice_rows(start, rows)
        stack = rng.normal(0.0, 0.2, size=(models, matrix.rows))
        got = matrix.denormalize_predictions(stack)
        want = np.array([matrix.denormalize_predictions(row) for row in stack])
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_zero_trailing_mean(self):
        matrix = self.normalized_matrix(np.array([1.0, -1.0, 0.0, 1.0, 2.0, 3.0]), 3)
        with pytest.raises(ZeroTrailingMean):
            matrix.denormalize_predictions(np.zeros(3))

    def test_missing_prior_levels(self):
        # levels that start at the first row leave it no history: rejected up front
        with pytest.raises(ValueError, match="3 \\+ 5 levels"):
            self.normalized_matrix(np.arange(1.0, 6.0), 5)
        with pytest.raises(ValueError, match="3 \\+ 5 levels"):
            self.normalized_matrix(None, 5)


class TestAssembleBaseSets:
    def test_chart_structure(self, demo_frame):
        matrices = assemble_base_sets(demo_frame)
        assert len(matrices) == 64
        by_set = {}
        for m in matrices:
            by_set.setdefault(m.base_set_id, []).append(m)
        assert sorted(by_set) == list(range(1, 11))
        for set_id, lag_count in [(1, 10), (2, 10), (3, 1), (4, 1), (5, 1), (6, 1),
                                  (7, 10), (8, 10), (9, 10), (10, 10)]:
            assert len(by_set[set_id]) == lag_count
        for m in by_set[7]:
            assert not any(name.startswith("var") for name in m.input_names)
        for set_id in (8, 9, 10):
            assert all(m.output_recipe == "normalized" for m in by_set[set_id])
        assert "output_auto" in by_set[10][0].input_names

    def test_row_date_invariant_everywhere(self, demo_frame):
        for m in assemble_base_sets(demo_frame):
            assert np.array_equal(m.months_in() + m.lag, m.months_out)
            assert m.rows <= 89

    def test_missing_column_raises(self, demo_frame):
        broken = AlignedFrame(
            demo_frame.months,
            {k: v for k, v in demo_frame.columns.items() if k != "embi_global"},
        )
        with pytest.raises(MissingColumn):
            assemble_base_sets(broken)

    def test_enabled_filter(self, demo_frame):
        matrices = assemble_base_sets(demo_frame, enabled={7})
        assert {m.base_set_id for m in matrices} == {7}
        assert len(matrices) == 10

    def test_derived_columns_are_dated(self, demo_frame):
        derived = build_derived_columns(demo_frame)
        var = derived["var"]
        # VaR needs one month for returns plus the 65-month window
        assert var.months[0] == demo_frame.months[66]
        assert len(derived["var_smooth"]) == len(var)
        assert derived["output_normalized"].months[0] == demo_frame.months[3]


DERIVED_NAMES = ("var", "var_smooth", "var_double", "global", "tbill", "var_ma1", "var_ma2",
                 "output_raw", "output_normalized", "output_auto")


def with_column(frame, name, values):
    return AlignedFrame(frame.months, {**frame.columns, name: values})


class TestDerivedColumnsByName:
    def test_full_build_lists_every_column(self, demo_frame):
        assert tuple(build_derived_columns(demo_frame)) == DERIVED_NAMES

    @settings(max_examples=80)
    @given(names=st.sets(st.sampled_from(DERIVED_NAMES)))
    def test_named_columns_equal_full_build(self, demo_frame, names):
        full = build_derived_columns(demo_frame)
        built = build_derived_columns(demo_frame, names=names)
        for name in names | {"output_raw"}:
            assert built[name].name == full[name].name
            assert np.array_equal(built[name].months, full[name].months)
            assert np.array_equal(built[name].values, full[name].values)
        assert list(built) == [name for name in full if name in built]  # the full build's order

    @pytest.mark.parametrize("names, built", [
        ((), {"output_raw"}),
        (("global", "tbill"), {"global", "tbill", "output_raw"}),
        (("var_ma2",), {"var", "var_ma2", "output_raw"}),
        (("output_auto",), {"output_raw", "output_normalized", "output_auto"}),
    ])
    def test_only_named_columns_and_their_sources_are_built(self, demo_frame, names, built):
        assert set(build_derived_columns(demo_frame, names=names)) == built

    @pytest.mark.parametrize("source, names", [
        ("indicator_var_series", ("var_smooth", "var_double", "var_ma1", "var")),
        ("normalize_output", ("output_auto", "output_normalized")),
    ])
    def test_shared_source_built_once(self, demo_frame, monkeypatch, source, names):
        calls = []
        chain = getattr(preprocess, source)
        monkeypatch.setattr(preprocess, source, lambda *a: calls.append(1) or chain(*a))
        build_derived_columns(demo_frame, names=names)
        assert len(calls) == 1

    def test_unknown_name(self, demo_frame):
        with pytest.raises(MissingColumn, match="var_ma3"):
            build_derived_columns(demo_frame, names=("var", "var_ma3"))

    def test_unnamed_column_cannot_fail(self, demo_frame):
        # The one change from building every column: a fault in a column
        # nobody names no longer fails the call. Here a non-positive
        # indicator level breaks only the VaR chain.
        igaem = demo_frame.columns["igaem"].copy()
        igaem[100] = 0.0
        broken = with_column(demo_frame, "igaem", igaem)
        with pytest.raises(NonPositiveValue):
            build_derived_columns(broken)
        with pytest.raises(NonPositiveValue):
            assemble_base_sets(broken, enabled={7, 8})
        got = assemble_base_sets(broken, enabled={7})
        want = assemble_base_sets(demo_frame, enabled={7})
        assert len(got) == len(want) == 10
        for a, b in zip(got, want):
            assert np.array_equal(a.inputs, b.inputs) and np.array_equal(a.output, b.output)
            assert np.array_equal(a.months_out, b.months_out)

    def test_unnamed_output_transform_cannot_fail(self, demo_frame):
        # a zero trailing mean breaks only the normalized output
        output = demo_frame.columns["embi_venezuela"].copy()
        output[10:13] = 0.0
        broken = with_column(demo_frame, "embi_venezuela", output)
        with pytest.raises(ZeroTrailingMean):
            assemble_base_sets(broken, enabled={1, 8})
        assert len(assemble_base_sets(broken, enabled={1})) == 10


class TestGridSearch:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        returns = rng.standard_normal(160) * 120.0
        windows = (50, 55, 60)
        betas = (1.0, 0.1)
        result = grid_search_var_params(returns, windows=windows, betas=betas)
        eval_len = len(returns) - max(windows)
        falls = -returns[-eval_len:]
        best = (None, None, np.inf)
        for i, w in enumerate(windows):
            rank = VarConfig(window=w).rank
            band_raw = np.array(
                [-sorted(returns[t - w : t])[rank - 1] for t in range(w, len(returns))]
            )
            for j, b in enumerate(betas):
                smoothed = []
                prev = band_raw[0]
                for p in band_raw:
                    prev = b * p + (1 - b) * prev
                    smoothed.append(prev)
                band = np.asarray(smoothed)[-eval_len:]
                eam = np.mean(np.abs(band - falls))
                outliers = int(np.sum(falls > band))
                assert result.eam[i, j] == pytest.approx(eam, rel=1e-12)
                assert result.outliers[i, j] == outliers
                if eam < best[2]:
                    best = (w, b, eam)
        assert result.best == (best[0], best[1])

    def test_insufficient_history(self):
        with pytest.raises(InsufficientHistory):
            grid_search_var_params(np.zeros(60), windows=(65,), betas=(1.0,))

    def test_beta_one_row_is_raw_band(self):
        rng = np.random.default_rng(18)
        returns = rng.standard_normal(140) * 90.0
        result = grid_search_var_params(returns, windows=(60,), betas=(1.0,))
        band = rolling_var(returns, VarConfig(window=60))[-result.eval_points :]
        falls = -returns[-result.eval_points :]
        assert result.eam[0, 0] == pytest.approx(np.mean(np.abs(band - falls)))


class TestTrainingMatrixValidation:
    def test_rejects_over_cap(self):
        with pytest.raises(ValueError, match="89"):
            TrainingMatrix(
                base_set_id=1,
                lag=1,
                input_names=("a",),
                inputs=np.zeros((95, 1)),
                output=np.ones(95),
                months_out=months("2000-01", 95),
            )

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            TrainingMatrix(
                base_set_id=1,
                lag=1,
                input_names=("a", "b"),
                inputs=np.zeros((10, 1)),
                output=np.ones(10),
                months_out=months("2000-01", 10),
            )

    def test_default_single_lag_is_one(self):
        specs = default_base_sets()
        assert specs[2].lags == (1,)
        assert specs[0].lags == tuple(range(1, 11))
