"""Rolling historical VaR, smoothing transforms, and training-matrix assembly.

The indicator's monthly log variations (in basis points) are turned into a
rolling loss-quantile band, optionally smoothed, and combined with the
global-spread and T-bill columns into ten declarative base sets. Each base
set yields one training matrix per lag, capped at the 89 most recent rows.

Canonical names of the aligned series consumed here: ``igaem``,
``embi_venezuela``, ``embi_global``, ``tbill``.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    IndexOutOfRange,
    InsufficientHistory,
    InsufficientRows,
    MissingColumn,
    ZeroTrailingMean,
)
from .metrics import count_outliers, mean_abs_error
from .series import (MonthlySeries, _check_months, _derived, format_month, log_returns,
                     to_basis_points)

# Canonical variable names expected among the aligned series.
INDICATOR = "igaem"
OUTPUT_VARIABLE = "embi_venezuela"
GLOBAL_SPREAD = "embi_global"
TBILL = "tbill"

# Sentinel base-set id for the stacking (master) matrix.
MASTER_SET_ID = 0


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VarConfig:
    """Rolling historical-VaR parameters."""

    window: int = 65
    confidence: float = 0.95

    def __post_init__(self):
        if self.window < 20:
            raise ValueError(f"window must be >= 20, got {self.window}")
        if not 0.5 < self.confidence < 1.0:
            raise ValueError(f"confidence must be in (0.5, 1), got {self.confidence}")

    @property
    def rank(self) -> int:
        """1-based ascending rank of the return picked out of each window.

        k = max(1, floor((1 - confidence) * window)); the selected return is
        the k-th smallest, i.e. the k-th worst fall. Window 65 at 95% gives
        k = 3 (the third-lowest observation).
        """
        return max(1, math.floor((1.0 - self.confidence) * self.window + 1e-9))


@dataclass(frozen=True)
class SmoothingConfig:
    """Compound (exponential) moving-average parameters.

    ``seed_value`` initializes the recursion; None seeds with the first
    observation, which avoids startup bias and keeps beta=1 an identity.
    """

    beta: float = 0.1
    seed_value: float | None = None

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")
        # finite: not NaN, not infinite, and no integer beyond every float (10**400)
        seed = self.seed_value
        if isinstance(seed, numbers.Real) and not abs(seed) <= sys.float_info.max:
            raise ValueError(f"seed_value must be finite or null, got {seed}")


@dataclass(frozen=True)
class BlockAverageConfig:
    """Centered block average: M+1 points centered n months before t."""

    M: int = 2
    n: int = 2

    def __post_init__(self):
        if self.M < 0 or self.M % 2 != 0:
            raise ValueError(f"M must be even and non-negative, got {self.M}")
        if self.n <= 0:
            raise ValueError(f"n must be positive, got {self.n}")


# Default moving-average levels over the VaR series (the source gives the
# averaging formula but not its parameters; both presets are causal: n >= M/2).
DEFAULT_MA_LEVELS: tuple[BlockAverageConfig, ...] = (
    BlockAverageConfig(M=2, n=2),
    BlockAverageConfig(M=4, n=3),
)


# ---------------------------------------------------------------------------
# Historical VaR
# ---------------------------------------------------------------------------


def rolling_var(returns_bp: np.ndarray, cfg: VarConfig) -> np.ndarray:
    """Rolling historical VaR over a bare return vector (basis points).

    For each t >= window, sorts the previous ``window`` returns ascending,
    takes the ``cfg.rank``-th smallest, and flips its sign so a fall reads
    as a positive loss magnitude. Output length = len(returns) - window.
    """
    values = np.asarray(returns_bp, dtype=np.float64)
    n = len(values)
    if n < cfg.window + 1:
        raise InsufficientHistory(
            f"need at least window+1 = {cfg.window + 1} returns, got {n}"
        )
    windows = np.lib.stride_tricks.sliding_window_view(values, cfg.window)[:-1]
    kth = np.partition(windows, cfg.rank - 1, axis=1)[:, cfg.rank - 1]
    return -kth


def historical_var(returns_bp: MonthlySeries, cfg: VarConfig) -> MonthlySeries:
    """Rolling historical VaR of a dated return series.

    The band value dated t is computed from the window ending at t-1, so it
    is a genuine ex-ante band for backtesting the month-t return.
    """
    band = rolling_var(returns_bp.values, cfg)
    return _derived(f"{returns_bp.name}_var", returns_bp.months[cfg.window :], band)


def indicator_var_series(levels: MonthlySeries, cfg: VarConfig) -> MonthlySeries:
    """Full chain from indicator levels: log variation -> bp -> rolling VaR."""
    return historical_var(to_basis_points(log_returns(levels)), cfg)


# ---------------------------------------------------------------------------
# Smoothing
# ---------------------------------------------------------------------------


def ema_smooth(values: np.ndarray, cfg: SmoothingConfig) -> np.ndarray:
    """Compound moving average MA_t = beta * P_t + (1 - beta) * MA_{t-1}.

    The recursion runs on Python floats: the same IEEE double operations, in
    the same order, as on numpy scalars, at a fraction of the cost per step.
    MA_0 starts from ``cfg.seed_value``, else from the first value.
    """
    x = np.asarray(values, dtype=np.float64)
    if len(x) == 0:
        raise ValueError("cannot smooth an empty vector")
    prev = float(x[0]) if cfg.seed_value is None else float(cfg.seed_value)
    b = cfg.beta
    out = []
    for p in x.tolist():
        prev = b * p + (1.0 - b) * prev
        out.append(prev)
    return np.array(out)


def double_smooth(values: np.ndarray, cfg: SmoothingConfig) -> np.ndarray:
    """Two passes of the compound moving average with the same parameters."""
    return ema_smooth(ema_smooth(values, cfg), cfg)


# ---------------------------------------------------------------------------
# Block averages
# ---------------------------------------------------------------------------


def block_average(values: np.ndarray, cfg: BlockAverageConfig, t: int) -> float:
    """Mean of the M+1 observations centered n positions before index t."""
    x = np.asarray(values, dtype=np.float64)
    half = cfg.M // 2
    lo = t - cfg.n - half
    hi = t - cfg.n + half
    if lo < 0 or hi >= len(x) or t < 0:
        raise IndexOutOfRange(
            f"block average at t={t} needs indices {lo}..{hi}, have 0..{len(x) - 1}"
        )
    return float(np.mean(x[lo : hi + 1]))


def block_average_column(s: MonthlySeries, cfg: BlockAverageConfig) -> MonthlySeries:
    """``block_average`` for every month where the window is in range.

    All windows are averaged in one call over a sliding view; each row is
    the same M+1 contiguous values ``block_average`` reduces, so the
    column equals the month-by-month loop bit for bit.
    """
    half = cfg.M // 2
    first = cfg.n + half          # earliest t with a full window
    last = len(s) - 1 + min(0, cfg.n - half)  # windows may not reach past the data
    if first > last:
        raise InsufficientHistory(
            f"series of length {len(s)} too short for block average (M={cfg.M}, n={cfg.n})"
        )
    # month t's window starts at index t - n - M/2, which is 0 for t = first
    windows = np.lib.stride_tricks.sliding_window_view(s.values, cfg.M + 1)
    vals = windows[: last - first + 1].mean(axis=-1)
    return _derived(f"{s.name}_ba{cfg.M}_{cfg.n}", s.months[first : last + 1], vals)


# ---------------------------------------------------------------------------
# Output normalization (normalized difference, and its exact inverse)
# ---------------------------------------------------------------------------


def normalize_output(values: np.ndarray) -> np.ndarray:
    """Normalized difference: (x_t - x_{t-1}) / mean(x_{t-1}, x_{t-2}, x_{t-3}).

    Output starts at the fourth observation (length = input length - 3).
    """
    x = np.asarray(values, dtype=np.float64)
    if len(x) < 4:
        raise ValueError(f"need at least 4 observations, got {len(x)}")
    trailing = (x[:-3] + x[1:-2] + x[2:-1]) / 3.0
    if np.any(trailing == 0.0):
        i = int(np.argmax(trailing == 0.0))
        raise ZeroTrailingMean(f"trailing 3-sample mean is zero at position {i + 3}")
    return (x[3:] - x[2:-1]) / trailing


def denormalize_output(mod_value: float | np.ndarray, history: np.ndarray) -> float | np.ndarray:
    """Invert the normalized difference given the three preceding actuals.

    ``history`` has shape (..., 3): the actual levels at t-3, t-2, t-1
    (oldest first) for each value of ``mod_value``. Returns the
    reconstructed level at t: a float for a single value, else an array.
    """
    h = np.asarray(history, dtype=np.float64)
    if h.shape[-1:] != (3,):
        raise ValueError(f"history must hold 3 values per row, got shape {h.shape}")
    m = h.mean(axis=-1)
    if (m == 0.0).any():
        raise ZeroTrailingMean("trailing 3-sample mean is zero")
    level = mod_value * m + h[..., 2]
    return float(level) if level.ndim == 0 else level


# ---------------------------------------------------------------------------
# Base-set specifications and training matrices
# ---------------------------------------------------------------------------

RAW_OUTPUT = "raw"
NORMALIZED_OUTPUT = "normalized"

LAG_SWEEP = tuple(range(1, 11))


@dataclass(frozen=True)
class BaseSetSpec:
    """Declarative recipe for one base set: inputs, output recipe, lags."""

    id: int
    input_columns: tuple[str, ...]
    output_recipe: str = RAW_OUTPUT
    lags: tuple[int, ...] = LAG_SWEEP

    def __post_init__(self):
        if self.output_recipe not in (RAW_OUTPUT, NORMALIZED_OUTPUT):
            raise ValueError(f"unknown output recipe {self.output_recipe!r}")
        if not self.lags:
            raise ValueError("lag list must be non-empty")


def default_base_sets(single_lag: int = 1) -> tuple[BaseSetSpec, ...]:
    """The ten stock base-set recipes.

    Sets 1, 2, 7, 8, 9, 10 sweep lags 1..10; sets 3-6 use one lag. Set 7
    deliberately omits every VaR-derived column (its original description
    lists the T-bill column twice; it is carried once). Sets 8-10 predict
    the normalized-difference output, and set 10 additionally feeds the
    lagged normalized output back in as an input.
    """
    one = (single_lag,)
    return (
        BaseSetSpec(1, ("var", "global", "tbill")),
        BaseSetSpec(2, ("var_smooth", "global", "tbill")),
        BaseSetSpec(3, ("var_double", "var_ma1", "var_ma2"), lags=one),
        BaseSetSpec(4, ("var_smooth", "var_ma1", "var_ma2"), lags=one),
        BaseSetSpec(5, ("var_double", "var_ma1", "global"), lags=one),
        BaseSetSpec(6, ("var_smooth", "var_ma1", "global"), lags=one),
        BaseSetSpec(7, ("global", "tbill")),
        BaseSetSpec(8, ("var", "global", "tbill"), output_recipe=NORMALIZED_OUTPUT),
        BaseSetSpec(9, ("var_smooth", "global", "tbill"), output_recipe=NORMALIZED_OUTPUT),
        BaseSetSpec(
            10,
            ("var_smooth", "global", "tbill", "output_auto"),
            output_recipe=NORMALIZED_OUTPUT,
        ),
    )


# Months of level history a matrix holds before its first row: the
# normalized recipe is inverted against the three actual levels before each row.
_PRIOR_MONTHS = {RAW_OUTPUT: 0, NORMALIZED_OUTPUT: 3}


@dataclass(frozen=True)
class TrainingMatrix:
    """Aligned input columns plus one output column for one (set, lag) pair.

    ``months_out`` dates each output row; the matching input row is dated
    ``months_out[i] - lag``. ``levels`` holds the raw target levels that
    predictions are scored (and, for the normalized recipe, inverted)
    against. For the normalized recipe it starts three months before the
    first row; for the raw recipe it starts at the first row and defaults
    to ``output``.
    """

    base_set_id: int
    lag: int
    input_names: tuple[str, ...]
    inputs: np.ndarray          # shape (rows, n_inputs)
    output: np.ndarray          # shape (rows,), in recipe units
    months_out: np.ndarray      # shape (rows,), int month keys
    output_recipe: str = RAW_OUTPUT
    levels: np.ndarray | None = None  # shape (prior + rows,)

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=np.float64)
        output = np.asarray(self.output, dtype=np.float64)
        months = np.asarray(self.months_out, dtype=np.int64)
        levels = (
            output.copy()
            if self.levels is None and self.output_recipe == RAW_OUTPUT
            else np.asarray(self.levels, dtype=np.float64)
        )
        rows = len(months)
        prior = _PRIOR_MONTHS[self.output_recipe]
        if inputs.shape != (rows, len(self.input_names)):
            raise ValueError(
                f"inputs shape {inputs.shape} does not match "
                f"{rows} rows x {len(self.input_names)} columns"
            )
        if output.shape != (rows,):
            raise ValueError("output length must equal the month axis")
        if levels.shape != (prior + rows,):
            raise ValueError(f"{self.output_recipe} recipe needs {prior} + {rows} levels, "
                             f"got shape {levels.shape}")
        if rows > MAX_MATRIX_ROWS:
            raise ValueError(f"matrix exceeds the {MAX_MATRIX_ROWS}-row cap: {rows}")
        _check_months(months, self.name)
        for arr in (inputs, output, months, levels):
            arr.setflags(write=False)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "output", output)
        object.__setattr__(self, "months_out", months)
        object.__setattr__(self, "levels", levels)

    @property
    def name(self) -> str:
        """``set07_lag03``, or ``master``: the matrix's, its model's and its export's name."""
        if self.base_set_id == MASTER_SET_ID:
            return "master"
        return f"set{self.base_set_id:02d}_lag{self.lag:02d}"

    @property
    def rows(self) -> int:
        return len(self.months_out)

    @property
    def n_inputs(self) -> int:
        return len(self.input_names)

    @property
    def output_levels(self) -> np.ndarray:
        """The actual level of each row's output month."""
        return self.levels[_PRIOR_MONTHS[self.output_recipe]:]

    def months_in(self) -> np.ndarray:
        return self.months_out - self.lag

    def denormalize_predictions(self, predicted: np.ndarray) -> np.ndarray:
        """Map predictions in recipe units, shape (..., rows) for the leading
        rows, back to actual levels.

        Uses realized history only; with lag >= 1 those values are known at
        prediction time. Raw-recipe predictions pass through untouched. A
        stack of prediction rows (one per model) maps each row exactly as
        it would alone.
        """
        predicted = np.asarray(predicted, dtype=np.float64)
        if self.output_recipe == RAW_OUTPUT:
            return predicted.copy()
        # row i's history: the three actual levels before its month, oldest first
        histories = np.lib.stride_tricks.sliding_window_view(self.levels, 3)
        return denormalize_output(predicted, histories[: predicted.shape[-1]])

    def slice_rows(self, start: int, stop: int) -> "TrainingMatrix":
        """Contiguous row slice carrying its own inverse-normalization history."""
        if not 0 <= start < stop <= self.rows:
            raise ValueError(f"bad slice [{start}:{stop}] of {self.rows} rows")
        return TrainingMatrix(
            base_set_id=self.base_set_id,
            lag=self.lag,
            input_names=self.input_names,
            inputs=self.inputs[start:stop],
            output=self.output[start:stop],
            months_out=self.months_out[start:stop],
            output_recipe=self.output_recipe,
            levels=self.levels[start : stop + _PRIOR_MONTHS[self.output_recipe]],
        )


MIN_MATRIX_ROWS = 30
MAX_MATRIX_ROWS = 89


def build_lagged_matrix(
    derived: dict[str, MonthlySeries],
    spec: BaseSetSpec,
    lag: int,
) -> TrainingMatrix:
    """Pair input rows dated m with the output dated m + lag.

    ``derived`` must hold every ``spec.input_columns`` entry, the recipe's
    ``output_<recipe>`` column and ``output_raw``, the raw target levels used
    for scoring and for inverse-normalization history. The rows span the
    months that all of the set's columns (its inputs and its output) cover,
    less the lag, and keep the most recent 89; ``output_raw`` must cover the
    rows' months (and, for the normalized recipe, the three before them).
    """
    names = (*spec.input_columns, f"output_{spec.output_recipe}")
    for name in (*names, "output_raw"):
        if name not in derived:
            raise MissingColumn(f"base set {spec.id}: no column {name!r}")
    if lag < 0:
        raise ValueError(f"lag must be >= 0, got {lag}")
    covered = [derived[name] for name in names]  # the set's columns: inputs, then output
    first = max(s.first_month for s in covered)
    last = min(s.last_month for s in covered)
    *columns, out = covered
    rows = last - first + 1 - lag
    if rows < MIN_MATRIX_ROWS:
        raise InsufficientRows(
            f"base set {spec.id} lag {lag}: {rows} rows remain, need {MIN_MATRIX_ROWS}"
        )
    keep = min(rows, MAX_MATRIX_ROWS)
    start = last + 1 - keep  # the first output month: drop the oldest rows beyond the cap

    def span(s: MonthlySeries, month: int) -> np.ndarray:
        """``keep`` values of ``s`` from ``month`` on."""
        return s.values[month - s.first_month :][:keep]

    months_out = out.months[start - out.first_month :][:keep]
    levels = derived["output_raw"]
    lo = start - _PRIOR_MONTHS[spec.output_recipe] - levels.first_month
    hi = last + 1 - levels.first_month
    if lo < 0 or hi > len(levels):
        raise InsufficientHistory(
            f"base set {spec.id} lag {lag}: levels {levels.name!r} do not cover "
            f"{format_month(levels.first_month + lo)}..{format_month(last)}"
        )
    return TrainingMatrix(
        base_set_id=spec.id,
        lag=lag,
        input_names=spec.input_columns,
        inputs=np.column_stack([span(s, start - lag) for s in columns]),
        output=span(out, start),
        months_out=months_out,
        output_recipe=spec.output_recipe,
        levels=levels.values[lo:hi],
    )


def build_derived_columns(
    frame: dict[str, MonthlySeries],
    var_cfg: VarConfig | None = None,
    smooth_cfg: SmoothingConfig | None = None,
    ma_levels: tuple[BlockAverageConfig, ...] = DEFAULT_MA_LEVELS,
    names: Iterable[str] | None = None,
) -> dict[str, MonthlySeries]:
    """Compute the transforms the base sets draw on, as dated series.

    ``frame`` holds the aligned input series by name (``series.align``).
    ``names`` lists the columns wanted (None: every column). Only those,
    ``output_raw`` and the columns they read are built, each once, so a
    column nobody names can never fail the call. The VaR chain consumes the
    first window+1 months of the aligned series, so the VaR-derived columns
    start later than the series themselves.
    """
    var_cfg = var_cfg or VarConfig()
    smooth_cfg = smooth_cfg or SmoothingConfig()
    for name in (INDICATOR, OUTPUT_VARIABLE, GLOBAL_SPREAD, TBILL):
        if name not in frame:
            raise MissingColumn(f"frame lacks required column {name!r}")

    built: dict[str, MonthlySeries] = {}

    def get(name: str) -> MonthlySeries:
        """Column ``name``, built on first use; a build reads its sources through here."""
        if name not in built:
            built[name] = builds[name]()
        return built[name]

    # column name -> build function, in the order the result lists them
    builds: dict[str, Callable[[], MonthlySeries]] = {
        "var": lambda: indicator_var_series(frame[INDICATOR], var_cfg),
        "var_smooth": lambda: _derived(
            "var_smooth", get("var").months, ema_smooth(get("var").values, smooth_cfg)),
        "var_double": lambda: _derived(
            "var_double", get("var").months, double_smooth(get("var").values, smooth_cfg)),
        "global": lambda: frame[GLOBAL_SPREAD],
        "tbill": lambda: frame[TBILL],
        **{f"var_ma{i}": lambda i=i, ba=ba: _renamed(
               f"var_ma{i}", block_average_column(get("var"), ba))
           for i, ba in enumerate(ma_levels, start=1)},
        "output_raw": lambda: frame[OUTPUT_VARIABLE],
        "output_normalized": lambda: _derived(
            "output_normalized", get("output_raw").months[3:],
            normalize_output(get("output_raw").values)),
        # set 10 feeds the (lagged) transformed output back in as an input
        "output_auto": lambda: get("output_normalized"),
    }
    wanted = builds if names is None else {"output_raw", *names}
    unknown = sorted(set(wanted) - set(builds))
    if unknown:
        raise MissingColumn(f"no derived column named {unknown}; have {list(builds)}")
    for name in builds:
        if name in wanted:
            get(name)
    return {name: built[name] for name in builds if name in built}


def _renamed(name: str, s: MonthlySeries) -> MonthlySeries:
    return _derived(name, s.months, s.values)


def assemble_base_sets(
    frame: dict[str, MonthlySeries],
    var_cfg: VarConfig | None = None,
    smooth_cfg: SmoothingConfig | None = None,
    ma_levels: tuple[BlockAverageConfig, ...] = DEFAULT_MA_LEVELS,
    specs: tuple[BaseSetSpec, ...] | None = None,
    enabled: set[int] | None = None,
) -> list[TrainingMatrix]:
    """Build every training matrix for the (enabled) base sets from the
    aligned input series ``frame``.

    With all ten stock sets enabled this yields 64 matrices: six lag-swept
    sets x 10 lags plus four single-lag sets.
    """
    specs = [s for s in (specs if specs is not None else default_base_sets())
             if enabled is None or s.id in enabled]
    names = {name for spec in specs
             for name in (*spec.input_columns, f"output_{spec.output_recipe}")}
    derived = build_derived_columns(frame, var_cfg, smooth_cfg, ma_levels, names=names)
    return [build_lagged_matrix(derived, spec, lag) for spec in specs for lag in spec.lags]

# ---------------------------------------------------------------------------
# VaR parameter grid search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VarGridResult:
    """EAM and outlier counts over a (window, beta) grid.

    All cells are scored on the common evaluation span the largest window
    leaves available, so mean errors are comparable across windows.
    ``best`` is the argmin-EAM cell as (window, beta).
    """

    windows: tuple[int, ...]
    betas: tuple[float, ...]
    eam: np.ndarray       # shape (len(windows), len(betas))
    outliers: np.ndarray  # same shape, int
    eval_points: int
    best: tuple[int, float] = field(init=False)

    def __post_init__(self):
        i, j = np.unravel_index(int(np.argmin(self.eam)), self.eam.shape)
        object.__setattr__(self, "best", (self.windows[i], self.betas[j]))


def grid_search_var_params(
    returns_bp: np.ndarray,
    windows: tuple[int, ...] = tuple(range(50, 81)),
    betas: tuple[float, ...] = (1.0, 0.5, 0.3, 0.2, 0.1, 0.05),
    confidence: float = 0.95,
) -> VarGridResult:
    """Score every (window, beta) cell by mean absolute error and outliers.

    beta = 1 leaves the band unsmoothed. The realized fall at t is the
    sign-flipped return; an outlier is a fall exceeding the band.
    """
    values = np.asarray(returns_bp, dtype=np.float64)
    w_max = max(windows)
    if len(values) < w_max + 2:
        raise InsufficientHistory(
            f"need at least {w_max + 2} returns for the largest window, got {len(values)}"
        )
    eval_len = len(values) - w_max
    falls = -values[-eval_len:]

    eam = np.empty((len(windows), len(betas)))
    outliers = np.empty((len(windows), len(betas)), dtype=np.int64)
    for i, w in enumerate(windows):
        band_raw = rolling_var(values, VarConfig(window=w, confidence=confidence))
        for j, b in enumerate(betas):
            band = ema_smooth(band_raw, SmoothingConfig(beta=b))[-eval_len:]
            eam[i, j] = mean_abs_error(band, falls)
            outliers[i, j] = count_outliers(falls, band)
    return VarGridResult(tuple(windows), tuple(betas), eam, outliers, eval_len)
