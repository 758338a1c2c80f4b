"""Strategy scoring: equity curves, the modified Sharpe discriminant,
excess-predictability test, error/outlier counts, and the OLS baseline.

Conventions used throughout:

* return_t = ln(actual_t / actual_{t-1}); the curves accumulate
  return * 100 (percent units), while failure magnitudes and the average
  negative volatility stay in raw log-return units.
* A level forecast becomes a position via sign(forecast_t - actual_{t-1}),
  with ties (sign 0) mapped to long.
* The perfect-equity curve accumulates |return|; the equity curve accrues
  it signed by the position, so eq == pe exactly when no call was wrong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
# The normal CDF and Student's t CDF that scipy.stats' norm.cdf and t.sf call,
# bit for bit; importing scipy.stats itself would add about 70 MB and 0.9 s.
from scipy.special import ndtr, stdtr

from .errors import (
    ConstantRegressor,
    DegenerateInput,
    DegenerateStrategy,
    EmptyEnsemble,
    LengthMismatch,
    NonPositiveValue,
    ZeroPerfectSlope,
)


# ISM of a strategy with zero failures: the limit of Q / average negative
# volatility as that volatility falls to 0 (eq == pe there, so Q = 1). A
# finite ISM cannot reach it: one wrong call makes the volatility at least
# the smallest nonzero |log return| between two doubles (about 1e-16).
# ``modified_sharpe`` returns this very object, so ``ism is PERFECT_STRATEGY``
# holds for a failure-free strategy.
PERFECT_STRATEGY = math.inf


# ---------------------------------------------------------------------------
# Positions and equity curves
# ---------------------------------------------------------------------------


def positions_from_forecasts(predicted: np.ndarray, actual: np.ndarray) -> np.ndarray:
    """Long/short positions from level forecasts: sign(pred_t - actual_{t-1}).

    Returns +-1 for t = 1..n-1 (the first forecast has no prior actual).
    A tie forecasts no move and is taken long.
    """
    predicted = np.asarray(predicted, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if predicted.shape != actual.shape:
        raise LengthMismatch(
            f"predicted length {len(predicted)} != actual length {len(actual)}"
        )
    pos = np.where(predicted[1:] >= actual[:-1], 1.0, -1.0)
    return pos


@dataclass
class EquityReport:
    """Equity/perfect-equity curves plus the failure ledger for one model.

    ``q_ratio`` and ``ism`` stay None until ``modified_sharpe`` fills them.
    """

    eq: np.ndarray
    pe: np.ndarray
    failures: list[tuple[int, float]] = field(default_factory=list)
    ave_negative_vol: float = 0.0
    q_ratio: float | None = None
    ism: float | None = None


def equity_curves(
    predicted: np.ndarray,
    actual: np.ndarray,
    months: np.ndarray | None = None,
) -> EquityReport:
    """Build eq/pe curves and the failure ledger from level forecasts.

    ``months`` (optional) dates the failure entries; otherwise failures are
    labelled by their index t. Curves have length n-1.
    """
    predicted = np.asarray(predicted, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if predicted.shape != actual.shape:
        raise LengthMismatch(
            f"predicted length {len(predicted)} != actual length {len(actual)}"
        )
    if len(actual) < 2:
        raise LengthMismatch(f"need at least 2 observations, got {len(actual)}")
    if np.any(actual <= 0):
        raise NonPositiveValue("actual levels must be positive to take log returns")

    returns = np.log(actual[1:] / actual[:-1])
    pos = positions_from_forecasts(predicted, actual)
    eq = np.cumsum(pos * returns * 100.0)
    pe = np.cumsum(np.abs(returns) * 100.0)

    wrong = pos * returns < 0
    labels = months[1:] if months is not None else np.arange(1, len(actual))
    failures = [
        (int(labels[i]), float(abs(returns[i]))) for i in np.nonzero(wrong)[0]
    ]
    ave = float(np.mean([m for _, m in failures])) if failures else 0.0
    return EquityReport(eq=eq, pe=pe, failures=failures, ave_negative_vol=ave)


def weighted_slope(curve: np.ndarray) -> float:
    """Least-squares slope of the progressively amplified curve.

    Observation i (1-based) is scaled by 1 + 10 * i / n, so the factor runs
    from just above 1 up to exactly 11 at the newest point, then an OLS
    line is fitted against i = 1..n.
    """
    y = np.asarray(curve, dtype=np.float64)
    n = len(y)
    if n < 2:
        raise DegenerateInput(f"need at least 2 curve points, got {n}")
    i = np.arange(1, n + 1, dtype=np.float64)
    amplified = y * (1.0 + 10.0 * i / n)
    x_c = i - i.mean()
    return float(np.dot(x_c, amplified - amplified.mean()) / np.dot(x_c, x_c))


def modified_sharpe(report: EquityReport) -> float:
    """Q / average-negative-volatility; the model-selection discriminant.

    Q is the ratio of the amplified best-fit slopes of the equity and
    perfect-equity curves. A failure-free strategy scores
    PERFECT_STRATEGY (+inf). Fills ``report.q_ratio`` and ``report.ism``.
    """
    pe_slope = weighted_slope(report.pe)
    if pe_slope == 0.0:
        raise ZeroPerfectSlope("perfect-equity slope is zero (constant actuals)")
    q = weighted_slope(report.eq) / pe_slope
    report.q_ratio = q
    report.ism = q / report.ave_negative_vol if report.failures else PERFECT_STRATEGY
    return report.ism


# ---------------------------------------------------------------------------
# Error and outlier counts
# ---------------------------------------------------------------------------


def mean_abs_error(estimated: np.ndarray, real: np.ndarray) -> float:
    """Mean absolute difference between estimates and realizations."""
    estimated = np.asarray(estimated, dtype=np.float64)
    real = np.asarray(real, dtype=np.float64)
    if estimated.shape != real.shape or len(estimated) == 0:
        raise LengthMismatch(
            f"estimated length {len(estimated)} vs real length {len(real)}"
        )
    return float(np.mean(np.abs(estimated - real)))


def count_outliers(falls_bp: np.ndarray, var_band: np.ndarray) -> int:
    """Number of dates where the realized fall magnitude exceeds the band."""
    falls = np.asarray(falls_bp, dtype=np.float64)
    band = np.asarray(var_band, dtype=np.float64)
    if falls.shape != band.shape:
        raise LengthMismatch(f"falls length {len(falls)} vs band length {len(band)}")
    return int(np.sum(falls > band))


# ---------------------------------------------------------------------------
# Excess predictability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EPResult:
    """Standardized market-timing statistic and its normal-CDF percentage."""

    a_t: float
    b_t: float
    variance_hat: float
    statistic: float
    norm_ep: float


def excess_predictability_from_positions(
    positions: np.ndarray, returns: np.ndarray
) -> EPResult:
    """EP statistic from explicit +-1 positions and log returns."""
    s = np.asarray(positions, dtype=np.float64)
    y = np.asarray(returns, dtype=np.float64)
    if s.shape != y.shape:
        raise LengthMismatch(f"positions length {len(s)} vs returns length {len(y)}")
    t_count = len(y)
    if t_count < 10:
        raise DegenerateInput(f"need at least 10 events, got {t_count}")
    if np.all(s > 0) or np.all(s < 0):
        raise DegenerateStrategy("all positions share one sign; EP variance is zero")

    a_t = float(np.mean(s * y))
    b_t = float(np.mean(s) * np.mean(y))
    p_hat = 0.5 * (1.0 + float(np.mean(s)))
    v_hat = (4.0 / t_count**2) * p_hat * (1.0 - p_hat) * float(np.sum((y - y.mean()) ** 2))
    if v_hat <= 0.0:
        raise DegenerateStrategy("EP variance estimate is zero (constant returns)")
    statistic = (a_t - b_t) / math.sqrt(v_hat)
    return EPResult(a_t=a_t, b_t=b_t, variance_hat=v_hat, statistic=statistic,
                    norm_ep=normal_cdf_percent(statistic))


def normal_cdf_percent(statistic: float) -> float:
    """The standard normal CDF at ``statistic``, in percent (``norm_ep``)."""
    return float(ndtr(statistic)) * 100.0


def excess_predictability(predicted: np.ndarray, actual: np.ndarray) -> EPResult:
    """EP test for level forecasts against realized levels."""
    actual = np.asarray(actual, dtype=np.float64)
    if np.any(actual <= 0):
        raise NonPositiveValue("actual levels must be positive to take log returns")
    pos = positions_from_forecasts(predicted, actual)
    returns = np.log(actual[1:] / actual[:-1])
    return excess_predictability_from_positions(pos, returns)


def directional_accuracy(predicted: np.ndarray, actual: np.ndarray) -> float:
    """Fraction of dates whose predicted direction matched the realized one.

    A zero realized move counts as a hit (the position loses nothing).
    """
    actual = np.asarray(actual, dtype=np.float64)
    if len(actual) < 2:
        raise DegenerateInput("need at least 2 observations to compare directions")
    pos = positions_from_forecasts(predicted, actual)
    returns = np.log(actual[1:] / actual[:-1])
    return float(np.mean(pos * returns >= 0))


def divergence_percentage(votes: np.ndarray) -> np.ndarray:
    """Per-date percentage of networks voting for a rise.

    ``votes`` has one row per network and one column per date; positive
    entries are up-votes.
    """
    votes = np.asarray(votes, dtype=np.float64)
    if votes.ndim != 2 or votes.shape[0] == 0:
        raise EmptyEnsemble(f"need a (networks x dates) vote matrix, got shape {votes.shape}")
    return np.mean(votes > 0, axis=0) * 100.0


# ---------------------------------------------------------------------------
# Linear-regression baseline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegressionResult:
    """Centered-form simple OLS: y_hat = intercept + slope * (x - x_bar).

    ``intercept`` is the fitted value at x = x_bar (i.e. y_bar), matching
    the centered presentation; ``r`` is the non-negative multiple
    correlation coefficient.
    """

    slope: float
    intercept: float
    r: float
    r_squared: float
    p_value: float
    n: int


def ols_fit(x: np.ndarray, y: np.ndarray) -> RegressionResult:
    """Simple least squares with a two-sided t-test on the slope."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise LengthMismatch(f"x length {len(x)} vs y length {len(y)}")
    n = len(x)
    if n < 3:
        raise DegenerateInput(f"need at least 3 observations, got {n}")
    x_c = x - x.mean()
    sxx = float(np.dot(x_c, x_c))
    if sxx == 0.0:
        raise ConstantRegressor("x is constant; slope undefined")
    y_c = y - y.mean()
    slope = float(np.dot(x_c, y_c)) / sxx
    intercept = float(y.mean())

    residuals = y_c - slope * x_c
    sse = float(np.dot(residuals, residuals))
    syy = float(np.dot(y_c, y_c))
    r_squared = 1.0 - sse / syy if syy > 0 else 1.0
    r_squared = min(max(r_squared, 0.0), 1.0)
    r = math.sqrt(r_squared)

    df = n - 2
    if sse <= 0.0:
        p_value = 0.0
    else:
        se = math.sqrt(sse / df / sxx)
        t_stat = slope / se
        p_value = two_sided_t_p(t_stat, df)
    return RegressionResult(
        slope=slope, intercept=intercept, r=r, r_squared=r_squared, p_value=p_value, n=n
    )


def two_sided_t_p(t_stat: float, df: int) -> float:
    """Two-sided probability of ``|t_stat|`` under Student's t with ``df`` degrees of freedom."""
    return 2.0 * float(stdtr(df, -abs(t_stat)))
