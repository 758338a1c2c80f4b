"""Strategy scoring: equity curves, the modified Sharpe discriminant,
excess-predictability test, error/outlier counts, and the OLS baseline.

Conventions used throughout:

* return_t = ln(actual_t / actual_{t-1}); the curves accumulate
  return * 100 (percent units), while the average negative volatility (the
  mean |return| of the wrong calls) stays in raw log-return units.
* A level forecast becomes a position via sign(forecast_t - actual_{t-1}),
  with ties (sign 0) mapped to long.
* The perfect-equity curve accumulates |return|; the equity curve accrues
  it signed by the position, so eq == pe exactly when no call was wrong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    """Equity/perfect-equity curves, the count of wrong calls and their mean
    |log return| for one model.

    ``q_ratio`` and ``ism`` stay None until ``modified_sharpe`` fills them.
    """

    eq: np.ndarray
    pe: np.ndarray
    failures: int = 0
    ave_negative_vol: float = 0.0
    q_ratio: float | None = None
    ism: float | None = None


def _moves(predicted: np.ndarray, actual: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(positions, log returns) of level forecasts: the moves every score reads.

    LengthMismatch for unequal shapes or fewer than 2 observations, then
    NonPositiveValue for a level that is not positive.
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
    return positions_from_forecasts(predicted, actual), np.log(actual[1:] / actual[:-1])


def equity_curves(predicted: np.ndarray, actual: np.ndarray) -> EquityReport:
    """Build eq/pe curves from level forecasts, with the count of wrong calls
    and their average |log return|. Curves have length n-1.
    """
    pos, returns = _moves(predicted, actual)
    eq = np.cumsum(pos * returns * 100.0)
    pe = np.cumsum(np.abs(returns) * 100.0)

    misses = np.abs(returns[pos * returns < 0])
    ave = float(misses.mean()) if len(misses) else 0.0
    return EquityReport(eq=eq, pe=pe, failures=len(misses), ave_negative_vol=ave)


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
    return _ndtr(float(statistic)) * 100.0


# The normal CDF is the one non-elementary function the EP test needs. Loading
# scipy.special for it would take every command from about 28 to 52 MB and
# add about 0.17 s of start-up, so here is Moshier's Cephes ndtr.c, as scipy
# ships it behind scipy.special.ndtr and scipy.stats.norm.cdf: the same
# operations in the same order on the same constants give the same bits, and
# the tests compare them with scipy's bit for bit, branch points included.
_MAXLOG, _SQRT1_2 = 7.09782712893383996843E2, 0.70710678118654752440
_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
      4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
      9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
      9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
      1.65666309194161350182E3, 5.57535340817727675546E2)
_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
      6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
      1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
      7.00332514112805075473E3, 5.55923013010394962768E4)
_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
      2.26290000613890934246E4, 4.92673942608635921086E4)


def _polevl(x: float, coef: tuple) -> float:
    """Cephes ``polevl``: the polynomial with coefficients ``coef``, highest first."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple) -> float:
    """Cephes ``p1evl``: as ``_polevl`` with an implied leading coefficient of 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtr(a: float) -> float:
    """Cephes ``ndtr``: the standard normal CDF."""
    if math.isnan(a):
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


def _erf(x: float) -> float:
    """Cephes ``erf``."""
    if x < 0.0:
        return -_erf(-x)
    if abs(x) > 1.0:
        return 1.0 - _erfc(x)
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def _erfc(a: float) -> float:
    """Cephes ``erfc``; it returns 0 or 2 where exp(-a**2) would underflow."""
    x = abs(a)
    if x < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z >= -_MAXLOG:
        z = math.exp(z)
        if x < 8.0:
            p, q = _polevl(x, _P), _p1evl(x, _Q)
        else:
            p, q = _polevl(x, _R), _p1evl(x, _S)
        y = (z * p) / q
        if a < 0:
            y = 2.0 - y
        if y != 0.0:
            return y
    return 2.0 if a < 0 else 0.0


def excess_predictability(predicted: np.ndarray, actual: np.ndarray) -> EPResult:
    """EP test for level forecasts against realized levels."""
    return excess_predictability_from_positions(*_moves(predicted, actual))


def directional_accuracy(predicted: np.ndarray, actual: np.ndarray) -> float:
    """Fraction of dates whose predicted direction matched the realized one.

    A zero realized move counts as a hit (the position loses nothing).
    """
    pos, returns = _moves(predicted, actual)
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
    """Two-sided probability of ``|t_stat|`` under Student's t with ``df`` degrees of freedom.

    ``stdtr`` is the function scipy.stats' ``t.sf`` calls, with the same bits.
    It is imported here, on the one path that needs it (``ols_fit``, which no
    command runs), so that no command loads scipy.
    """
    from scipy.special import stdtr

    return 2.0 * float(stdtr(df, -abs(t_stat)))
