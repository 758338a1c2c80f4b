"""Reference results reported for the original 89-month Venezuelan dataset.

The underlying monthly series (indicator, spread, global spread, T-bill
rates for 1997-2005) were never published and the original trainer was
proprietary, so the study's results (backtests, OLS baseline, ensemble
scores) are documentation, not test oracles: no test asserts them against
a computation. The published operating point (window, confidence, beta and
the training regime) is checked: a test asserts that it equals the config
defaults.
"""

# Rolling-VaR operating point chosen by the original grid search.
VAR_WINDOW = 65
VAR_CONFIDENCE = 0.95
SMOOTHING_BETA = 0.1

# Raw-VaR backtest at that operating point (89 evaluation months).
RAW_VAR_OUTLIERS = 5
RAW_VAR_MEAN_ERROR = 130.49

# Smoothed-VaR backtest; the smoothed band is a network feature, not a
# valid risk band (it hugs the data, hence the outlier count).
SMOOTHED_VAR_OUTLIERS = 56
SMOOTHED_VAR_MEAN_ERROR = 48.23

# Linear baseline of spread on indicator (centered form), 89 observations.
OLS_SLOPE = -9.553796992
OLS_INTERCEPT = 1812.603769
OLS_MULTIPLE_R = 0.300004154
OLS_R_SQUARED = 0.090002492
OLS_P_VALUE = 0.004285703
OLS_N = 89

# Headline ensemble scores on the original data.
MASTER_ISM = 17.14
MASTER_NORM_EP_PERCENT = 99.86
LAG8_MEAN_ISM = 7.166
LAG8_MEAN_NORM_EP_PERCENT = 89.8
MOVING_AVERAGE_SETS_MEAN_ISM = 7.62
MOVING_AVERAGE_SETS_MEAN_NORM_EP_PERCENT = 97.0
NO_VAR_SET_MEAN_ISM = 5.24
NO_VAR_SET_MEAN_NORM_EP_PERCENT = 61.8

# Training regime of the original runs.
TRAIN_CYCLES = 1000
TRAIN_STOP_ERROR = 0.10
TRAIN_LEARNING_RATE = 0.10
TRAIN_RESTARTS = 5000
TRAIN_SPLIT = 0.60
TEST_FRACTION_CAP = 0.45
