"""spreadnet: country-risk spread forecasting from a leading indicator's
rolling VaR, a global spread, and the risk-free rate, via small
multi-restart neural ensembles scored by a modified Sharpe discriminant.

The public surface mirrors the pipeline left to right: series loading and
alignment, VaR/smoothing preprocessing into base-set matrices, network
training with restarts, top-10 selection, master stacking, and scoring.
"""

from .series import (
    AlignedFrame,
    MonthlySeries,
    align,
    format_month,
    load_series,
    log_returns,
    parse_month,
    positive_component,
    to_basis_points,
)
from .preprocess import (
    BaseSetSpec,
    BlockAverageConfig,
    SmoothingConfig,
    TrainingMatrix,
    VarConfig,
    assemble_base_sets,
    block_average,
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
from .metrics import (
    EPResult,
    EquityReport,
    PERFECT_STRATEGY,
    RegressionResult,
    count_outliers,
    directional_accuracy,
    divergence_percentage,
    equity_curves,
    excess_predictability,
    mean_abs_error,
    modified_sharpe,
    ols_fit,
    weighted_slope,
)
from .neural import (
    NetworkModel,
    TrainConfig,
    gradient_check,
    load_model,
    multi_matrix_train,
    multi_restart_train,
    predict,
    save_model,
    split,
    train,
)
from .scoring import ModelScore, ism_scorer, score_model
from .ensemble import (
    Candidate,
    Forecast,
    build_master_matrix,
    select_best,
    train_master,
)
from .pipeline import (
    PipelineConfig,
    RunResult,
    emit_reports,
    predict_from_run,
    run_pipeline,
)

__version__ = "0.1.0"
