"""Self-tuning time-series anomaly detection.

Univariate series are profiled, modeled either structurally (ARMA with
Fourier regressors) or through a Kalman filter, configured by a
tree-Parzen search against synthetically injected anomalies, and
monitored in production through Mass-Volume / Excess-Mass self-evaluation
with green/yellow/red retuning triggers.
"""

from .errors import AutoAdError
from .evaluation import (
    HealthSnapshot,
    HealthThresholds,
    ScoreLog,
    classify_health,
    em_curve,
    level_set_volume,
    mv_curve,
    scoring_function,
    summarize_criteria,
)
from .filtering import FilterState, StateSpaceModel, fit_filtering
from .optimizer import (
    LabeledSeries,
    ModelConfig,
    TuneResult,
    cost,
    inject_synthetic_anomalies,
    random_search,
    tune,
)
from .orchestrator import Engine, JobSpec
from .profiling import (
    DataProfile,
    detect_change_points,
    profile,
    select_fourier_frequencies,
    stationarize,
)
from .series import (
    MISSING,
    TimeSeries,
    aggregate,
    impute,
    read_csv,
    smooth,
)
from .structural import StructuralModel, fit_structural, forecast

__version__ = "0.1.0"

__all__ = [
    "AutoAdError",
    "DataProfile",
    "Engine",
    "FilterState",
    "HealthSnapshot",
    "HealthThresholds",
    "JobSpec",
    "LabeledSeries",
    "MISSING",
    "ModelConfig",
    "ScoreLog",
    "StateSpaceModel",
    "StructuralModel",
    "TimeSeries",
    "TuneResult",
    "aggregate",
    "classify_health",
    "cost",
    "detect_change_points",
    "em_curve",
    "fit_filtering",
    "fit_structural",
    "forecast",
    "impute",
    "inject_synthetic_anomalies",
    "level_set_volume",
    "mv_curve",
    "profile",
    "random_search",
    "read_csv",
    "scoring_function",
    "select_fourier_frequencies",
    "smooth",
    "stationarize",
    "summarize_criteria",
    "tune",
]
