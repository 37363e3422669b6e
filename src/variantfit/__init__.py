"""Growth-advantage estimation for emerging virus variants."""

from .data import SurveillanceSeries, load_csv, to_csv_string, write_csv
from .datasets import BUNDLED_NAMES, load_bundled
from .dynamics import (
    GENERATION_DAYS,
    Advantage,
    ModelParams,
    Proportion,
    from_log_odds,
    step_lambda,
)
from .estimate import FitResult, fit
from .inference import (
    AdvantageEstimate,
    VarianceEstimate,
    compose_advantages,
    fisher_information,
    hac_sandwich,
    interval_for_gamma,
    parzen_kernel,
)
from .crude import CrudeMeasure, crude_gammas, mean_crude_gamma
from .forecast import ForecastBand, forecast
from .repro import ReproInference, adjusted_R, infer_variant_R, stability_region
from .multivariant import fit_multi, load_multi_csv, marginalize, step_lambda_multi
from .simulate import RecoveryReport, SimConfig, recovery_report, simulate

__version__ = "0.1.0"

__all__ = [
    "Advantage",
    "AdvantageEstimate",
    "BUNDLED_NAMES",
    "CrudeMeasure",
    "FitResult",
    "ForecastBand",
    "GENERATION_DAYS",
    "ModelParams",
    "Proportion",
    "RecoveryReport",
    "ReproInference",
    "SimConfig",
    "SurveillanceSeries",
    "VarianceEstimate",
    "adjusted_R",
    "compose_advantages",
    "crude_gammas",
    "fisher_information",
    "fit",
    "fit_multi",
    "forecast",
    "from_log_odds",
    "hac_sandwich",
    "infer_variant_R",
    "interval_for_gamma",
    "load_bundled",
    "load_csv",
    "load_multi_csv",
    "marginalize",
    "mean_crude_gamma",
    "parzen_kernel",
    "recovery_report",
    "simulate",
    "stability_region",
    "step_lambda",
    "step_lambda_multi",
    "to_csv_string",
    "write_csv",
]
