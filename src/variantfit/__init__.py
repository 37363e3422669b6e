"""Growth-advantage estimation for emerging virus variants.

The names below load from their home submodules on first access, so
`import variantfit` (and the CLI's scalar commands) need not import numpy.
"""

import sys
import types
from importlib import import_module

__version__ = "0.1.0"

# Home submodule -> the public names it defines.
_EXPORTS = {
    "crude": ("CrudeMeasure", "crude_gammas", "mean_crude_gamma"),
    "data": ("SurveillanceSeries", "load_csv", "to_csv_string", "write_csv"),
    "datasets": ("BUNDLED_NAMES", "load_bundled"),
    "dynamics": ("GENERATION_DAYS", "Advantage", "AdvantageEstimate", "ModelParams",
                 "Proportion", "step_lambda"),
    "estimate": ("FitResult", "fit", "log_softmax"),
    "forecast": ("ForecastBand", "forecast"),
    "inference": ("VarianceEstimate", "compose_advantages", "fisher_information",
                  "hac_sandwich", "interval_for_gamma", "parzen_kernel"),
    "multivariant": ("fit_multi", "load_multi_csv"),
    "repro": ("ReproInference", "adjusted_R", "infer_variant_R", "stability_region"),
    "simulate": ("RecoveryReport", "SimConfig", "recovery_report", "simulate"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _EXPORTS or name == "errors":
        return import_module(f".{name}", __name__)  # importing binds it here
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    """Keeps `simulate` and `forecast` the functions of those names.

    Importing a submodule binds it on its package under its own name; for a
    submodule that exports a name of its own, that name is bound instead.
    """

    def __setattr__(self, name, value):
        if _HOME.get(name) == name and isinstance(value, types.ModuleType):
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
