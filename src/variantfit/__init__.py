"""Growth-advantage estimation for emerging virus variants.

The names below load from their home submodules on first access, so
`import variantfit` (and the CLI's scalar commands) need not import numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# Home submodule -> the public names it defines. No name is a submodule's:
# importing a submodule binds it on the package under its own name.
_EXPORTS = {
    "data": ("SurveillanceSeries", "load_csv", "to_csv_string"),
    "datasets": ("BUNDLED_NAMES", "load_bundled"),
    "dynamics": ("GENERATION_DAYS", "Advantage", "AdvantageEstimate", "ModelParams",
                 "Proportion", "ReproInference", "adjusted_R", "infer_variant_R",
                 "stability_region"),
    "estimate": ("FitResult", "fit", "log_softmax"),
    "inference": ("VarianceEstimate", "compose_advantages", "crude_gammas",
                  "fisher_information", "fit_multi", "forecast", "hac_sandwich",
                  "interval_for_gamma", "parzen_kernel", "sandwich"),
    "multivariant": ("load_multi_csv",),
    "simulation": ("RecoveryReport", "SimConfig", "recovery_report", "simulate"),
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

