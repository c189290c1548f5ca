"""Random regret minimization models, classical and mixed, for panel choice
data, estimated by maximum (simulated) likelihood with Halton draws.

Submodule imports are resolved lazily so the command-line entry point can
cap numeric worker threads before any linear-algebra library loads; only
``errors``, which imports nothing, loads with the package.
"""

from importlib import import_module

from . import errors

__version__ = "0.1.0"

_EXPORTS = {
    # dataset
    "ChoiceDataset": "dataset",
    "load_long_csv": "dataset",
    "reshape_wide_to_long": "dataset",
    # draws
    "halton_sequence": "draws",
    "inverse_normal_cdf": "draws",
    "build_drawset": "draws",
    # regret
    "ModelSpec": "regret",
    "ModelDesign": "regret",
    "ParameterVector": "regret",
    # options
    "FitOptions": "options",
    # estimation
    "FitResult": "estimation",
    "fit_classical": "estimation",
    "fit_mixed": "estimation",
    "simulated_loglik": "estimation",
    "covariance_hessian": "estimation",
    "covariance_robust": "estimation",
    "covariance_cluster": "estimation",
    "fit_result_to_json": "estimation",
    "fit_result_from_json": "estimation",
    "save_fit_json": "estimation",
    "load_fit_json": "estimation",
    # postestimation
    "IndividualBetaTable": "postestimation",
    "LognormalSummary": "postestimation",
    "predict_probabilities": "postestimation",
    "individual_betas": "postestimation",
    "lognormal_summary": "postestimation",
    "write_beta_file": "postestimation",
    "read_beta_file": "postestimation",
    "histogram_svg": "postestimation",
}

__all__ = ["__version__", "errors", *sorted(_EXPORTS)]


def __getattr__(name):
    if name in _EXPORTS:
        module = import_module(f".{_EXPORTS[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
