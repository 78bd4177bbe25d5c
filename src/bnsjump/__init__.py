"""BN-S stochastic volatility simulation and high-frequency jump prediction.

Subpackages and modules:

- subordinators: compound-Poisson Levy subordinators on time grids
- dynamics: generalized BN-S variance/price simulation and correlation
  functionals
- market_data: minute-bar ingestion, preprocessing, realized measures
- labeling: windowed features and threshold jump targets
- classifiers: from-scratch learners plus the precision/recall/F1 harness
- cli: end-to-end `bnsjump` command

The names below are imported from their module on first use (PEP 562), so
``import bnsjump`` loads no submodule, and a simulation through this API
never loads the market-data, labeling or classifier code.
"""

import sys

_EXPORTS = {
    "dynamics": ("LogPricePath", "ModelParams", "NoiseSpec", "VariancePath", "apply_noise",
                 "correlation_classical", "correlation_generalized", "euler_variance_path",
                 "instantaneous_variance_rate", "price_series", "simulate_log_price",
                 "simulate_log_price_classical", "simulate_variance_path",
                 "simulate_variance_path_classical"),
    "labeling": ("IndexedReturns", "LabeledDataset", "LabelingConfig", "SplitSpec",
                 "build_dataset", "index_series", "mark_big_jumps", "split"),
    "market_data": ("BarSeries", "ReturnSeries", "RVSeries", "SessionCalendar", "StatsReport",
                    "descriptive_stats", "load_bars", "pct_change", "preprocess",
                    "realized_measures", "resample"),
    "subordinators": ("JumpPath", "SubordinatorSpec", "TimeGrid", "combine_paths",
                      "realized_jump_energy", "sample_ensemble", "sample_subordinator_path",
                      "subordinator_moments", "terminal_samples"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    # Not cached in the package: the name stays its module's attribute, so
    # whatever replaces that attribute is what ``bnsjump.<name>`` returns.
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    # through the import statement's machinery, so that -X importtime lists
    # the module, as it does not for importlib.import_module
    module = f"{__name__}.{module}"
    __import__(module)
    return getattr(sys.modules[module], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
