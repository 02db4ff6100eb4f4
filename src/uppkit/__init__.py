"""Merger screening when prices and quantities are unobserved.

Revenues, relative margins, and revenue diversion ratios identify own-price
elasticities, GUPPIs, first-order price and welfare effects, and compensating
marginal cost reductions; CES demand assumptions additionally identify the
diversion ratios themselves and make full merger simulation feasible in
percentage-price-change space.

``import uppkit`` loads numpy and no uppkit module: each public name loads its
module on first use, so a command or script pays only for what it calls.
"""

import importlib as _importlib
import os as _os
import sys as _sys

# uppkit's arrays are small (J <= 40, N <= 1000, a 1000x100 fit): a second
# OpenBLAS thread speeds up no call and only spins, burning CPU. OpenBLAS reads
# the variable once, when numpy loads, so it is dropped again and no child
# process inherits it. A thread variable the caller set, or numpy imported first, wins.
if "numpy" not in _sys.modules and not {
        "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & _os.environ.keys():
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

# Public name -> its module, which loads on first use of one of its names (PEP 562).
_MODULES = {
    "ces": "CESEconomy CompensatingVariation Consumer ShareTable compensating_variation "
           "economy_from_dict economy_from_shares identify_eta load_economy nested_shares "
           "own_price_elasticity_of_demand own_price_revenue_elasticity revenue_diversion "
           "second_choice_diversion shares",
    "effects": "CmcrResult EffectsReport PassThroughMatrix WelfareReport cmcr effects_report "
               "guppi naive_cmcr naive_guppi price_effects welfare",
    "errors": "ConvergenceError InputValidationError UppkitError",
    "fitting": "FitResult fit_nested_ces",
    "market": "OUTSIDE DiversionMatrix Market MarketBundle MergerSpec Product Violation "
              "load_market validate",
    "passthrough": "PassthroughInputs passthrough_matrix passthrough_matrix_from_market",
    "simulation": "SimulationProblem SimulationResult SolverConfig consistency_check "
                  "foc_residual merger_problem post_merger_state simulate",
}
_MODULE_OF = {name: module for module, names in _MODULES.items() for name in names.split()}
__all__ = list(_MODULE_OF)
# Submodules that resolve as package attributes (``uppkit.ces``); newton has no public name.
_SUBMODULES = {*_MODULES, "newton"}


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_MODULE_OF[name]), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})


__version__ = "0.1.0"
