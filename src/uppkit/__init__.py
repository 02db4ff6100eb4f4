"""Merger screening when prices and quantities are unobserved.

Revenues, relative margins, and revenue diversion ratios identify own-price
elasticities, GUPPIs, first-order price and welfare effects, and compensating
marginal cost reductions; CES demand assumptions additionally identify the
diversion ratios themselves and make full merger simulation feasible in
percentage-price-change space.
"""

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

from .ces import (
    CESEconomy,
    CompensatingVariation,
    Consumer,
    ShareTable,
    compensating_variation,
    economy_from_dict,
    economy_from_shares,
    identify_eta,
    load_economy,
    nested_shares,
    own_price_elasticity_of_demand,
    own_price_revenue_elasticity,
    revenue_diversion,
    second_choice_diversion,
    shares,
)
from .effects import (
    CmcrResult,
    EffectsReport,
    PassThroughMatrix,
    WelfareReport,
    cmcr,
    effects_report,
    guppi,
    naive_cmcr,
    naive_guppi,
    price_effects,
    welfare,
)
from .errors import ConvergenceError, InputValidationError, UppkitError
from .fitting import FitResult, fit_nested_ces
from .market import (
    OUTSIDE,
    DiversionMatrix,
    Market,
    MarketBundle,
    MergerSpec,
    Product,
    Violation,
    load_market,
    validate,
)
from .passthrough import PassthroughInputs, passthrough_matrix, passthrough_matrix_from_market
from .simulation import (
    SimulationProblem,
    SimulationResult,
    SolverConfig,
    consistency_check,
    foc_residual,
    merger_problem,
    post_merger_state,
    simulate,
)

__version__ = "0.1.0"
