"""The ``uppkit`` namespace: every public name resolves, on first use, to the
object its module defines."""

import importlib

import pytest

import uppkit
from tests.conftest import run_python

PUBLIC = {
    "ces": ["CESEconomy", "CompensatingVariation", "Consumer", "ShareTable",
            "compensating_variation", "economy_from_dict", "economy_from_shares",
            "identify_eta", "load_economy", "nested_shares", "own_price_elasticity_of_demand",
            "own_price_revenue_elasticity", "revenue_diversion", "second_choice_diversion",
            "shares"],
    "effects": ["CmcrResult", "EffectsReport", "PassThroughMatrix", "WelfareReport", "cmcr",
                "effects_report", "guppi", "naive_cmcr", "naive_guppi", "price_effects",
                "welfare"],
    "errors": ["ConvergenceError", "InputValidationError", "UppkitError"],
    "fitting": ["FitResult", "fit_nested_ces"],
    "market": ["OUTSIDE", "DiversionMatrix", "Market", "MarketBundle", "MergerSpec", "Product",
               "Violation", "load_market", "validate"],
    "passthrough": ["PassthroughInputs", "passthrough_matrix", "passthrough_matrix_from_market"],
    "simulation": ["SimulationProblem", "SimulationResult", "SolverConfig", "consistency_check",
                   "foc_residual", "merger_problem", "post_merger_state", "simulate"],
}
NAMES = [name for names in PUBLIC.values() for name in names]
SUBMODULES = ["ces", "effects", "errors", "fitting", "market", "newton", "passthrough",
              "simulation"]


def test_all_lists_the_public_names():
    assert len(NAMES) == 51
    assert sorted(uppkit.__all__) == sorted(NAMES)


@pytest.mark.parametrize("module", PUBLIC)
def test_each_name_is_its_modules_object(module):
    source = importlib.import_module(f"uppkit.{module}")
    for name in PUBLIC[module]:
        assert getattr(uppkit, name) is getattr(source, name), name


def test_dir_and_star_import_cover_every_name():
    assert set(NAMES) <= set(dir(uppkit))
    namespace = {}
    exec("from uppkit import *", namespace)
    assert set(NAMES) <= namespace.keys()


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        uppkit.no_such_name  # noqa: B018
    assert not hasattr(uppkit, "no_such_name")


def test_submodules_resolve_after_a_bare_import():
    """In a fresh interpreter, where ``import uppkit`` has loaded none of them."""
    code = f"import uppkit\nprint(*(getattr(uppkit, m).__name__ for m in {SUBMODULES!r}))"
    assert run_python(code).split() == [f"uppkit.{m}" for m in SUBMODULES]
