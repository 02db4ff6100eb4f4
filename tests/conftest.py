import importlib.resources
import os
import subprocess
import sys
from pathlib import Path

import pytest

import uppkit
from uppkit import ces, fitting, harness, market


def fixture_path(name: str):
    return importlib.resources.files("uppkit.fixtures").joinpath(name)


def run_python(code: str) -> str:
    """Stdout of ``code`` run by a fresh interpreter that imports uppkit from this tree."""
    src = str(Path(uppkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


def spatial_fixture_to_dict(fx: fitting.SpatialFixture) -> dict:
    """A geography as the JSON document ``fitting.load_spatial_fixture`` reads."""
    doc = {
        "store_ids": list(fx.store_ids),
        "nests": dict(fx.nests),
        "design": fx.design.tolist(),
        "mask": fx.mask.astype(int).tolist(),
        "budgets": fx.budgets.tolist(),
        "weights": fx.weights.tolist(),
        "revenues": dict(fx.revenues),
    }
    if fx.theta is not None:
        doc["truth"] = {"theta": fx.theta.tolist(), "mu": fx.mu}
    return doc


def solve_pre_merger_equilibrium(primitives: harness.SyntheticPrimitives) -> harness.Equilibrium:
    """Re-solve the pre-merger equilibrium from a cold start (1.5 x cost): the
    test oracle for drawn prices, which the accuracy experiment only checks."""
    return harness.solve_bertrand(primitives.demand, primitives.costs, primitives.ownership)


@pytest.fixture(scope="session")
def staples_bundle() -> market.MarketBundle:
    return market.load_market(str(fixture_path("staples_od.json")))


@pytest.fixture(scope="session")
def staples_economy() -> ces.CESEconomy:
    return ces.load_economy(str(fixture_path("staples_od_economy.json")))
