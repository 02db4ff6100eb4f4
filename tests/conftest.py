import importlib.resources

import pytest

from uppkit import ces, harness, market


def fixture_path(name: str):
    return importlib.resources.files("uppkit.fixtures").joinpath(name)


def spatial_fixture_to_dict(fx: harness.SpatialFixture) -> dict:
    """A geography as the JSON document ``harness.load_spatial_fixture`` reads."""
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


@pytest.fixture(scope="session")
def staples_bundle() -> market.MarketBundle:
    return market.load_market(str(fixture_path("staples_od.json")))


@pytest.fixture(scope="session")
def staples_economy() -> ces.CESEconomy:
    return ces.load_economy(str(fixture_path("staples_od_economy.json")))
