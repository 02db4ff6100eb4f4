"""Every command on mutated input files: a documented exit code, never a
traceback, and strict JSON.

Each case replaces one leaf or container of a fixture (or deletes it) and
runs the commands that read that file in-process. The Staples economy's cases
run every command in both formats; the Staples market's cases take four of its
sixteen command-and-format variants each, in rotation, so every variant meets
every path. The geography's cases run ``fit`` in one format each, alternating.
"""

import copy
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from uppkit import fitting
from uppkit.cli import main
from tests.conftest import fixture_path, spatial_fixture_to_dict

MARKET = json.loads(Path(fixture_path("staples_od.json")).read_text())
ECONOMY = json.loads(Path(fixture_path("staples_od_economy.json")).read_text())
# a full-rank 5-tract x 5-store geography, fitted to mu = 0.46 in 11 evaluations
GEOGRAPHY = spatial_fixture_to_dict(fitting.generate_spatial_fixture(
    fitting.SpatialConfig(seed=5, n_tracts=5, n_stores=5)))
DELETE = object()
VALUES = [0, 1, -1, 1e300, -1e300, 1e-300, 1e-320, float("inf"), float("-inf"), float("nan"),
          "x", None, [], {}, DELETE]
MARKET_COMMANDS = [
    ["validate", "M"], ["guppi", "M"], ["guppi", "M", "--naive"], ["cmcr", "M", "--naive"],
    ["welfare", "M"], ["welfare", "M", "--passthrough", "ces"], ["passthrough", "M"],
    ["simulate", "M", "E"],
]
ECONOMY_COMMANDS = [["simulate", "M", "E"], ["second-choice", "E", "--remove", "SP"]]


def paths(node, prefix=()):
    """Every key path below ``node``, containers before their contents."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


def refuse(constant):
    raise ValueError(f"bare {constant} in JSON output")


def failures(tmp_path, which, doc, runs, where=None):
    """Run ``runs(case_index)`` command variants on each mutation of ``doc``
    (the fixture standing for ``which``, "M", "E" or "G") at each key path of
    ``where`` (default all of them); list the runs that exit outside
    {0, 2, 3, 4}, raise, or print JSON with NaN or an infinity."""
    files = {"M": tmp_path / "market.json", "E": tmp_path / "economy.json",
             "G": tmp_path / "geography.json"}
    files["M"].write_text(json.dumps(MARKET))
    files["E"].write_text(json.dumps(ECONOMY))
    runner, bad = CliRunner(), []
    cases = [(path, value) for path in where or paths(doc) for value in VALUES]
    for index, (path, value) in enumerate(cases):
        files[which].write_text(json.dumps(mutated(doc, path, value)))
        for command, fmt in runs(index):
            argv = [str(files.get(arg, arg)) for arg in command] + ["--format", fmt]
            result = runner.invoke(main, argv)
            ok = (result.exit_code in (0, 2, 3, 4)
                  and (result.exception is None or isinstance(result.exception, SystemExit)))
            if ok and fmt == "json" and result.stdout.strip():
                try:
                    json.loads(result.stdout, parse_constant=refuse)
                except ValueError:
                    ok = False
            if not ok:
                bad.append((path, value, command[0], fmt, result.exit_code, repr(result.exception)))
    return len(cases), bad


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_economy_mutations(tmp_path):
    """Includes a budget of 1e-320, whose subnormal spending would overflow the
    simulation Jacobian, and eta = 1e300, whose elasticity would overflow."""
    every = [(command, fmt) for command in ECONOMY_COMMANDS for fmt in ("json", "table")]
    n, bad = failures(tmp_path, "E", ECONOMY, lambda index: every)
    assert n > 100 and bad == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_market_mutations(tmp_path):
    variants = [(command, fmt) for fmt in ("json", "table") for command in MARKET_COMMANDS]
    n, bad = failures(tmp_path, "M", MARKET, lambda index: [
        variants[(4 * index + 5 * k) % len(variants)] for k in range(4)])
    assert n > 400 and bad == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_geography_mutations(tmp_path):
    """Every top-level field, the first entry at each depth of the arrays, and
    every leaf of the labelled fields. Includes a design without covariates,
    no spending, and a budget, weight or revenue so large that the
    least-squares solve would overflow."""
    where = [(key,) for key in GEOGRAPHY]
    where += [("design", 0), ("design", 0, 0), ("design", 0, 0, 0), ("mask", 0), ("mask", 0, 0),
              ("budgets", 0), ("weights", 0)]
    for key in ("store_ids", "nests", "revenues", "truth"):
        where += list(paths(GEOGRAPHY[key], (key,)))
    n, bad = failures(tmp_path, "G", GEOGRAPHY, lambda index: [
        (["fit", "G"], ("json", "table")[index % 2])], where)
    assert n > 500 and bad == []


def test_fit_with_mu_at_the_edge_exits_3(tmp_path):
    """budgets[0] = 1 drives the fitted mu to about 3e-65, where the logistic is
    flat: the fit is reported unconverged (exit 3), not converged (exit 0)."""
    geo = json.loads(json.dumps(GEOGRAPHY))
    geo["budgets"][0] = 1
    path = tmp_path / "geography.json"
    path.write_text(json.dumps(geo))
    result = CliRunner().invoke(main, ["fit", str(path), "--format", "json"])
    assert result.exit_code == 3, result.output
    doc = json.loads(result.output, parse_constant=pytest.fail)
    assert not doc["result"]["converged"] and "lower edge of (0, 1]" in doc["result"]["message"]
