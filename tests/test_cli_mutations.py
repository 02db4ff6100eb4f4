"""Every command on mutated Staples fixtures: a documented exit code, never a
traceback, and strict JSON.

Each case replaces one leaf or container of a fixture (or deletes it) and
runs the commands that read that file in-process. The economy's cases run
every command in both formats; the market's cases take four of its sixteen
command-and-format variants each, in rotation, so every variant meets every
path.
"""

import copy
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from uppkit.cli import main
from tests.conftest import fixture_path

MARKET = json.loads(Path(fixture_path("staples_od.json")).read_text())
ECONOMY = json.loads(Path(fixture_path("staples_od_economy.json")).read_text())
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


def failures(tmp_path, which, doc, runs):
    """Run ``runs(case_index)`` command variants on each mutation of ``doc``
    (the fixture standing for ``which``, "M" or "E"); list the runs that exit
    outside {0, 2, 3, 4}, raise, or print JSON with NaN or an infinity."""
    files = {"M": tmp_path / "market.json", "E": tmp_path / "economy.json"}
    files["M"].write_text(json.dumps(MARKET))
    files["E"].write_text(json.dumps(ECONOMY))
    runner, bad = CliRunner(), []
    cases = [(path, value) for path in paths(doc) for value in VALUES]
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
