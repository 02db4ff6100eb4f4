"""Tests that a traced run measures every per-layer metric it reports.

Run with the repository's test command, or alone:
    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import inspect
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer  # noqa: E402

from uppkit import cli, effects, harness, simulation  # noqa: E402


def test_traced_slice_of_every_workload_gives_every_layer_metric(capsys):
    """One small operation per workload part, traced: every metric that
    ``layers.per_layer`` reports finds the spans it reads."""
    case = inputs.sim_grid_cases(1)[0]
    fit_case = inputs.fit_geo_cases(1)[0]
    tracer = Tracer().install()
    try:
        for command, args in workloads.CliScreen.commands:
            with tracer.operation(f"op.cli_screen.{command}"), tracer.span("cli.command"):
                cli.main([*args, "--format", "json"], standalone_mode=False)
        for bucket in ("small", "mid", "large"):
            with tracer.operation(f"op.sim_grid.{bucket}"):
                simulation.simulate(case.build_problem())
        for model in ("ces", "logit"):
            with tracer.operation(f"op.harness_mc.{model}"):
                harness.run_accuracy_experiment(
                    harness.HarnessConfig(seed=1, n_markets=2, model=model))
        for bucket in ("small", "large"):
            with tracer.operation(f"op.fit_geo.{bucket}"):
                workloads.fit(fit_case)
    finally:
        tracer.uninstall()
    metrics = layers.per_layer(tracer.spans)
    assert [name for name, (value, _) in metrics.items() if math.isnan(value)] == []
    solves = [sp for sp in tracer.spans if sp.name == "harness.solve_bertrand"]
    assert all(1 <= sp.attrs["fixed_point_steps"] <= sp.attrs["iterations"] for sp in solves)


def test_install_refuses_a_missing_boundary_and_restores_the_rest(monkeypatch):
    monkeypatch.delattr(simulation, "post_merger_state")
    with pytest.raises(RuntimeError, match="post_merger_state"):
        Tracer().install()
    # layers wrapped before the missing one are unwrapped again
    assert not hasattr(effects.guppi, "__wrapped__")


def test_absent_spans_read_nan_not_zero():
    metrics = layers.per_layer([Span(1, "op.sim_grid.small", 0.0, 1.0, None, 1, 0)])
    for name in ("simulation.foc_calls.small", "simulation.foc_residual_s.small",
                 "simulation.foc_share.small", "harness.bertrand_cap_hits.ces",
                 "fitting.jacobian_call_share.large", "cli.command_self_s"):
        assert math.isnan(metrics[name][0]), name


def test_cap_hits_count_fixed_point_steps_not_newton_steps():
    assert (inspect.signature(harness.solve_bertrand).parameters["max_iterations"].default
            == layers.BERTRAND_CAP)
    spans = [Span(1, "op.harness_mc.logit", 0.0, 1.0, None, 1, 0)]
    for sid, (steps, its) in enumerate([(400, 410), (380, 440), (20, 25)], start=2):
        spans.append(Span(sid, "harness.solve_bertrand", 0.0, 1.0, 1, 1, 0,
                          {"fixed_point_steps": steps, "iterations": its}))
    metrics = layers.per_layer(spans)
    assert metrics["harness.bertrand_cap_hits.logit"][0] == 1
    assert metrics["harness.bertrand_iterations.logit"][0] == 875
    assert metrics["harness.bertrand_calls.logit"][0] == 3


def test_experiment_check_pools_records():
    def records(pairs):
        return [SimpleNamespace(predicted_pdd=p, true_pdd=t) for p, t in pairs]

    conservative = records([(0.1, 0.12)] * 19 + [(0.1, 0.09)])
    assert checks.check_experiment("ces", conservative) == []
    assert checks.check_experiment("ces", conservative + records([(0.1, 0.09)] * 2))
    assert checks.check_experiment("logit", records([(0.1, 0.105)] * 3)) == []
    assert checks.check_experiment("logit", records([(0.1, 0.2)] * 3))
    assert checks.check_experiment("logit", [])
