"""Tests of the benchmark's input generators, oracle and trace arithmetic.

Run with the repository's test command, or alone:
    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402
from workloads import tail_percentile  # noqa: E402

from uppkit import simulation  # noqa: E402


@pytest.fixture(scope="module")
def cases():
    return inputs.sim_grid_cases(11)


def test_sim_grid_deterministic_per_seed(cases):
    again = inputs.sim_grid_cases(11)
    other = inputs.sim_grid_cases(12)
    assert len(again) == len(cases)
    for a, b in zip(cases, again):
        assert a.bucket == b.bucket and a.ids == b.ids and a.eta == b.eta
        np.testing.assert_array_equal(a.u, b.u)
        np.testing.assert_array_equal(a.wb, b.wb)
        np.testing.assert_array_equal(a.margins, b.margins)
    assert any(a.u.shape != b.u.shape or not np.array_equal(a.u, b.u)
               for a, b in zip(cases, other))


def test_sim_grid_buckets_and_sizes(cases):
    small = [c for c in cases if c.bucket == "small"]
    assert len(small) == inputs.N_SMALL
    for c in small:
        n, j1 = c.u.shape
        assert inputs.SMALL_J[0] <= j1 - 1 <= inputs.SMALL_J[1]
        assert inputs.SMALL_N[0] <= n <= inputs.SMALL_N[1]
    sized = [(len(c.ids), len(c.wb)) for c in cases if c.bucket != "small"]
    assert sized == list(inputs.MID_SIZES + inputs.LARGE_SIZES)


def test_every_product_considered_and_subsets_have_two(cases):
    for c in cases:
        considered = np.isfinite(c.u[:, :-1])
        assert considered.any(axis=0).all()
        assert (considered.sum(axis=1) >= 2).all()
        if c.bucket != "small":
            assert not considered.all()


def test_pre_merger_foc_holds(cases):
    for c in cases:
        problem = c.build_problem()
        gaps = simulation.consistency_check(problem).gaps
        assert max(abs(g) for g in gaps.values()) < 1e-10
        assert 0.0 < c.margins.min() and c.margins.max() < 1.0


def test_oracle_matches_package_residual(cases):
    rng = np.random.default_rng(0)
    for c in [cases[0], cases[1], cases[-3], cases[-1]]:
        problem = c.build_problem()
        pdd = rng.uniform(0.0, 0.1, size=len(c.ids))
        ours = checks.foc_residual(c, pdd)
        theirs = simulation.foc_residual(problem, dict(zip(c.ids, pdd)))
        theirs = dict(zip(problem.order, theirs))
        np.testing.assert_allclose(ours, [theirs[pid] for pid in c.ids], atol=1e-12)


def test_fit_geo_deterministic_and_noisy():
    a, b = inputs.fit_geo_cases(3), inputs.fit_geo_cases(3)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.revenues, y.revenues)
        np.testing.assert_array_equal(x.design, y.design)
    small, large = a
    assert small.design.shape[:2] == (50, 20) and not small.noisy
    assert large.design.shape[:2] == (1000, 100) and large.noisy
    assert not np.array_equal(large.revenues, inputs.fit_geo_cases(4)[1].revenues)


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    pct, value = tail_percentile(samples)
    assert sum(s > value for s in samples) == 10
    assert pct == 90.0
    assert tail_percentile([1.0, 3.0, 2.0]) == (100.0, 3.0)


def test_self_time_subtracts_union_of_children():
    spans = [Span(1, "root", 0.0, 10.0, None, 1, 0),
             Span(2, "a", 1.0, 4.0, 1, 1, 0),
             Span(3, "b", 3.0, 6.0, 1, 1, 7),    # overlaps a on another thread
             Span(4, "c", 8.0, 12.0, 1, 1, 0)]   # runs past the parent's end
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[2] == pytest.approx(3.0)


def test_tracer_wraps_and_restores():
    tracer = Tracer()
    original = simulation.post_merger_state
    tracer.wrap(simulation, "post_merger_state", "simulation.post_merger_state")
    try:
        c = inputs.sim_grid_cases(1)[0]
        with tracer.operation("op.test.small") as root:
            simulation.foc_residual(c.build_problem(), np.zeros(len(c.ids)))
    finally:
        tracer.uninstall()
    assert simulation.post_merger_state is original
    (inner,) = [sp for sp in tracer.spans if sp.name == "simulation.post_merger_state"]
    assert inner.parent == root.id and inner.trace == root.trace


def test_benchmark_json_names_every_reported_metric():
    import json

    import layers

    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    probes = {"cli.interpreter_s", "cli.import_s", "trace.overhead_s", "trace.overhead_share"}
    reported = {name: unit for name, (_, unit) in layers.per_layer([]).items()}
    assert {m["name"] for m in doc["per_layer"]} == set(reported) | probes
    for m in doc["per_layer"]:
        assert m["unit"] == reported.get(m["name"], m["unit"])
    assert {m["name"] for m in doc["end_to_end"]} == {"setup_s", "light_cpu_s", "heavy_cpu_s",
                                                      "peak_rss_mb"}
