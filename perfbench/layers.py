"""Per-layer metrics computed from the spans of a traced run.

Every benchmark operation runs under a root span named
``op.<workload>.<part>``; all spans sharing its trace id belong to that
part. Each layer metric is taken on the workload part that exercises it,
suffixed by the part where the workload has several.

A metric whose spans are absent reads NaN, never 0: ``run.py`` refuses to
report it, so a boundary the package no longer calls cannot pass for a gain.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from tracing import Span, self_times

BERTRAND_CAP = 400  # solve_bertrand's default fixed-point iteration cap
ABSENT = math.nan


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else ABSENT


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else ABSENT


def _sum(values: list[float]) -> float:
    return sum(values) if values else ABSENT


def _count(items: list) -> float:
    return len(items) if items else ABSENT


def _ratio(num: float, den: float) -> float:
    return num / den if den else ABSENT


def per_layer(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Layer metric name -> (value, unit)."""
    part_of = {sp.trace: tuple(sp.name.split(".")[1:3])
               for sp in spans if sp.name.startswith("op.")}
    by_part: dict[tuple, list[Span]] = defaultdict(list)
    for sp in spans:
        by_part[part_of.get(sp.trace)].append(sp)
    own = self_times(spans)

    def pick(parts, name: str) -> list[Span]:
        return [sp for part in parts for sp in by_part[part] if sp.name == name]

    def durations(parts, name: str) -> list[float]:
        return [sp.duration for sp in pick(parts, name)]

    out: dict[str, tuple[float, str]] = {}

    cli = [p for p in by_part if p and p[0] == "cli_screen"]
    out["cli.command_self_s"] = (_median([own[sp.id] for sp in pick(cli, "cli.command")]), "s")
    out["market.load_s"] = (_median(durations(cli, "market.load_market")), "s")
    out["ces.load_economy_s"] = (_median(durations(cli, "ces.load_economy")), "s")
    out["effects.report_s"] = (_median(durations(cli, "effects.effects_report")), "s")
    out["passthrough.matrix_s"] = (
        _median(durations(cli, "passthrough.passthrough_matrix_from_market")), "s")

    for bucket in ("small", "mid", "large"):
        part = [("sim_grid", bucket)]
        sims = pick(part, "simulation.simulate")
        foc = durations(part, "simulation.foc_residual")
        out[f"simulation.foc_calls.{bucket}"] = (_count(foc), "count")
        out[f"simulation.foc_residual_s.{bucket}"] = (_sum(foc), "s")
        out[f"simulation.post_merger_state_s.{bucket}"] = (
            _sum(durations(part, "simulation.post_merger_state")), "s")
        out[f"simulation.iterations.{bucket}"] = (
            _sum([sp.attrs["iterations"] for sp in sims]), "count")
        out[f"simulation.foc_share.{bucket}"] = (
            _ratio(_sum(foc), _sum([sp.duration for sp in sims])), "ratio")
        out[f"simulation.self_s.{bucket}"] = (_sum([own[sp.id] for sp in sims]), "s")
    large = [("sim_grid", "large")]
    out["ces.shares_s.large"] = (_mean(durations(large, "ces.softmax_rows")), "s")
    out["ces.revenue_diversion_s.large"] = (
        _mean(durations(large, "ces.diversion_from_share_values")), "s")

    for model in ("ces", "logit"):
        part = [("harness_mc", model)]
        solves = pick(part, "harness.solve_bertrand")
        out[f"harness.trial_s.{model}"] = (_mean(durations(part, "harness.run_trial")), "s")
        out[f"harness.bertrand_calls.{model}"] = (_count(solves), "count")
        out[f"harness.bertrand_s.{model}"] = (_sum([sp.duration for sp in solves]), "s")
        out[f"harness.bertrand_iterations.{model}"] = (
            _sum([sp.attrs["iterations"] for sp in solves]), "count")
        # solves that ran every step of the fixed point; iterations also
        # counts the Newton polish steps, so it cannot tell
        out[f"harness.bertrand_cap_hits.{model}"] = (
            _sum([int(sp.attrs.get("fixed_point_steps", 0) >= BERTRAND_CAP)
                  for sp in solves]), "count")
        out[f"harness.primitives_s.{model}"] = (
            _sum(durations(part, "harness.random_primitives")), "s")
        out[f"harness.observe_s.{model}"] = (_sum(durations(part, "harness.observe")), "s")
        out[f"effects.guppi_s.{model}"] = (_sum(durations(part, "effects.guppi")), "s")
        out[f"effects.cmcr_s.{model}"] = (_sum(durations(part, "effects.cmcr")), "s")

    for bucket in ("small", "large"):
        part = [("fit_geo", bucket)]
        fits = pick(part, "fitting.fit_nested_ces")
        calls = _sum([sp.attrs["log"] for sp in fits])
        nfev = _sum([sp.attrs["nfev"] for sp in fits])
        out[f"fitting.residual_calls.{bucket}"] = (calls, "count")
        out[f"fitting.nfev.{bucket}"] = (nfev, "count")
        out[f"fitting.jacobian_call_share.{bucket}"] = (_ratio(calls - nfev, calls), "ratio")
        out[f"fitting.predict_s.{bucket}"] = (_mean(durations(part, "fitting.model_revenues")), "s")
    out["ces.nested_shares_s.large"] = (
        _mean(durations([("fit_geo", "large")], "ces.nested_share_rows")), "s")
    return out
