"""Command-line surface.

Every command is a pure function of its input files, flags, and seed. Each is
registered with ``_command`` and returns a ``Result``: its result document,
table text, CSV rows and exit code. The runner does the rest: it adds
``--format``, ``--out`` and ``--quiet``, builds the run manifest (command,
inputs, config hash, seed, version, timestamp) that accompanies every output
so results can be reproduced, writes the output, and exits with the returned
code, so a non-zero exit a command returns (``validate`` with findings,
``simulate`` or ``fit`` without convergence) still comes with its output.
Tables render fractions as percentages with one decimal; JSON always carries
full-precision fractions. A command imports the modules beyond ``market`` and
``effects`` that it runs, so a screen starts without the simulator or the harness.

Exit codes: 0 ok, 2 validation failure, 3 non-convergence, 4 I/O error.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import math
import sys
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import click
import numpy as np

from . import __version__, effects, market as mk
from .errors import ConvergenceError, InputValidationError

EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_IO = 4


def _config_hash(command: str, inputs: list[str], flags: dict) -> str:
    h = hashlib.sha256()
    h.update(command.encode())
    for path in inputs:
        h.update(Path(path).name.encode())
        try:
            h.update(Path(path).read_bytes())
        except OSError:
            pass
    h.update(json.dumps(flags, sort_keys=True, default=str).encode())
    return h.hexdigest()[:16]


def _manifest(command: str, inputs: list[str], flags: dict, seed=None) -> dict:
    return {
        "command": command,
        "inputs": list(inputs),
        "config_hash": _config_hash(command, inputs, flags),
        "seed": seed,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _pct(x: float) -> str:
    return f"{100.0 * x:.1f}%"


def _money(x: float, currency: str) -> str:
    return f"{x:,.0f} {currency}"


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)


class Result(NamedTuple):
    """What a command returns: its result document, its table text, its CSV
    rows (None: the document's ``products``) and its exit code. ``detail``
    rows, when given, are the CSV that ``--out`` writes, the formatted result
    then going to stdout; without ``--out``, ``--format csv`` prints them."""

    doc: dict
    text: str
    csv_rows: list | None = None
    code: int = 0
    detail: list | None = None


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _doc_to_csv(doc: dict) -> list[list]:
    rows = doc.get("products")
    if not rows:
        return []
    headers = list(rows[0])
    return [headers] + [[rec[h] for h in headers] for rec in rows]


def _non_finite(doc, path: str = "result") -> str | None:
    """Path of the first NaN or infinite number in a result document, else None."""
    if isinstance(doc, float):
        return None if math.isfinite(doc) else path
    if isinstance(doc, list):
        doc = dict(enumerate(doc))
    if not isinstance(doc, dict):
        return None
    return next(filter(None, (_non_finite(v, f"{path}/{k}") for k, v in doc.items())), None)


def _emit(res: Result, fmt: str, out: str | None, quiet: bool, manifest: dict) -> None:
    """Write ``res`` in ``fmt`` to stdout, or to ``out`` with the manifest beside it."""
    if fmt == "json":
        payload = json.dumps({"manifest": manifest, "result": res.doc}, indent=2, allow_nan=False) + "\n"
    elif fmt == "csv":
        rows = res.detail if res.detail is not None and not out else res.csv_rows
        payload = _csv(_doc_to_csv(res.doc) if rows is None else rows)
    else:
        payload = res.text + "\n"
    if out:
        Path(out).write_text(payload if res.detail is None else _csv(res.detail))
        Path(str(out) + ".manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
        if res.detail is None:
            if not quiet:
                click.echo(f"wrote {out}")
            return
    click.echo(payload, nl=False)
    if fmt == "table" and not quiet:
        click.echo(f"manifest: config_hash={manifest['config_hash']} "
                   f"version={manifest['version']}")
    elif fmt == "csv" and not quiet:
        click.echo(json.dumps(manifest), err=True)


def _command(name: str, inputs: tuple[str, ...] = (), seed: str | None = None):
    """Register a function of its parsed arguments that returns a ``Result``
    as the command ``name``, with ``--format``, ``--out`` and ``--quiet``.

    The runner builds the manifest (the ``inputs`` parameters that are set are
    its input paths, the ``seed`` parameter its seed, every other parameter a
    flag), writes the output and exits with the result's code; a validation
    error, non-convergence or I/O error, output writing included, exits 2, 3
    or 4. A result holding a NaN or infinite number is a validation error: the
    inputs lie outside the range the formulas can represent.
    """
    def register(fn):
        @functools.wraps(fn)
        def run(fmt, out, quiet, **params):
            try:
                res = fn(**params)
                bad = _non_finite(res.doc)
                if bad:
                    raise InputValidationError(f"{bad} is not finite: inputs out of numeric range")
                flags = {k: v for k, v in params.items() if k not in (*inputs, seed)}
                manifest = _manifest(name, [params[k] for k in inputs if params[k] is not None],
                                     {"format": fmt, **flags}, params[seed] if seed else None)
                _emit(res, fmt, out, quiet, manifest)
            except InputValidationError as exc:
                click.echo(f"validation error: {exc}", err=True)
                sys.exit(EXIT_VALIDATION)
            except ConvergenceError as exc:
                click.echo(f"did not converge: {exc}", err=True)
                sys.exit(EXIT_NO_CONVERGENCE)
            except OSError as exc:
                click.echo(f"i/o error: {exc}", err=True)
                sys.exit(EXIT_IO)
            if res.code:
                sys.exit(res.code)

        run.__click_params__ = [
            click.Option(["--format", "fmt"], type=click.Choice(["json", "table", "csv"]),
                         default="table", show_default=True, help="Output format."),
            click.Option(["--out"], type=click.Path(dir_okay=False), default=None,
                         help="Write output to this path instead of stdout."),
            click.Option(["--quiet"], is_flag=True, default=False,
                         help="Suppress informational chatter."),
            *getattr(fn, "__click_params__", []),
        ]
        return main.command(name)(run)
    return register


def _load_bundle_with_merger(market_file: str) -> mk.MarketBundle:
    bundle = mk.load_market(market_file)
    if bundle.merger is None:
        raise InputValidationError(f"{market_file}: no merger section")
    return bundle


def _apply_efficiency(bundle: mk.MarketBundle, efficiency: float | None) -> mk.MarketBundle:
    if efficiency is None:
        return bundle
    if not -1.0 < efficiency <= 0.0:
        raise InputValidationError(f"--efficiency {efficiency} outside (-1, 0]")
    merger = bundle.merger
    eff = {pid: efficiency for pid in effects.merging_products(bundle.market, merger)}
    return mk.MarketBundle(bundle.market, bundle.diversion,
                           mk.MergerSpec(merger.firm_a, merger.firm_b, eff, merger.passthrough))


@click.group()
@click.version_option(__version__)
def main():
    """Merger screening from revenues, margins, and revenue diversion ratios."""


@_command("validate", inputs=("market_file",))
@click.argument("market_file", type=click.Path(exists=True))
def validate(market_file):
    """Check a market file against every data invariant; list each finding."""
    try:
        bundle = mk._parse_market(market_file)
        violations = [str(v) for v in mk.validate(bundle.market, bundle.diversion, bundle.merger)]
    except InputValidationError as exc:  # the file does not parse
        violations = [str(exc)]
    text = "\n".join(["INVALID:"] + [f"  {v}" for v in violations])
    return Result({"valid": not violations, "violations": violations},
                  text if violations else "OK", [["violation"]] + [[v] for v in violations],
                  EXIT_VALIDATION if violations else 0)


@_command("guppi", inputs=("market_file",))
@click.argument("market_file", type=click.Path(exists=True))
@click.option("--naive", is_flag=True, help="Add the revenue-proxy comparator column.")
@click.option("--efficiency", type=float, default=None,
              help="Uniform efficiency credit (fraction <= 0) for all merging products.")
def guppi(market_file, naive, efficiency):
    """Gross upward pricing pressure indices and implied elasticities."""
    bundle = _apply_efficiency(_load_bundle_with_merger(market_file), efficiency)
    m = bundle.market
    s = effects._screen(m, bundle.diversion, bundle.merger)  # one evaluation for all columns
    eps, g, g_naive = s.keyed(s.eps), s.keyed(s.guppi), s.keyed(s.naive)
    doc = {"products": [
        {"id": pid, "firm": m.product(pid).firm, "margin": m.product(pid).margin,
         "elasticity": eps[pid], "guppi": g[pid],
         **({"naive_guppi": g_naive[pid]} if naive else {})}
        for pid in s.order
    ]}
    headers = ["product", "firm", "margin", "elasticity", "guppi"] + (["naive"] if naive else [])
    rows = [[pid, m.product(pid).firm, _pct(m.product(pid).margin),
             f"{eps[pid]:.3f}", _pct(g[pid])] + ([_pct(g_naive[pid])] if naive else [])
            for pid in s.order]
    return Result(doc, _table(headers, rows))


@_command("cmcr", inputs=("market_file",))
@click.argument("market_file", type=click.Path(exists=True))
@click.option("--naive", is_flag=True, help="Add the classic-formula comparator column.")
def cmcr(market_file, naive):
    """Compensating marginal cost reductions."""
    bundle = _load_bundle_with_merger(market_file)
    m, d, mg = bundle.market, bundle.diversion, bundle.merger
    res = effects.cmcr(m, d, mg)
    res_naive = effects.naive_cmcr(m, d, mg) if naive else None
    order = effects.merging_products(m, mg)
    doc = {"products": [
        {"id": pid, "margin": m.product(pid).margin,
         "post_merger_margin": res.post_margins[pid], "cmcr": res.efficiencies[pid],
         **({"naive_cmcr": res_naive[pid]} if res_naive else {})}
        for pid in order
    ], "condition_number": res.condition_number}
    headers = ["product", "margin", "post-margin", "cmcr"] + (["naive"] if naive else [])
    rows = [[pid, _pct(m.product(pid).margin), _pct(res.post_margins[pid]),
             _pct(res.efficiencies[pid])] + ([_pct(res_naive[pid])] if res_naive else [])
            for pid in order]
    return Result(doc, _table(headers, rows))


@_command("welfare", inputs=("market_file",))
@click.argument("market_file", type=click.Path(exists=True))
@click.option("--passthrough", type=click.Choice(["file", "identity", "ces"]),
              default="file", show_default=True,
              help="Pass-through mode; 'file' keeps what the market file configures.")
def welfare(market_file, passthrough):
    """First-order price effects and welfare report."""
    bundle = _load_bundle_with_merger(market_file)
    m, d, mg = bundle.market, bundle.diversion, bundle.merger
    if passthrough != "file":
        mg = mk.MergerSpec(mg.firm_a, mg.firm_b, mg.efficiencies, passthrough)
    report = effects.effects_report(m, d, mg)
    headers = ["product", "guppi", "price-change", "dCS", "dPS", "cmcr"]
    rows = [[pid, _pct(report.guppi[pid]), _pct(report.price_changes[pid]),
             _money(report.welfare.cs[pid], m.currency),
             _money(report.welfare.ps[pid], m.currency),
             _pct(report.cmcr.efficiencies[pid])]
            for pid in report.order]
    text = _table(headers, rows) + (
        f"\ntotal dCS: {_money(report.welfare.total_cs, m.currency)}"
        f"\ntotal dPS: {_money(report.welfare.total_ps, m.currency)}"
    )
    for caveat in report.caveats:
        text += f"\nnote: {caveat}"
    return Result(report.to_dict(), text)


@_command("passthrough", inputs=("market_file",))
@click.argument("market_file", type=click.Path(exists=True))
def passthrough(market_file):
    """CES merger pass-through M = -J^-1 for two single-product firms."""
    from .passthrough import passthrough_matrix_from_market

    bundle = _load_bundle_with_merger(market_file)
    pt = passthrough_matrix_from_market(bundle.market, bundle.diversion, bundle.merger)
    doc = {"order": list(pt.order), "matrix": pt.values.tolist()}
    rows = [[pt.order[i]] + [f"{pt.values[i, j]:.3f}" for j in range(len(pt.order))]
            for i in range(len(pt.order))]
    return Result(doc, _table(["", *pt.order], rows),
                  [["product", *pt.order]] + [[pt.order[i]] + [repr(v) for v in pt.values[i]]
                                              for i in range(len(pt.order))])


@_command("simulate", inputs=("market_file", "economy_file"))
@click.argument("market_file", type=click.Path(exists=True))
@click.argument("economy_file", type=click.Path(exists=True))
@click.option("--tolerance", type=float, default=1e-10, show_default=True)
def simulate(market_file, economy_file, tolerance):
    """Merger simulation: equilibrium percentage price changes."""
    from . import ces, simulation

    bundle = _load_bundle_with_merger(market_file)
    economy = ces.load_economy(economy_file)
    problem = simulation.merger_problem(bundle.market, economy, bundle.merger)
    result = simulation.simulate(problem, simulation.SolverConfig(tolerance=tolerance))
    doc = result.to_dict()
    # the market file's diversion is authoritative for screening statistics,
    # but the simulation necessarily derives substitution from the economy;
    # surface any disagreement between the two
    implied = ces.revenue_diversion(economy)
    gap = max(
        (abs(bundle.diversion.get(j, k) - implied.get(j, k))
         for j in bundle.diversion.order for k in bundle.diversion.order if j != k),
        default=0.0,
    )
    notes = list(result.warnings)
    if gap > 1e-3:
        notes.append(
            f"market file supplies diversion directly (kept for screening); "
            f"economy-implied diversion differs by up to {gap:.4f}"
        )
    doc["warnings"] = notes
    harm = sum(result.price_changes[pid] * bundle.market.product(pid).revenue
               for pid in effects.merging_products(bundle.market, bundle.merger))
    doc["merging_harm"] = -harm
    headers = ["product", "price-change", "post-margin"]
    rows = [[pid, _pct(result.price_changes[pid]), _pct(result.post_margins[pid])]
            for pid in result.order]
    text = _table(headers, rows) + (
        f"\nresidual: {result.residual_norm:.3e}  iterations: {result.iterations}"
        f"\nmerging-product harm: {_money(-harm, bundle.market.currency)}"
    )
    for warning in notes:
        text += f"\nnote: {warning}"
    return Result(doc, text,
                  [["product", "price_change", "post_margin"]]
                  + [[pid, repr(result.price_changes[pid]), repr(result.post_margins[pid])]
                     for pid in result.order],
                  0 if result.converged else EXIT_NO_CONVERGENCE)


@_command("second-choice", inputs=("economy_file",))
@click.argument("economy_file", type=click.Path(exists=True))
@click.option("--remove", required=True, help="Product to remove.")
def second_choice(economy_file, remove):
    """Revenue diversion implied by removing one product."""
    from . import ces

    div = ces.second_choice_diversion(ces.load_economy(economy_file), remove)
    return Result({"removed": remove, "diversion": div},
                  _table(["to", "diversion"], [[pid, _pct(v)] for pid, v in div.items()]),
                  [["to", "diversion"]] + [[pid, repr(v)] for pid, v in div.items()])


@_command("fit", inputs=("fixture_file",), seed="synthetic_seed")
@click.argument("fixture_file", type=click.Path(exists=True), required=False)
@click.option("--synthetic-seed", type=int, default=None,
              help="Generate a synthetic geography with this seed and fit it.")
@click.option("--tracts", type=int, default=50, show_default=True)
@click.option("--stores", type=int, default=20, show_default=True)
@click.option("--mu", type=float, default=0.46, show_default=True,
              help="True nesting parameter of the synthetic geography.")
@click.option("--weighting", type=click.Choice(["none", "revenue"]), default="none",
              show_default=True)
def fit(fixture_file, synthetic_seed, tracts, stores, mu, weighting):
    """Fit nested-CES utility parameters to store revenues."""
    from . import fitting

    if (fixture_file is None) == (synthetic_seed is None):
        raise InputValidationError("give exactly one of FIXTURE_FILE or --synthetic-seed")
    if synthetic_seed is not None:
        fx = fitting.generate_spatial_fixture(
            fitting.SpatialConfig(seed=synthetic_seed, n_tracts=tracts, n_stores=stores, mu=mu))
        truth = {"theta": fx.theta.tolist(), "mu": fx.mu}
    else:
        fx = fitting.load_spatial_fixture(fixture_file)
        truth = None
    rev = np.array([fx.revenues[sid] for sid in fx.store_ids])
    nests = [fx.nests[sid] for sid in fx.store_ids]
    result = fitting.fit_nested_ces(
        rev, fx.design, fx.budgets, nests, mask=fx.mask,
        consumer_weights=fx.weights, weighting=weighting)
    doc = {
        "theta": result.theta.tolist(),
        "mu": result.mu,
        "converged": result.converged,
        "residual_se": result.residual_se,
        "n_evaluations": result.n_evaluations,
        "message": result.message,
    }
    if truth is not None:
        doc["truth"] = truth
    rows = [["mu", f"{result.mu:.4f}"]] + [
        [f"theta[{i}]", f"{v:.4f}"] for i, v in enumerate(result.theta)
    ]
    text = _table(["parameter", "estimate"], rows)
    text += f"\nconverged: {result.converged}  residual s.e.: {result.residual_se:.4g}"
    return Result(doc, text,
                  [["parameter", "estimate"], ["mu", repr(result.mu)]]
                  + [[f"theta[{i}]", repr(v)] for i, v in enumerate(result.theta.tolist())],
                  0 if result.converged else EXIT_NO_CONVERGENCE)


@_command("harness", seed="seed")
@click.option("--model", type=click.Choice(["ces", "logit"]), default="ces", show_default=True)
@click.option("--n", type=int, default=200, show_default=True)
@click.option("--seed", type=int, required=True)
def harness_cmd(model, n, seed):
    """Monte-Carlo accuracy experiment: GUPPI predictions vs true equilibria.

    With --out, the per-trial CSV goes to that path and the summary to stdout.
    """
    from . import harness

    result = harness.run_accuracy_experiment(
        harness.HarnessConfig(seed=seed, n_markets=n, model=model))
    rows = [[k, str(v)] for k, v in result.summary.items()]
    # each reason starts with its stage, "pre-merger:" or "post-merger:"
    stages = Counter(reason.split(":", 1)[0] for reason in result.failure_reasons.values())
    failures = dict(sorted(stages.items()))
    return Result({"summary": result.summary, **({"failures": failures} if failures else {})},
                  _table(["statistic", "value"], rows)
                  + "".join(f"\nfailed at {stage}: {count}" for stage, count in failures.items()),
                  [["statistic", "value"]] + rows, detail=list(result.to_csv_rows()))


if __name__ == "__main__":
    main()
