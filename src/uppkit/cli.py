"""Command-line surface.

Every command is a pure function of its input files, flags, and seed; a run
manifest (command, inputs, config hash, seed, version, timestamp) accompanies
every output so results can be reproduced. Tables render fractions as
percentages with one decimal; JSON always carries full-precision fractions.

Exit codes: 0 ok, 2 validation failure, 3 non-convergence, 4 I/O error.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import click
import numpy as np

from . import __version__, ces, effects, fitting, harness, market as mk, simulation
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


def _emit(doc: dict, table_text: str, fmt: str, out: str | None,
          manifest: dict, quiet: bool, csv_rows=None) -> None:
    """Write the result in the requested format, attaching the manifest."""
    if fmt == "json":
        payload = json.dumps({"manifest": manifest, "result": doc}, indent=2, allow_nan=False) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in (csv_rows if csv_rows is not None else _doc_to_csv(doc)):
            writer.writerow(row)
        payload = buf.getvalue()
    else:
        payload = table_text + "\n"
    if out:
        Path(out).write_text(payload)
        Path(str(out) + ".manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
        if not quiet:
            click.echo(f"wrote {out}")
    else:
        click.echo(payload, nl=False)
        if fmt == "table" and not quiet:
            click.echo(f"manifest: config_hash={manifest['config_hash']} "
                       f"version={manifest['version']}")
        elif fmt == "csv" and not quiet:
            click.echo(json.dumps(manifest), err=True)


def _doc_to_csv(doc: dict):
    rows = doc.get("products")
    if not rows:
        yield from ()
        return
    headers = list(rows[0].keys())
    yield headers
    for rec in rows:
        yield [rec[h] for h in headers]


def _handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except InputValidationError as exc:
            click.echo(f"validation error: {exc}", err=True)
            sys.exit(EXIT_VALIDATION)
        except ConvergenceError as exc:
            click.echo(f"did not converge: {exc}", err=True)
            sys.exit(EXIT_NO_CONVERGENCE)
        except OSError as exc:
            click.echo(f"i/o error: {exc}", err=True)
            sys.exit(EXIT_IO)
    return wrapper


def _common_options(fn):
    fn = click.option("--format", "fmt", type=click.Choice(["json", "table", "csv"]),
                      default="table", show_default=True, help="Output format.")(fn)
    fn = click.option("--out", type=click.Path(dir_okay=False), default=None,
                      help="Write output to this path instead of stdout.")(fn)
    fn = click.option("--quiet", is_flag=True, default=False,
                      help="Suppress informational chatter.")(fn)
    return fn


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


@main.command()
@click.argument("market_file", type=click.Path(exists=True))
@_common_options
@_handle_errors
def validate(market_file, fmt, out, quiet):
    """Check a market file against every data invariant."""
    try:
        bundle = mk.load_market(market_file)
        findings = mk.validate(bundle.market, bundle.diversion, bundle.merger)
    except InputValidationError as exc:
        findings = None
        message = str(exc)
    manifest = _manifest("validate", [market_file], {"format": fmt})
    if findings is None:
        doc = {"valid": False, "violations": [message]}
        text = f"INVALID: {message}"
    elif findings:
        doc = {"valid": False, "violations": [str(v) for v in findings]}
        text = "\n".join(["INVALID:"] + [f"  {v}" for v in findings])
    else:
        doc = {"valid": True, "violations": []}
        text = "OK"
    _emit(doc, text, fmt, out, manifest, quiet,
          csv_rows=[["violation"]] + [[v] for v in doc["violations"]])
    if not doc["valid"]:
        sys.exit(EXIT_VALIDATION)


@main.command()
@click.argument("market_file", type=click.Path(exists=True))
@click.option("--naive", is_flag=True, help="Add the revenue-proxy comparator column.")
@click.option("--efficiency", type=float, default=None,
              help="Uniform efficiency credit (fraction <= 0) for all merging products.")
@_common_options
@_handle_errors
def guppi(market_file, naive, efficiency, fmt, out, quiet):
    """Gross upward pricing pressure indices and implied elasticities."""
    bundle = _apply_efficiency(_load_bundle_with_merger(market_file), efficiency)
    m, d, mg = bundle.market, bundle.diversion, bundle.merger
    eps = effects.own_price_elasticities(m, d, mg)
    g = effects.guppi(m, d, mg)
    g_naive = effects.naive_guppi(m, d, mg)
    order = effects.merging_products(m, mg)
    doc = {"products": [
        {"id": pid, "firm": m.product(pid).firm, "margin": m.product(pid).margin,
         "elasticity": eps[pid], "guppi": g[pid],
         **({"naive_guppi": g_naive[pid]} if naive else {})}
        for pid in order
    ]}
    headers = ["product", "firm", "margin", "elasticity", "guppi"] + (["naive"] if naive else [])
    rows = [[pid, m.product(pid).firm, _pct(m.product(pid).margin),
             f"{eps[pid]:.3f}", _pct(g[pid])] + ([_pct(g_naive[pid])] if naive else [])
            for pid in order]
    manifest = _manifest("guppi", [market_file],
                         {"format": fmt, "naive": naive, "efficiency": efficiency})
    _emit(doc, _table(headers, rows), fmt, out, manifest, quiet)


@main.command()
@click.argument("market_file", type=click.Path(exists=True))
@click.option("--naive", is_flag=True, help="Add the classic-formula comparator column.")
@_common_options
@_handle_errors
def cmcr(market_file, naive, fmt, out, quiet):
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
    manifest = _manifest("cmcr", [market_file], {"format": fmt, "naive": naive})
    _emit(doc, _table(headers, rows), fmt, out, manifest, quiet)


@main.command()
@click.argument("market_file", type=click.Path(exists=True))
@click.option("--passthrough", "pt_mode", type=click.Choice(["file", "identity", "ces"]),
              default="file", show_default=True,
              help="Pass-through mode; 'file' keeps what the market file configures.")
@_common_options
@_handle_errors
def welfare(market_file, pt_mode, fmt, out, quiet):
    """First-order price effects and welfare report."""
    bundle = _load_bundle_with_merger(market_file)
    m, d, mg = bundle.market, bundle.diversion, bundle.merger
    if pt_mode != "file":
        mg = mk.MergerSpec(mg.firm_a, mg.firm_b, mg.efficiencies, pt_mode)
    report = effects.effects_report(m, d, mg)
    doc = report.to_dict()
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
    manifest = _manifest("welfare", [market_file], {"format": fmt, "passthrough": pt_mode})
    _emit(doc, text, fmt, out, manifest, quiet)


@main.command()
@click.argument("market_file", type=click.Path(exists=True))
@_common_options
@_handle_errors
def passthrough(market_file, fmt, out, quiet):
    """Closed-form CES merger pass-through matrix (2x2)."""
    from .passthrough import passthrough_matrix_from_market

    bundle = _load_bundle_with_merger(market_file)
    pt = passthrough_matrix_from_market(bundle.market, bundle.diversion, bundle.merger)
    doc = {"order": list(pt.order), "matrix": pt.values.tolist()}
    rows = [[pt.order[i]] + [f"{pt.values[i, j]:.3f}" for j in range(len(pt.order))]
            for i in range(len(pt.order))]
    text = _table(["", *pt.order], rows)
    manifest = _manifest("passthrough", [market_file], {"format": fmt})
    _emit(doc, text, fmt, out, manifest, quiet,
          csv_rows=[["product", *pt.order]] + [[pt.order[i]] + [repr(v) for v in pt.values[i]]
                                               for i in range(len(pt.order))])


@main.command()
@click.argument("market_file", type=click.Path(exists=True))
@click.argument("economy_file", type=click.Path(exists=True))
@click.option("--tolerance", type=float, default=1e-10, show_default=True)
@_common_options
@_handle_errors
def simulate(market_file, economy_file, tolerance, fmt, out, quiet):
    """Merger simulation: equilibrium percentage price changes."""
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
    manifest = _manifest("simulate", [market_file, economy_file],
                         {"format": fmt, "tolerance": tolerance})
    _emit(doc, text, fmt, out, manifest, quiet,
          csv_rows=[["product", "price_change", "post_margin"]]
          + [[pid, repr(result.price_changes[pid]), repr(result.post_margins[pid])]
             for pid in result.order])
    if not result.converged:
        sys.exit(EXIT_NO_CONVERGENCE)


@main.command("second-choice")
@click.argument("economy_file", type=click.Path(exists=True))
@click.option("--remove", "removed", required=True, help="Product to remove.")
@_common_options
@_handle_errors
def second_choice(economy_file, removed, fmt, out, quiet):
    """Revenue diversion implied by removing one product."""
    economy = ces.load_economy(economy_file)
    div = ces.second_choice_diversion(economy, removed)
    doc = {"removed": removed, "diversion": div}
    rows = [[pid, _pct(v)] for pid, v in div.items()]
    manifest = _manifest("second-choice", [economy_file], {"format": fmt, "remove": removed})
    _emit(doc, _table(["to", "diversion"], rows), fmt, out, manifest, quiet,
          csv_rows=[["to", "diversion"]] + [[pid, repr(v)] for pid, v in div.items()])


@main.command()
@click.argument("fixture_file", type=click.Path(exists=True), required=False)
@click.option("--synthetic-seed", type=int, default=None,
              help="Generate a synthetic geography with this seed and fit it.")
@click.option("--tracts", type=int, default=50, show_default=True)
@click.option("--stores", type=int, default=20, show_default=True)
@click.option("--mu", type=float, default=0.46, show_default=True,
              help="True nesting parameter of the synthetic geography.")
@click.option("--weighting", type=click.Choice(["none", "revenue"]), default="none",
              show_default=True)
@_common_options
@_handle_errors
def fit(fixture_file, synthetic_seed, tracts, stores, mu, weighting, fmt, out, quiet):
    """Fit nested-CES utility parameters to store revenues."""
    if (fixture_file is None) == (synthetic_seed is None):
        raise InputValidationError("give exactly one of FIXTURE_FILE or --synthetic-seed")
    if synthetic_seed is not None:
        fx = harness.generate_spatial_fixture(
            harness.SpatialConfig(seed=synthetic_seed, n_tracts=tracts, n_stores=stores, mu=mu))
        inputs: list[str] = []
        seed = synthetic_seed
        truth = {"theta": fx.theta.tolist(), "mu": fx.mu}
    else:
        fx = harness.load_spatial_fixture(fixture_file)
        inputs = [fixture_file]
        seed = None
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
    manifest = _manifest("fit", inputs,
                         {"format": fmt, "weighting": weighting, "tracts": tracts,
                          "stores": stores, "mu": mu}, seed=seed)
    _emit(doc, text, fmt, out, manifest, quiet,
          csv_rows=[["parameter", "estimate"], ["mu", repr(result.mu)]]
          + [[f"theta[{i}]", repr(v)] for i, v in enumerate(result.theta.tolist())])
    if not result.converged:
        sys.exit(EXIT_NO_CONVERGENCE)


@main.command("harness")
@click.option("--model", type=click.Choice(["ces", "logit"]), default="ces", show_default=True)
@click.option("--n", "n_markets", type=int, default=200, show_default=True)
@click.option("--seed", type=int, required=True)
@_common_options
@_handle_errors
def harness_cmd(model, n_markets, seed, fmt, out, quiet):
    """Monte-Carlo accuracy experiment: GUPPI predictions vs true equilibria.

    With --out, the per-trial CSV goes to that path and the summary to stdout.
    """
    config = harness.HarnessConfig(seed=seed, n_markets=n_markets, model=model)
    result = harness.run_accuracy_experiment(config)
    manifest = _manifest("harness", [], {"format": fmt, "model": model, "n": n_markets},
                         seed=seed)
    csv_rows = list(result.to_csv_rows())
    if out:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows(csv_rows)
        Path(out).write_text(buf.getvalue())
        Path(str(out) + ".manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    summary_doc = {"summary": result.summary}
    rows = [[k, str(v)] for k, v in result.summary.items()]
    text = _table(["statistic", "value"], rows)
    if fmt == "csv" and not out:
        _emit(summary_doc, text, "csv", None, manifest, quiet, csv_rows=csv_rows)
    else:
        _emit(summary_doc, text, fmt, None, manifest, quiet,
              csv_rows=[["statistic", "value"]] + rows)


if __name__ == "__main__":
    main()
