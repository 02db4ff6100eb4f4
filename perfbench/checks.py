"""Correctness checks on every benchmark operation.

Each check returns a list of problems; an empty list means the output is
correct. The sim_grid oracle recomputes the post-merger pricing conditions
with plain numpy from the generator's arrays, independently of uppkit.
"""

from __future__ import annotations

import json

import numpy as np

from inputs import FitCase, SimCase, share_rows

# Golden Staples/Office Depot numbers (acceptance criteria 3, 4, 7, 8 and 9)
STAPLES_GUPPI = {"SP": 0.1041, "OD": 0.1367}
STAPLES_CMCR = {"SP": -0.291, "OD": -0.327}
STAPLES_PASSTHROUGH = [[1.005, 0.345], [0.347, 1.098]]
STAPLES_PRICE_EFFECTS = {"SP": 0.152, "OD": 0.187}
STAPLES_SIM = {"SP": 0.143, "OD": 0.180}

HARNESS_MIN_CONSERVATIVE = 0.95   # CES: share of true pdd >= GUPPI prediction
HARNESS_MAX_MEDIAN_ERROR = 0.15   # logit: median relative error of GUPPI
FIT_RTOL = 1e-2


def _close(name: str, got: float, want: float, tol: float) -> list[str]:
    if not abs(got - want) <= tol:
        return [f"{name} = {got!r}, expected {want} within {tol}"]
    return []


def foc_residual(case: SimCase, pdd: np.ndarray) -> np.ndarray:
    """Post-merger pricing conditions at ``pdd`` (product order of ``case.ids``)."""
    j = len(case.ids)
    u = case.u.copy()
    u[:, :j] += (1.0 - case.eta) * np.log1p(pdd)
    a = share_rows(u)
    wa = case.wb[:, None] * a[:, :j]
    den = (wa * (1.0 - a[:, :j])).sum(axis=0)
    eps = (1.0 - case.eta) * den / wa.sum(axis=0) - 1.0
    diversion = (wa.T @ a[:, :j]) / den[:, None]
    margins = 1.0 - (1.0 - case.margins) / (1.0 + pdd)
    post = np.array(case.post_owners)
    co_owned = (post[:, None] == post[None, :]) & ~np.eye(j, dtype=bool)
    cross = (co_owned * diversion) @ margins
    return -1.0 / eps - margins + (1.0 + 1.0 / eps) * cross


def check_simulation(case: SimCase, result, tolerance: float) -> list[str]:
    problems = []
    if not result.converged:
        problems.append(f"{case.bucket} J={len(case.ids)}: not converged")
    if any("self-consistent" in w for w in result.warnings):
        problems.append(f"{case.bucket} J={len(case.ids)}: pre-merger data flagged inconsistent")
    pdd = np.array([result.price_changes[pid] for pid in case.ids])
    norm = float(np.max(np.abs(foc_residual(case, pdd))))
    if not norm <= tolerance:
        problems.append(f"{case.bucket} J={len(case.ids)}: recomputed FOC residual {norm:.3e}")
    return problems


def check_experiment(model: str, records) -> list[str]:
    """The harness summary thresholds over the pooled ``TrialRecord``s of one
    model, with the formulas of ``run_accuracy_experiment``'s summary."""
    if not records:
        return [f"{model}: no trial records"]
    preds = np.array([r.predicted_pdd for r in records])
    trues = np.array([r.true_pdd for r in records])
    if model == "ces":
        got = float(np.mean(trues >= preds))
        if not got >= HARNESS_MIN_CONSERVATIVE:
            return [f"ces share_conservative {got} < {HARNESS_MIN_CONSERVATIVE}"]
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.abs(preds - trues) / np.abs(trues)
        got = float(np.median(rel[np.isfinite(rel)]))
        if not got < HARNESS_MAX_MEDIAN_ERROR:
            return [f"logit median_relative_error {got} >= {HARNESS_MAX_MEDIAN_ERROR}"]
    return []


def check_fit(case: FitCase, result) -> list[str]:
    if not result.converged:
        return [f"{case.bucket} fit not converged: {result.message}"]
    if case.noisy:
        return []
    problems = []
    theta_err = np.max(np.abs(result.theta - case.theta) / np.abs(case.theta))
    if not theta_err <= FIT_RTOL:
        problems.append(f"{case.bucket} fit: theta off by {theta_err:.2e} relative")
    mu_err = abs(result.mu - case.mu) / case.mu
    if not mu_err <= FIT_RTOL:
        problems.append(f"{case.bucket} fit: mu off by {mu_err:.2e} relative")
    return problems


def check_cli(command: str, returncode: int, stdout: str) -> list[str]:
    """Validate one ``--format json`` CLI output against the golden numbers."""
    if returncode != 0:
        return [f"{command}: exit code {returncode}"]
    try:
        doc = json.loads(stdout)["result"]
    except (ValueError, KeyError) as exc:
        return [f"{command}: output is not a JSON result document ({exc})"]
    try:
        if command == "guppi":
            got = {p["id"]: p["guppi"] for p in doc["products"]}
            return [e for pid, want in STAPLES_GUPPI.items()
                    for e in _close(f"guppi {pid}", got[pid], want, 5e-5)]
        if command == "cmcr":
            got = {p["id"]: p["cmcr"] for p in doc["products"]}
            return [e for pid, want in STAPLES_CMCR.items()
                    for e in _close(f"cmcr {pid}", got[pid], want, 2e-3)]
        if command == "welfare":
            got = {p["id"]: p["price_change"] for p in doc["products"]}
            return [e for pid, want in STAPLES_PRICE_EFFECTS.items()
                    for e in _close(f"price change {pid}", got[pid], want, 2e-3)]
        if command == "passthrough":
            got = np.asarray(doc["matrix"])
            err = float(np.max(np.abs(got - np.asarray(STAPLES_PASSTHROUGH))))
            return _close("pass-through matrix max error", err, 0.0, 5e-3)
        if command == "simulate":
            got = doc["price_changes"]
            problems = [e for pid, want in STAPLES_SIM.items()
                        for e in _close(f"simulated price change {pid}", got[pid], want, 5e-4)]
            if not doc["converged"] or not doc["residual_norm"] < 1e-10:
                problems.append(f"simulate residual {doc['residual_norm']!r}")
            return problems
    except (KeyError, TypeError) as exc:
        return [f"{command}: result document lacks {exc}"]
    raise ValueError(f"no check for command {command!r}")
