"""Nonlinear least squares calibration of nested-CES utilities to revenues.

Utility is a linear index u_ij = x_ij' theta over consumer-by-store
covariates; expenditure shares are two-level nested softmax with a common
nesting parameter mu; model revenue per store is the weighted sum of
consumers' expenditures. The fitter minimizes

    sum_j (R_j_observed - R_j_model(theta, mu))^2

with Levenberg-Marquardt (numeric Jacobian). mu rides through a logistic
transform so the unconstrained optimizer keeps it inside (0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .ces import OUTSIDE_NEST, _nested_share_rows
from .errors import InputValidationError


def _expit(x: float) -> float:
    return float(1.0 / (1.0 + np.exp(-x)))


def _model_revenues(
    theta: np.ndarray,
    mu: float,
    design: np.ndarray,
    mask: np.ndarray,
    wb: np.ndarray,
    nest_cols: Mapping[str, Sequence[int]],
) -> np.ndarray:
    n_t, n_s, _ = design.shape
    u = np.full((n_t, n_s + 1), -np.inf)
    u[:, :n_s][mask] = (design @ theta)[mask]
    u[:, n_s] = 0.0  # outside option
    mus = {b: (1.0 if b == OUTSIDE_NEST else mu) for b in nest_cols}
    alpha = _nested_share_rows(u, nest_cols, mus)
    return wb @ alpha[:, :n_s]


@dataclass(frozen=True)
class FitResult:
    """Point estimates plus convergence diagnostics for one NLS run."""

    theta: np.ndarray
    mu: float
    converged: bool
    residual_se: float
    n_evaluations: int
    message: str
    log: tuple[tuple[int, float], ...]   # (function evaluations, cost) trace


class NestedCESRevenueFitter:
    """Estimator-style wrapper around the revenue NLS problem.

    Parameters mirror the solver knobs; data enters through :meth:`fit`.
    ``weighting="revenue"`` divides residuals by observed revenues (unweighted
    by default).
    """

    def __init__(
        self,
        mu0: float = 0.5,
        theta0: Sequence[float] | None = None,
        gradient_tol: float = 1e-8,
        step_tol: float = 1e-10,
        max_iterations: int = 500,
        weighting: str = "none",
    ):
        self.mu0 = mu0
        self.theta0 = theta0
        self.gradient_tol = gradient_tol
        self.step_tol = step_tol
        self.max_iterations = max_iterations
        self.weighting = weighting

    def get_params(self, deep: bool = True) -> dict:
        return {
            "mu0": self.mu0,
            "theta0": self.theta0,
            "gradient_tol": self.gradient_tol,
            "step_tol": self.step_tol,
            "max_iterations": self.max_iterations,
            "weighting": self.weighting,
        }

    def set_params(self, **params) -> "NestedCESRevenueFitter":
        for key, value in params.items():
            if key not in self.get_params():
                raise ValueError(f"unknown parameter {key!r}")
            setattr(self, key, value)
        return self

    def fit(
        self,
        design: np.ndarray,
        revenues: np.ndarray,
        budgets: np.ndarray,
        nests: Sequence[str],
        mask: np.ndarray | None = None,
        consumer_weights: np.ndarray | None = None,
    ) -> "NestedCESRevenueFitter":
        """Calibrate (theta, mu) to observed store revenues.

        design : (n_consumers, n_stores, k) covariate array
        revenues : (n_stores,) observed revenue per store
        budgets : (n_consumers,) budget per consumer
        nests : nest label per store
        mask : (n_consumers, n_stores) consideration indicator (default all)
        """
        design = np.asarray(design, dtype=float)
        revenues = np.asarray(revenues, dtype=float)
        budgets = np.asarray(budgets, dtype=float)
        if design.ndim != 3:
            raise InputValidationError("design must be (n_consumers, n_stores, k)")
        n_t, n_s, k = design.shape
        if revenues.shape != (n_s,):
            raise InputValidationError(f"revenues must have shape ({n_s},)")
        if np.any(revenues < 0):
            raise InputValidationError("revenues must be >= 0")
        if len(nests) != n_s:
            raise InputValidationError("one nest label per store required")
        mask = np.ones((n_t, n_s), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
        w = np.ones(n_t) if consumer_weights is None else np.asarray(consumer_weights, dtype=float)
        if budgets.shape != (n_t,) or w.shape != (n_t,) or mask.shape != (n_t, n_s):
            raise InputValidationError("budgets, weights and mask must match the design's shape")
        wb = w * budgets

        x_rows = design[mask]
        if x_rows.shape[0] < k or np.linalg.matrix_rank(x_rows) < k:
            raise InputValidationError(
                "rank-deficient design: covariates are collinear or constant on the support"
            )

        labels = list(dict.fromkeys(nests))
        nest_cols: dict[str, list[int]] = {b: [] for b in labels}
        for j, b in enumerate(nests):
            nest_cols[b].append(j)
        nest_cols[OUTSIDE_NEST] = [n_s]

        scale = np.ones(n_s)
        if self.weighting == "revenue":
            scale = np.where(revenues > 0, revenues, 1.0)
        elif self.weighting != "none":
            raise InputValidationError(f"unknown weighting {self.weighting!r}")

        trace: list[tuple[int, float]] = []

        def residuals(params: np.ndarray) -> np.ndarray:
            theta, mu = params[:k], _expit(params[k])
            r = _model_revenues(theta, mu, design, mask, wb, nest_cols)
            res = (r - revenues) / scale
            trace.append((len(trace) + 1, float(res @ res)))
            return res

        theta0 = np.zeros(k) if self.theta0 is None else np.asarray(self.theta0, dtype=float)
        if not 0.0 < self.mu0 < 1.0:
            raise InputValidationError("mu0 must be inside (0, 1)")
        from scipy.optimize import least_squares  # deferred: slow to import

        x0 = np.concatenate([theta0, [np.log(self.mu0 / (1.0 - self.mu0))]])
        sol = least_squares(
            residuals,
            x0,
            method="lm",
            gtol=self.gradient_tol,
            xtol=self.step_tol,
            max_nfev=self.max_iterations * (len(x0) + 1),
        )
        dof = max(n_s - (k + 1), 1)
        self.theta_ = sol.x[:k]
        self.mu_ = _expit(sol.x[k])
        self.converged_ = bool(sol.status > 0)
        self.residual_se_ = float(np.sqrt(2.0 * sol.cost / dof))
        self.n_evaluations_ = int(sol.nfev)
        self.message_ = sol.message if self.converged_ else f"not converged: {sol.message}"
        self.log_ = tuple(trace)
        self._nest_cols = nest_cols
        return self

    def predict(
        self,
        design: np.ndarray,
        budgets: np.ndarray,
        nests: Sequence[str] | None = None,
        mask: np.ndarray | None = None,
        consumer_weights: np.ndarray | None = None,
    ) -> np.ndarray:
        """Model revenues at the fitted parameters."""
        if not hasattr(self, "theta_"):
            raise InputValidationError("fit before predict")
        design = np.asarray(design, dtype=float)
        n_t, n_s, _ = design.shape
        mask = np.ones((n_t, n_s), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
        w = np.ones(n_t) if consumer_weights is None else np.asarray(consumer_weights, dtype=float)
        wb = w * np.asarray(budgets, dtype=float)
        if nests is None:
            nest_cols = self._nest_cols
        else:
            labels = list(dict.fromkeys(nests))
            nest_cols = {b: [j for j, lab in enumerate(nests) if lab == b] for b in labels}
            nest_cols[OUTSIDE_NEST] = [n_s]
        return _model_revenues(self.theta_, self.mu_, design, mask, wb, nest_cols)

    def result(self) -> FitResult:
        if not hasattr(self, "theta_"):
            raise InputValidationError("fit before requesting the result")
        return FitResult(
            theta=self.theta_,
            mu=self.mu_,
            converged=self.converged_,
            residual_se=self.residual_se_,
            n_evaluations=self.n_evaluations_,
            message=self.message_,
            log=self.log_,
        )


def fit_nested_ces(
    revenues: np.ndarray,
    design: np.ndarray,
    budgets: np.ndarray,
    nests: Sequence[str],
    mask: np.ndarray | None = None,
    consumer_weights: np.ndarray | None = None,
    **solver_params,
) -> FitResult:
    """One-call form of :class:`NestedCESRevenueFitter`."""
    fitter = NestedCESRevenueFitter(**solver_params)
    fitter.fit(design, revenues, budgets, nests, mask=mask, consumer_weights=consumer_weights)
    return fitter.result()
