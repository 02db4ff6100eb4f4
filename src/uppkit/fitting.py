"""Nonlinear least squares calibration of nested-CES utilities to revenues.

Utility is a linear index u_ij = x_ij' theta over consumer-by-store
covariates; expenditure shares are two-level nested softmax with a common
nesting parameter mu; model revenue per store is the weighted sum of
consumers' expenditures. The fitter minimizes

    sum_j (R_j_observed - R_j_model(theta, mu))^2

with Levenberg-Marquardt (:func:`newton.levenberg_marquardt`) on the
closed-form Jacobian of the model revenues (formulas in
:func:`_model_revenues`), built from the same share evaluation as the
residual. mu rides through a logistic transform so the unconstrained
optimizer keeps it inside (0, 1).

All of it runs on the considered (consumer, store) pairs: :func:`_prepare`
lays them out once per fit (``ces._pair_layout``) and gathers their
covariates, so each evaluation reads no off-consideration cell, whose -inf
utility would send ``exp`` down numpy's slow path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ces import PairLayout, _nest_columns, _nested_share_rows, _pair_layout
from .errors import InputValidationError
from .newton import levenberg_marquardt


def _expit(x: float) -> float:
    return float(1.0 / (1.0 + np.exp(-x)))


def _prepare(design: np.ndarray, budgets: np.ndarray, nests: Sequence[str],
             mask: np.ndarray | None, consumer_weights: np.ndarray | None) -> tuple:
    """Check the data against the (n_consumers, n_stores, k) design; return the model's
    data arguments: the (k, n_pairs) covariates of the considered pairs (mask, default
    all, plus the outside option, whose covariates are 0), weight * budget and the
    pair layout."""
    design = np.asarray(design, dtype=float)
    if design.ndim != 3 or design.shape[1] == 0:
        raise InputValidationError("design must be (n_consumers, n_stores, k), with a store")
    n_t, n_s, k = design.shape
    if len(nests) != n_s:
        raise InputValidationError("one nest label per store required")
    mask = np.ones((n_t, n_s), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    w = np.ones(n_t) if consumer_weights is None else np.asarray(consumer_weights, dtype=float)
    budgets = np.asarray(budgets, dtype=float)
    if budgets.shape != (n_t,) or w.shape != (n_t,) or mask.shape != (n_t, n_s):
        raise InputValidationError("budgets, weights and mask must match the design's shape")
    if not all(np.all((v >= 0) & (v < np.inf)) for v in (budgets, w)):
        raise InputValidationError("budgets and weights must be finite and >= 0")
    pairs = _pair_layout(np.column_stack([mask, np.ones(n_t, dtype=bool)]), _nest_columns(nests))
    x = design.reshape(-1, k).take(pairs.rows * n_s + pairs.cols, axis=0, mode="clip")
    x[pairs.cols == n_s] = 0.0  # the outside option
    if not np.isfinite(x).all():  # unread off the consideration sets
        raise InputValidationError("design must be finite on the consideration sets")
    return np.ascontiguousarray(x.T), w * budgets, pairs


def _model_revenues(
    theta: np.ndarray,
    mu: float,
    x: np.ndarray,
    wb: np.ndarray,
    pairs: PairLayout,
    jacobian: bool = False,
):
    """Model revenue per store, R_j = sum_i wb_i a_ij; with ``jacobian``, the pair
    ``(R, dR/d(theta, mu))`` of shape (n_stores, k + 1), from the same shares.

    The two-level nested-logit derivative (Train 2009, ch. 4) on expenditure
    shares, with x_i,outside = 0, wa_ij = wb_i a_ij, xbar_i = sum_k a_ik x_ik,
    xbar_ib and ubar_ib the means of x and u over nest b under a_{k|b}, N_ib the
    nest share and V_ib = I_ib - ubar_ib/mu (the entropy of a_{.|b}; 0 for the
    outside nest):

        dR_j/dtheta = sum_i wa_ij (x_ij/mu + (1 - 1/mu) xbar_i,b(j) - xbar_i)
        dR_j/dmu    = sum_i wa_ij (-(u_ij - ubar_ib)/mu^2 + V_ib - sum_c N_ic V_ic)

    Every sum runs over the considered pairs of :func:`_prepare`: per segment
    (consumer, nest) for N_ib, N_ib xbar_ib and V_ib, per consumer for xbar_i
    and sum_c N_ic V_ic, per store for R_j and dR_j.
    """
    u = theta @ x
    a = _nested_share_rows(u, pairs, mu)
    wa = wb.take(pairs.rows) * a
    r = np.bincount(pairs.cols, wa, pairs.n_cols)[:-1]  # the outside option is last
    if not jacobian:
        return r
    # per segment: N_ib, N_ib xbar_ib, and the entropy
    # V_ib = log N_ib - sum_{k in b} a_ik log a_ik / N_ib (0 for the one-member outside nest)
    starts, seg_rows = pairs.starts, pairs.seg_rows
    n = np.add.reduceat(a, starts)
    nx = np.add.reduceat(a * x, starts, axis=1)
    pos = np.where(n > 0.0, n, 1.0)
    xbar = nx / pos
    v = np.log(pos) - np.add.reduceat(a * np.log(np.where(a > 0.0, a, 1.0)), starts) / pos
    # per consumer: xbar_i and sum_c N_ic V_ic, read back per segment
    xbar_i = np.array([np.bincount(seg_rows, row, pairs.n_rows) for row in nx])
    nv_i = np.bincount(seg_rows, n * v, pairs.n_rows)
    # the brackets above less x_ij/mu and -u_ij/mu^2, per segment, then per pair
    terms = np.vstack([(1.0 - 1.0 / mu) * xbar - xbar_i.take(seg_rows, axis=1),
                       theta @ xbar / mu**2 + v - nv_i.take(seg_rows)])
    g = terms.take(pairs.seg, axis=1) + np.vstack([x / mu, -u / mu**2])
    return r, np.column_stack([np.bincount(pairs.cols, wa * row, pairs.n_cols)[:-1]
                               for row in g])


@dataclass(frozen=True)
class FitResult:
    """Point estimates plus convergence diagnostics for one NLS run: the one
    record of a fit, which :meth:`NestedCESRevenueFitter.result` returns.
    ``log`` holds (evaluation number, cost) per residual evaluation, so
    ``n_evaluations`` is its length."""

    theta: np.ndarray
    mu: float
    converged: bool
    residual_se: float
    message: str
    log: tuple[tuple[int, float], ...]

    @property
    def n_evaluations(self) -> int:
        return len(self.log)


class NestedCESRevenueFitter:
    """Estimator-style wrapper around the revenue NLS problem.

    ``mu0`` starts the nesting parameter (theta starts at zero) and
    ``max_iterations`` (default 500) caps the Levenberg-Marquardt trial steps,
    accepted or rejected, each one residual-and-Jacobian evaluation; data
    enters through :meth:`fit`.
    ``weighting="revenue"`` divides residuals by observed revenues (unweighted
    by default). :meth:`fit` stores its :class:`FitResult` in ``result_``.
    """

    def __init__(
        self,
        mu0: float = 0.5,
        max_iterations: int = 500,
        weighting: str = "none",
    ):
        self.mu0 = mu0
        self.max_iterations = max_iterations
        self.weighting = weighting

    def get_params(self, deep: bool = True) -> dict:
        return {
            "mu0": self.mu0,
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
        x_p, wb, pairs = _prepare(design, budgets, nests, mask, consumer_weights)
        n_s, k = len(nests), len(x_p)
        revenues = np.asarray(revenues, dtype=float)
        if revenues.shape != (n_s,):
            raise InputValidationError(f"revenues must have shape ({n_s},)")
        if not np.all((revenues >= 0) & (revenues < np.inf)):
            raise InputValidationError("revenues must be finite and >= 0")

        x_rows = x_p[:, pairs.cols < n_s].T
        if x_rows.shape[0] < k or np.linalg.matrix_rank(x_rows) < k:
            raise InputValidationError(
                "rank-deficient design: covariates are collinear or constant on the support"
            )

        scale = np.ones(n_s)
        if self.weighting == "revenue":
            scale = np.where(revenues > 0, revenues, 1.0)
        elif self.weighting != "none":
            raise InputValidationError(f"unknown weighting {self.weighting!r}")

        trace: list[tuple[int, float]] = []

        def evaluate(params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            theta, mu = params[:k], _expit(params[k])
            r, jac = _model_revenues(theta, mu, x_p, wb, pairs, jacobian=True)
            jac[:, k] *= mu * (1.0 - mu)  # d mu / d params[k], the logistic slope
            res = (r - revenues) / scale
            trace.append((len(trace) + 1, float(res @ res)))
            return res, jac / scale[:, None]

        if not 0.0 < self.mu0 < 1.0:
            raise InputValidationError("mu0 must be inside (0, 1)")
        x0 = np.concatenate([np.zeros(k), [np.log(self.mu0 / (1.0 - self.mu0))]])
        x, res, _, converged, reason = levenberg_marquardt(evaluate, x0, self.max_iterations)
        dof = max(n_s - (k + 1), 1)
        self.result_ = FitResult(x[:k], _expit(x[k]), converged, float(np.sqrt(res @ res / dof)),
                                 reason if converged else f"not converged: {reason}", tuple(trace))
        self._nests = tuple(nests)
        return self

    def predict(
        self,
        design: np.ndarray,
        budgets: np.ndarray,
        nests: Sequence[str] | None = None,
        mask: np.ndarray | None = None,
        consumer_weights: np.ndarray | None = None,
    ) -> np.ndarray:
        """Model revenues at the fitted parameters; ``nests`` defaults to the
        labels the fit saw. The data are checked as in :meth:`fit`."""
        fitted = self.result()
        return _model_revenues(fitted.theta, fitted.mu, *_prepare(
            design, budgets, self._nests if nests is None else nests, mask, consumer_weights))

    def result(self) -> FitResult:
        if not hasattr(self, "result_"):
            raise InputValidationError("fit before predict or result")
        return self.result_


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
