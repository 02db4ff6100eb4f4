"""Nonlinear least squares calibration of nested-CES utilities to revenues.

:func:`fit_nested_ces` is the fitter and returns a :class:`FitResult`, whose
``predict`` gives model revenues at the fitted parameters. The fitter's input,
a geography of tracts and stores, is defined here as well:
:class:`SpatialFixture`, read from JSON by :func:`load_spatial_fixture` or
drawn with known (theta*, mu*) by :func:`generate_spatial_fixture`.

Utility is a linear index u_ij = x_ij' theta over consumer-by-store
covariates; expenditure shares are two-level nested softmax with a common
nesting parameter mu; model revenue per store is the weighted sum of
consumers' expenditures. The fitter minimizes

    sum_j (R_j_observed - R_j_model(theta, mu))^2

with Levenberg-Marquardt (:func:`newton.levenberg_marquardt`) on the
closed-form Jacobian of the model revenues (formulas in
:func:`_model_revenues`), built from the same share evaluation as the
residual. mu rides through a logistic transform so the unconstrained
optimizer keeps it inside (0, 1). Data whose scales would overflow or
underflow the solver's squares are refused before the solve.

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
from .market import as_float, as_mapping, read_json
from .newton import levenberg_marquardt

MU0 = 0.5  # the nesting parameter's start; theta starts at 0
MAX_ITERATIONS = 500  # Levenberg-Marquardt trial steps, accepted or rejected
MAX_SCALE = 1e100  # bound on budgets, weights, revenues and the solve's scales
# A fit whose mu is below this sits at the lower edge of (0, 1], where the
# logistic is flat, the Jacobian's mu column vanishes and a small step certifies
# no optimum. The upper edge is a model, plain CES (mu = 1), and is not flagged.
MU_EDGE = 1e-8


def _expit(x: float) -> float:
    return float(1.0 / (1.0 + np.exp(-x)))


def _prepare(design: np.ndarray, budgets: np.ndarray, nests: Sequence[str],
             mask: np.ndarray | None, consumer_weights: np.ndarray | None) -> tuple:
    """Check the data against the (n_consumers, n_stores, k) design; return the model's
    data arguments: the (k, n_pairs) covariates of the considered pairs (mask, default
    all, plus the outside option, whose covariates are 0), weight * budget and the
    pair layout."""
    design = np.asarray(design, dtype=float)
    if design.ndim != 3 or 0 in design.shape[1:]:
        raise InputValidationError(
            "design must be (n_consumers, n_stores, k), with a store and a covariate")
    n_t, n_s, k = design.shape
    if len(nests) != n_s:
        raise InputValidationError("one nest label per store required")
    mask = np.ones((n_t, n_s), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    w = np.ones(n_t) if consumer_weights is None else np.asarray(consumer_weights, dtype=float)
    budgets = np.asarray(budgets, dtype=float)
    if budgets.shape != (n_t,) or w.shape != (n_t,) or mask.shape != (n_t, n_s):
        raise InputValidationError("budgets, weights and mask must match the design's shape")
    if not all(np.all((v >= 0) & (v <= MAX_SCALE)) for v in (budgets, w)):
        raise InputValidationError(f"budgets and weights must be >= 0 and at most {MAX_SCALE:g}")
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
    """Point estimates plus convergence diagnostics for one NLS run. ``log``
    holds (evaluation number, cost) per residual evaluation, so
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

    def predict(self, design: np.ndarray, budgets: np.ndarray, nests: Sequence[str],
                mask: np.ndarray | None = None,
                consumer_weights: np.ndarray | None = None) -> np.ndarray:
        """Model revenues at the fitted parameters; the data are checked as the fit checks them."""
        return _model_revenues(self.theta, self.mu,
                               *_prepare(design, budgets, nests, mask, consumer_weights))


def fit_nested_ces(
    revenues: np.ndarray,
    design: np.ndarray,
    budgets: np.ndarray,
    nests: Sequence[str],
    mask: np.ndarray | None = None,
    consumer_weights: np.ndarray | None = None,
    weighting: str = "none",
) -> FitResult:
    """Calibrate (theta, mu) to observed store revenues.

    revenues : (n_stores,) observed revenue per store
    design : (n_consumers, n_stores, k) covariate array
    budgets : (n_consumers,) budget per consumer
    nests : nest label per store
    mask : (n_consumers, n_stores) consideration indicator (default all)
    weighting : ``"revenue"`` divides residuals by observed revenues; ``"none"`` does not

    Theta starts at 0 and mu at ``MU0``; ``MAX_ITERATIONS`` caps the
    Levenberg-Marquardt trial steps, accepted or rejected, each one
    residual-and-Jacobian evaluation.
    """
    x_p, wb, pairs = _prepare(design, budgets, nests, mask, consumer_weights)
    n_s, k = len(nests), len(x_p)
    revenues = np.asarray(revenues, dtype=float)
    if revenues.shape != (n_s,):
        raise InputValidationError(f"revenues must have shape ({n_s},)")
    if not np.all((revenues >= 0) & (revenues <= MAX_SCALE)):
        raise InputValidationError(f"revenues must be >= 0 and at most {MAX_SCALE:g}")

    spent = (pairs.cols < n_s) & (wb.take(pairs.rows) > 0.0)  # the pairs that earn revenue
    if not spent.any():
        raise InputValidationError("no spending: no consumer with weight x budget > 0 "
                                   "considers a store")
    x_rows = x_p[:, spent].T
    if x_rows.shape[0] < k or np.linalg.matrix_rank(x_rows) < k:
        raise InputValidationError(
            "rank-deficient design: covariates are collinear or constant on the support"
        )

    members = np.diff(pairs.starts, append=len(pairs.rows))  # stores per (consumer, nest)
    if not np.any((members > 1) & (wb.take(pairs.seg_rows) > 0.0)):
        raise InputValidationError("mu is not identified: no consumer with spending "
                                   "considers two stores of one nest")

    scale = np.ones(n_s)
    if weighting == "revenue":
        scale = np.where(revenues > 0, revenues, 1.0)
    elif weighting != "none":
        raise InputValidationError(f"unknown weighting {weighting!r}")
    # Levenberg-Marquardt squares the residuals and the Jacobian columns, of the
    # size of spending and of spending x each covariate over the residual scale
    sizes = np.log10(wb.sum()) + np.log10(np.append(1.0, np.abs(x_p).max(axis=1)))
    sizes = sizes[:, None] - np.log10([scale.min(), scale.max()])
    if np.max(np.abs(sizes)) > np.log10(MAX_SCALE):
        raise InputValidationError(
            f"spending and spending x covariates (over the revenue weights) must lie within "
            f"{1 / MAX_SCALE:g} to {MAX_SCALE:g}: rescale the data")

    trace: list[tuple[int, float]] = []

    def evaluate(params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if params[k] < -230.0:  # mu < 1e-100: reject the step before mu^2 underflows
            raise InputValidationError("nesting parameter below 1e-100")
        theta, mu = params[:k], _expit(params[k])
        r, jac = _model_revenues(theta, mu, x_p, wb, pairs, jacobian=True)
        jac[:, k] *= mu * (1.0 - mu)  # d mu / d params[k], the logistic slope
        res = (r - revenues) / scale
        trace.append((len(trace) + 1, float(res @ res)))
        return res, jac / scale[:, None]

    x0 = np.concatenate([np.zeros(k), [np.log(MU0 / (1.0 - MU0))]])
    x, res, _, converged, reason = levenberg_marquardt(evaluate, x0, MAX_ITERATIONS)
    mu = _expit(x[k])
    if converged and mu < MU_EDGE:
        converged, reason = False, (f"mu = {mu:.3g} at the lower edge of (0, 1], where the logistic "
                                    f"is flat, so the stop test ({reason}) certifies nothing")
    dof = max(n_s - (k + 1), 1)
    return FitResult(x[:k], mu, converged, float(np.sqrt(res @ res / dof)),
                     reason if converged else f"not converged: {reason}", tuple(trace))


# ---------------------------------------------------------------------------
# The fitter's input: a geography of tracts and stores
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpatialConfig:
    seed: int
    n_tracts: int = 50
    n_stores: int = 20
    mu: float = 0.46
    radius: float = 10.0
    extent: float = 25.0           # square side, miles
    theta: tuple[float, ...] = (1.5, -0.3, 0.5, -0.8)  # 1, distance, log size, discount

    def __post_init__(self):
        if self.n_tracts < 1 or self.n_stores < 1:
            raise InputValidationError("n_tracts and n_stores must be at least 1")
        if not 0.0 < self.mu <= 1.0:
            raise InputValidationError(f"mu must be in (0, 1], got {self.mu}")


@dataclass(frozen=True)
class SpatialFixture:
    """A geography: the design matrix the fitter sees and the observed
    revenues it must match. Generated fixtures carry the ground truth
    (theta*, mu*) that implies those revenues; loaded ones may omit it
    (theta/mu are then None)."""

    design: np.ndarray             # (n_tracts, n_stores, k)
    mask: np.ndarray               # (n_tracts, n_stores) consideration
    budgets: np.ndarray
    weights: np.ndarray
    revenues: dict[str, float]
    store_ids: tuple[str, ...]
    nests: dict[str, str]
    theta: np.ndarray | None = None
    mu: float | None = None


def generate_spatial_fixture(config: SpatialConfig) -> SpatialFixture:
    """Tracts and stores on a plane; consideration within ``radius`` miles;
    utilities linear in [1, distance, log size, discount flag]; budgets uniform
    on [50, 150]; revenues from the nested-CES share kernel at (theta, mu).
    Draws come from the Philox stream keyed by (seed, 0)."""
    rng = np.random.Generator(np.random.Philox(key=[config.seed & (2**64 - 1), 0]))
    tracts = rng.uniform(0.0, config.extent, size=(config.n_tracts, 2))
    stores = rng.uniform(0.0, config.extent, size=(config.n_stores, 2))
    sizes = rng.lognormal(mean=3.0, sigma=0.4, size=config.n_stores)
    discount = (rng.uniform(size=config.n_stores) < 0.35).astype(float)
    budgets = rng.uniform(50.0, 150.0, size=config.n_tracts)
    dist = np.linalg.norm(tracts[:, None, :] - stores[None, :, :], axis=2)
    mask = dist <= config.radius

    k = len(config.theta)
    design = np.zeros((config.n_tracts, config.n_stores, k))
    design[:, :, 0] = 1.0
    design[:, :, 1] = dist
    design[:, :, 2] = np.log(sizes)[None, :]
    design[:, :, 3] = discount[None, :]

    theta = np.asarray(config.theta, dtype=float)
    store_ids = tuple(f"s{j}" for j in range(config.n_stores))
    nests = {store_ids[j]: ("discount" if discount[j] else "regular")
             for j in range(config.n_stores)}
    u = np.column_stack([np.where(mask, design @ theta, -np.inf), np.zeros(config.n_tracts)])
    pairs = _pair_layout(np.isfinite(u), _nest_columns([nests[sid] for sid in store_ids]))
    a = _nested_share_rows(u[pairs.rows, pairs.cols], pairs, config.mu)
    revenues = np.bincount(pairs.cols, budgets[pairs.rows] * a, pairs.n_cols)[:-1]
    return SpatialFixture(
        design=design,
        mask=mask,
        budgets=budgets,
        weights=np.ones(config.n_tracts),
        revenues=dict(zip(store_ids, revenues.tolist())),
        store_ids=store_ids,
        nests=nests,
        theta=theta,
        mu=config.mu,
    )


def load_spatial_fixture(path) -> SpatialFixture:
    """Read a geography fixture (the fitter's input schema) from JSON."""
    doc = read_json(path)
    for key in ("store_ids", "nests", "design", "budgets", "revenues"):
        if key not in doc:
            raise InputValidationError(f"{path}: missing field {key!r}")
    if not isinstance(doc["store_ids"], list):
        raise InputValidationError(f"{path}: field 'store_ids' must be a list")
    store_ids = tuple(str(s) for s in doc["store_ids"])
    repeated = sorted({s for s in store_ids if store_ids.count(s) > 1})
    if repeated:
        raise InputValidationError(f"{path}: duplicate store ids: {repeated}")
    revenues = {str(k): as_float(v, f"revenues[{k}]", path)
                for k, v in as_mapping(doc["revenues"], "revenues", path).items()}
    nests = {str(k): str(v) for k, v in as_mapping(doc["nests"], "nests", path).items()}
    missing = [s for s in store_ids if s not in revenues or s not in nests]
    if missing:
        raise InputValidationError(f"{path}: stores without a revenue or nest: {missing}")
    design = as_float(doc["design"], "design", path, 3)
    n_t, n_s, _ = design.shape
    mask = (as_float(doc["mask"], "mask", path, 2).astype(bool)
            if "mask" in doc else np.ones((n_t, n_s), dtype=bool))
    weights = as_float(doc["weights"], "weights", path, 1) if "weights" in doc else np.ones(n_t)
    truth = as_mapping(doc.get("truth") or {}, "truth", path)
    return SpatialFixture(
        design=design,
        mask=mask,
        budgets=as_float(doc["budgets"], "budgets", path, 1),
        weights=weights,
        revenues=revenues,
        store_ids=store_ids,
        nests=nests,
        theta=as_float(truth["theta"], "truth.theta", path, 1) if "theta" in truth else None,
        mu=as_float(truth["mu"], "truth.mu", path) if "mu" in truth else None,
    )
