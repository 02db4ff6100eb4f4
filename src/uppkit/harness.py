"""Monte-Carlo validation harness.

Everything in here knows the ground truth that the rest of the package is
built to live without: prices, marginal costs, and full demand primitives.
Synthetic markets (CES or logit) are drawn at prices built to be their
pre-merger Bertrand equilibrium, the observable slice (revenues, margins,
revenue diversion) at those prices is fed to the screening toolkit, and its
predictions are scored against the true post-merger price effects.

The experiment does not re-solve the drawn equilibrium: it checks that the
drawn prices meet the pricing conditions (one residual evaluation) and solves
only the post-merger market.

Drawn markets come from the fixed ranges ``N_PRODUCTS_RANGE``,
``COST_RANGE``, ``ETA_RANGE``, ``PRICE_COEF_RANGE`` and
``OUTSIDE_SHARE_RANGE``; :class:`HarnessConfig` sets only the seed, the number
of markets and the demand model.

Equilibria are found by ``solve_bertrand``: one damped step of the margin
fixed point as a warm start, then the package's damped Newton in log prices
on the margin-form pricing conditions, whose Jacobian comes in closed form
from each demand model's ``derivatives``: quantities, their price Jacobian and
(only where Newton steps) Hessian, from one share evaluation per price vector.

Per-trial randomness uses counter-based Philox streams keyed by
(experiment seed, trial index), so a trial's market does not depend on the
number of markets or on the other trials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import ces, effects
from .ces import CESEconomy, Consumer
from .errors import ConvergenceError, InputValidationError
# the fitter's geography, which perfbench/inputs.py imports from here
from .fitting import SpatialConfig, SpatialFixture, generate_spatial_fixture  # noqa: F401
from .market import DiversionMatrix, Market, MergerSpec, Product, co_ownership
from .newton import damped_newton

_TOL = 1e-10  # inf-norm of the margin-form pricing conditions at a solved equilibrium


# ---------------------------------------------------------------------------
# Ground-truth demand models
# ---------------------------------------------------------------------------

class CESGroundTruth:
    """CES demand with known qualities: utilities log(beta_ij) + (1-eta) log p_j,
    outside option fixed at zero. ``consider`` masks each consumer's set."""

    model = "ces"

    def __init__(self, betas, budgets, eta, weights=None, consider=None):
        self.betas = np.asarray(betas, dtype=float)
        self.budgets = np.asarray(budgets, dtype=float)
        self.eta = float(eta)
        n, j = self.betas.shape
        self.weights = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
        self.consider = (
            np.ones((n, j), dtype=bool) if consider is None else np.asarray(consider, dtype=bool)
        )
        if np.any(self.betas[self.consider] <= 0):
            raise InputValidationError("qualities must be positive")
        if self.eta <= 1.0:
            raise InputValidationError("eta must be > 1")

    def share_rows(self, prices: np.ndarray) -> np.ndarray:
        """Inside shares per consumer; the outside share is 1 - row sum."""
        u = np.where(self.consider, np.log(self.betas) + (1.0 - self.eta) * np.log(prices)[None, :], -np.inf)
        return ces._softmax_rows(np.column_stack([u, np.zeros(len(u))]))[:, :-1]

    def revenues(self, prices: np.ndarray) -> np.ndarray:
        wb = self.weights * self.budgets
        return wb @ self.share_rows(prices)

    def quantities(self, prices: np.ndarray) -> np.ndarray:
        return self.revenues(prices) / prices

    def derivatives(self, prices: np.ndarray):
        """``(q, Q, hessian)`` from one share evaluation: Q_lj = dq_l/dp_j, and
        ``hessian()`` builds H_ljq = d2q_l/dp_j dp_q from the same shares. With
        b = 1 - eta and the spending moments S_l = sum_i wb_i a_il, P_lj = sum_i
        wb_i a_il a_ij and T_ljq = sum_i wb_i a_il a_ij a_iq, Q_lj = ((b - 1)
        delta_lj S_l - b P_lj) / (p_l p_j), and p_q dS_l/dp_q = b (delta_lq S_l -
        P_lq) and p_q dP_lj/dp_q = b ((delta_lq + delta_jq) P_lj - 2 T_ljq)."""
        alpha = self.share_rows(prices)
        wb = self.weights * self.budgets
        b, pp = 1.0 - self.eta, np.outer(prices, prices)
        s, pair = wb @ alpha, (alpha * wb[:, None]).T @ alpha
        jac = ((b - 1.0) * np.diag(s) - b * pair) / pp  # Q_lj

        def hessian():
            eye = np.eye(len(prices))
            third = np.einsum("il,ij,iq->ljq", alpha * wb[:, None], alpha, alpha)
            lq_jq = eye[:, None, :] + eye  # [l, j, q] = delta_lq + delta_jq
            d_num = ((b - 1.0) * eye[:, :, None] * (np.diag(s) - pair)[:, None, :]
                     - b * (lq_jq * pair[:, :, None] - 2.0 * third))
            return (b * d_num / pp[:, :, None] - lq_jq * jac[:, :, None]) / prices

        return s / prices, jac, hessian

    def economy(self, prices: np.ndarray, ids: Sequence[str]) -> CESEconomy:
        """The observable economy at given prices (utility indices, not primitives)."""
        consumers = []
        u = np.log(self.betas) + (1.0 - self.eta) * np.log(prices)[None, :]
        for i in range(self.betas.shape[0]):
            utils = {pid: float(u[i, k]) for k, pid in enumerate(ids) if self.consider[i, k]}
            consumers.append(Consumer(f"c{i}", float(self.budgets[i]), utils, float(self.weights[i])))
        return CESEconomy(tuple(consumers), self.eta)


class LogitGroundTruth:
    """Workhorse logit: utility delta_j - a p_j, outside 0, unit consumer mass."""

    model = "logit"

    def __init__(self, delta, price_coef):
        self.delta = np.asarray(delta, dtype=float)
        self.price_coef = float(price_coef)
        if self.price_coef <= 0:
            raise InputValidationError("price coefficient must be positive")

    def share_rows(self, prices: np.ndarray) -> np.ndarray:
        v = self.delta - self.price_coef * prices
        return ces._softmax_rows(np.append(v, 0.0)[None, :])[:, :-1]

    def quantities(self, prices: np.ndarray) -> np.ndarray:
        return self.share_rows(prices)[0]

    def revenues(self, prices: np.ndarray) -> np.ndarray:
        return prices * self.quantities(prices)

    def derivatives(self, prices: np.ndarray):
        """``(q, Q, hessian)`` from one share evaluation: Q_lj = dq_l/dp_j = -a q_l
        (delta_lj - s_j), and ``hessian()`` builds H_ljq = d2q_l/dp_j dp_q =
        a^2 q_l ((delta_lj - s_j)(delta_lq - s_q) - s_j (delta_jq - s_q))."""
        q = self.share_rows(prices)[0]
        e = np.eye(len(q)) - q  # e[l, q] = delta_lq - s_q
        jac = -self.price_coef * q[:, None] * e
        return q, jac, lambda: self.price_coef**2 * q[:, None, None] * (
            e[:, :, None] * e[:, None, :] - q[:, None] * e)


# ---------------------------------------------------------------------------
# True Bertrand equilibria
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Equilibrium:
    """Solved price vector plus the dimensionless pricing-condition residual."""

    prices: np.ndarray
    margins: np.ndarray
    residual: float
    iterations: int           # the warm-start step plus the Newton steps


def _cross_weights(q, jac, prices, co_owned):
    """(eps_jj, A) with A[j, l] = D_jl p_l / p_j where ``co_owned[j, l]``, else 0,
    D_jl = -(dq_l/dp_j) / (dq_j/dp_j) being quantity diversion from ``jac``, the
    quantity Jacobian at ``prices`` where the quantities are ``q``; the pricing
    conditions then read -1/eps - m + A m = 0."""
    own = np.diag(jac)
    with np.errstate(divide="ignore", invalid="ignore"):
        eps = own * prices / q
        a = -jac.T / own[:, None] * prices[None, :] / prices[:, None]
    return eps, np.where(co_owned, a, 0.0)


def _margin_residual(demand, prices, costs, co_owned, jacobian=False):
    """Pricing conditions normalized to be quasilinear in margins; with
    ``jacobian``, the pair ``(r, jacobian)``, ``jacobian()`` giving d r / d log p
    as ``newton.damped_newton`` asks. With Q the quantity Jacobian and own =
    co-ownership including the diagonal, r_j = -N_j / Den_j for N_j = q_j +
    sum_l own_jl (p_l - c_l) Q_lj and Den_j = p_j Q_jj, whose price derivatives
    come from the quantity Hessian. One ``demand.derivatives`` call gives q and
    Q; the Hessian is built only when ``jacobian()`` is called."""
    q, jac, hessian = demand.derivatives(prices)
    eps, a = _cross_weights(q, jac, prices, co_owned)
    m = (prices - costs) / prices
    r = -1.0 / eps - m + a @ m
    if not jacobian:
        return r

    def d_r():
        hess = hessian()
        own = co_owned | np.eye(len(prices), dtype=bool)
        d_num = jac + own * jac.T + np.einsum("jl,ljq->jq", own * (prices - costs), hess)
        d_den = np.diag(np.diag(jac)) + prices[:, None] * np.einsum("jjq->jq", hess)
        return -(d_num + r[:, None] * d_den) / (prices * np.diag(jac))[:, None] * prices

    return r, d_r


def _implied_margins(demand, prices, co_owned) -> np.ndarray:
    """Margins solving the pricing conditions at fixed prices."""
    q, jac, _ = demand.derivatives(prices)
    eps, a = _cross_weights(q, jac, prices, co_owned)
    return np.linalg.solve(np.eye(len(prices)) - a, -1.0 / eps)


def _margin_step(demand, log_p, costs, co_owned) -> np.ndarray:
    """Half a step of the margin fixed point p <- c / (1 - m(p)) in log prices.

    Moves are clamped to 0.25 in log price so a bad margin solve cannot fling
    prices into the underflow region of the share function.
    """
    m = _implied_margins(demand, np.exp(log_p), co_owned)
    if not np.all(np.isfinite(m)):
        raise ConvergenceError("margin iteration left the elastic region")
    target = np.log(costs / (1.0 - np.clip(m, 1e-6, 1.0 - 1e-6)))
    return log_p + np.clip(0.5 * (target - log_p), -0.25, 0.25)


def solve_bertrand(
    demand,
    costs: np.ndarray,
    ownership: Sequence[int],
    p0: np.ndarray | None = None,
    max_iterations: int = 400,
) -> Equilibrium:
    """Bertrand-Nash prices by damped Newton in log prices.

    One damped margin fixed-point step from ``p0`` (default 1.5 x cost) is the
    warm start. The root is that of the margin-form pricing conditions;
    ``max_iterations`` caps the Newton steps. ``ownership`` assigns a firm
    index to each product. Raises ConvergenceError when the residual cannot be
    brought under ``_TOL``: the steps ran out or the line search failed.
    """
    costs = np.asarray(costs, dtype=float)
    co_owned = co_ownership(ownership)
    p = np.array(costs * 1.5 if p0 is None else p0, dtype=float)

    def residual(x):  # a batch of one
        r, d_r = _margin_residual(demand, np.exp(x[0]), costs, co_owned, jacobian=True)
        return r[None], lambda rows: d_r()[None]

    x, res, its, ok, errors, _ = damped_newton(
        residual, _margin_step(demand, np.log(p), costs, co_owned)[None], _TOL, max_iterations)
    if errors[0] is not None:
        raise errors[0]
    norm = float(np.max(np.abs(res)))
    if not ok[0]:
        raise ConvergenceError(f"Bertrand solver stalled at residual {norm:.3e}")
    p = np.exp(x[0])
    return Equilibrium(p, (p - costs) / p, norm, its[0] + 1)


# ---------------------------------------------------------------------------
# Synthetic primitives and observation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticPrimitives:
    """Full ground-truth market: demand model with parameters, costs,
    single-product ownership, and the pre-merger equilibrium prices."""

    ids: tuple[str, ...]
    demand: object
    costs: np.ndarray
    ownership: tuple[int, ...]
    prices: np.ndarray          # pre-merger equilibrium

    @property
    def model(self) -> str:
        return self.demand.model


def observe(primitives: SyntheticPrimitives, prices: np.ndarray | None = None):
    """Project ground truth down to the observable slice: a Market (revenues,
    margins, ownership) and the revenue diversion matrix at ``prices``."""
    p = primitives.prices if prices is None else prices
    demand, ids = primitives.demand, primitives.ids
    q, jac, _ = demand.derivatives(p)
    rev = p * q
    margins = (p - primitives.costs) / p
    products = tuple(
        Product(ids[j], f"f{primitives.ownership[j]}", float(rev[j]), float(margins[j]))
        for j in range(len(ids))
    )
    dr_dp = jac.T * p[None, :]          # [j, l] = dq_l/dp_j * p_l
    dr_dp[np.diag_indices(len(ids))] += q
    values = -dr_dp / np.diag(dr_dp)[:, None]
    np.fill_diagonal(values, -1.0)
    # CES spends fixed budgets, so what product j loses and its rivals do not
    # gain goes outside: 1 - sum_{k != j} D_jk. Logit conserves no revenue.
    outside = -values.sum(axis=1) if demand.model == "ces" else None
    return Market(products), DiversionMatrix(tuple(ids), values, outside)


def solve_post_merger_equilibrium(
    primitives: SyntheticPrimitives,
    merging_firms: tuple[int, int],
    efficiencies: Mapping[int, float] | None = None,
) -> tuple[Equilibrium, np.ndarray]:
    """True post-merger equilibrium and the percentage price changes.

    ``efficiencies`` maps product index -> percentage marginal-cost change.
    """
    a, b = merging_firms
    post_own = tuple(a if f == b else f for f in primitives.ownership)
    costs = primitives.costs.copy()
    for j, cdd in (efficiencies or {}).items():
        costs[j] *= 1.0 + cdd
    eq = solve_bertrand(primitives.demand, costs, post_own, p0=primitives.prices)
    pdd = eq.prices / primitives.prices - 1.0
    return eq, pdd


# ---------------------------------------------------------------------------
# Random market generation
# ---------------------------------------------------------------------------

#: Drawn-market parameter ranges; :func:`random_primitives` says how each is drawn.
N_PRODUCTS_RANGE = (2, 6)
COST_RANGE = (0.5, 2.0)
ETA_RANGE = (3.0, 9.0)
PRICE_COEF_RANGE = (0.5, 2.0)
OUTSIDE_SHARE_RANGE = (0.1, 0.6)


@dataclass(frozen=True)
class HarnessConfig:
    """Experiment shape; the seed is mandatory."""

    seed: int
    n_markets: int = 200
    model: str = "ces"

    def __post_init__(self):
        if self.model not in ("ces", "logit"):
            raise InputValidationError(f"unknown demand model {self.model!r}")
        if self.n_markets < 1:
            raise InputValidationError("n_markets must be at least 1")
        if self.seed < 0:
            raise InputValidationError("seed must be non-negative")


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Counter-based per-trial stream: identical no matter the schedule."""
    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), trial]))


def random_primitives(config: HarnessConfig, trial: int) -> tuple[SyntheticPrimitives, tuple[int, int]]:
    """Draw one synthetic market in the elastic interior region.

    The number of single-product firms is uniform on ``N_PRODUCTS_RANGE``.
    Target equilibrium shares are drawn first (outside share in
    ``OUTSIDE_SHARE_RANGE``) and the demand intercepts backed out of the
    single-product pricing conditions at log-uniform costs in ``COST_RANGE``,
    so the drawn prices are exactly the pre-merger equilibrium. CES draws eta
    from ``ETA_RANGE``, logit its price coefficient from ``PRICE_COEF_RANGE``.
    """
    rng = trial_rng(config.seed, trial)
    n = int(rng.integers(N_PRODUCTS_RANGE[0], N_PRODUCTS_RANGE[1] + 1))
    costs = np.exp(rng.uniform(np.log(COST_RANGE[0]), np.log(COST_RANGE[1]), n))
    s0 = rng.uniform(*OUTSIDE_SHARE_RANGE)
    inside = (1.0 - s0) * rng.dirichlet(np.full(n, 2.0))
    ids = tuple(f"p{j}" for j in range(n))
    ownership = tuple(range(n))
    pair = tuple(sorted(rng.choice(n, size=2, replace=False).tolist()))

    if config.model == "ces":
        eta = rng.uniform(*ETA_RANGE)
        eps = (1.0 - eta) * (1.0 - inside) - 1.0
        margins = -1.0 / eps
        prices = costs / (1.0 - margins)
        u = np.log(inside / s0)
        betas = np.exp(u)[None, :] * prices[None, :] ** (eta - 1.0)
        demand = CESGroundTruth(betas, budgets=[1.0], eta=eta)
    else:
        a = rng.uniform(*PRICE_COEF_RANGE)
        markup = 1.0 / (a * (1.0 - inside))
        prices = costs + markup
        delta = np.log(inside / s0) + a * prices
        demand = LogitGroundTruth(delta, a)
    return SyntheticPrimitives(ids, demand, costs, ownership, prices), pair


# ---------------------------------------------------------------------------
# Accuracy experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialRecord:
    """Screening prediction vs truth for one merging product in one trial."""

    trial_id: int
    model: str
    n_products: int
    product_id: str
    guppi: float
    predicted_pdd: float
    true_pdd: float
    cmcr: float


@dataclass(frozen=True)
class ExperimentResult:
    """Scored records, the failed trials with their ``ConvergenceError`` text
    (prefixed by the stage, ``pre-merger:`` or ``post-merger:``), and the summary."""

    records: tuple[TrialRecord, ...]
    failure_reasons: dict[int, str]
    summary: dict

    @property
    def failures(self) -> tuple[int, ...]:
        """Failed trial ids, in trial order."""
        return tuple(self.failure_reasons)

    def to_csv_rows(self) -> Iterable[tuple]:
        yield ("trial_id", "model", "n_products", "product_id",
               "guppi", "predicted_pdd", "true_pdd", "cmcr")
        for r in self.records:
            yield (r.trial_id, r.model, r.n_products, r.product_id,
                   repr(r.guppi), repr(r.predicted_pdd), repr(r.true_pdd), repr(r.cmcr))


def _run_trial(config: HarnessConfig, trial: int) -> list[TrialRecord]:
    """Screen one drawn market at its drawn prices and score the predictions
    against the true post-merger equilibrium. A ``ConvergenceError`` is
    re-raised with its stage, ``pre-merger:`` or ``post-merger:``, in front."""
    primitives, pair = random_primitives(config, trial)
    stage = "pre-merger"
    try:
        res = _margin_residual(primitives.demand, primitives.prices, primitives.costs,
                               co_ownership(primitives.ownership))
        norm = float(np.max(np.abs(res)))
        if not norm < _TOL:
            raise ConvergenceError(f"drawn prices miss the pricing conditions by {norm:.3e}")
        market, diversion = observe(primitives)
        merger = MergerSpec(f"f{pair[0]}", f"f{pair[1]}")
        g = effects.guppi(market, diversion, merger)
        c = effects.cmcr(market, diversion, merger)
        stage = "post-merger"
        _, pdd_true = solve_post_merger_equilibrium(primitives, pair)
    except ConvergenceError as err:
        raise ConvergenceError(f"{stage}: {err}") from err
    pos = {pid: j for j, pid in enumerate(primitives.ids)}
    out = []
    for pid, g_j in g.items():
        out.append(TrialRecord(
            trial_id=trial,
            model=primitives.model,
            n_products=len(primitives.ids),
            product_id=pid,
            guppi=g_j,
            predicted_pdd=g_j,  # identity pass-through
            true_pdd=float(pdd_true[pos[pid]]),
            cmcr=c.efficiencies[pid],
        ))
    return out


def run_accuracy_experiment(config: HarnessConfig) -> ExperimentResult:
    """Score GUPPI-based price-effect predictions against true equilibria on
    ``config.n_markets`` random markets. Deterministic given the seed; failed
    trials are dropped and logged, with their reasons, in ``failure_reasons``."""
    records: list[TrialRecord] = []
    failures: dict[int, str] = {}
    for trial in range(config.n_markets):
        try:
            records.extend(_run_trial(config, trial))
        except ConvergenceError as err:
            failures[trial] = str(err)

    preds = np.array([r.predicted_pdd for r in records])
    trues = np.array([r.true_pdd for r in records])
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(preds - trues) / np.abs(trues)
    summary = {
        "model": config.model,
        "seed": config.seed,
        "n_markets": config.n_markets,
        "n_failed": len(failures),
        "n_records": len(records),
        "share_conservative": float(np.mean(trues >= preds)) if records else None,
        "median_relative_error": float(np.median(rel[np.isfinite(rel)])) if records else None,
    }
    return ExperimentResult(tuple(records), failures, summary)
