"""Monte-Carlo validation harness.

Everything in here knows the ground truth that the rest of the package is
built to live without: prices, marginal costs, and full demand primitives.
Synthetic markets (CES or logit) are drawn at prices built to be their
pre-merger Bertrand equilibrium, the observable slice (revenues, margins,
revenue diversion) at those prices is fed to the screening toolkit, and its
predictions are scored against the true post-merger price effects.

The experiment does not re-solve the drawn equilibrium: each trial checks
that the drawn prices meet the pricing conditions (one residual evaluation),
observes and screens there. Then it solves the post-merger markets, all
those of one size as one stack.

Drawn markets come from the fixed ranges ``N_PRODUCTS_RANGE``,
``COST_RANGE``, ``ETA_RANGE``, ``PRICE_COEF_RANGE`` and
``OUTSIDE_SHARE_RANGE``; :class:`HarnessConfig` sets only the seed, the number
of markets and the demand model.

Equilibria are found by ``solve_bertrand``: one damped step of the margin
fixed point as a warm start, then the package's damped Newton in log prices
on the margin-form pricing conditions, whose Jacobian comes in closed form
from each demand model's ``derivatives``: quantities, their price Jacobian and
(only where Newton steps) Hessian, from one share evaluation per price vector.
The ground truths, the residual and ``solve_bertrand`` also take a stack of
markets of one size on a leading axis; its markets step as one Newton batch,
at numpy's per-call cost of about one market, each on its lone path.

Per-trial randomness uses counter-based Philox streams keyed by
(experiment seed, trial index), so a trial's market does not depend on the
number of markets or on the other trials.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    outside option fixed at zero. ``consider`` masks each consumer's set.

    Every parameter may carry a leading market axis: betas and consider
    (..., consumers, products), budgets and weights (..., consumers), eta
    (...). Such a stack of markets of one size is evaluated at prices (...,
    products); a lone market keeps its shapes."""

    model = "ces"

    def __init__(self, betas, budgets, eta, weights=None, consider=None):
        self.betas = np.asarray(betas, dtype=float)
        self.budgets = np.asarray(budgets, dtype=float)
        self.eta = float(eta) if np.ndim(eta) == 0 else np.asarray(eta, dtype=float)
        self.weights = (np.ones(self.betas.shape[:-1]) if weights is None
                        else np.asarray(weights, dtype=float))
        self.consider = (np.ones(self.betas.shape, dtype=bool) if consider is None
                         else np.asarray(consider, dtype=bool))
        if np.any(self.betas[self.consider] <= 0):
            raise InputValidationError("qualities must be positive")
        if np.any(self.eta <= 1.0):
            raise InputValidationError("eta must be > 1")

    def share_rows(self, prices: np.ndarray) -> np.ndarray:
        """Inside shares per consumer, (..., consumers, products); the outside
        share is 1 - row sum."""
        b = np.asarray(1.0 - self.eta)[..., None, None]
        u = np.where(self.consider, np.log(self.betas) + b * np.log(prices)[..., None, :], -np.inf)
        return _inside_shares(u)

    def revenues(self, prices: np.ndarray) -> np.ndarray:
        wb = self.weights * self.budgets
        return wb @ self.share_rows(prices)

    def quantities(self, prices: np.ndarray) -> np.ndarray:
        return self.revenues(prices) / prices

    def derivatives(self, prices: np.ndarray):
        """``(q, Q, hessian)`` from one share evaluation: Q_lj = dq_l/dp_j, and
        ``hessian(rows)`` builds H_ljq = d2q_l/dp_j dp_q from the same shares,
        at the markets ``rows`` of a stack (default all). With b = 1 - eta and
        the spending moments S_l = sum_i wb_i a_il, P_lj = sum_i wb_i a_il a_ij
        and T_ljq = sum_i wb_i a_il a_ij a_iq, Q_lj = ((b - 1) delta_lj S_l -
        b P_lj) / (p_l p_j), and p_q dS_l/dp_q = b (delta_lq S_l - P_lq) and
        p_q dP_lj/dp_q = b ((delta_lq + delta_jq) P_lj - 2 T_ljq)."""
        alpha = self.share_rows(prices)
        wb = self.weights * self.budgets
        b = np.asarray(1.0 - self.eta)[..., None, None]
        pp, eye = prices[..., :, None] * prices[..., None, :], np.eye(prices.shape[-1])
        wa = alpha * wb[..., None]
        s, pair = (wb[..., None, :] @ alpha)[..., 0, :], wa.swapaxes(-1, -2) @ alpha
        jac = ((b - 1.0) * (eye * s[..., None, :]) - b * pair) / pp  # Q_lj

        def hessian(rows=slice(None)):
            a, w, s_, pair_, jac_, p = (alpha[rows], wa[rows], s[rows], pair[rows], jac[rows],
                                        prices[rows])
            b_ = b[rows][..., None] if b.ndim > 2 else b[..., None]
            third = np.einsum("...il,...ij,...iq->...ljq", w, a, a)
            lq_jq = eye[:, None, :] + eye  # [l, j, q] = delta_lq + delta_jq
            d_num = ((b_ - 1.0) * eye[:, :, None] * (eye * s_[..., None, :] - pair_)[..., :, None, :]
                     - b_ * (lq_jq * pair_[..., None] - 2.0 * third))
            return ((b_ * d_num / (p[..., :, None] * p[..., None, :])[..., None]
                     - lq_jq * jac_[..., None]) / p[..., None, None, :])

        return s / prices, jac, hessian

    def economy(self, prices: np.ndarray, ids: Sequence[str]) -> CESEconomy:
        """The observable economy of a lone market at given prices (utility
        indices, not primitives)."""
        consumers = []
        u = np.log(self.betas) + (1.0 - self.eta) * np.log(prices)[None, :]
        for i in range(self.betas.shape[0]):
            utils = {pid: float(u[i, k]) for k, pid in enumerate(ids) if self.consider[i, k]}
            consumers.append(Consumer(f"c{i}", float(self.budgets[i]), utils, float(self.weights[i])))
        return CESEconomy(tuple(consumers), self.eta)


class LogitGroundTruth:
    """Workhorse logit: utility delta_j - a p_j, outside 0, unit consumer mass.
    ``delta`` (..., products) and ``price_coef`` (...) may carry a leading
    market axis, as :class:`CESGroundTruth`'s parameters may."""

    model = "logit"

    def __init__(self, delta, price_coef):
        self.delta = np.asarray(delta, dtype=float)
        self.price_coef = (float(price_coef) if np.ndim(price_coef) == 0
                           else np.asarray(price_coef, dtype=float))
        if np.any(self.price_coef <= 0):
            raise InputValidationError("price coefficient must be positive")

    def share_rows(self, prices: np.ndarray) -> np.ndarray:
        v = self.delta - np.asarray(self.price_coef)[..., None] * prices
        return _inside_shares(v[..., None, :])

    def quantities(self, prices: np.ndarray) -> np.ndarray:
        return self.share_rows(prices)[..., 0, :]

    def derivatives(self, prices: np.ndarray):
        """``(q, Q, hessian)`` from one share evaluation: Q_lj = dq_l/dp_j = -a q_l
        (delta_lj - s_j), and ``hessian(rows)`` builds H_ljq = d2q_l/dp_j dp_q =
        a^2 q_l ((delta_lj - s_j)(delta_lq - s_q) - s_j (delta_jq - s_q)) at the
        markets ``rows`` of a stack (default all)."""
        q = self.quantities(prices)
        a = np.asarray(self.price_coef)[..., None, None]
        e = np.eye(prices.shape[-1]) - q[..., None, :]  # e[l, q] = delta_lq - s_q
        jac = -a * q[..., :, None] * e

        def hessian(rows=slice(None)):
            a_, q_, e_ = (a[rows] if a.ndim > 2 else a)[..., None], q[rows], e[rows]
            return a_**2 * q_[..., :, None, None] * (
                e_[..., :, :, None] * e_[..., :, None, :] - (q_[..., :, None] * e_)[..., None, :, :])

        return q, jac, hessian


def _inside_shares(u: np.ndarray) -> np.ndarray:
    """Softmax of utilities u (..., products) against an outside option at
    zero utility, the outside share dropped."""
    z = np.zeros(u.shape[:-1] + (u.shape[-1] + 1,))
    z[..., :-1] = u
    return ces._softmax_rows(z.reshape(-1, z.shape[-1])).reshape(z.shape)[..., :-1]


def _stack(demands):
    """One ground truth holding ``demands`` (one model, one market size) as a
    stack: each parameter, a constructor argument of the same name, gains a
    leading market axis."""
    first = demands[0]
    return type(first)(**{k: np.stack([vars(d)[k] for d in demands]) for k in vars(first)})


def _take(demand, rows):
    """The markets ``rows`` of a stacked ground truth, as a stack (its
    parameters were checked when the stack was built)."""
    part = object.__new__(type(demand))
    part.__dict__.update((k, v[rows]) for k, v in vars(demand).items())
    return part


# ---------------------------------------------------------------------------
# True Bertrand equilibria
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Equilibrium:
    """Solved prices and margins plus the inf-norm of the dimensionless
    pricing-condition residual: of one market, or per market of a stack (a
    leading market axis on every array), whose failed markets have NaN prices
    and their ``ConvergenceError`` text in ``failures``."""

    prices: np.ndarray
    margins: np.ndarray
    residual: float | np.ndarray
    iterations: int           # warm-start and Newton steps, summed over the markets
    failures: dict[int, str] = field(default_factory=dict)


def _cross_weights(q, jac, prices, co_owned):
    """(eps_jj, A) with A[j, l] = D_jl p_l / p_j where ``co_owned[j, l]``, else 0,
    D_jl = -(dq_l/dp_j) / (dq_j/dp_j) being quantity diversion from ``jac``, the
    quantity Jacobian at ``prices`` where the quantities are ``q``; the pricing
    conditions then read -1/eps - m + A m = 0. Per market on leading axes."""
    own = np.diagonal(jac, axis1=-2, axis2=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        eps = own * prices / q
        a = -jac.swapaxes(-1, -2) / own[..., :, None] * prices[..., None, :] / prices[..., :, None]
    return eps, np.where(co_owned, a, 0.0)


def _margin_residual(demand, prices, costs, co_owned, jacobian=False):
    """Pricing conditions normalized to be quasilinear in margins, per market
    on leading axes; with ``jacobian``, the pair ``(r, jacobian)``,
    ``jacobian(rows)`` giving d r / d log p at the markets ``rows`` (default
    all) as ``newton.damped_newton`` asks. With Q the quantity Jacobian and own
    = co-ownership including the diagonal, r_j = -N_j / Den_j for N_j = q_j +
    sum_l own_jl (p_l - c_l) Q_lj and Den_j = p_j Q_jj, whose price derivatives
    come from the quantity Hessian. One ``demand.derivatives`` call gives q and
    Q; the Hessian is built only when ``jacobian`` is called, and only at its
    rows."""
    q, jac, hessian = demand.derivatives(prices)
    eps, a = _cross_weights(q, jac, prices, co_owned)
    m = (prices - costs) / prices
    r = -1.0 / eps - m + (a @ m[..., None])[..., 0]
    if not jacobian:
        return r

    def d_r(rows=None):
        hess = hessian() if rows is None else hessian(rows)
        rows = slice(None) if rows is None else rows
        jac_, p, c, r_ = jac[rows], prices[rows], costs[rows], r[rows]
        eye = np.eye(prices.shape[-1])
        own, diag = co_owned[rows] | eye.astype(bool), np.diagonal(jac_, axis1=-2, axis2=-1)
        d_num = (jac_ + own * jac_.swapaxes(-1, -2)
                 + np.einsum("...jl,...ljq->...jq", own * (p - c)[..., None, :], hess))
        d_den = eye * diag[..., None, :] + p[..., :, None] * np.einsum("...jjq->...jq", hess)
        return -(d_num + r_[..., :, None] * d_den) / (p * diag)[..., :, None] * p[..., None, :]

    return r, d_r


def _implied_margins(demand, prices, co_owned) -> np.ndarray:
    """Margins solving the pricing conditions at fixed prices, per market."""
    q, jac, _ = demand.derivatives(prices)
    eps, a = _cross_weights(q, jac, prices, co_owned)
    return np.linalg.solve(np.eye(prices.shape[-1]) - a, (-1.0 / eps)[..., None])[..., 0]


def _margin_step(demand, log_p, costs, co_owned):
    """Half a step of the margin fixed point p <- c / (1 - m(p)) in log prices,
    per market, and per market whether its implied margins are finite (when
    not, it has left the elastic region and its step means nothing).

    Moves are clamped to 0.25 in log price so a bad margin solve cannot fling
    prices into the underflow region of the share function.
    """
    m = _implied_margins(demand, np.exp(log_p), co_owned)
    target = np.log(costs / (1.0 - np.clip(m, 1e-6, 1.0 - 1e-6)))
    return log_p + np.clip(0.5 * (target - log_p), -0.25, 0.25), np.isfinite(m).all(axis=-1)


def solve_bertrand(
    demand,
    costs: np.ndarray,
    ownership: Sequence[int],
    p0: np.ndarray | None = None,
    max_iterations: int = 400,
) -> Equilibrium:
    """Bertrand-Nash prices by damped Newton in log prices, for one market or
    a stack of markets of one size.

    One damped margin fixed-point step from ``p0`` (default 1.5 x cost) is the
    warm start. The root is that of the margin-form pricing conditions;
    ``max_iterations`` caps the Newton steps. ``ownership`` assigns a firm
    index to each product.

    With 1-D ``costs``, one market: raises ConvergenceError when the warm
    start leaves the elastic region or the residual cannot be brought under
    ``_TOL`` (the steps ran out or the line search failed).

    A stack has ``demand`` parameters with a leading market axis and
    ``costs`` and ``ownership`` of shape (markets, products); ``p0``
    broadcasts to them. Its markets take one warm start and step as one
    ``newton.damped_newton`` batch, each on the path it takes alone: when a
    market stops short and ends the batch, the unfinished ones are solved
    again from their own starts. A market that fails is reported in
    ``failures`` with the text a lone solve raises; the others are returned.
    """
    costs = np.asarray(costs, dtype=float)
    stack = np.atleast_2d(costs)
    co_owned = co_ownership(np.broadcast_to(ownership, stack.shape))
    p = np.broadcast_to(stack * 1.5 if p0 is None else np.asarray(p0, dtype=float), stack.shape)
    x0, started = _margin_step(demand, np.log(p), stack, co_owned)
    failures = dict.fromkeys(np.flatnonzero(~started).tolist(),
                             "margin iteration left the elastic region")
    x, norm, its = np.full(stack.shape, np.nan), np.full(len(stack), np.nan), [0] * len(stack)
    every = list(range(len(stack)))

    def residual(x, rows, todo):
        # the driver may list rows in any order; all of them in order is the stack itself
        if rows == every:
            r, d_r = _margin_residual(demand, np.exp(x), stack, co_owned, jacobian=True)
        else:
            markets = todo[rows]
            r, d_r = _margin_residual(_take(demand, markets), np.exp(x), stack[markets],
                                      co_owned[markets], jacobian=True)
        return r, lambda pos: d_r() if pos == every[:len(x)] else d_r(pos)

    todo = np.flatnonzero(started)
    while len(todo):
        batch = damped_newton(lambda x, rows, todo=todo: residual(x, rows, todo), x0[todo],
                              _TOL, max_iterations)
        error = next((e for e in batch.errors if e is not None), None)
        if error is not None:
            raise error
        # the first market's outcome and every converged one are final
        for k in [0] + [k for k in range(1, len(todo)) if batch.converged[k]]:
            i = int(todo[k])
            x[i], norm[i], its[i] = batch.x[k], np.max(np.abs(batch.f[k])), batch.iterations[k]
            if not batch.converged[k]:
                failures[i] = f"Bertrand solver stalled at residual {norm[i]:.3e}"
                x[i] = np.nan
        todo = todo[1:][[not ok for ok in batch.converged[1:]]]
    iterations = len(stack) + sum(its)
    p = np.exp(x)
    if costs.ndim == 1:
        if failures:
            raise ConvergenceError(failures[0])
        return Equilibrium(p[0], (p[0] - costs) / p[0], float(norm[0]), iterations)
    return Equilibrium(p, (p - stack) / p, norm, iterations, dict(sorted(failures.items())))


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
    costs = primitives.costs.copy()
    for j, cdd in (efficiencies or {}).items():
        costs[j] *= 1.0 + cdd
    eq = solve_bertrand(primitives.demand, costs, _merged(primitives.ownership, merging_firms),
                        p0=primitives.prices)
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


def _run_trial(config: HarnessConfig, trial: int):
    """Draw one market, check its drawn prices against the pricing conditions,
    observe and screen it there: ``(primitives, pair, guppi, cmcr)``, the two
    screens keyed by the merging products in market order. A
    ``ConvergenceError`` is re-raised with ``pre-merger:`` in front."""
    primitives, pair = random_primitives(config, trial)
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
    except ConvergenceError as err:
        raise ConvergenceError(f"pre-merger: {err}") from err
    return primitives, pair, g, c.efficiencies


def _merged(ownership: Sequence[int], pair: tuple[int, int]) -> tuple[int, ...]:
    """Post-merger ownership: firm ``pair[1]``'s products pass to ``pair[0]``."""
    a, b = pair
    return tuple(a if f == b else f for f in ownership)


def run_accuracy_experiment(config: HarnessConfig) -> ExperimentResult:
    """Score GUPPI-based price-effect predictions against true equilibria on
    ``config.n_markets`` random markets. Deterministic given the seed; failed
    trials are dropped and logged, with their reasons, in ``failure_reasons``.

    Each trial is drawn, checked and screened on its own (``_run_trial``).
    The post-merger markets of one size are then solved by one
    ``solve_bertrand`` call as a stack, every market on the path it takes
    alone, so a trial's record does not depend on the other trials."""
    screened: dict[int, tuple] = {}
    failures: dict[int, str] = {}
    for trial in range(config.n_markets):
        try:
            screened[trial] = _run_trial(config, trial)
        except ConvergenceError as err:
            failures[trial] = str(err)

    stacks: dict[int, list[int]] = {}
    for trial, (primitives, *_) in screened.items():
        stacks.setdefault(len(primitives.ids), []).append(trial)
    true_pdd = {}
    for trials in stacks.values():
        prims, pairs = zip(*(screened[t][:2] for t in trials))
        pre = np.stack([prim.prices for prim in prims])
        try:
            eq = solve_bertrand(_stack([prim.demand for prim in prims]),
                                np.stack([prim.costs for prim in prims]),
                                [_merged(prim.ownership, pair) for prim, pair in zip(prims, pairs)],
                                p0=pre)
            lost = eq.failures
        except ConvergenceError as err:
            lost = dict.fromkeys(range(len(trials)), str(err))
        for k, trial in enumerate(trials):
            if k in lost:
                failures[trial] = f"post-merger: {lost[k]}"
            else:
                true_pdd[trial] = eq.prices[k] / pre[k] - 1.0

    records: list[TrialRecord] = []
    for trial, pdd in sorted(true_pdd.items()):
        primitives, _, g, c = screened[trial]
        pos = {pid: j for j, pid in enumerate(primitives.ids)}
        records.extend(TrialRecord(
            trial_id=trial,
            model=primitives.model,
            n_products=len(primitives.ids),
            product_id=pid,
            guppi=g_j,
            predicted_pdd=g_j,  # identity pass-through
            true_pdd=float(pdd[pos[pid]]),
            cmcr=c[pid],
        ) for pid, g_j in g.items())
    failures = dict(sorted(failures.items()))

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
