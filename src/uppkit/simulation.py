"""Post-merger equilibrium in percentage-price-change space under CES demand.

Price levels are never observed, but log-linearity of CES utility in price
lets every ingredient of the post-merger pricing conditions be written as a
function of the percentage price changes pdd:

    u_ij(pdd)   = u_ij + (1 - eta) log(1 + pdd_j)
    alpha(pdd)  = softmax of the shifted utilities
    eps_jj(pdd) = (1 - eta) * sum_i wbar_ij (1 - alpha_ij) - 1
    m_j(pdd)    = 1 - (1 - m_j) (1 + cdd_j) / (1 + pdd_j)

The solver finds the root of the stacked ownership-aware pricing conditions
f(pdd) = 0 with a damped Newton iteration warm-started at the GUPPI vector.

The Newton Jacobian is closed-form, built only at the points Newton steps
from, out of the share moments the residual's state holds. With
L_q = log(1 + pdd_q), b = 1 - eta and consumer spending weights
w_i = weight_i * budget_i, the softmax gives

    d alpha_ik / d L_q = b alpha_ik (delta_kq - alpha_iq),
    d m_j / d L_q      = delta_jq (1 - m_j),

so the conditions differentiate into share moments: spend
S_j = sum_i w_i a_ij, P_jq = sum_i w_i a_ij a_iq, den_j = S_j - P_jj (the
diversion denominator, D_jk = P_jk / den_j) and T_jkq = sum_i w_i a_ij a_ik a_iq.
Write co_jk = 1 when k != j shares j's post-merger owner,
C_j = sum_k co_jk m_k D_jk for the co-owned pressure and
G_jq = sum_k co_jk m_k T_jkq, so no pair (j, k) is formed explicitly. The
pricing condition is f_j = -1/eps_j - m_j + (1 + 1/eps_j) C_j with
eps_j = b den_j / S_j - 1, and with dX_j standing for d X_j / d L_q:

    dS_j   = b (delta_jq S_j - P_jq)
    dden_j = b (delta_jq (2 den_j - S_j) - P_jq + 2 T_jjq)
    deps_j = (b / S_j) (dden_j - (den_j / S_j) dS_j)
    dC_j   = co_jq D_jq (1 - m_q + b m_q) + b delta_jq C_j
             - (2 b G_jq + C_j dden_j) / den_j
    df_j   = (1 - C_j) deps_j / eps_j^2 - delta_jq (1 - m_j) + (1 + 1/eps_j) dC_j

Column q of d f / d pdd is then column q of df divided by 1 + pdd_q.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, NamedTuple

import numpy as np

from . import ces
from .ces import CESEconomy, ShareTable
from .effects import pressure
from .errors import InputValidationError
from .market import DiversionMatrix, Market, MergerSpec, co_ownership
from .newton import damped_newton

LOWER_BOUND = -0.99  # floor on every iterate's price change
_FLOAT_MAX = np.finfo(float).max
MAX_ITERATIONS = 200  # Newton steps per solve


@dataclass(frozen=True)
class SimulationProblem:
    """A fully specified percentage-price-space simulation.

    ``market`` carries pre-merger margins (required for every inside product)
    and pre-merger ownership; ``post_ownership`` maps product -> firm after
    the merger; ``efficiencies`` maps product -> cost change in (-1, 0].
    """

    market: Market
    economy: CESEconomy
    post_ownership: Mapping[str, str]
    efficiencies: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        self.economy._softmax_arrays("merger simulation")
        object.__setattr__(self, "post_ownership", dict(self.post_ownership))
        object.__setattr__(self, "efficiencies", dict(self.efficiencies))
        market_ids = set(self.market.ids)
        for pid in self.order:
            if pid not in market_ids:
                raise InputValidationError(f"product {pid}: margin missing from market data")
            if pid not in self.post_ownership:
                raise InputValidationError(f"product {pid}: no post-merger owner")
        for p in self.market.products:
            if p.id not in self.order:
                raise InputValidationError(f"product {p.id}: no consumer considers it")
            if not 0.0 < p.margin < 1.0:  # NaN included
                raise InputValidationError(f"product {p.id}: margin {p.margin} outside (0, 1)")
        for pid, c in self.efficiencies.items():
            if pid not in market_ids:
                raise InputValidationError(f"product {pid}: efficiency for a product not in the market")
            if not -1.0 < c <= 0.0:
                raise InputValidationError(f"product {pid}: efficiency {c} outside (-1, 0]")

    @cached_property
    def order(self) -> tuple[str, ...]:
        """Inside products, economy order (its last column is the outside option)."""
        return self.economy.order[:-1]

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-product arrays in ``order``: pre-merger margins m, (1 - m)(1 + c),
        and the pre- and post-merger co-ownership masks (diagonal excluded)."""
        m = np.array([self.market.product(pid).margin for pid in self.order])
        c = np.array([self.efficiencies.get(pid, 0.0) for pid in self.order])
        pre = co_ownership([self.market.product(pid).firm for pid in self.order])
        post = co_ownership([self.post_ownership[pid] for pid in self.order])
        return m, (1.0 - m) * (1.0 + c), pre, post


def merger_problem(
    market: Market, economy: CESEconomy, merger: MergerSpec
) -> SimulationProblem:
    """Problem for a standard two-firm merger: the merging firms' products move
    to a combined owner, everyone else keeps theirs."""
    combined = f"{merger.firm_a}+{merger.firm_b}"
    post = {p.id: (combined if p.firm in (merger.firm_a, merger.firm_b) else p.firm)
            for p in market.products}
    return SimulationProblem(market, economy, post, dict(merger.efficiencies))


class PostMergerState(NamedTuple):
    """The arrays of the pricing conditions at a price-change vector ``pdd``:
    the economy's ``eta`` and consumer spending weights ``wb``, shares
    ``alpha`` per consumer (OUTSIDE last), and per inside product the
    quantity own-price elasticities ``eps``, revenue diversion ``d`` with its
    outside column ``d_outside``, and margins ``m``; ``moments`` are the
    diversion kernel's (S, den, P). For a batch of price-change vectors every
    array but ``wb`` has a leading batch axis, and :meth:`take` picks rows."""

    eta: float
    wb: np.ndarray
    pdd: np.ndarray
    alpha: np.ndarray
    eps: np.ndarray
    d: np.ndarray
    d_outside: np.ndarray
    m: np.ndarray
    moments: tuple[np.ndarray, ...]

    def take(self, rows) -> PostMergerState:
        """The state of row ``rows`` of a batch, or of the rows it lists."""
        if rows == list(range(len(self.pdd))):
            return self
        return PostMergerState(self.eta, self.wb, self.pdd[rows], self.alpha[rows],
                               self.eps[rows], self.d[rows], self.d_outside[rows], self.m[rows],
                               tuple(a[rows] for a in self.moments))


def _as_vector(problem: SimulationProblem, pdd) -> np.ndarray:
    if isinstance(pdd, Mapping):
        unknown = [pid for pid in pdd if pid not in problem.order]
        if unknown:
            raise InputValidationError(f"price changes for products not in the problem: {unknown}")
        vec = np.array([float(pdd.get(pid, 0.0)) for pid in problem.order])
    else:
        vec = np.asarray(pdd, dtype=float)
        if vec.ndim not in (1, 2) or vec.shape[-1] != len(problem.order):
            raise InputValidationError(
                f"price-change vector has shape {vec.shape}, expected ({len(problem.order)},)"
                f" or a batch of rows of that length"
            )
    if not np.isfinite(vec).all() or (vec <= -1.0).any():
        raise InputValidationError("price changes must be finite and exceed -1")
    return vec


def post_merger_state(problem: SimulationProblem, pdd) -> PostMergerState:
    """The :class:`PostMergerState` arrays at ``pdd``, in ``problem.order``:
    one price-change vector, or a batch of them stacked as rows."""
    vec = _as_vector(problem, pdd)
    econ = problem.economy
    u, wb = econ._dense  # the problem passed the plain-CES gate when it was built
    u_post = np.empty(vec.shape[:-1] + u.shape)
    u_post[...] = u
    u_post[..., : vec.shape[-1]] += (1.0 - econ.eta) * np.log1p(vec)[..., None, :]
    alpha = ces._softmax_rows(u_post.reshape(-1, u.shape[1])).reshape(u_post.shape)
    # Peak memory: a batch of a large market holds a few consumer x product
    # blocks per row, so u_post is freed here, and the spending block wa is
    # not kept in the state (the Jacobian forms it again).
    del u_post
    d, d_outside, (_, spend, den, pair) = ces._diversion_from_share_values(alpha, wb, econ.order)
    eps = (1.0 - econ.eta) * den / spend - 1.0  # den > 0, so spend > 0
    _, base, _, _ = problem._arrays
    m = 1.0 - base / (1.0 + vec)
    return PostMergerState(econ.eta, wb, vec, alpha, eps, d, d_outside, m, (spend, den, pair))


def _foc(eps: np.ndarray, d: np.ndarray, m: np.ndarray, co_owned: np.ndarray) -> np.ndarray:
    """Pricing conditions -1/eps_j - m_j + (1 + 1/eps_j) sum_l m_l D_jl, the sum
    over the products l that ``co_owned[j, l]`` marks as sharing j's owner."""
    return -1.0 / eps - m + pressure(eps, d, m, co_owned)


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose of a matrix or of each matrix in a stack."""
    return np.swapaxes(a, -1, -2)


def _foc_jacobian(s: PostMergerState, co_owned: np.ndarray) -> np.ndarray:
    """d f / d pdd of the pricing conditions at the state ``s``: the module
    docstring's formulas, term by term, stacked for a batched state; it forms
    only T and G. Spending so small that (eta - 1) / S_j overflows is refused."""
    b = 1.0 - s.eta
    n = s.m.shape[-1]
    a = s.alpha[..., :n]
    spend, den, pair = s.moments
    if spend.min() < -b / _FLOAT_MAX:
        raise InputValidationError("simulation Jacobian overflows: (eta - 1) / spending")
    wa = s.wb[:, None] * a  # the diversion kernel's spending block
    p = pair[..., :n]  # P_jq
    t = _t(wa * a) @ a  # T_jjq
    g = _t(wa * (a @ _t(co_owned * s.m[..., None, :]))) @ a  # G_jq
    co_d = co_owned * s.d
    c = (co_d @ s.m[..., None])[..., 0]  # C_j
    delta = np.eye(n)
    spend, den, c, eps, m = (v[..., None] for v in (spend, den, c, s.eps, s.m))
    d_spend = b * (delta * spend - p)
    d_den = b * (delta * (2.0 * den - spend) - p + 2.0 * t)
    d_eps = (b / spend) * (d_den - (den / spend) * d_spend)
    d_c = (co_d * (1.0 - s.m + b * s.m)[..., None, :] + b * delta * c
           - (2.0 * b * g + c * d_den) / den)
    df = (1.0 - c) * d_eps / eps**2 - delta * (1.0 - m) + (1.0 + 1.0 / eps) * d_c
    return df / (1.0 + s.pdd)[..., None, :]


@dataclass(frozen=True, eq=False)
class FocJacobian:
    """d f / d pdd of the pricing conditions from one state evaluation, built
    when called: ``jacobian()`` at every row of ``state``, ``jacobian(rows)``
    at the listed rows of a batched state."""

    state: PostMergerState
    co_owned: np.ndarray

    def __call__(self, rows=None) -> np.ndarray:
        return _foc_jacobian(self.state if rows is None else self.state.take(rows), self.co_owned)


def foc_residual(problem: SimulationProblem, pdd, jacobian: bool = False):
    """Stacked post-merger pricing conditions at a candidate ``pdd`` (one entry
    per inside product, ownership taken post-merger; a batch of vectors gives
    one row each); with ``jacobian``, the pair ``(f, jacobian)``, where the
    :class:`FocJacobian` ``jacobian`` builds d f / d pdd from the same state
    evaluation, ``jacobian.state``."""
    s = post_merger_state(problem, pdd)
    *_, post = problem._arrays
    f = _foc(s.eps, s.d, s.m, post)
    return (f, FocJacobian(s, post)) if jacobian else f


@dataclass(frozen=True)
class SimulationResult:
    """Root of the post-merger pricing system plus the state it induces.

    ``unique`` means no second root was found from the re-solve starts; a
    re-solve that failed is named in ``warnings``, not in ``unique``.
    """

    order: tuple[str, ...]
    price_changes: dict[str, float]
    residual_norm: float
    iterations: int
    converged: bool
    unique: bool
    post_shares: ShareTable
    post_margins: dict[str, float]
    post_elasticities: dict[str, float]
    post_diversion: DiversionMatrix
    warnings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "price_changes": self.price_changes,
            "residual_norm": self.residual_norm,
            "iterations": self.iterations,
            "converged": self.converged,
            "unique": self.unique,
            "post_margins": self.post_margins,
            "post_elasticities": self.post_elasticities,
            "post_shares": {
                cid: self.post_shares.consumer_shares(cid)
                for cid in self.post_shares.consumer_ids
            },
            "post_diversion": {
                "order": list(self.post_diversion.order),
                "matrix": self.post_diversion.values.tolist(),
                "outside": self.post_diversion.outside.tolist(),
            },
            "warnings": list(self.warnings),
        }


@dataclass(frozen=True)
class SolverConfig:
    tolerance: float = 1e-10  # inf-norm of the pricing conditions at a root

    def __post_init__(self):
        if not (np.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise InputValidationError(f"tolerance {self.tolerance} must be finite and > 0")


def _gaps_and_warm_start(problem: SimulationProblem) -> tuple[np.ndarray, np.ndarray]:
    """From one evaluation at zero price change: the pre-merger margin gaps
    (supplied less FOC-implied margins under pre-merger ownership) and the
    generalized GUPPI of the ownership change, pressure from products newly
    co-owned with j plus j's own efficiency term c_j (1 - m_j) = base - (1 - m_j),
    zero for unchanged firms."""
    s = post_merger_state(problem, np.zeros(len(problem.order)))
    m0, base, pre, post = problem._arrays
    return -_foc(s.eps, s.d, m0, pre), pressure(s.eps, s.d, m0, post & ~pre) + base - (1.0 - m0)


# Rows of simulate's Newton batch: the solve from the GUPPI warm start, then
# the uniqueness re-solves from 0 and from twice the warm start.
_PRIMARY = 0
_RESOLVES = ((1, "0"), (2, "2x GUPPI"))


def simulate(
    problem: SimulationProblem, config: SolverConfig | None = None
) -> SimulationResult:
    """Solve the post-merger pricing system for the percentage price changes.

    Damped Newton on ``foc_residual`` with its closed-form Jacobian, built
    only where Newton steps, warm-started at the GUPPI vector. The
    uniqueness re-solves from 0 and from twice the warm start run in the
    same solve, as rows of one lock-step batch (``newton.damped_newton``):
    one residual call and one Jacobian call per step serve all three, and
    each follows the path it would follow alone. The result's post-merger
    state is the solve's own last evaluation at the root.

    Re-solves are read only when the main solve converged, and stop with it
    when it does not: ``unique`` is False only if a re-solve converges to a
    root more than 1e-6 away. So ``unique`` means "no second root found": a
    re-solve that cannot start, stops on a refused Jacobian or does not
    converge finds none, and is reported in ``warnings`` with its start. A
    non-convergent run returns a diagnostic result with ``converged=False``
    rather than raising; a main solve whose start or Jacobian is undefined
    raises ``InputValidationError``.
    """
    config = config or SolverConfig()
    warnings: list[str] = []

    gaps, g = _gaps_and_warm_start(problem)
    pre_norm = float(np.max(np.abs(gaps)))
    if pre_norm > 1e-6:
        warnings.append(
            f"pre-merger data not self-consistent: FOC residual {pre_norm:.3e} at zero price change"
        )

    x, f, its, ok, errors, held = damped_newton(
        lambda x, rows: foc_residual(problem, x, jacobian=True),
        np.stack([g, np.zeros_like(g), 2.0 * g]), config.tolerance, MAX_ITERATIONS,
        lower_bound=LOWER_BOUND,
    )
    if errors[_PRIMARY] is not None:
        raise errors[_PRIMARY]

    unique = True
    if ok[_PRIMARY]:
        for row, start in _RESOLVES:
            if held[row] is None:  # undefined state at the start
                warnings.append(f"uniqueness re-solve from {start} could not start: {errors[row]}")
            elif errors[row] is not None:
                warnings.append(f"uniqueness re-solve from {start} stopped after {its[row]} "
                                f"iterations: {errors[row]}")
            elif not ok[row]:
                warnings.append(
                    f"uniqueness re-solve from {start} did not converge: residual "
                    f"{float(np.linalg.norm(f[row], np.inf)):.3e} after {its[row]} iterations"
                )
            elif float(np.linalg.norm(x[row] - x[_PRIMARY], np.inf)) > 1e-6:
                unique = False
                warnings.append("solver found a second root from a different start")
                break

    jacobian, i = held[_PRIMARY]
    state = jacobian.state.take(i)
    order = problem.order
    return SimulationResult(
        order=order,
        price_changes=dict(zip(order, x[_PRIMARY].tolist())),
        residual_norm=float(np.linalg.norm(f[_PRIMARY], np.inf)),
        iterations=its[_PRIMARY],
        converged=ok[_PRIMARY],
        unique=unique,
        post_shares=ShareTable(tuple(c.id for c in problem.economy.consumers),
                               problem.economy.order, state.alpha),
        post_margins=dict(zip(order, state.m.tolist())),
        post_elasticities=dict(zip(order, state.eps.tolist())),
        post_diversion=DiversionMatrix(order, state.d, state.d_outside),
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class ConsistencyReport:
    """Gap between supplied margins and the margins the pre-merger pricing
    conditions imply from shares and eta; ``flagged`` holds the products whose
    gap exceeds 0.01."""

    gaps: dict[str, float]
    flagged: tuple[str, ...]


def consistency_check(problem: SimulationProblem) -> ConsistencyReport:
    """Compare each supplied margin with the FOC-implied one (holding the other
    supplied margins fixed) under pre-merger ownership at zero price change."""
    gaps = dict(zip(problem.order, _gaps_and_warm_start(problem)[0].tolist()))
    return ConsistencyReport(gaps, tuple(j for j, gap in gaps.items() if abs(gap) > 0.01))
