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
from typing import Mapping

import numpy as np

from . import ces
from .ces import CESEconomy, ShareTable
from .effects import pressure
from .errors import InputValidationError
from .market import DiversionMatrix, Market, MergerSpec, OUTSIDE, co_ownership
from .newton import damped_newton

LOWER_BOUND = -0.99  # floor on every iterate's price change
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
        inside = [pid for pid in self.economy.order if pid != OUTSIDE]
        market_ids = set(self.market.ids) - {OUTSIDE}
        for pid in inside:
            if pid not in market_ids:
                raise InputValidationError(f"product {pid}: margin missing from market data")
            if pid not in self.post_ownership:
                raise InputValidationError(f"product {pid}: no post-merger owner")
        for pid in market_ids:
            if pid not in inside:
                raise InputValidationError(f"product {pid}: no consumer considers it")
        for pid, c in self.efficiencies.items():
            if not -1.0 < c <= 0.0:
                raise InputValidationError(f"product {pid}: efficiency {c} outside (-1, 0]")

    @cached_property
    def order(self) -> tuple[str, ...]:
        """Inside products, economy order."""
        return tuple(pid for pid in self.economy.order if pid != OUTSIDE)

    def efficiency(self, pid: str) -> float:
        return float(self.efficiencies.get(pid, 0.0))

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-product arrays in ``order``: pre-merger margins m, (1 - m)(1 + c),
        and the pre- and post-merger co-ownership masks (diagonal excluded)."""
        m = np.array([self.market.product(pid).margin for pid in self.order])
        c = np.array([self.efficiency(pid) for pid in self.order])
        pre = co_ownership([self.market.product(pid).firm for pid in self.order])
        post = co_ownership([self.post_ownership[pid] for pid in self.order])
        return m, (1.0 - m) * (1.0 + c), pre, post


def merger_problem(
    market: Market, economy: CESEconomy, merger: MergerSpec
) -> SimulationProblem:
    """Problem for a standard two-firm merger: the merging firms' products move
    to a combined owner, everyone else keeps theirs."""
    combined = f"{merger.firm_a}+{merger.firm_b}"
    post = {
        p.id: (combined if p.firm in (merger.firm_a, merger.firm_b) else p.firm)
        for p in market.products
        if p.id != OUTSIDE
    }
    return SimulationProblem(market, economy, post, dict(merger.efficiencies))


@dataclass(frozen=True)
class PostMergerState:
    """Demand-side arrays induced by a candidate price-change vector ``pdd``: shares
    per consumer (OUTSIDE last), and per inside product the quantity own-price
    elasticities, revenue diversion (with its outside column) and margins;
    ``moments`` are the diversion kernel's (wa, S, den, P). The keyed views
    ``shares``, ``elasticities``, ``diversion`` and ``margins`` are built on
    first use."""

    problem: SimulationProblem
    pdd: np.ndarray
    alpha: np.ndarray
    eps: np.ndarray
    d: np.ndarray
    d_outside: np.ndarray
    m: np.ndarray
    moments: tuple[np.ndarray, ...]

    @property
    def order(self) -> tuple[str, ...]:
        return self.problem.order

    @cached_property
    def shares(self) -> ShareTable:
        econ = self.problem.economy
        return ShareTable(tuple(c.id for c in econ.consumers), econ.order, self.alpha)

    @cached_property
    def elasticities(self) -> dict[str, float]:
        return dict(zip(self.order, self.eps.tolist()))

    @cached_property
    def diversion(self) -> DiversionMatrix:
        return DiversionMatrix(self.order, self.d, self.d_outside)

    @cached_property
    def margins(self) -> dict[str, float]:
        return dict(zip(self.order, self.m.tolist()))


def _as_vector(problem: SimulationProblem, pdd) -> np.ndarray:
    if isinstance(pdd, Mapping):
        vec = np.array([float(pdd.get(pid, 0.0)) for pid in problem.order])
    else:
        vec = np.asarray(pdd, dtype=float)
        if vec.shape != (len(problem.order),):
            raise InputValidationError(
                f"price-change vector has shape {vec.shape}, expected ({len(problem.order)},)"
            )
    if np.any(vec <= -1.0):
        raise InputValidationError("price changes must exceed -1")
    return vec


def post_merger_state(problem: SimulationProblem, pdd) -> PostMergerState:
    """Shares, elasticities, diversion, and margins at ``pdd``."""
    vec = _as_vector(problem, pdd)
    econ = problem.economy
    u, wb = econ._dense  # the problem passed the plain-CES gate when it was built
    u_post = u.copy()
    u_post[:, : len(vec)] += (1.0 - econ.eta) * np.log1p(vec)
    alpha = ces._softmax_rows(u_post)
    d, d_outside, moments = ces._diversion_from_share_values(alpha, wb, econ.order)
    _, spend, den, _ = moments
    eps = (1.0 - econ.eta) * den / spend - 1.0  # den > 0, so spend > 0
    _, base, _, _ = problem._arrays
    m = 1.0 - base / (1.0 + vec)
    return PostMergerState(problem, vec, alpha, eps, d, d_outside, m, moments)


def _foc(eps: np.ndarray, d: np.ndarray, m: np.ndarray, co_owned: np.ndarray) -> np.ndarray:
    """Pricing conditions -1/eps_j - m_j + (1 + 1/eps_j) sum_l m_l D_jl, the sum
    over the products l that ``co_owned[j, l]`` marks as sharing j's owner."""
    return -1.0 / eps - m + pressure(eps, d, m, co_owned)


def _foc_jacobian(s: PostMergerState, co_owned: np.ndarray) -> np.ndarray:
    """d f / d pdd of the pricing conditions at the state ``s``, in closed form
    (the formulas in the module docstring); it forms only T and G. Spending so
    small that (eta - 1) / S_j overflows is refused."""
    b = 1.0 - s.problem.economy.eta
    a = s.alpha[:, : len(s.m)]
    wa, spend, den, pair = s.moments
    if spend.min() < -b / np.finfo(float).max:
        raise InputValidationError("simulation Jacobian overflows: (eta - 1) / spending")
    pair = pair[:, : len(s.m)]  # P_jq
    c = (co_owned * s.d) @ s.m
    third = (wa * a).T @ a  # T_jjq
    g = (wa * (a @ (co_owned * s.m).T)).T @ a  # G_jq
    d_spend = b * (np.diag(spend) - pair)
    d_den = b * (np.diag(2.0 * den - spend) - pair + 2.0 * third)
    d_eps = (b / spend)[:, None] * (d_den - (den / spend)[:, None] * d_spend)
    d_c = (co_owned * s.d * (1.0 - s.m + b * s.m) + np.diag(b * c)
           - (2.0 * b * g + c[:, None] * d_den) / den[:, None])
    df = (((1.0 - c) / s.eps**2)[:, None] * d_eps + (1.0 + 1.0 / s.eps)[:, None] * d_c
          - np.diag(1.0 - s.m))
    return df / (1.0 + s.pdd)


def foc_residual(problem: SimulationProblem, pdd, jacobian: bool = False):
    """Stacked post-merger pricing conditions at a candidate ``pdd`` (one entry
    per inside product, ownership taken post-merger); with ``jacobian``, the
    pair ``(f, jacobian)``, where ``jacobian()`` builds d f / d pdd from the
    same state evaluation."""
    s = post_merger_state(problem, pdd)
    *_, post = problem._arrays
    f = _foc(s.eps, s.d, s.m, post)
    return (f, lambda: _foc_jacobian(s, post)) if jacobian else f


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


def simulate(
    problem: SimulationProblem, config: SolverConfig | None = None
) -> SimulationResult:
    """Solve the post-merger pricing system for the percentage price changes.

    Damped Newton on ``foc_residual`` with its closed-form Jacobian, built
    only where Newton steps, warm-started at the GUPPI vector. A converged
    solve is re-solved from 0 and from twice the warm start; ``unique`` is
    False only if a re-solve converges to a root more than 1e-6 away. So
    ``unique`` means "no second root found": a re-solve that cannot start or
    does not converge finds none, and is reported in ``warnings`` with its
    start. A non-convergent run returns a diagnostic result with
    ``converged=False`` rather than raising.
    """
    config = config or SolverConfig()
    warnings: list[str] = []

    gaps, g = _gaps_and_warm_start(problem)
    pre_norm = float(np.max(np.abs(gaps)))
    if pre_norm > 1e-6:
        warnings.append(
            f"pre-merger data not self-consistent: FOC residual {pre_norm:.3e} at zero price change"
        )

    def solve(x0):
        return damped_newton(
            lambda x: foc_residual(problem, x, jacobian=True), x0,
            config.tolerance, MAX_ITERATIONS, lower_bound=LOWER_BOUND,
        )

    x, f, its, ok = solve(g)

    unique = True
    if ok:
        for start, alt0 in (("0", np.zeros_like(g)), ("2x GUPPI", 2.0 * g)):
            try:
                alt, alt_f, alt_its, alt_ok = solve(alt0)
            except InputValidationError as err:  # undefined state at the start
                warnings.append(f"uniqueness re-solve from {start} could not start: {err}")
                continue
            if not alt_ok:
                warnings.append(
                    f"uniqueness re-solve from {start} did not converge: residual "
                    f"{float(np.linalg.norm(alt_f, np.inf)):.3e} after {alt_its} iterations"
                )
            elif float(np.linalg.norm(alt - x, np.inf)) > 1e-6:
                unique = False
                warnings.append("solver found a second root from a different start")
                break

    state = post_merger_state(problem, x)
    return SimulationResult(
        order=problem.order,
        price_changes={pid: float(x[i]) for i, pid in enumerate(problem.order)},
        residual_norm=float(np.linalg.norm(f, np.inf)),
        iterations=its,
        converged=ok,
        unique=unique,
        post_shares=state.shares,
        post_margins=state.margins,
        post_elasticities=state.elasticities,
        post_diversion=state.diversion,
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
