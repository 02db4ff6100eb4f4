"""Post-merger equilibrium in percentage-price-change space under CES demand.

Price levels are never observed, but log-linearity of CES utility in price
lets every ingredient of the post-merger pricing conditions be written as a
function of the percentage price changes pdd:

    u_ij(pdd)   = u_ij + (1 - eta) log(1 + pdd_j)
    alpha(pdd)  = softmax of the shifted utilities
    eps_jj(pdd) = (1 - eta) * sum_i wbar_ij (1 - alpha_ij) - 1
    m_j(pdd)    = 1 - (1 - m_j) (1 + cdd_j) / (1 + pdd_j)

The solver finds the root of the stacked ownership-aware pricing conditions
f(pdd) = 0 with a damped Newton iteration warm-started at the GUPPI vector,
falling back to a damped fixed point on the margin form when a Newton step
fails to improve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import ces
from .ces import CESEconomy, ShareTable
from .errors import InputValidationError
from .market import DiversionMatrix, Market, MergerSpec, OUTSIDE
from .newton import damped_newton


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

    @property
    def order(self) -> tuple[str, ...]:
        """Inside products, economy order."""
        return tuple(pid for pid in self.economy.order if pid != OUTSIDE)

    def efficiency(self, pid: str) -> float:
        return float(self.efficiencies.get(pid, 0.0))


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
    """All demand-side objects induced by a candidate price-change vector."""

    order: tuple[str, ...]
    shares: ShareTable
    elasticities: dict[str, float]
    diversion: DiversionMatrix
    margins: dict[str, float]


def _shifted_utilities(problem: SimulationProblem, pdd: np.ndarray) -> np.ndarray:
    u, _, mask = problem.economy._dense
    bump = np.zeros(len(problem.economy.order))
    bump[: len(problem.order)] = (1.0 - problem.economy.eta) * np.log1p(pdd)
    u_post = u + bump[None, :]
    u_post[~mask] = -np.inf
    return u_post


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
    """Utilities, shares, elasticities, diversion, and margins at ``pdd``."""
    vec = _as_vector(problem, pdd)
    econ = problem.economy
    u_post = _shifted_utilities(problem, vec)
    alpha = ces._softmax_rows(u_post)
    table = ShareTable(tuple(c.id for c in econ.consumers), econ.order, alpha)
    _, wb, mask = econ._dense
    diversion = ces._diversion_from_share_values(alpha, wb, mask, econ.order)
    eps: dict[str, float] = {}
    for k, pid in enumerate(problem.order):
        shoppers = mask[:, k]
        den = float(np.sum(wb[shoppers] * alpha[shoppers, k]))
        num = float(np.sum(wb[shoppers] * alpha[shoppers, k] * (1.0 - alpha[shoppers, k])))
        e_r = (1.0 - econ.eta) * (num / den) if den > 0 else 0.0
        eps[pid] = e_r - 1.0
    margins = {
        pid: 1.0 - (1.0 - problem.market.product(pid).margin)
        * (1.0 + problem.efficiency(pid)) / (1.0 + vec[i])
        for i, pid in enumerate(problem.order)
    }
    return PostMergerState(problem.order, table, eps, diversion, margins)


def _residual_from_state(
    problem: SimulationProblem, state: PostMergerState, ownership: Mapping[str, str]
) -> np.ndarray:
    res = np.empty(len(problem.order))
    for i, j in enumerate(problem.order):
        eps = state.elasticities[j]
        cross = sum(
            state.margins[l] * state.diversion.get(j, l)
            for l in problem.order
            if l != j and ownership[l] == ownership[j]
        )
        res[i] = -1.0 / eps - state.margins[j] + (1.0 + 1.0 / eps) * cross
    return res


def foc_residual(problem: SimulationProblem, pdd) -> np.ndarray:
    """Stacked post-merger pricing conditions at a candidate ``pdd`` (one entry
    per inside product, ownership taken post-merger)."""
    state = post_merger_state(problem, pdd)
    return _residual_from_state(problem, state, problem.post_ownership)


@dataclass(frozen=True)
class SimulationResult:
    """Root of the post-merger pricing system plus the state it induces."""

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
    tolerance: float = 1e-10
    max_iterations: int = 200
    fd_step: float = 1e-6
    lower_bound: float = -0.99
    check_uniqueness: bool = True


def _guppi_warm_start(problem: SimulationProblem) -> np.ndarray:
    """Generalized GUPPI of the ownership change: pressure from products newly
    co-owned with j, plus j's own efficiency term. Zero for unchanged firms."""
    pre_own = {p.id: p.firm for p in problem.market.products if p.id != OUTSIDE}
    state = post_merger_state(problem, np.zeros(len(problem.order)))
    g = np.zeros(len(problem.order))
    for i, j in enumerate(problem.order):
        eps = state.elasticities[j]
        m_j = problem.market.product(j).margin
        gained = [
            l for l in problem.order
            if l != j
            and problem.post_ownership[l] == problem.post_ownership[j]
            and pre_own[l] != pre_own[j]
        ]
        cross = sum(problem.market.product(l).margin * state.diversion.get(j, l) for l in gained)
        g[i] = problem.efficiency(j) * (1.0 - m_j) + (1.0 + 1.0 / eps) * cross
    return g


def _margin_rescue(problem: SimulationProblem, x: np.ndarray) -> np.ndarray:
    """Half a step of the margin-form fixed point: towards the price changes
    at which each margin equals its FOC-implied value f(x) + m(x)."""
    state = post_merger_state(problem, x)
    margins = np.array([state.margins[j] for j in problem.order])
    implied = _residual_from_state(problem, state, problem.post_ownership) + margins
    base = np.array([
        (1.0 - problem.market.product(j).margin) * (1.0 + problem.efficiency(j))
        for j in problem.order
    ])
    target = base / np.maximum(1.0 - implied, 1e-9) - 1.0
    return x + 0.5 * (target - x)


def simulate(
    problem: SimulationProblem, config: SolverConfig | None = None
) -> SimulationResult:
    """Solve the post-merger pricing system for the percentage price changes.

    Warm-starts at the GUPPI vector; when uniqueness checking is on, re-solves
    from 0 and from twice the warm start and flags disagreement beyond 1e-6.
    A non-convergent run returns a diagnostic result with ``converged=False``
    rather than raising.
    """
    config = config or SolverConfig()
    warnings: list[str] = []

    pre_own = {p.id: p.firm for p in problem.market.products if p.id != OUTSIDE}
    state0 = post_merger_state(problem, np.zeros(len(problem.order)))
    pre_res = _residual_from_state(problem, state0, pre_own)
    pre_norm = float(np.linalg.norm(pre_res, np.inf))
    if pre_norm > 1e-6:
        warnings.append(
            f"pre-merger data not self-consistent: FOC residual {pre_norm:.3e} at zero price change"
        )

    def solve(x0):
        return damped_newton(
            lambda x: foc_residual(problem, x), x0, lambda x: _margin_rescue(problem, x),
            config.tolerance, config.max_iterations, config.fd_step, config.lower_bound,
        )

    g = _guppi_warm_start(problem)
    x, f, its, ok = solve(g)

    unique = True
    if config.check_uniqueness and ok:
        for alt0 in (np.zeros_like(g), 2.0 * g):
            alt, _, _, alt_ok = solve(alt0)
            if alt_ok and float(np.linalg.norm(alt - x, np.inf)) > 1e-6:
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
    conditions imply from shares and eta."""

    gaps: dict[str, float]
    flagged: tuple[str, ...]
    threshold: float


def consistency_check(
    problem: SimulationProblem, threshold: float = 0.01
) -> ConsistencyReport:
    """Compare each supplied margin with the FOC-implied one (holding the other
    supplied margins fixed) under pre-merger ownership at zero price change."""
    pre_own = {p.id: p.firm for p in problem.market.products if p.id != OUTSIDE}
    state = post_merger_state(problem, np.zeros(len(problem.order)))
    gaps: dict[str, float] = {}
    flagged: list[str] = []
    for j in problem.order:
        eps = state.elasticities[j]
        cross = sum(
            problem.market.product(l).margin * state.diversion.get(j, l)
            for l in problem.order
            if l != j and pre_own[l] == pre_own[j]
        )
        implied = -1.0 / eps + (1.0 + 1.0 / eps) * cross
        gaps[j] = problem.market.product(j).margin - implied
        if abs(gaps[j]) > threshold:
            flagged.append(j)
    return ConsistencyReport(gaps, tuple(flagged), threshold)
