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
    """Demand-side arrays induced by a candidate price-change vector: shares
    per consumer (OUTSIDE last), and per inside product the quantity own-price
    elasticities, revenue diversion (with its outside column) and margins.
    The keyed views ``shares``, ``elasticities``, ``diversion`` and
    ``margins`` are built on first use."""

    problem: SimulationProblem
    alpha: np.ndarray
    eps: np.ndarray
    d: np.ndarray
    d_outside: np.ndarray
    m: np.ndarray

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
    u, wb, mask = econ._softmax_arrays("merger simulation")
    u_post = u.copy()
    u_post[:, : len(vec)] += (1.0 - econ.eta) * np.log1p(vec)
    alpha = ces._softmax_rows(u_post)
    d, d_outside = ces._diversion_from_share_values(alpha, wb, mask, econ.order)
    eps = ces._own_revenue_elasticity(alpha[:, : len(vec)], wb, econ.eta) - 1.0
    _, base, _, _ = problem._arrays
    m = 1.0 - base / (1.0 + vec)
    return PostMergerState(problem, alpha, eps, d, d_outside, m)


def _foc(eps: np.ndarray, d: np.ndarray, m: np.ndarray, co_owned: np.ndarray) -> np.ndarray:
    """Pricing conditions -1/eps_j - m_j + (1 + 1/eps_j) sum_l m_l D_jl, the sum
    over the products l that ``co_owned[j, l]`` marks as sharing j's owner."""
    return -1.0 / eps - m + pressure(eps, d, m, co_owned)


def foc_residual(problem: SimulationProblem, pdd) -> np.ndarray:
    """Stacked post-merger pricing conditions at a candidate ``pdd`` (one entry
    per inside product, ownership taken post-merger)."""
    s = post_merger_state(problem, pdd)
    *_, post = problem._arrays
    return _foc(s.eps, s.d, s.m, post)


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
    check_uniqueness: bool = True


def _gaps_and_warm_start(problem: SimulationProblem) -> tuple[np.ndarray, np.ndarray]:
    """From one evaluation at zero price change: the pre-merger margin gaps
    (supplied less FOC-implied margins under pre-merger ownership) and the
    generalized GUPPI of the ownership change, pressure from products newly
    co-owned with j plus j's own efficiency term c_j (1 - m_j) = base - (1 - m_j),
    zero for unchanged firms."""
    s = post_merger_state(problem, np.zeros(len(problem.order)))
    m0, base, pre, post = problem._arrays
    return -_foc(s.eps, s.d, m0, pre), pressure(s.eps, s.d, m0, post & ~pre) + base - (1.0 - m0)


def _margin_rescue(problem: SimulationProblem, x: np.ndarray) -> np.ndarray:
    """Half a step of the margin-form fixed point: towards the price changes
    at which each margin equals its FOC-implied value f(x) + m(x)."""
    s = post_merger_state(problem, x)
    _, base, _, post = problem._arrays
    implied = _foc(s.eps, s.d, s.m, post) + s.m
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

    gaps, g = _gaps_and_warm_start(problem)
    pre_norm = float(np.max(np.abs(gaps)))
    if pre_norm > 1e-6:
        warnings.append(
            f"pre-merger data not self-consistent: FOC residual {pre_norm:.3e} at zero price change"
        )

    def solve(x0):
        return damped_newton(
            lambda x: foc_residual(problem, x), x0, lambda x: _margin_rescue(problem, x),
            config.tolerance, config.max_iterations, lower_bound=LOWER_BOUND,
        )

    x, f, its, ok = solve(g)

    unique = True
    if config.check_uniqueness and ok:
        for alt0 in (np.zeros_like(g), 2.0 * g):
            try:
                alt, _, _, alt_ok = solve(alt0)
            except InputValidationError:  # undefined state at the start: a failed re-solve
                continue
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
    gaps = dict(zip(problem.order, _gaps_and_warm_start(problem)[0].tolist()))
    flagged = tuple(j for j, gap in gaps.items() if abs(gap) > threshold)
    return ConsistencyReport(gaps, flagged, threshold)
