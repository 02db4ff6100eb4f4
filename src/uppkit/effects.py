"""First-order merger screening statistics.

Everything here is computed from margins and revenue diversion ratios alone.
The own-price elasticity of demand is backed out of the Bertrand first-order
conditions,

    eps_jj = -(1 - sum_k m_k D_{j->k}^R) / (m_j - sum_k m_k D_{j->k}^R),

summing over the owner's other products, and then feeds the GUPPI, price
effect, welfare, and CMCR calculations. One kernel, ``_screen``, evaluates
them as arrays over the merging products; the public functions are keyed
views of it. Naive comparators (treating revenue diversion as quantity
diversion with equal prices) are provided to quantify the bias they introduce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .errors import ConvergenceError, InputValidationError
from .market import DiversionMatrix, Market, MergerSpec, Product, co_ownership


@dataclass(frozen=True)
class PassThroughMatrix:
    """Sensitivity of log equilibrium prices to cost-like shocks, aligned to
    ``order`` (the merging firms' products in market order)."""

    order: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1] or v.shape[0] != len(self.order):
            raise InputValidationError(f"pass-through matrix must be square over {len(self.order)} products")
        if not np.all(np.isfinite(v)):
            raise InputValidationError("pass-through matrix has non-finite entries")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def identity(cls, order) -> "PassThroughMatrix":
        return cls(tuple(order), np.eye(len(order)))


def merging_products(market: Market, merger: MergerSpec) -> list[str]:
    """The merging firms' product ids in market order."""
    both = {merger.firm_a, merger.firm_b}
    return [p.id for p in market.products if p.firm in both]


def single_product_pair(market: Market, merger: MergerSpec, message: str) -> tuple[Product, Product]:
    """The merging firms' products when each firm owns exactly one; otherwise
    raises ``InputValidationError(message)``."""
    a, b = (market.products_of(f) for f in (merger.firm_a, merger.firm_b))
    if len(a) != 1 or len(b) != 1:
        raise InputValidationError(message)
    return a[0], b[0]


def pressure(eps: np.ndarray, d: np.ndarray, m: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Upward pricing pressure (1 + 1/eps_j) sum_l m_l D_jl, the sum over the
    products l that ``mask[j, l]`` marks; row by row for stacked inputs."""
    return (1.0 + 1.0 / eps) * ((mask * d) @ m[..., None])[..., 0]


@dataclass(frozen=True)
class CmcrResult:
    """Compensating marginal cost reductions and the post-merger margins that
    generate them; ``condition_number`` diagnoses the linear system."""

    efficiencies: dict[str, float]   # cdd_j <= 0 per merging product
    post_margins: dict[str, float]
    condition_number: float


class _Screen(NamedTuple):
    """One merger's screening statistics as arrays over the merging products
    in market order: margins m, diversion block D, elasticities, naive GUPPI
    (rival∘D) m, its pressure (1 + 1/eps) naive, and GUPPI c(1 - m) + pressure."""

    order: tuple[str, ...]
    m: np.ndarray
    d: np.ndarray
    eps: np.ndarray
    naive: np.ndarray
    pressure: np.ndarray
    guppi: np.ndarray

    def keyed(self, values: np.ndarray) -> dict[str, float]:
        return dict(zip(self.order, values.tolist()))

    def cmcr(self) -> CmcrResult:
        """Post-merger margins m1 = solve(I - diag(1 + 1/eps)(post∘D), -1/eps),
        post-merger every pair co-owned, and the cost changes (m - m1)/(1 - m)."""
        a = -(1.0 + 1.0 / self.eps)[:, None] * self.d
        np.fill_diagonal(a, 1.0)
        cond = float(np.linalg.cond(a))
        if not np.isfinite(cond) or cond > 1e12:
            raise ConvergenceError(f"CMCR system singular (condition number {cond:.3g})")
        m1 = np.linalg.solve(a, -1.0 / self.eps)
        return CmcrResult(self.keyed((self.m - m1) / (1.0 - self.m)), self.keyed(m1), cond)


def _screen(market: Market, diversion: DiversionMatrix, merger: MergerSpec) -> _Screen:
    """Evaluate every screening statistic of ``merger`` but the CMCR, with D
    the diversion block of the merging products.

    A merger it cannot screen raises, naming the firm or product: a firm that
    merges with itself or owns no product, or an efficiency outside (-1, 0].
    The elasticities use the owner's sum S = (same∘D) m. One that would not
    be finite and in the elastic region (< -1) raises, naming the first such
    product, firm_a's first: the margins are then not consistent with Bertrand
    pricing (a subnormal margin overflows the elasticity to -inf).
    """
    if merger.firm_a == merger.firm_b:
        raise InputValidationError(f"firm {merger.firm_a}: cannot merge with itself")
    order = tuple(merging_products(market, merger))
    prods = [market.product(pid) for pid in order]
    firms = [p.firm for p in prods]
    for firm in (merger.firm_a, merger.firm_b):
        if firm not in firms:
            raise InputValidationError(f"firm {firm}: owns no product in the market")
    c = [merger.efficiency(pid) for pid in order]
    for pid, cj in zip(order, c):
        if not -1.0 < cj <= 0.0:  # NaN included
            raise InputValidationError(f"product {pid}: efficiency {cj} outside (-1, 0]")
    m = np.array([p.margin for p in prods])
    idx = np.array([diversion._pos[pid] for pid in order], dtype=int)
    d = diversion.values[idx[:, None], idx]
    is_a = np.array([f == merger.firm_a for f in firms], dtype=bool)
    s = (co_ownership(is_a) * d) @ m
    denom = m - s
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        eps = -(1.0 - s) / denom
    bad = np.flatnonzero((denom <= 0) | (eps >= -1.0) | ~np.isfinite(eps))
    if len(bad):
        j = bad[np.argmax(is_a[bad])]  # argmax: the first True, else index 0
        detail = (f"m_j - sum m_k D^R = {denom[j]:.6g} <= 0" if denom[j] <= 0
                  else f"implied elasticity {eps[j]:.6g} >= -1" if eps[j] >= -1.0
                  else f"implied elasticity {eps[j]:.6g} is not finite")
        raise InputValidationError(f"product {order[j]}: margins inconsistent with Bertrand FOC ({detail})")
    rival = is_a[:, None] != is_a
    push = pressure(eps, d, m, rival)
    return _Screen(order, m, d, eps, (rival * d) @ m, push, np.array(c) * (1.0 - m) + push)


def own_price_elasticities(
    market: Market, diversion: DiversionMatrix, merger: MergerSpec
) -> dict[str, float]:
    """Elasticities for every product of both merging firms."""
    s = _screen(market, diversion, merger)
    return s.keyed(s.eps)


def guppi(
    market: Market, diversion: DiversionMatrix, merger: MergerSpec
) -> dict[str, float]:
    """Gross upward pricing pressure index, as a fraction, per merging product.

    GUPPI_j = cdd_j (1 - m_j) + (1 + 1/eps_jj) * sum_{k in counterparty} m_k D_{j->k}^R,
    with the counterparty sum running over the other merging firm's products.
    """
    s = _screen(market, diversion, merger)
    return s.keyed(s.guppi)


def naive_guppi(
    market: Market, diversion: DiversionMatrix, merger: MergerSpec
) -> dict[str, float]:
    """Biased screen that treats revenue diversion as quantity diversion with
    equal prices: sum_k m_k D_{j->k}^R, no elasticity adjustment, no
    efficiency credit. Always >= the correct zero-credit GUPPI."""
    s = _screen(market, diversion, merger)
    return s.keyed(s.naive)


def price_effects(
    guppis: Mapping[str, float], passthrough: PassThroughMatrix
) -> dict[str, float]:
    """First-order percentage price changes: matrix-vector product of the
    pass-through matrix with the GUPPI vector."""
    if set(passthrough.order) != set(guppis):
        raise InputValidationError(
            f"pass-through order {passthrough.order} does not match GUPPI keys {sorted(guppis)}"
        )
    g = np.array([guppis[pid] for pid in passthrough.order])
    bad = [pid for pid, v in zip(passthrough.order, g) if not np.isfinite(v)]
    if bad:
        raise InputValidationError(f"GUPPI not finite for products {bad}")
    pdd = passthrough.values @ g
    return dict(zip(passthrough.order, pdd.tolist()))


@dataclass(frozen=True)
class WelfareReport:
    """Per-product first-order welfare effects and their totals, in the
    market's currency units.

    ``cs`` is the rectangle -pdd*R; ``cs_mid`` the trapezoid refinement
    -pdd*R*(1 + eps*pdd/2); ``cs_upper`` the bound -pdd*R*(1 + eps*pdd).
    For price rises below the demand choke the ordering
    cs < cs_mid < cs_upper < 0 holds.
    """

    cs: dict[str, float]
    cs_mid: dict[str, float]
    cs_upper: dict[str, float]
    ps: dict[str, float]
    total_cs: float
    total_ps: float
    currency: str = "USD"


def welfare(
    market: Market,
    price_changes: Mapping[str, float],
    merger: MergerSpec,
    eps: Mapping[str, float],
) -> WelfareReport:
    """First-order consumer/producer surplus changes from percentage price rises.

    dCS_j = -pdd_j R_j and
    dPS_j = (pdd_j - cdd_j (1 - m_j)) R_j (1 + eps_jj pdd_j) + eps_jj R_j pdd_j m_j,
    summed product by product (cross-price effects ignored by construction).
    """
    cs: dict[str, float] = {}
    cs_mid: dict[str, float] = {}
    cs_upper: dict[str, float] = {}
    ps: dict[str, float] = {}
    for pid, pdd in price_changes.items():
        p = market.product(pid)
        if not pdd > -1.0:  # NaN included
            raise InputValidationError(f"product {pid}: price change {pdd} must be > -1")
        e = eps[pid]
        if not e < -1.0:
            raise InputValidationError(f"product {pid}: elasticity {e} must be < -1")
        r = p.revenue
        cdd = merger.efficiency(pid)
        cs[pid] = -pdd * r
        cs_mid[pid] = -pdd * r * (1.0 + 0.5 * e * pdd)
        cs_upper[pid] = -pdd * r * (1.0 + e * pdd)
        ps[pid] = (pdd - cdd * (1.0 - p.margin)) * r * (1.0 + e * pdd) + e * r * pdd * p.margin
    return WelfareReport(
        cs, cs_mid, cs_upper, ps,
        total_cs=sum(cs.values()), total_ps=sum(ps.values()),
        currency=market.currency,
    )


def cmcr(
    market: Market, diversion: DiversionMatrix, merger: MergerSpec
) -> CmcrResult:
    """Percentage cost reductions that exactly offset post-merger upward
    pricing pressure at unchanged prices.

    Solves the post-merger pricing conditions, linear in the post-merger
    margins m^1 with elasticities and diversion held at pre-merger values:

        m^1_j - (1 + 1/eps_jj) * sum_{l != j, l merging} D_{j->l}^R m^1_l = -1/eps_jj,

    then maps margins to cost changes via cdd_j = (m^0_j - m^1_j)/(1 - m^0_j).
    """
    return _screen(market, diversion, merger).cmcr()


def naive_cmcr(
    market: Market, diversion: DiversionMatrix, merger: MergerSpec
) -> dict[str, float]:
    """Biased two-firm cost-reduction comparator: the classic single-product
    formula with revenue diversion ratios substituted for quantity diversion
    and relative prices set to one,

        (m_j D_jk D_kj + m_k D_jk) / ((1 - m_j)(1 - D_jk D_kj)).

    Only defined when both merging firms are single-product and
    D_jk D_kj < 1: at D_jk D_kj = 1 the two firms lose no sales to anyone else.
    """
    pj, pk = single_product_pair(market, merger,
                                 "naive CMCR is unsupported for multi-product merging firms")
    out: dict[str, float] = {}
    for j, k in ((pj, pk), (pk, pj)):
        d_jk = diversion.get(j.id, k.id)
        d_kj = diversion.get(k.id, j.id)
        if not d_jk * d_kj < 1.0:  # NaN included
            raise InputValidationError(
                f"naive CMCR undefined: D_jk x D_kj = {d_jk * d_kj:g} is not below 1")
        out[j.id] = (j.margin * d_jk * d_kj + k.margin * d_jk) / ((1.0 - j.margin) * (1.0 - d_jk * d_kj))
    return out


@dataclass(frozen=True)
class EffectsReport:
    """Complete first-order screening output for one merger."""

    order: tuple[str, ...]
    firms: dict[str, str]
    margins: dict[str, float]
    revenues: dict[str, float]
    elasticities: dict[str, float]
    guppi: dict[str, float]
    naive_guppi: dict[str, float]
    price_changes: dict[str, float]
    welfare: WelfareReport
    cmcr: CmcrResult
    naive_cmcr: dict[str, float] | None
    compensating_efficiencies: dict[str, float]
    passthrough: PassThroughMatrix
    passthrough_mode: str
    caveats: tuple[str, ...] = ()
    currency: str = "USD"

    def to_dict(self) -> dict:
        return {
            "products": [
                {
                    "id": pid,
                    "firm": self.firms[pid],
                    "margin": self.margins[pid],
                    "revenue": self.revenues[pid],
                    "elasticity": self.elasticities[pid],
                    "guppi": self.guppi[pid],
                    "naive_guppi": self.naive_guppi[pid],
                    "price_change": self.price_changes[pid],
                    "cs": self.welfare.cs[pid],
                    "cs_mid": self.welfare.cs_mid[pid],
                    "cs_upper": self.welfare.cs_upper[pid],
                    "ps": self.welfare.ps[pid],
                    "cmcr": self.cmcr.efficiencies[pid],
                    "post_merger_margin": self.cmcr.post_margins[pid],
                    "naive_cmcr": None if self.naive_cmcr is None else self.naive_cmcr[pid],
                    "compensating_efficiency": self.compensating_efficiencies[pid],
                }
                for pid in self.order
            ],
            "totals": {"cs": self.welfare.total_cs, "ps": self.welfare.total_ps},
            "passthrough": {
                "mode": self.passthrough_mode,
                "order": list(self.passthrough.order),
                "matrix": self.passthrough.values.tolist(),
            },
            "currency": self.currency,
            "caveats": list(self.caveats),
        }


def effects_report(
    market: Market,
    diversion: DiversionMatrix,
    merger: MergerSpec,
) -> EffectsReport:
    """Run the full first-order toolkit for one merger.

    The pass-through is the merger's configured mode. The "ces" mode only
    supports the two-single-product-firm case; anything larger falls back to
    the identity approximation with a caveat recorded on the report (a
    conservative default).
    """
    s = _screen(market, diversion, merger)
    order, eps, g = s.order, s.keyed(s.eps), s.keyed(s.guppi)

    caveats: list[str] = []
    mode = merger.passthrough_mode
    if mode == "matrix":
        passthrough = PassThroughMatrix(order, merger.passthrough)
    elif mode == "ces":
        from .passthrough import passthrough_matrix_from_market

        try:
            passthrough = passthrough_matrix_from_market(market, diversion, merger)
        except InputValidationError as exc:
            caveats.append(f"ces passthrough unavailable ({exc}); using identity")
            mode = "identity"
    if mode == "identity":
        passthrough = PassThroughMatrix.identity(order)
        caveats.append("identity pass-through: price effects approximated by GUPPI")
    elif mode not in ("matrix", "ces"):
        raise InputValidationError(f"unknown passthrough mode {mode!r}")

    pdd = price_effects(g, passthrough)
    wf = welfare(market, pdd, merger, eps)
    c = s.cmcr()
    if c.condition_number > 1e8:
        caveats.append(
            f"CMCR system ill-conditioned (condition number {c.condition_number:.3g})"
        )
    try:
        c_naive = naive_cmcr(market, diversion, merger)
    except InputValidationError:
        c_naive = None
    return EffectsReport(
        order=order,
        firms={pid: market.product(pid).firm for pid in order},
        margins=s.keyed(s.m),
        revenues={pid: market.product(pid).revenue for pid in order},
        elasticities=eps,
        guppi=g,
        naive_guppi=s.keyed(s.naive),
        price_changes=pdd,
        welfare=wf,
        cmcr=c,
        naive_cmcr=c_naive,
        compensating_efficiencies=s.keyed(s.pressure / (1.0 - s.m)),
        passthrough=passthrough,
        passthrough_mode=mode,
        caveats=tuple(caveats),
        currency=market.currency,
    )
