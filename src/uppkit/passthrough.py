"""Closed-form 2x2 merger pass-through under single-consumer CES demand.

The merging firms' post-merger pricing conditions, written in log prices as
h(p) = 0, respond to a small cost-like wedge t via the implicit function
theorem: M = -(dh/dp)^(-1) evaluated at the pre-merger point. With CES shares
every partial derivative of h has a closed form in (alpha, m, eps, D^R, eta),
so the matrix is computable from the same inputs as the GUPPIs.

Scope is deliberately the two-single-product-firm case with one
representative consumer; anything larger routes to the identity
approximation upstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ces import identify_eta
from .effects import PassThroughMatrix, own_price_elasticities, single_product_pair
from .errors import InputValidationError
from .market import DiversionMatrix, Market, MergerSpec, OUTSIDE


@dataclass(frozen=True)
class PassthroughInputs:
    """Everything the 2x2 closed form needs, for products j and k."""

    alpha_j: float
    alpha_k: float
    m_j: float
    m_k: float
    eps_jj: float
    eps_kk: float
    d_jk: float   # D_{j->k}^R
    d_kj: float   # D_{k->j}^R
    eta: float

    def __post_init__(self):
        if not (0.0 < self.alpha_j < 1.0 and 0.0 < self.alpha_k < 1.0):
            raise InputValidationError("shares must lie in (0, 1)")
        if self.alpha_j + self.alpha_k >= 1.0:
            raise InputValidationError("inside shares must sum below 1 (outside option required)")
        if self.eps_jj >= -1.0 or self.eps_kk >= -1.0:
            raise InputValidationError("own-price elasticities must be < -1")
        if self.eta <= 1.0:
            raise InputValidationError("eta must be > 1")
        if self.d_jk < 0.0 or self.d_kj < 0.0:
            raise InputValidationError("diversion ratios must be non-negative")


def _dh_row(alpha_j, alpha_k, m_j, m_k, eps_jj, d_jk, d_kj, eta):
    """(dh_j/dp_j, dh_j/dp_k) for one merging product's pricing condition.

    The diversion-response term alpha_j (1/D_kj - D_jk) D_jk is evaluated in
    the equivalent form ((1 - alpha_k) - alpha_j D_jk) D_jk, which stays
    defined as the diversion pair approaches zero.
    """
    q = (1.0 - eta) ** 2 / eps_jj**2
    own = -q * alpha_j * (1.0 - alpha_j) * (1.0 - m_k * d_jk) - (1.0 - m_j)
    cross = (
        q * alpha_k * alpha_j * (1.0 - m_k * d_jk)
        + (1.0 + 1.0 / eps_jj) * (1.0 - m_k) * d_jk
        + (1.0 + 1.0 / eps_jj) * m_k * (1.0 - eta) * d_jk * ((1.0 - alpha_k) - alpha_j * d_jk)
    )
    return own, cross


def passthrough_matrix(
    inputs: PassthroughInputs, order: tuple[str, str] = ("j", "k")
) -> PassThroughMatrix:
    """Assemble the 2x2 Jacobian of the merged firm's pricing conditions from
    its closed-form partials and return M = -J^(-1)."""
    jj, jk = _dh_row(
        inputs.alpha_j, inputs.alpha_k, inputs.m_j, inputs.m_k,
        inputs.eps_jj, inputs.d_jk, inputs.d_kj, inputs.eta,
    )
    kk, kj = _dh_row(
        inputs.alpha_k, inputs.alpha_j, inputs.m_k, inputs.m_j,
        inputs.eps_kk, inputs.d_kj, inputs.d_jk, inputs.eta,
    )
    jac = np.array([[jj, jk], [kj, kk]])
    det = float(np.linalg.det(jac))
    scale = float(np.max(np.abs(jac))) ** 2
    if abs(det) < 1e-8 * max(scale, 1e-300):
        raise InputValidationError(f"pass-through Jacobian singular (determinant {det:.3g})")
    return PassThroughMatrix(tuple(order), -np.linalg.inv(jac))


def shares_from_diversion(d_jk: float, d_kj: float) -> tuple[float, float]:
    """Invert the single-consumer relations D_{j->k}^R = alpha_k/(1 - alpha_j)
    and D_{k->j}^R = alpha_j/(1 - alpha_k) for the two inside shares."""
    denom = 1.0 - d_jk * d_kj
    if denom <= 0.0:
        raise InputValidationError(
            f"diversion pair ({d_jk}, {d_kj}) not consistent with interior shares"
        )
    alpha_j = d_kj * (1.0 - d_jk) / denom
    alpha_k = d_jk * (1.0 - alpha_j)
    if not (0.0 < alpha_j < 1.0 and 0.0 < alpha_k < 1.0 and alpha_j + alpha_k < 1.0):
        raise InputValidationError(
            f"diversion pair ({d_jk}, {d_kj}) implies shares outside (0, 1)"
        )
    return alpha_j, alpha_k


def passthrough_matrix_from_market(
    market: Market, diversion: DiversionMatrix, merger: MergerSpec
) -> PassThroughMatrix:
    """Everything from observables: shares recovered from the diversion pair,
    elasticities from margins, eta from the averaged share/elasticity relation."""
    pj, pk = single_product_pair(market, merger,
                                 "ces pass-through supports single-product merging firms only")
    if {p.id for p in market.products} - {pj.id, pk.id, OUTSIDE}:
        raise InputValidationError("ces pass-through supports two-firm markets only")
    d_jk = diversion.get(pj.id, pk.id)
    d_kj = diversion.get(pk.id, pj.id)
    alpha_j, alpha_k = shares_from_diversion(d_jk, d_kj)
    eps = own_price_elasticities(market, diversion, merger)
    eta = identify_eta({pj.id: alpha_j, pk.id: alpha_k}, eps).eta
    inputs = PassthroughInputs(
        alpha_j, alpha_k, pj.margin, pk.margin,
        eps[pj.id], eps[pk.id], d_jk, d_kj, eta,
    )
    return passthrough_matrix(inputs, (pj.id, pk.id))
