"""Merger pass-through for two single-product firms under CES demand.

The merging firms' post-merger pricing conditions f(p) = 0, in log prices,
respond to a small cost-like wedge t via the implicit function theorem:
M = -J^(-1), with J = df/dp at the pre-merger point. J is
``simulation._foc_jacobian``, the package's one derivative of the pricing
conditions, so this module only wires observables into it:

- the levels in J are observed: own-price elasticities implied by the
  margins (eps_jj = -1/m_j) and the supplied diversion pair D^R;
- the slopes come from eta and the one CES consumer's share row
  [a_j, a_k, 1 - a_j - a_k] that the diversion pair implies.

Scope is still two single-product firms with one representative consumer;
anything larger routes to the identity approximation upstream.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import ces
from .effects import PassThroughMatrix, own_price_elasticities, single_product_pair
from .errors import InputValidationError
from .market import DiversionMatrix, Market, MergerSpec, OUTSIDE
from .simulation import PostMergerState, _foc_jacobian


@dataclass(frozen=True)
class PassthroughInputs:
    """Everything the pass-through needs, for products j and k. The inside
    shares are not among them: the diversion pair fixes them
    (:func:`shares_from_diversion`)."""

    m_j: float
    m_k: float
    eps_jj: float
    eps_kk: float
    d_jk: float   # D_{j->k}^R
    d_kj: float   # D_{k->j}^R
    eta: float

    def __post_init__(self):
        bad = [f.name for f in fields(self) if not np.isfinite(getattr(self, f.name))]
        if bad:
            raise InputValidationError(f"pass-through inputs must be finite: {', '.join(bad)}")
        if not (0.0 <= self.m_j < 1.0 and 0.0 <= self.m_k < 1.0):
            raise InputValidationError("margins must lie in [0, 1)")
        if self.eps_jj >= -1.0 or self.eps_kk >= -1.0:
            raise InputValidationError("own-price elasticities must be < -1")
        if self.eta <= 1.0:
            raise InputValidationError("eta must be > 1")
        if self.d_jk < 0.0 or self.d_kj < 0.0:
            raise InputValidationError("diversion ratios must be non-negative")


def passthrough_matrix(
    inputs: PassthroughInputs, order: tuple[str, str] = ("j", "k")
) -> PassThroughMatrix:
    """M = -J^(-1), with J the Jacobian of the merged firm's pricing conditions
    at pdd = 0 (``simulation._foc_jacobian``): its levels are the observed
    margins, elasticities and diversion pair, its slopes those of one CES
    consumer with ``eta`` and the shares the diversion pair implies."""
    a_j, a_k = shares_from_diversion(inputs.d_jk, inputs.d_kj)
    alpha, wb = np.array([[a_j, a_k, 1.0 - a_j - a_k]]), np.ones(1)
    _, d_outside, (_, spend, den, pair) = ces._diversion_from_share_values(
        alpha, wb, (*order, OUTSIDE))
    state = PostMergerState(inputs.eta, wb, np.zeros(2), alpha,
                            np.array([inputs.eps_jj, inputs.eps_kk]),
                            np.array([[-1.0, inputs.d_jk], [inputs.d_kj, -1.0]]), d_outside,
                            np.array([inputs.m_j, inputs.m_k]), (spend, den, pair))
    try:
        with np.errstate(over="raise", invalid="raise"):
            jac = _foc_jacobian(state, ~np.eye(2, dtype=bool))
    except FloatingPointError as exc:
        raise InputValidationError(f"pass-through Jacobian not finite ({exc})") from None
    # det(J / max|J|) = det(J) / max|J|^2 for the 2x2 J, without overflowing the square
    peak = float(np.max(np.abs(jac)))
    det = float(np.linalg.det(jac / peak)) if peak > 0.0 else 0.0
    if abs(det) < 1e-8:
        raise InputValidationError(
            f"pass-through Jacobian singular (determinant {det:.3g} x max|J|^2)")
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
    if len(market.products) > 2:
        raise InputValidationError("ces pass-through supports two-firm markets only")
    d_jk = diversion.get(pj.id, pk.id)
    d_kj = diversion.get(pk.id, pj.id)
    alpha_j, alpha_k = shares_from_diversion(d_jk, d_kj)
    eps = own_price_elasticities(market, diversion, merger)
    eta = ces.identify_eta({pj.id: alpha_j, pk.id: alpha_k}, eps).eta
    inputs = PassthroughInputs(pj.margin, pk.margin, eps[pj.id], eps[pk.id], d_jk, d_kj, eta)
    return passthrough_matrix(inputs, (pj.id, pk.id))
