"""CES and nested-CES expenditure-share demand.

Consumers allocate budgets across consideration sets (always containing the
outside option) according to softmax expenditure shares in latent utility
indices. The aggregate objects (revenue diversion ratios, own-price revenue
elasticities, compensating variation) are weighted sums over consumers and
reduce to simple share formulas in the single-consumer case:

    D_{j->k}^R = alpha_k / (1 - alpha_j),
    eps_jj^R   = (1 - eta)(1 - alpha_j).

One :class:`CESEconomy` type carries optional ``nests`` and ``mu`` fields,
and one share function, :func:`shares` (also named :func:`nested_shares`),
gives its shares: two-level where the nests bind (mu < 1), the softmax
otherwise. Everything derived from the softmax refuses binding nests at one
gate, ``_softmax_arrays``. Off a consumer's consideration set its utility is
-inf, so its share is exactly 0.

The two-level kernel, :func:`_nested_share_rows`, runs on the considered
(consumer, product) pairs of a :class:`PairLayout`, not on a dense block:
consideration sets are sparse (85% of the fitter's 1000x100 benchmark grid
is off them), and ``exp`` of a -inf or underflowing argument takes numpy's
slow path, several times the cost of a finite one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import InputValidationError
from .market import OUTSIDE, DiversionMatrix, as_float, as_mapping, read_json


@dataclass(frozen=True)
class Consumer:
    """One consumer (or consumer segment): budget, measure weight, and latent
    utility index per considered product. The outside option is always
    considered; its utility is conventionally 0."""

    id: str
    budget: float
    utilities: Mapping[str, float]
    weight: float = 1.0

    def __post_init__(self):
        u = dict(self.utilities)
        u.setdefault(OUTSIDE, 0.0)
        object.__setattr__(self, "utilities", u)


def _product_order(consumers: Sequence[Consumer]) -> tuple[str, ...]:
    seen: dict[str, None] = {}
    for c in consumers:
        for pid in c.utilities:
            if pid != OUTSIDE:
                seen.setdefault(pid, None)
    return tuple(seen) + (OUTSIDE,)


@dataclass(frozen=True)
class CESEconomy:
    """Consumers plus the substitution elasticity eta > 1, and optionally a
    two-level nest structure: ``nests`` labels each inside product, ``mu`` in
    (0, 1] is the common nesting parameter, and the outside option is its own
    nest with mu = 1. Without nests, or at mu = 1, the shares are plain CES."""

    consumers: tuple[Consumer, ...]
    eta: float
    nests: Mapping[str, str] = field(default_factory=dict)
    mu: float = 1.0

    def __post_init__(self):
        if not self.consumers:
            raise InputValidationError("economy has no consumers")
        if not 1.0 < self.eta < np.inf:
            raise InputValidationError(f"eta must be finite and > 1, got {self.eta}")
        for c in self.consumers:
            if not np.isfinite(c.budget) or c.budget < 0:
                raise InputValidationError(f"consumer {c.id}: budget {c.budget} must be >= 0")
            if not np.isfinite(c.weight) or c.weight < 0:
                raise InputValidationError(f"consumer {c.id}: weight {c.weight} must be >= 0")
            if not np.isfinite(float(c.weight) * float(c.budget)):
                raise InputValidationError(f"consumer {c.id}: weight x budget overflows")
            if not np.all(np.isfinite(list(c.utilities.values()))):
                raise InputValidationError(f"consumer {c.id}: utilities must be finite")
        if not any(c.weight > 0 for c in self.consumers):
            raise InputValidationError("all consumer weights are zero")
        total = sum(float(c.weight) * float(c.budget) for c in self.consumers)
        if not np.isfinite((float(self.eta) - 1.0) * total):  # (1 - eta) x spending stays finite
            raise InputValidationError("(eta - 1) x total weight x budget overflows")
        if not 0.0 < self.mu <= 1.0:
            raise InputValidationError(f"mu must be in (0, 1], got {self.mu}")
        object.__setattr__(self, "nests", dict(self.nests))
        if self.nests or self.mu < 1.0:
            for pid in self.order[:-1]:
                if pid not in self.nests:
                    raise InputValidationError(f"product {pid} has no nest label")

    @cached_property
    def order(self) -> tuple[str, ...]:
        """Inside products in first-appearance order, then OUTSIDE last."""
        return _product_order(self.consumers)

    @cached_property
    def _dense(self) -> tuple[np.ndarray, np.ndarray]:
        """(utilities with -inf off-consideration, weight*budget vector)."""
        pos = {pid: k for k, pid in enumerate(self.order)}
        n, m = len(self.consumers), len(self.order)
        u = np.full((n, m), -np.inf)
        wb = np.empty(n)
        for i, c in enumerate(self.consumers):
            wb[i] = c.weight * c.budget
            for pid, val in c.utilities.items():
                u[i, pos[pid]] = val
        return u, wb

    def _softmax_arrays(self, what: str) -> tuple[np.ndarray, np.ndarray]:
        """``_dense`` for ``what``, a formula derived from the softmax shares:
        the plain-CES gate, which refuses it while the nests bind (mu < 1)."""
        if self.mu < 1.0:
            raise InputValidationError(
                f"{what} assumes plain CES shares; nested economy with mu = {self.mu} < 1")
        return self._dense


@dataclass(frozen=True)
class ShareTable:
    """Expenditure shares per consumer x product; rows sum to one over each
    consumer's consideration set, zeros elsewhere."""

    consumer_ids: tuple[str, ...]
    order: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "_cpos", {cid: i for i, cid in enumerate(self.consumer_ids)})
        object.__setattr__(self, "_ppos", {pid: k for k, pid in enumerate(self.order)})

    def share(self, consumer_id: str, product_id: str) -> float:
        return float(self.values[self._cpos[consumer_id], self._ppos[product_id]])

    def consumer_shares(self, consumer_id: str) -> dict[str, float]:
        i = self._cpos[consumer_id]
        return {pid: float(self.values[i, k]) for k, pid in enumerate(self.order)
                if self.values[i, k] > 0.0}


def _softmax_rows(u: np.ndarray) -> np.ndarray:
    # max-subtraction keeps exp() in range for |u| up to ~700; exp(-inf) is exactly 0;
    # in place on one new array, so a block of many rows holds one copy of itself
    z = u - np.max(u, axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def _logsumexp_rows(u: np.ndarray) -> np.ndarray:
    """log sum_k exp(u_ik) per row; each row needs one finite entry."""
    m = np.max(u, axis=1)
    return m + np.log(np.exp(u - m[:, None]).sum(axis=1))


def _nest_columns(labels: Sequence[str]) -> list[list[int]]:
    """Kernel column groups for per-product nest labels, in first-appearance
    order, then the outside option (column ``len(labels)``) as its own nest."""
    names = dict.fromkeys(labels)
    return [[k for k, lab in enumerate(labels) if lab == b] for b in names] + [[len(labels)]]


class PairLayout(NamedTuple):
    """The considered (consumer, product) pairs of an (n_rows, n_cols) block,
    ordered by (consumer, nest, product). Pair p is ``(rows[p], cols[p])`` and
    lies in segment ``seg[p]``; segment s, one consumer's members of one nest,
    starts at pair ``starts[s]`` and belongs to consumer ``seg_rows[s]`` and
    nest ``seg_nests[s]``. The last of the ``n_nests`` nests is the outside
    option's."""

    rows: np.ndarray
    cols: np.ndarray
    seg: np.ndarray
    starts: np.ndarray
    seg_rows: np.ndarray
    seg_nests: np.ndarray
    n_rows: int
    n_cols: int
    n_nests: int


def _pair_layout(considered: np.ndarray, groups: Sequence[Sequence[int]]) -> PairLayout:
    """The pairs where ``considered`` (n_rows, n_cols) is true, for the nest
    column groups of :func:`_nest_columns`. With the columns permuted nest by
    nest, the row-major nonzeros are the pairs already in (consumer, nest,
    product) order, so no sort is needed."""
    perm = np.concatenate(groups)
    nest_of = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    rows, k = np.divmod(np.flatnonzero(considered[:, perm]), len(perm))
    nests = nest_of[k]
    first = np.diff(rows * len(groups) + nests, prepend=-1) != 0  # opens a segment
    starts = np.flatnonzero(first)
    return PairLayout(rows, perm[k], np.cumsum(first) - 1, starts, rows[starts], nests[starts],
                      *considered.shape, len(groups))


def _nested_share_rows(u: np.ndarray, pairs: PairLayout, mu: float) -> np.ndarray:
    """Two-level shares on the considered pairs, given their utilities ``u``.

    Within nest b of :func:`_nest_columns`: softmax of u/mu over that consumer's
    members; nest chosen by softmax of mu * I_b where I_b is the nest's
    inclusive value. The outside option's own nest has mu = 1, but a one-member
    nest's shares do not depend on its mu. Max, exp, sum and I_b run per segment;
    only the (consumers x nests) nest logits are dense, -inf where a consumer has
    no member of a nest. Every consumer needs one pair (the outside option).
    """
    v = u / mu
    top = np.maximum.reduceat(v, pairs.starts)
    z = np.exp(v - top[pairs.seg])
    total = np.add.reduceat(z, pairs.starts)
    logits = np.full((pairs.n_rows, pairs.n_nests), -np.inf)
    logits[pairs.seg_rows, pairs.seg_nests] = mu * (top + np.log(total))
    nest_share = _softmax_rows(logits)[pairs.seg_rows, pairs.seg_nests]
    return z * (nest_share / total)[pairs.seg]


def shares(economy: CESEconomy) -> ShareTable:
    """The economy's own shares. Where the nests bind (mu < 1), two-level:
    within-nest softmax of u/mu, nest chosen by softmax of mu times the nest's
    inclusive value; otherwise (no nests, or mu = 1) the softmax."""
    u, _ = economy._dense
    if economy.mu < 1.0:
        pairs = _pair_layout(np.isfinite(u), _nest_columns(
            [economy.nests[pid] for pid in economy.order[:-1]]))
        alpha = np.zeros_like(u)
        alpha[pairs.rows, pairs.cols] = _nested_share_rows(
            u[pairs.rows, pairs.cols], pairs, economy.mu)
    else:
        alpha = _softmax_rows(u)
    return ShareTable(tuple(c.id for c in economy.consumers), economy.order, alpha)


nested_shares = shares


def _invert(cid: str, sh: Mapping[str, float]) -> dict[str, float]:
    """Softmax inversion of one consumer's shares: u_j = log a_j - log a_OUTSIDE."""
    if OUTSIDE not in sh:
        raise InputValidationError(f"consumer {cid}: shares must include {OUTSIDE}")
    total = sum(sh.values())
    if abs(total - 1.0) > 1e-6:
        raise InputValidationError(f"consumer {cid}: shares sum to {total:.8f}, not 1")
    a0 = sh[OUTSIDE]
    if a0 <= 0.0 or any(v <= 0.0 for v in sh.values()):
        raise InputValidationError(f"consumer {cid}: inversion requires interior shares")
    return {pid: float(np.log(v) - np.log(a0)) for pid, v in sh.items()}


def economy_from_shares(
    share_map: Mapping[str, Mapping[str, float]], budgets: Mapping[str, float], eta: float,
) -> CESEconomy:
    """Build an economy of unit-weight consumers from observed expenditure
    shares by softmax inversion."""
    return CESEconomy(tuple(Consumer(cid, float(budgets[cid]), _invert(cid, sh))
                            for cid, sh in share_map.items()), eta)


# ---------------------------------------------------------------------------
# Aggregate demand objects
# ---------------------------------------------------------------------------

def revenues(economy: CESEconomy) -> dict[str, float]:
    """Model revenue per product: R_j = sum_i weight_i * alpha_ij * B_i (:func:`shares`)."""
    _, wb = economy._dense
    r = wb @ shares(economy).values
    return {pid: float(r[k]) for k, pid in enumerate(economy.order)}


_TINY = np.finfo(float).tiny  # smallest normal float
_FLOAT_MAX = np.finfo(float).max


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose of a matrix or of each matrix in a stack."""
    return np.swapaxes(a, -1, -2)


def _diversion_from_share_values(alpha: np.ndarray, wb: np.ndarray, order: Sequence[str]):
    """Revenue diversion ``(values, outside, moments)`` from a dense share block,
    or from a stack of them (a leading batch axis on every output).

    Row j: numerator P_jk = sum_i wb_i a_ij a_ik, denominator den_j = sum_i
    wb_i a_ij (1 - a_ij); shares are zero off consideration sets, so only
    shoppers of both j and k count, and the common per-consumer slope factor
    cancels between the two. ``moments`` is ``(S, den, P)``, the layout
    :class:`PostMergerState` stores: the inside spending S_j = sum_i wb_i a_ij,
    den, and P with the outside column last. A den below the smallest normal
    float is refused, naming its cause: no consumer with positive weight x
    budget holds an interior share of j, or else the spending moments underflow.
    """
    n = len(order) - 1  # OUTSIDE is last
    inside = alpha[..., :n]
    slope = 1.0 - inside
    slope *= inside  # a_ij (1 - a_ij); freed before wb_i a_ij is formed: one block at a time
    den = wb @ slope
    del slope
    spend = wb @ inside
    if den.min(initial=np.inf) < _TINY:
        held = ((wb[:, None] > 0.0) & (inside > 0.0) & (inside < 1.0)).any(axis=-2)
        why, bad = (("that no consumer with positive weight x budget holds at an interior share",
                     ~held) if not held.all() else
                    ("whose spending moments underflow", den < _TINY))
        bad = bad.reshape(-1, n).any(axis=0)
        raise InputValidationError(
            f"diversion undefined for products {why}: {[order[j] for j in np.flatnonzero(bad)]}")
    pair = _t(wb[:, None] * inside) @ alpha
    full = pair / den[..., None]
    np.einsum("...jj->...j", full[..., :n])[...] = -1.0
    return full[..., :n], full[..., n], (spend, den, pair)


def _revenue_elasticity(eta: float, moments: tuple[np.ndarray, ...]) -> np.ndarray:
    """Own-price revenue elasticities (1 - eta) den_j / S_j from the kernel's ``moments``."""
    spend, den, _ = moments
    return (1.0 - eta) * den / spend


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


def _foc_jacobian(s: PostMergerState, co_owned: np.ndarray) -> np.ndarray:
    """d f / d pdd of the pricing conditions at the state ``s``, stacked for a
    batched state. Spending so small that (eta - 1) / S_j overflows is refused.

    With L_q = log(1 + pdd_q), b = 1 - eta and w_i = weight_i * budget_i, the softmax gives

        d alpha_ik / d L_q = b alpha_ik (delta_kq - alpha_iq),
        d m_j / d L_q      = delta_jq (1 - m_j),

    so the conditions differentiate into the diversion kernel's moments (S, den, P)
    (den_j = S_j - P_jj, D_jk = P_jk / den_j) and T_jkq = sum_i w_i a_ij a_ik a_iq.
    With co_jk = 1 when k != j shares j's post-merger owner, the co-owned
    pressure C_j = sum_k co_jk m_k D_jk and G_jq = sum_k co_jk m_k T_jkq, only
    T_jjq and G are formed, never a pair (j, k). The pricing condition is
    f_j = -1/eps_j - m_j + (1 + 1/eps_j) C_j with eps_j = b den_j / S_j - 1;
    with dX_j standing for d X_j / d L_q:

        dS_j   = b (delta_jq S_j - P_jq)
        dden_j = b (delta_jq (2 den_j - S_j) - P_jq + 2 T_jjq)
        deps_j = (b / S_j) (dden_j - (den_j / S_j) dS_j)
        dC_j   = co_jq D_jq (1 - m_q + b m_q) + b delta_jq C_j
                 - (2 b G_jq + C_j dden_j) / den_j
        df_j   = (1 - C_j) deps_j / eps_j^2 - delta_jq (1 - m_j) + (1 + 1/eps_j) dC_j

    Column q of d f / d pdd is then column q of df divided by 1 + pdd_q.
    """
    b = 1.0 - s.eta
    n = s.m.shape[-1]
    a = s.alpha[..., :n]
    spend, den, pair = s.moments
    if spend.min() < -b / _FLOAT_MAX:
        raise InputValidationError("pricing-condition Jacobian overflows: (eta - 1) / spending")
    wa = s.wb[:, None] * a  # w_i a_ij, as the diversion kernel forms it
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


def revenue_diversion(economy: CESEconomy) -> DiversionMatrix:
    """Revenue diversion ratios implied by the softmax shares: the weighted
    sum over consumers of individual expenditure diversion a_ik/(1 - a_ij),
    with weights proportional to a_ij (1 - a_ij) B_i. Rows sum to one over all
    alternatives including the outside column (fixed-budget property)."""
    u, wb = economy._softmax_arrays("revenue diversion")
    values, outside, _ = _diversion_from_share_values(_softmax_rows(u), wb, economy.order)
    return DiversionMatrix(economy.order[:-1], values, outside)


def own_price_revenue_elasticity(economy: CESEconomy) -> dict[str, float]:
    """Own-price elasticity of revenue per product:
    (1 - eta) * sum_i wbar_ij (1 - a_ij), shopper-weighted by a_ij B_i, that is
    (1 - eta) den_j / S_j from the diversion kernel's moments (refused where
    :func:`revenue_diversion` is)."""
    u, wb = economy._softmax_arrays("own-price elasticity")
    _, _, moments = _diversion_from_share_values(_softmax_rows(u), wb, economy.order)
    return dict(zip(economy.order[:-1], _revenue_elasticity(economy.eta, moments).tolist()))


def own_price_elasticity_of_demand(economy: CESEconomy) -> dict[str, float]:
    """Quantity-side own-price elasticities, eps_jj = eps_jj^R - 1."""
    return {pid: v - 1.0 for pid, v in own_price_revenue_elasticity(economy).items()}


@dataclass(frozen=True)
class EtaIdentification:
    """Elasticity-of-substitution estimate with over-identification diagnostics."""

    per_product: dict[str, float]
    eta: float
    spread: float
    inconsistent: bool


#: Spread of the per-product eta estimates above which they count as inconsistent.
ETA_SPREAD_WARNING = 1.0


def identify_eta(share_map: Mapping[str, float], eps: Mapping[str, float]) -> EtaIdentification:
    """Back out eta per product from eta = 1 - (1 + eps_jj)/(1 - alpha_j) and
    average. ``share_map`` holds aggregate expenditure shares; products in
    ``eps`` must appear in it. A spread above ``ETA_SPREAD_WARNING`` sets the
    ``inconsistent`` flag."""
    per: dict[str, float] = {}
    for pid, e in eps.items():
        a = share_map[pid]
        if not a < 1.0:  # NaN included
            raise InputValidationError(f"product {pid}: share {a} must be < 1 to identify eta")
        if not np.isfinite(e):
            raise InputValidationError(f"product {pid}: elasticity {e} must be finite")
        per[pid] = 1.0 - (1.0 + e) / (1.0 - a)
    vals = list(per.values())
    spread = max(vals) - min(vals) if len(vals) > 1 else 0.0
    return EtaIdentification(per, float(np.mean(vals)), spread, spread > ETA_SPREAD_WARNING)


def second_choice_diversion(economy: CESEconomy, removed: str) -> dict[str, float]:
    """Revenue diversion from removing one product from all consideration sets:
    each surviving alternative's revenue gain divided by the removed product's
    lost revenue. With one consumer under CES this equals the marginal
    (price-based) diversion; across heterogeneous consumers the two weight
    consumers differently (a B against a (1 - a) B) and part."""
    u, wb = economy._softmax_arrays("second-choice diversion")
    if removed == OUTSIDE:
        raise InputValidationError("cannot remove the outside option")
    if removed not in economy.order:
        raise InputValidationError(f"product {removed!r} is in no consideration set")
    k = economy.order.index(removed)
    pre = _softmax_rows(u)
    u_post = u.copy()
    u_post[:, k] = -np.inf
    post = _softmax_rows(u_post)
    loss = float(np.sum(wb * pre[:, k]))
    if loss <= 0.0:
        raise InputValidationError(
            f"second-choice diversion undefined for product {removed!r}: no consumer spends on it"
        )
    gains = wb @ (post - pre)
    return {
        pid: float(gains[q] / loss)
        for q, pid in enumerate(economy.order)
        if pid != removed
    }


@dataclass(frozen=True)
class CompensatingVariation:
    """Exact CES compensation for a vector of percentage price changes."""

    per_consumer: dict[str, float]
    total: float


def compensating_variation(
    economy: CESEconomy, price_changes: Mapping[str, float]
) -> CompensatingVariation:
    """Budget adjustment that restores each consumer's pre-change utility:

        CV_i = B_i * (1 - (sum_k exp u0_ik / sum_k exp u1_ik)^(1/(1-eta))),

    with u1_ij = u0_ij + (1 - eta) log(1 + pdd_j) and the outside option
    unaffected. Positive for price increases."""
    eta = economy.eta
    u0, _ = economy._softmax_arrays("compensating variation")
    bump = np.zeros(len(economy.order))
    for pid, pdd in price_changes.items():
        if pid == OUTSIDE:
            if pdd != 0.0:
                raise InputValidationError("outside option price change must be 0")
            continue
        if pid not in economy.order:
            raise InputValidationError(f"price change for unknown product {pid!r}")
        if not (np.isfinite(pdd) and pdd > -1.0):
            raise InputValidationError(f"product {pid}: price change {pdd} must be finite and > -1")
        bump[economy.order.index(pid)] = (1.0 - eta) * np.log1p(pdd)
    u1 = u0 + bump[None, :]
    log_s0 = _logsumexp_rows(u0)
    log_s1 = _logsumexp_rows(u1)
    ratio = np.exp((log_s0 - log_s1) / (1.0 - eta))
    per = {}
    total = 0.0
    for i, c in enumerate(economy.consumers):
        cv = float(c.budget * (1.0 - ratio[i]))
        per[c.id] = cv
        total += c.weight * cv
    return CompensatingVariation(per, total)


# ---------------------------------------------------------------------------
# Economy file format
# ---------------------------------------------------------------------------

def economy_from_dict(doc: Mapping, where: str = "economy") -> CESEconomy:
    """Parse the economy JSON document. Consumers give either ``shares`` or
    ``utilities`` (mutually exclusive); an optional ``nests`` map plus ``mu``
    gives the economy its nests. Shares are inverted with the softmax, so they
    are refused where the nests bind (mu < 1)."""
    if "eta" not in doc:
        raise InputValidationError(f"{where}: missing field 'eta'")
    eta = as_float(doc["eta"], "eta", where)
    rows = doc.get("consumers")
    if not isinstance(rows, list) or not rows:
        raise InputValidationError(f"{where}: no consumers")
    consumers = []
    for idx, rec in enumerate(rows):
        rec = as_mapping(rec, f"consumers[{idx}]", where)
        w = f"{where}: consumers[{idx}]"
        cid = str(rec.get("id", idx))
        budget = as_float(rec.get("budget", 0.0), "budget", w)
        weight = as_float(rec.get("weight", 1.0), "weight", w)
        has_shares, has_utils = "shares" in rec, "utilities" in rec
        if has_shares == has_utils:
            raise InputValidationError(f"{w}: give exactly one of 'shares' or 'utilities'")
        key = "utilities" if has_utils else "shares"
        values = {str(k): as_float(v, f"{key}[{k}]", w)
                  for k, v in as_mapping(rec[key], key, w).items()}
        utilities = values if has_utils else _invert(cid, values)
        consumers.append(Consumer(cid, budget, utilities, weight))
    nests = {}
    if doc.get("nests"):
        nests = {str(k): str(v) for k, v in as_mapping(doc["nests"], "nests", where).items()}
    mu = as_float(doc.get("mu", 1.0), "mu", where)  # mu < 1 without nests is refused
    economy = CESEconomy(tuple(consumers), eta, nests, mu)
    if any("shares" in rec for rec in rows):
        economy._softmax_arrays(f"{where}: inverting consumer 'shares'")
    return economy


def load_economy(path: str | Path) -> CESEconomy:
    return economy_from_dict(read_json(path), where=str(path))
