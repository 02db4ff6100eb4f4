"""CES merger pass-through vs two oracles: the implicit-function derivative of
a re-solved taxed pricing system, and the hand-derived 2x2 closed form."""

import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from uppkit import effects
from uppkit.errors import InputValidationError
from uppkit.passthrough import (
    PassthroughInputs,
    passthrough_matrix,
    passthrough_matrix_from_market,
    shares_from_diversion,
)

STAPLES_SHARES = (0.473, 0.316)
STAPLES = dict(
    m_j=0.258, m_k=0.234,
    eps_jj=-1.0 / 0.258, eps_kk=-1.0 / 0.234,
    d_jk=0.316 / 0.527, d_kj=0.473 / 0.684,
    eta=6.121535812935443,
)

VANISHING = dict(
    m_j=0.3, m_k=0.3, eps_jj=-3.0, eps_kk=-3.0, d_jk=1e-9, d_kj=1e-9, eta=4.0,
)


def consistent_inputs(rng):
    """Draw (alpha, m, eta) and derive the elasticities/diversion a single
    representative CES consumer implies, so the closed form's premises hold.
    The shares themselves are not inputs: the diversion pair fixes them."""
    alpha_j = rng.uniform(0.1, 0.6)
    alpha_k = rng.uniform(0.1, min(0.98 - alpha_j, 0.6))
    eta = rng.uniform(2.5, 8.0)
    m_j = rng.uniform(0.1, 0.6)
    m_k = rng.uniform(0.1, 0.6)
    return PassthroughInputs(
        m_j=m_j, m_k=m_k,
        eps_jj=(1.0 - eta) * (1.0 - alpha_j) - 1.0,
        eps_kk=(1.0 - eta) * (1.0 - alpha_k) - 1.0,
        d_jk=alpha_k / (1.0 - alpha_j),
        d_kj=alpha_j / (1.0 - alpha_k),
        eta=eta,
    )


def pair_shares(inputs: PassthroughInputs) -> tuple[float, float]:
    """The one consumer's inside shares, solved from D_jk = alpha_k / (1 - alpha_j)
    and D_kj = alpha_j / (1 - alpha_k)."""
    alpha_j = inputs.d_kj * (1.0 - inputs.d_jk) / (1.0 - inputs.d_jk * inputs.d_kj)
    return alpha_j, inputs.d_jk * (1.0 - alpha_j)


def oracle_passthrough(inputs: PassthroughInputs, step: float = 1e-6) -> np.ndarray:
    """Numeric dp~/dt~ from re-solving the taxed pricing system h(p~) + t~ = c.

    Independent of the closed form: the two merging products' pricing
    conditions are evaluated on the underlying single-consumer CES economy as
    functions of log prices, and the implicit function differentiated by
    central differences.
    """
    eta = inputs.eta
    shares = np.array(pair_shares(inputs))
    u0 = np.log(shares / (1.0 - shares.sum()))  # outside at 0
    m0 = np.array([inputs.m_j, inputs.m_k])

    def h(logp: np.ndarray) -> np.ndarray:
        u = u0 + (1.0 - eta) * logp
        z = np.exp(u)
        alpha = z / (1.0 + z.sum())
        eps = (1.0 - eta) * (1.0 - alpha) - 1.0
        m = 1.0 - (1.0 - m0) * np.exp(-logp)
        d_jk = alpha[1] / (1.0 - alpha[0])
        d_kj = alpha[0] / (1.0 - alpha[1])
        return np.array([
            -1.0 / eps[0] - m[0] + (1.0 + 1.0 / eps[0]) * m[1] * d_jk,
            -1.0 / eps[1] - m[1] + (1.0 + 1.0 / eps[1]) * m[0] * d_kj,
        ])

    c0 = h(np.zeros(2))

    def solve_for_tax(t: np.ndarray) -> np.ndarray:
        logp = np.zeros(2)
        for _ in range(60):
            res = h(logp) + t - c0
            if np.max(np.abs(res)) < 1e-13:
                break
            jac = np.empty((2, 2))
            fd = 1e-7
            for k in range(2):
                up, dn = logp.copy(), logp.copy()
                up[k] += fd
                dn[k] -= fd
                jac[:, k] = (h(up) - h(dn)) / (2 * fd)
            logp = logp + np.linalg.solve(jac, -res)
        return logp

    cols = []
    for k in range(2):
        t = np.zeros(2)
        t[k] = step
        up = solve_for_tax(t)
        t[k] = -step
        dn = solve_for_tax(t)
        cols.append((up - dn) / (2 * step))
    return np.column_stack(cols)


def closed_form_passthrough(inputs: PassthroughInputs) -> np.ndarray:
    """M = -J^(-1) from hand-derived partials of the two pricing conditions.

    Independent of ``simulation``'s Jacobian: each row (dh_j/dp_j, dh_j/dp_k)
    is written out in (alpha, m, eps, D^R, eta), with the single consumer's
    share slopes and the observed eps and D^R as levels. The diversion-response
    term alpha_j (1/D_kj - D_jk) D_jk is evaluated in the equivalent form
    ((1 - alpha_k) - alpha_j D_jk) D_jk, which stays defined as the diversion
    pair approaches zero.
    """
    eta = inputs.eta

    def row(alpha_j, alpha_k, m_j, m_k, eps_jj, d_jk):
        q = (1.0 - eta) ** 2 / eps_jj**2
        own = -q * alpha_j * (1.0 - alpha_j) * (1.0 - m_k * d_jk) - (1.0 - m_j)
        cross = (
            q * alpha_k * alpha_j * (1.0 - m_k * d_jk)
            + (1.0 + 1.0 / eps_jj) * (1.0 - m_k) * d_jk
            + (1.0 + 1.0 / eps_jj) * m_k * (1.0 - eta) * d_jk
            * ((1.0 - alpha_k) - alpha_j * d_jk)
        )
        return own, cross

    alpha_j, alpha_k = pair_shares(inputs)
    jj, jk = row(alpha_j, alpha_k, inputs.m_j, inputs.m_k, inputs.eps_jj, inputs.d_jk)
    kk, kj = row(alpha_k, alpha_j, inputs.m_k, inputs.m_j, inputs.eps_kk, inputs.d_kj)
    return -np.linalg.inv(np.array([[jj, jk], [kj, kk]]))


def perturbed_inputs(seed: int) -> PassthroughInputs:
    """A consistent draw whose elasticities are moved off the values its
    economy implies, so the observed levels and the economy's slopes disagree.
    D^R cannot be moved: it fixes the shares."""
    base = consistent_inputs(np.random.default_rng(seed))
    f = np.random.default_rng(1000 + seed).uniform(0.8, 1.25, size=2)
    return replace(base, eps_jj=base.eps_jj * f[0], eps_kk=base.eps_kk * f[1])


CLOSED_FORM_CASES = (
    [pytest.param(consistent_inputs(np.random.default_rng(s)), id=f"consistent-{s}")
     for s in range(100)]
    + [pytest.param(PassthroughInputs(**STAPLES), id="staples"),
       pytest.param(PassthroughInputs(**VANISHING), id="vanishing")]
    + [pytest.param(perturbed_inputs(s), id=f"perturbed-{s}") for s in range(5)]
)


class TestClosedForm:
    def test_staples_matrix(self):
        """Reproduces [[1.005, 0.345], [0.347, 1.098]] entrywise to 5e-3."""
        m = passthrough_matrix(PassthroughInputs(**STAPLES)).values
        expected = np.array([[1.005, 0.345], [0.347, 1.098]])
        np.testing.assert_allclose(m, expected, atol=5e-3)

    def test_staples_diagonal_dominance(self):
        m = passthrough_matrix(PassthroughInputs(**STAPLES)).values
        assert m[0, 0] > m[0, 1] > 0.0
        assert m[1, 1] > m[1, 0] > 0.0

    def test_vanishing_interaction(self):
        """As the rival's share (hence both diversion ratios) goes to zero the
        off-diagonals die out and the row decouples."""
        m = passthrough_matrix(PassthroughInputs(**VANISHING)).values
        assert abs(m[0, 1]) < 1e-8
        assert abs(m[1, 0]) < 1e-8
        assert m[0, 0] == pytest.approx(1.0 / 0.7, rel=1e-6)  # 1/(1 - m_j)

    def test_consistent_staples_like_inputs_against_oracle(self):
        """At the reported shares and eta with FOC-consistent margins (the
        setting where the taxed system has an underlying economy), the closed
        form agrees with the numeric derivative to 1e-4."""
        eta = STAPLES["eta"]
        a_j, a_k = STAPLES_SHARES
        eps_j = (1.0 - eta) * (1.0 - a_j) - 1.0
        eps_k = (1.0 - eta) * (1.0 - a_k) - 1.0
        inputs = PassthroughInputs(
            m_j=-1.0 / eps_j, m_k=-1.0 / eps_k,
            eps_jj=eps_j, eps_kk=eps_k,
            d_jk=STAPLES["d_jk"], d_kj=STAPLES["d_kj"], eta=eta,
        )
        closed = passthrough_matrix(inputs).values
        numeric = oracle_passthrough(inputs)
        np.testing.assert_allclose(closed, numeric, rtol=1e-4, atol=1e-7)

    @pytest.mark.parametrize("seed", range(100))
    def test_random_inputs_against_oracle(self, seed):
        """100 random consistent economies: closed form within 1e-4 relative of
        the numeric implicit-function derivative."""
        inputs = consistent_inputs(np.random.default_rng(seed))
        closed = passthrough_matrix(inputs).values
        numeric = oracle_passthrough(inputs)
        scale = np.max(np.abs(numeric))
        np.testing.assert_allclose(closed, numeric, atol=1e-4 * scale)

    @pytest.mark.parametrize("inputs", CLOSED_FORM_CASES)
    def test_matches_hand_derived_closed_form(self, inputs):
        """The simulation Jacobian with observed levels reproduces the 2x2
        closed form, also where eps is not the economy's own (Staples, the
        perturbed draws)."""
        np.testing.assert_allclose(
            passthrough_matrix(inputs).values, closed_form_passthrough(inputs),
            rtol=0, atol=1e-12)

    def test_singular_jacobian_rejected(self):
        """Symmetric inputs with consistent shares (0.1 each, so D = 1/9) and the
        elasticity where det J changes sign, found by bisection."""
        eps = -3.8886549603917495
        with pytest.raises(InputValidationError, match="singular"):
            passthrough_matrix(PassthroughInputs(
                m_j=0.9, m_k=0.9, eps_jj=eps, eps_kk=eps,
                d_jk=0.1 / 0.9, d_kj=0.1 / 0.9, eta=3.0,
            ))


    BAD = [
        ("m_j", 2.0, "margins must lie in"),  # gave a negative own pass-through
        ("m_k", -0.1, "margins must lie in"),
        ("m_j", np.nan, "finite: m_j"),  # reached np.linalg.det as a RuntimeWarning
        ("eps_jj", np.nan, "finite: eps_jj"),
        ("d_jk", 1e300, "not consistent with interior shares"),
        ("eps_kk", -0.5, "elasticities must be < -1"),
        ("eta", 1.0, "eta must be > 1"),
        ("d_kj", -0.1, "diversion ratios must be non-negative"),
    ] + [(f.name, np.inf, f"finite: {f.name}") for f in fields(PassthroughInputs)]

    @pytest.mark.parametrize("name, value, match", BAD, ids=[f"{n}={v}" for n, v, _ in BAD])
    def test_bad_inputs_fail_closed_without_warning(self, name, value, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputValidationError, match=match):
                passthrough_matrix(replace(PassthroughInputs(**STAPLES), **{name: value}))

class TestShareRecovery:
    def test_staples_shares_from_diversion(self):
        a_j, a_k = shares_from_diversion(0.316 / 0.527, 0.473 / 0.684)
        assert a_j == pytest.approx(0.473, abs=1e-12)
        assert a_k == pytest.approx(0.316, abs=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        a_j = rng.uniform(0.05, 0.7)
        a_k = rng.uniform(0.05, 0.95 - a_j)
        back = shares_from_diversion(a_k / (1 - a_j), a_j / (1 - a_k))
        assert back[0] == pytest.approx(a_j, rel=1e-10)
        assert back[1] == pytest.approx(a_k, rel=1e-10)

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(InputValidationError):
            shares_from_diversion(1.5, 0.9)


class TestFromMarket:
    def test_staples_end_to_end(self, staples_bundle):
        pt = passthrough_matrix_from_market(
            staples_bundle.market, staples_bundle.diversion, staples_bundle.merger
        )
        assert pt.order == ("SP", "OD")
        np.testing.assert_allclose(
            pt.values, np.array([[1.005, 0.345], [0.347, 1.098]]), atol=5e-3
        )

    def test_multiproduct_firm_rejected(self):
        import uppkit.market as mk

        market = mk.Market((
            mk.Product("A", "f1", 1.0, 0.3),
            mk.Product("B", "f1", 1.0, 0.3),
            mk.Product("C", "f2", 1.0, 0.3),
        ))
        d = mk.DiversionMatrix(
            ("A", "B", "C"),
            np.array([[-1.0, 0.2, 0.1], [0.2, -1.0, 0.1], [0.1, 0.1, -1.0]]),
        )
        with pytest.raises(InputValidationError, match="single-product"):
            passthrough_matrix_from_market(market, d, mk.MergerSpec("f1", "f2"))


class TestPriceEffectsIntegration:
    def test_staples_first_order_effects(self, staples_bundle):
        """M . GUPPI = (0.152, 0.187) within 2e-3."""
        m, d, mg = staples_bundle.market, staples_bundle.diversion, staples_bundle.merger
        pt = passthrough_matrix_from_market(m, d, mg)
        g = effects.guppi(m, d, mg)
        pdd = effects.price_effects(g, pt)
        assert pdd["SP"] == pytest.approx(0.152, abs=2e-3)
        assert pdd["OD"] == pytest.approx(0.187, abs=2e-3)
