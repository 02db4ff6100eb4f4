"""First-order screening statistics against hand-derived and reported values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uppkit import effects
from uppkit import market as mk
from uppkit.errors import ConvergenceError, InputValidationError


def two_firm_market(m1=0.3, m2=0.3, d12=0.4, d21=0.5, r1=100.0, r2=80.0):
    market = mk.Market((mk.Product("A", "f1", r1, m1), mk.Product("B", "f2", r2, m2)))
    div = mk.DiversionMatrix(("A", "B"), np.array([[-1.0, d12], [d21, -1.0]]))
    return market, div, mk.MergerSpec("f1", "f2")


def loop_screen(market, div, merger):
    """Per-product loop reference: the former dict implementation of the
    elasticities, naive GUPPI, GUPPI, CMCR and compensating efficiencies."""
    def cross(j, firm):
        return sum(p.margin * div.get(j, p.id) for p in market.products_of(firm) if p.id != j)

    order = effects.merging_products(market, merger)
    eps, naive, guppi, comp = {}, {}, {}, {}
    for firm, other in ((merger.firm_a, merger.firm_b), (merger.firm_b, merger.firm_a)):
        for p in market.products_of(firm):
            s = cross(p.id, firm)
            eps[p.id] = -(1.0 - s) / (p.margin - s)
            naive[p.id] = cross(p.id, other)
            guppi[p.id] = (merger.efficiency(p.id) * (1.0 - p.margin)
                           + (1.0 + 1.0 / eps[p.id]) * naive[p.id])
            comp[p.id] = (guppi[p.id] - merger.efficiency(p.id) * (1.0 - p.margin)) / (1.0 - p.margin)
    a, b = np.eye(len(order)), np.empty(len(order))
    for i, j in enumerate(order):
        b[i] = -1.0 / eps[j]
        for k, pid in enumerate(order):
            if pid != j:
                a[i, k] = -(1.0 + 1.0 / eps[j]) * div.get(j, pid)
    post = dict(zip(order, np.linalg.solve(a, b)))
    cmcr = {j: (market.product(j).margin - post[j]) / (1.0 - market.product(j).margin) for j in order}
    return dict(elasticities=eps, naive_guppi=naive, guppi=guppi, cmcr=cmcr,
                post_margins=post, compensating_efficiencies=comp)


def multiproduct_market():
    """A two-product merging firm f1 (A, B), a single-product counterparty f2
    (C), a non-merging rival f3 (D) between them in market order, and one
    efficiency credit."""
    market = mk.Market((
        mk.Product("A", "f1", 120.0, 0.42),
        mk.Product("D", "f3", 90.0, 0.30),
        mk.Product("C", "f2", 80.0, 0.35),
        mk.Product("B", "f1", 60.0, 0.38),
    ))
    div = mk.DiversionMatrix(("A", "B", "C", "D"), np.array([
        [-1.0, 0.22, 0.18, 0.12],
        [0.25, -1.0, 0.15, 0.10],
        [0.20, 0.14, -1.0, 0.16],
        [0.11, 0.09, 0.13, -1.0],
    ]))
    return market, div, mk.MergerSpec("f1", "f2", {"B": -0.04})


class TestMultiProductScreen:
    def test_matches_per_product_reference(self):
        market, div, merger = multiproduct_market()
        ref = loop_screen(market, div, merger)
        report = effects.effects_report(market, div, merger)
        got = dict(
            elasticities=report.elasticities, naive_guppi=report.naive_guppi,
            guppi=report.guppi, cmcr=report.cmcr.efficiencies,
            post_margins=report.cmcr.post_margins,
            compensating_efficiencies=report.compensating_efficiencies,
        )
        views = dict(
            elasticities=effects.own_price_elasticities(market, div, merger),
            naive_guppi=effects.naive_guppi(market, div, merger),
            guppi=effects.guppi(market, div, merger),
            cmcr=effects.cmcr(market, div, merger).efficiencies,
            post_margins=effects.cmcr(market, div, merger).post_margins,
        )
        assert report.order == ("A", "C", "B")
        for name, expected in ref.items():
            for stats in (got, views):
                if name in stats:
                    assert stats[name].keys() == expected.keys()
                    for pid, value in expected.items():
                        assert stats[name][pid] == pytest.approx(value, abs=1e-13), (name, pid)

    def test_first_firm_named_first(self):
        """Both products sit outside the elastic region; as before, firm_a's
        product is named although firm_b's comes first in market order."""
        market = mk.Market((mk.Product("B1", "f2", 1.0, 1.2), mk.Product("A1", "f1", 1.0, 1.2)))
        div = mk.DiversionMatrix(("B1", "A1"), np.array([[-1.0, 0.2], [0.2, -1.0]]))
        with pytest.raises(InputValidationError, match="product A1: .*implied elasticity"):
            effects.guppi(market, div, mk.MergerSpec("f1", "f2"))

    def test_report_evaluates_kernel_once(self, monkeypatch):
        """One report evaluates the screening kernel once, plus once in "ces"
        mode for the pass-through's elasticities."""
        market, div, _ = two_firm_market()
        calls = []
        kernel = effects._screen
        monkeypatch.setattr(effects, "_screen", lambda *args: calls.append(1) or kernel(*args))
        for mode, count in (("identity", 1), ("ces", 2)):
            calls.clear()
            effects.effects_report(market, div, mk.MergerSpec("f1", "f2", passthrough=mode))
            assert len(calls) == count, mode


class TestOwnPriceElasticity:
    def test_lerner_single_product(self, staples_bundle):
        eps = effects.own_price_elasticities(
            staples_bundle.market, staples_bundle.diversion, staples_bundle.merger
        )
        assert eps["SP"] == pytest.approx(-3.875, abs=0.01)
        assert eps["OD"] == pytest.approx(-4.273, abs=0.01)

    def test_lerner_half_margin(self):
        market, div, merger = two_firm_market(m1=0.5)
        eps = effects.own_price_elasticities(market, div, merger)
        assert eps["A"] == pytest.approx(-2.0)

    def test_two_product_firm_hand_value(self):
        """m = (0.3, 0.3), within-firm diversion 0.2:
        eps_11 = -(1 - 0.06) / (0.3 - 0.06) = -3.9166..."""
        market = mk.Market((
            mk.Product("A", "f1", 1.0, 0.3),
            mk.Product("B", "f1", 1.0, 0.3),
            mk.Product("C", "f2", 1.0, 0.3),
        ))
        div = mk.DiversionMatrix(
            ("A", "B", "C"),
            np.array([[-1.0, 0.2, 0.1], [0.2, -1.0, 0.1], [0.1, 0.1, -1.0]]),
        )
        eps = effects.own_price_elasticities(market, div, mk.MergerSpec("f1", "f2"))
        assert eps["A"] == pytest.approx(-0.94 / 0.24)

    def test_inconsistent_margins_rejected(self):
        """Within-firm diversion so strong the denominator goes non-positive."""
        market = mk.Market((
            mk.Product("A", "f1", 1.0, 0.3),
            mk.Product("B", "f1", 1.0, 0.9),
            mk.Product("C", "f2", 1.0, 0.3),
        ))
        div = mk.DiversionMatrix(
            ("A", "B", "C"),
            np.array([[-1.0, 0.9, 0.05], [0.9, -1.0, 0.05], [0.1, 0.1, -1.0]]),
        )
        with pytest.raises(InputValidationError, match="margins inconsistent with Bertrand FOC"):
            effects.own_price_elasticities(market, div, mk.MergerSpec("f1", "f2"))

    def test_foc_fixed_point(self, staples_bundle):
        """Plugging the returned elasticity back into the pricing condition
        zeroes it to 1e-12."""
        m, d, mg = staples_bundle.market, staples_bundle.diversion, staples_bundle.merger
        eps = effects.own_price_elasticities(m, d, mg)
        for firm in (mg.firm_a, mg.firm_b):
            for p in m.products_of(firm):
                cross = sum(
                    q.margin * d.get(p.id, q.id)
                    for q in m.products_of(firm) if q.id != p.id
                )
                res = -1.0 / eps[p.id] - p.margin + (1.0 + 1.0 / eps[p.id]) * cross
                assert abs(res) < 1e-12


class TestGuppi:
    def test_staples_values(self, staples_bundle):
        g = effects.guppi(staples_bundle.market, staples_bundle.diversion, staples_bundle.merger)
        assert g["SP"] == pytest.approx(0.104, abs=1e-3)
        assert g["OD"] == pytest.approx(0.137, abs=1e-3)

    def test_staples_naive_values(self, staples_bundle):
        g = effects.naive_guppi(staples_bundle.market, staples_bundle.diversion,
                                staples_bundle.merger)
        assert g["SP"] == pytest.approx(0.140, abs=1e-3)
        assert g["OD"] == pytest.approx(0.178, abs=1e-3)

    def test_pure_efficiency_term(self):
        """No cross-firm diversion: only the efficiency credit survives."""
        market, div, _ = two_firm_market(m1=0.4, d12=0.0, d21=0.0)
        merger = mk.MergerSpec("f1", "f2", {"A": -0.05})
        g = effects.guppi(market, div, merger)
        assert g["A"] == pytest.approx(-0.03)
        assert g["B"] == 0.0

    @settings(max_examples=100, deadline=None)
    @given(
        m1=st.floats(0.05, 0.9),
        m2=st.floats(0.05, 0.9),
        d12=st.floats(0.0, 0.9),
        d21=st.floats(0.0, 0.9),
    )
    def test_naive_never_below_correct(self, m1, m2, d12, d21):
        market, div, merger = two_firm_market(m1=m1, m2=m2, d12=d12, d21=d21)
        g = effects.guppi(market, div, merger)
        gn = effects.naive_guppi(market, div, merger)
        for pid in g:
            assert gn[pid] >= g[pid]
            if div.get(pid, "B" if pid == "A" else "A") > 1e-12:
                assert gn[pid] > g[pid]


class TestPriceEffects:
    def test_matrix_product(self):
        pt = effects.PassThroughMatrix(("A", "B"), np.array([[1.005, 0.345], [0.347, 1.098]]))
        pdd = effects.price_effects({"A": 0.104, "B": 0.137}, pt)
        assert pdd["A"] == pytest.approx(1.005 * 0.104 + 0.345 * 0.137)
        assert pdd["B"] == pytest.approx(0.347 * 0.104 + 1.098 * 0.137)

    def test_identity_returns_guppi(self):
        g = {"A": 0.1, "B": 0.2}
        pt = effects.PassThroughMatrix.identity(("A", "B"))
        assert effects.price_effects(g, pt) == pytest.approx(g)

    def test_linearity(self):
        pt = effects.PassThroughMatrix(("A", "B"), 2.0 * np.eye(2))
        pdd = effects.price_effects({"A": 0.1, "B": 0.2}, pt)
        assert pdd == pytest.approx({"A": 0.2, "B": 0.4})

    def test_dimension_mismatch(self):
        pt = effects.PassThroughMatrix(("A", "C"), np.eye(2))
        with pytest.raises(InputValidationError, match="does not match"):
            effects.price_effects({"A": 0.1, "B": 0.2}, pt)

    def test_matrix_not_square_over_order(self):
        with pytest.raises(InputValidationError, match="must be square over 2 products"):
            effects.PassThroughMatrix(("A", "B"), np.eye(3))

    def test_matrix_not_finite(self):
        with pytest.raises(InputValidationError, match="non-finite entries"):
            effects.PassThroughMatrix(("A", "B"), np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestWelfare:
    def test_hand_values(self):
        """pdd = 0.1, R = 100, eps = -3: dCS = -10, trapezoid -8.5, bound -7."""
        market, div, merger = two_firm_market(r1=100.0)
        w = effects.welfare(market, {"A": 0.1}, merger, {"A": -3.0})
        assert w.cs["A"] == pytest.approx(-10.0)
        assert w.cs_mid["A"] == pytest.approx(-8.5)
        assert w.cs_upper["A"] == pytest.approx(-7.0)
        assert w.cs["A"] < w.cs_mid["A"] < w.cs_upper["A"] < 0.0

    def test_zero_changes(self):
        market, div, merger = two_firm_market()
        w = effects.welfare(market, {"A": 0.0, "B": 0.0}, merger, {"A": -3.0, "B": -3.0})
        assert w.total_cs == 0.0
        assert w.total_ps == 0.0

    def test_staples_total(self, staples_bundle):
        m, d, mg = staples_bundle.market, staples_bundle.diversion, staples_bundle.merger
        report = effects.effects_report(m, d, mg)
        assert report.welfare.total_cs == pytest.approx(-268.2e6, abs=2e6)

    @settings(max_examples=100, deadline=None)
    @given(
        eps=st.floats(-8.0, -1.2),
        frac=st.floats(0.01, 0.99),
        r=st.floats(1.0, 1e6),
    )
    def test_ordering_below_choke(self, eps, frac, r):
        """dCS < dCS_mid < dCS_upper < 0 for price rises inside (0, -1/eps)."""
        pdd = frac * (-1.0 / eps)
        market, div, merger = two_firm_market(r1=r)
        w = effects.welfare(market, {"A": pdd}, merger, {"A": eps})
        assert w.cs["A"] < w.cs_mid["A"] < w.cs_upper["A"] < 0.0

    def test_price_change_at_minus_one_refused(self):
        market, div, merger = two_firm_market()
        with pytest.raises(InputValidationError, match="price change -1.0 <= -1"):
            effects.welfare(market, {"A": -1.0}, merger, {"A": -3.0})

    def test_inelastic_demand_refused(self):
        market, div, merger = two_firm_market()
        with pytest.raises(InputValidationError, match="elasticity -0.5 >= -1"):
            effects.welfare(market, {"A": 0.1}, merger, {"A": -0.5})

    def test_producer_surplus_formula(self):
        """(pdd - cdd(1-m)) R (1 + eps pdd) + eps R pdd m, spot-checked."""
        market, div, _ = two_firm_market(m1=0.25, r1=200.0)
        merger = mk.MergerSpec("f1", "f2", {"A": -0.1})
        w = effects.welfare(market, {"A": 0.05}, merger, {"A": -2.0})
        expected = (0.05 + 0.1 * 0.75) * 200.0 * (1.0 - 2.0 * 0.05) + (-2.0) * 200.0 * 0.05 * 0.25
        assert w.ps["A"] == pytest.approx(expected)


class TestCmcr:
    def test_staples_values(self, staples_bundle):
        res = effects.cmcr(staples_bundle.market, staples_bundle.diversion,
                           staples_bundle.merger)
        assert res.post_margins["SP"] == pytest.approx(0.473, abs=2e-3)
        assert res.post_margins["OD"] == pytest.approx(0.485, abs=2e-3)
        assert res.efficiencies["SP"] == pytest.approx(-0.291, abs=2e-3)
        assert res.efficiencies["OD"] == pytest.approx(-0.327, abs=2e-3)

    def test_zero_cross_diversion_changes_nothing(self):
        market, div, merger = two_firm_market(d12=0.0, d21=0.0)
        res = effects.cmcr(market, div, merger)
        assert res.post_margins["A"] == pytest.approx(0.3)
        assert res.efficiencies["A"] == pytest.approx(0.0)
        assert res.efficiencies["B"] == pytest.approx(0.0)

    def test_symmetric_hand_solve(self):
        """m = 0.3, D = 0.5 both ways: m1 = 0.3 / (1 - 0.35) = 0.461538,
        cdd = (0.3 - 0.461538)/0.7 = -0.230769."""
        market, div, merger = two_firm_market(m1=0.3, m2=0.3, d12=0.5, d21=0.5)
        res = effects.cmcr(market, div, merger)
        assert res.post_margins["A"] == pytest.approx(0.3 / 0.65)
        assert res.efficiencies["A"] == pytest.approx((0.3 - 0.3 / 0.65) / 0.7)
        assert res.post_margins["B"] == pytest.approx(res.post_margins["A"])

    @settings(max_examples=60, deadline=None)
    @given(
        m1=st.floats(0.1, 0.6),
        m2=st.floats(0.1, 0.6),
        d12=st.floats(0.01, 0.8),
        d21=st.floats(0.01, 0.8),
    )
    def test_sign(self, m1, m2, d12, d21):
        """Positive cross-firm diversion forces genuine cost reductions."""
        market, div, merger = two_firm_market(m1=m1, m2=m2, d12=d12, d21=d21)
        res = effects.cmcr(market, div, merger)
        assert all(v < 0 for v in res.efficiencies.values())

    def test_singular_system(self):
        """Perfect mutual diversion with unit elasticity adjustment blows up."""
        market = mk.Market((mk.Product("A", "f1", 1.0, 0.5), mk.Product("B", "f2", 1.0, 0.5)))
        div = mk.DiversionMatrix(("A", "B"), np.array([[-1.0, 2.0], [2.0, -1.0]]))
        with pytest.raises(ConvergenceError, match="CMCR system singular"):
            effects.cmcr(market, div, mk.MergerSpec("f1", "f2"))


class TestNaiveCmcr:
    def test_staples_values(self, staples_bundle):
        res = effects.naive_cmcr(staples_bundle.market, staples_bundle.diversion,
                                 staples_bundle.merger)
        assert res["SP"] == pytest.approx(0.569, abs=2e-3)
        assert res["OD"] == pytest.approx(0.614, abs=2e-3)

    def test_zero_diversion(self):
        market, div, merger = two_firm_market(d12=0.0, d21=0.0)
        res = effects.naive_cmcr(market, div, merger)
        assert res == {"A": 0.0, "B": 0.0}

    def test_label_symmetry(self):
        market, div, merger = two_firm_market(m1=0.3, m2=0.3, d12=0.4, d21=0.4)
        res = effects.naive_cmcr(market, div, merger)
        assert res["A"] == pytest.approx(res["B"])

    def test_multiproduct_unsupported(self):
        market = mk.Market((
            mk.Product("A", "f1", 1.0, 0.3),
            mk.Product("B", "f1", 1.0, 0.3),
            mk.Product("C", "f2", 1.0, 0.3),
        ))
        div = mk.DiversionMatrix(
            ("A", "B", "C"),
            np.array([[-1.0, 0.2, 0.1], [0.2, -1.0, 0.1], [0.1, 0.1, -1.0]]),
        )
        with pytest.raises(InputValidationError, match="unsupported"):
            effects.naive_cmcr(market, div, mk.MergerSpec("f1", "f2"))


class TestCompensatingEfficiency:
    def test_credit_zeroes_pressure(self):
        """Crediting cdd = -GUPPI/(1-m) drives every GUPPI to exactly zero;
        checked across a batch of random markets, along with the quantile
        bookkeeping a screening report would do on the resulting distribution."""
        rng = np.random.default_rng(13)
        comp_all = []
        for _ in range(40):
            m1, m2 = rng.uniform(0.1, 0.6, size=2)
            d12, d21 = rng.uniform(0.05, 0.8, size=2)
            market, div, merger = two_firm_market(m1=m1, m2=m2, d12=d12, d21=d21)
            comp = effects.effects_report(market, div, merger).compensating_efficiencies
            comp_all.extend(comp.values())
            credited = mk.MergerSpec(merger.firm_a, merger.firm_b,
                                     {pid: -c for pid, c in comp.items()})
            g_credited = effects.guppi(market, div, credited)
            for pid in g_credited:
                assert g_credited[pid] == pytest.approx(0.0, abs=1e-12)
        q50, q90, q99 = np.quantile(comp_all, [0.5, 0.9, 0.99])
        assert 0.0 < q50 <= q90 <= q99
        assert np.mean(np.asarray(comp_all) <= q90) >= 0.9


class TestScaleInvariance:
    def test_revenue_scaling(self, staples_bundle):
        """Scaling revenues scales welfare, leaves every unit-free statistic fixed."""
        m, d, mg = staples_bundle.market, staples_bundle.diversion, staples_bundle.merger
        base = effects.effects_report(m, d, mg)
        scaled_market = mk.Market(
            tuple(mk.Product(p.id, p.firm, 3.0 * p.revenue, p.margin) for p in m.products),
            currency=m.currency,
        )
        scaled = effects.effects_report(scaled_market, d, mg)
        for pid in base.order:
            assert scaled.elasticities[pid] == base.elasticities[pid]
            assert scaled.guppi[pid] == base.guppi[pid]
            assert scaled.price_changes[pid] == pytest.approx(base.price_changes[pid], rel=1e-12)
            assert scaled.cmcr.efficiencies[pid] == base.cmcr.efficiencies[pid]
            assert scaled.welfare.cs[pid] == pytest.approx(3.0 * base.welfare.cs[pid], rel=1e-12)
            assert scaled.welfare.ps[pid] == pytest.approx(3.0 * base.welfare.ps[pid], rel=1e-12)
        assert scaled.welfare.total_cs == pytest.approx(3.0 * base.welfare.total_cs, rel=1e-12)


class TestEffectsReport:
    def test_identity_mode_caveat(self):
        market, div, _ = two_firm_market()
        merger = mk.MergerSpec("f1", "f2", passthrough="identity")
        report = effects.effects_report(market, div, merger)
        assert report.passthrough_mode == "identity"
        assert report.price_changes == pytest.approx(report.guppi)
        assert any("identity" in c for c in report.caveats)

    def test_ces_mode_falls_back_for_large_markets(self):
        market = mk.Market((
            mk.Product("A", "f1", 1.0, 0.3),
            mk.Product("B", "f1", 1.0, 0.3),
            mk.Product("C", "f2", 1.0, 0.3),
        ))
        div = mk.DiversionMatrix(
            ("A", "B", "C"),
            np.array([[-1.0, 0.2, 0.1], [0.2, -1.0, 0.1], [0.1, 0.1, -1.0]]),
        )
        report = effects.effects_report(market, div, mk.MergerSpec("f1", "f2", passthrough="ces"))
        assert report.passthrough_mode == "identity"
        assert any("unavailable" in c for c in report.caveats)

    def test_unknown_mode_rejected(self):
        market, div, _ = two_firm_market()
        with pytest.raises(InputValidationError, match="unknown passthrough mode 'foo'"):
            effects.effects_report(market, div, mk.MergerSpec("f1", "f2", passthrough="foo"))

    def test_serialization_complete(self, staples_bundle):
        m, d, mg = staples_bundle.market, staples_bundle.diversion, staples_bundle.merger
        doc = effects.effects_report(m, d, mg).to_dict()
        assert {p["id"] for p in doc["products"]} == {"SP", "OD"}
        assert set(doc["products"][0]) >= {
            "guppi", "naive_guppi", "price_change", "cs", "ps", "cmcr",
            "compensating_efficiency", "elasticity",
        }
        assert doc["totals"]["cs"] == pytest.approx(-268.2e6, abs=2e6)
