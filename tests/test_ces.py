"""CES and nested-CES demand: shares, inversion, diversion, welfare."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uppkit import ces, fitting, simulation
from uppkit.ces import CESEconomy, Consumer
from uppkit.errors import InputValidationError
from uppkit.market import OUTSIDE


def single_consumer(utils, eta=6.0, budget=1.0):
    return CESEconomy((Consumer("c", budget, utils),), eta)


def random_economy(rng, n_consumers=3, n_products=4, eta=None):
    """Random interior economy; every product considered by someone."""
    eta = float(rng.uniform(2.0, 9.0)) if eta is None else eta
    pids = [f"p{j}" for j in range(n_products)]
    consumers = []
    for i in range(n_consumers):
        considered = [pid for pid in pids if rng.uniform() < 0.8]
        if i < n_products:  # guarantee coverage
            considered = sorted(set(considered) | {pids[i % n_products]})
        utils = {pid: float(rng.normal(0.0, 1.0)) for pid in considered}
        consumers.append(Consumer(f"c{i}", float(rng.uniform(0.5, 3.0)), utils,
                                  float(rng.uniform(0.5, 2.0))))
    return CESEconomy(tuple(consumers), eta)


class TestShares:
    def test_reference_utilities(self):
        """u = (0.807, 0.404, 0) maps to shares (0.473, 0.316, 0.211)."""
        econ = single_consumer({"SP": 0.807, "OD": 0.404})
        tab = ces.shares(econ)
        assert tab.share("c", "SP") == pytest.approx(0.473, abs=1e-3)
        assert tab.share("c", "OD") == pytest.approx(0.316, abs=1e-3)
        assert tab.share("c", OUTSIDE) == pytest.approx(0.211, abs=1e-3)

    def test_equal_utilities_uniform(self):
        econ = single_consumer({"A": 0.0, "B": 0.0})
        tab = ces.shares(econ)
        assert tab.share("c", "A") == pytest.approx(1.0 / 3.0)
        assert tab.share("c", OUTSIDE) == pytest.approx(1.0 / 3.0)

    def test_dominant_utility_takes_all(self):
        econ = single_consumer({"A": 650.0, "B": 0.0})
        tab = ces.shares(econ)
        assert tab.share("c", "A") == pytest.approx(1.0)

    def test_rows_normalize(self):
        rng = np.random.default_rng(0)
        econ = random_economy(rng, 5, 6)
        tab = ces.shares(econ)
        np.testing.assert_allclose(tab.values.sum(axis=1), 1.0, atol=1e-12)

    def test_shift_invariance(self):
        """Adding a constant to one consumer's utilities leaves shares (and
        everything downstream of them) unchanged."""
        rng = np.random.default_rng(1)
        econ = random_economy(rng, 3, 4)
        shifted = CESEconomy(
            tuple(
                Consumer(c.id, c.budget, {k: v + 2.5 for k, v in c.utilities.items()}, c.weight)
                if i == 0 else c
                for i, c in enumerate(econ.consumers)
            ),
            econ.eta,
        )
        np.testing.assert_allclose(ces.shares(econ).values, ces.shares(shifted).values,
                                   atol=1e-12)
        np.testing.assert_allclose(
            ces.revenue_diversion(econ).values, ces.revenue_diversion(shifted).values,
            atol=1e-12,
        )
        base_eps = ces.own_price_revenue_elasticity(econ)
        shift_eps = ces.own_price_revenue_elasticity(shifted)
        for pid in base_eps:
            assert shift_eps[pid] == pytest.approx(base_eps[pid], abs=1e-12)


class TestInversion:
    def test_reference_shares(self):
        """alpha = (0.473, 0.316, 0.211) inverts to u = (0.807, 0.404)."""
        econ = ces.economy_from_shares(
            {"c": {"SP": 0.473, "OD": 0.316, OUTSIDE: 0.211}}, {"c": 1.0}, eta=6.0
        )
        assert econ.consumers[0].utilities["SP"] == pytest.approx(0.807, abs=1e-3)
        assert econ.consumers[0].utilities["OD"] == pytest.approx(0.404, abs=1e-3)
        assert econ.consumers[0].utilities[OUTSIDE] == 0.0

    def test_uniform_shares_zero_utilities(self):
        econ = ces.economy_from_shares(
            {"c": {"A": 0.25, "B": 0.25, "C": 0.25, OUTSIDE: 0.25}}, {"c": 1.0}, eta=4.0
        )
        for v in econ.consumers[0].utilities.values():
            assert v == pytest.approx(0.0, abs=1e-12)

    def test_zero_share_rejected(self):
        with pytest.raises(InputValidationError, match="interior"):
            ces.economy_from_shares(
                {"c": {"A": 0.0, "B": 0.5, OUTSIDE: 0.5}}, {"c": 1.0}, eta=4.0
            )

    def test_zero_outside_rejected(self):
        with pytest.raises(InputValidationError, match="interior"):
            ces.economy_from_shares(
                {"c": {"A": 0.5, "B": 0.5, OUTSIDE: 0.0}}, {"c": 1.0}, eta=4.0
            )

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.01, 10.0), min_size=2, max_size=6))
    def test_roundtrip(self, raw):
        """shares(invert(alpha)) == alpha to 1e-12."""
        alpha = np.asarray(raw) / np.sum(raw)
        names = [f"g{i}" for i in range(len(alpha) - 1)] + [OUTSIDE]
        share_map = dict(zip(names, alpha))
        econ = ces.economy_from_shares({"c": share_map}, {"c": 1.0}, eta=5.0)
        tab = ces.shares(econ)
        for pid, a in share_map.items():
            assert tab.share("c", pid) == pytest.approx(a, abs=1e-12)


class TestRevenueDiversion:
    def test_single_consumer_reference(self, staples_economy):
        """D = (0.599, 0.691) from the representative-consumer shares."""
        d = ces.revenue_diversion(staples_economy)
        assert d.get("SP", "OD") == pytest.approx(0.599, abs=1e-3)
        assert d.get("OD", "SP") == pytest.approx(0.691, abs=1e-3)

    def test_single_consumer_closed_form(self):
        rng = np.random.default_rng(3)
        a = rng.dirichlet(np.ones(4))
        names = ["A", "B", "C", OUTSIDE]
        econ = ces.economy_from_shares({"c": dict(zip(names, a))}, {"c": 2.0}, eta=4.0)
        d = ces.revenue_diversion(econ)
        for j, src in enumerate(names[:3]):
            for k, dst in enumerate(names[:3]):
                if j != k:
                    assert d.get(src, dst) == pytest.approx(a[k] / (1 - a[j]), rel=1e-12)
            assert d.get(src, OUTSIDE) == pytest.approx(a[3] / (1 - a[j]), rel=1e-12)

    def test_vanishing_source_share_limit(self):
        """As alpha_j -> 0 the diversion row tends to the destination shares."""
        econ = ces.economy_from_shares(
            {"c": {"A": 1e-9, "B": 0.4, OUTSIDE: 0.6 - 1e-9}}, {"c": 1.0}, eta=4.0
        )
        d = ces.revenue_diversion(econ)
        assert d.get("A", "B") == pytest.approx(0.4, rel=1e-6)

    @pytest.mark.parametrize("seed", range(6))
    def test_row_sums_to_one_with_outside(self, seed):
        """Fixed budgets: diversion over all alternatives incl. outside is 1."""
        rng = np.random.default_rng(seed)
        econ = random_economy(rng, 4, 5)
        d = ces.revenue_diversion(econ)
        totals = d.values.sum(axis=1) + 1.0 + d.outside
        np.testing.assert_allclose(totals, 1.0, atol=1e-10)

    def test_product_considered_by_nobody(self):
        econ = CESEconomy(
            (Consumer("c1", 1.0, {"A": 0.3}), Consumer("c2", 1.0, {"A": 0.1, "B": 0.2})),
            eta=4.0,
        )
        # prune B from both consideration sets -> no shopper for B
        bad = CESEconomy(
            (Consumer("c1", 1.0, {"A": 0.3, "B": -900.0}),), eta=4.0
        )
        d = ces.revenue_diversion(econ)  # fine, B has a shopper
        assert d.get("A", "B") >= 0.0
        tab = ces.shares(bad)
        with pytest.raises(InputValidationError,
                           match="no consumer with positive weight x budget holds at an interior"):
            ces._diversion_from_share_values(
                np.array([[0.5, 0.0, 0.5]]), np.array([0.0]), ("A", "B", OUTSIDE),
            )

    def test_heterogeneous_vs_finite_difference(self):
        """Two weighted consumers: closed-form diversion and revenue elasticity
        match central differences of revenues in the underlying priced model."""
        from uppkit.harness import CESGroundTruth

        rng = np.random.default_rng(7)
        eta = 5.0
        betas = rng.uniform(0.5, 2.0, size=(2, 3))
        budgets = np.array([1.0, 2.5])
        weights = np.array([1.0, 0.7])
        prices = rng.uniform(0.8, 1.5, size=3)
        truth = CESGroundTruth(betas, budgets, eta, weights=weights)
        econ = truth.economy(prices, ["A", "B", "C"])

        d = ces.revenue_diversion(econ)
        eps_r = ces.own_price_revenue_elasticity(econ)

        for j in range(3):
            h = 1e-5 * prices[j]
            up, dn = prices.copy(), prices.copy()
            up[j] += h
            dn[j] -= h
            drev = (truth.revenues(up) - truth.revenues(dn)) / (2 * h)
            rev = truth.revenues(prices)
            ids = ["A", "B", "C"]
            assert eps_r[ids[j]] == pytest.approx(drev[j] * prices[j] / rev[j], rel=1e-5)
            for k in range(3):
                if k != j:
                    assert d.get(ids[j], ids[k]) == pytest.approx(-drev[k] / drev[j], rel=1e-5)


@pytest.mark.parametrize("formula", [ces.revenue_diversion, ces.own_price_revenue_elasticity])
def test_product_only_a_budget_zero_consumer_considers(staples_economy, formula):
    """Only a consumer with budget 0 considers XX, so its den is 0: diversion
    and the own revenue elasticity are both undefined there, and both name
    that cause (the elasticity is not read as 0)."""
    econ = CESEconomy(staples_economy.consumers + (Consumer("z", 0.0, {"XX": 0.1}),),
                      staples_economy.eta)
    with pytest.raises(InputValidationError, match=r"holds at an interior share: \['XX'\]"):
        formula(econ)


class TestRevenueElasticity:
    def test_reference_value(self):
        """alpha = 0.473, eta = 6.121: eps^R = 0.527 * (1 - 6.121) = -2.699."""
        econ = ces.economy_from_shares(
            {"c": {"A": 0.473, "B": 0.316, OUTSIDE: 0.211}}, {"c": 1.0}, eta=6.121
        )
        out = ces.own_price_revenue_elasticity(econ)
        assert out["A"] == pytest.approx((1 - 0.473) * (1 - 6.121), rel=1e-9)
        assert out["A"] == pytest.approx(-2.699, abs=1e-3)
        eps = ces.own_price_elasticity_of_demand(econ)
        assert eps["A"] == pytest.approx(-3.699, abs=1e-3)

    def test_cobb_douglas_limit(self):
        econ = ces.economy_from_shares(
            {"c": {"A": 0.5, OUTSIDE: 0.5}}, {"c": 1.0}, eta=1.0 + 1e-9
        )
        assert ces.own_price_revenue_elasticity(econ)["A"] == pytest.approx(0.0, abs=1e-8)

    def test_monopolized_share_limit(self):
        econ = ces.economy_from_shares(
            {"c": {"A": 1.0 - 1e-10, OUTSIDE: 1e-10}}, {"c": 1.0}, eta=5.0
        )
        assert ces.own_price_revenue_elasticity(econ)["A"] == pytest.approx(0.0, abs=1e-8)


class TestIdentifyEta:
    def test_reference_values(self):
        res = ces.identify_eta(
            {"SP": 0.473, "OD": 0.316},
            {"SP": -1.0 / 0.258, "OD": -1.0 / 0.234},
        )
        assert res.per_product["SP"] == pytest.approx(6.457, abs=5e-3)
        assert res.per_product["OD"] == pytest.approx(5.786, abs=5e-3)
        assert res.eta == pytest.approx(6.121, abs=5e-3)
        assert not res.inconsistent

    def test_identical_products_zero_spread(self):
        res = ces.identify_eta({"A": 0.3, "B": 0.3}, {"A": -2.5, "B": -2.5})
        assert res.spread == 0.0

    def test_inconsistent_inputs_flagging(self):
        res = ces.identify_eta({"A": 0.3, "B": 0.3}, {"A": -2.0, "B": -3.0})
        assert res.spread > 1.0
        assert res.inconsistent

    def test_unit_share_rejected(self):
        with pytest.raises(InputValidationError):
            ces.identify_eta({"A": 1.0}, {"A": -2.0})


class TestSecondChoice:
    def test_single_consumer_reference(self, staples_economy):
        """Removing the larger firm diverts 0.316/0.527 = 0.599 of its revenue
        to the rival, matching the marginal diversion ratio."""
        d = ces.second_choice_diversion(staples_economy, "SP")
        assert d["OD"] == pytest.approx(0.599, abs=1e-3)
        assert d[OUTSIDE] == pytest.approx(0.400, abs=1e-3)

    def test_gains_sum_to_losses(self):
        econ = ces.economy_from_shares(
            {"c": {"A": 0.5, "B": 0.3, OUTSIDE: 0.2}}, {"c": 1.0}, eta=4.0
        )
        d = ces.second_choice_diversion(econ, "A")
        assert d["B"] + d[OUTSIDE] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(50))
    def test_equals_marginal_diversion(self, seed):
        """Removal-based and price-based diversion coincide on representative-
        consumer CES economies, to machine precision."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        alpha = rng.dirichlet(np.ones(n + 1))
        names = [f"g{i}" for i in range(n)] + [OUTSIDE]
        econ = ces.economy_from_shares(
            {"c": dict(zip(names, alpha))}, {"c": float(rng.uniform(0.5, 5.0))},
            eta=float(rng.uniform(2.0, 9.0)),
        )
        d_marginal = ces.revenue_diversion(econ)
        removed = names[int(rng.integers(0, n))]
        d_removal = ces.second_choice_diversion(econ, removed)
        for dst, val in d_removal.items():
            assert val == pytest.approx(d_marginal.get(removed, dst), abs=1e-12)

    def test_heterogeneous_consumers_per_consumer_identity(self):
        """With heterogeneous consumers the *per-consumer* reallocation ratio
        still equals a_k/(1 - a_j) exactly, but the two aggregates weight
        consumers differently (a*B vs a(1-a)*B) and genuinely diverge."""
        econ = CESEconomy(
            (
                Consumer("c1", 1.0, {"A": np.log(0.5 / 0.25), "B": 0.0}),   # a = (.5,.25,.25)
                Consumer("c2", 1.0, {"A": np.log(0.1 / 0.65), "B": np.log(0.25 / 0.65)}),
            ),
            eta=4.0,
        )
        pre = ces.shares(econ)
        for cid in ("c1", "c2"):
            a_j = pre.share(cid, "A")
            a_k = pre.share(cid, "B")
            post_share = a_k / (1.0 - a_j)
            gain_ratio = (post_share - a_k) / a_j
            assert gain_ratio == pytest.approx(a_k / (1.0 - a_j), abs=1e-12)
        removal = ces.second_choice_diversion(econ, "A")["B"]
        marginal = ces.revenue_diversion(econ).get("A", "B")
        assert removal != pytest.approx(marginal, abs=1e-6)
        assert removal == pytest.approx(0.46296, abs=1e-4)   # hand aggregation
        assert marginal == pytest.approx(0.44118, abs=1e-4)

    def test_unknown_product(self):
        econ = single_consumer({"A": 0.1})
        with pytest.raises(InputValidationError, match="no consideration set"):
            ces.second_choice_diversion(econ, "Z")

    def test_outside_option_cannot_be_removed(self):
        econ = single_consumer({"A": 0.1})
        with pytest.raises(InputValidationError, match="cannot remove the outside option"):
            ces.second_choice_diversion(econ, OUTSIDE)

    def test_nested_economy_rejected_below_mu_one(self, staples_economy):
        """Removal diversion uses plain CES shares: a nested economy with
        mu < 1 is refused, and at mu = 1 it gives the plain economy's numbers."""
        def nested(mu):
            return CESEconomy(staples_economy.consumers, staples_economy.eta,
                              nests={"SP": "a", "OD": "a"}, mu=mu)

        with pytest.raises(InputValidationError, match="mu = 0.2 < 1"):
            ces.second_choice_diversion(nested(0.2), "SP")
        assert ces.second_choice_diversion(nested(1.0), "SP") == \
            ces.second_choice_diversion(staples_economy, "SP")


def _plain_results(name, economy, bundle):
    """One plain-CES entry point's result on ``economy``, as comparable values."""
    if name == "revenue_diversion":
        d = ces.revenue_diversion(economy)
        return d.values.tolist(), d.outside.tolist()
    if name == "own_price_revenue_elasticity":
        return ces.own_price_revenue_elasticity(economy)
    if name == "own_price_elasticity_of_demand":
        return ces.own_price_elasticity_of_demand(economy)
    if name == "compensating_variation":
        cv = ces.compensating_variation(economy, {"SP": 0.143, "OD": 0.180})
        return cv.per_consumer, cv.total
    if name == "second_choice_diversion":
        return ces.second_choice_diversion(economy, "SP")
    problem = simulation.merger_problem(bundle.market, economy, bundle.merger)
    return simulation.simulate(problem).price_changes


@pytest.mark.parametrize("name", [
    "revenue_diversion", "own_price_revenue_elasticity", "own_price_elasticity_of_demand",
    "compensating_variation", "second_choice_diversion", "simulate",
])
def test_plain_ces_gate(name, staples_bundle, staples_economy):
    """Every formula derived from the softmax refuses a nested economy whose
    nests bind, and gives the plain economy's exact result at mu = 1."""
    def nested(mu):
        return CESEconomy(staples_economy.consumers, staples_economy.eta,
                          nests={"SP": "a", "OD": "a"}, mu=mu)

    with pytest.raises(InputValidationError, match="mu = 0.2 < 1"):
        _plain_results(name, nested(0.2), staples_bundle)
    assert _plain_results(name, nested(1.0), staples_bundle) == \
        _plain_results(name, staples_economy, staples_bundle)


class TestCompensatingVariation:
    def test_zero_change(self, staples_economy):
        cv = ces.compensating_variation(staples_economy, {"SP": 0.0, "OD": 0.0})
        assert cv.total == 0.0

    def test_uniform_increase_no_outside_limit(self):
        """With a negligible outside share, CV/B -> 1 - 1/(1 + pdd)."""
        econ = ces.economy_from_shares(
            {"c": {"A": 0.6 - 5e-13, "B": 0.4 - 5e-13, OUTSIDE: 1e-12}},
            {"c": 1.0}, eta=5.0,
        )
        pdd = 0.2
        cv = ces.compensating_variation(econ, {"A": pdd, "B": pdd})
        assert cv.total == pytest.approx(1.0 - 1.0 / (1.0 + pdd), rel=1e-6)

    def test_staples_vs_first_order_harm(self, staples_economy):
        """Exact compensation is positive but below the first-order rectangle
        (substitution softens the loss)."""
        pdd = {"SP": 0.143, "OD": 0.180}
        cv = ces.compensating_variation(staples_economy, pdd)
        first_order = (0.143 * 0.473 + 0.180 * 0.316) * 2.05e9  # ~255.7e6
        assert first_order == pytest.approx(255.7e6, abs=1e6)
        assert 0.0 < cv.total <= first_order
        assert cv.total == pytest.approx(203.9e6, abs=1e6)

    @settings(max_examples=60, deadline=None)
    @given(
        pdd=st.floats(0.0, 0.5),
        a=st.floats(0.05, 0.6),
        eta=st.floats(1.5, 9.0),
    )
    def test_sign(self, pdd, a, eta):
        """Nonnegative price changes, one positive and considered: CV > 0."""
        econ = ces.economy_from_shares(
            {"c": {"A": a, "B": 0.2, OUTSIDE: 0.8 - a}}, {"c": 1.0}, eta=eta
        )
        cv = ces.compensating_variation(econ, {"A": max(pdd, 1e-6), "B": 0.0})
        assert cv.per_consumer["c"] > 0.0

    def test_unaffected_consumer(self):
        econ = CESEconomy(
            (Consumer("c1", 1.0, {"A": 0.5}), Consumer("c2", 1.0, {"B": 0.5})), eta=4.0
        )
        cv = ces.compensating_variation(econ, {"A": 0.3})
        assert cv.per_consumer["c2"] == 0.0
        assert cv.per_consumer["c1"] > 0.0

    def test_outside_change_rejected(self):
        econ = single_consumer({"A": 0.1})
        with pytest.raises(InputValidationError):
            ces.compensating_variation(econ, {OUTSIDE: 0.1})

    def test_unknown_product_rejected(self):
        econ = single_consumer({"A": 0.1})
        with pytest.raises(InputValidationError, match="unknown product 'Z'"):
            ces.compensating_variation(econ, {"Z": 0.1})

    def test_zero_outside_change_is_no_change(self):
        econ = single_consumer({"A": 0.1, "B": -0.2})
        with_outside = ces.compensating_variation(econ, {OUTSIDE: 0.0, "A": 0.2})
        assert with_outside == ces.compensating_variation(econ, {"A": 0.2})
        assert ces.compensating_variation(econ, {OUTSIDE: 0.0}).total == 0.0

    @pytest.mark.parametrize("pdd", [float("nan"), float("inf"), -1.0, -2.0])
    def test_non_finite_or_at_most_minus_one_rejected(self, pdd):
        """A NaN price change fails no ``<=`` test, so it is refused by name."""
        econ = single_consumer({"A": 0.1})
        with pytest.raises(InputValidationError, match="product A: price change .* finite and > -1"):
            ces.compensating_variation(econ, {"A": pdd})


class TestNestedShares:
    def nested_fixture(self, mu, utils=None):
        utils = utils or {"A": 0.8, "B": 0.4, "C": -0.2}
        return CESEconomy(
            (Consumer("c", 1.0, utils),), eta=5.0,
            nests={"A": "n1", "B": "n1", "C": "n2"}, mu=mu,
        )

    def test_mu_one_collapses_to_plain(self):
        econ = self.nested_fixture(1.0)
        plain = single_consumer({"A": 0.8, "B": 0.4, "C": -0.2}, eta=5.0)
        np.testing.assert_allclose(
            ces.nested_shares(econ).values, ces.shares(plain).values, atol=1e-12
        )

    def test_one_share_function(self):
        """``nested_shares`` is ``shares``; with nests at mu = 1 it is the softmax."""
        assert ces.nested_shares is ces.shares
        plain = single_consumer({"A": 0.8, "B": 0.4, "C": -0.2}, eta=5.0)
        np.testing.assert_array_equal(ces.shares(self.nested_fixture(1.0)).values,
                                      ces.shares(plain).values)

    def test_economy_without_nests_gets_softmax(self):
        plain = single_consumer({"A": 0.8, "B": 0.4, "C": -0.2}, eta=5.0)
        np.testing.assert_array_equal(ces.nested_shares(plain).values, ces.shares(plain).values)

    def test_small_mu_within_nest_winner(self):
        econ = self.nested_fixture(1e-3)
        tab = ces.nested_shares(econ)
        # A dominates B inside n1: B's conditional share vanishes
        assert tab.share("c", "B") < 1e-50
        assert tab.share("c", "A") > 0.0

    def test_hand_computed_two_level(self):
        """3 stores, 2 nests, mu = 0.5, hand-evaluated two-level softmax."""
        mu = 0.5
        u = {"A": 0.8, "B": 0.4, "C": -0.2}
        econ = self.nested_fixture(mu, u)
        i1 = np.log(np.exp(u["A"] / mu) + np.exp(u["B"] / mu))
        i2 = np.log(np.exp(u["C"] / mu))
        denom = np.exp(mu * i1) + np.exp(mu * i2) + 1.0
        s_n1 = np.exp(mu * i1) / denom
        a_expected = s_n1 * np.exp(u["A"] / mu) / (np.exp(u["A"] / mu) + np.exp(u["B"] / mu))
        tab = ces.nested_shares(econ)
        assert tab.share("c", "A") == pytest.approx(a_expected, rel=1e-12)
        assert tab.share("c", OUTSIDE) == pytest.approx(1.0 / denom, rel=1e-12)

    def test_rows_normalize(self):
        tab = ces.nested_shares(self.nested_fixture(0.3))
        np.testing.assert_allclose(tab.values.sum(axis=1), 1.0, atol=1e-12)

    def test_shares_and_revenues_honour_nests(self):
        """Below mu = 1, ``shares`` and ``revenues`` are the nested economy's own."""
        econ = CESEconomy(
            (Consumer("c1", 2.0, {"A": 0.8, "B": 0.4, "C": -0.2}, weight=0.5),
             Consumer("c2", 3.0, {"B": -0.1, "C": 0.6})), eta=5.0,
            nests={"A": "n1", "B": "n1", "C": "n2"}, mu=0.3,
        )
        nested = ces.nested_shares(econ).values
        np.testing.assert_array_equal(ces.shares(econ).values, nested)
        implied = np.array([0.5 * 2.0, 3.0]) @ nested
        assert ces.revenues(econ) == dict(zip(econ.order, implied.tolist()))
        assert not np.allclose(nested, ces.shares(CESEconomy(econ.consumers, 5.0)).values)

    def test_invalid_mu(self):
        with pytest.raises(InputValidationError, match="mu"):
            self.nested_fixture(0.0)
        with pytest.raises(InputValidationError, match="mu"):
            self.nested_fixture(1.2)

    def test_missing_nest_label(self):
        with pytest.raises(InputValidationError, match="nest"):
            CESEconomy(
                (Consumer("c", 1.0, {"A": 0.1, "B": 0.2}),), eta=4.0,
                nests={"A": "n1"}, mu=0.5,
            )


def dense_nested_reference(u: np.ndarray, labels, mu: float) -> np.ndarray:
    """Two-level shares by the per-nest logsumexp formula on a dense block whose
    last column is the outside option (its own nest, mu 1), -inf off the
    consideration sets: with I_ib = logsumexp_{k in b} u_ik/mu_b,
    a_ik = softmax_{k in b}(u_ik/mu_b) softmax_b(mu_b I_ib). Both softmaxes
    subtract their maximum, as any evaluation must that is exact to 1e-14 at
    |u| = 700 (exp(x - logsumexp) there carries 700 x eps)."""
    names = list(dict.fromkeys(labels))
    nest = np.array([names.index(lab) for lab in labels] + [len(names)])
    mus = np.array([mu] * len(names) + [1.0])
    within, logits = [], np.full((len(u), len(mus)), -np.inf)
    for b, mu_b in enumerate(mus):
        v = np.where(nest == b, u, -np.inf) / mu_b
        has = np.isfinite(v).any(axis=1)
        top = np.where(has, v.max(axis=1), 0.0)
        e = np.exp(v - top[:, None])  # 0 off nest b and off the sets
        total = np.where(has, e.sum(axis=1), 1.0)
        within.append(e / total[:, None])
        logits[:, b] = np.where(has, mu_b * (top + np.log(total)), -np.inf)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    nest_share = e / e.sum(axis=1, keepdims=True)
    return sum(w * nest_share[:, [b]] for b, w in enumerate(within))


class TestPairShareKernel:
    """The pair kernel against :func:`dense_nested_reference`, on a block with a
    consumer who considers no store of one nest, one who considers no store at
    all, utilities up to |u| = 700 and non-unit weights. A RuntimeWarning fails
    the suite."""

    LABELS = ["n0", "n1", "n2"] * 3

    @pytest.fixture(scope="class")
    def block(self):
        rng = np.random.default_rng(2024)
        labels = np.array(self.LABELS)
        n, m = 8, len(labels)
        considered = rng.uniform(size=(n, m)) < 0.6
        u = rng.normal(0.0, 1.5, (n, m))
        u[2, :3], u[3, 3:6], u[4, [0, 4, 8]] = 700.0, -700.0, (699.5, -690.0, 2.0)
        considered[2:5] = True
        considered[0, labels == "n1"] = False  # no store in nest n1
        considered[1] = False  # no store at all: all spending goes outside
        u = np.column_stack([np.where(considered, u, -np.inf), np.zeros(n)])
        weights, budgets = rng.uniform(0.2, 3.0, n), rng.uniform(1.0, 5.0, n)
        return u, considered, weights, budgets

    @pytest.mark.parametrize("mu", [0.05, 0.2, 0.46, 1.0])
    def test_shares_match_dense_reference(self, block, mu):
        u = block[0]
        pairs = ces._pair_layout(np.isfinite(u), ces._nest_columns(self.LABELS))
        got = np.zeros_like(u)
        got[pairs.rows, pairs.cols] = ces._nested_share_rows(u[pairs.rows, pairs.cols], pairs, mu)
        want = dense_nested_reference(u, self.LABELS, mu)
        np.testing.assert_array_equal(got == 0.0, want == 0.0)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)
        assert got[1, -1] == 1.0 and not got[0, 1::3].any()

    @pytest.mark.parametrize("mu", [0.05, 0.2, 0.46, 1.0])
    def test_weighted_fitter_revenues_match_dense_reference(self, block, mu):
        """``_model_revenues`` on a design whose first covariate is u (theta = (1, 0))."""
        u, considered, weights, budgets = block
        rng = np.random.default_rng(7)
        design = np.stack([np.where(considered, u[:, :-1], 0.0),
                           rng.normal(size=considered.shape)], axis=2)
        data = fitting._prepare(design, budgets, self.LABELS, considered, weights)
        got = fitting._model_revenues(np.array([1.0, 0.0]), mu, *data)
        wb = weights * budgets
        want = wb @ dense_nested_reference(u, self.LABELS, mu)[:, :-1]
        np.testing.assert_array_equal(got == 0.0, want == 0.0)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14 * wb.sum())


class TestEconomyIO:
    def test_shares_and_utilities_exclusive(self):
        with pytest.raises(InputValidationError, match="exactly one"):
            ces.economy_from_dict({
                "eta": 4.0,
                "consumers": [{"id": "c", "budget": 1.0,
                               "shares": {"A": 0.5, OUTSIDE: 0.5},
                               "utilities": {"A": 0.0}}],
            })

    def test_shares_refused_where_nests_bind(self, staples_economy):
        """Shares are inverted with the softmax, which nests with mu < 1 contradict;
        utilities load at any mu, and shares load at mu = 1."""
        doc = {"eta": 6.0, "nests": {"SP": "a", "OD": "a"}, "mu": 0.2,
               "consumers": [{"id": "rep", "budget": 1.0,
                              "shares": {"SP": 0.473, "OD": 0.316, OUTSIDE: 0.211}}]}
        with pytest.raises(InputValidationError, match="mu = 0.2 < 1"):
            ces.economy_from_dict(doc)
        assert ces.economy_from_dict({**doc, "mu": 1.0}).mu == 1.0
        doc["consumers"] = [{"id": c.id, "budget": c.budget, "utilities": dict(c.utilities)}
                            for c in staples_economy.consumers]
        assert ces.economy_from_dict(doc).mu == 0.2

    def test_mu_without_nests_refused(self):
        """``mu`` is read whether or not ``nests`` is given: mu < 1 with no
        nests is refused, not loaded as plain CES."""
        doc = {"eta": 6.0, "mu": 0.2,
               "consumers": [{"id": "rep", "budget": 1.0, "utilities": {"SP": 0.8, "OD": 0.4}}]}
        with pytest.raises(InputValidationError, match="product SP has no nest label"):
            ces.economy_from_dict(doc)
        with pytest.raises(InputValidationError, match="mu must be in"):
            ces.economy_from_dict({**doc, "mu": 0.0})
        assert ces.economy_from_dict({**doc, "mu": 1.0}).mu == 1.0

    def test_no_consumers(self):
        with pytest.raises(InputValidationError, match="economy has no consumers"):
            CESEconomy((), eta=2.0)

    def test_eta_validation(self):
        with pytest.raises(InputValidationError, match="eta"):
            CESEconomy((Consumer("c", 1.0, {"A": 0.0}),), eta=1.0)

    def test_weights_not_all_zero(self):
        with pytest.raises(InputValidationError, match="weights"):
            CESEconomy((Consumer("c", 1.0, {"A": 0.0}, weight=0.0),), eta=2.0)
