"""Ground-truth equilibria and the screening-accuracy experiment."""

import dataclasses
import functools
import itertools

import numpy as np
import pytest

from uppkit import ces, effects, fitting, harness, simulation
from uppkit.errors import ConvergenceError, InputValidationError
from uppkit.market import MergerSpec, co_ownership
from tests.conftest import solve_pre_merger_equilibrium, spatial_fixture_to_dict


def heterogeneous_ces():
    """Three weighted consumers with consideration sets over four products;
    firm 0 owns two of them. Every product is considered by someone."""
    betas = np.array([[1.6, 1.2, 1.4, 0.9],
                      [0.8, 1.5, 1.1, 1.3],
                      [1.2, 0.7, 1.6, 1.0]])
    consider = np.array([[1, 1, 0, 1],
                         [0, 1, 1, 1],
                         [1, 1, 1, 0]], dtype=bool)
    return harness.CESGroundTruth(betas, budgets=[1.0, 2.5, 1.7], eta=5.0,
                                  weights=[0.5, 1.0, 2.0], consider=consider)


@functools.cache
def hard_ces_market(k):
    """Seeded market k: weighted heterogeneous consumers with consideration
    sets in which every product is considered by someone, firm 0 owning
    products 0 and 1, at its pre-merger equilibrium solved from a cold start."""
    rng = harness.trial_rng(808, k)
    n, j = int(rng.integers(3, 9)), int(rng.integers(4, 7))
    consider = rng.uniform(size=(n, j)) < 0.6
    consider[rng.integers(n, size=j), np.arange(j)] = True
    consider[np.arange(n), rng.integers(j, size=n)] = True
    demand = harness.CESGroundTruth(
        rng.uniform(0.6, 1.8, (n, j)), rng.uniform(0.5, 3.0, n), eta=rng.uniform(4.0, 7.0),
        weights=rng.uniform(0.5, 2.0, n), consider=consider)
    costs = rng.uniform(0.6, 1.4, j)
    prim = harness.SyntheticPrimitives(tuple(f"p{q}" for q in range(j)), demand, costs,
                                       (0, *range(j - 1)), costs * 1.5)
    eq = solve_pre_merger_equilibrium(prim)
    return dataclasses.replace(prim, prices=eq.prices)


def central_differences(fun, x, h):
    """d fun / d x_k by central differences of step h_k, stacked on a last axis."""
    cols = []
    for k in range(len(x)):
        up, down = x.copy(), x.copy()
        up[k] += h[k]
        down[k] -= h[k]
        cols.append((fun(up) - fun(down)) / (2.0 * h[k]))
    return np.stack(cols, axis=-1)


def hard_merger_problem(prim):
    market, _ = harness.observe(prim)
    economy = prim.demand.economy(prim.prices, list(prim.ids))
    return simulation.merger_problem(market, economy, MergerSpec("f0", "f1"))


def ces_duopoly(eta=6.0, betas=((1.4, 1.1),), budgets=(1.0,), costs=(1.0, 1.0)):
    demand = harness.CESGroundTruth(np.array(betas), np.array(budgets), eta)
    return harness.SyntheticPrimitives(
        ids=("A", "B"), demand=demand, costs=np.array(costs),
        ownership=(0, 1), prices=np.array(costs) * 1.4,
    )


class TestBertrandSolver:
    def test_ces_monopolist_lerner(self):
        """Single CES product, one consumer: equilibrium margin is -1/eps with
        eps evaluated at the equilibrium share."""
        demand = harness.CESGroundTruth(np.array([[1.2]]), np.array([1.0]), eta=5.0)
        eq = harness.solve_bertrand(demand, np.array([1.0]), (0,))
        share = demand.share_rows(eq.prices)[0, 0]
        eps = (1.0 - 5.0) * (1.0 - share) - 1.0
        assert eq.margins[0] == pytest.approx(-1.0 / eps, abs=1e-10)
        assert eq.residual < 1e-10

    def test_symmetric_duopoly_equal_prices(self):
        demand = harness.CESGroundTruth(np.array([[1.3, 1.3]]), np.array([1.0]), eta=5.0)
        eq = harness.solve_bertrand(demand, np.array([0.8, 0.8]), (0, 1))
        assert eq.prices[0] == pytest.approx(eq.prices[1], rel=1e-10)

    def test_start_far_outside_the_elastic_region_fails_closed(self):
        """From prices of 1e80 every inside share underflows, so the warm
        start's margin solve is not finite: a ConvergenceError, no warning."""
        demand = harness.CESGroundTruth(np.array([[1.4, 1.1]]), np.array([1.0]), 6.0)
        with pytest.raises(ConvergenceError, match="margin iteration left the elastic region"):
            harness.solve_bertrand(demand, np.ones(2), (0, 1), p0=np.array([1e80, 1e80]))

    def test_step_cap_fails_closed(self):
        demand = harness.CESGroundTruth(np.array([[1.4, 1.1]]), np.array([1.0]), 6.0)
        with pytest.raises(ConvergenceError, match="Bertrand solver stalled at residual"):
            harness.solve_bertrand(demand, np.ones(2), (0, 1), max_iterations=1)

    @pytest.mark.parametrize("model", ["ces", "logit"])
    def test_random_four_product_market(self, model, monkeypatch):
        monkeypatch.setattr(harness, "N_PRODUCTS_RANGE", (4, 4))
        config = harness.HarnessConfig(seed=99, n_markets=1, model=model)
        prim, _ = harness.random_primitives(config, 0)
        eq = solve_pre_merger_equilibrium(prim)
        assert eq.residual < 1e-10
        np.testing.assert_allclose(eq.prices, prim.prices, rtol=1e-8)

    @pytest.mark.parametrize("model", ["ces", "logit"])
    def test_residual_evaluations_scale_with_iterations_not_products(self, model, monkeypatch):
        """With the analytic Jacobian each Newton step evaluates the pricing
        conditions about once; central differences would take 2J = 12 more."""
        monkeypatch.setattr(harness, "N_PRODUCTS_RANGE", (6, 6))
        config = harness.HarnessConfig(seed=11, n_markets=1, model=model)
        prim, pair = harness.random_primitives(config, 0)
        calls, residual = [], harness._margin_residual

        def counting(*args, **kw):
            calls.append(1)
            return residual(*args, **kw)

        monkeypatch.setattr(harness, "_margin_residual", counting)
        eq, _ = harness.solve_post_merger_equilibrium(prim, pair)
        newton_steps = eq.iterations - 1
        assert newton_steps > 0
        assert len(calls) <= 1 + 3 * newton_steps

    def test_generator_prices_are_equilibrium(self):
        """The inverse-design construction puts the drawn prices exactly on the
        pricing conditions, for both models and every criterion-10 draw
        (seed 11); the experiment's check (below 1e-10) then never fires on them."""
        for (seed, n_markets), model in itertools.product(((1, 5), (11, 200)), ("ces", "logit")):
            config = harness.HarnessConfig(seed=seed, n_markets=n_markets, model=model)
            for trial in range(n_markets):
                prim, _ = harness.random_primitives(config, trial)
                res = harness._margin_residual(prim.demand, prim.prices, prim.costs,
                                               co_ownership(prim.ownership))
                assert np.max(np.abs(res)) < 1e-12, (seed, model, trial)


class TestGroundTruthDerivatives:
    """Analytic ground-truth derivatives against central differences."""

    def test_quantity_jacobian_and_outside_slope_match_fd(self):
        """In price, on weighted CES consumers with consideration sets and on
        logit: the quantities, quantity Jacobian and Hessian from ``derivatives``,
        and the CES outside column of ``observe``."""
        p = np.array([1.3, 0.9, 1.6, 1.1])
        h = 1e-6 * p
        ces_demand = heterogeneous_ces()
        logit = harness.LogitGroundTruth(np.array([1.0, 0.4, 1.5, 0.2]), 1.3)
        for demand in (ces_demand, logit):
            q, jac, hessian = demand.derivatives(p)
            np.testing.assert_allclose(q, demand.quantities(p), rtol=1e-15, atol=0.0)
            np.testing.assert_allclose(jac, central_differences(demand.quantities, p, h),
                                       rtol=1e-7, atol=1e-10)
            hess = hessian()
            np.testing.assert_allclose(
                hess, central_differences(lambda x: demand.derivatives(x)[1], p, h),
                rtol=0.0, atol=1e-7 * np.max(np.abs(hess)))
        wb = ces_demand.weights * ces_demand.budgets
        fd_slope = central_differences(
            lambda x: wb @ (1.0 - ces_demand.share_rows(x).sum(axis=1)), p, h)
        own_slope = np.diag(central_differences(ces_demand.revenues, p, h))
        prim = harness.SyntheticPrimitives(("A", "B", "C", "D"), ces_demand, 0.5 * p,
                                           (0, 0, 1, 2), p)
        _, diversion = harness.observe(prim)
        np.testing.assert_allclose(diversion.outside, -fd_slope / own_slope,
                                   rtol=1e-7, atol=1e-10)

    @pytest.mark.parametrize("source", ["ces", "logit", "hard_ces"])
    def test_margin_residual_jacobian_matches_fd(self, source):
        """d r / d log p of the margin-form pricing conditions under post-merger
        ownership, at log prices moved 0.05 off the drawn (or solved) ones: 20
        seed-11 draws per model and the six hard CES markets."""
        if source == "hard_ces":
            markets = [(hard_ces_market(k), (0, 1)) for k in range(6)]
        else:
            config = harness.HarnessConfig(seed=11, n_markets=20, model=source)
            markets = [harness.random_primitives(config, t) for t in range(20)]
        for prim, (a, b) in markets:
            co_owned = co_ownership([a if f == b else f for f in prim.ownership])
            x = np.log(prim.prices) + 0.05 * (-1.0) ** np.arange(len(prim.ids))

            def residual(x, prim=prim, co_owned=co_owned):
                return harness._margin_residual(prim.demand, np.exp(x), prim.costs, co_owned)

            r, jacobian = harness._margin_residual(prim.demand, np.exp(x), prim.costs, co_owned,
                                                   jacobian=True)
            jac = jacobian()
            np.testing.assert_array_equal(r, residual(x))
            np.testing.assert_allclose(jac, central_differences(residual, x, np.full(len(x), 1e-6)),
                                       rtol=0.0, atol=1e-6 * np.max(np.abs(jac)))

    def test_one_share_evaluation_per_price_vector(self, monkeypatch):
        """``_margin_residual``, with and without its Jacobian, and ``observe``
        each evaluate the ground-truth shares once, for both models."""
        for model in ("ces", "logit"):
            config = harness.HarnessConfig(seed=11, n_markets=1, model=model)
            prim, (a, b) = harness.random_primitives(config, 0)
            co_owned = co_ownership([a if f == b else f for f in prim.ownership])
            calls, share_rows = [], type(prim.demand).share_rows

            def counting(demand, prices, share_rows=share_rows):
                calls.append(1)
                return share_rows(demand, prices)

            monkeypatch.setattr(type(prim.demand), "share_rows", counting)
            for jacobian in (True, False):
                harness._margin_residual(prim.demand, prim.prices, prim.costs, co_owned,
                                         jacobian=jacobian)
                assert len(calls) == 1, (model, jacobian)
                calls.clear()
            harness.observe(prim)
            assert len(calls) == 1, model

    @pytest.mark.parametrize("model", ["ces", "logit"])
    def test_one_hessian_per_newton_step(self, model, monkeypatch):
        """Over the post-merger solves of six seeded markets, the quantity
        Hessian is built once per Newton step: never at a rejected trial point,
        the returned root or the warm start."""
        config = harness.HarnessConfig(seed=11, n_markets=6, model=model)
        markets = [harness.random_primitives(config, t) for t in range(6)]
        cls = type(markets[0][0].demand)
        derivatives, builds = cls.derivatives, []

        def counting(demand, prices):
            q, jac, hessian = derivatives(demand, prices)
            return q, jac, lambda: builds.append(1) or hessian()

        monkeypatch.setattr(cls, "derivatives", counting)
        steps = sum(harness.solve_post_merger_equilibrium(prim, pair)[0].iterations - 1
                    for prim, pair in markets)  # less the warm-start step
        assert steps >= 6 and len(builds) == steps


class TestGroundTruthValidation:
    def test_ces_qualities_must_be_positive(self):
        with pytest.raises(InputValidationError, match="qualities must be positive"):
            harness.CESGroundTruth(np.array([[1.0, 0.0]]), np.ones(1), 4.0)

    def test_ces_eta_above_one(self):
        with pytest.raises(InputValidationError, match="eta must be > 1"):
            harness.CESGroundTruth(np.ones((1, 2)), np.ones(1), 1.0)

    def test_logit_price_coefficient_positive(self):
        with pytest.raises(InputValidationError, match="price coefficient must be positive"):
            harness.LogitGroundTruth(np.zeros(2), 0.0)


class TestPostMerger:
    def test_no_ownership_change_zero_effect(self):
        prim = ces_duopoly()
        pre = solve_pre_merger_equilibrium(prim)
        prim = harness.SyntheticPrimitives(prim.ids, prim.demand, prim.costs,
                                           prim.ownership, pre.prices)
        _, pdd = harness.solve_post_merger_equilibrium(prim, (0, 0))
        np.testing.assert_allclose(pdd, 0.0, atol=1e-9)

    def test_logit_symmetric_merger_raises_prices(self):
        demand = harness.LogitGroundTruth(np.array([1.0, 1.0]), price_coef=1.0)
        costs = np.array([1.0, 1.0])
        pre = harness.solve_bertrand(demand, costs, (0, 1))
        prim = harness.SyntheticPrimitives(("A", "B"), demand, costs, (0, 1), pre.prices)
        _, pdd = harness.solve_post_merger_equilibrium(prim, (0, 1))
        assert np.all(pdd > 0.0)
        assert pdd[0] == pytest.approx(pdd[1], rel=1e-8)

    def test_efficiencies_lower_post_prices(self):
        prim = ces_duopoly()
        pre = solve_pre_merger_equilibrium(prim)
        prim = harness.SyntheticPrimitives(prim.ids, prim.demand, prim.costs,
                                           prim.ownership, pre.prices)
        _, pdd_bare = harness.solve_post_merger_equilibrium(prim, (0, 1))
        _, pdd_eff = harness.solve_post_merger_equilibrium(
            prim, (0, 1), efficiencies={0: -0.2, 1: -0.2})
        assert np.all(pdd_eff < pdd_bare)


class TestObservation:
    def test_end_to_end_guppi_identification(self):
        """GUPPI from the observable slice equals the direct price/quantity
        evaluation cdd(1-m) + sum m_k D_{j->k} p_k/p_j at the true equilibrium."""
        for trial in range(6):
            config = harness.HarnessConfig(seed=21, n_markets=6, model="ces")
            prim, pair = harness.random_primitives(config, trial)
            eq = solve_pre_merger_equilibrium(prim)
            market, diversion = harness.observe(prim, eq.prices)
            merger = MergerSpec(f"f{pair[0]}", f"f{pair[1]}")
            g = effects.guppi(market, diversion, merger)

            co_owned = np.zeros((len(prim.ids),) * 2, dtype=bool)
            co_owned[pair, pair[::-1]] = True
            q, jac, _ = prim.demand.derivatives(eq.prices)
            _, cross = harness._cross_weights(q, jac, eq.prices, co_owned)
            for j, k in (pair, pair[::-1]):
                pid = prim.ids[j]
                direct = eq.margins[k] * cross[j, k]  # m_k D_jk p_k / p_j
                assert g[pid] == pytest.approx(direct, abs=1e-8)

    def test_elasticity_identities_at_equilibrium(self):
        """Finite differences at every solved equilibrium: eps^R = eps + 1 and
        the revenue/quantity diversion bridge, to 1e-5 relative."""
        config = harness.HarnessConfig(seed=33, n_markets=3, model="ces")
        for trial in range(3):
            prim, _ = harness.random_primitives(config, trial)
            eq = solve_pre_merger_equilibrium(prim)
            p = eq.prices
            n = len(p)
            market, diversion = harness.observe(prim, p)
            for j in range(n):
                h = 1e-5 * p[j]
                up, dn = p.copy(), p.copy()
                up[j] += h
                dn[j] -= h
                dq = (prim.demand.quantities(up) - prim.demand.quantities(dn)) / (2 * h)
                dr = (prim.demand.revenues(up) - prim.demand.revenues(dn)) / (2 * h)
                q = prim.demand.quantities(p)
                r = prim.demand.revenues(p)
                eps_q = dq[j] * p[j] / q[j]
                eps_r = dr[j] * p[j] / r[j]
                assert eps_r == pytest.approx(eps_q + 1.0, rel=1e-5)
                for k in range(n):
                    if k == j:
                        continue
                    d_r_fd = -dr[k] / dr[j]
                    d_q_fd = -dq[k] / dq[j]
                    assert diversion.get(prim.ids[j], prim.ids[k]) == pytest.approx(
                        d_r_fd, rel=1e-5, abs=1e-12
                    )
                    assert d_q_fd * p[k] / p[j] / (1 + 1 / eps_q) == pytest.approx(
                        d_r_fd, rel=1e-5, abs=1e-12)

    def test_ces_outside_column_completes_rows(self):
        prim = ces_duopoly()
        eq = solve_pre_merger_equilibrium(prim)
        _, diversion = harness.observe(prim, eq.prices)
        totals = diversion.values.sum(axis=1) + 1.0 + diversion.outside
        np.testing.assert_allclose(totals, 1.0, atol=1e-10)


class TestCrossModuleEquivalence:
    def test_true_equilibrium_matches_percentage_space_simulation(self):
        """Key oracle: the percentage-space simulation on the observable slice
        reproduces the true post-merger price changes of the priced model."""
        eta = 6.0
        demand = harness.CESGroundTruth(np.array([[2.2, 1.5]]), np.array([2.05]), eta)
        costs = np.array([1.0, 0.9])
        pre = harness.solve_bertrand(demand, costs, (0, 1))
        prim = harness.SyntheticPrimitives(("SP", "OD"), demand, costs, (0, 1), pre.prices)
        _, pdd_true = harness.solve_post_merger_equilibrium(prim, (0, 1))

        market, _ = harness.observe(prim, pre.prices)
        economy = prim.demand.economy(pre.prices, ["SP", "OD"])
        problem = simulation.merger_problem(market, economy, MergerSpec("f0", "f1"))
        result = simulation.simulate(problem)
        assert result.converged
        # consistent inputs: agreement far tighter than the 5e-3 band
        assert result.price_changes["SP"] == pytest.approx(pdd_true[0], abs=1e-8)
        assert result.price_changes["OD"] == pytest.approx(pdd_true[1], abs=1e-8)
        assert not any("not self-consistent" in w for w in result.warnings)

    @pytest.mark.parametrize("trial", range(4))
    def test_random_markets_agree(self, trial):
        config = harness.HarnessConfig(seed=71, n_markets=4, model="ces")
        prim, pair = harness.random_primitives(config, trial)
        eq = solve_pre_merger_equilibrium(prim)
        _, pdd_true = harness.solve_post_merger_equilibrium(prim, pair)
        market, _ = harness.observe(prim, eq.prices)
        economy = prim.demand.economy(eq.prices, list(prim.ids))
        merger = MergerSpec(f"f{pair[0]}", f"f{pair[1]}")
        result = simulation.simulate(simulation.merger_problem(market, economy, merger))
        assert result.converged
        for j, pid in enumerate(prim.ids):
            assert result.price_changes[pid] == pytest.approx(pdd_true[j], abs=1e-8)

    def test_every_criterion_10_ces_trial_agrees(self):
        """The same oracle on the full criterion-10 CES experiment (seed 11):
        every trial that did not fail, every scored product."""
        config = harness.HarnessConfig(seed=11, n_markets=200, model="ces")
        experiment = harness.run_accuracy_experiment(config)
        scored = {}
        for r in experiment.records:
            scored.setdefault(r.trial_id, {})[r.product_id] = r.true_pdd
        assert len(scored) + len(experiment.failures) == config.n_markets
        for trial, true_pdd in scored.items():
            prim, pair = harness.random_primitives(config, trial)
            market, _ = harness.observe(prim)
            economy = prim.demand.economy(prim.prices, list(prim.ids))
            merger = MergerSpec(f"f{pair[0]}", f"f{pair[1]}")
            result = simulation.simulate(simulation.merger_problem(market, economy, merger))
            assert result.converged, trial
            for pid, pdd in true_pdd.items():
                assert result.price_changes[pid] == pytest.approx(pdd, abs=1e-8), (trial, pid)

    def test_heterogeneous_multiproduct_market_agrees(self):
        """Both solvers share the root finder, so the oracle rests on the two
        residuals: check them on a seeded batch of markets with weighted
        consumers, consideration sets and a two-product merging firm."""
        for k in range(6):
            prim = hard_ces_market(k)
            _, pdd_true = harness.solve_post_merger_equilibrium(prim, (0, 1))
            assert np.all(pdd_true[:3] > 1e-3), k
            result = simulation.simulate(hard_merger_problem(prim))
            assert result.converged, k
            assert not result.warnings, k
            for j, pid in enumerate(prim.ids):
                assert result.price_changes[pid] == pytest.approx(pdd_true[j], abs=1e-8), (k, pid)

    @pytest.mark.parametrize("k", range(6))
    def test_foc_jacobian_matches_fd_at_the_true_root(self, k):
        """At the Bertrand post-merger root, read in percentage space, the
        simulation's pricing conditions vanish and their closed-form Jacobian
        matches central differences."""
        prim = hard_ces_market(k)
        _, pdd_true = harness.solve_post_merger_equilibrium(prim, (0, 1))
        problem = hard_merger_problem(prim)
        pos = {pid: j for j, pid in enumerate(prim.ids)}
        pdd = pdd_true[[pos[pid] for pid in problem.order]]
        f, jacobian = simulation.foc_residual(problem, pdd, jacobian=True)
        jac = jacobian()
        assert np.max(np.abs(f)) < 1e-8
        fd = np.empty_like(jac)
        for q in range(len(pdd)):
            h = 1e-6 * (1.0 + pdd[q])
            up, down = pdd.copy(), pdd.copy()
            up[q] += h
            down[q] -= h
            fd[:, q] = (simulation.foc_residual(problem, up)
                        - simulation.foc_residual(problem, down)) / (2.0 * h)
        np.testing.assert_allclose(jac, fd, rtol=0.0, atol=1e-6 * np.max(np.abs(jac)))


class TestCmcrRoundTrip:
    @pytest.mark.parametrize("trial", range(5))
    def test_applying_cmcr_freezes_prices(self, trial):
        """Feed the screening CMCR back into the true cost vector: the
        post-merger equilibrium reproduces pre-merger prices to 1e-6."""
        config = harness.HarnessConfig(seed=55, n_markets=5, model="ces")
        prim, pair = harness.random_primitives(config, trial)
        eq = solve_pre_merger_equilibrium(prim)
        market, diversion = harness.observe(prim, eq.prices)
        merger = MergerSpec(f"f{pair[0]}", f"f{pair[1]}")
        res = effects.cmcr(market, diversion, merger)
        pos = {pid: j for j, pid in enumerate(prim.ids)}
        eff = {pos[pid]: cdd for pid, cdd in res.efficiencies.items()}
        _, pdd = harness.solve_post_merger_equilibrium(prim, pair, efficiencies=eff)
        np.testing.assert_allclose(pdd, 0.0, atol=1e-6)


class TestMultiProductFirms:
    def multiproduct_primitives(self):
        demand = harness.CESGroundTruth(
            np.array([[1.8, 1.2, 1.5]]), np.array([1.0]), eta=5.5
        )
        costs = np.array([1.0, 0.8, 1.1])
        eq = harness.solve_bertrand(demand, costs, (0, 0, 1))
        return harness.SyntheticPrimitives(("A", "B", "C"), demand, costs, (0, 0, 1),
                                           eq.prices), eq

    def test_identified_elasticities_match_truth(self):
        """Within-firm margin/diversion sums recover the analytic own-price
        elasticities for the two-product firm too."""
        prim, eq = self.multiproduct_primitives()
        market, diversion = harness.observe(prim, eq.prices)
        merger = MergerSpec("f0", "f1")
        eps_hat = effects.own_price_elasticities(market, diversion, merger)
        q, jac, _ = prim.demand.derivatives(eq.prices)
        for j, pid in enumerate(prim.ids):
            eps_true = jac[j, j] * eq.prices[j] / q[j]
            assert eps_hat[pid] == pytest.approx(eps_true, rel=1e-9)

    def test_cmcr_round_trip_with_multiproduct_firm(self):
        prim, eq = self.multiproduct_primitives()
        market, diversion = harness.observe(prim, eq.prices)
        res = effects.cmcr(market, diversion, MergerSpec("f0", "f1"))
        eff = {j: res.efficiencies[pid] for j, pid in enumerate(prim.ids)}
        _, pdd = harness.solve_post_merger_equilibrium(prim, (0, 1), efficiencies=eff)
        np.testing.assert_allclose(pdd, 0.0, atol=1e-6)

    def test_simulation_matches_truth(self):
        prim, eq = self.multiproduct_primitives()
        _, pdd_true = harness.solve_post_merger_equilibrium(prim, (0, 1))
        market, _ = harness.observe(prim, eq.prices)
        economy = prim.demand.economy(eq.prices, list(prim.ids))
        result = simulation.simulate(
            simulation.merger_problem(market, economy, MergerSpec("f0", "f1")))
        assert result.converged
        for j, pid in enumerate(prim.ids):
            assert result.price_changes[pid] == pytest.approx(pdd_true[j], abs=1e-8)


class TestAccuracyExperiment:
    def test_ces_underprediction(self):
        result = harness.run_accuracy_experiment(
            harness.HarnessConfig(seed=17, n_markets=40, model="ces"))
        assert result.summary["n_failed"] == 0
        assert result.summary["share_conservative"] >= 0.95

    def test_logit_accuracy(self):
        result = harness.run_accuracy_experiment(
            harness.HarnessConfig(seed=17, n_markets=40, model="logit"))
        assert result.summary["median_relative_error"] < 0.15

    def test_same_seed_identical_output(self):
        config = harness.HarnessConfig(seed=9, n_markets=8, model="ces")
        a = harness.run_accuracy_experiment(config)
        b = harness.run_accuracy_experiment(config)
        assert list(a.to_csv_rows()) == list(b.to_csv_rows())

    def test_config_validation(self):
        with pytest.raises(InputValidationError):
            harness.HarnessConfig(seed=1, model="blp")
        with pytest.raises(InputValidationError, match="n_markets"):
            harness.HarnessConfig(seed=1, n_markets=0)
        with pytest.raises(InputValidationError, match="seed"):
            harness.HarnessConfig(seed=-1)

    def test_no_records_summary_is_null(self, monkeypatch):
        def fail(config, trial):
            raise ConvergenceError("stalled")

        monkeypatch.setattr(harness, "_run_trial", fail)
        result = harness.run_accuracy_experiment(harness.HarnessConfig(seed=1, n_markets=2))
        assert result.failures == (0, 1)
        assert result.failure_reasons == {0: "stalled", 1: "stalled"}
        assert result.summary["share_conservative"] is None
        assert result.summary["median_relative_error"] is None

    def test_csv_rows_round_trip_floats(self):
        result = harness.run_accuracy_experiment(
            harness.HarnessConfig(seed=2, n_markets=2, model="ces"))
        rows = list(result.to_csv_rows())
        header, first = rows[0], rows[1]
        rec = dict(zip(header, first))
        assert float(rec["guppi"]) == result.records[0].guppi


def count_bertrand_solves(monkeypatch):
    calls = []
    solve = harness.solve_bertrand

    def counted(*args, **kw):
        calls.append(1)
        return solve(*args, **kw)

    monkeypatch.setattr(harness, "solve_bertrand", counted)
    return calls


class TestTrialRecipe:
    """Each trial checks the drawn pre-merger prices and solves only the
    post-merger market, stacked with the other markets of its size."""

    @pytest.mark.parametrize("model", ["ces", "logit"])
    def test_one_bertrand_solve_per_market_size(self, model, monkeypatch):
        calls = count_bertrand_solves(monkeypatch)
        config = harness.HarnessConfig(seed=12, n_markets=10, model=model)
        result = harness.run_accuracy_experiment(config)
        assert result.failures == ()
        sizes = {len(harness.random_primitives(config, t)[0].ids) for t in range(10)}
        assert len(calls) == len(sizes) > 1

    @pytest.mark.parametrize("model", ["ces", "logit"])
    def test_matches_the_re_solving_recipe(self, model):
        """Oracle: re-solve the pre-merger equilibrium from a cold start,
        observe and screen there, then solve post-merger alone. The
        post-merger solve starts from the drawn prices either way and a
        stacked market takes its lone path, so the truth is bitwise equal;
        the screening moves only by the re-solve's error."""
        config = harness.HarnessConfig(seed=11, n_markets=20, model=model)
        experiment = harness.run_accuracy_experiment(config)
        for trial in range(config.n_markets):
            prim, pair = harness.random_primitives(config, trial)
            eq = solve_pre_merger_equilibrium(prim)
            market, diversion = harness.observe(prim, eq.prices)
            merger = MergerSpec(f"f{pair[0]}", f"f{pair[1]}")
            g = effects.guppi(market, diversion, merger)
            c = effects.cmcr(market, diversion, merger).efficiencies
            _, pdd_true = harness.solve_post_merger_equilibrium(prim, pair)
            records = [r for r in experiment.records if r.trial_id == trial]
            assert [r.product_id for r in records] == list(g)
            for r in records:
                j = prim.ids.index(r.product_id)
                assert r.true_pdd == float(pdd_true[j])
                assert r.guppi == pytest.approx(g[r.product_id], rel=0.0, abs=1e-9)
                assert r.predicted_pdd == pytest.approx(g[r.product_id], rel=0.0, abs=1e-9)
                assert r.cmcr == pytest.approx(c[r.product_id], rel=0.0, abs=1e-9)

    def test_off_equilibrium_draw_fails_pre_merger(self, monkeypatch):
        draw = harness.random_primitives

        def off_equilibrium(config, trial):
            prim, pair = draw(config, trial)
            return dataclasses.replace(prim, prices=prim.prices * 1.01), pair

        monkeypatch.setattr(harness, "random_primitives", off_equilibrium)
        calls = count_bertrand_solves(monkeypatch)
        result = harness.run_accuracy_experiment(harness.HarnessConfig(seed=3, n_markets=2))
        assert result.records == ()
        assert result.failures == (0, 1)
        assert all(reason.startswith("pre-merger: drawn prices miss the pricing conditions by ")
                   for reason in result.failure_reasons.values())
        assert calls == []

    def test_post_merger_failure_reason(self, monkeypatch):
        def stall(*args, **kw):
            raise ConvergenceError("Bertrand solver stalled at residual 1.000e-03")

        monkeypatch.setattr(harness, "solve_bertrand", stall)
        result = harness.run_accuracy_experiment(harness.HarnessConfig(seed=3, n_markets=2))
        assert result.failure_reasons == {
            t: "post-merger: Bertrand solver stalled at residual 1.000e-03" for t in (0, 1)}
        assert result.summary["n_failed"] == 2


    @pytest.mark.parametrize("kwargs, reason", [
        ({"max_iterations": 1}, "post-merger: Bertrand solver stalled at residual "),
        ({"p0": np.array([1e80] * 6)}, "post-merger: margin iteration left the elastic region"),
    ], ids=["stalled", "inelastic"])
    def test_real_solver_failure_is_filed_with_its_stage(self, kwargs, reason, monkeypatch):
        """The solver's own failure exits, not a stub: each failed trial is
        dropped and its reason filed under its stage."""
        solve = harness.solve_bertrand
        monkeypatch.setattr(harness, "N_PRODUCTS_RANGE", (6, 6))
        monkeypatch.setattr(harness, "solve_bertrand",
                            lambda *args, **kw: solve(*args, **{**kw, **kwargs}))
        result = harness.run_accuracy_experiment(harness.HarnessConfig(seed=3, n_markets=2))
        assert result.records == () and result.failures == (0, 1)
        assert all(r.startswith(reason) for r in result.failure_reasons.values())


def stacked_markets(seed, model, n_markets, size=None):
    """Seeded criterion-10 draws grouped by size, as the experiment stacks
    them: {size: [(primitives, pair), ...]}, or one size's list."""
    config = harness.HarnessConfig(seed=seed, n_markets=n_markets, model=model)
    groups = {}
    for trial in range(n_markets):
        prim, pair = harness.random_primitives(config, trial)
        groups.setdefault(len(prim.ids), []).append((prim, pair))
    return groups if size is None else groups[size]


def solve_stack(markets, p0=None, **kwargs):
    """``solve_bertrand`` on the post-merger stack of ``markets``, from the
    drawn prices unless ``p0`` is given."""
    return harness.solve_bertrand(
        harness._stack([prim.demand for prim, _ in markets]),
        np.stack([prim.costs for prim, _ in markets]),
        [harness._merged(prim.ownership, pair) for prim, pair in markets],
        p0=np.stack([prim.prices for prim, _ in markets]) if p0 is None else p0, **kwargs)


def lone_outcome(prim, pair, **kwargs):
    """A lone post-merger solve: its Equilibrium, or its ConvergenceError text."""
    try:
        return harness.solve_bertrand(prim.demand, prim.costs,
                                      harness._merged(prim.ownership, pair), **kwargs)
    except ConvergenceError as err:
        return str(err)


class TestStackedSolve:
    """Post-merger markets of one size solved as one stack: each market takes
    the path it takes alone."""

    @pytest.mark.parametrize("model", ["ces", "logit"])
    def test_stack_matches_lone_solves(self, model):
        """On the 200 seed-11 draws: the same Newton steps, CES prices bitwise
        equal and logit prices within 4 ulps."""
        for markets in stacked_markets(11, model, 200).values():
            eq = solve_stack(markets)
            lone = [harness.solve_post_merger_equilibrium(prim, pair)[0] for prim, pair in markets]
            assert eq.failures == {}
            assert eq.iterations == sum(e.iterations for e in lone)
            prices = np.stack([e.prices for e in lone])
            if model == "ces":
                np.testing.assert_array_equal(eq.prices, prices)
            else:
                np.testing.assert_array_max_ulp(eq.prices, prices, maxulp=4)
            np.testing.assert_array_equal(eq.residual, [e.residual for e in lone])

    @pytest.mark.parametrize("model", ["ces", "logit"])
    def test_step_counts_per_market(self, model, monkeypatch):
        """Each market's Newton steps in the stack are those of its lone solve."""
        markets = stacked_markets(11, model, 40, size=4)
        batches, newton = [], harness.damped_newton
        monkeypatch.setattr(harness, "damped_newton",
                            lambda *a, **kw: batches.append(newton(*a, **kw)) or batches[-1])
        solve_stack(markets)
        (batch,) = batches
        for k, (prim, pair) in enumerate(markets):
            alone = harness.solve_post_merger_equilibrium(prim, pair)[0]
            assert batch.iterations[k] == alone.iterations - 1 and batch.converged[k]

    @pytest.mark.parametrize("model", ["ces", "logit"])
    def test_stalled_first_market_leaves_the_others_to_their_lone_solves(self, model):
        """With one Newton step allowed, the first market and the fourth, from
        their drawn prices, stall and end the batch; the others start at
        their own roots. Every market comes out as it does alone, the stalled
        ones with the lone solve's message."""
        markets = stacked_markets(11, model, 60, size=3)[:8]
        roots = [harness.solve_post_merger_equilibrium(prim, pair)[0].prices
                 for prim, pair in markets]
        p0 = np.stack([prim.prices if k in (0, 3) else roots[k]
                       for k, (prim, _) in enumerate(markets)])
        eq = solve_stack(markets, p0=p0, max_iterations=1)
        assert set(eq.failures) == {0, 3}
        for k, (prim, pair) in enumerate(markets):
            lone = lone_outcome(prim, pair, p0=p0[k], max_iterations=1)
            if k in eq.failures:
                assert eq.failures[k] == lone
                assert lone.startswith("Bertrand solver stalled at residual ")
                assert np.isnan(eq.prices[k]).all()
            else:
                np.testing.assert_array_equal(eq.prices[k], lone.prices)
                assert eq.residual[k] == lone.residual

    @pytest.mark.parametrize("model", ["ces", "logit"])
    def test_warm_start_outside_the_elastic_region_fails_one_market(self, model):
        markets = stacked_markets(11, model, 60, size=3)[:8]
        p0 = np.stack([prim.prices for prim, _ in markets])
        p0[0] = 1e80
        eq = solve_stack(markets, p0=p0)
        assert eq.failures == {0: "margin iteration left the elastic region"}
        assert lone_outcome(*markets[0], p0=p0[0]) == eq.failures[0]
        for k, (prim, pair) in enumerate(markets[1:], start=1):
            lone = harness.solve_post_merger_equilibrium(prim, pair)[0]
            np.testing.assert_array_equal(eq.prices[k], lone.prices)


@pytest.mark.parametrize("model", ["ces", "logit"])
def test_a_trial_does_not_depend_on_the_other_trials(model):
    """The first 10 trials of a 40-market experiment give the records and
    failures of a 10-market one, byte for byte, though their stacks differ."""
    short, full = (harness.run_accuracy_experiment(harness.HarnessConfig(seed=11, n_markets=n,
                                                                         model=model))
                   for n in (10, 40))
    rows = list(full.to_csv_rows())
    assert list(short.to_csv_rows()) == [rows[0]] + [r for r in rows[1:] if r[0] < 10]
    assert short.failure_reasons == {t: r for t, r in full.failure_reasons.items() if t < 10}


class TestSpatialFixture:
    def test_out_of_radius_store_has_zero_revenue(self):
        fx = fitting.generate_spatial_fixture(
            fitting.SpatialConfig(seed=31, n_tracts=10, n_stores=8, radius=3.0,
                                  extent=60.0)
        )
        orphan = [s for j, s in enumerate(fx.store_ids) if not fx.mask[:, j].any()]
        if not orphan:
            pytest.skip("no orphan store in this draw")
        for sid in orphan:
            assert fx.revenues[sid] == 0.0

    def test_zero_distance_coefficient_equalizes_identical_stores(self):
        """theta_distance = 0 and no size/format variation: revenue differences
        across stores vanish (only location varied)."""
        fx = fitting.generate_spatial_fixture(
            fitting.SpatialConfig(seed=8, n_tracts=30, n_stores=6,
                                  theta=(1.0, 0.0, 0.0, 0.0), radius=1e9)
        )
        rev = np.array([fx.revenues[s] for s in fx.store_ids])
        same_nest = [j for j, s in enumerate(fx.store_ids)
                     if fx.nests[s] == fx.nests[fx.store_ids[0]]]
        np.testing.assert_allclose(rev[same_nest], rev[same_nest][0], rtol=1e-9)

    @pytest.mark.parametrize("config", [
        fitting.SpatialConfig(seed=5, n_tracts=40, n_stores=12, mu=0.46),
        fitting.SpatialConfig(seed=1, n_tracts=30, n_stores=10, radius=8.0, extent=60.0),
        fitting.SpatialConfig(seed=8, n_tracts=20, n_stores=6, mu=1.0),
    ], ids=["nested", "orphan-stores", "plain"])
    def test_revenues_match_the_nested_economy(self, config):
        """The fixture's revenues, from the share kernel on dense arrays, equal
        ``ces.revenues`` of the same tracts as a nested ``CESEconomy``; a store
        no tract considers earns exactly 0."""
        fx = fitting.generate_spatial_fixture(config)
        u = fx.design @ fx.theta
        consumers = tuple(
            ces.Consumer(f"t{i}", float(budget), {sid: float(u[i, j])
                                                  for j, sid in enumerate(fx.store_ids)
                                                  if fx.mask[i, j]})
            for i, budget in enumerate(fx.budgets))
        reference = ces.revenues(ces.CESEconomy(consumers, 5.0, nests=fx.nests, mu=fx.mu))
        np.testing.assert_allclose([fx.revenues[sid] for sid in fx.store_ids],
                                   [reference.get(sid, 0.0) for sid in fx.store_ids],
                                   rtol=1e-12, atol=0.0)

    def test_fixture_file_round_trip(self, tmp_path):
        import json

        fx = fitting.generate_spatial_fixture(
            fitting.SpatialConfig(seed=3, n_tracts=6, n_stores=4))
        path = tmp_path / "fx.json"
        path.write_text(json.dumps(spatial_fixture_to_dict(fx)))
        again = fitting.load_spatial_fixture(path)
        np.testing.assert_array_equal(again.design, fx.design)
        np.testing.assert_array_equal(again.mask, fx.mask)
        assert again.revenues == fx.revenues
        assert again.mu == fx.mu
