"""Merger simulation in percentage-price-change space."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uppkit import ces, simulation
from uppkit import market as mk
from uppkit.ces import CESEconomy, Consumer
from uppkit.errors import InputValidationError
from uppkit.market import OUTSIDE


def self_consistent_market(alpha, eta, ids=None, budget=1.0, revenue_scale=1.0):
    """Single-consumer economy plus the margins its pricing conditions imply
    for single-product firms, so the pre-merger state is an exact equilibrium."""
    n = len(alpha) - 1  # last entry is the outside share
    ids = ids or [f"g{j}" for j in range(n)]
    share_map = dict(zip(ids, alpha[:n]))
    share_map[OUTSIDE] = alpha[n]
    econ = ces.economy_from_shares({"c": share_map}, {"c": budget}, eta=eta)
    eps = ces.own_price_elasticity_of_demand(econ)
    products = tuple(
        mk.Product(pid, f"f{j}", revenue_scale * alpha[j], -1.0 / eps[pid])
        for j, pid in enumerate(ids)
    )
    return mk.Market(products), econ


def merged_problem(market, econ, firm_a="f0", firm_b="f1", efficiencies=None):
    return simulation.merger_problem(market, econ, mk.MergerSpec(firm_a, firm_b,
                                                                 efficiencies or {}))


class TestPostMergerState:
    def test_zero_change_is_identity(self):
        market, econ = self_consistent_market([0.3, 0.25, 0.45], eta=5.0)
        problem = merged_problem(market, econ)
        state = simulation.post_merger_state(problem, np.zeros(2))
        pre_tab = ces.shares(econ)
        np.testing.assert_allclose(state.shares.values, pre_tab.values, atol=1e-14)
        pre_eps = ces.own_price_elasticity_of_demand(econ)
        for pid in problem.order:
            assert state.elasticities[pid] == pytest.approx(pre_eps[pid], abs=1e-14)
            assert state.margins[pid] == pytest.approx(market.product(pid).margin, abs=1e-14)
        pre_div = ces.revenue_diversion(econ)
        np.testing.assert_allclose(state.diversion.values, pre_div.values, atol=1e-14)

    def test_margin_update_formula(self):
        market, econ = self_consistent_market([0.3, 0.25, 0.45], eta=5.0)
        problem = simulation.merger_problem(
            market, econ, mk.MergerSpec("f0", "f1", {"g0": -0.1})
        )
        state = simulation.post_merger_state(problem, np.zeros(2))
        m_pre = market.product("g0").margin
        assert state.margins["g0"] == pytest.approx(1.0 - 0.9 * (1.0 - m_pre), abs=1e-14)

    def test_price_change_below_minus_one_rejected(self):
        market, econ = self_consistent_market([0.3, 0.25, 0.45], eta=5.0)
        problem = merged_problem(market, econ)
        with pytest.raises(InputValidationError, match="exceed -1"):
            simulation.post_merger_state(problem, np.array([-1.0, 0.0]))

    def test_staples_residual_near_paper_root(self, staples_bundle, staples_economy):
        """At the 3-decimal reported solution the conditions are ~2.6e-4 from
        zero (rounding error in the inputs), comfortably below 1e-3."""
        problem = simulation.merger_problem(
            staples_bundle.market, staples_economy, staples_bundle.merger
        )
        res = simulation.foc_residual(problem, {"SP": 0.143, "OD": 0.180})
        assert np.max(np.abs(res)) < 1e-3


def loop_foc_residual(problem, pdd):
    """Reference for foc_residual written product by product from per-consumer
    softmax loops: -1/eps_j - m_j + (1 + 1/eps_j) sum_l m_l D_jl over the
    products l co-owned with j after the merger."""
    econ, order = problem.economy, problem.order
    shift = {pid: (1.0 - econ.eta) * np.log1p(x) for pid, x in zip(order, pdd)}
    alphas, spend = [], []
    for c in econ.consumers:
        z = {pid: np.exp(u + shift.get(pid, 0.0)) for pid, u in c.utilities.items()}
        total = sum(z.values())
        alphas.append({pid: v / total for pid, v in z.items()})
        spend.append(c.weight * c.budget)

    def agg(f):
        return sum(w * f(a) for w, a in zip(spend, alphas))

    margins = {
        pid: 1.0 - (1.0 - problem.market.product(pid).margin)
        * (1.0 + problem.efficiency(pid)) / (1.0 + x)
        for pid, x in zip(order, pdd)
    }
    res = []
    for j in order:
        slope = agg(lambda a: a.get(j, 0.0) * (1.0 - a.get(j, 0.0)))
        eps = (1.0 - econ.eta) * slope / agg(lambda a: a.get(j, 0.0)) - 1.0
        cross = sum(
            margins[l] * agg(lambda a: a.get(j, 0.0) * a.get(l, 0.0)) / slope
            for l in order
            if l != j and problem.post_ownership[l] == problem.post_ownership[j]
        )
        res.append(-1.0 / eps - margins[j] + (1.0 + 1.0 / eps) * cross)
    return np.array(res)


class TestFocResidual:
    def test_matches_per_product_reference(self):
        """Weighted consumers with different consideration sets, a merging firm
        with two products and an efficiency: the masked-matmul residual equals
        the product-by-product formula."""
        econ = CESEconomy((
            Consumer("c0", 2.0, {"A": 0.4, "B": -0.2, "C": 0.1}, 1.0),
            Consumer("c1", 1.0, {"B": 0.6, "C": -0.3, "D": 0.2}, 0.5),
            Consumer("c2", 3.0, {"A": -0.1, "D": 0.5}, 1.5),
        ), eta=4.5)
        market = mk.Market((
            mk.Product("A", "f0", 1.0, 0.30),
            mk.Product("B", "f0", 1.0, 0.25),
            mk.Product("C", "f1", 1.0, 0.40),
            mk.Product("D", "f2", 1.0, 0.35),
        ))
        problem = merged_problem(market, econ, efficiencies={"A": -0.1})
        for pdd in (np.zeros(4), np.array([0.05, 0.1, -0.02, 0.03])):
            np.testing.assert_allclose(
                simulation.foc_residual(problem, pdd), loop_foc_residual(problem, pdd),
                rtol=0.0, atol=1e-13,
            )

    def test_pre_merger_equilibrium_is_root(self):
        """Self-consistent market, unchanged ownership: residual 0 at pdd = 0."""
        market, econ = self_consistent_market([0.3, 0.25, 0.45], eta=5.0)
        problem = simulation.SimulationProblem(
            market, econ, {p.id: p.firm for p in market.products}
        )
        res = simulation.foc_residual(problem, np.zeros(2))
        assert np.max(np.abs(res)) < 1e-10

    def test_no_ownership_change_solves_to_zero(self):
        market, econ = self_consistent_market([0.3, 0.25, 0.45], eta=5.0)
        problem = simulation.SimulationProblem(
            market, econ, {p.id: p.firm for p in market.products}
        )
        result = simulation.simulate(problem)
        assert result.converged
        for v in result.price_changes.values():
            assert v == pytest.approx(0.0, abs=1e-9)


class TestSimulate:
    def test_staples_solution(self, staples_bundle, staples_economy):
        """pdd* = (0.143, 0.180), residual < 1e-10, well under 5 s."""
        problem = simulation.merger_problem(
            staples_bundle.market, staples_economy, staples_bundle.merger
        )
        t0 = time.time()
        result = simulation.simulate(problem)
        assert time.time() - t0 < 5.0
        assert result.converged
        assert result.residual_norm < 1e-10
        assert result.price_changes["SP"] == pytest.approx(0.143, abs=3e-3)
        assert result.price_changes["OD"] == pytest.approx(0.180, abs=3e-3)
        assert result.unique

    def test_staples_harm(self, staples_bundle, staples_economy):
        problem = simulation.merger_problem(
            staples_bundle.market, staples_economy, staples_bundle.merger
        )
        result = simulation.simulate(problem)
        harm = sum(result.price_changes[pid] * staples_bundle.market.product(pid).revenue
                   for pid in result.order)
        assert harm == pytest.approx(255.7e6, abs=2e6)

    def test_symmetric_economy_symmetric_solution(self):
        market, econ = self_consistent_market([0.3, 0.3, 0.4], eta=6.0)
        result = simulation.simulate(merged_problem(market, econ))
        vals = list(result.price_changes.values())
        assert vals[0] == pytest.approx(vals[1], abs=1e-10)
        assert vals[0] > 0.0

    def test_share_shift_invariance(self, staples_bundle, staples_economy):
        """Adding a constant to the consumer's utilities does not move the root."""
        base = simulation.simulate(simulation.merger_problem(
            staples_bundle.market, staples_economy, staples_bundle.merger))
        shifted_econ = CESEconomy(
            tuple(
                Consumer(c.id, c.budget, {k: v + 3.0 for k, v in c.utilities.items()}, c.weight)
                for c in staples_economy.consumers
            ),
            staples_economy.eta,
        )
        shifted = simulation.simulate(simulation.merger_problem(
            staples_bundle.market, shifted_econ, staples_bundle.merger))
        for pid in base.price_changes:
            assert shifted.price_changes[pid] == pytest.approx(
                base.price_changes[pid], abs=1e-9
            )

    def test_efficiency_monotonicity(self):
        """Deeper uniform cost cuts weakly lower both merging price changes."""
        market, econ = self_consistent_market([0.3, 0.3, 0.4], eta=6.0)
        previous = None
        for cdd in (0.0, -0.05, -0.1, -0.2):
            eff = {"g0": cdd, "g1": cdd}
            result = simulation.simulate(merged_problem(market, econ, efficiencies=eff))
            assert result.converged
            vals = np.array([result.price_changes[p] for p in result.order])
            if previous is not None:
                assert np.all(vals <= previous + 1e-12)
            previous = vals

    def test_post_state_internal_consistency(self, staples_bundle, staples_economy):
        """At the root, margins/diversion re-imply the post elasticities through
        the own-price identification formula, to 1e-8."""
        problem = simulation.merger_problem(
            staples_bundle.market, staples_economy, staples_bundle.merger
        )
        result = simulation.simulate(problem)
        for j in result.order:
            co_owned = [l for l in result.order
                        if l != j and problem.post_ownership[l] == problem.post_ownership[j]]
            s = sum(result.post_margins[l] * result.post_diversion.get(j, l) for l in co_owned)
            implied = -(1.0 - s) / (result.post_margins[j] - s)
            assert implied == pytest.approx(result.post_elasticities[j], abs=1e-8)

    def test_nonconverged_is_diagnostic_not_fatal(self, staples_bundle, staples_economy):
        problem = simulation.merger_problem(
            staples_bundle.market, staples_economy, staples_bundle.merger
        )
        result = simulation.simulate(
            problem, simulation.SolverConfig(max_iterations=0, check_uniqueness=False)
        )
        assert not result.converged
        assert result.residual_norm > 0.0

    def test_resolve_that_cannot_start_keeps_the_root(self, staples_bundle, staples_economy,
                                                      monkeypatch):
        """A uniqueness re-solve whose start has no defined state is a failed
        re-solve; the converged main root stands."""
        problem = simulation.merger_problem(
            staples_bundle.market, staples_economy, staples_bundle.merger
        )
        expected = simulation.simulate(problem)
        state, seen_zero = simulation.post_merger_state, []

        def undefined_at_zero_after_warm_start(prob, pdd):
            if not np.any(pdd):
                seen_zero.append(True)
                if len(seen_zero) > 1:
                    raise InputValidationError("diversion undefined")
            return state(prob, pdd)

        monkeypatch.setattr(simulation, "post_merger_state", undefined_at_zero_after_warm_start)
        result = simulation.simulate(problem)
        assert len(seen_zero) == 2
        assert result.converged and result.unique
        assert result.price_changes == expected.price_changes

    def test_third_firm_price_also_adjusts(self):
        """Non-merging firms re-optimize too: their price change is part of the
        system and generally nonzero."""
        market, econ = self_consistent_market([0.25, 0.25, 0.2, 0.3], eta=6.0)
        result = simulation.simulate(merged_problem(market, econ))
        assert result.converged
        assert result.price_changes["g2"] != pytest.approx(0.0, abs=1e-6)
        assert result.price_changes["g2"] > 0.0  # strategic complements under CES

    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_heterogeneous_consumers_converge(self, seed):
        """Weighted multi-consumer economies solve cleanly too; margins built
        from the economy's own pricing conditions, so no consistency warning."""
        rng = np.random.default_rng(seed)
        n_prod, n_cons = int(rng.integers(3, 6)), int(rng.integers(2, 5))
        ids = [f"g{j}" for j in range(n_prod)]
        consumers = []
        for i in range(n_cons):
            considered = sorted(
                {pid for pid in ids if rng.uniform() < 0.85} | {ids[i % n_prod]}
            )
            utils = {pid: float(rng.normal(0, 0.8)) for pid in considered}
            consumers.append(Consumer(f"c{i}", float(rng.uniform(0.5, 3)), utils,
                                      float(rng.uniform(0.5, 2))))
        econ = CESEconomy(tuple(consumers), float(rng.uniform(3, 8)))
        if set(econ.order) - {OUTSIDE} != set(ids):
            pytest.skip("draw left a product with no shopper")
        eps = ces.own_price_elasticity_of_demand(econ)
        market = mk.Market(tuple(
            mk.Product(pid, f"f{j}", 1.0, -1.0 / eps[pid]) for j, pid in enumerate(ids)
        ))
        result = simulation.simulate(merged_problem(market, econ))
        assert result.converged
        assert result.residual_norm < 1e-10
        assert not result.warnings
        assert all(v > 0 for pid, v in result.price_changes.items()
                   if market.product(pid).firm in ("f0", "f1"))

    def test_efficiencies_leave_pre_merger_check_alone(self):
        """Efficiencies move post-merger costs only: an exactly self-consistent
        market draws no pre-merger warning once they are given."""
        market, econ = self_consistent_market([0.3, 0.25, 0.45], eta=5.0)
        problem = merged_problem(market, econ, efficiencies={"g0": -0.05, "g1": -0.05})
        assert simulation.consistency_check(problem).flagged == ()
        result = simulation.simulate(problem)
        assert result.converged
        assert result.warnings == ()

    @settings(max_examples=40, deadline=None)
    @given(
        inside=st.lists(st.floats(0.05, 1.0), min_size=2, max_size=5),
        outside=st.floats(0.1, 0.6),
        eta=st.floats(2.0, 9.0),
    )
    def test_self_consistent_markets_solve(self, inside, outside, eta):
        """Random single-consumer markets at their own pre-merger equilibrium:
        nothing is flagged, the solver reaches its tolerance, and without
        efficiencies both merging products' prices rise."""
        alpha = (1.0 - outside) * np.array(inside) / sum(inside)
        market, econ = self_consistent_market([*alpha, outside], eta=eta)
        problem = merged_problem(market, econ)
        assert simulation.consistency_check(problem).flagged == ()
        result = simulation.simulate(problem)
        assert result.converged
        assert result.residual_norm < simulation.SolverConfig().tolerance
        assert result.price_changes["g0"] > 0.0
        assert result.price_changes["g1"] > 0.0

    def test_pre_inconsistency_warning(self, staples_bundle, staples_economy):
        """The averaged substitution elasticity cannot rationalize both margins,
        so the solver warns about the pre-merger data."""
        problem = simulation.merger_problem(
            staples_bundle.market, staples_economy, staples_bundle.merger
        )
        result = simulation.simulate(problem)
        assert any("not self-consistent" in w for w in result.warnings)

    def test_one_state_at_zero_before_the_solve(self, staples_bundle, staples_economy, monkeypatch):
        """The pre-merger check and the GUPPI warm start share one evaluation at
        pdd = 0; the only other one starts the uniqueness re-solve from 0."""
        problem = simulation.merger_problem(
            staples_bundle.market, staples_economy, staples_bundle.merger
        )
        at_zero = []
        state = simulation.post_merger_state

        def counting(prob, pdd):
            at_zero.append(not np.any(pdd))
            return state(prob, pdd)

        monkeypatch.setattr(simulation, "post_merger_state", counting)
        assert simulation.simulate(problem).converged
        assert sum(at_zero) == 2
        assert at_zero[0]


class TestConsistencyCheck:
    def test_self_consistent_zero_gaps(self):
        market, econ = self_consistent_market([0.3, 0.25, 0.45], eta=5.0)
        report = simulation.consistency_check(merged_problem(market, econ))
        for gap in report.gaps.values():
            assert gap == pytest.approx(0.0, abs=1e-12)
        assert report.flagged == ()

    def test_perturbed_margin_detected(self):
        market, econ = self_consistent_market([0.3, 0.25, 0.45], eta=5.0)
        bumped = mk.Market(tuple(
            mk.Product(p.id, p.firm, p.revenue, p.margin + (0.05 if p.id == "g0" else 0.0))
            for p in market.products
        ))
        report = simulation.consistency_check(merged_problem(bumped, econ))
        assert report.gaps["g0"] == pytest.approx(0.05, abs=1e-12)
        assert "g0" in report.flagged

    def test_nested_economy_rejected_below_mu_one(self, staples_bundle, staples_economy):
        """The solver's shares are plain CES: a nested economy with mu < 1 is
        refused, and at mu = 1 it solves to the plain economy's root."""
        def problem(economy):
            return simulation.merger_problem(staples_bundle.market, economy, staples_bundle.merger)

        def nested(mu):
            return ces.NestedCESEconomy(staples_economy.consumers, staples_economy.eta,
                                        nests={"SP": "a", "OD": "a"}, mu=mu)

        with pytest.raises(InputValidationError, match="mu = 0.2 < 1"):
            problem(nested(0.2))
        assert simulation.simulate(problem(nested(1.0))).price_changes == \
            simulation.simulate(problem(staples_economy)).price_changes

    def test_missing_margin_is_hard_error(self):
        market, econ = self_consistent_market([0.3, 0.25, 0.45], eta=5.0)
        partial = mk.Market(market.products[:1])
        with pytest.raises(InputValidationError, match="margin missing"):
            simulation.SimulationProblem(
                partial, econ, {p.id: p.firm for p in market.products}
            )
