"""Merger simulation in percentage-price-change space."""

import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uppkit import ces, simulation
from uppkit import market as mk
from uppkit.ces import CESEconomy, Consumer
from uppkit.errors import InputValidationError
from uppkit.market import OUTSIDE
from uppkit.newton import damped_newton

from tests.test_harness import hard_ces_market, hard_merger_problem


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
        np.testing.assert_allclose(state.alpha, pre_tab.values, atol=1e-14)
        pre_eps = ces.own_price_elasticity_of_demand(econ)
        for k, pid in enumerate(problem.order):
            assert state.eps[k] == pytest.approx(pre_eps[pid], abs=1e-14)
            assert state.m[k] == pytest.approx(market.product(pid).margin, abs=1e-14)
        pre_div = ces.revenue_diversion(econ)
        np.testing.assert_allclose(state.d, pre_div.values, atol=1e-14)

    def test_margin_update_formula(self):
        market, econ = self_consistent_market([0.3, 0.25, 0.45], eta=5.0)
        problem = simulation.merger_problem(
            market, econ, mk.MergerSpec("f0", "f1", {"g0": -0.1})
        )
        state = simulation.post_merger_state(problem, np.zeros(2))
        m_pre = market.product("g0").margin
        g0 = problem.order.index("g0")
        assert state.m[g0] == pytest.approx(1.0 - 0.9 * (1.0 - m_pre), abs=1e-14)

    def test_price_change_below_minus_one_rejected(self):
        market, econ = self_consistent_market([0.3, 0.25, 0.45], eta=5.0)
        problem = merged_problem(market, econ)
        with pytest.raises(InputValidationError, match="exceed -1"):
            simulation.post_merger_state(problem, np.array([-1.0, 0.0]))

    def test_mistyped_price_change_key_refused(self, staples_bundle, staples_economy):
        """A key that names no product of the problem is refused, not read as
        a zero price change for the product it was meant to name."""
        problem = simulation.merger_problem(
            staples_bundle.market, staples_economy, staples_bundle.merger
        )
        with pytest.raises(InputValidationError, match=r"not in the problem: \['Sp'\]"):
            simulation.post_merger_state(problem, {"Sp": 0.143, "OD": 0.180})

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
        * (1.0 + problem.efficiencies.get(pid, 0.0)) / (1.0 + x)
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
    def test_mistyped_price_change_key_refused(self, staples_bundle, staples_economy):
        problem = simulation.merger_problem(
            staples_bundle.market, staples_economy, staples_bundle.merger
        )
        with pytest.raises(InputValidationError, match=r"not in the problem: \['Sp'\]"):
            simulation.foc_residual(problem, {"Sp": 0.143, "OD": 0.180})
        # a partial mapping still reads the missing product as no change
        np.testing.assert_array_equal(simulation.foc_residual(problem, {"OD": 0.180}),
                                      simulation.foc_residual(problem, {"SP": 0.0, "OD": 0.180}))

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


def jacobian_problems():
    """Heterogeneous budgets and weights, consideration sets, two 2-product
    firms merging beside a multi-product rival and a single-product firm,
    efficiencies; then the same consumers as a nested economy with mu = 1."""
    consumers = (
        Consumer("c0", 2.0, {"A": 0.4, "B": -0.2, "C": 0.1, "E": 0.3, "G": -0.5}, 1.0),
        Consumer("c1", 1.0, {"B": 0.6, "C": -0.3, "D": 0.2, "F": 0.1}, 0.5),
        Consumer("c2", 3.0, {"A": -0.1, "D": 0.5, "E": -0.4, "F": 0.2, "G": 0.3}, 1.5),
        Consumer("c3", 0.7, {"A": 0.2, "B": 0.1, "C": 0.5, "D": -0.2, "E": 0.0, "F": -0.3}, 2.0),
    )
    market = mk.Market(tuple(
        mk.Product(pid, firm, 1.0, margin) for pid, firm, margin in (
            ("A", "f0", 0.30), ("B", "f0", 0.25), ("C", "f1", 0.40), ("D", "f1", 0.35),
            ("E", "f2", 0.28), ("F", "f2", 0.33), ("G", "f3", 0.31)))
    )
    merger = mk.MergerSpec("f0", "f1", {"A": -0.1, "C": -0.05, "D": -0.2})
    plain = CESEconomy(consumers, eta=4.5)
    nested = ces.CESEconomy(consumers, 4.5, nests=dict(zip("ABCDEFG", "xxyyxzz")), mu=1.0)
    return [simulation.merger_problem(market, econ, merger) for econ in (plain, nested)]


JACOBIAN_POINTS = (
    np.zeros(7),
    np.array([0.05, 0.1, -0.02, 0.03, 0.2, -0.1, 0.0]),
    np.array([-0.985, -0.9, 0.1, -0.95, 0.0, 0.3, -0.5]),  # near LOWER_BOUND
    np.array([2.5, 4.0, 1.5, 3.0, 0.5, 6.0, 2.0]),
)


def complex_foc(problem, pdd):
    """Post-merger pricing conditions in plain numpy, analytic in pdd so that a
    complex step differentiates them; built from the consumers, not from
    uppkit's dense arrays."""
    econ, order = problem.economy, problem.order
    cols = [*order, OUTSIDE]
    u = np.array([[c.utilities.get(pid, np.nan) for pid in cols] for c in econ.consumers])
    considered = ~np.isnan(u)
    w = np.array([c.weight * c.budget for c in econ.consumers])
    shift = np.append((1.0 - econ.eta) * np.log(1.0 + pdd), 0.0)
    z = np.where(considered, np.exp(np.where(considered, u, 0.0) + shift), 0.0)
    a = (z / z.sum(axis=1, keepdims=True))[:, : len(order)]
    wa = w[:, None] * a
    den = (wa * (1.0 - a)).sum(axis=0)
    eps = (1.0 - econ.eta) * den / wa.sum(axis=0) - 1.0
    diversion = (wa.T @ a) / den[:, None]
    base = np.array([(1.0 - problem.market.product(pid).margin)
                     * (1.0 + problem.efficiencies.get(pid, 0.0)) for pid in order])
    margins = 1.0 - base / (1.0 + pdd)
    owners = np.array([problem.post_ownership[pid] for pid in order])
    co_owned = (owners[:, None] == owners[None, :]) & ~np.eye(len(order), dtype=bool)
    return -1.0 / eps - margins + (1.0 + 1.0 / eps) * ((co_owned * diversion) @ margins)


def forty_consumer_problem():
    """40 consumers with random consideration sets over 20 single-product
    firms, margins self-consistent; firms f0 and f1 merge."""
    rng = np.random.default_rng(20)
    ids = [f"g{j}" for j in range(20)]
    consumers = tuple(
        Consumer(f"c{i}", float(rng.uniform(0.5, 3)),
                 {pid: float(rng.normal(0, 0.8)) for pid in ids
                  if pid == ids[i % 20] or rng.uniform() < 0.7},
                 float(rng.uniform(0.5, 2)))
        for i in range(40)
    )
    econ = CESEconomy(consumers, eta=5.0)
    eps = ces.own_price_elasticity_of_demand(econ)
    market = mk.Market(tuple(
        mk.Product(pid, f"f{j}", 1.0, -1.0 / eps[pid]) for j, pid in enumerate(ids)))
    return merged_problem(market, econ)


class TestFocJacobian:
    @pytest.mark.parametrize("problem", jacobian_problems(), ids=["plain", "nested_mu_1"])
    @pytest.mark.parametrize("point", range(len(JACOBIAN_POINTS)))
    def test_matches_central_differences(self, problem, point):
        pdd = JACOBIAN_POINTS[point]
        f, jacobian = simulation.foc_residual(problem, pdd, jacobian=True)
        jac = jacobian()
        np.testing.assert_array_equal(f, simulation.foc_residual(problem, pdd))
        fd = np.empty_like(jac)
        for q in range(len(pdd)):
            h = 1e-6 * (1.0 + pdd[q])
            up, down = pdd.copy(), pdd.copy()
            up[q] += h
            down[q] -= h
            fd[:, q] = (simulation.foc_residual(problem, up)
                        - simulation.foc_residual(problem, down)) / (2.0 * h)
        np.testing.assert_allclose(jac, fd, rtol=0.0, atol=1e-6 * np.max(np.abs(jac)))

    @pytest.mark.parametrize("problem", jacobian_problems(), ids=["plain", "nested_mu_1"])
    @pytest.mark.parametrize("point", range(len(JACOBIAN_POINTS)))
    def test_matches_complex_step_of_independent_foc(self, problem, point):
        """Complex-step derivative (Squire & Trapp 1998) of an independent
        residual: no subtractive cancellation, so agreement to ~1e-12."""
        pdd = JACOBIAN_POINTS[point]
        f, jacobian = simulation.foc_residual(problem, pdd, jacobian=True)
        jac = jacobian()
        np.testing.assert_allclose(f, complex_foc(problem, pdd), rtol=0.0, atol=1e-12)
        h = 1e-30
        cs = np.column_stack([complex_foc(problem, pdd + 1j * h * e).imag / h
                              for e in np.eye(len(pdd))])
        np.testing.assert_allclose(jac, cs, rtol=0.0, atol=1e-12 * np.max(np.abs(cs)))

    def test_state_evaluations_scale_with_iterations_not_products(self, monkeypatch):
        """With the closed-form Jacobian each Newton step of each member of the
        batch evaluates its state about once, and one call serves every member
        still stepping; a central-difference Jacobian would take 2J = 40 per step."""
        problem = forty_consumer_problem()

        calls, rows, batches = [], [], []
        state, newton = simulation.post_merger_state, simulation.damped_newton

        def counting(prob, pdd):
            calls.append(1)
            rows.append(len(np.atleast_2d(pdd)))
            return state(prob, pdd)

        def recording(*args, **kwargs):
            out = newton(*args, **kwargs)
            batches.append(out)
            return out

        monkeypatch.setattr(simulation, "post_merger_state", counting)
        monkeypatch.setattr(simulation, "damped_newton", recording)
        result = simulation.simulate(problem)
        (batch,) = batches
        steps = batch.iterations
        assert result.converged and result.unique and len(steps) == 3 and min(steps) > 0
        # the zero-change state, then per member its start and about one trial a step
        assert sum(rows) <= 1 + 3 * (sum(steps) + len(steps))
        assert len(calls) <= 2 + 3 * max(steps)

    def test_jacobian_built_once_per_newton_step(self, monkeypatch):
        """``foc_residual`` hands Newton a Jacobian callable, built only where a
        step is taken: as many Jacobian rows as steps over the three members,
        none at a root, while every trial point still evaluates the residual."""
        built, focs, batches = [], [], []
        jacobian, foc, newton = (ces._foc_jacobian, simulation.foc_residual,
                                 simulation.damped_newton)

        def counting_jacobian(s, co_owned):
            built.extend(np.atleast_2d(s.pdd).copy())
            return jacobian(s, co_owned)

        def counting_foc(*args, **kwargs):
            focs.append(1)
            return foc(*args, **kwargs)

        def recording(*args, **kwargs):
            out = newton(*args, **kwargs)
            batches.append(out)
            return out

        monkeypatch.setattr(ces, "_foc_jacobian", counting_jacobian)
        monkeypatch.setattr(simulation, "foc_residual", counting_foc)
        monkeypatch.setattr(simulation, "damped_newton", recording)
        result = simulation.simulate(forty_consumer_problem())
        (batch,) = batches
        assert result.converged and len(batch.iterations) == 3 and sum(batch.iterations) > 3
        assert len(built) == sum(batch.iterations)
        assert len(focs) >= max(batch.iterations) + 1  # the starts, then the trials
        assert not any(np.array_equal(b, root) for b in built for root in batch.x)

    @pytest.mark.parametrize("problem", jacobian_problems(), ids=["plain", "nested_mu_1"])
    @pytest.mark.parametrize("point", range(len(JACOBIAN_POINTS)))
    def test_state_elasticity_from_the_diversion_moments(self, problem, point):
        """eps read off the diversion kernel's moments is the own revenue
        elasticity less one, and the moments are the ones they name."""
        state = simulation.post_merger_state(problem, JACOBIAN_POINTS[point])
        econ, n = problem.economy, len(problem.order)
        _, wb = econ._dense
        a = state.alpha[:, :n]
        own = (1.0 - econ.eta) * (wb @ (a * (1.0 - a))) / (wb @ a)
        np.testing.assert_allclose(state.eps, own - 1.0, rtol=1e-15, atol=0.0)
        spend, den, pair = state.moments
        np.testing.assert_allclose(spend, wb @ a, rtol=1e-15)
        np.testing.assert_allclose(den, spend - np.diag(pair[:, :n]), rtol=0.0,
                                   atol=1e-14 * np.max(spend))
        np.testing.assert_allclose(pair, (wb[:, None] * a).T @ state.alpha, rtol=1e-15)


def undefined_at(pdd):
    """``post_merger_state`` that refuses every batch holding the row ``pdd``."""
    state = simulation.post_merger_state

    def refusing(prob, x):
        if any(np.array_equal(row, pdd) for row in np.atleast_2d(x)):
            raise InputValidationError("diversion undefined")
        return state(prob, x)

    return refusing


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
        result = simulation.simulate(problem, simulation.SolverConfig(tolerance=1e-300))
        assert not result.converged
        assert result.residual_norm > 0.0

    def test_resolve_that_cannot_start_keeps_the_root(self, staples_bundle, staples_economy,
                                                      monkeypatch):
        """A uniqueness re-solve whose start has no defined state is a failed
        re-solve; the converged main root stands. The batch that holds it is
        evaluated again row by row, so the other rows start."""
        problem = simulation.merger_problem(
            staples_bundle.market, staples_economy, staples_bundle.merger
        )
        expected = simulation.simulate(problem)
        twice = 2.0 * simulation._gaps_and_warm_start(problem)[1]
        monkeypatch.setattr(simulation, "post_merger_state", undefined_at(twice))
        result = simulation.simulate(problem)
        assert result.converged and result.unique
        assert result.price_changes == expected.price_changes
        assert result.iterations == expected.iterations
        assert [w for w in result.warnings if "re-solve" in w] == [
            "uniqueness re-solve from 2x GUPPI could not start: diversion undefined"]

    def test_failed_resolves_are_reported(self, staples_bundle, staples_economy, monkeypatch):
        """A uniqueness re-solve that does not converge, or whose Jacobian is
        refused after k steps, is named in the warnings with its start and
        stage; neither finds a second root, so the result still reads unique.
        A refused Jacobian on the main solve raises, as its undefined start does."""
        problem = simulation.merger_problem(
            staples_bundle.market, staples_economy, staples_bundle.merger
        )
        expected = simulation.simulate(problem)
        assert not any("re-solve" in w for w in expected.warnings)
        g = simulation._gaps_and_warm_start(problem)[1]
        jacobian = ces._foc_jacobian

        def refusing(at, singular=False):
            def jac(s, co_owned):
                out = jacobian(s, co_owned)
                hit = [np.array_equal(row, at) for row in np.atleast_2d(s.pdd)]
                if any(hit) and not singular:
                    raise InputValidationError("pricing-condition Jacobian overflows: test")
                out[np.array(hit)] = 0.0  # a singular J for that member alone
                return out
            return jac

        monkeypatch.setattr(ces, "_foc_jacobian", refusing(np.zeros(2), singular=True))
        result = simulation.simulate(problem)
        assert result.converged and result.unique
        assert result.price_changes == expected.price_changes
        resolves = [w for w in result.warnings if "re-solve" in w]
        assert len(resolves) == 1
        assert resolves[0].startswith("uniqueness re-solve from 0 did not converge: residual ")
        assert resolves[0].endswith("after 1 iterations")

        monkeypatch.setattr(ces, "_foc_jacobian", refusing(np.zeros(2)))
        result = simulation.simulate(problem)
        assert result.converged and result.unique
        assert result.price_changes == expected.price_changes
        assert [w for w in result.warnings if "re-solve" in w] == [
            "uniqueness re-solve from 0 stopped after 0 iterations: "
            "pricing-condition Jacobian overflows: test"]

        monkeypatch.setattr(ces, "_foc_jacobian", refusing(g))
        with pytest.raises(InputValidationError, match="Jacobian overflows: test"):
            simulation.simulate(problem)
        monkeypatch.setattr(ces, "_foc_jacobian", jacobian)
        monkeypatch.setattr(simulation, "post_merger_state", undefined_at(g))
        with pytest.raises(InputValidationError, match="diversion undefined"):
            simulation.simulate(problem)

    def test_unconverged_main_solve_returns_its_diagnostic_result(
            self, staples_bundle, staples_economy, monkeypatch):
        """A main solve that stops unconverged, here on a singular J at the
        GUPPI start, gives its diagnostic result without raising: the start,
        converged False, no re-solve read; the re-solves stop with it, so no
        Jacobian is built after its one step."""
        problem = simulation.merger_problem(
            staples_bundle.market, staples_economy, staples_bundle.merger
        )
        g = simulation._gaps_and_warm_start(problem)[1]
        jacobian, rows_built = ces._foc_jacobian, []

        def singular_at_g(s, co_owned):
            out = jacobian(s, co_owned)
            rows_built.append(len(out))
            out[[np.array_equal(row, g) for row in s.pdd]] = 0.0
            return out

        monkeypatch.setattr(ces, "_foc_jacobian", singular_at_g)
        result = simulation.simulate(problem)
        assert not result.converged and result.unique and result.iterations == 1
        assert rows_built == [3]
        assert list(result.price_changes.values()) == g.tolist()
        assert result.residual_norm > 1e-3
        assert not any("re-solve" in w for w in result.warnings)

    def test_second_root_clears_unique(self, staples_bundle, staples_economy, monkeypatch):
        """A re-solve that converges 1e-3 away from the main root is a second
        root: ``unique`` is False, the warning names it, and the re-solve
        after it is not read (its failure here would otherwise be reported)."""
        problem = simulation.merger_problem(
            staples_bundle.market, staples_economy, staples_bundle.merger
        )
        solve = simulation.damped_newton

        def second_root_from_zero(*args, **kwargs):
            batch = solve(*args, **kwargs)
            batch.x[1] = batch.x[0] + 1e-3  # the re-solve from 0
            batch.converged[2] = False  # the re-solve from 2x GUPPI
            return batch

        monkeypatch.setattr(simulation, "damped_newton", second_root_from_zero)
        result = simulation.simulate(problem)
        assert result.converged and not result.unique
        assert result.warnings[-1] == "solver found a second root from a different start"
        assert not any("re-solve" in w for w in result.warnings)

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
        pdd = 0; the only other one is the uniqueness re-solve's start, a row
        of the batch's first evaluation."""
        problem = simulation.merger_problem(
            staples_bundle.market, staples_economy, staples_bundle.merger
        )
        at_zero = []
        state = simulation.post_merger_state

        def counting(prob, pdd):
            at_zero.append(sum(not np.any(row) for row in np.atleast_2d(pdd)))
            return state(prob, pdd)

        monkeypatch.setattr(simulation, "post_merger_state", counting)
        assert simulation.simulate(problem).converged
        assert at_zero[:2] == [1, 1] and sum(at_zero) == 2


def small_grid_problem(seed):
    """A market like the benchmark's small simulation grid: 2-6 single-product
    firms, 1-5 consumers who consider every product, margins from the
    pre-merger pricing conditions; firms f0 and f1 merge."""
    rng = np.random.default_rng(seed)
    n_prod, n_cons = int(rng.integers(2, 7)), int(rng.integers(1, 6))
    ids = [f"g{j}" for j in range(n_prod)]
    econ = CESEconomy(tuple(
        Consumer(f"c{i}", float(rng.uniform(50.0, 150.0)),
                 {pid: float(rng.normal()) for pid in ids}) for i in range(n_cons)
    ), float(rng.uniform(3.0, 8.0)))
    eps = ces.own_price_elasticity_of_demand(econ)
    market = mk.Market(tuple(
        mk.Product(pid, f"f{j}", 1.0, -1.0 / eps[pid]) for j, pid in enumerate(ids)))
    return merged_problem(market, econ)


class TestLockStepBatch:
    @pytest.mark.parametrize("kind, seed", [("grid", k) for k in range(24)]
                             + [("hard", k) for k in range(6)])
    def test_rows_match_standalone_solves(self, kind, seed):
        """simulate's batch (GUPPI start, 0, twice GUPPI): each row takes the
        steps and reaches the convergence of a solve from its start alone,
        at the same point to 1e-14."""
        problem = (small_grid_problem(seed) if kind == "grid"
                   else hard_merger_problem(hard_ces_market(seed)))
        g = simulation._gaps_and_warm_start(problem)[1]
        starts = np.stack([g, 0.0 * g, 2.0 * g])

        def solve(x0):
            return damped_newton(lambda x, _: simulation.foc_residual(problem, x, jacobian=True),
                                 x0, simulation.SolverConfig().tolerance,
                                 simulation.MAX_ITERATIONS, lower_bound=simulation.LOWER_BOUND)

        batch = solve(starts)
        assert batch.converged[0]
        for r in range(3):
            alone = solve(starts[r:r + 1])
            assert batch.iterations[r] == alone.iterations[0]
            assert batch.converged[r] == alone.converged[0]
            np.testing.assert_allclose(batch.x[r], alone.x[0], rtol=0.0, atol=1e-14)


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
            return ces.CESEconomy(staples_economy.consumers, staples_economy.eta,
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


class TestProblemFailsClosed:
    """A problem refuses what ``market.validate`` would refuse, and the state
    refuses price changes it cannot evaluate, instead of returning NaN or
    absurd prices."""

    @staticmethod
    def staples_problem(bundle, economy, margin=None, efficiencies=()):
        products = tuple(replace(p, margin=margin) if p.id == "SP" and margin is not None else p
                         for p in bundle.market.products)
        return simulation.SimulationProblem(mk.Market(products), economy,
                                            {p.id: "AB" for p in products}, dict(efficiencies))

    @pytest.mark.parametrize("margin", [np.nan, -0.2, 1.0], ids=["nan", "negative", "one"])
    def test_margin_outside_unit_interval(self, staples_bundle, staples_economy, margin):
        with pytest.raises(InputValidationError, match=rf"product SP: margin {margin} outside"):
            self.staples_problem(staples_bundle, staples_economy, margin)

    def test_efficiency_for_unknown_product(self, staples_bundle, staples_economy):
        with pytest.raises(InputValidationError, match="product Sp: efficiency for a product"):
            self.staples_problem(staples_bundle, staples_economy, efficiencies={"Sp": -0.5})

    def test_efficiency_outside_range(self, staples_bundle, staples_economy):
        with pytest.raises(InputValidationError, match=r"efficiency 0.1 outside \(-1, 0\]"):
            self.staples_problem(staples_bundle, staples_economy, efficiencies={"SP": 0.1})

    def test_non_finite_price_change(self, staples_bundle, staples_economy):
        problem = self.staples_problem(staples_bundle, staples_economy)
        for pdd in ([np.nan, 0.0], [0.0, np.inf]):
            with pytest.raises(InputValidationError, match="exceed -1"):
                simulation.post_merger_state(problem, pdd)

    def test_price_change_vector_of_wrong_length(self, staples_bundle, staples_economy):
        problem = self.staples_problem(staples_bundle, staples_economy)
        with pytest.raises(InputValidationError, match=r"shape \(3,\), expected \(2,\)"):
            simulation.post_merger_state(problem, np.zeros(3))

    def test_product_without_post_merger_owner(self, staples_bundle, staples_economy):
        with pytest.raises(InputValidationError, match="product OD: no post-merger owner"):
            simulation.SimulationProblem(staples_bundle.market, staples_economy, {"SP": "AB"})

    def test_product_no_consumer_considers(self, staples_bundle, staples_economy):
        extra = mk.Market(staples_bundle.market.products + (mk.Product("X", "f", 1.0, 0.3),))
        with pytest.raises(InputValidationError, match="product X: no consumer considers it"):
            simulation.SimulationProblem(extra, staples_economy, {p.id: "AB" for p in extra.products})
