"""Acceptance suite: every headline number and property at its pinned tolerance.

Each criterion runs as a pytest test (one PASSED/FAILED line per criterion
under -v) and the module doubles as a script that prints an explicit
``ACCEPTANCE n PASS/FAIL`` line per criterion:

    python -m tests.test_acceptance  (or python tests/test_acceptance.py)
"""

import time

import numpy as np
import pytest

from uppkit import ces, effects, fitting, harness, simulation
from uppkit import market as mk
from uppkit.market import OUTSIDE, MergerSpec
from uppkit.passthrough import passthrough_matrix_from_market

from tests.conftest import fixture_path
from tests.test_passthrough import consistent_inputs, oracle_passthrough


def bundle():
    return mk.load_market(str(fixture_path("staples_od.json")))


def economy():
    return ces.load_economy(str(fixture_path("staples_od_economy.json")))


def criterion_01_elasticities():
    """Own-price elasticities from margins: (-3.876, -4.274), tol 0.01."""
    b = bundle()
    eps = effects.own_price_elasticities(b.market, b.diversion, b.merger)
    assert eps["SP"] == pytest.approx(-3.875, abs=0.01)
    assert eps["OD"] == pytest.approx(-4.273, abs=0.01)


def criterion_02_revenue_diversion():
    """Single-consumer CES shares imply D = (0.599, 0.691), tol 1e-3."""
    d = ces.revenue_diversion(economy())
    assert d.get("SP", "OD") == pytest.approx(0.599, abs=1e-3)
    assert d.get("OD", "SP") == pytest.approx(0.691, abs=1e-3)


def criterion_03_guppi():
    """GUPPI (0.104, 0.137) and naive (0.140, 0.178), tol 1e-3."""
    b = bundle()
    g = effects.guppi(b.market, b.diversion, b.merger)
    gn = effects.naive_guppi(b.market, b.diversion, b.merger)
    assert g["SP"] == pytest.approx(0.104, abs=1e-3)
    assert g["OD"] == pytest.approx(0.137, abs=1e-3)
    assert gn["SP"] == pytest.approx(0.140, abs=1e-3)
    assert gn["OD"] == pytest.approx(0.178, abs=1e-3)


def criterion_04_cmcr():
    """Post-merger margins (0.473, 0.485) and cdd (-0.291, -0.327), tol 2e-3;
    naive comparator (0.569, 0.614), tol 2e-3."""
    b = bundle()
    res = effects.cmcr(b.market, b.diversion, b.merger)
    assert res.post_margins["SP"] == pytest.approx(0.473, abs=2e-3)
    assert res.post_margins["OD"] == pytest.approx(0.485, abs=2e-3)
    assert res.efficiencies["SP"] == pytest.approx(-0.291, abs=2e-3)
    assert res.efficiencies["OD"] == pytest.approx(-0.327, abs=2e-3)
    naive = effects.naive_cmcr(b.market, b.diversion, b.merger)
    assert naive["SP"] == pytest.approx(0.569, abs=2e-3)
    assert naive["OD"] == pytest.approx(0.614, abs=2e-3)


def criterion_05_eta_identification():
    """Per-product eta (6.457, 5.786), mean 6.121, tol 5e-3."""
    b = bundle()
    eps = effects.own_price_elasticities(b.market, b.diversion, b.merger)
    res = ces.identify_eta({"SP": 0.473, "OD": 0.316}, eps)
    assert res.per_product["SP"] == pytest.approx(6.457, abs=5e-3)
    assert res.per_product["OD"] == pytest.approx(5.786, abs=5e-3)
    assert res.eta == pytest.approx(6.121, abs=5e-3)


def criterion_06_softmax_inversion():
    """u = (0.807, 0.404), tol 1e-3."""
    econ = ces.economy_from_shares(
        {"c": {"SP": 0.473, "OD": 0.316, OUTSIDE: 0.211}}, {"c": 1.0}, eta=6.121
    )
    assert econ.consumers[0].utilities["SP"] == pytest.approx(0.807, abs=1e-3)
    assert econ.consumers[0].utilities["OD"] == pytest.approx(0.404, abs=1e-3)


def criterion_07_passthrough_matrix():
    """M = [[1.005, 0.345], [0.347, 1.098]] entrywise tol 5e-3, and the closed
    form tracks the numeric implicit-function oracle at 1e-4 relative."""
    b = bundle()
    pt = passthrough_matrix_from_market(b.market, b.diversion, b.merger)
    np.testing.assert_allclose(
        pt.values, np.array([[1.005, 0.345], [0.347, 1.098]]), atol=5e-3
    )
    for seed in range(25):
        inputs = consistent_inputs(np.random.default_rng(seed))
        closed = effects.PassThroughMatrix(("j", "k"), oracle_passthrough(inputs))
        from uppkit.passthrough import passthrough_matrix

        direct = passthrough_matrix(inputs).values
        scale = np.max(np.abs(closed.values))
        np.testing.assert_allclose(direct, closed.values, atol=1e-4 * scale)


def criterion_08_first_order_effects():
    """M . GUPPI = (0.152, 0.187) tol 2e-3; total dCS = -268.2M tol 2M."""
    b = bundle()
    report = effects.effects_report(b.market, b.diversion, b.merger)
    assert report.price_changes["SP"] == pytest.approx(0.152, abs=2e-3)
    assert report.price_changes["OD"] == pytest.approx(0.187, abs=2e-3)
    assert report.welfare.total_cs == pytest.approx(-268.2e6, abs=2e6)


def criterion_09_merger_simulation():
    """pdd* = (0.143, 0.180) tol 3e-3; harm -255.7M tol 2M; residual < 1e-10;
    completes in under 5 s."""
    b = bundle()
    problem = simulation.merger_problem(b.market, economy(), b.merger)
    t0 = time.time()
    result = simulation.simulate(problem)
    elapsed = time.time() - t0
    assert elapsed < 5.0
    assert result.converged
    assert result.residual_norm < 1e-10
    assert result.price_changes["SP"] == pytest.approx(0.143, abs=3e-3)
    assert result.price_changes["OD"] == pytest.approx(0.180, abs=3e-3)
    harm = sum(result.price_changes[pid] * b.market.product(pid).revenue
               for pid in result.order)
    assert harm == pytest.approx(255.7e6, abs=2e6)


def criterion_10_accuracy_harness():
    """200 seeded CES markets: true pdd >= GUPPI prediction for >= 95% of
    merging products; 200 logit markets: median relative error < 15%; the
    whole harness runs in under 60 s."""
    t0 = time.time()
    ces_result = harness.run_accuracy_experiment(
        harness.HarnessConfig(seed=11, n_markets=200, model="ces"))
    logit_result = harness.run_accuracy_experiment(
        harness.HarnessConfig(seed=11, n_markets=200, model="logit"))
    elapsed = time.time() - t0
    assert elapsed < 60.0
    assert ces_result.summary["share_conservative"] >= 0.95
    assert logit_result.summary["median_relative_error"] < 0.15


def criterion_11_oracle_equivalences():
    """(a) removal-based == marginal diversion to 1e-12 on 50 random economies;
    (b) closed forms vs finite differences at 1e-5 relative; (c) CMCR round
    trip freezes prices to 1e-6; (d) the elasticity/diversion identities hold
    to 1e-10 at every solved equilibrium."""
    # (a) second choice vs marginal, representative-consumer CES
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        alpha = rng.dirichlet(np.ones(n + 1))
        names = [f"g{i}" for i in range(n)] + [OUTSIDE]
        econ = ces.economy_from_shares(
            {"c": dict(zip(names, alpha))}, {"c": 1.0}, eta=float(rng.uniform(2, 9))
        )
        removed = names[int(rng.integers(0, n))]
        d_removal = ces.second_choice_diversion(econ, removed)
        d_marginal = ces.revenue_diversion(econ)
        for dst, val in d_removal.items():
            assert val == pytest.approx(d_marginal.get(removed, dst), abs=1e-12)

    # (b)+(d) identities and finite differences at solved equilibria
    config = harness.HarnessConfig(seed=101, n_markets=4, model="ces")
    for trial in range(4):
        prim, pair = harness.random_primitives(config, trial)
        eq = harness.solve_pre_merger_equilibrium(prim)
        p, n = eq.prices, len(eq.prices)
        market, diversion = harness.observe(prim, p)
        q = prim.demand.quantities(p)
        r = prim.demand.revenues(p)
        for j in range(n):
            h = 1e-5 * p[j]
            up, dn = p.copy(), p.copy()
            up[j] += h
            dn[j] -= h
            dq = (prim.demand.quantities(up) - prim.demand.quantities(dn)) / (2 * h)
            dr = (prim.demand.revenues(up) - prim.demand.revenues(dn)) / (2 * h)
            eps_q = dq[j] * p[j] / q[j]
            eps_r = dr[j] * p[j] / r[j]
            assert eps_r == pytest.approx(eps_q + 1.0, rel=1e-5)          # (b)
            for k in range(n):
                if k != j:
                    d_r = diversion.get(prim.ids[j], prim.ids[k])
                    assert d_r == pytest.approx(-dr[k] / dr[j], rel=1e-5, abs=1e-12)
        # (d) exact identities on analytic objects
        jac = prim.demand.derivatives(p)[1]
        for j in range(n):
            eps_q = jac[j, j] * p[j] / q[j]
            eps_r_analytic = (jac[j, j] * p[j] + q[j]) * p[j] / r[j]
            assert abs(eps_r_analytic - (eps_q + 1.0)) < 1e-10
            for k in range(n):
                if k != j:
                    d_q = -jac[k, j] / jac[j, j]
                    d_r = diversion.get(prim.ids[j], prim.ids[k])
                    assert abs((1.0 + 1.0 / eps_q) * d_r - d_q * p[k] / p[j]) < 1e-10

    # (c) CMCR round trip
    for trial in range(4):
        prim, pair = harness.random_primitives(config, trial)
        eq = harness.solve_pre_merger_equilibrium(prim)
        market, diversion = harness.observe(prim, eq.prices)
        res = effects.cmcr(market, diversion, MergerSpec(f"f{pair[0]}", f"f{pair[1]}"))
        pos = {pid: j for j, pid in enumerate(prim.ids)}
        eff = {pos[pid]: v for pid, v in res.efficiencies.items()}
        _, pdd = harness.solve_post_merger_equilibrium(prim, pair, efficiencies=eff)
        assert np.max(np.abs(pdd)) < 1e-6


def criterion_12_nested_ces_recovery():
    """Noiseless 50x20 geography: (theta*, mu*) recovered within 1e-2 relative
    in under 30 s."""
    t0 = time.time()
    fx = harness.generate_spatial_fixture(
        harness.SpatialConfig(seed=5, n_tracts=50, n_stores=20, mu=0.46))
    rev = np.array([fx.revenues[s] for s in fx.store_ids])
    nests = [fx.nests[s] for s in fx.store_ids]
    res = fitting.fit_nested_ces(rev, fx.design, fx.budgets, nests,
                                 mask=fx.mask, consumer_weights=fx.weights)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    assert res.converged
    np.testing.assert_allclose(res.theta, fx.theta, rtol=1e-2)
    assert res.mu == pytest.approx(fx.mu, rel=1e-2)


def criterion_13_invariant_suite():
    """Share normalization; shift invariance of shares, diversion, elasticity,
    GUPPI, and the simulation root; welfare ordering; diversion row sums;
    revenue-scale invariance of the unit-free statistics."""
    rng = np.random.default_rng(77)

    # shares normalize; diversion rows sum to one incl. outside
    for _ in range(5):
        n = int(rng.integers(2, 6))
        consumers = []
        for i in range(4):
            utils = {f"g{j}": float(rng.normal()) for j in range(n)}
            consumers.append(ces.Consumer(f"c{i}", float(rng.uniform(0.5, 2.0)), utils,
                                          float(rng.uniform(0.5, 2.0))))
        econ = ces.CESEconomy(tuple(consumers), float(rng.uniform(2, 9)))
        tab = ces.shares(econ)
        np.testing.assert_allclose(tab.values.sum(axis=1), 1.0, atol=1e-12)
        d = ces.revenue_diversion(econ)
        np.testing.assert_allclose(d.values.sum(axis=1) + 1.0 + d.outside, 1.0, atol=1e-10)

    # shift invariance all the way to the simulation output
    b = bundle()
    econ = economy()
    shifted = ces.CESEconomy(
        tuple(ces.Consumer(c.id, c.budget,
                           {k: v + 1.7 for k, v in c.utilities.items()}, c.weight)
              for c in econ.consumers),
        econ.eta,
    )
    base_sim = simulation.simulate(simulation.merger_problem(b.market, econ, b.merger))
    shift_sim = simulation.simulate(simulation.merger_problem(b.market, shifted, b.merger))
    for pid in base_sim.price_changes:
        assert shift_sim.price_changes[pid] == pytest.approx(
            base_sim.price_changes[pid], abs=1e-9)
    np.testing.assert_allclose(ces.revenue_diversion(shifted).values,
                               ces.revenue_diversion(econ).values, atol=1e-12)

    # welfare ordering on the interior of the valid region
    for _ in range(20):
        eps = float(rng.uniform(-8.0, -1.2))
        pdd = float(rng.uniform(0.05, 0.95)) * (-1.0 / eps)
        market = mk.Market((mk.Product("A", "f1", 100.0, 0.3),
                            mk.Product("B", "f2", 100.0, 0.3)))
        w = effects.welfare(market, {"A": pdd}, MergerSpec("f1", "f2"), {"A": eps})
        assert w.cs["A"] < w.cs_mid["A"] < w.cs_upper["A"] < 0.0

    # revenue-scale invariance
    base = effects.effects_report(b.market, b.diversion, b.merger)
    scaled_market = mk.Market(
        tuple(mk.Product(p.id, p.firm, 7.0 * p.revenue, p.margin)
              for p in b.market.products))
    scaled = effects.effects_report(scaled_market, b.diversion, b.merger)
    for pid in base.order:
        assert scaled.guppi[pid] == base.guppi[pid]
        assert scaled.cmcr.efficiencies[pid] == base.cmcr.efficiencies[pid]
        assert scaled.price_changes[pid] == pytest.approx(base.price_changes[pid], rel=1e-12)
    assert scaled.welfare.total_cs == pytest.approx(7.0 * base.welfare.total_cs, rel=1e-12)


CRITERIA = [
    (1, criterion_01_elasticities),
    (2, criterion_02_revenue_diversion),
    (3, criterion_03_guppi),
    (4, criterion_04_cmcr),
    (5, criterion_05_eta_identification),
    (6, criterion_06_softmax_inversion),
    (7, criterion_07_passthrough_matrix),
    (8, criterion_08_first_order_effects),
    (9, criterion_09_merger_simulation),
    (10, criterion_10_accuracy_harness),
    (11, criterion_11_oracle_equivalences),
    (12, criterion_12_nested_ces_recovery),
    (13, criterion_13_invariant_suite),
]


@pytest.mark.parametrize("number,check", CRITERIA, ids=[f"criterion_{n:02d}" for n, _ in CRITERIA])
def test_acceptance(number, check):
    check()


def run_all() -> int:
    failures = 0
    for number, check in CRITERIA:
        label = (check.__doc__ or "").strip().splitlines()[0]
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - report and continue
            failures += 1
            print(f"ACCEPTANCE {number:2d} FAIL: {label} ({exc})")
        else:
            print(f"ACCEPTANCE {number:2d} PASS: {label}")
    return failures


if __name__ == "__main__":
    raise SystemExit(run_all())
