"""Nested-CES revenue NLS: recovery, diagnostics, the fit result and prediction."""

import dataclasses

import numpy as np
import pytest

from uppkit import fitting
from uppkit.errors import InputValidationError

from tests.test_harness import central_differences


@pytest.fixture(scope="module")
def fixture():
    return fitting.generate_spatial_fixture(
        fitting.SpatialConfig(seed=5, n_tracts=50, n_stores=20, mu=0.46)
    )


def fit_fixture(fx, **params):
    rev = np.array([fx.revenues[s] for s in fx.store_ids])
    nests = [fx.nests[s] for s in fx.store_ids]
    return fitting.fit_nested_ces(
        rev, fx.design, fx.budgets, nests,
        mask=fx.mask, consumer_weights=fx.weights, **params,
    )


class TestRecovery:
    def test_noiseless_recovery(self, fixture):
        """Noiseless synthetic geography: (theta*, mu*) back to 1e-4 relative."""
        res = fit_fixture(fixture)
        assert res.converged
        np.testing.assert_allclose(res.theta, fixture.theta, rtol=1e-4)
        assert res.mu == pytest.approx(0.46, abs=1e-4)

    def test_mu_within_survey_tolerance(self, fixture):
        res = fit_fixture(fixture)
        assert abs(res.mu - 0.46) < 0.02

    def test_alternative_geography(self):
        fx = fitting.generate_spatial_fixture(
            fitting.SpatialConfig(seed=12, n_tracts=40, n_stores=15, mu=0.7,
                                  theta=(1.0, -0.2, 0.4, -0.5))
        )
        res = fit_fixture(fx)
        assert res.converged
        np.testing.assert_allclose(res.theta, fx.theta, rtol=1e-3)
        assert res.mu == pytest.approx(0.7, abs=1e-3)

    def test_design_off_the_consideration_sets_is_ignored(self, fixture):
        """Covariates of stores a consumer does not consider (here NaN, as a
        JSON null loads) enter neither the revenues nor their Jacobian."""
        design = np.where(fixture.mask[:, :, None], fixture.design, np.nan)
        res = fit_fixture(dataclasses.replace(fixture, design=design))
        np.testing.assert_array_equal(res.theta, fit_fixture(fixture).theta)

    @pytest.mark.parametrize("mu0", [0.2, 0.5, 0.8])
    def test_recovery_from_any_start(self, fixture, mu0, monkeypatch):
        """No start stalls short of the optimum: ftol and xtol end a solve only
        after an accepted step, never after a rejected one."""
        monkeypatch.setattr(fitting, "MU0", mu0)
        res = fit_fixture(fixture)
        assert res.converged
        np.testing.assert_allclose(res.theta, fixture.theta, rtol=1e-8)
        assert res.mu == pytest.approx(0.46, rel=1e-8)

    def test_revenue_weighting_also_recovers(self, fixture):
        res = fit_fixture(fixture, weighting="revenue")
        assert res.converged
        np.testing.assert_allclose(res.theta, fixture.theta, rtol=1e-3)


class TestValidation:
    def test_zero_variance_covariate(self, fixture):
        design = fixture.design.copy()
        design[:, :, 1] = 0.0  # kill the distance column
        rev = np.array([fixture.revenues[s] for s in fixture.store_ids])
        nests = [fixture.nests[s] for s in fixture.store_ids]
        with pytest.raises(InputValidationError, match="rank-deficient design"):
            fitting.fit_nested_ces(rev, design, fixture.budgets, nests,
                                   mask=fixture.mask)

    def test_duplicate_covariate(self, fixture):
        design = np.concatenate([fixture.design, fixture.design[:, :, :1]], axis=2)
        rev = np.array([fixture.revenues[s] for s in fixture.store_ids])
        nests = [fixture.nests[s] for s in fixture.store_ids]
        with pytest.raises(InputValidationError, match="rank-deficient design"):
            fitting.fit_nested_ces(rev, design, fixture.budgets, nests,
                                   mask=fixture.mask)

    def test_negative_revenue_rejected(self, fixture):
        rev = np.array([fixture.revenues[s] for s in fixture.store_ids])
        rev[0] = -1.0
        nests = [fixture.nests[s] for s in fixture.store_ids]
        with pytest.raises(InputValidationError, match=">= 0"):
            fitting.fit_nested_ces(rev, fixture.design, fixture.budgets, nests)

    def test_revenues_of_wrong_length_rejected(self, fixture):
        rev = np.array([fixture.revenues[s] for s in fixture.store_ids])
        nests = [fixture.nests[s] for s in fixture.store_ids]
        with pytest.raises(InputValidationError, match=r"revenues must have shape \(20,\)"):
            fitting.fit_nested_ces(rev[:-1], fixture.design, fixture.budgets, nests)

    def test_design_without_covariates(self, fixture):
        with pytest.raises(InputValidationError, match="a covariate"):
            fit_fixture(dataclasses.replace(fixture, design=fixture.design[:, :, :0]))

    @pytest.mark.parametrize("field", ["budgets", "weights"])
    def test_no_spending(self, fixture, field):
        """All budgets or all weights 0: no revenue to fit, refused rather than
        converged at the start point."""
        zero = dataclasses.replace(fixture, **{field: np.zeros(len(fixture.budgets))})
        with pytest.raises(InputValidationError, match="no spending"):
            fit_fixture(zero)

    @pytest.mark.parametrize("field, index, value, match", [
        ("budgets", 0, 1e308, "budgets and weights"),
        ("weights", 0, 1e300, "budgets and weights"),
        ("budgets", slice(None), 1e99, "rescale"),
    ], ids=["budget-1e308", "weight-1e300", "spending-1e101"])
    def test_scales_the_solve_cannot_square(self, fixture, field, index, value, match):
        """Levenberg-Marquardt squares residuals and Jacobian columns; data that
        would overflow or underflow them are refused before the solve."""
        array = getattr(fixture, field).copy()
        array[index] = value
        with pytest.raises(InputValidationError, match=match):
            fit_fixture(dataclasses.replace(fixture, **{field: array}))

    @pytest.mark.parametrize("factor", [1e-120, 1e120])
    def test_covariates_scaled_beyond_the_solve(self, fixture, factor):
        """A uniformly rescaled design keeps its rank, but its Jacobian columns
        would underflow or overflow when squared."""
        with pytest.raises(InputValidationError, match="rescale"):
            fit_fixture(dataclasses.replace(fixture, design=fixture.design * factor))

    @pytest.mark.parametrize("revenue, weighting", [(1e308, "none"), (1e-300, "revenue")])
    def test_revenue_beyond_the_solve(self, fixture, revenue, weighting):
        """A revenue of 1e308, or one of 1e-300 that divides the residuals
        under revenue weighting, would overflow their squares."""
        revenues = {**fixture.revenues, fixture.store_ids[0]: revenue}
        with pytest.raises(InputValidationError, match="revenues must be|rescale"):
            fit_fixture(dataclasses.replace(fixture, revenues=revenues), weighting=weighting)

    def test_mu_unidentified_without_two_stores_of_a_nest(self, fixture):
        """Where every consumer considers at most one store per nest, the shares
        do not depend on mu."""
        labels = np.array([fixture.nests[s] for s in fixture.store_ids])
        mask = fixture.mask.copy()
        for row in mask:
            for nest in set(labels):
                row[np.flatnonzero(row & (labels == nest))[1:]] = False
        with pytest.raises(InputValidationError, match="mu is not identified"):
            fit_fixture(dataclasses.replace(fixture, mask=mask))

    def test_trial_step_toward_mu_zero_is_rejected(self):
        """A 5x5 geography whose first budget no longer matches its revenues:
        the first trial step would put mu near 1e-181, where mu^2 underflows
        and the Jacobian divides by zero. The solve rejects that step instead."""
        fx = fitting.generate_spatial_fixture(fitting.SpatialConfig(seed=5, n_tracts=5, n_stores=5))
        fx.budgets[0] = 1.0
        res = fit_fixture(fx)
        assert 1e-100 < res.mu < 1.0 and np.isfinite(res.residual_se)

    def test_unknown_weighting(self, fixture):
        with pytest.raises(InputValidationError, match="weighting"):
            fit_fixture(fixture, weighting="by-vibes")


class TestEstimatorSurface:
    """``fit_nested_ces`` and the ``FitResult`` it returns are the fitter's whole API."""

    def test_fit_predict_consistency(self, fixture):
        rev = np.array([fixture.revenues[s] for s in fixture.store_ids])
        nests = [fixture.nests[s] for s in fixture.store_ids]
        res = fit_fixture(fixture)
        pred = res.predict(fixture.design, fixture.budgets, nests,
                           mask=fixture.mask, consumer_weights=fixture.weights)
        np.testing.assert_allclose(pred, rev, rtol=1e-8, atol=1e-8)

    @pytest.mark.parametrize("bad", ["budgets", "mask", "consumer_weights", "nests"])
    def test_predict_checks_data_like_fit(self, fixture, bad, monkeypatch):
        """predict refuses data that do not match the design, as fit does."""
        monkeypatch.setattr(fitting, "MAX_ITERATIONS", 1)
        res = fit_fixture(fixture)
        data = {"budgets": fixture.budgets, "mask": fixture.mask,
                "consumer_weights": fixture.weights,
                "nests": [fixture.nests[s] for s in fixture.store_ids]}
        data[bad] = data[bad][:-1] if bad == "nests" else data[bad][..., :1]
        with pytest.raises(InputValidationError, match="nest label|must match"):
            res.predict(fixture.design, **data)

    def test_not_converged_flagged(self, fixture, monkeypatch):
        monkeypatch.setattr(fitting, "MAX_ITERATIONS", 1)
        res = fit_fixture(fixture)
        assert not res.converged
        assert "not converged" in res.message

    def test_mu_at_the_edge_is_not_converged(self):
        """The 5x5 seed-5 geography with one budget of 1 drives mu into the
        logistic's flat tail (about 3e-65), where the step test stopped the solve
        as converged with a residual s.e. of about 107: it is reported
        unconverged, naming the lower edge of (0, 1]."""
        fx = fitting.generate_spatial_fixture(
            fitting.SpatialConfig(seed=5, n_tracts=5, n_stores=5))
        budgets = fx.budgets.copy()
        budgets[0] = 1.0
        res = fitting.fit_nested_ces(
            np.array([fx.revenues[s] for s in fx.store_ids]), fx.design, budgets,
            [fx.nests[s] for s in fx.store_ids], mask=fx.mask, consumer_weights=fx.weights)
        assert not res.converged and res.mu < 1e-30
        assert res.message.startswith("not converged: mu = ")
        assert "at the lower edge of (0, 1]" in res.message

    def test_mu_at_the_upper_edge_is_a_fit(self):
        """mu = 1 is plain CES, a model the fitter covers: noisy revenues from a
        SpatialConfig(mu=1) geography fit with mu within 1e-8 of 1, and the fit
        is reported converged by its stop test, as an interior one is."""
        fx = fitting.generate_spatial_fixture(
            fitting.SpatialConfig(seed=7, n_tracts=30, n_stores=10, mu=1.0))
        revenues = np.array([fx.revenues[s] for s in fx.store_ids])
        revenues *= np.exp(0.05 * np.random.default_rng(7).standard_normal(len(revenues)))
        res = fitting.fit_nested_ces(
            revenues, fx.design, fx.budgets, [fx.nests[s] for s in fx.store_ids],
            mask=fx.mask, consumer_weights=fx.weights)
        assert res.converged and 0.0 < 1.0 - res.mu < fitting.MU_EDGE
        assert res.message == "relative cost reduction below 1e-08"

    @pytest.mark.parametrize("seed", [11, 5, 41])
    def test_exact_fit_is_a_fit(self, seed):
        """Noiseless revenues from a SpatialConfig(mu=1) geography fit to a
        residual at their round-off, where no trial step lowers the cost and the
        solver stops with its damping overflowed. The fit is exact, so it is
        reported converged under its own message, and the suite's
        RuntimeWarning filter sees no 0/0 on the way."""
        fx = fitting.generate_spatial_fixture(fitting.SpatialConfig(seed=seed, mu=1.0))
        revenues = np.array([fx.revenues[s] for s in fx.store_ids])
        res = fitting.fit_nested_ces(
            revenues, fx.design, fx.budgets, [fx.nests[s] for s in fx.store_ids],
            mask=fx.mask, consumer_weights=fx.weights)
        assert res.converged and res.message.startswith("exact fit: residual norm")
        assert res.residual_se < 1e-12 * revenues.mean()
        np.testing.assert_allclose(res.theta, fx.theta, rtol=0, atol=1e-12)
        assert 0.0 < 1.0 - res.mu < 1e-12

    def test_iteration_log_populated(self, fixture):
        res = fit_fixture(fixture)
        # one entry per residual evaluation: the Jacobian is analytic
        assert len(res.log) == res.n_evaluations > 0
        assert min(c for _, c in res.log) <= res.log[0][1]
        assert res.residual_se < 1e-8


def model_inputs(fx):
    """``_model_revenues``' data arguments for a spatial fixture."""
    return fitting._prepare(fx.design, fx.budgets, [fx.nests[s] for s in fx.store_ids],
                            fx.mask, fx.weights)


def dense_model_inputs(data):
    """``(design, mask, wb)`` back from ``_model_revenues``' data arguments, with
    design 0 off the consideration sets."""
    x, wb, pairs = data
    inside = pairs.cols < pairs.n_cols - 1  # the outside option is the last column
    design = np.zeros((pairs.n_rows, pairs.n_cols - 1, len(x)))
    mask = np.zeros(design.shape[:2], dtype=bool)
    design[pairs.rows[inside], pairs.cols[inside]] = x[:, inside].T
    mask[pairs.rows[inside], pairs.cols[inside]] = True
    return design, mask, wb


def weighted_geography_missing_a_nest():
    """Seeded 30x12 geography with non-unit consumer weights, in which one
    consumer who shopped both nests now considers no store of one of them."""
    fx = fitting.generate_spatial_fixture(
        fitting.SpatialConfig(seed=21, n_tracts=30, n_stores=12, mu=0.6))
    labels = np.array([fx.nests[s] for s in fx.store_ids])
    i = next(i for i, row in enumerate(fx.mask) if len(set(labels[row])) == 2)
    mask = fx.mask.copy()
    mask[i] &= labels != labels[mask[i]][0]
    weights = np.random.default_rng(21).uniform(0.3, 3.0, len(fx.budgets))
    return model_inputs(dataclasses.replace(fx, mask=mask, weights=weights)), fx.theta


class TestModelRevenueJacobian:
    """``_model_revenues(..., jacobian=True)``: dR/d(theta, mu) against central
    differences of the revenues; a RuntimeWarning (from -inf utilities or a
    consumer without a nest) fails the suite."""

    @pytest.fixture(scope="class")
    def geographies(self, fixture):
        return [(model_inputs(fixture), fixture.theta), weighted_geography_missing_a_nest()]

    @pytest.mark.parametrize("mu", [0.2, 0.46, 0.8, 1.0])
    def test_matches_central_differences(self, geographies, mu):
        for data, theta in geographies:
            r, jac = fitting._model_revenues(theta, mu, *data, jacobian=True)
            np.testing.assert_array_equal(r, fitting._model_revenues(theta, mu, *data))
            assert jac.shape == (len(r), len(theta) + 1)
            fd = central_differences(lambda p: fitting._model_revenues(p[:-1], p[-1], *data),
                                     np.append(theta, mu), np.full(len(theta) + 1, 1e-6))
            np.testing.assert_allclose(jac, fd, rtol=0.0, atol=1e-7 * np.max(np.abs(jac)))

    def test_unit_mu_reduces_to_the_softmax_derivative(self, geographies):
        """At mu = 1 the shares are one softmax, so dR_j/dtheta =
        sum_i wb_i a_ij (x_ij - sum_k a_ik x_ik)."""
        for data, theta in geographies:
            _, jac = fitting._model_revenues(theta, 1.0, *data, jacobian=True)
            design, mask, wb = dense_model_inputs(data)
            u = np.where(mask, design @ theta, -np.inf)
            a = np.exp(u) / (1.0 + np.exp(u).sum(axis=1, keepdims=True))
            xbar = np.einsum("ij,ijk->ik", a, design)
            expected = np.einsum("i,ij,ijk->jk", wb, a, design - xbar[:, None, :])
            np.testing.assert_allclose(jac[:, :-1], expected, rtol=0.0,
                                       atol=1e-12 * np.max(np.abs(expected)))

    def test_fit_evaluates_revenues_once_per_residual(self, fixture, monkeypatch):
        """The solver's Jacobian reuses the residual's share evaluation: the log
        holds one entry per evaluation, and no finite-difference steps."""
        calls, model_revenues = [], fitting._model_revenues

        def counting(*args, **kw):
            calls.append(1)
            return model_revenues(*args, **kw)

        monkeypatch.setattr(fitting, "_model_revenues", counting)
        res = fit_fixture(fixture)
        assert res.converged
        assert len(res.log) == res.n_evaluations == len(calls)


def fit_with_oracle(fx, revenues, monkeypatch):
    """Fit, then run scipy's MINPACK Levenberg-Marquardt on the fitter's own
    residual and Jacobian from the same start; return both results and
    scipy's (theta, mu)."""
    optimize = pytest.importorskip("scipy.optimize")
    seen, solver = {}, fitting.levenberg_marquardt

    def capturing(fun, x0, max_iterations):
        seen.update(fun=fun, x0=x0)
        return solver(fun, x0, max_iterations)

    monkeypatch.setattr(fitting, "levenberg_marquardt", capturing)
    res = fitting.fit_nested_ces(revenues, fx.design, fx.budgets,
                                 [fx.nests[s] for s in fx.store_ids],
                                 mask=fx.mask, consumer_weights=fx.weights)
    fun = seen["fun"]
    sol = optimize.least_squares(lambda p: fun(p)[0], seen["x0"], jac=lambda p: fun(p)[1],
                                 method="lm", gtol=1e-8, xtol=1e-10)
    return res, sol, sol.x[:-1], fitting._expit(sol.x[-1])


class TestScipyOracle:
    """The fitter's Levenberg-Marquardt reaches the optimum that MINPACK's
    (``least_squares(method="lm")``) reaches on the same problem."""

    def test_noiseless_fit_matches(self, fixture, monkeypatch):
        rev = np.array([fixture.revenues[s] for s in fixture.store_ids])
        res, _, theta, mu = fit_with_oracle(fixture, rev, monkeypatch)
        np.testing.assert_allclose(res.theta, theta, rtol=1e-10)
        assert res.mu == pytest.approx(mu, rel=1e-10)

    def test_noisy_fit_matches(self, monkeypatch):
        """200x40 geography, observed revenues under 5% log-normal noise."""
        fx = fitting.generate_spatial_fixture(
            fitting.SpatialConfig(seed=11, n_tracts=200, n_stores=40))
        clean = np.array([fx.revenues[s] for s in fx.store_ids])
        noisy = clean * np.exp(np.random.default_rng(11).normal(0.0, 0.05, clean.shape))
        res, sol, theta, mu = fit_with_oracle(fx, noisy, monkeypatch)
        assert res.converged and sol.status > 0
        # a converged solve ends on the accepted point, the last one evaluated
        assert res.log[-1][1] == pytest.approx(2.0 * sol.cost, rel=1e-9)
        np.testing.assert_allclose(res.theta, theta, rtol=1e-5)
        assert res.mu == pytest.approx(mu, rel=1e-5)
