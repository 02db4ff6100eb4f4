"""Nested-CES revenue NLS: recovery, diagnostics, estimator surface."""

import numpy as np
import pytest

from uppkit import fitting, harness
from uppkit.errors import InputValidationError


@pytest.fixture(scope="module")
def fixture():
    return harness.generate_spatial_fixture(
        harness.SpatialConfig(seed=5, n_tracts=50, n_stores=20, mu=0.46)
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
        fx = harness.generate_spatial_fixture(
            harness.SpatialConfig(seed=12, n_tracts=40, n_stores=15, mu=0.7,
                                  theta=(1.0, -0.2, 0.4, -0.5))
        )
        res = fit_fixture(fx)
        assert res.converged
        np.testing.assert_allclose(res.theta, fx.theta, rtol=1e-3)
        assert res.mu == pytest.approx(0.7, abs=1e-3)

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

    def test_unknown_weighting(self, fixture):
        with pytest.raises(InputValidationError, match="weighting"):
            fit_fixture(fixture, weighting="by-vibes")

    def test_bad_mu0(self, fixture):
        with pytest.raises(InputValidationError, match="mu0"):
            fit_fixture(fixture, mu0=1.5)


class TestEstimatorSurface:
    def test_get_set_params(self):
        est = fitting.NestedCESRevenueFitter(mu0=0.4)
        assert est.get_params()["mu0"] == 0.4
        est.set_params(max_iterations=100)
        assert est.max_iterations == 100
        with pytest.raises(ValueError):
            est.set_params(bogus=1)

    def test_fit_predict_consistency(self, fixture):
        est = fitting.NestedCESRevenueFitter()
        rev = np.array([fixture.revenues[s] for s in fixture.store_ids])
        nests = [fixture.nests[s] for s in fixture.store_ids]
        est.fit(fixture.design, rev, fixture.budgets, nests,
                mask=fixture.mask, consumer_weights=fixture.weights)
        pred = est.predict(fixture.design, fixture.budgets,
                           mask=fixture.mask, consumer_weights=fixture.weights)
        np.testing.assert_allclose(pred, rev, rtol=1e-8, atol=1e-8)

    @pytest.mark.parametrize("bad", ["budgets", "mask", "consumer_weights", "nests"])
    def test_predict_checks_data_like_fit(self, fixture, bad):
        """predict refuses data that do not match the design, as fit does."""
        est = fitting.NestedCESRevenueFitter(max_iterations=1)
        rev = np.array([fixture.revenues[s] for s in fixture.store_ids])
        nests = [fixture.nests[s] for s in fixture.store_ids]
        est.fit(fixture.design, rev, fixture.budgets, nests, mask=fixture.mask)
        data = {"budgets": fixture.budgets, "mask": fixture.mask,
                "consumer_weights": fixture.weights, "nests": nests}
        data[bad] = data[bad][:-1] if bad == "nests" else data[bad][..., :1]
        with pytest.raises(InputValidationError, match="nest label|must match"):
            est.predict(fixture.design, **data)

    def test_predict_before_fit(self, fixture):
        est = fitting.NestedCESRevenueFitter()
        with pytest.raises(InputValidationError, match="fit before"):
            est.predict(fixture.design, fixture.budgets)

    def test_not_converged_flagged(self, fixture):
        res = fit_fixture(fixture, max_iterations=1)
        assert not res.converged
        assert "not converged" in res.message

    def test_iteration_log_populated(self, fixture):
        res = fit_fixture(fixture)
        # the trace also records the solver's internal Jacobian evaluations
        assert len(res.log) >= res.n_evaluations > 0
        assert min(c for _, c in res.log) <= res.log[0][1]
        assert res.residual_se < 1e-8
