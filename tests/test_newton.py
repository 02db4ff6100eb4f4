"""The damped Newton driver shared by simulate and solve_bertrand, on toy systems."""

import numpy as np
import pytest

from uppkit.errors import InputValidationError
from uppkit.newton import damped_newton


def test_converges_on_smooth_system():
    def fun(x):
        return np.array([x[0] ** 2 + x[1] - 3.0, x[0] - x[1] + 1.0])

    def rescue(x):
        raise AssertionError("rescue must not fire on a smooth system")

    x, f, its, ok = damped_newton(fun, np.array([2.0, 2.0]), rescue, 1e-12, 50)
    assert ok
    assert 0 < its < 10
    np.testing.assert_allclose(x, [1.0, 2.0], atol=1e-12)
    assert np.max(np.abs(f)) < 1e-12


def test_singular_jacobian_fires_rescue_then_converges():
    # flat (zero Jacobian) below 0.1, so Newton cannot step from 0
    calls = []

    def rescue(x):
        calls.append(x.copy())
        return x + 0.5

    x, f, its, ok = damped_newton(
        lambda x: np.maximum(x, 0.1) - 1.0, np.array([0.0]), rescue, 1e-12, 20
    )
    assert ok
    assert len(calls) == 1 and calls[0][0] == 0.0
    assert x[0] == pytest.approx(1.0, abs=1e-12)
    assert abs(f[0]) < 1e-12


def test_no_progress_returns_unconverged_without_raising():
    x0 = np.array([0.3, -0.2])
    x, f, its, ok = damped_newton(
        lambda x: np.ones(2), x0, lambda x: x.copy(), 1e-10, 100
    )
    assert not ok
    assert its == 1
    np.testing.assert_array_equal(x, x0)
    np.testing.assert_array_equal(f, np.ones(2))


def test_iterates_respect_lower_bound():
    # root at -2 lies below the bound; the solver stops at the bound unconverged
    x, _, _, ok = damped_newton(
        lambda x: x + 2.0, np.array([0.0]), lambda x: x - 1.0, 1e-10, 20, lower_bound=-0.99
    )
    assert not ok
    assert x[0] == -0.99


def test_undefined_candidates_are_no_improvement():
    """A candidate where the residual raises or is not finite never aborts the
    solve: the line search shortens the step past it, and a rescue to such a
    point ends the search with the best point so far."""
    def fun(x):
        if x[0] > 1.5:
            raise InputValidationError("undefined state")
        return np.array([np.nan if x[0] < -1.0 else np.arctan(x[0] - 1.0)])

    x, f, _, ok = damped_newton(fun, np.array([0.0]), lambda x: x + 0.1, 1e-12, 50)
    assert ok and x[0] == pytest.approx(1.0, abs=1e-12)

    for jump in (5.0, -5.0):  # a rescue to a raising, then to a NaN point
        x, f, its, ok = damped_newton(
            lambda x: np.maximum(fun(x), 0.5), np.array([0.0]), lambda x: x + jump, 1e-12, 50)
        assert not ok and its == 1
        np.testing.assert_array_equal(x, [0.0])
        np.testing.assert_array_equal(f, [0.5])
