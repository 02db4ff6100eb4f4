"""The damped Newton driver shared by simulate and solve_bertrand, and the
fitter's Levenberg-Marquardt, on toy systems."""

import numpy as np
import pytest

from uppkit.errors import InputValidationError
from uppkit.newton import damped_newton, levenberg_marquardt


def test_converges_on_smooth_system():
    def fun(x):
        f = np.array([x[0] ** 2 + x[1] - 3.0, x[0] - x[1] + 1.0])
        return f, lambda: np.array([[2.0 * x[0], 1.0], [1.0, -1.0]])

    x, f, its, ok = damped_newton(fun, np.array([2.0, 2.0]), 1e-12, 50)
    assert ok
    assert 0 < its < 10
    np.testing.assert_allclose(x, [1.0, 2.0], atol=1e-12)
    assert np.max(np.abs(f)) < 1e-12


def test_singular_jacobian_stops_unconverged_at_start():
    """A singular Jacobian admits no Newton step: the solve ends after one
    step at the starting point, unconverged, without evaluating elsewhere."""
    x0 = np.array([0.3, -0.2])
    calls = []

    def fun(x):
        calls.append(x.copy())
        return np.ones(2), lambda: np.zeros((2, 2))

    x, f, its, ok = damped_newton(fun, x0, 1e-10, 100)
    assert not ok and its == 1 and len(calls) == 1
    np.testing.assert_array_equal(x, x0)
    np.testing.assert_array_equal(f, np.ones(2))


def test_no_progress_returns_unconverged_without_raising():
    """A regular Jacobian whose step never lowers the residual exhausts the
    line search, which ends the search unconverged after one step."""
    x0 = np.array([0.3, -0.2])
    x, f, its, ok = damped_newton(lambda x: (np.ones(2), lambda: np.eye(2)), x0, 1e-10, 100)
    assert not ok and its == 1
    np.testing.assert_array_equal(x, x0)
    np.testing.assert_array_equal(f, np.ones(2))


def test_iterates_respect_lower_bound():
    # root at -2 lies below the bound; the solver stops at the bound unconverged
    x, _, _, ok = damped_newton(
        lambda x: (x + 2.0, lambda: np.eye(1)), np.array([0.0]), 1e-10, 20, lower_bound=-0.99,
    )
    assert not ok
    assert x[0] == -0.99


def test_undefined_candidates_are_no_improvement():
    """A candidate where the residual raises never aborts the solve: the line
    search shortens the step past it."""
    tried = []

    def fun(x):
        tried.append(x[0])
        if x[0] > 1.5:
            raise InputValidationError("undefined state")
        return np.array([np.arctan(x[0] - 1.0)]), lambda: np.array([[1.0 / (1.0 + (x[0] - 1.0) ** 2)]])

    x, f, _, ok = damped_newton(fun, np.array([0.0]), 1e-12, 50)
    assert ok and x[0] == pytest.approx(1.0, abs=1e-12)
    assert max(tried) > 1.5  # the first full step was undefined and got halved


def coupled_system(n):
    """A smooth n-dimensional system with a unique root and its Jacobian."""
    a = np.eye(n) + 0.05 * np.ones((n, n))
    c = np.linspace(0.5, 2.0, n)

    def fun(x):
        return a @ x + 0.1 * x**3 - c

    def jac(x):
        return a + np.diag(0.3 * x**2)

    return fun, jac


def test_supplied_jacobian_costs_one_evaluation_per_step():
    n = 10
    fun, jac = coupled_system(n)
    calls = []

    def fun_and_jac(x):
        calls.append(x.copy())
        return fun(x), lambda: jac(x)

    x, f, its, ok = damped_newton(fun_and_jac, np.zeros(n), 1e-12, 50)
    assert ok and its > 1
    assert len(calls) <= 2 * its + 1  # O(1) per step, not the 2n = 20 of central differences
    np.testing.assert_allclose(fun(x), 0.0, rtol=0.0, atol=1e-12)


def test_jacobian_built_only_where_a_step_is_taken():
    """The Jacobian callable runs once per step, at the point the step leaves:
    never at a rejected trial point, and never at the returned root."""
    fun, jac = coupled_system(10)
    evaluated, built = [], []

    def lazy(x):
        evaluated.append(x.copy())

        def jacobian():
            built.append(x.copy())
            return jac(x)

        return fun(x), jacobian

    x, f, its, ok = damped_newton(lazy, np.zeros(10), 1e-12, 50)
    assert ok and its > 1 and len(built) == its
    assert len(evaluated) >= its + 1  # the start, then one or more trials per step
    np.testing.assert_array_equal(built[0], np.zeros(10))
    assert not any(np.array_equal(b, x) for b in built)

    tried, built = [], []

    def undefined_beyond(x):
        tried.append(x[0])
        if x[0] > 1.5:
            return np.array([np.nan]), lambda: built.append(x[0])

        def jacobian():
            built.append(x[0])
            return np.array([[1.0 / (1.0 + (x[0] - 1.0) ** 2)]])

        return np.array([np.arctan(x[0] - 1.0)]), jacobian

    x, f, its, ok = damped_newton(undefined_beyond, np.array([0.0]), 1e-12, 50)
    assert ok and len(built) == its and max(tried) > 1.5
    assert max(built) <= 1.5 and x[0] not in built


def test_supplied_jacobian_undefined_candidates_are_no_improvement():
    """A candidate whose residual and Jacobian are both NaN is no improvement,
    as a raising one is: the line search shortens the step past it."""
    tried = []

    def fun(x):
        tried.append(x[0])
        if x[0] > 1.5:
            return np.array([np.nan]), lambda: np.array([[np.nan]])
        return np.array([np.arctan(x[0] - 1.0)]), lambda: np.array([[1.0 / (1.0 + (x[0] - 1.0) ** 2)]])

    x, f, _, ok = damped_newton(fun, np.array([0.0]), 1e-12, 50)
    assert ok and x[0] == pytest.approx(1.0, abs=1e-12)
    assert max(tried) > 1.5  # the first full step was undefined and got halved


def rosenbrock(x):
    f = np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])
    return f, np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])


def test_lm_solves_rosenbrock():
    x, f, steps, ok, reason = levenberg_marquardt(rosenbrock, np.array([-1.2, 1.0]), 500)
    assert ok, reason
    np.testing.assert_allclose(x, [1.0, 1.0], rtol=0.0, atol=1e-8)
    assert steps < 100


def test_lm_linear_zero_residual_accepts_every_step():
    """On a linear system the quadratic model is exact (rho = 1), so no trial
    step is rejected. A damped step leaves about lam / (1 + lam) of the
    residual, so the root takes a few steps, as lam falls by 3 at each."""
    a = np.array([[3.0, 1.0], [1.0, 2.0], [0.0, 1.0]])
    root = np.array([0.7, -1.3])
    calls = []

    def fun(x):
        calls.append(x.copy())
        return a @ (x - root), a

    x, f, steps, ok, _ = levenberg_marquardt(fun, np.zeros(2), 500)
    assert ok
    assert len(calls) == steps + 1 < 10
    costs = [np.sum((a @ (c - root)) ** 2) for c in calls]
    assert all(later < earlier for earlier, later in zip(costs, costs[1:]))
    np.testing.assert_allclose(x, root, rtol=0.0, atol=1e-12)


def test_lm_step_cap_returns_unconverged_without_raising():
    calls = []

    def fun(x):
        calls.append(1)
        return rosenbrock(x)

    x, f, steps, ok, reason = levenberg_marquardt(fun, np.array([-1.2, 1.0]), 3)
    assert not ok and steps == 3 and len(calls) == 4
    assert "cap" in reason
    np.testing.assert_array_equal(f, rosenbrock(x)[0])


@pytest.mark.parametrize("undefined", ["raise", "nan"])
def test_lm_undefined_candidates_are_rejected_steps(undefined):
    """A candidate where the residual raises, or is not finite, is rejected:
    lam grows and the next trial step is shorter."""
    tried = []

    def fun(x):
        tried.append(x[0])
        if x[0] > 1.5:
            if undefined == "raise":
                raise InputValidationError("undefined state")
            return np.array([np.nan]), np.array([[np.nan]])
        return np.array([np.arctan(x[0] - 1.0)]), np.array([[1.0 / (1.0 + (x[0] - 1.0) ** 2)]])

    x, f, steps, ok, _ = levenberg_marquardt(fun, np.array([0.0]), 100)
    assert ok and x[0] == pytest.approx(1.0, abs=1e-10)
    assert tried[1] > 1.5  # the first trial step was undefined
    assert steps == len(tried) - 1


def test_lm_damping_overflow_stops_unconverged():
    """A Jacobian that promises a descent no step delivers: every trial step is
    rejected and lam grows until it overflows. The solve stops there,
    unconverged and with no RuntimeWarning, before lam x D^2 turns to inf and NaN."""

    def fun(x):
        return np.array([1.0]), np.array([[1.0]])

    x, f, steps, ok, reason = levenberg_marquardt(fun, np.array([0.0]), 500)
    assert not ok and "damping overflowed" in reason
    assert steps < 100 and x[0] == 0.0
