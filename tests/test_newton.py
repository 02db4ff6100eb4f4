"""The damped Newton driver shared by simulate and solve_bertrand, and the
fitter's Levenberg-Marquardt, on toy systems."""

import numpy as np
import pytest

from uppkit.errors import InputValidationError
from uppkit.newton import damped_newton, levenberg_marquardt


def mixed(*systems):
    """A batch residual whose row r of x0 solves ``systems[r]``, each a
    one-system residual ``fun(x) -> (f, jacobian())``, evaluated row by row:
    the solve says which rows of x0 it passes, so rows may hold different
    systems although it passes only the rows still stepping."""

    def batch(x, rows):
        out = [systems[r](row) for r, row in zip(rows, x)]
        return np.array([f for f, _ in out]), lambda pos: np.array([out[i][1]() for i in pos])

    return batch


def batched(fun):
    """A batch residual that solves ``fun`` in every row."""
    return lambda x, rows: mixed(*[fun] * len(x))(x, range(len(x)))


def solve_one(fun, x0, tolerance, max_iterations, **kwargs):
    """``damped_newton`` on one system, as a batch of one: (x, f, iterations,
    converged)."""
    out = damped_newton(batched(fun), np.asarray(x0, dtype=float)[None], tolerance,
                        max_iterations, **kwargs)
    return out.x[0], out.f[0], out.iterations[0], out.converged[0]


def test_converges_on_smooth_system():
    def fun(x):
        f = np.array([x[0] ** 2 + x[1] - 3.0, x[0] - x[1] + 1.0])
        return f, lambda: np.array([[2.0 * x[0], 1.0], [1.0, -1.0]])

    x, f, its, ok = solve_one(fun, np.array([2.0, 2.0]), 1e-12, 50)
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

    x, f, its, ok = solve_one(fun, x0, 1e-10, 100)
    assert not ok and its == 1 and len(calls) == 1
    np.testing.assert_array_equal(x, x0)
    np.testing.assert_array_equal(f, np.ones(2))


def test_no_progress_returns_unconverged_without_raising():
    """A regular Jacobian whose step never lowers the residual exhausts the
    line search, which ends the search unconverged after one step."""
    x0 = np.array([0.3, -0.2])
    x, f, its, ok = solve_one(lambda x: (np.ones(2), lambda: np.eye(2)), x0, 1e-10, 100)
    assert not ok and its == 1
    np.testing.assert_array_equal(x, x0)
    np.testing.assert_array_equal(f, np.ones(2))


def test_iterates_respect_lower_bound():
    # root at -2 lies below the bound; the solver stops at the bound unconverged
    x, _, _, ok = solve_one(
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

    x, f, _, ok = solve_one(fun, np.array([0.0]), 1e-12, 50)
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

    x, f, its, ok = solve_one(fun_and_jac, np.zeros(n), 1e-12, 50)
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

    x, f, its, ok = solve_one(lazy, np.zeros(10), 1e-12, 50)
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

    x, f, its, ok = solve_one(undefined_beyond, np.array([0.0]), 1e-12, 50)
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

    x, f, _, ok = solve_one(fun, np.array([0.0]), 1e-12, 50)
    assert ok and x[0] == pytest.approx(1.0, abs=1e-12)
    assert max(tried) > 1.5  # the first full step was undefined and got halved


def arctan_system(undefined_beyond=np.inf, refuse_jacobian=False):
    """Root at 1 of arctan(x - 1); NaN beyond ``undefined_beyond``; with
    ``refuse_jacobian`` its Jacobian raises ``InputValidationError``."""

    def fun(x):
        if x[0] > undefined_beyond:
            return np.array([np.nan]), lambda: np.array([[np.nan]])

        def jacobian():
            if refuse_jacobian:
                raise InputValidationError("Jacobian refused")
            return np.array([[1.0 / (1.0 + (x[0] - 1.0) ** 2)]])

        return np.array([np.arctan(x[0] - 1.0)]), jacobian

    return fun


def padded(system):
    """``system`` of one unknown in x[0]; x[1] is held by a zero residual."""

    def fun(x):
        f, jac = system(x[:1])

        def jacobian():
            full = np.eye(2)
            full[:1, :1] = jac()
            return full

        return np.append(f, 0.0), jacobian

    return fun


def test_batch_rows_follow_their_standalone_paths():
    """Rows stepped in lock step take the path each takes alone: same steps,
    same convergence, the same point to the last bit, while a NaN trial
    point, a singular J or a refused Jacobian stops or shortens another row
    (the first row, the main solve, converges)."""
    fun, jac = coupled_system(2)
    coupled = lambda x: (fun(x), lambda: jac(x))  # noqa: E731
    systems = (
        coupled,
        padded(arctan_system(undefined_beyond=1.5)),  # a first full step that is undefined
        padded(lambda x: (np.ones(1), lambda: np.zeros((1, 1)))),  # singular J
        padded(arctan_system(refuse_jacobian=True)),  # Jacobian refused at the start
        coupled,
    )
    rows = np.array([[0.0, 0.0], [0.0, 0.0], [0.3, 0.0], [0.0, 0.0], [3.0, -2.0]])
    alone = [damped_newton(mixed(system), row[None], 1e-12, 50) for system, row in zip(systems, rows)]
    for group in ([0, 4], [1, 2, 3], [4, 2, 1], [0, 3, 1, 4], [1, 3, 0, 2, 4]):
        out = damped_newton(mixed(*[systems[r] for r in group]), rows[group], 1e-12, 50)
        for k, r in enumerate(group):
            assert out.iterations[k] == alone[r].iterations[0]
            assert out.converged[k] == alone[r].converged[0]
            assert (out.errors[k] is None) == (alone[r].errors[0] is None)
            np.testing.assert_array_equal(out.x[k], alone[r].x[0])
    assert alone[0].converged[0] and alone[1].converged[0] and alone[4].converged[0]
    assert not alone[2].converged[0] and alone[2].iterations[0] == 1
    assert str(alone[3].errors[0]) == "Jacobian refused"


def test_batch_ends_when_its_first_row_stops_short():
    """The first row is the batch's main solve: once it stops unconverged,
    on a singular J, a refused Jacobian or an undefined start, the other rows
    stop where they are and no Jacobian is built for them again."""
    fun, jac = coupled_system(2)
    coupled = lambda x: (fun(x), lambda: jac(x))  # noqa: E731
    singular = padded(lambda x: (np.ones(1), lambda: np.zeros((1, 1))))
    refused = padded(arctan_system(refuse_jacobian=True))  # Jacobian refused at the start
    others = np.array([[0.0, 0.0], [3.0, -2.0]])
    one_step = damped_newton(mixed(coupled, coupled), others, 1e-12, 1)
    built = []

    def counted(x, rows):
        f, jacobian = mixed(singular, coupled, coupled)(x, rows)
        return f, lambda pos: built.append(len(pos)) or jacobian(pos)

    out = damped_newton(counted, np.vstack([[[0.3, 0.0]], others]), 1e-12, 50)
    assert out.iterations == [1, 1, 1] and out.converged == [False] * 3
    assert built == [3]  # the Jacobians of the first step, and no more
    np.testing.assert_array_equal(out.x[1:], one_step.x)

    out = damped_newton(mixed(refused, coupled, coupled), np.vstack([[[0.0, 0.0]], others]),
                        1e-12, 50)
    assert out.iterations == [0, 0, 0] and str(out.errors[0]) == "Jacobian refused"
    np.testing.assert_array_equal(out.x[1:], others)

    def undefined_first(x, rows):
        if (x[:, 0] < 0.0).any():
            raise InputValidationError("undefined start")
        return mixed(coupled, coupled, coupled)(x, rows)

    out = damped_newton(undefined_first, np.vstack([[[-1.0, 0.0]], others]), 1e-12, 50)
    assert out.iterations == [0, 0, 0] and out.held[0] is None
    assert out.held[1] is not None and out.converged == [False] * 3


def test_refused_jacobian_stops_its_row_with_the_error():
    """A Jacobian that raises ``InputValidationError`` stops that row at its
    best point, unconverged, with the error; the other rows carry on."""
    out = damped_newton(mixed(arctan_system(), arctan_system(refuse_jacobian=True)),
                        np.array([[0.0], [0.5]]), 1e-12, 50)
    assert out.converged == [True, False] and out.errors[0] is None
    assert str(out.errors[1]) == "Jacobian refused" and out.iterations[1] == 0
    assert out.x[1, 0] == 0.5 and out.held[1] is not None


def test_start_that_raises_leaves_the_row_unstarted():
    """A row whose starting point raises is never stepped and keeps its error;
    ``held`` says it has no evaluation. The batch is evaluated again row by
    row, so the other rows start and converge."""

    def fun(x):
        if x[0] < 0.0:
            raise InputValidationError("undefined start")
        return arctan_system()(x)

    out = damped_newton(batched(fun), np.array([[0.5], [-1.0]]), 1e-12, 50)
    assert out.converged == [True, False] and out.iterations[1] == 0
    assert out.held[1] is None and str(out.errors[1]) == "undefined start"
    assert np.isnan(out.f[1, 0]) and out.x[1, 0] == -1.0


def test_rows_name_the_rows_of_x0_in_every_evaluation():
    """``fun`` is told which rows of x0 the batch x holds: at the start, in
    the line search (the rows still searching) and in the row-by-row retry
    of a batch that raises. Row r solves arctan(x - (r + 1)), undefined
    beyond r + 2.5, so a misnamed row converges to the wrong root."""
    calls = []

    def fun(x, rows):
        calls.append(list(rows))
        roots = np.array(rows, dtype=float)[:, None] + 1.0
        if (x > roots + 1.5).any():
            raise InputValidationError("undefined candidate")
        return np.arctan(x - roots), lambda pos: (1.0 / (1.0 + (x[pos] - roots[pos]) ** 2))[:, :, None]

    out = damped_newton(fun, np.zeros((3, 1)), 1e-12, 50)
    assert out.converged == [True] * 3
    np.testing.assert_allclose(out.x[:, 0], [1.0, 2.0, 3.0], rtol=0.0, atol=1e-12)
    assert calls[:5] == [[0, 1, 2], [0, 1, 2], [0], [1], [2]]  # the start, a trial, its retry
    assert [1, 2] in calls  # row 0 accepted its full step, the others searched on


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


def test_lm_starting_at_least_squares_solution_takes_no_step():
    """At the least-squares point of an overdetermined linear system the
    residual is nonzero but orthogonal to J's columns: the scaled-gradient
    test stops before the first trial step."""
    a = np.array([[3.0, 1.0], [1.0, 2.0], [0.0, 1.0]])
    b = np.array([1.0, -2.0, 4.0])
    x0 = np.linalg.lstsq(a, b, rcond=None)[0]
    x, f, steps, ok, reason = levenberg_marquardt(lambda x: (a @ x - b, a), x0, 500)
    assert np.linalg.norm(f) > 1.0
    assert ok and steps == 0 and reason == "scaled gradient below 1e-08"
    np.testing.assert_array_equal(x, x0)


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


def test_lm_round_off_cost_rejects_steps_without_dividing():
    """At a residual of 1e-300 the cost underflows to 0 and, once lam is large,
    so does the trial step and its predicted reduction: rho would be 0/0. Such a
    step is rejected without dividing, and the solve stops at its damping
    overflow with no RuntimeWarning."""

    def fun(x):
        return x * 0.0 + 1e-300, np.array([[1.0]])

    x, f, steps, ok, reason = levenberg_marquardt(fun, np.array([0.0]), 500)
    assert not ok and "damping overflowed" in reason
    assert x[0] == 0.0 and f[0] == 1e-300
