"""Newton-type solvers on residuals that return their closed-form Jacobian.

``damped_newton`` is the root finder of both equilibrium solvers,
``simulation.simulate`` (percentage price changes) and
``harness.solve_bertrand`` (log prices); a solve whose line search fails
stops there, unconverged. ``levenberg_marquardt`` is the least-squares solver
of the nested-CES fitter. The step and stop rules live only here.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import InputValidationError

GTOL, FTOL, XTOL = 1e-8, 1e-8, 1e-10  # levenberg_marquardt's stop tests


def _value(fun, x):
    """``fun(x)``, or a NaN residual where ``fun`` raises ``InputValidationError``."""
    try:
        return fun(x)
    except InputValidationError:
        return np.full(len(x), np.nan), None


def damped_newton(
    fun: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    x0: np.ndarray,
    tolerance: float,
    max_iterations: int,
    lower_bound: float = -np.inf,
):
    """Damped Newton on ``fun``.

    ``fun(x)`` returns ``(f, J)`` as in ``scipy.optimize.root`` with
    ``jac=True``: every evaluated point carries its own Jacobian, so a step
    costs one evaluation per trial point.

    Each step halves its length up to 30 times until the inf-norm of ``f``
    drops; iterates are clipped at ``lower_bound``. A Newton step s gives
    f(x + t s) = (1 - t) f(x) + O(t^2), so some length improves unless J is
    singular or f is at round-off. The solve stops once the norm is under
    ``tolerance``, after ``max_iterations`` steps, or, at the best point so
    far, when J is singular, the step is not finite or no length improves.
    Only the starting point may raise: elsewhere ``InputValidationError``
    from ``fun`` reads as a NaN residual, and a non-finite candidate is no
    improvement. Returns ``(x, f, iterations, converged)``; failing to
    converge is reported in ``converged``, not raised.
    """
    lo = lower_bound
    x = np.clip(x0, lo, None)
    f, J = fun(x)
    best_norm = float(np.linalg.norm(f, np.inf))
    its = 0
    while best_norm >= tolerance and its < max_iterations:
        its += 1
        try:
            step = np.linalg.solve(J, -f)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        t = 1.0
        for _ in range(30):
            cand = np.clip(x + t * step, lo, None)
            fc, Jc = _value(fun, cand)
            norm = float(np.linalg.norm(fc, np.inf))
            if norm < best_norm:  # False for NaN
                x, f, J, best_norm = cand, fc, Jc, norm
                break
            t *= 0.5
        else:
            break  # no step length improves
    return x, f, its, best_norm < tolerance


def levenberg_marquardt(fun: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
                        x0: np.ndarray, max_iterations: int):
    """Levenberg-Marquardt on 0.5 |f(x)|^2, where ``fun(x)`` returns ``(f, J)``.

    Trial steps solve (J'J + lam D^2) h = -J'f, D the running maximum of J's
    column norms (Marquardt 1963, Moré 1978). lam starts at 1e-2 max diag(J'J)
    / D^2 = 1e-2; Nielsen's update scales it by max(1/3, 1 - (2 rho - 1)^3) on
    an accepted step (rho: actual over predicted cost reduction) and by 2, 4,
    8, ... on successive rejected ones. A step is rejected unless the cost
    falls and f, J are finite; ``fun`` raising ``InputValidationError`` rejects
    it. Converged: max_j |J_j'f| / (|J_j| |f|) <= GTOL, or, after an accepted
    step only (a rejected one's small predicted reduction reflects a large lam,
    not an optimum), both reductions <= FTOL times the cost or |D h| <= XTOL
    (|D x| + XTOL). ``max_iterations`` caps the trial steps, one evaluation
    each. Returns ``(x, f, steps, converged, reason)``.
    """
    x = np.asarray(x0, dtype=float)
    f, J = fun(x)
    cost, d, lam, nu, steps = 0.5 * f @ f, np.zeros(len(x)), 1e-2, 2.0, 0
    while True:
        g, norms = J.T @ f, np.linalg.norm(J, axis=0)
        if np.max(np.abs(g) / np.where(norms > 0.0, norms, np.inf)) <= GTOL * np.sqrt(2.0 * cost):
            return x, f, steps, True, f"scaled gradient below {GTOL:g}"
        d = np.maximum(d, norms)
        dd, jtj = np.where(d > 0.0, d, 1.0) ** 2, J.T @ J
        while True:
            if steps >= max_iterations:
                return x, f, steps, False, f"trial-step cap max_iterations={max_iterations} reached"
            steps += 1
            h = np.linalg.solve(jtj + lam * np.diag(dd), -g)
            fc, Jc = _value(fun, x + h)
            predicted, cost_c = 0.5 * h @ (lam * dd * h - g), 0.5 * fc @ fc
            rho = (cost - cost_c) / predicted
            if rho > 0.0 and np.all(np.isfinite(Jc)):  # rho > 0 is False for NaN
                break
            lam, nu = lam * nu, 2.0 * nu
        x, f, J, cost, actual = x + h, fc, Jc, cost_c, cost - cost_c
        lam, nu = lam * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), 2.0
        if max(actual, predicted) <= FTOL * (cost + actual):
            return x, f, steps, True, f"relative cost reduction below {FTOL:g}"
        if np.sqrt(dd @ h**2) <= XTOL * (np.sqrt(dd @ x**2) + XTOL):
            return x, f, steps, True, f"relative step below {XTOL:g}"
