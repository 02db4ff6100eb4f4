"""Damped Newton root finder shared by both equilibrium solvers.

``simulation.simulate`` (percentage price changes) and
``harness.solve_bertrand`` (log prices) each hand it a residual that also
returns its closed-form Jacobian; the line search and the stop rule live only
here, and a solve whose line search fails stops there, unconverged.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import InputValidationError


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

    def value(x):
        try:
            return fun(x)
        except InputValidationError:
            return np.full(len(x), np.nan), None

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
            fc, Jc = value(cand)
            norm = float(np.linalg.norm(fc, np.inf))
            if norm < best_norm:  # False for NaN
                x, f, J, best_norm = cand, fc, Jc, norm
                break
            t *= 0.5
        else:
            break  # no step length improves
    return x, f, its, best_norm < tolerance
