"""Damped Newton root finder shared by both equilibrium solvers.

``simulation.simulate`` (percentage price changes) and
``harness.solve_bertrand`` (log prices) hand it their residual and a
problem-specific rescue step; the Jacobian, line search and stopping rule
live only here.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import InputValidationError

FD_STEP = 1e-6  # central-difference step of the Jacobian


def damped_newton(
    fun: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    rescue: Callable[[np.ndarray], np.ndarray],
    tolerance: float,
    max_iterations: int,
    lower_bound: float = -np.inf,
):
    """Damped Newton with a central-difference Jacobian.

    Each step halves its length up to 30 times until the inf-norm of ``fun``
    drops; when no length does (or the Jacobian is singular), ``rescue(x)``
    supplies the next point instead. Iterates are clipped at
    ``lower_bound``. Stops once the norm is under ``tolerance``, after
    ``max_iterations`` steps, or when the rescue neither moves nor improves.
    Only the starting point may raise: elsewhere ``InputValidationError`` from
    ``fun`` reads as a NaN residual, and a non-finite candidate is no
    improvement (a rescue to one ends the search). Returns
    ``(x, f, iterations, converged)``; failing to converge is reported in
    ``converged``, not raised.
    """

    def value(x):
        try:
            return fun(x)
        except InputValidationError:
            return np.full(len(x), np.nan)

    lo = lower_bound
    x = np.clip(x0, lo, None)
    f = fun(x)
    best_norm = float(np.linalg.norm(f, np.inf))
    its = 0
    while best_norm >= tolerance and its < max_iterations:
        its += 1
        n = len(x)
        jac = np.empty((n, n))
        for k in range(n):
            xp, xm = x.copy(), x.copy()
            xp[k] += FD_STEP
            xm[k] = max(xm[k] - FD_STEP, lo)
            jac[:, k] = (value(xp) - value(xm)) / (xp[k] - xm[k])
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            step = None
        improved = False
        if step is not None and np.all(np.isfinite(step)):
            t = 1.0
            for _ in range(30):
                cand = np.clip(x + t * step, lo, None)
                fc = value(cand)
                norm = float(np.linalg.norm(fc, np.inf))
                if norm < best_norm:  # False for NaN
                    x, f, best_norm, improved = cand, fc, norm, True
                    break
                t *= 0.5
        if not improved:
            cand = np.clip(rescue(x), lo, None)
            fc = value(cand)
            norm = float(np.linalg.norm(fc, np.inf))
            if not np.isfinite(norm) or (norm >= best_norm and np.allclose(cand, x)):
                break  # no progress possible
            x, f, best_norm = cand, fc, norm
    return x, f, its, best_norm < tolerance
