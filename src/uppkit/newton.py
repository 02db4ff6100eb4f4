"""Newton-type solvers on residuals that return their closed-form Jacobian.

``damped_newton`` is the root finder of both equilibrium solvers,
``simulation.simulate`` (percentage price changes) and
``harness.solve_bertrand`` (log prices). It steps a batch of independent
systems in lock step: one residual call and one Jacobian call serve every
row still stepping, and each row follows the path it would follow alone
while the first row, the main solve, steps or has converged. At a few
products and consumers numpy's per-call overhead is the cost of a step, so a
batch of k rows costs about one solve: ``simulate`` solves from its GUPPI
start and its two uniqueness starts as one batch, and the accuracy harness
solves all its post-merger markets of one size as one batch, each row a
different market (the residual is told which rows it evaluates). J is built
only at the points a row steps from.
``levenberg_marquardt`` is the least-squares solver of the nested-CES
fitter. The step and stop rules live only here.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import InputValidationError

GTOL, FTOL, XTOL = 1e-8, 1e-8, 1e-10  # levenberg_marquardt's stop tests


def _value(fun, x):
    """``fun(x)``, or a NaN residual where ``fun`` raises ``InputValidationError``."""
    try:
        return fun(x)
    except InputValidationError:
        return np.full(len(x), np.nan), None


class NewtonBatch(NamedTuple):
    """Per row of a ``damped_newton`` batch: the returned point ``x``, its
    residual ``f``, the steps taken, whether the residual's inf-norm is under
    the tolerance, the ``InputValidationError`` that stopped the row (None if
    none did), and ``held``, the pair ``(jacobian, i)`` of the evaluation
    whose row i is the returned point (None for a row that could not start),
    so a caller can read that evaluation instead of repeating it."""

    x: np.ndarray
    f: np.ndarray
    iterations: list[int]
    converged: list[bool]
    errors: list[InputValidationError | None]
    held: list[tuple[Callable, int] | None]


def _evaluate(fun, x, rows):
    """``fun`` on the batch ``x``, whose rows are the rows ``rows`` of the
    solve's ``x0``, per row: the residuals, the ``(jacobian, i)`` that holds
    each row, and the error of a row where ``fun`` raises
    ``InputValidationError``, whose residual reads NaN. A batch that raises is
    evaluated again row by row, so one undefined row spoils no other."""
    try:
        f, jacobian = fun(x, rows)
    except InputValidationError as err:
        if len(x) == 1:
            return np.full(x.shape, np.nan), [None], [err]
        each = [_evaluate(fun, x[i:i + 1], rows[i:i + 1]) for i in range(len(x))]
        return (np.concatenate([f for f, _, _ in each]), [held[0] for _, held, _ in each],
                [errors[0] for _, _, errors in each])
    return f, [(jacobian, i) for i in range(len(x))], [None] * len(x)


def _jacobians(held, rows, errors):
    """The stacked Jacobians at ``rows`` and the rows they belong to, in the
    same order: one call per evaluation that holds some of them. A call that
    raises ``InputValidationError`` is made again one row at a time; a row
    whose Jacobian is refused gets the error in ``errors`` and is left out."""
    groups = {}  # the rows each evaluation holds
    for r in rows:
        groups.setdefault(held[r][0], []).append(r)
    built, kept = [], []
    for jacobian, group in groups.items():
        try:
            built.append(jacobian([held[r][1] for r in group]))
            kept += group
        except InputValidationError as err:
            if len(group) == 1:
                errors[group[0]] = err
                continue
            for r in group:
                try:
                    built.append(jacobian([held[r][1]]))
                    kept.append(r)
                except InputValidationError as row_err:
                    errors[r] = row_err
    if len(built) < 2:
        return (built[0] if built else None), kept
    return np.concatenate(built), kept


def _steps(jac, f):
    """Newton steps -J^-1 f per row; NaN for a row whose J is singular."""
    try:
        return np.linalg.solve(jac, -f[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(f) == 1:
            return np.full(f.shape, np.nan)
        return np.concatenate([_steps(jac[i:i + 1], f[i:i + 1]) for i in range(len(f))])


def damped_newton(
    fun: Callable[[np.ndarray, list[int]], tuple[np.ndarray, Callable[[list[int]], np.ndarray]]],
    x0: np.ndarray,
    tolerance: float,
    max_iterations: int,
    lower_bound: float = -np.inf,
) -> NewtonBatch:
    """Damped Newton on each row of the batch ``x0`` (rows x unknowns).

    ``fun(x, rows)`` takes a batch x whose rows are the rows ``rows`` of
    ``x0``, in the order x holds them (not always ascending), so rows may be
    different systems; it returns ``(f, jacobian)``, f one residual row per
    row of x. ``jacobian(pos)`` builds the stacked Jacobians at the rows
    ``pos`` of that x (positions in the evaluation, in any order), and is
    called only for rows the solve steps from: n steps of a row build its J
    n times, never at a rejected trial or the returned point.

    Every row still stepping takes its step together with the others. Each
    step halves its length up to 30 times until the row's inf-norm of ``f``
    drops; iterates are clipped at ``lower_bound``. A Newton step s gives
    f(x + t s) = (1 - t) f(x) + O(t^2), so some length improves unless J is
    singular or f is at round-off. A row stops once its norm is under
    ``tolerance``, after ``max_iterations`` steps, or, at its best point so
    far, when J is singular, the step is not finite, no length improves or
    ``jacobian`` raises ``InputValidationError`` (its error is returned). A
    start where ``fun`` raises it leaves the row unstarted, with the error;
    elsewhere it reads as a NaN residual, and a non-finite candidate is no
    improvement. One row's undefined point, singular J or failed search
    changes no other row's path, with one exception: the first row is the
    batch's main solve, and the batch ends once that row stops short of the
    tolerance (unstarted, refused or stalled), the other rows where they
    are. Failing to converge is reported, not raised.
    """
    x = np.maximum(x0, lower_bound)  # np.clip(x0, lower_bound, None), with less call overhead
    stepping = full = list(range(len(x)))
    f, held, errors = _evaluate(fun, x, full)
    f = f.copy()  # rows are overwritten below; the caller's evaluation may still read it
    norm = np.abs(f).max(axis=1).tolist()
    its = [0] * len(x)
    while True:
        stepping = [r for r in stepping if norm[r] >= tolerance and its[r] < max_iterations]
        # the batch ends when its first row stops short of the tolerance
        if stepping and (0 in stepping or norm[0] < tolerance):
            jac, stepping = _jacobians(held, stepping, errors)
        if not stepping or not (0 in stepping or norm[0] < tolerance):
            break
        for r in stepping:
            its[r] += 1
        whole = stepping == full  # then rows need no gathering
        step = _steps(jac, f if whole else f[stepping])
        if not np.isfinite(step).all():  # a row with no finite step stops
            finite = np.isfinite(step).all(axis=1)
            stepping, step, whole = [r for r, ok in zip(stepping, finite) if ok], step[finite], False
            if not stepping:
                break
        # base may be x itself: a row written below has left the search
        base, search, t = x if whole else x[stepping], list(range(len(stepping))), 1.0
        for _ in range(30):
            cand, rows = np.maximum(base + t * step, lower_bound), stepping
            if len(search) < len(stepping):
                cand, rows = cand[search], [stepping[k] for k in search]
            fc, hc, _ = _evaluate(fun, cand, rows)
            nc = np.abs(fc).max(axis=1).tolist()
            left = []  # positions in stepping of the rows still searching
            for i, k in enumerate(search):
                r = stepping[k]
                if nc[i] < norm[r]:  # False for NaN
                    x[r], f[r], norm[r], held[r] = cand[i], fc[i], nc[i], hc[i]
                else:
                    left.append(k)
            search = left
            if not search:
                break
            t *= 0.5
        else:
            failed = set(search)  # no step length improves: these rows stop
            stepping = [r for k, r in enumerate(stepping) if k not in failed]
    return NewtonBatch(x, f, its, [n < tolerance for n in norm], errors, held)


def levenberg_marquardt(fun: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
                        x0: np.ndarray, max_iterations: int):
    """Levenberg-Marquardt on 0.5 |f(x)|^2, where ``fun(x)`` returns ``(f, J)``.

    Trial steps solve (J'J + lam D^2) h = -J'f, D the running maximum of J's
    column norms (Marquardt 1963, Moré 1978). lam starts at 1e-2 max diag(J'J)
    / D^2 = 1e-2; Nielsen's update scales it by max(1/3, 1 - (2 rho - 1)^3) on
    an accepted step (rho: actual over predicted cost reduction) and by 2, 4,
    8, ... on successive rejected ones. A step is rejected unless the cost
    falls, the predicted reduction is positive and f, J are finite; ``fun``
    raising ``InputValidationError`` rejects it. Converged: max_j |J_j'f| /
    (|J_j| |f|) <= GTOL, or, after an accepted step only (a rejected one's
    small predicted reduction reflects a large lam, not an optimum), both
    reductions <= FTOL times the cost or |D h| <= XTOL (|D x| + XTOL). ``max_iterations`` caps the trial steps, one evaluation
    each; a solve whose damping overflows, every trial step rejected, stops
    unconverged. Returns ``(x, f, steps, converged, reason)``.
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
            # a step that predicts no reduction, as at a round-off cost, is rejected
            rho = (cost - cost_c) / predicted if predicted > 0.0 else -1.0
            if rho > 0.0 and np.all(np.isfinite(Jc)):  # rho > 0 is False for NaN
                break
            lam, nu = float(lam) * nu, 2.0 * nu  # Python floats overflow to inf silently
            if lam * float(dd.max()) == np.inf:
                return x, f, steps, False, "damping overflowed: no trial step lowers the cost"
        x, f, J, cost, actual = x + h, fc, Jc, cost_c, cost - cost_c
        lam, nu = lam * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), 2.0
        if max(actual, predicted) <= FTOL * (cost + actual):
            return x, f, steps, True, f"relative cost reduction below {FTOL:g}"
        if np.sqrt(dd @ h**2) <= XTOL * (np.sqrt(dd @ x**2) + XTOL):
            return x, f, steps, True, f"relative step below {XTOL:g}"
