"""Time integration of the steady-state equations, and the Newton–Krylov
finish: the references the integration-free solvers are tested against.

`integrate_to_steady` and `integrate_ramp` are the integrators the package
used before its steady-state engine stopped integrating in time, kept
verbatim (with their LSODA/DOP853 switch and tolerances) so that the
pseudo-transient continuation, the quasi-static drive ramps and the exact
oracle's inverse iteration are compared against the same paths they
replaced.  `newton_finish` is the matrix-free Newton–Krylov finish the
package used before its solvers took exact Newton steps (and CE2 exact
site solves), kept verbatim for the same reason, with `small_move`, the
branch guard it was called with.  `doppler_profile` is
the DOP853 propagation the package used before its Doppler profiles became
a quadrature inverted by Newton, kept verbatim for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import optimize
from scipy.integrate import solve_ivp

from cascadia.doppler import DopplerParams, averaged_cross_section
from cascadia.errors import NumericalInstability


@dataclass(frozen=True)
class IntegrationOptions:
    # rel_tol must sit well below steady_state_residual: the integrator's
    # local error rattles the state off the fixed point at ~rel_tol×rates,
    # and a residual target below that floor is never met
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    steady_state_residual: float = 1e-9
    t_max: float = 1e4


@dataclass
class IntegratedState:
    y: np.ndarray
    t: float          # integrated time
    residual: float   # max-norm of the RHS at y
    converged: bool   # residual < steady_state_residual


def _pick_method(ndof: int) -> str:
    # LSODA auto-detects stiffness but factors dense Jacobians; past ~1200
    # real dof the factorization dominates and the explicit RK wins.
    return "LSODA" if ndof <= 1200 else "DOP853"


def _check_finite(y: np.ndarray):
    if not np.all(np.isfinite(y)):
        raise NumericalInstability("integration produced non-finite state")


def integrate_ramp(rhs_t: Callable, y0: np.ndarray, t_ramp: float,
                   opts: IntegrationOptions) -> np.ndarray:
    """Integrate a time-dependent RHS over [0, t_ramp] (no residual check)."""
    method = _pick_method(y0.size)
    sol = solve_ivp(rhs_t, (0.0, t_ramp), y0, method=method,
                    rtol=opts.rel_tol, atol=opts.abs_tol, dense_output=False)
    if not sol.success:
        raise NumericalInstability(f"ramp integration failed: {sol.message}")
    y = sol.y[:, -1]
    _check_finite(y)
    return y


def integrate_to_steady(rhs: Callable, y0: np.ndarray,
                        opts: IntegrationOptions,
                        jac: Optional[Callable] = None) -> IntegratedState:
    """Integrate dy/dt = rhs(t, y) until max|rhs| < steady_state_residual.

    Time is consumed in growing chunks (25 → 400 Γ_tot⁻¹) with a residual
    check between chunks; this keeps dense output off and avoids paying for
    interpolation while still detecting convergence early.  Returns a
    flagged (converged=False) result at t_max rather than raising, so sweep
    drivers can record unresolved cells.  NaN/Inf aborts hard.

    `jac(t, y)`, if given, is handed to the integrator in place of its
    finite-difference Jacobians; it steers only the implicit (LSODA)
    iterations, and the explicit DOP853 would warn on it.
    """
    y = np.asarray(y0, dtype=float).copy()
    _check_finite(y)
    method = _pick_method(y.size)
    extra = {} if jac is None else {"jac": jac}
    t, chunk = 0.0, 25.0
    residual = float(np.max(np.abs(rhs(t, y)))) if y.size else 0.0
    if residual < opts.steady_state_residual:
        return IntegratedState(y=y, t=t, residual=residual, converged=True)

    while t < opts.t_max:
        t_next = min(t + chunk, opts.t_max)
        sol = solve_ivp(rhs, (t, t_next), y, method=method,
                        rtol=opts.rel_tol, atol=opts.abs_tol, **extra)
        if not sol.success:
            raise NumericalInstability(f"integration failed: {sol.message}")
        y = sol.y[:, -1]
        _check_finite(y)
        t = t_next
        residual = float(np.max(np.abs(rhs(t, y))))
        if residual < opts.steady_state_residual:
            return IntegratedState(y=y, t=t, residual=residual, converged=True)
        chunk = min(chunk * 2.0, 400.0)

    return IntegratedState(y=y, t=t, residual=residual, converged=False)


_EPS = float(np.finfo(float).eps)


def _max_abs(v: np.ndarray) -> float:
    return float(np.max(np.abs(v)))


def _keep_better(fun: Callable, y: np.ndarray, residual: float,
                 ynew: np.ndarray, accept: Callable):
    """(ynew, its residual) if ynew is finite, passes `accept` and lowers
    the residual of `y`; else (y, residual)."""
    if not np.all(np.isfinite(ynew)) or not accept(ynew):
        return y, residual
    rnew = _max_abs(fun(ynew))
    if rnew < residual:
        return ynew, rnew
    return y, residual


def small_move(y: np.ndarray) -> Callable:
    """Acceptance test for a finish from `y`: the new state may move by
    less than 1e-5 relative to the state's scale.  Multistable models
    (DM, BWM) must not hop branches while being sharpened."""
    scale = 1.0 + _max_abs(y)

    def accept(ynew: np.ndarray) -> bool:
        return _max_abs(ynew - y) / scale < 1e-5

    return accept


def newton_finish(fun: Callable, y: np.ndarray, accept: Callable,
                  f_tol: Optional[float] = None):
    """Matrix-free Newton–Krylov (lgmres) root of `fun` started at `y`.

    Returns (state, max|fun(state)|).  The Newton result replaces `y` only
    if it is finite, passes `accept` and lowers the residual; an iteration
    budget running out keeps the last iterate under the same test.

    With `f_tol` unset the finish is one Newton step towards round-off:
    from a converged state a single step already lands on the rounding
    floor, and each step costs ~30 RHS evaluations.  A given `f_tol` is a
    max-norm stopping tolerance, with up to 60 steps to get there from a
    loose basin.  A state already within 4·eps (or `f_tol`) is returned
    as is.
    """
    y = np.asarray(y, dtype=float)
    residual = _max_abs(fun(y))
    if residual <= (4.0 * _EPS if f_tol is None else f_tol):
        return y, residual
    budget = {"iter": 1} if f_tol is None else {"f_tol": f_tol, "maxiter": 60}
    try:
        ynew = optimize.newton_krylov(fun, y, method="lgmres", **budget)
    except optimize.NoConvergence as exc:
        ynew = np.asarray(exc.args[0], dtype=float)
    return _keep_better(fun, y, residual, ynew, accept)


def doppler_profile(p: DopplerParams) -> np.ndarray:
    """Integrate the broadened propagation equation; returns an array of
    (D, s) rows on p.grid.

    Integrates in y = ln s (the RHS becomes dy/dD = −⟨σ⟩(e^y), bounded in
    [−1, 0]), so the error control is relative in s across its exponential
    decay range."""
    xi = p.xi_delta
    if p.s0 == 0.0:
        return np.column_stack([p.grid, np.zeros_like(p.grid)])

    def rhs(D, y):
        return -averaged_cross_section(np.exp(y[0]), xi)

    sol = solve_ivp(rhs, (0.0, float(p.grid[-1])), [np.log(p.s0)],
                    t_eval=p.grid, method="DOP853",
                    rtol=1e-13, atol=1e-13)
    if not sol.success or not np.all(np.isfinite(sol.y)):
        raise NumericalInstability("broadened propagation failed")
    s = np.exp(sol.y[0])
    s[0] = p.s0  # exact initial condition, not exp(ln s₀)
    return np.column_stack([sol.t, s])
