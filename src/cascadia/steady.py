"""Shared steady-state engine: integrate to the basin, then one Newton finish.

Where a steady state need not be unique, solvers reach its basin by
integrating from a physical initial condition: the mean-field fixed-point
equations are multistable in parts of parameter space, and time
integration from the ground state (plus drive ramps for branch
continuation) selects physical branches the way an experiment would.  The
exact oracle integrates only as the fallback for degenerate kernels.
Root finding finishes the job: `newton_finish` runs a matrix-free
Newton–Krylov iteration (Knoll & Keyes, J. Comput. Phys. 193, 357 (2004))
and keeps its result only if the caller's acceptance test holds and the
residual went down, so a finish can sharpen a state but never move it to
another branch.  CE2, whose steady state is unique, uses `newton_finish`
alone and never integrates.

State vectors are packed real (complex moments split into Re/Im by the
caller) so that stiff solvers can be used interchangeably.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import optimize
from scipy.integrate import solve_ivp

from .errors import NumericalInstability

__all__ = ["RampSpec", "SolverOptions", "SteadyResult", "integrate_to_steady",
           "integrate_ramp", "newton_finish", "small_move"]

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class RampSpec:
    """Linear drive ramp s₀: s0_start → s0_end over t_ramp, for hysteresis
    continuation.  After the ramp the drive is held at s0_end until the
    steady-state criterion is met."""

    s0_start: float
    s0_end: float
    t_ramp: float

    def __post_init__(self):
        if self.s0_start < 0 or self.s0_end < 0 or self.t_ramp <= 0:
            raise ValueError("ramp requires non-negative drives and t_ramp > 0")

    def s0_at(self, t: float) -> float:
        x = min(max(t / self.t_ramp, 0.0), 1.0)
        return self.s0_start + (self.s0_end - self.s0_start) * x


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances shared by the mean-field, cumulant and exact solvers.

    Integration (mean-field, the collective system, the exact fallback)
    reads all fields.  CE2 does not integrate and reads only
    `steady_state_residual`, the max-norm residual its Newton solves must
    reach.
    """

    # rel_tol must sit well below steady_state_residual: the integrator's
    # local error rattles the state off the fixed point at ~rel_tol×rates,
    # and a residual target below that floor is never met
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    steady_state_residual: float = 1e-9
    t_max: float = 1e4
    ramp: Optional[RampSpec] = None

    def __post_init__(self):
        if min(self.abs_tol, self.rel_tol, self.steady_state_residual) <= 0:
            raise ValueError("tolerances must be > 0")
        if self.t_max <= 0:
            raise ValueError("t_max must be > 0")


@dataclass
class SteadyResult:
    y: np.ndarray
    t: float
    residual: float
    converged: bool


def _pick_method(ndof: int) -> str:
    # LSODA auto-detects stiffness but factors dense Jacobians; past ~1200
    # real dof the factorization dominates and the explicit RK wins.
    return "LSODA" if ndof <= 1200 else "DOP853"


def _check_finite(y: np.ndarray):
    if not np.all(np.isfinite(y)):
        raise NumericalInstability("integration produced non-finite state")


def integrate_ramp(rhs_t: Callable, y0: np.ndarray, t_ramp: float,
                   opts: SolverOptions) -> np.ndarray:
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
                        opts: SolverOptions) -> SteadyResult:
    """Integrate dy/dt = rhs(t, y) until max|rhs| < steady_state_residual.

    Time is consumed in growing chunks (25 → 400 Γ_tot⁻¹) with a residual
    check between chunks; this keeps dense output off and avoids paying for
    interpolation while still detecting convergence early.  Returns a
    flagged (converged=False) result at t_max rather than raising, so sweep
    drivers can record unresolved cells.  NaN/Inf aborts hard.
    """
    y = np.asarray(y0, dtype=float).copy()
    _check_finite(y)
    method = _pick_method(y.size)
    t, chunk = 0.0, 25.0
    residual = float(np.max(np.abs(rhs(t, y)))) if y.size else 0.0
    if residual < opts.steady_state_residual:
        return SteadyResult(y=y, t=t, residual=residual, converged=True)

    while t < opts.t_max:
        t_next = min(t + chunk, opts.t_max)
        sol = solve_ivp(rhs, (t, t_next), y, method=method,
                        rtol=opts.rel_tol, atol=opts.abs_tol)
        if not sol.success:
            raise NumericalInstability(f"integration failed: {sol.message}")
        y = sol.y[:, -1]
        _check_finite(y)
        t = t_next
        residual = float(np.max(np.abs(rhs(t, y))))
        if residual < opts.steady_state_residual:
            return SteadyResult(y=y, t=t, residual=residual, converged=True)
        chunk = min(chunk * 2.0, 400.0)

    return SteadyResult(y=y, t=t, residual=residual, converged=False)


def _max_abs(v: np.ndarray) -> float:
    return float(np.max(np.abs(v)))


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
    from an integrated state a single step already lands on the rounding
    floor, and each step costs ~30 RHS evaluations.  A given `f_tol` is a
    max-norm stopping tolerance, with up to 60 steps to get there from a
    loose basin.  A state already within 4·eps (or `f_tol`) is returned as
    is.
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
    if not np.all(np.isfinite(ynew)) or not accept(ynew):
        return y, residual
    rnew = _max_abs(fun(ynew))
    if rnew < residual:
        return ynew, rnew
    return y, residual
