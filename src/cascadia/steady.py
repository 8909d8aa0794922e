"""Shared steady-state engine of the mean-field and collective solvers:
continue pseudo-transiently into the basin, then one exact Newton step.
Nothing here integrates in time.

Where a steady state need not be unique, the solver must pick the branch
an experiment would reach from a physical initial condition: the
mean-field fixed-point equations are multistable in parts of parameter
space.  `pseudo_transient` does this without time integration.  It takes
backward-Euler steps (y − y_k)/δ = f(y), each solved by Newton with the
caller's exact Jacobian solve (for the mean-field chains an O(N) banded
solve); small steps follow the trajectory from the ground state into its
basin, and as δ grows the step turns into Newton on f (Kelley & Keyes,
SIAM J. Numer. Anal. 35, 508 (1998)).  A drive ramp (`RampSpec`) is a
quasi-static continuation: the caller runs `pseudo_transient` at a
sequence of drives, each warm-started from the last.  `newton_step` then
takes one exact Newton step to round-off, kept only if it moves the state
by less than 1e-5 of its scale and lowers the residual, so a finish can
sharpen a state but never move it to another branch.  Every steady state
must reach the max-norm residual `STEADY_RESIDUAL`.  One that does not
raises `NonConvergence` naming what was solved and the residual reached,
as in every solver layer; there is no partial result.  CE2 needs no
continuation: its steady state is unique and `cumulant.solve_ce2` solves
it exactly, site by site.

State vectors are packed real (complex moments split into Re/Im by the
caller).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NonConvergence, NumericalInstability

__all__ = ["RampSpec", "STEADY_RESIDUAL", "SolverOptions", "newton_step",
           "pseudo_transient"]

_log = logging.getLogger("cascadia")
_EPS = float(np.finfo(float).eps)
# the max-norm residual every steady state must reach: the pseudo-transient
# loop of mean-field and the collective system, and the `build_rhs`
# residual of a CE2 solve
STEADY_RESIDUAL = 1e-9
# steps (accepted or retried) before `pseudo_transient` gives up
_PTC_STEPS = 200
# Newton iterations per pseudo-transient step before it counts as missed
_PTC_NEWTON = 8
# tolerance floor of the pseudo-transient inner solves, where the loop
# stops.  Below it the rounding noise of a long chain's RHS (~1e-14 at
# N = 8000) makes even exact Newton solves miss: at a floor of 4·eps,
# BWM N = 8000 (β = 0.005, η = 0.05) missed 12 inner solves at s₀ = 30
# and used up the step budget at s₀ = 80; at 1e-14, EAM N = 8000 missed 6.
# The Newton finish takes the last step.
_PTC_FLOOR = 1e-13


@dataclass(frozen=True)
class RampSpec:
    """Drive ramp s₀: s0_start → s0_end, for hysteresis continuation.

    The ramp is quasi-static: the steady state is continued through the
    drives s0_at(t) on a grid of t ∈ (0, t_ramp], one step per 10 Γ_tot⁻¹,
    each solve warm-started from the last, and ends in the steady state at
    s0_end.  A slower ramp (larger t_ramp) is a finer continuation.
    """

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
    """Options of the mean-field solver: `ramp` continues the steady state
    along a drive ramp first.  CE2 and the exact oracle take no options;
    the residual every steady state must reach is `STEADY_RESIDUAL`.
    """

    ramp: Optional[RampSpec] = None


def _check_finite(y: np.ndarray):
    if not np.isfinite(y).all():
        raise NumericalInstability("non-finite state")


def _max_abs(v: np.ndarray) -> float:
    return float(np.abs(v).max())


def _implicit_step(fun: Callable, solve: Callable, yk: np.ndarray,
                   fk: np.ndarray, delta: float, f_tol: float):
    """Newton on the backward-Euler step (v − yk)/δ = fun(v) from v = yk,
    where fun(yk) = fk.  Returns (v, fun(v)) once the step residual is at
    most `f_tol`, or None after `_PTC_NEWTON` iterations, on a singular
    Jacobian solve, or on a non-finite step residual, which a non-finite
    state always gives.  A missed step is an expected outcome, so its
    caller, `pseudo_transient`, does not warn about the overflow it may
    pass through on the way."""
    v, g = yk, -fk
    for _ in range(_PTC_NEWTON):
        try:
            v = v - solve(v, delta, g)
        except np.linalg.LinAlgError:
            return None
        fv = fun(v)
        g = (v - yk) / delta - fv
        step_residual = _max_abs(g)
        if step_residual <= f_tol:
            return v, fv
        if not np.isfinite(step_residual):
            return None
    return None


def pseudo_transient(fun: Callable, solve: Callable, y0: np.ndarray,
                     what: str) -> np.ndarray:
    """Steady state of dy/dt = fun(y) by pseudo-transient continuation.

    `solve(y, δ, r)` returns the x with (I/δ − J(y)) x = r, J the exact
    Jacobian of `fun` at y (δ = ∞ gives −J x = r).  Each step solves
    (y − y_k)/δ = fun(y) by Newton with that solve: at most `_PTC_NEWTON`
    iterations, to a max-norm step residual of 1e-4 of the current
    residual but at least `_PTC_FLOOR`.  δ starts at 1 and grows with every
    step whose inner solve succeeds: ×2 if the residual rose,
    ×r_k/r_{k+1} clipped to [2, 16] if it fell.  Growing on inner success
    rather than on a falling residual carries the iteration through the
    transient rise past a fold of the fixed-point curve.  A missed inner
    solve (residual still above its tolerance after the iteration budget,
    a singular Jacobian solve or a non-finite state) quarters δ and
    retries from the same state.

    The loop stops once the residual is below `STEADY_RESIDUAL` and a step
    fails to halve it, or at the inner solves' floor `_PTC_FLOOR`, from
    where one Newton step (`newton_step`) reaches round-off, and returns
    the state.  A state still above `STEADY_RESIDUAL` after `_PTC_STEPS`
    steps raises NonConvergence("{what}: residual …"): `what` names the
    model, the cell and the stage, and sweep drivers catch it to record
    the cell as unresolved.
    """
    y = np.asarray(y0, dtype=float).copy()
    _check_finite(y)
    fy = fun(y)
    residual = _max_abs(fy)
    delta = 1.0
    with np.errstate(all="ignore"):  # see `_implicit_step`
        for _ in range(_PTC_STEPS):
            f_tol = max(1e-4 * residual, _PTC_FLOOR)
            if residual <= f_tol:  # at the floor: nothing left to solve
                break
            step = _implicit_step(fun, solve, y, fy, delta, f_tol)
            if step is None:
                delta /= 4.0
                continue
            rk = residual
            y, fy = step
            residual = _max_abs(fy)
            if residual < STEADY_RESIDUAL and residual > 0.5 * rk:
                break
            if residual >= rk:
                delta *= 2.0
            elif residual > 0.0:  # an exact 0.0 stops at the top of the loop
                delta *= min(max(rk / residual, 2.0), 16.0)
    if not residual < STEADY_RESIDUAL:
        raise NonConvergence(f"{what}: residual {residual:.2e}")
    return y


def newton_step(fun: Callable, solve: Callable, y: np.ndarray):
    """One exact Newton step on `fun` from `y`, with `solve` as in
    `pseudo_transient` at δ = ∞.

    Returns (state, max|fun(state)|).  The step replaces `y` only if the
    Jacobian solve is regular, the result is finite, lowers the residual
    and moves the state by less than 1e-5 relative to its scale:
    multistable models (DM, BWM) must not hop branches while being
    sharpened.  From a continued state it lands on the rounding floor.  A
    state already within 4·eps is returned as is.  A refused step is logged
    at DEBUG on the "cascadia" logger with its reason: a singular solve, a
    non-finite result, a move of 1e-5 of the scale or more, or no drop in
    the residual.
    """
    y = np.asarray(y, dtype=float)
    fy = fun(y)
    residual = _max_abs(fy)
    if residual <= 4.0 * _EPS:
        return y, residual
    try:
        ynew = y + solve(y, math.inf, fy)
    except np.linalg.LinAlgError:
        _log.debug("Newton finish refused: singular Jacobian solve")
        return y, residual
    if not np.isfinite(ynew).all():
        _log.debug("Newton finish refused: non-finite result")
        return y, residual
    move = _max_abs(ynew - y) / (1.0 + _max_abs(y))
    if not move < 1e-5:
        _log.debug("Newton finish refused: move %.2e of the state's scale "
                   "is not below 1e-5", move)
        return y, residual
    rnew = _max_abs(fun(ynew))
    if not rnew < residual:
        _log.debug("Newton finish refused: residual %.2e did not drop "
                   "below %.2e", rnew, residual)
        return y, residual
    return ynew, rnew
