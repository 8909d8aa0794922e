"""Doppler-broadened saturable propagation.

The right-going saturation s(D) obeys the Beer–Lambert-type equation

    ds/dD = −s · ⟨ 1 / (1 + s + 4(Δ/Γ_tot)²) ⟩_Δ

with the cross section averaged over a Gaussian detuning distribution of
standard deviation ξ_Δ (velocity classes of a thermal gas, averaged per
propagation slice).  ξ_Δ = 0 reduces to ds/dD = −s/(1+s) exactly.

The Gaussian–Lorentzian average is a Voigt-type integral with a closed
form on the imaginary axis of the Faddeeva function,

    ⟨σ⟩(s) = √(π/2) · erfcx(b) / (2 ξ_Δ √(1+s)),   b = √(1+s)/(2√2 ξ_Δ),

which is the exact n → ∞ limit of Gauss–Hermite quadrature over the
detuning variable.  Finite-n quadrature is kept as a diagnostic
(`gauss_hermite_cross_section`), but is NOT used for the profile: the
integrand's poles at Δ = ±i√(1+s)/2 lie far inside the thermal width for
ξ_Δ ≳ 3, where node counts in the 10⁵ range would be needed for 10⁻⁸
accuracy.  The closed form is exact at any ξ_Δ.

σ₀ = 3λ²/2π, the mode area and the line density are absorbed into the
dimensionless optical-depth coordinate D, so no absolute units appear
here; `doppler_width` is the unit bridge from gas parameters to ξ_Δ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.constants import c as _c
from scipy.constants import k as _k_B
from scipy.constants import u as _u
from scipy.integrate import solve_ivp
from scipy.special import erfcx

from .errors import NumericalInstability
from .params import _rng

__all__ = ["DopplerParams", "averaged_cross_section",
           "gauss_hermite_cross_section", "doppler_profile",
           "doppler_recursion", "doppler_width"]


@dataclass(frozen=True)
class DopplerParams:
    """Propagation setup: ξ_Δ in units of Γ_tot, input saturation s0,
    depth extent d_max, and the D-axis sampling (default 401 points)."""

    xi_delta: float
    s0: float
    d_max: float
    grid: Optional[np.ndarray] = field(default=None)

    def __post_init__(self):
        if self.xi_delta < 0:
            raise ValueError("xi_delta must be >= 0")
        if self.s0 < 0 or self.d_max <= 0:
            raise ValueError("need s0 >= 0 and d_max > 0")
        g = (np.linspace(0.0, self.d_max, 401) if self.grid is None
             else np.asarray(self.grid, dtype=float))
        if g.ndim != 1 or g[0] != 0.0 or np.any(np.diff(g) <= 0):
            raise ValueError("grid must increase from D = 0")
        if g[-1] > self.d_max + 1e-12:
            raise ValueError("grid exceeds d_max")
        g.setflags(write=False)
        object.__setattr__(self, "grid", g)


def averaged_cross_section(s, xi: float):
    """⟨1/(1+s+4Δ²)⟩ over Δ ~ N(0, ξ²), exactly (closed Voigt-type form).

    erfcx(b) = e^{b²}erfc(b) keeps the ξ → 0 limit (b → ∞) stable; the
    limit itself is dispatched analytically to 1/(1+s)."""
    s = np.asarray(s, dtype=float)
    if xi == 0.0:
        return 1.0 / (1.0 + s)
    a = np.sqrt(1.0 + s)
    b = a / (2.0 * np.sqrt(2.0) * xi)
    return np.sqrt(np.pi / 2.0) / (2.0 * xi * a) * erfcx(b)


def gauss_hermite_cross_section(s: float, xi: float, n_nodes: int) -> float:
    """Finite-n Gauss–Hermite estimate of the averaged cross section.

    Diagnostic counterpart of `averaged_cross_section` (its n → ∞ limit);
    converges acceptably only for ξ ≲ 3 — see the module docstring."""
    if xi == 0.0:
        return 1.0 / (1.0 + s)
    x, w = hermgauss(n_nodes)
    w = w / np.sqrt(np.pi)        # ⟨f⟩ = Σ wₖ f(√2 ξ xₖ)
    det2 = 4.0 * (np.sqrt(2.0) * xi * x) ** 2
    return float(np.sum(w / (1.0 + s + det2)))


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


def doppler_recursion(s0: float, beta: float, n: int, xi_delta: float,
                      seed: int = 0, stream: int = 0) -> np.ndarray:
    """Per-atom sampled counterpart (one thermal realization): site
    detunings Δ_i ~ N(0, ξ_Δ²) and the discrete depletion update

        s_{i+1} = s_i − 4β s_i / (1 + s_i + 4Δ_i²).

    Returns s_0 … s_n (length n+1).  Averages to doppler_profile over
    realizations in the continuum limit."""
    if beta < 0 or n < 0 or xi_delta < 0:
        raise ValueError("beta, n and xi_delta must be non-negative")
    det = _rng(seed, stream).normal(0.0, xi_delta, size=n)
    s = np.empty(n + 1)
    s[0] = s0
    for i in range(n):
        s[i + 1] = s[i] - 4.0 * beta * s[i] / (1.0 + s[i] + 4.0 * det[i] ** 2)
    return s


def doppler_width(nu0: float, temperature: float, mass: float) -> float:
    """Gaussian detuning width ξ_Δ = ν₀·√(k_B T / (m c²)) of a thermal gas.

    nu0 in Hz, temperature in K, mass in atomic mass units; returns the
    width in Hz (divide by the total linewidth for the normalized ξ_Δ).
    """
    if nu0 <= 0 or temperature < 0 or mass <= 0:
        raise ValueError("need nu0 > 0, temperature >= 0, mass > 0")
    return nu0 * np.sqrt(_k_B * temperature / (mass * _u * _c ** 2))
