"""Doppler-broadened saturable propagation.

The right-going saturation s(D) obeys the Beer–Lambert-type equation

    ds/dD = −s · ⟨ 1 / (1 + s + 4(Δ/Γ_tot)²) ⟩_Δ

with the cross section averaged over a Gaussian detuning distribution of
standard deviation ξ_Δ (velocity classes of a thermal gas, averaged per
propagation slice).  ξ_Δ = 0 reduces to ds/dD = −s/(1+s) exactly.

The equation is autonomous and separable.  In y = ln s the depth at which
the profile reaches y is a 1-D integral,

    D(y) = ∫_y^{ln s₀} du / ⟨σ⟩(eᵘ),

so `doppler_profile` takes no steps in D: it tabulates D(y) by
Gauss–Legendre quadrature and inverts it at the grid depths by Newton.

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
from numpy.polynomial.legendre import leggauss
from scipy.constants import c as _c
from scipy.constants import k as _k_B
from scipy.constants import u as _u
from scipy.special import erfcx

from .errors import NumericalInstability
from .params import _rng

__all__ = ["DopplerParams", "averaged_cross_section",
           "gauss_hermite_cross_section", "doppler_profile",
           "doppler_recursion", "doppler_width"]

# doppler_profile's depth table: 16-node Gauss–Legendre panels of width
# ≤ _PANEL in y = ln s, flat below _Y_FLAT.  f'/f = s⟨σ_Δ²⟩/⟨σ_Δ⟩ < 1,
# with σ_Δ = 1/(1+s+4Δ²), bounds the chord start's error by ~_PANEL²/8
# and each Newton step's by half the last one's square: four steps reach
# rounding
_PANEL = 0.5
_Y_FLAT = -45.0
_GL_NODES, _GL_WEIGHTS = leggauss(16)
_NEWTON_STEPS = 4


@dataclass(frozen=True)
class DopplerParams:
    """Propagation setup: ξ_Δ in units of Γ_tot, input saturation s0,
    depth extent d_max, and the D-axis sampling (default 401 points)."""

    xi_delta: float
    s0: float
    d_max: float
    grid: Optional[np.ndarray] = field(default=None)

    def __post_init__(self):
        if not np.all(np.isfinite([self.xi_delta, self.s0, self.d_max])):
            raise ValueError("xi_delta, s0 and d_max must be finite")
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
    """Saturation profile of the broadened medium; returns an array of
    (D, s) rows on p.grid.

    In y = ln s the propagation equation separates: the depth at which the
    profile reaches y is D(y) = ∫_y^{ln s₀} f(u) du with f = 1/⟨σ⟩(eᵘ).
    D(y) is tabulated once at panel edges by composite Gauss–Legendre
    quadrature, and each grid depth is inverted by Newton steps on
    F(y) = D(y) − D, whose derivative −f(y) is exact.  f increases with y,
    so F is concave and the steps converge from above.  Below y = _Y_FLAT
    (s < 3e-20) f equals 1/⟨σ⟩(0) to rounding, and D is linear in y.
    Everything is relative in s across the exponential decay, and a
    profile deep in the medium underflows to exactly 0.0.
    """
    xi = p.xi_delta
    if p.s0 == 0.0:
        return np.column_stack([p.grid, np.zeros_like(p.grid)])

    def f(y):
        return 1.0 / averaged_cross_section(np.exp(y), xi)

    def integral(lo, hi):
        # ∫_lo^hi f, one Gauss–Legendre rule per (lo, hi) pair; the half
        # width scales f before the sum, which then stays finite for s₀
        # up to the largest double
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        u = mid[:, None] + half[:, None] * _GL_NODES
        return (half[:, None] * f(u)) @ _GL_WEIGHTS

    y0 = np.log(p.s0)
    sigma_flat = float(averaged_cross_section(0.0, xi))
    # f ≥ 1/⟨σ⟩(0), so the grid's last depth lies above y0 − D·⟨σ⟩(0)
    y_bot = min(y0, max(y0 - float(p.grid[-1]) * sigma_flat, _Y_FLAT))
    n_panels = int(np.ceil((y0 - y_bot) / _PANEL))
    edges = np.linspace(y0, y_bot, n_panels + 1)
    depth = np.concatenate(([0.0], np.cumsum(integral(edges[1:],
                                                      edges[:-1]))))

    # grid depths past the table sit in the flat tail, where D is linear
    panel = np.searchsorted(depth, p.grid, side="right") - 1
    tail = panel >= n_panels
    y = np.empty_like(p.grid)
    y[tail] = y_bot - (p.grid[tail] - depth[-1]) * sigma_flat
    k, d = panel[~tail], p.grid[~tail]
    top = edges[k]
    y_in = top + (edges[k + 1] - top) * (d - depth[k]) / (depth[k + 1]
                                                          - depth[k])
    for _ in range(_NEWTON_STEPS):
        y_in = y_in + (depth[k] + integral(y_in, top) - d) / f(y_in)
    y[~tail] = y_in
    if not np.all(np.isfinite(y)):
        raise NumericalInstability("broadened propagation failed")
    s = np.exp(y)
    s[0] = p.s0  # exact initial condition, not exp(ln s₀)
    return np.column_stack([p.grid, s])


def doppler_recursion(s0: float, beta: float, n: int, xi_delta: float,
                      seed: int = 0, stream: int = 0) -> np.ndarray:
    """Per-atom sampled counterpart (one thermal realization): site
    detunings Δ_i ~ N(0, ξ_Δ²) and the discrete depletion update

        s_{i+1} = s_i − 4β s_i / (1 + s_i + 4Δ_i²).

    Returns s_0 … s_n (length n+1).  Averages to doppler_profile over
    realizations in the continuum limit.  ξ_Δ = 0 is the cold recursion,
    first order in β (the exact cascade is `uwm_cascade_fixed_point`)."""
    if s0 < 0.0 or not 0.0 < beta <= 0.5 or n < 0 or xi_delta < 0:
        raise ValueError("need s0 >= 0, 0 < beta <= 1/2, n >= 0 and "
                         "xi_delta >= 0")
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
