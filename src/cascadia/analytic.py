"""Closed-form steady-state results for the driven chain.

Unidirectional (cascaded) propagation admits a full analytic solution: the
saturation profile obeys ds/dD = −s/(1+s) in the optical-depth coordinate
D = 4βi, whose solution is s(D) = W(s₀ e^{s₀−D}) with W the principal
Lambert-W branch.  The permutationally-symmetric (Dicke) limit instead
yields a cubic fixed-point equation for the inversion with a bistable
window at large optical depth.  Everything here is pure arithmetic; the
steady-state solvers live in `meanfield`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import wrightomega

from .errors import NoPhysicalRoot

__all__ = [
    "lambert_w0",
    "uwm_saturation",
    "uwm_inversion",
    "mean_polarization",
    "thermodynamic_saturation",
    "dicke_cubic",
    "dicke_steady_states",
    "dicke_bistability_window",
    "DickeRoots",
    "BistabilityWindow",
]


def lambert_w0(log_x):
    """Principal Lambert-W branch, taking the argument in log domain.

    Returns w = W(e^{log_x}), the solution w ≥ 0 of w + ln w = log_x: this
    is the Wright ω function, evaluated by `scipy.special.wrightomega`
    (Lawrence, Corless & Jeffrey, ACM TOMS 38, art. 20 (2012)).  The
    log-domain input matters: the profile argument s₀e^{s₀−D} overflows
    double precision already for s₀ ≳ 700 while its logarithm stays modest.

    Accepts scalars or arrays; log_x = −inf maps to W(0) = 0.
    """
    L = np.asarray(log_x, dtype=float)
    if np.isnan(L).any():
        raise ValueError("lambert_w0: NaN argument")
    w = wrightomega(L)
    return float(w) if L.ndim == 0 else w


def uwm_saturation(s0: float, D):
    """Saturation s(D) of the cascaded chain: s = W(s₀ e^{s₀−D}).

    The Lambert-W argument in log domain is ln s₀ + s₀ − D, equivalently
    ln(s̃D) + (s̃−1)D with s̃ = s₀/D.  s(0) = s₀; monotone decreasing in D.
    """
    if s0 < 0.0:
        raise ValueError("s0 must be >= 0")
    D = np.asarray(D, dtype=float)
    if s0 == 0.0:
        z = np.zeros_like(D)
        return float(z) if z.ndim == 0 else z
    return lambert_w0(math.log(s0) + s0 - D)


def uwm_inversion(s):
    """⟨σᶻ⟩ at local saturation s: −1/(1+s)."""
    return -1.0 / (1.0 + np.asarray(s, dtype=float))


def mean_polarization(s0: float, D: float) -> float:
    """Chain-averaged inversion j_z = (1/D)∫₀ᴰ dD′ ⟨σᶻ(s(D′))⟩, in closed form.

    Along ds/dD = −s/(1+s) the integrand −dD′/(1+s) equals ds/s, so
    j_z = ln(s(D)/s₀)/D; with ln s = ln s₀ + s₀ − D − s from the Lambert-W
    profile this is j_z = (s₀ − s(D))/D − 1, which never takes log 0.
    """
    if D <= 0.0:
        raise ValueError("D must be > 0")
    return (s0 - uwm_saturation(s0, D)) / D - 1.0


def thermodynamic_saturation(s_tilde: float, D: float):
    """Pointwise thermodynamic limit of the saturation profile.

    In the scaled coordinate, s → 0 for s̃ < 1 (the field dies before
    depth D) and s → (s̃−1)D for s̃ > 1 (excess input survives); the
    marginal line s̃ = 1 keeps the finite-D value W(D).
    """
    if D < 0.0:
        raise ValueError("D must be >= 0")
    if s_tilde < 1.0:
        return 0.0
    if s_tilde > 1.0:
        return (s_tilde - 1.0) * D
    return lambert_w0(math.log(D)) if D > 0.0 else 0.0


# --- Dicke (permutationally symmetric) steady states ----------------------


def dicke_cubic(m, d_total: float, s0: float):
    """Value of the collective fixed-point cubic at inversion m.

    0 = m³ D²/4 + m² (D²/4 − D) + m (s₀ − D + 1) + 1,  D ≡ d_total.
    Roots in [−1, 0] are the steady-state inversions of the collective model.
    """
    D = d_total
    m = np.asarray(m, dtype=float)
    return (m ** 3 * D * D / 4.0 + m ** 2 * (D * D / 4.0 - D)
            + m * (s0 - D + 1.0) + 1.0)


@dataclass(frozen=True)
class DickeRoots:
    """Real roots m = ⟨σᶻ⟩ ∈ [−1, 0] of the collective cubic, ascending."""

    roots: np.ndarray
    stability: tuple  # 'stable' | 'unstable' per root
    bistable: bool


@dataclass(frozen=True)
class BistabilityWindow:
    """Drive window [s₋, s₊] with two stable collective branches.

    Exists for d_total > 16; at exactly 16 the window closes at the fold
    value s₋ = s₊ = 27.  The large-D asymptotes are exposed for sweeps.
    """

    s_minus: float
    s_plus: float
    exists: bool
    s_minus_asymptotic: float
    s_plus_asymptotic: float


def dicke_bistability_window(d_total: float) -> BistabilityWindow:
    """Window edges s∓ = (−32 ∓ √(D(D−16)³) + D(40+D))/32."""
    if d_total <= 0.0:
        raise ValueError("d_total must be > 0")
    D = d_total
    mid = (D * (40.0 + D) - 32.0) / 32.0
    if D > 16.0:
        half = math.sqrt(D * (D - 16.0) ** 3) / 32.0
        s_minus, s_plus = mid - half, mid + half
    else:
        # below the fold the window is empty; report the (clipped) midpoint
        s_minus = s_plus = max(mid, 0.0)
    return BistabilityWindow(
        s_minus=s_minus, s_plus=s_plus, exists=D > 16.0,
        s_minus_asymptotic=2.0 * D - 4.0 - 8.0 / D,
        s_plus_asymptotic=D * D / 16.0 + D / 2.0 + 2.0 + 8.0 / D,
    )


def dicke_steady_states(d_total: float, s0: float) -> DickeRoots:
    """All physical fixed points of the collective model at drive s₀.

    Roots come from the companion matrix of the cubic plus a Newton
    polish each.  At a fold it splits the double root by ~√eps; such a
    pair is one root, polished by Newton on the cubic's derivative.  At
    the cusp (D = 16, s₀ = 27) it splits the triple root by ~eps^(1/3)
    into a star; the three are one root, polished on the second derivative
    to the inflection point and, within rounding of the cusp, from there
    onto the cubic's simple real root.
    Stability is that of the collective mean-field equations linearized
    at each root (`_is_stable`): the lower and upper branches are stable,
    the middle root of the bistable window is not.
    """
    if d_total <= 0.0:
        raise ValueError("d_total must be > 0")
    if s0 < 0.0:
        raise ValueError("s0 must be >= 0")
    D = d_total
    a3, a2, a1 = D * D / 4.0, D * D / 4.0 - D, s0 - D + 1.0
    raw = np.roots([a3, a2, a1, 1.0])
    scale = max(1.0, np.abs(raw).max())
    if np.abs(raw - raw.mean()).max() < 3e-5 * scale:
        # the cusp's triple root splits by ~eps^(1/3) into a star
        groups = [raw.real]
    else:
        # a double root comes out as two close reals or a nearly real pair
        real = np.sort(raw[np.abs(raw.imag) < 1e-7 * scale].real)
        groups = np.split(real,
                          np.flatnonzero(np.diff(real) > 1e-7 * scale) + 1)

    def polish(m: float, k: int) -> float:
        # a k-fold root is a simple root of the cubic's (k−1)-th derivative
        for _ in range(3):
            derivs = (((a3 * m + a2) * m + a1) * m + 1.0,
                      (3.0 * a3 * m + 2.0 * a2) * m + a1,
                      6.0 * a3 * m + 2.0 * a2, 6.0 * a3)
            if derivs[k] != 0.0:
                m -= derivs[k - 1] / derivs[k]
        return m

    roots = []
    for grp in groups:
        m = polish(float(np.mean(grp)), grp.size)
        if grp.size == 3:
            # m is the inflection point; off the exact cusp the real root
            # sits the cube root of −cubic(m)/a₃ away, and is simple
            m = polish(m + np.cbrt(-(((a3 * m + a2) * m + a1) * m + 1.0) / a3),
                       1)
        if -1.0 - 1e-9 <= m <= 1e-9:
            roots.append(min(0.0, max(-1.0, m)))
    roots = np.array(sorted(roots))
    if roots.size == 0:
        raise NoPhysicalRoot(
            f"no cubic root in [-1, 0] for D={D}, s0={s0} — should be impossible")

    stability = ["stable" if _is_stable(z, D, s0) else "unstable"
                 for z in roots]
    return DickeRoots(roots=roots, stability=tuple(stability),
                      bistable=int(roots.size) >= 3)


def _is_stable(z: float, D: float, s0: float) -> bool:
    """Linear stability of the collective fixed point with ⟨σᶻ⟩ = z.

    With b = D/2 and Ω = √(s₀/2) the fixed point has ⟨σ⁻⟩ = iΩz/(1 − bz),
    purely imaginary.  There the Jacobian of the collective equations
    splits into the Re⟨σ⁻⟩ mode, with eigenvalue (bz − 1)/2 < 0, and the
    (Im⟨σ⁻⟩, ⟨σᶻ⟩) block with trace (bz − 3)/2 < 0 and determinant
    (1 − bz)/2 + Ω²(1 + bz)/(1 − bz)².  The root is stable iff that
    determinant is positive; one within rounding of zero (a root at a
    fold) counts as stable, as a slow ramp comes to rest on it.
    """
    bz = 0.5 * D * z
    relax = 0.5 * (1.0 - bz)
    drive = 0.5 * s0 * (1.0 + bz) / (1.0 - bz) ** 2
    return relax + drive >= -1e-12 * (abs(relax) + abs(drive))
