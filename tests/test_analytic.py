"""Closed-form results: Lambert-W transmission, Dicke cubic, saturation limits."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import lambertw

from cascadia import (dicke_bistability_window, dicke_cubic,
                      dicke_steady_states, lambert_w0, mean_polarization,
                      solve_collective, thermodynamic_saturation,
                      uwm_inversion, uwm_saturation)


# --- principal-branch Lambert W (log-domain argument) -------------------------


def test_lambert_w0_special_points():
    assert lambert_w0(-math.inf) == 0.0          # W(0)
    assert lambert_w0(1.0) == pytest.approx(1.0, rel=1e-14)  # W(e)
    # fixed high-precision reference: W(100)
    assert lambert_w0(math.log(100.0)) == pytest.approx(
        3.38563014029005, rel=1e-13)


@pytest.mark.parametrize("w", [1e-6, 1e-2, 1.0, 10.0, 1e3])
def test_lambert_w0_round_trip(w):
    # w + ln w = ln(w e^w); the log-domain form never overflows
    assert lambert_w0(w + math.log(w)) == pytest.approx(w, rel=1e-12)


@pytest.mark.parametrize("log_x", [1e155, 1e300])
def test_lambert_w0_huge_argument(log_x):
    # w ≈ log_x: w + ln w = log_x to rounding, without an overflow on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        w = lambert_w0(log_x)
        ws = lambert_w0(np.array([log_x, 1.0]))
    assert w + math.log(w) == pytest.approx(log_x, rel=1e-15)
    assert ws[0] == w and ws[1] == 1.0


def test_lambert_w0_vectorized_and_strict():
    out = lambert_w0(np.array([-np.inf, 0.0, 1.0]))
    assert out.shape == (3,)
    assert out[0] == 0.0
    with pytest.raises(ValueError):
        lambert_w0(float("nan"))


# --- saturation profile s(D) -------------------------------------------------


def test_saturation_at_zero_depth():
    assert uwm_saturation(20.0, 0.0) == pytest.approx(20.0, rel=1e-14)


def test_saturation_critical_point_value():
    # at s̃ = 1 the exponent tilt vanishes: s(D) = W(D)
    s = uwm_saturation(100.0, 100.0)
    assert s == pytest.approx(3.38563014029005, rel=1e-12)


def test_saturation_deep_attenuation():
    # weak-output Beer–Lambert limit: s ≈ s₀ e^{s₀ − D} once s ≪ 1
    s = uwm_saturation(20.0, 40.0)
    assert s == pytest.approx(20.0 * math.exp(-20.0), rel=1e-6)
    assert s == pytest.approx(4.12e-8, rel=1e-2)


def test_saturation_monotonicity():
    d = np.linspace(0.0, 60.0, 31)
    s = uwm_saturation(30.0, d)
    assert np.all(np.diff(s) < 0.0)
    # monotone in s₀ at fixed depth
    vals = [uwm_saturation(s0, 10.0) for s0 in (1.0, 5.0, 25.0, 125.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_inversion_from_saturation():
    s = uwm_saturation(8.0, 3.0)
    assert uwm_inversion(s) == pytest.approx(-1.0 / (1.0 + s), rel=1e-13)
    assert uwm_inversion(0.0) == -1.0


# --- thermodynamic-limit observables -----------------------------------------


def test_mean_polarization_limits():
    assert mean_polarization(0.0, 10.0) == pytest.approx(-1.0, abs=1e-14)
    assert mean_polarization(1e6, 10.0) == pytest.approx(0.0, abs=1e-4)
    vals = [mean_polarization(st * 40.0, 40.0) for st in (0.1, 0.5, 1.0, 2.0, 4.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def _mean_polarization_by_quadrature(s0, D):
    """j_z by adaptive quadrature of ⟨σᶻ(s(D′))⟩, split at the knee where s
    crosses 1, with s from scipy's Lambert W (finite for s₀ ≲ 700)."""
    knee = s0 + math.log(s0) - 1.0
    points = [knee] if 0.0 < knee < D else None

    def sigma_z(dp):
        return -1.0 / (1.0 + lambertw(s0 * math.exp(s0 - dp)).real)

    val, _ = quad(sigma_z, 0.0, D, epsabs=1e-9, epsrel=1e-11, limit=200,
                  points=points)
    return val / D


def test_mean_polarization_matches_quadrature():
    # the `cascadia fig fig5` grid: three depths × 160 normalized drives
    worst = 0.0
    for d_tot in (10.0, 40.0, 160.0):
        for st in np.linspace(0.05, 4.0, 160):
            s0 = float(st * d_tot)
            worst = max(worst, abs(mean_polarization(s0, d_tot)
                                   - _mean_polarization_by_quadrature(s0, d_tot)))
    assert worst <= 1e-12


def test_thermodynamic_saturation_values():
    assert thermodynamic_saturation(0.5, 50.0) == 0.0
    assert thermodynamic_saturation(2.0, 50.0) == pytest.approx(50.0, rel=1e-12)
    assert thermodynamic_saturation(1.0, 0.0) == 0.0


def test_thermodynamic_saturation_is_pointwise_limit():
    # the finite-D profile converges to the scaled limit as D grows
    for s_tilde, limit_frac in ((0.5, 0.0), (2.0, 1.0)):
        errs = []
        for d in (1e2, 1e3, 1e4):
            frac = uwm_saturation(s_tilde * d, d) / d
            errs.append(abs(frac - limit_frac))
        assert errs[-1] < 1e-3
        assert errs[0] > errs[-1]


# --- collective (Dicke) cubic ------------------------------------------------


def test_bistability_window_closes_at_threshold():
    w = dicke_bistability_window(16.0)
    assert not w.exists  # fold point: the window has zero width
    assert w.s_minus == pytest.approx(27.0, abs=1e-8)
    assert w.s_plus == pytest.approx(27.0, abs=1e-8)


def test_bistability_window_at_d20():
    w = dicke_bistability_window(20.0)
    assert w.exists
    assert w.s_minus == pytest.approx(35.38196601125011, rel=1e-12)
    assert w.s_plus == pytest.approx(37.61803398874989, rel=1e-12)
    # lower edge sits at ~1.77 D here
    assert w.s_minus / 20.0 == pytest.approx(1.77, abs=0.01)


def test_no_window_below_threshold():
    assert not dicke_bistability_window(10.0).exists


def test_window_asymptotes():
    for d in (200.0, 1000.0):
        w = dicke_bistability_window(d)
        assert w.s_minus == pytest.approx(w.s_minus_asymptotic, rel=1e-2)
        assert w.s_plus == pytest.approx(w.s_plus_asymptotic, rel=1e-2)


def test_dicke_single_root_outside_window():
    r = dicke_steady_states(20.0, 10.0)
    assert r.roots.size == 1
    assert not r.bistable
    m = r.roots[0]
    assert -1.0 <= m <= 0.0
    assert abs(dicke_cubic(m, 20.0, 10.0)) < 1e-10
    assert r.stability == ("stable",)


def test_dicke_three_roots_inside_window():
    r = dicke_steady_states(20.0, 36.5)
    assert r.roots.size == 3
    assert r.bistable
    assert np.all(np.diff(r.roots) > 0.0)
    for m in r.roots:
        assert -1.0 <= m <= 0.0
        assert abs(dicke_cubic(m, 20.0, 36.5)) < 1e-10
    # middle branch unreachable by slow ramps from either side
    assert r.stability == ("stable", "unstable", "stable")


def test_dicke_zero_drive_is_ground_state():
    r = dicke_steady_states(20.0, 0.0)
    assert r.roots.size == 1
    assert r.roots[0] == pytest.approx(-1.0, abs=1e-12)
    assert r.stability == ("stable",)


def _dicke_cells():
    for d in (10.0, 20.0, 30.0, 40.0, 80.0):
        w = dicke_bistability_window(d)
        mid = 0.5 * (w.s_minus + w.s_plus)
        yield from ((d, s0) for s0 in (0.0, 0.5 * mid, mid, 1.5 * w.s_plus))
        if d in (30.0, 40.0):
            for edge in (w.s_minus, w.s_plus):
                yield from ((d, edge - 1e-6), (d, edge + 1e-6))


def test_linear_stability_matches_ramp_reachability():
    # a root is stable iff a slow drive ramp from below or from deep
    # saturation comes to rest on it
    for d, s0 in _dicke_cells():
        r = dicke_steady_states(d, s0)
        reached = set()
        for s_start in (0.0, max(4.0 * s0, 10.0 * d, 100.0)):
            _, z = solve_collective(d / 2.0, s0, s0_start=s_start)
            reached.add(int(np.argmin(np.abs(r.roots - z))))
        assert r.stability == tuple("stable" if k in reached else "unstable"
                                    for k in range(r.roots.size)), (d, s0)


@pytest.mark.parametrize("edge", ["s_minus", "s_plus"])
@pytest.mark.parametrize("d", [17.0, 20.0, 30.0, 40.0, 80.0])
def test_fold_drives_return_the_double_root(d, edge):
    # exactly at a fold the companion matrix splits the double root by
    # ~√eps, into two close reals or a complex pair; it must come back
    # once, on the cubic to rounding, and stable (a slow ramp rests there)
    s0 = getattr(dicke_bistability_window(d), edge)
    r = dicke_steady_states(d, s0)
    assert r.roots.size == 2
    for m in r.roots:
        terms = (abs(m ** 3 * d * d / 4.0) + abs(m * m * (d * d / 4.0 - d))
                 + abs(m * (s0 - d + 1.0)) + 1.0)
        assert abs(dicke_cubic(m, d, s0)) <= 1e-12 * terms
    assert r.stability == ("stable", "stable")


@pytest.mark.parametrize("d", [30.0, 40.0])
def test_fold_ghost_counts_as_stable(d):
    # at the upper fold the lower and middle roots merge into a double
    # root; rounding leaves its determinant at ±3e-15 (−2.7e-15 at D = 30),
    # and a slow ramp from below comes to rest there
    r = dicke_steady_states(d, dicke_bistability_window(d).s_plus)
    assert r.roots.size == 2
    assert r.stability == ("stable", "stable")


def test_cusp_returns_the_triple_root():
    # at D = 16, s₀ = 27 the cubic is 64(m + 1/4)³: the companion matrix
    # splits the triple root by ~eps^(1/3) ≈ 4e-6, which a Newton polish
    # on the cubic itself (linear at a triple root) does not remove
    r = dicke_steady_states(16.0, 27.0)
    assert r.roots.size == 1
    assert abs(r.roots[0] + 0.25) <= 1e-12
    assert r.stability == ("stable",)


@pytest.mark.parametrize("rel", [1e-15, -1e-15, 1e-13, -1e-13, 1e-9, -1e-9])
def test_near_cusp_roots_are_on_the_cubic(rel):
    # next to the cusp the one real root is simple but sits up to ~5e-6
    # off the inflection point; it must not be pulled onto the triple root
    d, s0 = 16.0, 27.0 * (1.0 + rel)
    r = dicke_steady_states(d, s0)
    assert r.roots.size == 1
    m = r.roots[0]
    terms = (abs(m ** 3 * d * d / 4.0) + abs(m * m * (d * d / 4.0 - d))
             + abs(m * (s0 - d + 1.0)) + 1.0)
    assert abs(dicke_cubic(m, d, s0)) <= 1e-12 * terms
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        a3, a2, a1 = (mpmath.mpf(c) for c in (d * d / 4.0, d * d / 4.0 - d,
                                              s0 - d + 1.0))
        real = [x for x in mpmath.polyroots([a3, a2, a1, 1], maxsteps=500,
                                            extraprec=500)
                if mpmath.im(x) == 0]
    assert len(real) == 1
    assert abs(m - float(real[0])) <= 1e-8
