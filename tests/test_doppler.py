"""Thermal-broadened propagation: averaged cross sections and depth profiles."""

import numpy as np
import pytest
from scipy.integrate import quad

from _time_integration import doppler_profile as dop853_profile
from cascadia import (DopplerParams, averaged_cross_section, doppler_profile,
                      doppler_recursion, doppler_width,
                      gauss_hermite_cross_section, uwm_saturation)


def test_params_validation():
    with pytest.raises(ValueError):
        DopplerParams(xi_delta=-1.0, s0=1.0, d_max=10.0)
    with pytest.raises(ValueError):
        DopplerParams(xi_delta=1.0, s0=-1.0, d_max=10.0)
    with pytest.raises(ValueError):
        DopplerParams(xi_delta=1.0, s0=1.0, d_max=0.0)
    with pytest.raises(ValueError):  # grid must start at exactly 0
        DopplerParams(xi_delta=1.0, s0=1.0, d_max=10.0,
                      grid=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):  # and increase
        DopplerParams(xi_delta=1.0, s0=1.0, d_max=10.0,
                      grid=np.array([0.0, 2.0, 1.0]))
    for bad in (np.inf, np.nan):  # the depth table needs a finite ln s₀
        with pytest.raises(ValueError, match="finite"):
            DopplerParams(xi_delta=1.0, s0=bad, d_max=10.0)
        with pytest.raises(ValueError, match="finite"):
            DopplerParams(xi_delta=bad, s0=1.0, d_max=10.0)


# --- averaged cross section ----------------------------------------------------


def test_cross_section_cold_gas_limit():
    s = np.array([0.0, 0.3, 10.0, 1e4])
    assert np.allclose(averaged_cross_section(s, 0.0), 1.0 / (1.0 + s),
                       rtol=1e-15)


@pytest.mark.parametrize("xi", [0.3, 1.0, 10.0, 37.0])
@pytest.mark.parametrize("s", [0.0, 0.7, 25.0, 4e3])
def test_cross_section_against_quadrature(xi, s):
    # adaptive quadrature of the Gaussian–Lorentzian product as the
    # independent reference for the closed form
    def f(d):
        return (np.exp(-d * d / (2 * xi * xi)) / np.sqrt(2 * np.pi * xi * xi)
                / (1.0 + s + 4.0 * d * d))

    ref, err = quad(f, -np.inf, np.inf, epsabs=1e-14, epsrel=1e-12)
    assert err < 1e-12
    assert averaged_cross_section(s, xi) == pytest.approx(ref, rel=1e-10)


def test_cross_section_bounds():
    # pointwise: broadening only removes resonant absorbers, so the
    # averaged cross section sits below the cold one; convexity puts it
    # above the cross section evaluated at the mean-square detuning
    for xi in (1.0, 10.0, 37.0):
        for s in (0.0, 0.5, 8.0, 300.0):
            val = averaged_cross_section(s, xi)
            assert val < 1.0 / (1.0 + s)
            assert val > 1.0 / (1.0 + s + 4.0 * xi * xi)


def test_finite_node_quadrature_converges_where_valid():
    # moderate broadening: the Lorentzian poles at ±i√(1+s)/2 are not yet
    # deep inside the thermal width and the node ladder still converges
    exact = averaged_cross_section(0.01, 1.0)
    errs = [abs(gauss_hermite_cross_section(0.01, 1.0, n) - exact) / exact
            for n in (64, 128, 256)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-6


def test_finite_node_quadrature_fails_when_hot():
    # the documented failure that forces the closed form: at ξ = 37 even
    # 256 nodes leave O(1) relative error
    exact = averaged_cross_section(0.01, 37.0)
    rel = abs(gauss_hermite_cross_section(0.01, 37.0, 256) - exact) / exact
    assert rel > 0.5


# --- depth profiles --------------------------------------------------------------


def test_cold_profile_matches_lambert_solution():
    p = DopplerParams(xi_delta=0.0, s0=20.0, d_max=40.0)
    prof = doppler_profile(p)
    ref = uwm_saturation(20.0, prof[:, 0])
    rel = np.abs(prof[:, 1] - ref) / ref
    assert rel.max() < 1e-8


def test_profile_monotone_decreasing():
    p = DopplerParams(xi_delta=10.0, s0=50.0, d_max=2000.0)
    s = doppler_profile(p)[:, 1]
    d = np.diff(s)
    assert np.all(d <= 0.0)
    live = s[:-1] > 1e-300  # below that, s underflows and sits at exactly 0
    assert np.all(d[live] < 0.0)


def test_profile_zero_input():
    p = DopplerParams(xi_delta=3.0, s0=0.0, d_max=10.0)
    prof = doppler_profile(p)
    assert np.all(prof[:, 1] == 0.0)


def test_saturated_slope_is_thermal_independent():
    # for s ≫ 1 + 8ξ² every velocity class is saturated and ds/dD → −1
    p = DopplerParams(xi_delta=1.0, s0=1e4, d_max=100.0)
    prof = doppler_profile(p)
    slope = np.gradient(prof[:, 1], prof[:, 0])
    assert np.all(np.abs(slope[:20] + 1.0) < 2e-2)


def _fig8_cells():
    # `cascadia fig fig8`: 4 widths × 41 drives, output read at D_max
    for xi in (0.0, 1.0, 10.0, 37.0):
        depth = 200.0 * (1.0 + 4.0 * xi * xi)
        for st in np.arange(0.5, 1.5001, 0.025):
            yield DopplerParams(xi_delta=xi, s0=float(st * depth),
                                d_max=depth, grid=np.array([0.0, depth]))


def test_profile_matches_the_dop853_path():
    # the time integration this quadrature replaced, at rtol = atol = 1e-13;
    # measured worst difference 7.7e-10 (ξ = 37), the integrator's error
    cells = list(_fig8_cells()) + [
        DopplerParams(xi_delta=0.0, s0=20.0, d_max=40.0),
        DopplerParams(xi_delta=10.0, s0=50.0, d_max=2000.0),
        DopplerParams(xi_delta=1.0, s0=1e4, d_max=100.0),
        DopplerParams(xi_delta=3.0, s0=0.0, d_max=10.0)]
    for p in cells:
        new, ref = doppler_profile(p), dop853_profile(p)
        assert np.array_equal(new[:, 0], ref[:, 0])
        assert new[0, 1] == ref[0, 1] == p.s0
        live = ref[:, 1] > 1e-290  # subnormal s carries no relative digits
        assert np.all(np.abs(new[live, 1] - ref[live, 1])
                      <= 2e-9 * ref[live, 1])
        assert np.all(new[~live, 1] <= 1e-290)


@pytest.mark.parametrize("xi,s_tilde", [(1.0, 1.05), (10.0, 1.2),
                                        (37.0, 1.3)])
def test_profile_solves_the_depth_integral(xi, s_tilde):
    # the returned s(D) must satisfy D = ∫_{ln s}^{ln s₀} du/⟨σ⟩(eᵘ), with
    # the integral in 30-digit arithmetic; a depth error δD is a relative
    # error ⟨σ⟩(s)·δD in s
    mp = pytest.importorskip("mpmath")
    depth = 200.0 * (1.0 + 4.0 * xi * xi)
    s0 = s_tilde * depth
    s = doppler_profile(DopplerParams(xi_delta=xi, s0=s0, d_max=depth,
                                      grid=np.array([0.0, depth])))[-1, 1]
    with mp.workdps(30):
        def sigma(u):
            a = mp.sqrt(1 + mp.exp(u))
            b = a / (2 * mp.sqrt(2) * xi)
            return mp.sqrt(mp.pi / 2) * mp.erfc(b) * mp.exp(b * b) / (
                2 * xi * a)
        d_s = mp.quad(lambda u: 1 / sigma(u), [mp.log(s), mp.log(s0)])
        rel = abs(d_s - depth) * sigma(mp.log(s))
    assert float(rel) <= 1e-13


@pytest.mark.parametrize("xi", [0.0, 10.0])
def test_profile_below_the_table(xi):
    # ln s₀ < −45: the whole profile lies where ⟨σ⟩(s) = ⟨σ⟩(0) to
    # rounding, and s = s₀·exp(−D⟨σ⟩(0))
    p = DopplerParams(xi_delta=xi, s0=1e-25, d_max=50.0)
    prof = doppler_profile(p)
    ref = 1e-25 * np.exp(-p.grid * averaged_cross_section(0.0, xi))
    assert np.all(np.abs(prof[:, 1] - ref) <= 1e-13 * ref)


@pytest.mark.parametrize("s0", [7.0, 0.0])
def test_profile_one_point_grid(s0):
    p = DopplerParams(xi_delta=10.0, s0=s0, d_max=5.0, grid=np.array([0.0]))
    assert np.array_equal(doppler_profile(p), [[0.0, s0]])


def test_profile_underflows_to_exact_zero():
    # ξ = 0, s₀ = 1: s ≈ e^{1−D} passes below the smallest subnormal
    # (~4.9e-324) near D = 745
    p = DopplerParams(xi_delta=0.0, s0=1.0, d_max=800.0)
    s = doppler_profile(p)[:, 1]
    assert s[-1] == 0.0
    assert np.all(np.diff(s) <= 0.0) and np.all(np.isfinite(s))
    ref = uwm_saturation(1.0, p.grid)
    live = ref > 1e-290
    assert np.all(np.abs(s[live] - ref[live]) <= 1e-12 * ref[live])


# --- sampled-atom recursion -------------------------------------------------------


def test_recursion_cold_limit_is_exact():
    # no detuning term at all: s_{i+1} = s_i − 4βs_i/(1 + s_i), bit for bit
    a = doppler_recursion(12.0, 0.01, 300, xi_delta=0.0)
    b = np.empty(301)
    b[0] = 12.0
    for i in range(300):
        b[i + 1] = b[i] - 4.0 * 0.01 * b[i] / (1.0 + b[i])
    assert np.array_equal(a, b)


def test_recursion_statistics_match_continuum():
    # sampled detunings, many atoms at small β: realization average lands
    # on the deterministic averaged profile
    xi, s0, beta, n = 1.0, 10.0, 0.002, 2000
    acc = np.zeros(n + 1)
    M = 8
    for mu in range(M):
        acc += doppler_recursion(s0, beta, n, xi, seed=3, stream=mu)
    avg = acc / M
    prof = doppler_profile(DopplerParams(
        xi_delta=xi, s0=s0, d_max=4 * beta * n,
        grid=4.0 * beta * np.arange(n + 1)))
    # compare down to moderate attenuation; the tail is noise-dominated
    keep = prof[:, 1] > 1e-3 * s0
    rel = np.abs(avg[keep] - prof[keep, 1]) / prof[keep, 1]
    assert rel.max() < 5e-2
    assert abs(avg[0] - s0) == 0.0


def test_recursion_determinism():
    a = doppler_recursion(5.0, 0.01, 50, 2.0, seed=9, stream=4)
    b = doppler_recursion(5.0, 0.01, 50, 2.0, seed=9, stream=4)
    c = doppler_recursion(5.0, 0.01, 50, 2.0, seed=9, stream=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# --- unit bridge -------------------------------------------------------------------


def test_doppler_width_scalings():
    assert doppler_width(384e12, 0.0, 87.0) == 0.0
    w1 = doppler_width(384e12, 300.0, 87.0)
    w4 = doppler_width(384e12, 300.0, 4 * 87.0)
    assert w4 == pytest.approx(w1 / 2.0, rel=1e-12)
    wT = doppler_width(384e12, 4 * 300.0, 87.0)
    assert wT == pytest.approx(2.0 * w1, rel=1e-12)
    with pytest.raises(ValueError):
        doppler_width(-1.0, 300.0, 87.0)
    with pytest.raises(ValueError):
        doppler_width(384e12, -1.0, 87.0)
    with pytest.raises(ValueError):
        doppler_width(384e12, 300.0, 0.0)


def test_doppler_width_rubidium_d2():
    # 384.230 THz line, 294 K, mass 86.909 u, natural linewidth 6.0666 MHz:
    # the thermal width lands in the high-30s in linewidth units
    xi = doppler_width(384.230e12, 294.0, 86.909) / 6.0666e6
    assert xi == pytest.approx(37.0, rel=0.10)
