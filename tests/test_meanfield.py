"""Mean-field steady states across the four propagation models."""

import math

import numpy as np
import pytest
from scipy.signal import lfilter

from cascadia import (ModelParams, RampSpec, SolverOptions,
                      averaged_phase_factor, build_chain,
                      dicke_bistability_window, dicke_cubic,
                      dicke_steady_states, effective_drive, field_observables,
                      solve_collective, solve_steady_state,
                      uwm_cascade_fixed_point, uwm_saturation,
                      uwm_saturation_recursion)
from cascadia.errors import NonConvergence
from cascadia.meanfield import (_collective_system, _DrivePlan, _make_rhs,
                                _make_solve, _settle)
from cascadia.params import spiral_phases
from cascadia.steady import pseudo_transient


def _params(beta, s0, n, **kw):
    return ModelParams.from_beta(beta=beta, s0=s0, n_emitters=n, **kw)


# --- effective drives --------------------------------------------------------


def test_drive_on_ground_state_is_bare():
    p = _params(0.1, 2.0, 5)
    chain = build_chain(p)
    zero = np.zeros(5, dtype=complex)
    for tag in ("UWM", "EAM", "DM", "BWM"):
        a = effective_drive(tag, p, chain, zero)
        assert np.allclose(a, 0.5 * p.rabi, rtol=0, atol=1e-15)


def test_all_to_all_drive_coincidences():
    # η = 0 collapses the attenuated model onto the all-to-all coupling,
    # and exact Bragg spacing does the same for the position-resolved one
    p = _params(0.05, 3.0, 8, eta=0.0)
    chain = build_chain(p)
    rng = np.random.default_rng(1)
    m = rng.normal(size=8) * 0.2 + 1j * rng.normal(size=8) * 0.2
    a_dm = effective_drive("DM", p, None, m)
    a_eam = effective_drive("EAM", p, None, m)
    a_bwm = effective_drive("BWM", p, chain, m)
    assert np.allclose(a_eam, a_dm, rtol=0, atol=1e-14)
    assert np.allclose(a_bwm, a_dm, rtol=0, atol=1e-14)


def test_attenuated_drive_hand_value():
    # three sites, uniform ⟨σ⁻⟩ = −0.1i, strong disorder η = 1:
    # site 1 sees only the attenuated backward sum r + r², r = e^{−2π²}
    p = _params(0.25, 2.0, 3, eta=1.0)
    m = np.full(3, -0.1j)
    g = p.gamma_1d / 2.0
    r = math.exp(-2.0 * math.pi ** 2)
    expected = 0.5 * p.rabi - 1j * g * (-0.1j) * (r + r ** 2)
    a = effective_drive("EAM", p, None, m)
    assert a[0] == pytest.approx(expected, rel=1e-14)


def _lfilter_backward(m, r):
    # the backward sum by the IIR filter b_i = r(m_{i+1} + b_{i+1}) run on
    # the reversed chain: the reference the BLAS bidiagonal solve replaced
    return lfilter([0.0, r], [1.0, -r], m[::-1])[::-1]


@pytest.mark.parametrize("eta", [1e-4, 0.3, 1.0, 10.0],
                         ids=["r_near_1", "r_half", "r_tiny", "r_zero"])
@pytest.mark.parametrize("n", [1, 2, 3, 200, 2000])
def test_attenuated_drive_is_the_backward_sum(n, eta):
    p = _params(min(0.5, 1.0 / n), 2.0, n, eta=eta)
    r = averaged_phase_factor(eta, 1)
    rng = np.random.default_rng(n)
    m = rng.normal(size=n) * 0.2 + 1j * rng.normal(size=n) * 0.2
    m[rng.random(n) < 0.1] = 0.0
    g = p.gamma_1d / 2.0
    fwd = np.concatenate(([0.0j], np.cumsum(m)[:-1]))
    a = effective_drive("EAM", p, None, m)

    # bit for bit the filter's result
    bwd = _lfilter_backward(m, r)
    assert np.array_equal(a, 0.5 * p.rabi - 1j * g * (fwd + bwd))
    # and the direct O(N²) sum Σ_{j>i} r^{j−i} m_j to rounding
    powers = r ** np.arange(1, n)
    direct = np.array([powers[:n - 1 - i] @ m[i + 1:] for i in range(n)])
    expected = 0.5 * p.rabi - 1j * g * (fwd + direct)
    scale = 1.0 + g * np.sum(np.abs(m))
    assert np.max(np.abs(a - expected)) <= 1e-13 * scale
    if r == 0.0:
        assert np.array_equal(a, effective_drive("UWM", p, None, m))


def _cumsum_backward(m, u):
    # Σ_{j>i} u_j ū_i m_j as a reversed cumulative sum of u·m: the
    # reference the bidiagonal solve replaced for the BWM
    suf = np.cumsum((u * m)[::-1])[::-1]
    return np.conj(u) * np.concatenate((suf[1:], [0.0 + 0.0j]))


@pytest.mark.parametrize("n", [1, 2, 3, 200, 2000])
def test_phased_drive_is_the_backward_sum(n):
    p = _params(min(0.5, 1.0 / n), 2.0, n, eta=0.1, seed=n)
    chain = build_chain(p)
    u = spiral_phases(chain)
    rng = np.random.default_rng(n)
    m = rng.normal(size=n) * 0.2 + 1j * rng.normal(size=n) * 0.2
    m[rng.random(n) < 0.1] = 0.0
    g = p.gamma_1d / 2.0
    fwd = np.concatenate(([0.0j], np.cumsum(m)[:-1]))
    a = effective_drive("BWM", p, chain, m)

    # bit for bit the reversed cumulative sum's result
    bwd = _cumsum_backward(m, u)
    assert np.array_equal(a, 0.5 * p.rabi - 1j * g * (fwd + bwd))
    # and the direct O(N²) sum Σ_{j>i} ū_i u_j m_j to rounding
    direct = np.array([np.conj(u[i]) * (u[i + 1:] @ m[i + 1:])
                       for i in range(n)])
    expected = 0.5 * p.rabi - 1j * g * (fwd + direct)
    scale = 1.0 + g * np.sum(np.abs(m))
    assert np.max(np.abs(a - expected)) <= 1e-13 * scale


def test_drive_rejects_wrong_length():
    p = _params(0.1, 1.0, 4)
    with pytest.raises(ValueError):
        effective_drive("UWM", p, None, np.zeros(3, dtype=complex))
    with pytest.raises(ValueError):
        effective_drive("XYZ", p, None, np.zeros(4, dtype=complex))
    with pytest.raises(ValueError):
        effective_drive("BWM", p, None, np.zeros(4, dtype=complex))


# --- single emitter: resonance fluorescence closed form -----------------------


@pytest.mark.parametrize("tag", ["UWM", "EAM", "DM", "BWM"])
def test_single_emitter_closed_form(tag):
    p = _params(0.25, 2.0, 1)
    chain = build_chain(p) if tag == "BWM" else None
    sol = solve_steady_state(tag, p, chain=chain)
    alpha = 0.5 * p.rabi
    m_ref = -2j * alpha / (1.0 + 8.0 * alpha ** 2)
    assert sol.sigma_z[0] == pytest.approx(-1.0 / 3.0, abs=1e-10)
    assert sol.sigma_minus[0] == pytest.approx(m_ref, abs=1e-10)


def test_bloch_norm_is_physical():
    p = _params(0.02, 6.0, 40)
    sol = solve_steady_state("UWM", p)
    assert np.all(sol.bloch_norm() <= 1.0 + 1e-9)


# --- collective model ---------------------------------------------------------


def test_dicke_matches_cubic_root():
    # b = 2β(N−1) = 10 exactly → effective depth 20 in the cubic
    p = _params(0.0025, 10.0, 2001)
    sol = solve_steady_state("DM", p)
    r = dicke_steady_states(20.0, 10.0)
    assert sol.sigma_z[0] == pytest.approx(r.roots[0], abs=1e-8)
    assert np.ptp(sol.sigma_z) == 0.0  # permutation symmetry is exact


def test_collective_hysteresis_branches():
    # inside the bistable window both ramp directions must land on
    # distinct stable roots of the cubic
    m_up, z_up = solve_collective(10.0, 36.5, s0_start=1.0)
    m_dn, z_dn = solve_collective(10.0, 36.5, s0_start=200.0)
    assert z_up < z_dn  # low branch stays closer to the ground state
    roots = dicke_steady_states(20.0, 36.5).roots
    assert z_up == pytest.approx(roots[0], abs=1e-8)
    assert z_dn == pytest.approx(roots[-1], abs=1e-8)
    assert abs(dicke_cubic(z_up, 20.0, 36.5)) < 1e-8
    assert abs(dicke_cubic(z_dn, 20.0, 36.5)) < 1e-8


@pytest.mark.parametrize("s0,s0_start", [(36.5, 1.0), (36.5, 200.0),
                                         (30.0, 0.0), (45.0, 120.0),
                                         (37.0, 5.0)])
def test_collective_entry_points_take_one_path(s0, s0_start):
    # solve_collective is the DM branch of solve_steady_state with a ramp
    # of 400 Γ_tot⁻¹: both give the same bits
    p = _params(20.0 / 800.0, s0, 201)
    m, z = solve_collective(2.0 * p.beta * (p.n_emitters - 1), s0,
                            s0_start=s0_start)
    sol = solve_steady_state("DM", p, opts=SolverOptions(
        ramp=RampSpec(s0_start, s0, 400.0)))
    assert m == sol.sigma_minus[0] and z == sol.sigma_z[0]


@pytest.mark.parametrize("detuning", [0.0, 0.3])
@pytest.mark.parametrize("with_chain", [False, True])
def test_uniform_dm_is_one_collective_site(detuning, with_chain):
    # every site alike (no chain, or a chain without a detuning spread):
    # the bits of the one-site collective settle, broadcast to N sites
    p = _params(0.005, 2.0, 200, detuning=detuning)
    chain = build_chain(p) if with_chain else None
    y, residual = _settle(
        *_collective_system(2.0 * p.beta * 199, detuning),
        np.array([0.0, 0.0, -1.0]), p.rabi, None, ("DM", "N = 200"))
    sol = solve_steady_state("DM", p, chain)
    assert sol.residual == residual
    assert np.all(sol.sigma_minus == y[0] + 1j * y[1])
    assert np.all(sol.sigma_z == y[2])


@pytest.mark.parametrize("n,beta", [(3, 0.2), (200, 0.005)])
def test_detuned_dm_takes_the_chain_path(n, beta):
    # per-site detunings break the permutation symmetry: the DM is solved
    # on the chain with its (1, 1, 1) left channel, as the exact DM is
    p = _params(beta, 2.0, n, seed=3)
    chain = build_chain(p, xi_delta=0.5)
    plan, det = _DrivePlan("DM", p, chain), chain.detunings
    y0 = np.concatenate((np.zeros(2 * n), -np.ones(n)))
    y, _ = _settle(_make_rhs(plan, det), _make_solve(plan, det), y0, p.rabi,
                   None, ("DM", f"N = {n}"))
    sol = solve_steady_state("DM", p, chain)
    assert np.max(np.abs(sol.sigma_minus - (y[:n] + 1j * y[n:2 * n]))) <= 1e-12
    assert np.max(np.abs(sol.sigma_z - y[2 * n:])) <= 1e-12
    # the detunings move the state off the chainless collective one
    assert np.max(np.abs(sol.sigma_z - solve_steady_state("DM", p).sigma_z)) \
        > 1e-3


@pytest.mark.parametrize("n,beta,s0,s0_start", [
    (3, 0.2, 2.0, None), (3, 0.5, 6.0, 0.0),
    (50, 0.2, 40.0, None), (50, 0.2, 200.0, None),
    (50, 0.2, 95.0, 0.0), (50, 0.2, 95.0, 240.0)])
def test_uniform_dm_matches_the_chain_path(n, beta, s0, s0_start):
    # the one-site collective settle on Python scalars against the N-site
    # chain path with DM's (1, 1, 1) channel: outside the bistable window
    # (none at N = 3; s₀ ≈ 74…118 at N = 50), and on ramps into it from
    # the ground state and from the saturated steady state at s0_start
    p = _params(beta, s0, n)
    window = dicke_bistability_window(4.0 * beta * (n - 1))
    assert (window.s_minus < s0 < window.s_plus) == (n == 50 and s0 == 95.0)
    plan = _DrivePlan("DM", p, None)
    assert (plan.c, plan.v, plan.w) == (1.0, 1.0, 1.0)
    ramp = None if s0_start is None else RampSpec(s0_start, s0, 400.0)
    start, y0 = None, np.concatenate((np.zeros(2 * n), -np.ones(n)))
    if s0_start:
        start = solve_steady_state("DM", _params(beta, s0_start, n))
        y0 = np.concatenate((start.sigma_minus.real, start.sigma_minus.imag,
                             start.sigma_z))
    y, _ = _settle(_make_rhs(plan, None), _make_solve(plan, None), y0,
                   p.rabi, ramp, ("DM", f"N = {n}"))
    sol = solve_steady_state("DM", p, opts=SolverOptions(ramp=ramp),
                             initial=start)
    assert np.max(np.abs(sol.sigma_minus - (y[:n] + 1j * y[n:2 * n]))) <= 1e-12
    assert np.max(np.abs(sol.sigma_z - y[2 * n:])) <= 1e-12


@pytest.mark.parametrize("tag", ["EAM", "DM"])
def test_warm_start_must_match_the_chain_length(tag):
    # a 3-site state cannot warm-start a 4-site chain: refused before any
    # solve, naming both lengths (DM would otherwise start from site 1)
    warm = solve_steady_state(tag, _params(0.05, 2.0, 3))
    with pytest.raises(ValueError, match=r"initial state has 3 sites but "
                                         r"n_emitters = 4"):
        solve_steady_state(tag, _params(0.05, 2.0, 4), initial=warm)


def _miss(fun, y, what):
    """The NonConvergence `pseudo_transient` raises when it misses at y."""
    return NonConvergence(f"{what}: residual {np.max(np.abs(fun(y))):.2e}")


def test_collective_failure_names_the_cell(monkeypatch):
    def missed(fun, solve, y0, what):
        raise _miss(fun, np.asarray(y0, dtype=float), what)

    monkeypatch.setattr("cascadia.meanfield.pseudo_transient", missed)
    with pytest.raises(NonConvergence, match=r"b = 10, s₀ = 36\.5, "
                                             r"s0_start = none: residual \S+"):
        solve_collective(10.0, 36.5)
    with pytest.raises(NonConvergence, match=r"b = 10, s₀ = 36\.5, "
                                             r"s0_start = 1: residual \S+"):
        solve_collective(10.0, 36.5, s0_start=1.0)


def test_collective_start_settle_must_converge(monkeypatch):
    # only the settle at s0_start, the ramp's step 0, misses; the rest of
    # the ramp and the final settle would succeed, so the miss must not be
    # ramped over
    calls = []

    def first_misses(fun, solve, y0, what):
        y = pseudo_transient(fun, solve, y0, what)
        calls.append(True)
        if len(calls) == 1:
            raise _miss(fun, y, what)
        return y

    monkeypatch.setattr("cascadia.meanfield.pseudo_transient", first_misses)
    with pytest.raises(NonConvergence, match=r"ramp step 0 of 40 at s₀ = 1 "
                                             r"not reached at b = 10, "
                                             r"s₀ = 36\.5, s0_start = 1: "
                                             r"residual \S+"):
        solve_collective(10.0, 36.5, s0_start=1.0)
    assert calls == [True]


def test_missed_ramp_step_is_reported(monkeypatch):
    # the third solve misses: ramp step 2, after step 0 (the settle at
    # s0_start, or the ground state at s₀ = 0) and step 1.  The later
    # steps and the final settle would succeed, so the miss must not be
    # ramped over
    calls = []

    def third_misses(fun, solve, y0, what):
        y = pseudo_transient(fun, solve, y0, what)
        calls.append(True)
        if len(calls) == 3:
            raise _miss(fun, y, what)
        return y

    monkeypatch.setattr("cascadia.meanfield.pseudo_transient", third_misses)
    with pytest.raises(NonConvergence, match=r"ramp step 2 of 40 at s₀ = \S+ "
                                             r"not reached at b = 10, "
                                             r"s₀ = 36\.5, s0_start = 1: "
                                             r"residual \S+"):
        solve_collective(10.0, 36.5, s0_start=1.0)
    assert calls == [True, True, True]

    calls.clear()
    p = _params(0.0025, 36.5, 2001)
    with pytest.raises(NonConvergence, match=r"^DM ramp step 2 of 40 at "
                                             r"s₀ = \S+ not reached at "
                                             r"N = 2001, β = 0\.0025, "
                                             r"s₀ = 36\.5: residual \S+$"):
        solve_steady_state("DM", p, opts=SolverOptions(
            ramp=RampSpec(0.0, 36.5, 400.0)))
    assert calls == [True, True, True]


# --- model-limit equivalences -------------------------------------------------


def test_attenuated_limits_bracket_the_models():
    p0 = _params(0.01, 3.0, 50, eta=0.0)
    sol_eam = solve_steady_state("EAM", p0)
    sol_dm = solve_steady_state("DM", p0)
    assert np.max(np.abs(sol_eam.sigma_z - sol_dm.sigma_z)) < 1e-9
    assert np.max(np.abs(sol_eam.sigma_minus - sol_dm.sigma_minus)) < 1e-9

    p1 = _params(0.01, 3.0, 50, eta=1.5)
    sol_att = solve_steady_state("EAM", p1)
    sol_uwm = solve_steady_state("UWM", p1)
    assert np.max(np.abs(sol_att.sigma_z - sol_uwm.sigma_z)) < 1e-6


def test_cascade_solution_matches_fixed_point():
    p = _params(0.02, 5.0, 100)
    sol = solve_steady_state("UWM", p)
    fp = uwm_cascade_fixed_point(5.0, 0.02, 100)
    assert np.max(np.abs(sol.sigma_z - fp.sigma_z)) < 1e-8
    assert np.max(np.abs(sol.sigma_minus - fp.sigma_minus)) < 1e-8
    assert np.max(np.abs(sol.alpha - fp.alpha)) < 1e-8


# --- input–output observables -------------------------------------------------


def test_outputs_vanish_without_drive():
    p = _params(0.1, 0.0, 10)
    sol = solve_steady_state("UWM", p)
    out = field_observables(sol, p)
    assert out.s_out_right == 0.0
    assert out.s_out_left == 0.0
    assert np.all(out.s_profile == 0.0)


def test_cascade_has_no_backward_output():
    p = _params(0.05, 4.0, 30)
    sol = solve_steady_state("UWM", p)
    out = field_observables(sol, p)
    assert out.s_out_left == 0.0  # exactly: no backward coupling at all
    assert np.all(np.diff(out.s_profile) <= 1e-12)  # monotone attenuation


def test_bragg_chain_reflects_weak_drive():
    p = _params(0.005, 1e-4, 500, eta=0.0)
    chain = build_chain(p)
    sol = solve_steady_state("BWM", p, chain=chain)
    out = field_observables(sol, p, chain=chain)
    # linear-response mirror: R = (2βN)²/(1+2β(N−1))² ≈ 0.70 here
    assert out.s_out_left / 1e-4 > 0.5
    assert out.s_out_right / 1e-4 < 0.05


# --- discrete recursion -------------------------------------------------------


def test_recursion_trivial_and_saturated():
    s = uwm_saturation_recursion(0.0, 0.01, 20)
    assert np.all(s == 0.0)
    s = uwm_saturation_recursion(1e4, 0.01, 10)
    # deep saturation: every emitter removes 4β of saturation, s/(1+s) ≈ 1
    assert np.allclose(np.diff(s), -0.04, rtol=2e-4)
    with pytest.raises(ValueError):
        uwm_saturation_recursion(1.0, 0.0, 5)
    with pytest.raises(ValueError):
        uwm_saturation_recursion(-1.0, 0.1, 5)


def test_recursion_approaches_continuum_profile():
    beta, s0, n = 0.005, 20.0, 500
    s = uwm_saturation_recursion(s0, beta, n)
    d = 4.0 * beta * np.arange(n + 1)
    ref = uwm_saturation(s0, d)
    rel = np.abs(s - ref) / ref
    assert rel.max() < 5e-2

