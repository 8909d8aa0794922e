"""Few-emitter master-equation oracle: invariants, limits, flux accounting."""

from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from cascadia import (ModelParams, build_chain, build_generator,
                      exact_observables, exact_steady_state, field_observables,
                      flux_report, solve_steady_state)
from cascadia.errors import DimensionCap, NonConvergence, NumericalInstability

from _complex_oracle import kron_superoperator
from _time_integration import IntegrationOptions, integrate_to_steady


def _params(beta, s0, n, **kw):
    return ModelParams.from_beta(beta=beta, s0=s0, n_emitters=n, **kw)


def _random_product_state(n, rng):
    """⊗ᵢ ρᵢ with site 1 as the slowest tensor factor; strictly physical."""
    rho = np.array([[1.0 + 0.0j]])
    ms, zs = [], []
    for _ in range(n):
        p_e = rng.uniform(0.1, 0.45)
        cmax = np.sqrt(p_e * (1.0 - p_e))
        c = 0.8 * cmax * np.exp(2j * np.pi * rng.uniform()) * rng.uniform()
        site = np.array([[p_e, c], [np.conj(c), 1.0 - p_e]])
        rho = np.kron(rho, site)
        ms.append(c)          # ⟨σ⁻⟩ = ⟨e|ρ|g⟩
        zs.append(2.0 * p_e - 1.0)
    return rho, np.array(ms), np.array(zs)


# --- density-matrix invariants ------------------------------------------------


@pytest.mark.parametrize("tag,n", [("UWM", 2), ("DM", 3), ("EAM", 2), ("BWM", 3)])
def test_state_is_physical(tag, n):
    p = _params(0.2, 4.0, n, eta=0.1)
    chain = build_chain(p) if tag == "BWM" else None
    rho = exact_steady_state(tag, p, chain=chain).rho
    assert abs(np.trace(rho) - 1.0) < 1e-10
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
    assert np.linalg.eigvalsh(rho).min() >= -1e-8


def test_single_emitter_resonance_fluorescence():
    p = _params(0.25, 2.0, 1)
    obs = exact_observables(exact_steady_state("UWM", p), p)
    assert obs["sigma_z"][0] == pytest.approx(-1.0 / 3.0, abs=1e-10)
    assert obs["sigma_minus"][0] == pytest.approx(-1j / 3.0, abs=1e-10)


def test_ground_state_without_drive():
    p = _params(0.2, 0.0, 2)
    obs = exact_observables(exact_steady_state("DM", p), p)
    assert np.all(np.abs(obs["sigma_minus"]) < 1e-12)
    assert np.allclose(obs["sigma_z"], -1.0, atol=1e-12)
    assert obs["s_out_right"] < 1e-12
    assert obs["s_ie"] == pytest.approx(0.0, abs=1e-12)


def test_dimension_cap():
    p = _params(0.1, 1.0, 7)
    with pytest.raises(DimensionCap):
        exact_steady_state("UWM", p)


# --- generator-level limit identities ------------------------------------------


def _apply_to_random(gen_a, gen_b, dim, rng):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = x @ x.conj().T
    rho /= np.trace(rho).real
    return np.max(np.abs(gen_a.apply(rho) - gen_b.apply(rho)))


def test_bragg_generator_equals_collective():
    p = _params(0.2, 3.0, 3, eta=0.0)
    gen_b = build_generator("BWM", p, build_chain(p))
    gen_d = build_generator("DM", p, None)
    rng = np.random.default_rng(5)
    for _ in range(3):
        assert _apply_to_random(gen_b, gen_d, 8, rng) < 1e-12


def test_fully_scrambled_generator_equals_cascade():
    # η = 3: the averaged backward weight e^{−18π²} is ~1e−78, i.e. gone
    p = _params(0.2, 3.0, 3, eta=3.0)
    gen_e = build_generator("EAM", p, None)
    gen_u = build_generator("UWM", p, None)
    rng = np.random.default_rng(6)
    for _ in range(3):
        assert _apply_to_random(gen_e, gen_u, 8, rng) < 1e-12


# --- cascade causality ---------------------------------------------------------


def _head_marginal(tag, n):
    """(Tr_N ρ_N, ρ_{N−1}) at β = 0.2, s₀ = 1.3: the N-site state with
    its last site traced out, and the (N − 1)-site state."""
    states = []
    for k in (n, n - 1):
        p = _params(0.2, 1.3, k, eta=0.1, seed=7)
        chain = build_chain(p) if tag == "BWM" else None
        states.append(exact_steady_state(tag, p, chain).rho)
    dim = 2 ** (n - 1)
    return (states[0].reshape(dim, 2, dim, 2).trace(axis1=1, axis2=3),
            states[1])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_uwm_head_does_not_hear_its_tail(n):
    # no UWM site acts on the sites upstream of it, so the first N − 1
    # sites of the N-site steady state are the (N − 1)-site steady state:
    # a backward term in the UWM generator breaks it (≤ 1.1e-16 measured)
    marginal, head = _head_marginal("UWM", n)
    assert np.max(np.abs(marginal - head)) <= 1e-14


@pytest.mark.parametrize("tag", ["EAM", "BWM", "DM"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_a_left_channel_lets_the_head_hear_its_tail(tag, n):
    # the backward channel carries the last site's emission upstream:
    # 3.5e-2 to 9.1e-2 measured
    marginal, head = _head_marginal(tag, n)
    assert np.max(np.abs(marginal - head)) > 1e-2


# --- factorized drift reproduces mean-field -----------------------------------


@pytest.mark.parametrize("tag", ["UWM", "DM"])
def test_product_state_drift_is_mean_field(tag):
    from cascadia import effective_drive
    p = _params(0.15, 2.5, 3)
    gen = build_generator(tag, p, None)
    rng = np.random.default_rng(7)
    rho, m, z = _random_product_state(3, rng)
    drho = gen.apply(rho)

    from cascadia.exact import _site_ops
    sm = _site_ops(3)
    dim = np.eye(8)
    m_dot = np.array([np.trace(s @ drho) for s in sm])
    sz = [2.0 * (s.conj().T @ s) - dim for s in sm]
    z_dot = np.array([np.trace(o @ drho).real for o in sz])

    alpha = effective_drive(tag, p, None, m)
    m_dot_mf = 1j * alpha * z - 0.5 * m
    z_dot_mf = -4.0 * (np.conj(alpha) * m).imag - (1.0 + z)
    assert np.max(np.abs(m_dot - m_dot_mf)) < 1e-12
    assert np.max(np.abs(z_dot - z_dot_mf)) < 1e-12


# --- agreement with mean-field in its valid regimes -----------------------------


def test_weak_drive_matches_mean_field():
    p = _params(0.2, 0.01, 3)
    obs = exact_observables(exact_steady_state("DM", p), p)
    sol = solve_steady_state("DM", p)
    assert np.max(np.abs(obs["sigma_z"] - sol.sigma_z)) < 1e-3
    assert np.max(np.abs(obs["sigma_minus"] - sol.sigma_minus)) < 1e-3


# --- input–output and flux bookkeeping ------------------------------------------


def test_cascade_never_radiates_backward():
    p = _params(0.2, 4.0, 2)
    obs = exact_observables(exact_steady_state("UWM", p), p)
    assert obs["s_out_left"] == 0.0


@pytest.mark.parametrize("tag,n,eta", [
    ("UWM", 1, 0.0), ("UWM", 3, 0.0),
    ("DM", 2, 0.0), ("DM", 3, 0.0),
    ("EAM", 3, 0.15), ("BWM", 3, 0.1),
])
def test_total_flux_is_conserved(tag, n, eta):
    p = _params(0.2, 5.0, n, eta=eta)
    chain = build_chain(p) if tag == "BWM" else None
    state = exact_steady_state(tag, p, chain=chain)
    rep = flux_report(state, p, chain=chain)
    assert abs(rep["defect"]) < 1e-9 * rep["flux_in"]
    # every recorded flux component is a rate ≥ 0 (up to solver dust)
    for key in ("right_coherent", "right_inelastic", "left_total",
                "loss_gamma", "loss_backward"):
        assert rep[key] >= -1e-12


# --- inverse iteration against time integration ----------------------------------


def _integrated(tag, p, chain):
    """Steady state by integrating dρ/dt from |g…g⟩ to max|dρ/dt| < 1e-12:
    the reference for the inverse iteration on unique and degenerate
    kernels alike.  The RHS is `apply`; the integrator is also handed the
    exact (constant) Jacobian of that linear RHS, since finite-difference
    Jacobians at this rounding floor make LSODA's step count chaotic."""
    gen = build_generator(tag, p, chain)
    dim = 2 ** p.n_emitters
    rho0 = np.zeros((dim, dim), dtype=complex)
    rho0[dim - 1, dim - 1] = 1.0

    def rhs(t, y):
        rho = (y[:dim * dim] + 1j * y[dim * dim:]).reshape(dim, dim)
        drho = gen.apply(rho)
        return np.concatenate((drho.real.ravel(), drho.imag.ravel()))

    L = kron_superoperator(gen).toarray()
    J = np.block([[L.real, -L.imag], [L.imag, L.real]])
    opts = IntegrationOptions(steady_state_residual=1e-12, rel_tol=1e-10,
                              abs_tol=1e-12)
    y0 = np.concatenate((rho0.real.ravel(), rho0.imag.ravel()))
    res = integrate_to_steady(rhs, y0, opts, jac=lambda t, y: J)
    rho = (res.y[:dim * dim] + 1j * res.y[dim * dim:]).reshape(dim, dim)
    return 0.5 * (rho + rho.conj().T)


def _residual(tag, p, chain, rho):
    return float(np.linalg.norm(build_generator(tag, p, chain).apply(rho)))


@pytest.mark.parametrize("tag", ["UWM", "DM", "EAM", "BWM"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("beta,s0,eta", [(0.1, 1.0, 0.1), (0.05, 0.7, 0.01),
                                         (0.2, 2.0, 1.0)])
def test_direct_solve_matches_integration(tag, n, beta, s0, eta):
    p = _params(beta, s0, n, eta=eta, seed=7)
    chain = build_chain(p) if tag == "BWM" else None
    rho = exact_steady_state(tag, p, chain).rho
    assert np.max(np.abs(rho - _integrated(tag, p, chain))) <= 1e-12


@pytest.mark.parametrize("tag", ["DM", "EAM", "BWM"])
@pytest.mark.parametrize("n", [2, 3])
def test_degenerate_kernel_falls_back_to_integration(tag, n):
    # β = ½ leaves no loss; collective (η = 0) decay then has dark states,
    # and the state |g…g⟩ relaxes to is the one returned
    p = _params(0.5, 2.0, n, eta=0.0, seed=7)
    chain = build_chain(p) if tag == "BWM" else None
    state = exact_steady_state(tag, p, chain)
    assert np.max(np.abs(state.rho - _integrated(tag, p, chain))) <= 1e-12
    assert abs(np.trace(state.rho) - 1.0) < 1e-12
    rep = flux_report(state, p, chain)
    assert abs(rep["defect"]) < 1e-9 * rep["flux_in"]


def test_near_degenerate_unique_kernel_goes_direct():
    # a unique kernel close to degenerate: the smallest LU pivot ratio of L
    # with its trace row seen on a unique kernel (~3e-8)
    p = _params(0.5, 0.0, 4, eta=0.1, seed=7)
    chain = build_chain(p)
    rho = exact_steady_state("BWM", p, chain).rho
    assert _residual("BWM", p, chain, rho) <= 1e-13
    assert abs(np.trace(rho) - 1.0) < 1e-12


@pytest.mark.parametrize("n,s0", [(3, 100.0), (4, 1.0)])
def test_slow_modes_of_nearly_degenerate_kernels_are_reached(n, s0):
    # β = 0.49 leaves a loss of 0.02: modes too slow for the first shift,
    # which misses by ~1e-3 in ‖Lρ‖_F; the reference is the null vector of
    # the dense L from its SVD
    p = _params(0.49, s0, n)
    rho = exact_steady_state("DM", p).rho
    _, _, vh = np.linalg.svd(
        kron_superoperator(build_generator("DM", p, None)).toarray())
    ref = vh[-1].conj().reshape(2 ** n, 2 ** n)
    ref /= np.trace(ref)
    assert np.max(np.abs(rho - ref)) <= 1e-12


def test_stiff_cascade_at_n5_is_solved():
    # stiff for time integration: it stalls here (NonConvergence at t_max
    # after ~80 s)
    p = _params(0.2, 5.0, 5)
    state = exact_steady_state("UWM", p)
    rho = state.rho
    assert _residual("UWM", p, None, rho) <= 1e-12
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rho).min() > 0.0
    rep = flux_report(state, p)
    assert abs(rep["defect"]) < 1e-9 * rep["flux_in"]


def test_flux_report_needs_guided_decay_first(monkeypatch):
    # β = 0 has no guided channel to account in: refused before any
    # observable is computed
    p = _params(0.0, 1.0, 2)
    state = exact_steady_state("UWM", p)

    def unreachable(*args):
        raise AssertionError("observables computed before the check")

    monkeypatch.setattr("cascadia.exact.exact_observables", unreachable)
    with pytest.raises(ValueError, match=r"needs gamma_1d > 0"):
        flux_report(state, p)


def test_fallback_nonconvergence_names_the_cell(monkeypatch):
    from cascadia.errors import NonConvergence
    monkeypatch.setattr("cascadia.exact._INVERSE_STEPS", 1)
    p = _params(0.5, 2.0, 2)
    with pytest.raises(NonConvergence, match=r"DM .*N = 2, β = 0\.5, s₀ = 2"):
        exact_steady_state("DM", p)


def test_only_a_singular_factor_is_caught(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("not enough memory")
    monkeypatch.setattr("cascadia.exact.dgetrf", broken)
    with pytest.raises(RuntimeError, match="not enough memory"):
        exact_steady_state("UWM", _params(0.2, 1.0, 2))


@pytest.mark.parametrize("info,error,match", [
    (3, NumericalInstability,
     r"DM .*N = 2, β = 0\.2, s₀ = 2.*U\(3, 3\).*τ‖L‖_∞ = 1000"),
    (-2, ValueError, "dgetrf: illegal value in argument 2")])
def test_a_failed_factor_raises(monkeypatch, info, error, match):
    # a zero pivot (info > 0) cannot come from a Lindbladian, for which
    # I − τL is nonsingular at every τ > 0, so it names the cell and the
    # shift; an illegal argument (info < 0) is a programming error
    from cascadia.exact import dgetrf

    def failed(a, **kwargs):
        lu, piv, _ = dgetrf(a, **kwargs)
        return lu, piv, info
    monkeypatch.setattr("cascadia.exact.dgetrf", failed)
    with pytest.raises(error, match=match):
        exact_steady_state("DM", _params(0.2, 2.0, 2))


@pytest.mark.parametrize("broken", ["nan", "zero"])
def test_a_non_finite_shift_is_refused(monkeypatch, broken):
    # a NaN in H leaves ‖L‖_∞ NaN, and a generator that does nothing leaves
    # it 0: either way τ = t/‖L‖_∞, and with it I − τL, is not finite, and
    # the solve refuses it before anything is factored
    from cascadia.exact import _Generator, _site_ops
    p = _params(0.2, 2.0, 2)
    sm = _site_ops(2)
    H = build_generator("DM", p, None).H.copy()
    kernels = [p.gamma_1d * np.ones((2, 2)), p.gamma_loss * np.eye(2)]
    if broken == "nan":
        H[0, 0] = np.nan
    else:
        H, kernels = np.zeros_like(H), [np.zeros((2, 2))]
    monkeypatch.setattr("cascadia.exact.build_generator",
                        lambda *args: _Generator(H, kernels, sm))
    with pytest.raises(NumericalInstability,
                       match=r"DM .*N = 2, β = 0\.2, s₀ = 2.*not finite"):
        exact_steady_state("DM", p)


def test_observables_equal_operator_traces():
    from cascadia.exact import DensityState, _site_ops
    n = 3
    rng = np.random.default_rng(11)
    x = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = x @ x.conj().T
    rho /= np.trace(rho).real
    p = _params(0.2, 2.0, n)
    obs = exact_observables(DensityState(rho=rho, model_tag="DM"), p)
    sm = _site_ops(n)
    sp = [s.conj().T for s in sm]
    ops = {"-": sm, "+": sp, "z": [2.0 * (sp[i] @ sm[i]) - np.eye(8)
                                   for i in range(n)]}
    for i in range(n):
        assert obs["sigma_minus"][i] == pytest.approx(np.trace(sm[i] @ rho),
                                                      abs=1e-14)
        assert obs["sigma_z"][i] == pytest.approx(
            np.trace(ops["z"][i] @ rho).real, abs=1e-14)
    for (a, b), M in obs["pairs"].items():
        ref = [[np.trace(ops[a][i] @ ops[b][j] @ rho) for j in range(n)]
               for i in range(n)]
        assert np.max(np.abs(M - np.array(ref))) < 1e-14


_P3 = _params(0.1, 1.0, 3, eta=0.1)
_CHAIN3 = build_chain(_P3)
# four detuned sites for the three-site model
_LONG_CHAIN = build_chain(_params(0.1, 1.0, 4, eta=0.1), xi_delta=0.5)
# a mean spacing of λ/4: off the Bragg lattice that EAM and DM assume
_P3_OFF_BRAGG = _params(0.1, 1.0, 3, eta=0.1, k0_spacing=0.5)


def _exact_state(tag="BWM"):
    return replace(exact_steady_state("BWM", _P3, _CHAIN3), model_tag=tag)


def _field_solution(tag="BWM"):
    return replace(solve_steady_state("BWM", _P3, _CHAIN3), model_tag=tag)


# every layer reads the model tag and the chain through params.left_channel,
# so each refuses them alike: a BWM without the chain (its left-output
# phases come from the positions), an unknown tag, a chain whose length is
# not n_emitters, and an EAM or DM off the Bragg lattice
_REFUSED = {
    "exact-outputs-without-chain": (
        lambda: exact_observables(_exact_state(), _P3), "require the chain"),
    "flux-without-chain": (
        lambda: flux_report(_exact_state(), _P3), "require the chain"),
    "field-outputs-without-chain": (
        lambda: field_observables(_field_solution(), _P3),
        "require the chain"),
    "exact-outputs-unknown-tag": (
        lambda: exact_observables(_exact_state("XWM"), _P3, _CHAIN3),
        "unknown model tag"),
    "field-outputs-unknown-tag": (
        lambda: field_observables(_field_solution("XWM"), _P3, _CHAIN3),
        "unknown model tag"),
    "mean-field-EAM-long-chain": (
        lambda: solve_steady_state("EAM", _P3, _LONG_CHAIN), "chain length"),
    "mean-field-UWM-long-chain": (
        lambda: solve_steady_state("UWM", _P3, _LONG_CHAIN), "chain length"),
    "exact-EAM-long-chain": (
        lambda: exact_steady_state("EAM", _P3, _LONG_CHAIN), "chain length"),
    "exact-UWM-long-chain": (
        lambda: exact_steady_state("UWM", _P3, _LONG_CHAIN), "chain length"),
    "exact-BWM-long-chain": (
        lambda: exact_steady_state("BWM", _P3, _LONG_CHAIN), "chain length"),
    "mean-field-DM-long-chain": (
        lambda: solve_steady_state("DM", _P3, _LONG_CHAIN), "chain length"),
    "exact-DM-long-chain": (
        lambda: exact_steady_state("DM", _P3, _LONG_CHAIN), "chain length"),
    "mean-field-EAM-off-Bragg": (
        lambda: solve_steady_state("EAM", _P3_OFF_BRAGG), "Bragg-lattice"),
    "mean-field-DM-off-Bragg": (
        lambda: solve_steady_state("DM", _P3_OFF_BRAGG), "Bragg-lattice"),
    "exact-EAM-off-Bragg": (
        lambda: exact_steady_state("EAM", _P3_OFF_BRAGG), "Bragg-lattice"),
    "exact-DM-off-Bragg": (
        lambda: exact_steady_state("DM", _P3_OFF_BRAGG), "Bragg-lattice"),
}


@pytest.mark.parametrize("case", list(_REFUSED))
def test_models_and_chains_are_checked_in_one_place(case):
    call, message = _REFUSED[case]
    with pytest.raises(ValueError, match=message):
        call()


# --- real one-pass path against the complex kron-sum path ---------------------

_CELLS = [  # (β, s₀, η, detuning, ξ_Δ): plain, detuned, lossless collective
    (0.1, 1.0, 0.1, 0.0, 0.0),
    (0.2, 2.0, 0.1, 0.5, 0.3),
    (0.5, 2.0, 0.0, 0.0, 0.0),
]


def _cell(tag, n, beta, s0, eta, detuning, xi_delta):
    p = _params(beta, s0, n, eta=eta, detuning=detuning, seed=7)
    chain = build_chain(p, xi_delta=xi_delta) if tag == "BWM" else None
    return p, chain


def _plan_superoperator(gen):
    """L as the solve reads it off the cached plan of its size
    (`_liouvillian_plan`), as a sparse matrix on row-major vec(ρ)."""
    from scipy import sparse
    from cascadia.exact import _liouvillian_plan
    plan = _liouvillian_plan(len(gen.sm))
    size = plan.indptr.size - 1
    return sparse.csr_matrix(
        (plan.entries(gen), plan.indices.copy(), plan.indptr.copy()),
        shape=(size, size))


@pytest.mark.parametrize("tag", ["UWM", "DM", "EAM", "BWM"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("cell", _CELLS)
def test_one_pass_superoperator_equals_the_kron_sum(tag, n, cell):
    from _complex_oracle import (left_output_weights, reference_generator,
                                 reference_guided_channels)
    from cascadia.exact import _left_kernel
    from cascadia.params import output_saturations
    p, chain = _cell(tag, n, *cell)
    gen = build_generator(tag, p, chain)
    L = _plan_superoperator(gen)
    ref = kron_superoperator(gen)
    norm = float(abs(ref).sum(axis=1).max())
    assert abs(L - ref).max() <= 1e-15 * norm
    # the channel table builds the generator the per-model branches built;
    # DM's two cascades cancel exactly
    old = reference_generator(tag, p, chain)
    assert abs(L - kron_superoperator(old)).max() <= 1e-15 * norm
    if tag == "DM":
        assert gen.H.tobytes() == old.H.tobytes()
    dim = 2 ** n
    rng = np.random.default_rng(n)
    rho = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    assert (np.max(np.abs(L @ rho.ravel() - gen.apply(rho).ravel()))
            <= 1e-14 * norm * np.max(np.abs(rho)))
    # the left-channel triple gives the per-model left kernels, exactly but
    # for the EAM's r^|i−l| in place of e^{−2(ηπ)²|i−l|}
    left = _left_kernel(tag, p, chain)
    _, ref_left = reference_guided_channels(tag, p, chain)
    if ref_left is None:
        assert left is None
    elif tag == "EAM":
        assert np.all(np.abs(left - ref_left) <= 2.0 * np.spacing(ref_left))
    else:
        assert left.tobytes() == ref_left.tobytes()
    # ... and the per-model head weights, checked bit for bit through the
    # left output they weight
    m = rng.normal(size=n) + 1j * rng.normal(size=n)
    w = left_output_weights(tag, p, chain)
    ref_s_left = 0.0 if w is None else float(
        8.0 * np.abs(-1j * (p.gamma_1d / 2.0) * np.sum(w * m)) ** 2)
    assert output_saturations(tag, p, chain, m)[1] == ref_s_left


@pytest.mark.parametrize("tag", ["UWM", "DM", "EAM", "BWM"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("cell", _CELLS)
def test_real_iteration_matches_the_complex_one(tag, n, cell):
    from _complex_oracle import reference_flux_report, reference_steady_state
    p, chain = _cell(tag, n, *cell)
    state = exact_steady_state(tag, p, chain)
    rho = state.rho
    assert np.max(np.abs(rho - reference_steady_state(tag, p, chain))) <= 1e-13
    flux, ref = flux_report(state, p, chain), reference_flux_report(state, p,
                                                                    chain)
    assert flux.keys() == ref.keys()
    for key, value in ref.items():
        assert abs(flux[key] - value) <= 1e-14 * ref["flux_in"], key


# --- the cached per-size plans -------------------------------------------------


@pytest.mark.parametrize("tag", ["UWM", "DM", "EAM", "BWM"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("cell", _CELLS)
@pytest.mark.parametrize("sector", [True, False])
def test_cached_real_liouvillian_equals_the_reference(tag, n, cell, sector):
    # the plan's L_r against Re(U L Uᴴ) of the kron-sum L, and its ‖L‖_∞
    # against that L's; the sector's rows and columns of U L Uᴴ are defined
    # whether or not T commutes with L, so both are taken for every cell
    from cascadia.exact import (_hermitian_coordinates, _liouvillian_plan,
                                _real_plan)
    p, chain = _cell(tag, n, *cell)
    gen = build_generator(tag, p, chain)
    ref = kron_superoperator(gen)
    ref_norm = float(abs(ref).sum(axis=1).max())
    U, Uh = _hermitian_coordinates(2 ** n, sector)
    lplan, plan = _liouvillian_plan(n), _real_plan(n, sector)
    entries = lplan.entries(gen)
    Lr = plan.matrix(entries)
    assert abs(Lr - (U @ ref @ Uh).real).max() <= 1e-15 * ref_norm
    assert abs(lplan.norm(entries) - ref_norm) <= 1e-15 * ref_norm
    # two terms at most per entry of L_r, whose sum is then the same in
    # either order: the exact zeros between T's sectors rest on it
    assert np.diff(plan.weights.indptr).max() <= 2


@pytest.mark.parametrize("part", ["H", "S"])
def test_an_entry_outside_the_plan_raises(monkeypatch, part):
    # |ee⟩⟨gg| + h.c. in H moves two excitations, and a diagonal S_j entry
    # is no σ⁻_l: L's cached pattern holds neither, so both raise instead of
    # being dropped, from the plan and from the solve alike
    from cascadia.exact import _Generator
    p = _params(0.2, 2.0, 2)
    real = build_generator("DM", p, None)
    H = real.H.copy()
    if part == "H":
        H[0, 3] = H[3, 0] = 0.1
    gen = _Generator(H, [real.K], real.sm)
    if part == "S":
        gen.S[0, 0, 0] = 0.1
    with pytest.raises(ValueError, match="outside the pattern"):
        _plan_superoperator(gen)
    monkeypatch.setattr("cascadia.exact.build_generator", lambda *args: gen)
    with pytest.raises(ValueError, match="outside the pattern"):
        exact_steady_state("DM", p)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_cached_plans_are_read_only(n):
    from cascadia.exact import _liouvillian_plan, _pair_ops, _real_plan
    plans = [_liouvillian_plan(n), _real_plan(n, True), _real_plan(n, False)]
    arrays = [_pair_ops(n)]
    for plan in plans:
        for value in vars(plan).values():
            arrays += ([value.data, value.indices, value.indptr]
                       if hasattr(value, "indptr") else [value])
    assert len(arrays) == 1 + 6 + 2 * 5  # the pair stack and every plan array
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0


# --- the transpose-parity sector -------------------------------------------------

# resonant cells of the symmetric models: plain, nearly lossless and
# lossless with a degenerate kernel, and a long EAM kernel
_SYMMETRIC = [(0.1, 1.0, 0.1), (0.49, 2.0, 0.01), (0.5, 0.5, 0.0),
              (0.2, 3.0, 0.3)]


def _parity(n):
    """The diagonal of P = ⊗σᶻ, σᶻ = diag(1, −1) on (|e⟩, |g⟩)."""
    return reduce(np.kron, [np.array([1.0, -1.0])] * n, np.ones(1))


def _transpose_parity(n):
    """T(ρ) = PρᵀP, P = ⊗σᶻ, as a sparse matrix on row-major vec(ρ)."""
    from scipy import sparse
    p, dim = _parity(n), 2 ** n
    a, b = np.divmod(np.arange(dim * dim), dim)
    return sparse.csr_matrix((p[a] * p[b], (a * dim + b, b * dim + a)),
                             shape=(dim * dim,) * 2)


def _commutator(gen):
    L = kron_superoperator(gen)
    T = _transpose_parity(len(gen.sm))
    return float(abs(T @ L - L @ T).max())


@pytest.mark.parametrize("tag", ["UWM", "DM", "EAM"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("beta,s0,eta", _SYMMETRIC)
def test_transpose_parity_commutes_with_resonant_generators(tag, n, beta, s0,
                                                            eta):
    from cascadia.exact import _parity_symmetric
    gen = build_generator(tag, _params(beta, s0, n, eta=eta, seed=7), None)
    assert _commutator(gen) == 0.0
    assert _parity_symmetric(gen)


@pytest.mark.parametrize("tag", ["UWM", "DM", "EAM", "BWM"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_chain_phases_and_detunings_break_transpose_parity(tag, n):
    from cascadia.exact import _parity_symmetric
    cells = [_CELLS[1]] + ([_CELLS[0]] if tag == "BWM" else [])
    for cell in cells:  # the detuned cell, and the BWM's chain phases
        gen = build_generator(tag, *_cell(tag, n, *cell))
        assert _commutator(gen) > 1e-6  # far above rounding
        assert not _parity_symmetric(gen)


def test_a_complex_kernel_alone_breaks_transpose_parity():
    # a Hermitian kernel with imaginary entries beside DM's H, which keeps
    # PHᵀP = −H: the dissipator alone breaks the symmetry, and the
    # predicate sees it
    from cascadia.exact import _Generator, _parity_symmetric, _site_ops
    p = _params(0.2, 2.0, 3)
    K = p.gamma_1d * np.ones((3, 3)) + 0.1j * np.triu(np.ones((3, 3)), 1)
    gen = _Generator(build_generator("DM", p, None).H, [K + K.conj().T],
                     _site_ops(3))
    assert _commutator(gen) > 1e-6
    assert not _parity_symmetric(gen)


@pytest.mark.parametrize("tag", ["UWM", "DM", "EAM"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("beta,s0,eta", _SYMMETRIC)
def test_symmetric_states_are_transpose_parity_even(tag, n, beta, s0, eta):
    state = exact_steady_state(tag, _params(beta, s0, n, eta=eta, seed=7))
    p = _parity(n)
    assert np.array_equal(state.rho, np.multiply.outer(p, p) * state.rho.T)
    assert state.unknowns == (4 ** n + 2 ** n) // 2


# slow modes (see the slow-modes test) that the first shift misses: the
# ones DM and EAM reach at τ‖L‖_∞ = 1e6 and at 1e9, as (tag, n, β, s₀, η)
_SLOW = [("DM", 3, 0.49, 100.0, 0.0), ("DM", 4, 0.49, 1.0, 0.0),
         ("EAM", 4, 0.5, 0.5, 0.003), ("DM", 4, 0.49999, 3.0, 0.0),
         ("DM", 5, 0.49999, 0.5, 0.0), ("EAM", 3, 0.5, 3.0, 0.001),
         ("EAM", 4, 0.49999, 100.0, 0.001)]
_SECTOR_CELLS = ([(tag, n, *cell) for tag in ("UWM", "DM", "EAM")
                  for n in (1, 2, 3, 4, 5) for cell in _CELLS]
                 + [(tag, n, beta, s0, eta, 0.0, 0.0)
                    for tag, n, beta, s0, eta in _SLOW])


@pytest.mark.parametrize("tag,n,beta,s0,eta,detuning,xi_delta", _SECTOR_CELLS)
def test_sector_iteration_equals_the_full_space_one(monkeypatch, tag, n, beta,
                                                    s0, eta, detuning,
                                                    xi_delta):
    p, chain = _cell(tag, n, beta, s0, eta, detuning, xi_delta)
    state = exact_steady_state(tag, p, chain)
    monkeypatch.setattr("cascadia.exact._parity_symmetric", lambda gen: False)
    full = exact_steady_state(tag, p, chain)
    assert state.rho.tobytes() == full.rho.tobytes()
    assert ((state.solves, state.tau_norm, state.residual)
            == (full.solves, full.tau_norm, full.residual))
    assert full.unknowns == 4 ** n
    assert state.unknowns == (4 ** n if detuning else (4 ** n + 2 ** n) // 2)


def test_slow_cells_reach_both_large_shifts():
    from cascadia.exact import _TAU_NORMS
    shifts = {exact_steady_state(tag, _params(beta, s0, n, eta=eta,
                                              seed=7)).tau_norm
              for tag, n, beta, s0, eta in _SLOW}
    assert shifts == set(_TAU_NORMS[1:])


def test_near_degenerate_unique_kernel_meets_the_gate_on_both_paths():
    # a unique kernel close to degenerate (it needs the shift 1e9): rounding
    # moves the two paths' states apart by ~1e-10 along its slowest mode,
    # and each is a steady state to the residual gate, so the gate is what
    # is compared
    from _complex_oracle import reference_steady_state
    from cascadia.exact import _RESIDUAL_MAX
    p = _params(0.5, 1.0, 4, eta=0.1, seed=7)
    chain = build_chain(p)
    state = exact_steady_state("BWM", p, chain)
    ref = reference_steady_state("BWM", p, chain)
    assert state.residual <= _RESIDUAL_MAX
    assert _residual("BWM", p, chain, state.rho) <= _RESIDUAL_MAX
    assert _residual("BWM", p, chain, ref) <= _RESIDUAL_MAX


@pytest.mark.xfail(strict=True, raises=NonConvergence, reason=(
    "a lossless BWM on a nearly ordered chain ends at ‖dρ/dt‖_F = 3.74e-10, "
    "above the 1e-10 gate, after 9 back-solves with τ‖L‖_∞ up to 1e9: L has "
    "a slow mode of rate 2.0e-9 at ‖L‖_∞ ≈ 5, so τ·gap ≈ 0.4 at the last "
    "shift and each back-solve shrinks that mode only by ~0.71, and a shift "
    "ends once a back-solve fails to halve ‖Lρ‖_F"))
def test_lossless_bwm_on_a_nearly_ordered_chain_is_solved():
    p = _params(0.5, 0.5, 2, eta=0.01, seed=7)
    chain = build_chain(p)
    state = exact_steady_state("BWM", p, chain)
    assert _residual("BWM", p, chain, state.rho) <= 1e-10


def _null_state(gen, digits=40):
    """The steady state of gen's L (the kron sum) from a `digits`-digit
    LU solve of L with the trace row in place of row 0."""
    mpmath = pytest.importorskip("mpmath")
    L = kron_superoperator(gen).toarray()
    dim = gen.H.shape[0]
    with mpmath.workdps(digits):
        A = mpmath.matrix([[mpmath.mpc(x.real, x.imag) for x in row]
                           for row in L])
        for j in range(dim * dim):
            A[0, j] = 1 if j % (dim + 1) == 0 else 0
        b = mpmath.matrix([1] + [0] * (dim * dim - 1))
        x = mpmath.lu_solve(A, b)
        return np.array([complex(v) for v in x]).reshape(dim, dim)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "a silent wrong answer: on a lossless BWM at η = 0.003 and 0.001 the "
    "oracle returns after 6 back-solves at τ‖L‖_∞ = 1e3 with ‖dρ/dt‖_F = "
    "6.6e-11 and 7.4e-12, under the 1e-10 gate, yet 0.228 (max |Δρ|) from "
    "the 40-digit null vector of the same L: the gap of L is 1.8e-10 and "
    "2.0e-11, and the residual gate bounds only the numerator of the "
    "error bound ‖Lρ‖/gap"))
def test_lossless_bwm_near_order_returns_the_steady_state():
    # at N = 2 the kron sum is the solve's L bit for bit; 1e-3 is far above
    # the conditioning floor eps·‖L‖_∞/gap (≤ 6e-5) and far below 0.228
    for eta in (0.003, 0.001):
        p = _params(0.5, 0.5, 2, eta=eta, seed=7)
        chain = build_chain(p)
        state = exact_steady_state("BWM", p, chain)
        ref = _null_state(build_generator("BWM", p, chain))
        assert np.max(np.abs(state.rho - ref)) <= 1e-3, eta


def test_non_hermitian_generator_is_refused(monkeypatch):
    # an anti-Hermitian part iX of H makes −i[H, ρ] carry [X, ρ], which is
    # anti-Hermitian: U L Uᴴ is then complex, and the solve refuses it
    from cascadia.errors import NumericalInstability
    from cascadia.exact import _Generator, _site_ops
    p = _params(0.2, 2.0, 2)
    real = build_generator("DM", p, None)
    sm = _site_ops(2)
    H = real.H + 0.3j * (sm[0].conj().T @ sm[0])
    kernels = [p.gamma_1d * np.ones((2, 2)), p.gamma_loss * np.eye(2)]
    monkeypatch.setattr("cascadia.exact.build_generator",
                        lambda *args: _Generator(H, kernels, sm))
    with pytest.raises(NumericalInstability,
                       match=r"DM .*N = 2, β = 0\.2, s₀ = 2.*Hermiticity"):
        exact_steady_state("DM", p)


@pytest.mark.parametrize("part", ["H", "K"])
def test_non_hermitian_generator_with_the_symmetry_is_refused(monkeypatch,
                                                              part):
    # a skew part that keeps T(ρ) = PρᵀP commuting with L, iσˣ₁ in H (odd
    # and symmetric) or i on the diagonal of K (symmetric): the sector's
    # block of U L Uᴴ need not show it, so H and K are checked themselves
    from cascadia.errors import NumericalInstability
    from cascadia.exact import _Generator, _parity_symmetric, _site_ops
    p = _params(0.2, 2.0, 2)
    real = build_generator("DM", p, None)
    sm = _site_ops(2)
    H = real.H
    kernels = [p.gamma_1d * np.ones((2, 2)), p.gamma_loss * np.eye(2)]
    if part == "H":
        H = H + 0.3j * (sm[0] + sm[0].conj().T)
    else:
        kernels.append(0.3j * np.eye(2))
    gen = _Generator(H, kernels, sm)
    assert _parity_symmetric(gen)
    monkeypatch.setattr("cascadia.exact.build_generator", lambda *args: gen)
    with pytest.raises(NumericalInstability,
                       match=r"DM .*N = 2, β = 0\.2, s₀ = 2.*Hermiticity"):
        exact_steady_state("DM", p)


def test_state_reports_how_it_was_solved():
    from cascadia.exact import _RESIDUAL_MAX, _TAU_NORMS, DensityState
    bare = DensityState(rho=np.eye(2) / 2, model_tag="UWM")
    assert bare.solves == 0 and np.isnan(bare.tau_norm)
    assert np.isnan(bare.residual) and bare.unknowns == 0
    p = _params(0.2, 2.0, 3)
    state = exact_steady_state("UWM", p)
    assert state.solves > 0 and state.tau_norm == _TAU_NORMS[0]
    # the resonant UWM iterates the transpose-parity sector, (4³ + 2³)/2
    # real coordinates; the BWM's chain phases leave all 4³
    assert state.unknowns == 36
    p_bwm = _params(0.2, 2.0, 3, eta=0.1, seed=7)
    assert exact_steady_state("BWM", p_bwm, build_chain(p_bwm)).unknowns == 64
    assert state.residual == pytest.approx(_residual("UWM", p, None,
                                                     state.rho), rel=1e-6)
    assert state.residual <= _RESIDUAL_MAX
    # a nearly degenerate kernel needs a larger shift (see the slow-modes test)
    slow = exact_steady_state("DM", _params(0.49, 1.0, 4))
    assert slow.tau_norm > _TAU_NORMS[0]


def _assert_solved_at_the_cap(tag, p, chain, unknowns):
    state = exact_steady_state(tag, p, chain)
    assert state.unknowns == unknowns
    rho = state.rho
    assert state.residual <= 1e-10
    assert _residual(tag, p, chain, rho) <= 1e-10
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.max(np.abs(rho - rho.conj().T)) == 0.0
    assert np.linalg.eigvalsh(rho).min() > 0.0
    rep = flux_report(state, p, chain)
    assert abs(rep["defect"]) < 1e-9 * rep["flux_in"]


def test_the_advertised_cap_is_solved():
    # the resonant UWM on its transpose-parity sector (2080 unknowns)
    _assert_solved_at_the_cap("UWM", _params(0.1, 1.0, 6), None, 2080)


def test_the_bwm_at_the_cap_is_solved_on_the_full_space():
    # the BWM breaks transpose parity, so it is solved on all 4⁶ = 4096
    # unknowns, the largest factor the oracle makes
    p = _params(0.1, 1.0, 6, eta=0.1, seed=7)
    _assert_solved_at_the_cap("BWM", p, build_chain(p), 4096)


# the benchmark's pinned N = 5 cells, as (tag, β, s₀), at η = 0.1, seed 7
_PINNED_N5 = [("UWM", 0.05, 1.5), ("UWM", 0.10, 1.2), ("DM", 0.05, 1.2),
              ("DM", 0.15, 0.8), ("EAM", 0.05, 1.2), ("EAM", 0.10, 1.5)]


@pytest.mark.parametrize("tag,beta,s0", _PINNED_N5)
def test_pinned_n5_cells_reach_the_rounding_floor(tag, beta, s0):
    # the correction form x ← x + (I − τL_r)⁻¹(τL_r x) ends at ‖Lρ‖_F of
    # 2.3–3.8e-16 on these cells (4.0–6.1e-16 when x ← (I − τL_r)⁻¹x was
    # iterated on a sparse LU); the gate keeps a margin for other BLAS
    # builds and still pins the floor within a few ulps of ‖ρ‖
    state = exact_steady_state(tag, _params(beta, s0, 5, eta=0.1, seed=7))
    assert state.residual <= 1e-15
