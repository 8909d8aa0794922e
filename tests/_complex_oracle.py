"""The exact oracle's earlier paths: the references its current ones are
tested against.

`kron_superoperator` and `complex_inverse_iteration` are the assembly and the
shifted inverse iteration `cascadia.exact` used before it assembled L from
triplets in one pass and iterated in Hermitian coordinates: L summed from
`sparse.kron` terms one at a time, and I − τL factored as a complex sparse LU
on vec(ρ).  They are kept verbatim (as methods become functions of the
generator) so that the new path is compared against the one it replaced.
`reference_steady_state` adds `exact_steady_state`'s residual gate and
Hermitian symmetrization.

`reference_generator` and `reference_flux_report` are `build_generator` and
`flux_report` as they were before each model became one table of guided-channel
kernels: one branch per model, the cascades written out pair by pair, and the
flux split per model.  They are kept verbatim but for their names.

`reference_guided_channels`, `attenuation_kernel` and `left_output_weights`
are the per-model kernels and left-output head weights as they were before
every layer derived them from one left-channel triple
(`cascadia.params.left_channel`), kept verbatim but for the first one's name.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from cascadia.errors import DimensionCap, NonConvergence
from cascadia.exact import (_INVERSE_STEPS, _MAX_N, _RESIDUAL_MAX, _TAU_NORMS,
                            DensityState, _Generator, _site_ops,
                            exact_observables)
from cascadia.params import (EmitterChain, ModelParams, averaged_phase_factor,
                             spiral_phases)


def attenuation_kernel(eta: float, n: int) -> np.ndarray:
    """EAM backward pair weights e^{−2(ηπ)²|i−j|} on n sites (a real,
    positive Kac kernel), the ensemble average of u_j ū_i."""
    hop = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return np.exp(-2.0 * (eta * np.pi) ** 2 * hop)


def left_output_weights(model_tag: str, params: ModelParams,
                        chain: EmitterChain | None) -> np.ndarray | None:
    """Weights w_j of the left-output operator Σ_j w_j σ⁻_j at the chain
    head: e^{2ik₀(z_j−z_1)} (BWM), e^{−2(ηπ)²(j−1)} (EAM), 1 (DM); None
    for the UWM, which has no left-going channel."""
    if model_tag == "UWM":
        return None
    if model_tag == "DM":
        return np.ones(params.n_emitters)
    if model_tag == "EAM":
        return (averaged_phase_factor(params.eta, 1)
                ** np.arange(params.n_emitters))
    if chain is None:  # BWM
        raise ValueError("BWM output weights require the chain")
    u = spiral_phases(chain)
    return u * np.conj(u[0])


def reference_guided_channels(model_tag: str, params: ModelParams,
                              chain: Optional[EmitterChain]):
    """The (right, left) guided-channel kernels K_jl of one model; left is
    None for the UWM, which has no left-going channel."""
    n = params.n_emitters
    g = params.gamma_1d / 2.0
    right = g * np.ones((n, n))
    if model_tag == "UWM":
        return right, None
    if model_tag == "DM":
        return right, g * np.ones((n, n))
    if model_tag == "EAM":
        return right, g * attenuation_kernel(params.eta, n)
    if model_tag == "BWM":
        if chain is None:
            raise ValueError("BWM requires a chain realization")
        v = np.conj(spiral_phases(chain))  # e^{−2ik₀z}
        return right, g * np.outer(v, np.conj(v))
    raise ValueError(f"unknown model tag {model_tag!r}")


def kron_superoperator(gen) -> sparse.csr_matrix:
    """L as a sparse matrix on row-major vec(ρ): vec(AρB) = (A ⊗ Bᵀ)·vec(ρ)."""
    eye = sparse.identity(gen.H.shape[0], dtype=complex, format="csr")

    def left(A):   # A ρ
        return sparse.kron(sparse.csr_matrix(A), eye)

    def right(B):  # ρ B
        return sparse.kron(eye, sparse.csr_matrix(B.T))

    L = -1j * (left(gen.H) - right(gen.H))
    L = L - 0.5 * (left(gen.G) + right(gen.G))
    for Sj, spj in zip(gen.S, gen.sp):
        L = L + sparse.kron(sparse.csr_matrix(Sj),
                            sparse.csr_matrix(spj.T))
    return L.tocsr()


def complex_inverse_iteration(gen):
    """ρ ← (I − τL)⁻¹ρ from |g…g⟩ with tr ρ = 1 after every back-solve,
    on complex vec(ρ).  Returns (best ρ, back-solves, last t)."""
    dim = gen.H.shape[0]
    L = kron_superoperator(gen)
    eye = sparse.identity(dim * dim, dtype=complex, format="csc")
    norm = float(abs(L).sum(axis=1).max())
    diag = np.arange(dim) * (dim + 1)
    best = np.zeros(dim * dim, dtype=complex)
    best[-1] = 1.0  # |g…g⟩: ground is the last basis state
    best_r, solves = np.inf, 0
    for tau_norm in _TAU_NORMS:
        lu = splu((eye - (tau_norm / norm) * L).tocsc(),
                  permc_spec="MMD_AT_PLUS_A")
        v, prev = best, np.inf
        while solves < _INVERSE_STEPS:
            v = lu.solve(v)
            v /= v[diag].sum()
            solves += 1
            r = float(np.linalg.norm(L @ v))
            if r < best_r:
                best, best_r = v, r
            if not r < 0.5 * prev:
                break
            prev = r
        if best_r <= _RESIDUAL_MAX:
            break
    return best.reshape(dim, dim), solves, tau_norm


def reference_steady_state(model_tag, params, chain=None) -> np.ndarray:
    """The steady-state ρ as the complex path returned it, from the
    per-model generator."""
    gen = reference_generator(model_tag, params, chain)
    rho, _, _ = complex_inverse_iteration(gen)
    frob = float(np.linalg.norm(gen.apply(rho)))
    if frob > _RESIDUAL_MAX:
        raise NonConvergence(f"reference {model_tag} steady state: "
                             f"‖dρ/dt‖_F = {frob:.2e}")
    return 0.5 * (rho + rho.conj().T)


def reference_generator(model_tag: str, params: ModelParams,
                        chain: Optional[EmitterChain]) -> _Generator:
    """Assemble H and dissipator kernels for one model.

    Exposed (rather than private) because the generator-level limit
    identities — Bragg BWM ≡ DM, η→∞ EAM ≡ UWM — are part of the tested
    contract and need direct access to H and the kernels.
    """
    n = params.n_emitters
    if n > _MAX_N:
        raise DimensionCap(f"exact solver capped at N = {_MAX_N} (got {n})")
    g1d = params.gamma_1d
    g = g1d / 2.0
    gl = params.gamma_loss
    sm = _site_ops(n)
    sp = [s.conj().T for s in sm]
    num = [sp[i] @ sm[i] for i in range(n)]

    H = sum((params.rabi / 2.0) * (sm[i] + sp[i]) for i in range(n))
    if chain is not None and np.any(chain.detunings != 0.0):
        H = H - sum(chain.detunings[i] * num[i] for i in range(n))
    elif params.detuning != 0.0:
        H = H - sum(params.detuning * num[i] for i in range(n))

    def cascade_h(weights):
        # −(i/2) Σ_{l≺j} (c_j c̄_l σ⁺_jσ⁻_l − h.c.) with c_j = √g·w_j and the
        # list `weights` ordered upstream-first
        Hc = np.zeros_like(H)
        for jj in range(n):
            for ll in range(jj):
                c = g * weights[jj][1] * np.conj(weights[ll][1])
                j, l = weights[jj][0], weights[ll][0]
                Hc += -0.5j * (c * sp[j] @ sm[l] - np.conj(c) * sp[l] @ sm[j])
        return Hc

    ones = np.ones((n, n))
    loc = np.eye(n)
    kernels = []

    if model_tag == "DM":
        kernels = [g1d * ones, gl * loc]
    elif model_tag == "UWM":
        H = H + cascade_h([(i, 1.0) for i in range(n)])
        kernels = [g * ones, (g + gl) * loc]
    elif model_tag == "BWM":
        if chain is None:
            raise ValueError("BWM requires a chain realization")
        v = np.conj(spiral_phases(chain))  # e^{−2ik₀z}
        H = H + cascade_h([(i, 1.0) for i in range(n)])
        H = H + cascade_h([(i, v[i]) for i in range(n - 1, -1, -1)])
        kernels = [g * ones, g * np.outer(v, np.conj(v)), gl * loc]
    elif model_tag == "EAM":
        K = attenuation_kernel(params.eta, n)
        H = H + cascade_h([(i, 1.0) for i in range(n)])
        # left cascade with ensemble-averaged pair weights (real kernel)
        Hl = np.zeros_like(H)
        for j in range(n):
            for l in range(j):
                # upstream for the left channel is the larger index j
                Hl += -0.5j * g * K[j, l] * (sp[l] @ sm[j] - sp[j] @ sm[l])
        H = H + Hl
        kernels = [g * ones, g * K, gl * loc]
    else:
        raise ValueError(f"unknown model tag {model_tag!r}")

    return _Generator(H, kernels, sm)


def reference_flux_report(state: DensityState, params: ModelParams,
                          chain: Optional[EmitterChain] = None) -> dict:
    """Photon-flux bookkeeping at steady state (units: photons/Γ_tot⁻¹).

    Input flux Ω²/(2Γ₁D) must equal the sum of right output (coherent +
    inelastic), left output, γ loss, and — for the UWM — the discarded
    backward emission.  `defect` is input minus the sum; a correct
    generator at a converged state leaves only rounding dust.

    The left channel splits into coherent/inelastic through its collective
    operator when the channel is rank-one (BWM, DM); for the EAM the
    ensemble-averaged kernel is full-rank, so `left_total` is the kernel
    sum Σ_ij Γ^L_ij ⟨σ⁺_iσ⁻_j⟩ and `left_inelastic` is reported as the
    remainder after the attenuated coherent part (it then also carries the
    ensemble-diffuse flux).
    """
    obs = exact_observables(state, params, chain)
    n = params.n_emitters
    tag = state.model_tag
    g1d = params.gamma_1d
    g = g1d / 2.0
    if g1d == 0.0:
        raise ValueError("flux accounting needs gamma_1d > 0")

    m = obs["sigma_minus"]
    pm = obs["pairs"][("+", "-")]
    n_i = 0.5 * (1.0 + obs["sigma_z"])  # ⟨σ⁺σ⁻⟩ same-site

    flux_in = params.rabi ** 2 / (2.0 * g1d)
    a_in = params.rabi / np.sqrt(2.0 * g1d)

    # right channel: a_out = a_in − i√g J⁻ with unit weights
    Jev = np.sum(m)
    JpJm = float(np.sum(pm).real)  # Σ_ij ⟨σ⁺_iσ⁻_j⟩ incl. diagonal
    right_coherent = abs(a_in - 1j * np.sqrt(g) * Jev) ** 2
    right_inelastic = g * (JpJm - abs(Jev) ** 2)

    loss_gamma = params.gamma_loss * float(np.sum(n_i))
    loss_backward = 0.0

    if tag == "UWM":
        left_total = left_coherent = left_inelastic = 0.0
        loss_backward = g * float(np.sum(n_i))
    elif tag == "DM":
        left_coherent = g * abs(Jev) ** 2
        left_inelastic = g * (JpJm - abs(Jev) ** 2)
        left_total = left_coherent + left_inelastic
    elif tag == "BWM":
        u = spiral_phases(chain)
        JL = np.sum(u * m)  # phase weights; global phase drops in |·|
        JLpJLm = float(np.real(np.conj(u)[:, None] * u[None, :] * pm).sum())
        left_coherent = g * abs(JL) ** 2
        left_inelastic = g * (JLpJLm - abs(JL) ** 2)
        left_total = left_coherent + left_inelastic
    else:  # EAM: full-rank averaged kernel
        K = attenuation_kernel(params.eta, n)
        left_total = g * float(np.real(np.sum(K * pm)))
        w = left_output_weights("EAM", params, chain)
        left_coherent = g * abs(np.sum(w * m)) ** 2
        left_inelastic = left_total - left_coherent

    total_out = (right_coherent + right_inelastic + left_total
                 + loss_gamma + loss_backward)
    return {
        "flux_in": float(flux_in),
        "right_coherent": float(right_coherent),
        "right_inelastic": float(right_inelastic),
        "left_coherent": float(left_coherent),
        "left_inelastic": float(left_inelastic),
        "left_total": float(left_total),
        "loss_gamma": float(loss_gamma),
        "loss_backward": float(loss_backward),
        "defect": float(flux_in - total_out),
    }
