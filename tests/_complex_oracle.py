"""The exact oracle's complex Liouvillian path: the reference its real one is
tested against.

`kron_superoperator` and `complex_inverse_iteration` are the assembly and the
shifted inverse iteration `cascadia.exact` used before it assembled L from
triplets in one pass and iterated in Hermitian coordinates: L summed from
`sparse.kron` terms one at a time, and I − τL factored as a complex sparse LU
on vec(ρ).  They are kept verbatim (as methods become functions of the
generator) so that the new path is compared against the one it replaced.
`reference_steady_state` adds `exact_steady_state`'s residual gate and
Hermitian symmetrization.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from cascadia.errors import NonConvergence
from cascadia.exact import (_INVERSE_STEPS, _RESIDUAL_MAX, _TAU_NORMS,
                            build_generator)


def kron_superoperator(gen) -> sparse.csr_matrix:
    """L as a sparse matrix on row-major vec(ρ): vec(AρB) = (A ⊗ Bᵀ)·vec(ρ)."""
    eye = sparse.identity(gen.H.shape[0], dtype=complex, format="csr")

    def left(A):   # A ρ
        return sparse.kron(sparse.csr_matrix(A), eye)

    def right(B):  # ρ B
        return sparse.kron(eye, sparse.csr_matrix(B.T))

    L = -1j * (left(gen.H) - right(gen.H))
    for S, G in gen.channels:
        L = L - 0.5 * (left(G) + right(G))
        for Sj, spj in zip(S, gen.sp):
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
    """The steady-state ρ as the complex path returned it."""
    gen = build_generator(model_tag, params, chain)
    rho, _, _ = complex_inverse_iteration(gen)
    frob = float(np.linalg.norm(gen.apply(rho)))
    if frob > _RESIDUAL_MAX:
        raise NonConvergence(f"reference {model_tag} steady state: "
                             f"‖dρ/dt‖_F = {frob:.2e}")
    return 0.5 * (rho + rho.conj().T)
