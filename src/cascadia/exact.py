"""Density-matrix oracle for small chains (N ≤ 6).

Builds each model's Lindblad generator explicitly and finds the steady
state by shifted inverse iteration on the 4ᴺ×4ᴺ Liouvillian superoperator
L: one dense LU factorization of I − τL, then ρ ← (I − τL)⁻¹ρ from |g…g⟩
(QuTiP's "power" steady-state method; Johansson, Nation & Nori, Comput.
Phys. Commun. 184, 1234 (2013)), taken in correction form, with a larger
shift only where slow modes need one.  The iteration converges to the
state |g…g⟩ relaxes to, so unique and degenerate kernels (β = ½ leaves no
loss, and dark states give several steady states) take the same path.
L is iterated in the real coordinates of Hermitian ρ, where it is a real
matrix; both L's entries and that real matrix are read off plans cached
per size, built on first use.  Where the generator commutes
with T(ρ) = PρᵀP, P = ⊗σᶻ (a resonant drive and real kernels: the UWM,
DM and EAM; Buča & Prosen, New J. Phys. 14, 073007 (2012)), only the
(4ᴺ + 2ᴺ)/2 coordinates of T's +1 sector, which holds |g…g⟩, are
iterated, with bit-identical states.  Either way only the coordinates
that |g…g⟩ is connected to through L are factored.  A solve then takes
~0.006 s at N = 5 and ~0.15 s and ~120 MB at N = 6; the BWM and detuned
cells iterate all 4ᴺ coordinates, ~0.03 s for the BWM at N = 5 and
~0.9–1.2 s and ~240 MB at N = 6.  The first solve at a size also builds
its plans, ~0.01 s at N = 5 and ~0.04 s (sector) or ~0.12 s (all 4ᴺ) at
N = 6 (2-core x86, OPENBLAS_NUM_THREADS=1).
Used as ground truth by the test suite; nothing here scales past a
handful of emitters and nothing here is approximate.

All four models share the driven-qubit part and differ only in the
left-going guided channel, the triple (c, v, w) of `params.left_channel`.
Each guided channel is a kernel K_il on the sites; in the spiral gauge

    right  (Γ₁D/2)·𝟙 for every model
    left   (Γ₁D/2)·w_i c^{|i−l|} v_l: the chain's phases ū_i u_l (BWM,
           u = e^{2ik₀z}), their ensemble average e^{−2(ηπ)²|i−l|} (EAM, a
           real positive Kac kernel), 𝟙 (DM, the Bragg limit: with the
           right channel, Γ₁D·D[J⁻]); the UWM has none, and its backward
           emission (Γ₁D/2 per site) becomes local loss
    loss   γ·I

A cascaded channel with kernel K and upstream order ≺ adds
    H_casc = −(i/2)(A − Aᴴ),  A = Σ_{l≺j} K_jl σ⁺_j σ⁻_l
with ≺ the site order for the right channel and its reverse for the left,
and every kernel adds Σ_{j,l} K_jl (σ⁻_l ρ σ⁺_j − ½{σ⁺_j σ⁻_l, ρ}).
The dissipator is linear in K, so the generator sums the kernels into one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dgetrf, dgetrs

from .errors import DimensionCap, NonConvergence, NumericalInstability
from .params import (EmitterChain, ModelParams, left_channel,
                     output_saturations, site_detunings)

__all__ = ["DensityState", "exact_steady_state", "exact_observables",
           "flux_report", "build_generator"]

_MAX_N = 6
# shifts τ = t/‖L‖_∞ of the inverse iteration, t tried in turn from the
# best iterate so far while ‖Lρ‖_F stays above _RESIDUAL_MAX.  A back-solve
# damps every mode of L with |λ| ≥ ‖L‖_∞/t by ≥ 2, and adds rounding of
# ~eps·t to the kernel part of ρ, which no back-solve damps.  The first
# shift keeps that rounding small in a degenerate kernel (at t = 1e6 the
# β = ½, η = 0 cells at N = 2…4 drift by up to 2e-11); the larger ones
# reach the slow modes of nearly degenerate kernels (DM at β = 0.49, BWM
# at β = ½ and η = 0.1), whose 1-D kernel the trace fixes.
_TAU_NORMS = (1e3, 1e6, 1e9)
# back-solves, over all shifts, before the inverse iteration gives up
_INVERSE_STEPS = 50
# the largest ‖dρ/dt‖_F accepted as a steady state
_RESIDUAL_MAX = 1e-10
# the largest |H − Hᴴ|/‖L‖_∞ and |K − Kᴴ|/‖L‖_∞ taken for rounding
_HERMITIAN_DUST = 1e-13


@dataclass(frozen=True)
class DensityState:
    """Steady-state density matrix in the tensor-product qubit basis.

    Site 1 is the leftmost emitter and the slowest-varying tensor factor.
    """

    rho: np.ndarray
    model_tag: str
    # how `exact_steady_state` got it: back-solves of the inverse
    # iteration, the last shift τ‖L‖_∞, the gated ‖dρ/dt‖_F, and the
    # number of real coordinates solved in (4ᴺ, or (4ᴺ + 2ᴺ)/2 on the
    # transpose-parity sector), of which those |g…g⟩ is connected to are
    # factored
    solves: int = 0
    tau_norm: float = float("nan")
    residual: float = float("nan")
    unknowns: int = 0


@lru_cache(maxsize=_MAX_N)
def _site_ops(n: int) -> np.ndarray:
    """σ⁻_i in the 2ⁿ-dimensional product space, site 1 slowest factor,
    stacked as a read-only (n, 2ⁿ, 2ⁿ) array."""
    sm1 = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |g⟩⟨e|
    eye = np.eye(2, dtype=complex)
    ops = []
    for i in range(n):
        op = np.array([[1.0 + 0.0j]])
        for k in range(n):
            op = np.kron(op, sm1 if k == i else eye)
        ops.append(op)
    ops = np.array(ops)
    ops.flags.writeable = False
    return ops


@lru_cache(maxsize=_MAX_N)
def _pair_ops(n: int) -> np.ndarray:
    """σ⁺_jσ⁻_l for j, l = 1…n in the 2ⁿ-dimensional product space, stacked
    as a read-only real (n, n, 2ⁿ, 2ⁿ) array."""
    sm = _site_ops(n).real
    ops = sm.transpose(0, 2, 1)[:, None] @ sm[None]
    ops.flags.writeable = False
    return ops


@lru_cache(maxsize=_MAX_N)
def _parity(dim: int) -> np.ndarray:
    """The diagonal p of P = ⊗σᶻ on the dim basis states (σᶻ|e⟩ = |e⟩):
    p_a = ±1 by the parity of a's ground factors; read-only."""
    p = np.ones(1)
    while p.size < dim:
        p = np.kron(p, [1.0, -1.0])
    p.flags.writeable = False
    return p


class _Generator:
    """dρ/dt = −i[H, ρ] + Σ_jl K_jl (σ⁻_l ρ σ⁺_j − ½{σ⁺_jσ⁻_l, ρ}), with K
    the sum of `kernels` (one per channel) and sm = `_site_ops(n)`."""

    def __init__(self, H: np.ndarray, kernels, sm: np.ndarray):
        self.H = H
        self.sm = sm
        self.sp = sm.conj().transpose(0, 2, 1)
        self.K = K = sum(kernels)
        # S_j = Σ_l K_jl σ⁻_l and G = Σ_j σ⁺_j S_j = Σ_jl K_jl σ⁺_jσ⁻_l
        self.S = np.tensordot(K, sm, 1)
        self.G = np.tensordot(K, _pair_ops(len(sm)), 2)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        out = -1j * (self.H @ rho - rho @ self.H)
        for Sj, spj in zip(self.S, self.sp):
            out += Sj @ rho @ spj
        out -= 0.5 * (self.G @ rho + rho @ self.G)
        return out


def _left_kernel(model_tag: str, params: ModelParams,
                 chain: Optional[EmitterChain]) -> Optional[np.ndarray]:
    """K_il = (Γ₁D/2)·w_i c^{|i−l|} v_l of the model's left channel (c, v, w)
    (`params.left_channel`); None for the UWM, which has none."""
    channel = left_channel(model_tag, params, chain)
    if channel is None:
        return None
    c, v, w = channel
    n = params.n_emitters
    hop = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    wv = np.multiply.outer(np.broadcast_to(w, (n,)), np.broadcast_to(v, (n,)))
    return (params.gamma_1d / 2.0) * (wv * c ** hop)


def build_generator(model_tag: str, params: ModelParams,
                    chain: Optional[EmitterChain]) -> _Generator:
    """Assemble H and dissipator kernels for one model.

    Exposed (rather than private) because the generator-level limit
    identities — Bragg BWM ≡ DM, η→∞ EAM ≡ UWM — are part of the tested
    contract and need direct access to H and the kernels.
    """
    n = params.n_emitters
    if n > _MAX_N:
        raise DimensionCap(f"exact solver capped at N = {_MAX_N} (got {n})")
    g = params.gamma_1d / 2.0
    right = g * np.ones((n, n))
    left = _left_kernel(model_tag, params, chain)
    if left is None:  # the backward emission leaves as local loss
        left = g * np.eye(n)
    sm = _site_ops(n)
    pairs = _pair_ops(n)

    H = (params.rabi / 2.0) * (sm + sm.conj().transpose(0, 2, 1)).sum(0)
    det = site_detunings(params, chain)
    if det is not None:
        H = H - np.tensordot(det, pairs[np.arange(n), np.arange(n)], 1)

    # −(i/2)(A − Aᴴ) per cascaded channel, A = Σ_{l≺j} K_jl σ⁺_jσ⁻_l: the
    # right channel runs in site order (l < j), the left in reverse (l > j;
    # a diagonal kernel, the UWM's backward loss, adds nothing)
    for upstream in (np.tril(right, -1), np.triu(left, 1)):
        A = np.tensordot(upstream, pairs, 2)
        H = H - 0.5j * (A - A.conj().T)

    return _Generator(H, [right, params.gamma_loss * np.eye(n), left], sm)


def _parity_symmetric(gen: _Generator) -> bool:
    """Whether T(ρ) = PρᵀP, P = ⊗σᶻ, commutes with gen's L.

    It does exactly when Kᵀ = K and PHᵀP = −H: then T maps −i[H, ρ] to
    −i[H, T(ρ)], and the dissipator of T(ρ) is T of the dissipator of ρ.
    For Hermitian H and K that is a real K and PH̄P = −H: a resonant drive
    (real, one spin flipped) and cascades with real kernels (imaginary, two
    spins flipped), as in the UWM, DM and EAM.  A detuning (real, no flip)
    or the BWM's chain phases in K break it.  Tested exactly, not to a
    tolerance, so the sector is taken only where it holds bit for bit.
    """
    p = _parity(gen.H.shape[0])
    return (np.array_equal(gen.K, gen.K.T)
            and np.array_equal(np.multiply.outer(p, p) * gen.H.T, -gen.H))


@lru_cache(maxsize=4 * _MAX_N)
def _hermitian_coordinates(dim: int, sector: bool):
    """The unitary U with x = U·vec(ρ) = (ρ_aa, √2 Re ρ_ab, √2 Im ρ_ab):
    a over all dim basis states, then a < b in row-major order.  x is real
    where ρ is Hermitian, and Uᴴx is Hermitian for every real x.

    With `sector`, only the rows of the +1 sector of T(ρ) = PρᵀP
    (`_parity`), in the same order: on Hermitian ρ, T(ρ)_ab = p_a p_b ρ̄_ab,
    so the sector keeps every ρ_aa, Re ρ_ab where p_a p_b = 1 and Im ρ_ab
    where p_a p_b = −1, (4ᴺ + 2ᴺ)/2 of the 4ᴺ coordinates, and Uᴴx
    satisfies T(ρ) = ρ for every real x.  Returns U and Uᴴ as read-only
    sparse matrices."""
    a, b = np.triu_indices(dim, 1)
    diag = np.arange(dim) * (dim + 1)
    upper, lower = a * dim + b, b * dim + a
    re = dim + np.arange(a.size)
    im = re + a.size
    s = np.sqrt(0.5)
    rows = np.concatenate((np.arange(dim), re, re, im, im))
    cols = np.concatenate((diag, upper, lower, upper, lower))
    vals = np.concatenate((np.ones(dim), np.full(2 * a.size, s),
                           np.full(a.size, -1j * s), np.full(a.size, 1j * s)))
    U = sparse.csr_matrix((vals, (rows, cols)), shape=(dim * dim,) * 2)
    if sector:
        p = _parity(dim)
        even = p[a] == p[b]
        U = U[np.concatenate((np.ones(dim, dtype=bool), even, ~even))]
    Uh = U.conj().T
    for M in (U, Uh):
        for arr in (M.data, M.indices, M.indptr):
            arr.flags.writeable = False
    return U, Uh


@dataclass(frozen=True)
class _LiouvillianPlan:
    """Where L = A ⊗ I + I ⊗ Bᵀ + Σ_j S_j ⊗ (σ⁺_j)ᵀ, `apply` on row-major
    vec(ρ) with A = −iH − ½G and B = iH − ½G, reads its entries, for every
    generator of one size: L's CSR pattern (`indptr`, `indices`) and, per
    entry, the flat position `src` in z = (A, B, S_1, …, S_n) of its term,
    plus `extra` at the entries `twice` that sum two (the diagonal,
    A_aa + B_bb).  `support` is every position of z that L reads."""

    indptr: np.ndarray
    indices: np.ndarray
    src: np.ndarray
    twice: np.ndarray
    extra: np.ndarray
    support: np.ndarray

    def entries(self, gen: _Generator) -> np.ndarray:
        """L's entries, in CSR order, for gen; a nonzero of A, B or an S_j
        that L does not read raises, so that nothing is dropped."""
        ih, half = 1j * gen.H, 0.5 * gen.G
        z = np.concatenate(((-ih - half).ravel(), (ih - half).ravel(),
                            gen.S.ravel()))
        if np.count_nonzero(z[self.support]) < np.count_nonzero(z):
            raise ValueError(
                "the generator has entries outside the pattern of 1, σ±_i "
                "and σ⁺_jσ⁻_l that the exact oracle assembles L on")
        out = z[self.src]
        out[self.twice] += z[self.extra]
        return out

    def norm(self, entries: np.ndarray) -> float:
        """‖L‖_∞, the largest absolute row sum of L's `entries`."""
        return float(np.add.reduceat(np.abs(entries), self.indptr[:-1]).max())


def _read_only(*arrays):
    for arr in arrays:
        arr.flags.writeable = False


def _sorted_pattern(key: np.ndarray, size: int):
    """For sorted keys row·size + column: the entry each key falls in and
    the CSR indptr and indices of the distinct entries, all int32."""
    new = np.ones(key.size, dtype=bool)
    new[1:] = key[1:] != key[:-1]
    entry = np.cumsum(new, dtype=np.int32) - 1
    key = key[new]
    indptr = np.searchsorted(key // size, np.arange(size + 1, dtype=np.int32))
    return entry, indptr.astype(np.int32), key % size


@lru_cache(maxsize=_MAX_N)
def _liouvillian_plan(n: int) -> _LiouvillianPlan:
    """The read-only `_LiouvillianPlan` of n sites.  A and B combine 1, the
    σ±_i (drive) and the σ⁺_jσ⁻_l (cascades, detunings, ½G), S_j the σ⁻_l,
    so L's pattern is their Kronecker products with I and the (σ⁺_j)ᵀ."""
    sm = _site_ops(n).real
    sp = sm.transpose(0, 2, 1)
    dim = sm.shape[1]
    size = dim * dim  # keys row·size + column < 4¹² fit in int32
    ab = np.flatnonzero(np.eye(dim) + (sm + sp).sum(0)
                        + _pair_ops(n).sum((0, 1))).astype(np.int32)
    s = np.flatnonzero(sm.sum(0)).astype(np.int32)
    x = np.arange(dim, dtype=np.int32)
    # vec(AρB) = (A ⊗ Bᵀ)vec(ρ): row (a, b) and column (c, e) of L read
    # A_ac δ_be, δ_ac B_eb and Σ_j (S_j)_ac (σ⁺_j)_eb
    a, c = np.divmod(ab, dim)
    keys = [np.add.outer(a * dim, x) * size + np.add.outer(c * dim, x),
            np.add.outer(x * dim, c) * size + np.add.outer(x * dim, a)]
    src = [np.repeat(ab, dim), np.tile(ab + size, dim)]
    a, c = np.divmod(s, dim)
    for j, spj in enumerate(sp):
        e, f = (i.astype(np.int32) for i in np.nonzero(spj))
        keys.append(np.add.outer(a * dim, f) * size + np.add.outer(c * dim, e))
        src.append(np.repeat(s + (j + 2) * size, e.size))
    key = np.concatenate([k.ravel() for k in keys])
    src = np.concatenate(src)
    del keys
    order = np.argsort(key, kind="stable")  # A before B on the diagonal
    entry, indptr, indices = _sorted_pattern(key[order], size)
    del key
    src = src[order]
    twice = np.zeros(src.size, dtype=bool)
    twice[1:] = entry[1:] == entry[:-1]
    plan = _LiouvillianPlan(indptr=indptr, indices=indices, src=src[~twice],
                            twice=entry[twice], extra=src[twice],
                            support=np.unique(src))
    _read_only(*vars(plan).values())
    return plan


@dataclass(frozen=True)
class _RealPlan:
    """L_r = Re(U L Uᴴ) (`_hermitian_coordinates`) as a map of L's entries
    l: its CSR pattern (`indptr`, `indices`) and the real sparse `weights`
    with L_r's data = weights @ (Re l_0, Im l_0, Re l_1, …)."""

    indptr: np.ndarray
    indices: np.ndarray
    weights: sparse.csr_matrix

    def matrix(self, entries: np.ndarray) -> sparse.csr_matrix:
        """L_r for L's `entries` (`_LiouvillianPlan.entries`)."""
        size = self.indptr.size - 1
        return sparse.csr_matrix(
            (self.weights @ entries.view(np.float64), self.indices,
             self.indptr), shape=(size, size))


@lru_cache(maxsize=2 * _MAX_N)
def _real_plan(n: int, sector: bool) -> _RealPlan:
    """The read-only `_RealPlan` of n sites, on T's +1 sector or not.

    L_r[r, c] = Re Σ U_rp L_pq Ū_cq over the entries p, q of U's rows r
    and c: ρ_ab and ρ_ba for a real coordinate of a ≠ b.  L's pattern holds
    at most two of the four products, so each entry of L_r sums at most two
    terms, and where T commutes with L, the entries between T's sectors
    cancel to an exact zero, which `_ground_component` sees as no
    connection.  Each U_rp Ū_cq is real or imaginary, so each term is one
    real weight times Re or Im of one entry of L."""
    lplan = _liouvillian_plan(n)
    dim = 2 ** n
    U = _hermitian_coordinates(dim, sector)[0].tocsc()
    size = U.shape[0]
    per = np.diff(U.indptr)  # the coordinates (1 or 2) that read each ρ_ab
    p = np.repeat(np.arange(dim * dim, dtype=np.int32), np.diff(lplan.indptr))
    q = lplan.indices
    # one term per coordinate r of p and c of q, for each entry k = (p, q)
    count = per[p] * per[q]
    k = np.repeat(np.arange(q.size, dtype=np.int32), count)
    rank = np.arange(k.size, dtype=np.int32)
    rank -= np.repeat(np.cumsum(count, dtype=np.int32) - count, count)
    per_q = per[q[k]]
    at_p = U.indptr[p[k]] + rank // per_q
    at_q = U.indptr[q[k]] + rank % per_q
    del p, count, rank, per_q
    key = U.indices[at_p] * size + U.indices[at_q]  # < 4¹² fits in int32
    order = np.argsort(key)
    entry, indptr, indices = _sorted_pattern(key[order], size)
    k, at_p, at_q = k[order], at_p[order], at_q[order]
    del key, order
    # U_rp = x or ix, so U_rp Ū_cq is x_p x_q, i x_p x_q or −i x_p x_q, and
    # Re(U_rp Ū_cq l) is x_p x_q times Re l, −Im l or Im l
    x, imag = U.data.real + U.data.imag, U.data.imag != 0.0
    weight = x[at_p] * x[at_q]
    np.negative(weight, out=weight, where=imag[at_p] & ~imag[at_q])
    k = 2 * k + (imag[at_p] != imag[at_q])
    del at_p, at_q
    weights = sparse.csr_matrix(
        (weight, k,
         np.searchsorted(entry, np.arange(indices.size + 1, dtype=np.int32))),
        shape=(indices.size, 2 * q.size))
    plan = _RealPlan(indptr=indptr, indices=indices, weights=weights)
    _read_only(plan.indptr, plan.indices, weights.data, weights.indices,
               weights.indptr)
    return plan


def _ground_component(Lr: sparse.csr_matrix, ground: int) -> np.ndarray:
    """The sorted coordinates that `ground` is connected to through the
    nonzero entries of Lr, either way round: grown from `ground` by
    mat-vecs with |Lr| and |Lr|ᵀ, whose nonnegative sums cancel nowhere,
    so an entry that rounds to an exact zero is no connection."""
    mag = abs(Lr)
    mag_t = mag.T
    reach = np.zeros(Lr.shape[0], dtype=bool)
    reach[ground] = True
    size = 1
    while True:
        x = reach.astype(float)
        reach |= (mag @ x > 0.0) | (mag_t @ x > 0.0)
        grown = np.count_nonzero(reach)
        if grown == size:
            return np.flatnonzero(reach)
        size = grown


def _inverse_iteration(gen: _Generator, cell: str):
    """x ← (I − τL_r)⁻¹x from |g…g⟩ with tr ρ = 1 after every back-solve.

    L_r = U L Uᴴ is L in the real Hermitian coordinates x of ρ
    (`_hermitian_coordinates`): a Lindbladian maps Hermitian ρ to Hermitian
    dρ/dt, so L_r is real where H and the summed kernel K are Hermitian,
    and a skew part of either above rounding means the generator `cell`
    names does not preserve Hermiticity (NumericalInstability).  U is
    unitary, so ‖L_r x‖₂ = ‖Lρ‖_F.  Neither L nor U L Uᴴ is formed: L's
    entries, and ‖L‖_∞ from them, are gathered by the plan cached for its
    size (`_liouvillian_plan`), and L_r's by one sparse mat-vec of those
    entries (`_real_plan`).

    Where T(ρ) = PρᵀP commutes with L (`_parity_symmetric`), L_r is block
    diagonal over T's ±1 sectors, and |g…g⟩ lies in the +1 sector, so the
    iterate never leaves it: x runs over that sector's (4ᴺ + 2ᴺ)/2
    coordinates alone, with the same shifts, back-solves and gates.  Nor
    does it leave the coordinates |g…g⟩ is connected to through L_r
    (`_ground_component`), and only those are factored and iterated: the
    same set in the sector and in the full space, so the states are
    bit-identical to the full-space iteration's.

    I − τL is nonsingular for every τ > 0, as Re λ(L) ≤ 0, and each
    back-solve multiplies a mode of L by 1/(1 − τλ): the kernel part of ρ
    is kept, so the iterate tends to the state |g…g⟩ relaxes to, unique
    kernel or not.  A zero pivot therefore means a broken generator
    (NumericalInstability).  Each shift in `_TAU_NORMS` is factored once
    (a dense LAPACK LU, in place) and iterated in correction form,
    x ← x + (I − τL_r)⁻¹(τL_r x), which reuses the L_r x of the residual
    test and solves for the small update alone, until a back-solve fails
    to halve ‖Lρ‖_F: at round-off, or where the slowest mode decays too
    slowly for this shift, and then the next shift continues from the best
    iterate.  At N = 5 a sparse LU of the sector's 528 coordinates is
    59 % dense, so it saves nothing: the dense one takes ~4 ms, against
    ~15 ms for SuperLU, and ~0.8 s on the BWM's 4096 at N = 6, against
    ~3.5 s (2-core x86, OPENBLAS_NUM_THREADS=1).  Returns (best ρ,
    back-solves, last t, the number of real unknowns iterated).
    """
    dim = gen.H.shape[0]
    n = len(gen.sm)
    lplan = _liouvillian_plan(n)
    entries = lplan.entries(gen)
    norm = lplan.norm(entries)
    if not 0.0 < norm < np.inf:  # else τ = t/‖L‖_∞ or τL is not finite
        raise NumericalInstability(
            f"{cell}: I − τL is not finite (‖L‖_∞ = {norm:.2e})")
    skew = max(float(np.abs(M - M.conj().T).max()) for M in (gen.H, gen.K))
    if skew > _HERMITIAN_DUST * norm:
        raise NumericalInstability(
            f"{cell}: the generator does not preserve Hermiticity "
            f"(|H − Hᴴ| or |K − Kᴴ| up to {skew:.2e}, "
            f"‖L‖_∞ = {norm:.2e})")
    sector = _parity_symmetric(gen)
    Lr = _real_plan(n, sector).matrix(entries)
    del entries  # L is done with before the dense factor is made
    Uh = _hermitian_coordinates(dim, sector)[1]
    unknowns = Lr.shape[0]
    comp = _ground_component(Lr, dim - 1)  # ground is the last basis state
    if comp.size < unknowns:  # else the restriction would only copy Lr
        Lr = Lr[comp][:, comp]
    traced = np.searchsorted(comp, dim)  # the ρ_aa come first
    diag = np.arange(comp.size)
    best = (comp == dim - 1).astype(float)
    best_w = Lr @ best
    best_r, solves = np.inf, 0
    a = np.empty((comp.size,) * 2, order="F")
    for tau_norm in _TAU_NORMS:
        tau = tau_norm / norm
        Lr.toarray(out=a)
        a *= -tau
        a[diag, diag] += 1.0
        lu, piv, info = dgetrf(a, overwrite_a=1)
        if info > 0:
            raise NumericalInstability(
                f"{cell}: I − τL has a zero pivot U({info}, {info}) at "
                f"τ‖L‖_∞ = {tau_norm:g}, which no Lindbladian gives")
        if info < 0:
            raise ValueError(f"dgetrf: illegal value in argument {-info}")
        v, w, prev = best, best_w, np.inf
        while solves < _INVERSE_STEPS:
            dv, info = dgetrs(lu, piv, tau * w, overwrite_b=1)
            if info < 0:
                raise ValueError(f"dgetrs: illegal value in argument {-info}")
            v = v + dv
            v /= v[:traced].sum()
            solves += 1
            w = Lr @ v
            r = float(np.linalg.norm(w))
            if r < best_r:
                best, best_w, best_r = v, w, r
            if not r < 0.5 * prev:
                break
            prev = r
        if best_r <= _RESIDUAL_MAX:
            break
    x = np.zeros(unknowns)
    x[comp] = best
    return (Uh @ x).reshape(dim, dim), solves, tau_norm, unknowns


def exact_steady_state(model_tag: str, params: ModelParams,
                       chain: Optional[EmitterChain] = None) -> DensityState:
    """Steady state of the master equation by shifted inverse iteration.

    Returns the state that |g…g⟩ relaxes to: where the steady state is
    unique it is the one solution of Lρ = 0 with tr ρ = 1; where the
    kernel is degenerate (e.g. β = ½ with collective decay, which has dark
    states) it is the projection of |g…g⟩ onto the kernel.  Unique and
    degenerate kernels take the same path (`_inverse_iteration`).  The
    Frobenius norm of dρ/dt must end below 1e−10, else NonConvergence.
    """
    gen = build_generator(model_tag, params, chain)
    cell = (f"exact {model_tag} steady state at N = {params.n_emitters}, "
            f"β = {params.beta:g}, s₀ = {params.derive().s0:g}")
    rho, solves, tau_norm, unknowns = _inverse_iteration(gen, cell)
    frob = float(np.linalg.norm(gen.apply(rho)))
    if frob > _RESIDUAL_MAX:
        raise NonConvergence(
            f"{cell}: ‖dρ/dt‖_F = {frob:.2e} > {_RESIDUAL_MAX:g} after "
            f"{solves} back-solves of shifted inverse iteration "
            f"(τ‖L‖_∞ up to {tau_norm:g})")
    rho = 0.5 * (rho + rho.conj().T)  # Uᴴx is Hermitian; this keeps it so
    return DensityState(rho=rho, model_tag=model_tag, solves=solves,
                        tau_norm=tau_norm, residual=frob, unknowns=unknowns)


# --- observables ------------------------------------------------------------


@lru_cache(maxsize=_MAX_N)
def _pauli_stack(n: int) -> np.ndarray:
    """σ⁻_i, σ⁺_i, σᶻ_i for i = 1…n, stacked in that order as a read-only
    (3n, 2ⁿ, 2ⁿ) array."""
    sm = _site_ops(n)
    sp = sm.conj().transpose(0, 2, 1)
    ops = np.concatenate((sm, sp, 2.0 * (sp @ sm) - np.eye(2 ** n)))
    ops.flags.writeable = False
    return ops


def exact_observables(state: DensityState, params: ModelParams,
                      chain: Optional[EmitterChain] = None) -> dict:
    """All single/pair moments plus output saturations.

    pairs[(a, b)][i, j] = ⟨σᵃ_i σᵇ_j⟩ for a, b ∈ {'-', '+', 'z'}; diagonal
    entries hold the same-site products reduced by the Pauli algebra
    (e.g. ('+','-') diagonal is ⟨σ⁺σ⁻⟩ = (1+⟨σᶻ⟩)/2).
    s_ie is the inelastic right-output saturation 8β²(⟨J⁺J⁻⟩ − |⟨J⁻⟩|²).
    """
    n = params.n_emitters
    ops = _pauli_stack(n)
    X = ops @ state.rho                           # X_a = O_a ρ
    singles = np.einsum("akk->a", X)              # tr(O_a ρ)
    # tr(O_a O_b ρ) = Σ_kl (O_a)_kl (X_b)_lk, one GEMM over the 3n operators
    flat = ops.reshape(3 * n, -1)
    P = (flat @ X.transpose(0, 2, 1).reshape(3 * n, -1).T).reshape(3, n, 3, n)
    pairs = {(a, b): P[ia, :, ib, :]
             for ia, a in enumerate("-+z") for ib, b in enumerate("-+z")}
    sigma_minus = singles[:n]
    sigma_z = singles[2 * n:].real

    Jev = np.sum(sigma_minus)
    JpJm = float(np.sum(pairs[("+", "-")]).real)
    s_ie = 8.0 * params.beta ** 2 * (JpJm - abs(Jev) ** 2)
    s_right, s_left = output_saturations(state.model_tag, params, chain,
                                         sigma_minus)
    return {
        "sigma_minus": sigma_minus,
        "sigma_z": sigma_z,
        "pairs": pairs,
        "s_out_right": s_right,
        "s_out_left": s_left,
        "s_ie": float(s_ie),
    }


def flux_report(state: DensityState, params: ModelParams,
                chain: Optional[EmitterChain] = None) -> dict:
    """Photon-flux bookkeeping at steady state (units: photons/Γ_tot⁻¹).

    Input flux Ω²/(2Γ₁D) must equal the sum of right output (coherent +
    inelastic), left output, γ loss, and — for the UWM — the discarded
    backward emission.  `defect` is input minus the sum; a correct
    generator at a converged state leaves only rounding dust.

    Each channel's coherent flux is its output saturation over 8·Γ₁D/2
    (`exact_observables`), and the right channel's inelastic flux is s_ie
    over the same.  The left channel's total is its kernel sum
    Σ_ij K^L_ij ⟨σ⁺_iσ⁻_j⟩ (`_left_kernel`), and `left_inelastic` the
    remainder after its coherent part.  For the rank-one kernels (BWM, DM)
    that remainder is the inelastic flux; for the full-rank EAM kernel it
    also carries the ensemble-diffuse flux.
    """
    obs = exact_observables(state, params, chain)
    g1d = params.gamma_1d
    g = g1d / 2.0
    if g1d == 0.0:
        raise ValueError("flux accounting needs gamma_1d > 0")

    n_i = 0.5 * (1.0 + obs["sigma_z"])  # ⟨σ⁺σ⁻⟩ same-site
    flux_in = params.rabi ** 2 / (2.0 * g1d)
    right_coherent = obs["s_out_right"] / (8.0 * g)
    right_inelastic = obs["s_ie"] / (8.0 * g)
    left_coherent = obs["s_out_left"] / (8.0 * g)

    loss_gamma = params.gamma_loss * float(np.sum(n_i))
    loss_backward = left_total = 0.0
    left = _left_kernel(state.model_tag, params, chain)
    if left is None:  # UWM: the backward emission is lost
        loss_backward = g * float(np.sum(n_i))
    else:
        left_total = float(np.real(np.sum(left * obs["pairs"][("+", "-")])))
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
