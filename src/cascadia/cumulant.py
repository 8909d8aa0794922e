"""Second-order cumulant expansion (CE2) for the cascaded chain.

Tracked moments: singles ⟨σ⁻_i⟩, ⟨σᶻ_i⟩ and all distinct-site pair moments
⟨σ⁻_iσ⁻_j⟩, ⟨σ⁻_iσ⁺_j⟩, ⟨σ⁻_iσᶻ_j⟩, ⟨σᶻ_iσᶻ_j⟩ (the remaining five of the
nine pair combinations follow by conjugation/transposition).  Equations of
motion follow mechanically from the cascaded master equation: for a pair
A_iB_j,

    d⟨A_iB_j⟩/dt = ⟨𝒟(A_i)B_j⟩ + ⟨A_i𝒟(B_j)⟩ + (Γ₁D/2)⟨[σ⁺_i,A_i][B_j,σ⁻_j]⟩

with 𝒟 the adjoint drift.  Third-order moments arising from the drive sums
are closed by discarding the third cumulant:

    ⟨ABC⟩ ≈ ⟨AB⟩⟨C⟩ + ⟨AC⟩⟨B⟩ + ⟨BC⟩⟨A⟩ − 2⟨A⟩⟨B⟩⟨C⟩.

Products that collide on a site are reduced by the Pauli algebra *before*
closure (σ⁻σ⁺ = (1−σᶻ)/2, σᶻσ⁻ = −σ⁻, σ⁻σᶻ = +σ⁻, (σ⁻)² = 0, …), so the
closure only ever sees distinct-site triples.  The test suite re-derives
these equations symbolically from the generator and checks every term.

`_single_eqs` and `_pair_eqs` state these equations once: `build_rhs`
evaluates them on whole moment matrices, the solver reads coefficients
off them.  Site i's singles and pairs (l, i), l < i never couple to sites
downstream of i, so the system is a cascade of blocks (cascaded systems:
Gardiner, PRL 70, 2269; Carmichael, PRL 70, 2273 (1993)), each affine in
its own moments once upstream is fixed, with a nonsingular matrix
(smallest singular value ≥ 0.188 over n ≤ 5, β ≤ ½, s₀ ≤ 80).  The
steady state is unique, and `solve_ce2` solves it exactly, site by site:
each block is one bordered banded linear system of O(k) size
(`_solve_site`), O(n²) in all, with no iteration and no time
integration.  The packed state stores each tracked moment once: 3n +
9·C(n,2) reals (`_layout`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np
from scipy import linalg

from . import steady
from .errors import DimensionCap, NonConvergence
from .params import ModelParams

__all__ = ["CumulantSolution", "solve_ce2", "sigma_xx_cumulant",
           "inelastic_saturation", "CE2_MAX_SITES"]

CE2_MAX_SITES = 512


@dataclass(frozen=True)
class CumulantSolution:
    """CE2 steady state.  Pair matrices are full n×n with zero diagonals;
    mm is symmetric, zz real symmetric, mp Hermitian-conjugate under
    transposition (mp[j,i] = conj(mp[i,j])), mz is general."""

    sigma_minus: np.ndarray   # ⟨σ⁻_i⟩
    sigma_z: np.ndarray       # ⟨σᶻ_i⟩
    mm: np.ndarray            # ⟨σ⁻_iσ⁻_j⟩
    mp: np.ndarray            # ⟨σ⁻_iσ⁺_j⟩
    mz: np.ndarray            # ⟨σ⁻_iσᶻ_j⟩
    zz: np.ndarray            # ⟨σᶻ_iσᶻ_j⟩
    residual: float
    beta: float
    s0: float

    @property
    def n(self) -> int:
        return self.sigma_minus.size

    @property
    def dof(self) -> int:
        """Independent real degrees of freedom: 3n + 9·C(n,2)."""
        n = self.n
        return 3 * n + 9 * (n * (n - 1)) // 2

    def pair(self, a: str, b: str) -> np.ndarray:
        """⟨σᵃ_iσᵇ_j⟩ matrix for a, b ∈ {'-', '+', 'z'} (zero diagonal)."""
        key = a + b
        if key == "--":
            return self.mm
        if key == "-+":
            return self.mp
        if key == "+-":
            return np.conj(self.mp)
        if key == "++":
            return np.conj(self.mm)
        if key == "-z":
            return self.mz
        if key == "z-":
            return self.mz.T
        if key == "+z":
            return np.conj(self.mz)
        if key == "z+":
            return np.conj(self.mz).T
        if key == "zz":
            return self.zz.astype(complex)
        raise ValueError(f"unknown pair {a!r},{b!r}")


def _excl_cumsum(X: np.ndarray) -> np.ndarray:
    """C[k, j] = Σ_{l<k} X[l, j] (exclusive cumulative sum along axis 0)."""
    C = np.empty_like(X)
    C[0] = 0.0
    np.cumsum(X[:-1], axis=0, out=C[1:])
    return C


class _Layout(NamedTuple):
    size: int         # packed reals
    up: np.ndarray    # flat n×n index of each pair i < j, row-major
    low: np.ndarray   # flat index of its mirror (j, i)
    off: np.ndarray   # flat index of each i ≠ j, row-major


@lru_cache(maxsize=8)
def _layout(n: int) -> _Layout:
    """Packed layout, each tracked moment stored once: Re then Im of the
    complex moments (⟨σ⁻⟩, MM and MP on i < j, MZ on i ≠ j), then the real
    ones (⟨σᶻ⟩, ZZ on i < j)."""
    up = np.flatnonzero(np.triu(np.ones((n, n), dtype=bool), k=1))
    off = np.flatnonzero(~np.eye(n, dtype=bool))
    low = (up % n) * n + up // n
    for a in (up, low, off):  # shared by every caller through the cache
        a.setflags(write=False)
    size = 2 * (n + 2 * up.size + off.size) + n + up.size
    return _Layout(size, up, low, off)


def _unpack(y: np.ndarray, n: int):
    """Full n×n pair matrices from the packed state: mirror halves rebuilt
    by symmetry (MM, ZZ) or conjugation (MP), diagonals zero."""
    lay = _layout(n)
    p = lay.up.size
    nc = n + 4 * p
    m, mm, mp, mz = np.split(y[:nc] + 1j * y[nc:2 * nc], [n, n + p, n + 2 * p])
    z, zz = y[2 * nc:2 * nc + n], y[2 * nc + n:]

    def full(vals, idx, mirror=None):
        A = np.zeros(n * n, dtype=vals.dtype)
        A[idx] = vals
        if mirror is not None:
            A[lay.low] = mirror
        return A.reshape(n, n)

    return (m, z, full(mm, lay.up, mm), full(mp, lay.up, np.conj(mp)),
            full(mz, lay.off), full(zz, lay.up, zz))


def _pack(m, z, MM, MP, MZ, ZZ) -> np.ndarray:
    """Gather the tracked moments (upper triangles of MM/MP/ZZ, off-diagonal
    MZ) into the packed real state."""
    lay = _layout(len(m))
    c = np.concatenate((m, MM.ravel()[lay.up], MP.ravel()[lay.up],
                        MZ.ravel()[lay.off]))
    return np.concatenate((c.real, c.imag, z, ZZ.ravel()[lay.up]))


def _single_eqs(om, g, m, z, dMZv, dMPv):
    """(dm, dz) of each site k, with dMZv = Σ_{l<k} ⟨σ⁻_lσᶻ_k⟩ and
    dMPv = Σ_{l<k} ⟨σ⁻_lσ⁺_k⟩."""
    dm = 0.5j * om * z - 0.5 * m + g * dMZv
    dz = -2.0 * om * m.imag - (1.0 + z) - 4.0 * g * dMPv.real
    return dm, dz


def _pair_eqs(om, g, MM, MP, MZ, MZt, ZZ, C_MM, C_MP, C_MZ, C_MMt, C_MPt,
              C_MZt, m_c, z_c, bm_c, dMZ_c, dMP_c, m_r, z_r, bm_r, dMZ_r,
              dMP_r, iu, il):
    """(dMM, dMP, dMZ, dZZ) at (i, j), from broadcastable arguments: the
    moments at (i, j), MZt = ⟨σ⁻_jσᶻ_i⟩, C_X = Σ_{l<i} X[l, j] and C_Xt =
    Σ_{l<j} X[l, i]; m, z, bm = Σ_{l<site} ⟨σ⁻_l⟩ and `_single_eqs`'s dMZv,
    dMPv of site i (`_c`) and j (`_r`); iu = 1 where i < j, il = 1 where
    j < i.  dMM, dMP and dZZ hold for i < j, dMZ for every i ≠ j."""
    p_c, p_r, bp_r = np.conj(m_c), np.conj(m_r), np.conj(bm_r)
    PM, PZ, ZP, C_PMt = np.conj(MP), np.conj(MZ), np.conj(MZt), np.conj(C_MPt)
    dPZ_r, dPM_r = np.conj(dMZ_r), np.conj(dMP_r)

    # ⟨σ⁻σ⁻⟩, valid for i < j
    CSA1 = MZt * bm_c + m_r * dMZ_c + z_c * C_MM - 2.0 * bm_c * z_c * m_r
    CSA2 = (MZ * (bm_r - m_c) + z_r * C_MMt + m_c * (dMZ_r - MZ)
            - 2.0 * (bm_r - m_c) * m_c * z_r)
    dMM = 0.5j * om * (MZt + MZ) - MM + g * (CSA1 + CSA2)

    # ⟨σ⁻σ⁺⟩, valid for i < j
    CSB1 = ZP * bm_c + p_r * dMZ_c + z_c * C_MP - 2.0 * bm_c * z_c * p_r
    CSB2 = (MZ * (bp_r - p_c) + z_r * C_PMt + m_c * (dPZ_r - PZ)
            - 2.0 * (bp_r - p_c) * m_c * z_r + 0.5 * (z_r - ZZ))
    dMP = 0.5j * om * (ZP - MZ) - MP + g * (CSB1 + CSB2 + ZZ)

    # ⟨σ⁻σᶻ⟩, valid for all i ≠ j (il/iu flag the collision corrections)
    CS1 = (ZZ * (bm_c - il * m_r) + z_r * (dMZ_c - il * MZt) + z_c * C_MZ
           - 2.0 * (bm_c - il * m_r) * z_c * z_r + il * MZt)
    T1 = 0.5j * om * ZZ - 0.5 * MZ + g * CS1
    S1 = (MP * (bm_r - iu * m_c) + p_r * C_MMt + m_c * (dMP_r - iu * MP)
          - 2.0 * (bm_r - iu * m_c) * m_c * p_r)
    S2 = (MM * (bp_r - iu * p_c) + m_r * C_PMt + m_c * (dPM_r - iu * PM)
          - 2.0 * (bp_r - iu * p_c) * m_c * m_r + 0.5 * iu * (m_r - MZt))
    T2 = 1j * om * (MM - MP) - (m_c + MZ) - 2.0 * g * (S1 + S2)
    dMZ = T1 + T2 - 2.0 * g * MZt

    # ⟨σᶻσᶻ⟩, valid for i < j; the two site-sums are mutual conjugates
    Sum1 = PZ * bm_c + z_r * dMP_c + p_c * C_MZ - 2.0 * bm_c * p_c * z_r
    Sum1p = (ZP * (bm_r - m_c) + p_r * C_MZt + z_c * (dMP_r - MP)
             - 2.0 * (bm_r - m_c) * z_c * p_r)
    dZZ = (-2.0 * om * (MZ.imag + MZt.imag) - (z_c + z_r + 2.0 * ZZ)
           - 4.0 * g * (Sum1.real + Sum1p.real) + 4.0 * g * MP.real)
    return dMM, dMP, dMZ, dZZ


def build_rhs(params: ModelParams, n: int):
    """Vectorized CE2 time derivative on the packed real state.

    Exposed for the test suite (term-by-term symbolic validation and the
    mean-field regression hook) and for the residual check of `solve_ce2`.
    """
    om = params.rabi
    g = params.gamma_1d / 2.0
    iu = np.triu(np.ones((n, n)), k=1)  # ci: 1 where i < j
    il = iu.T                            # cj: 1 where j < i

    def rhs(t, y):
        m, z, MM, MP, MZ, ZZ = _unpack(y, n)
        bm = np.concatenate(([0.0 + 0.0j], np.cumsum(m)[:-1]))
        C_MM, C_MP, C_MZ = (_excl_cumsum(X) for X in (MM, MP, MZ))
        dMZv = np.diagonal(C_MZ)          # Σ_{l<k} ⟨σ⁻_lσᶻ_k⟩
        dMPv = np.diagonal(C_MP)          # Σ_{l<k} ⟨σ⁻_lσ⁺_k⟩
        dm, dz = _single_eqs(om, g, m, z, dMZv, dMPv)
        dMM, dMP, dMZ, dZZ = _pair_eqs(
            om, g, MM, MP, MZ, MZ.T, ZZ, C_MM, C_MP, C_MZ, C_MM.T, C_MP.T,
            C_MZ.T, m[:, None], z[:, None], bm[:, None], dMZv[:, None],
            dMPv[:, None], m[None, :], z[None, :], bm[None, :],
            dMZv[None, :], dMPv[None, :], iu, il)
        return _pack(dm, dz, dMM, dMP, dMZ, dZZ)

    return rhs


def _ground_state(n: int) -> np.ndarray:
    m = np.zeros(n, dtype=complex)
    z = -np.ones(n)
    MM = np.zeros((n, n), dtype=complex)
    MP = np.zeros((n, n), dtype=complex)
    MZ = np.zeros((n, n), dtype=complex)
    ZZ = 1.0 - np.eye(n)  # ⟨σᶻσᶻ⟩ = (+1) off-diagonal in |g…g⟩
    return _pack(m, z, MM, MP, MZ, ZZ)


def _cell(params: ModelParams, n: int) -> str:
    return f"n = {n}, β = {params.beta:g}, s₀ = {2.0 * params.rabi ** 2:g}"


def _block_indices(n: int, k: int):
    """Packed indices owned by site k: its singles and the pairs (l, k),
    l < k (MZ in both orders, (l, k) and (k, l))."""
    p = math.comb(n, 2)
    nc = n + 4 * p
    l = np.arange(k)
    tri = l * n - l * (l + 1) // 2 + k - l - 1      # slot of (l, k) in i < j
    mz = np.concatenate((l * (n - 1) + k - 1, k * (n - 1) + l))  # in i ≠ j
    cplx = np.concatenate(([k], n + tri, n + p + tri, n + 2 * p + mz))
    return np.concatenate((cplx, nc + cplx, [2 * nc + k], 2 * nc + n + tri))


# a site's 22 real unknowns (`_solve_site`) at 23 probe points: column 0 is
# the base point, all zero, and column d + 1 the unit step in unknown d;
# _C[d] is the complex unknown with its real part at d, imaginary at d + 1
_E = np.eye(23)[1:]
_C = _E[:-1] + 1j * _E[1:]
_PROBE_X = (_C[0], _C[2], _C[4], _C[6], _E[8])
_PROBE_P = (_C[9], _C[11], _C[13])
_PROBE_S = (_C[15], _E[17], _C[18], _C[20])
_KL, _KU = 15, 8  # band of a site system


def _solve_site(om, g, bm_k, m, z, bm, dMZv, dMPv, S_MM, S_MP, S_MZ):
    """Site k's block, given upstream: x (k × 9 reals) and s (7 reals).

    The upstream arrays hold the `_pair_eqs` data of each site l < k =
    m.size, and S_X[l] = Σ_{l'<k} X[l', l].  The unknowns are, per l, x_l
    (Re, Im of MM, MP, MZ at (l, k) and of MZ at (k, l); ZZ) and P_l (Re,
    Im of the column prefixes Σ_{l'<l} of MM, MP, MZ at (l', k)), and s
    (Re, Im of ⟨σ⁻_k⟩; ⟨σᶻ_k⟩; Re, Im of the MZ and MP column totals).
    Row l is affine in x_l, P_l and s alone, so `_pair_eqs` at the probes
    gives its coefficients exactly.  Interleaved as [x_l, P_{l+1}], with
    P_{l+1} = P_l + (MM, MP, MZ)(l, k), the rows are banded: one banded
    solve gives x and P affine in s, and a 7×7 system (the singles, and
    the totals equal to P_k) fixes s.
    """
    k = m.size
    xs, ps, (m_k, z_k, T_MZ, T_MP) = _PROBE_X, _PROBE_P, _PROBE_S
    up = [v[:, None] for v in (m, z, bm, dMZv, dMPv)]
    S = [v[:, None] for v in (S_MM, S_MP, S_MZ)]
    dMM, dMP, dMZ, dZZ = _pair_eqs(om, g, *xs, *ps, *S, *up, m_k, z_k, bm_k,
                                   T_MZ, T_MP, 1.0, 0.0)
    MM, MP, MZ, MZt, ZZ = xs
    dMZt = _pair_eqs(om, g, MM, np.conj(MP), MZt, MZ, ZZ, *S, *ps, m_k, z_k,
                     bm_k, T_MZ, T_MP, *up, 0.0, 1.0)[2]
    F = np.stack((dMM.real, dMM.imag, dMP.real, dMP.imag, dMZ.real,
                  dMZ.imag, dMZt.real, dMZt.imag, dZZ), axis=1)  # k×9×23
    J = F[..., 1:] - F[..., :1]

    # rows 15l + i (the nine equations of l) and 15l + 9 + j (the prefix
    # P_{l+1}[j]); columns 15l + c (x_l) and 15l + 9 + j (P_{l+1})
    ab = np.zeros((_KL + _KU + 1, 15 * k))
    b = np.zeros((15 * k, 8))
    i9, c9, j6 = np.arange(9)[:, None], np.arange(9), np.arange(6)
    l15 = 15 * np.arange(k)[:, None]
    ab[_KU + i9 - c9, l15[:, None] + c9] = J[..., :9]
    ab[_KU + 6 + i9 - j6, l15[1:, None] - 6 + j6] = J[1:, :, 9:15]
    ab[_KU, l15 + 9 + j6] = 1.0
    ab[_KU + 9, l15 + j6] = -1.0
    ab[_KU + 15, l15[1:] - 6 + j6] = -1.0
    b[l15 + c9, 0] = -F[..., 0]
    b[l15 + c9, 1:] = -J[..., 15:]
    if k:
        u = linalg.solve_banded((_KL, _KU), ab, b, overwrite_ab=True,
                                overwrite_b=True, check_finite=False)
        last = u[-6:][[4, 5, 2, 3]]  # P_k's MZ and MP totals
    else:
        u, last = b, np.zeros((4, 8))  # P_0 = 0

    dm, dz = _single_eqs(om, g, m_k, z_k, T_MZ, T_MP)
    G = np.stack((dm.real, dm.imag, dz))
    M = np.vstack((G[:, 16:] - G[:, :1], np.eye(7)[3:] - last[:, 1:]))
    s = np.linalg.solve(M, np.concatenate((-G[:, 0], last[:, 0])))
    return (u[:, 0] + u[:, 1:] @ s).reshape(k, 15)[:, :9], s


def solve_ce2(params: ModelParams) -> CumulantSolution:
    """CE2 steady state of the cascaded chain of params.n_emitters sites.

    The unique steady state is solved exactly, one site block at a time
    from the head of the chain (`_solve_site`): O(n²) in all, with no
    iteration.  The max-norm of `build_rhs` at the result must reach
    `steady.STEADY_RESIDUAL`, or NonConvergence names the cell and the
    first site whose rows miss it.  A singular or non-finite site system
    raises NonConvergence for its site.  Detuned chains are not supported
    here (the sweeps that need CE2 are all on resonance).
    """
    n = params.n_emitters
    if n > CE2_MAX_SITES:
        raise DimensionCap(f"CE2 capped at n = {CE2_MAX_SITES} (got {n})")
    if params.detuning != 0.0:
        raise ValueError("CE2 solver supports resonant drive only")

    # bookkeeping contract: the packed state holds exactly the complex
    # moment count Σ_{k≤2} 3^k·C(n,k) (conjugation halves pairs, σᶻ is real —
    # the two reductions cancel in the count)
    assert _layout(n).size == 3 * math.comb(n, 1) + 9 * math.comb(n, 2)

    om, g = params.rabi, params.gamma_1d / 2.0
    m, bm = np.zeros(n, dtype=complex), np.zeros(n + 1, dtype=complex)
    dMZv, dMPv = np.zeros(n, dtype=complex), np.zeros(n, dtype=complex)
    z, ZZ = np.zeros(n), np.zeros((n, n))
    X = np.zeros((3, n, n), dtype=complex)  # MM, MP, MZ
    S = np.zeros((3, n), dtype=complex)     # S[:, l] = Σ_{l'<k} X[:, l', l]
    for k in range(n):
        try:
            x, s = _solve_site(om, g, bm[k], m[:k], z[:k], bm[:k], dMZv[:k],
                               dMPv[:k], *S[:, :k])
            solved = np.all(np.isfinite(x)) and np.all(np.isfinite(s))
        except np.linalg.LinAlgError:
            solved = False
        if not solved:
            raise NonConvergence(f"CE2 site {k + 1} system singular at "
                                 f"{_cell(params, n)}", site=k + 1)
        m[k], z[k] = s[0] + 1j * s[1], s[2]
        X[:, :k, k] = x[:, 0:6:2].T + 1j * x[:, 1:6:2].T  # at (l, k)
        X[:, k, :k] = (X[0, :k, k], np.conj(X[1, :k, k]),
                       x[:, 6] + 1j * x[:, 7])
        ZZ[:k, k] = ZZ[k, :k] = x[:, 8]
        # what downstream sites read of site k
        bm[k + 1] = bm[k] + m[k]
        S[:, :k] += X[:, k, :k]
        S[:, k] = X[:, :k, k].sum(axis=1)
        dMPv[k], dMZv[k] = S[1:, k]

    MM, MP, MZ = X
    r = np.abs(build_rhs(params, n)(0.0, _pack(m, z, MM, MP, MZ, ZZ)))
    residual = float(np.max(r))
    target = steady.STEADY_RESIDUAL
    if residual > target:
        site = next(k + 1 for k in range(n)
                    if np.max(r[_block_indices(n, k)]) > target)
        raise NonConvergence(f"CE2 steady state not reached at "
                             f"{_cell(params, n)}: residual {residual:.2e}, "
                             f"first at site {site}", site=site)
    s0 = 2.0 * params.rabi ** 2
    return CumulantSolution(sigma_minus=m, sigma_z=z, mm=MM, mp=MP, mz=MZ,
                            zz=ZZ, residual=residual, beta=params.beta, s0=s0)


# --- derived observables ----------------------------------------------------


def sigma_xx_cumulant(sol: CumulantSolution, i: int, j: int) -> float:
    """⟨σˣ_iσˣ_j⟩ − ⟨σˣ_i⟩⟨σˣ_j⟩ for distinct sites (0-based indices).

    σˣ = σ⁺ + σ⁻ gives ⟨σˣσˣ⟩ = 2Re⟨σ⁻σ⁻⟩ + 2Re⟨σ⁻σ⁺⟩ and ⟨σˣ⟩ = 2Re⟨σ⁻⟩.
    """
    if i == j:
        raise ValueError("same-site σˣσˣ reduces to the identity, not a correlation")
    n = sol.n
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError("site index out of range")
    val = (2.0 * sol.mm[i, j].real + 2.0 * sol.mp[i, j].real
           - 4.0 * sol.sigma_minus[i].real * sol.sigma_minus[j].real)
    return float(val)


def inelastic_saturation(sol: CumulantSolution, upto: Optional[int] = None) -> float:
    """Saturation carried by inelastically scattered light after `upto` sites:

        s_ie = 8β² Σ_{i,j ≤ upto} (⟨σ⁺_iσ⁻_j⟩ − ⟨σ⁺_i⟩⟨σ⁻_j⟩),

    with the same-site term (1+⟨σᶻ⟩)/2 − |⟨σ⁻⟩|² from the Pauli reduction.
    Equals the normally-ordered fluctuation of the right-going output field,
    hence non-negative.  `upto` counts sites from the chain head (default n).
    """
    n = sol.n
    upto = n if upto is None else int(upto)
    if not 1 <= upto <= n:
        raise ValueError("upto must lie in [1, n]")
    k = upto
    m = sol.sigma_minus[:k]
    p = np.conj(m)
    PM = np.conj(sol.mp)[:k, :k]  # ⟨σ⁺_iσ⁻_j⟩ off-diagonal
    total = np.sum(PM).real - np.sum(np.outer(p, m)).real
    # the outer-product sum above included the diagonal |m_i|²; replace the
    # zero stored diagonal of PM by the reduced same-site moment (1+z)/2
    total += np.sum(0.5 * (1.0 + sol.sigma_z[:k]))
    return float(8.0 * sol.beta ** 2 * total)
