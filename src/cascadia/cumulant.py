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

Because site i's singles and the pairs (l, i), l < i never couple to sites
downstream of i, the system is a cascade of blocks.  Each block is affine
in its own moments once upstream is fixed, with a nonsingular matrix
(smallest singular value ≥ 0.188 over n ≤ 5, β ≤ ½, s₀ ≤ 80), so the
steady state is unique and nothing is time-integrated.  A whole-system
Newton–Krylov solve (`steady.newton_finish`) from the closed-form
mean-field cascade ("simultaneous", default — vectorized over n×n moment
matrices) and a sweep of one Newton solve per site block ("blocks")
agree to solver precision; both end in the shared round-off finish.  The
packed state stores each tracked moment once: 3n + 9·C(n,2) reals
(`_layout`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .errors import DimensionCap, NonConvergence
from .meanfield import uwm_cascade_fixed_point
from .params import ModelParams
from .steady import SolverOptions, newton_finish, small_move

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


def build_rhs(params: ModelParams, n: int):
    """Vectorized CE2 time derivative on the packed real state.

    Exposed for the test suite (term-by-term symbolic validation and the
    mean-field regression hook); solver entry point is `solve_ce2`.
    """
    om = params.rabi
    g = params.gamma_1d / 2.0
    iu = np.triu(np.ones((n, n)), k=1)  # ci: 1 where i < j
    il = iu.T                            # cj: 1 where j < i

    def rhs(t, y):
        m, z, MM, MP, MZ, ZZ = _unpack(y, n)
        p = np.conj(m)
        PM = np.conj(MP)
        PZ = np.conj(MZ)
        ZP = PZ.T

        bm = np.concatenate(([0.0 + 0.0j], np.cumsum(m)[:-1]))
        bp = np.conj(bm)
        C_MM = _excl_cumsum(MM)
        C_MP = _excl_cumsum(MP)
        C_MZ = _excl_cumsum(MZ)
        C_PM = np.conj(C_MP)
        dMZv = np.diagonal(C_MZ)          # Σ_{l<k} ⟨σ⁻_lσᶻ_k⟩
        dMPv = np.diagonal(C_MP)          # Σ_{l<k} ⟨σ⁻_lσ⁺_k⟩
        dPZv = np.conj(dMZv)
        dPMv = np.conj(dMPv)

        m_c, m_r = m[:, None], m[None, :]
        p_c, p_r = p[:, None], p[None, :]
        z_c, z_r = z[:, None], z[None, :]
        bm_c, bm_r = bm[:, None], bm[None, :]
        bp_c, bp_r = bp[:, None], bp[None, :]
        dMZ_c, dMZ_r = dMZv[:, None], dMZv[None, :]
        dMP_r = dMPv[None, :]
        dMP_c = dMPv[:, None]
        dPZ_r = dPZv[None, :]
        dPM_r = dPMv[None, :]
        MZt = MZ.T

        # singles
        dm = 0.5j * om * z - 0.5 * m + g * dMZv
        dz = -2.0 * om * m.imag - (1.0 + z) - 4.0 * g * dMPv.real

        # ⟨σ⁻σ⁻⟩, valid for i < j
        CSA1 = MZt * bm_c + m_r * dMZ_c + z_c * C_MM - 2.0 * bm_c * z_c * m_r
        CSA2 = (MZ * (bm_r - m_c) + z_r * C_MM.T + m_c * (dMZ_r - MZ)
                - 2.0 * (bm_r - m_c) * m_c * z_r)
        dMM = 0.5j * om * (MZt + MZ) - MM + g * (CSA1 + CSA2)

        # ⟨σ⁻σ⁺⟩, valid for i < j
        CSB1 = ZP * bm_c + p_r * dMZ_c + z_c * C_MP - 2.0 * bm_c * z_c * p_r
        CSB2 = (MZ * (bp_r - p_c) + z_r * C_PM.T + m_c * (dPZ_r - PZ)
                - 2.0 * (bp_r - p_c) * m_c * z_r + 0.5 * (z_r - ZZ))
        dMP = 0.5j * om * (ZP - MZ) - MP + g * (CSB1 + CSB2 + ZZ)

        # ⟨σ⁻σᶻ⟩, valid for all i ≠ j (il/iu flag the collision corrections)
        CS1 = (ZZ * (bm_c - il * m_r) + z_r * (dMZ_c - il * MZt) + z_c * C_MZ
               - 2.0 * (bm_c - il * m_r) * z_c * z_r + il * MZt)
        T1 = 0.5j * om * ZZ - 0.5 * MZ + g * CS1
        S1 = (MP * (bm_r - iu * m_c) + p_r * C_MM.T + m_c * (dMP_r - iu * MP)
              - 2.0 * (bm_r - iu * m_c) * m_c * p_r)
        S2 = (MM * (bp_r - iu * p_c) + m_r * C_PM.T + m_c * (dPM_r - iu * PM)
              - 2.0 * (bp_r - iu * p_c) * m_c * m_r + 0.5 * iu * (m_r - MZt))
        T2 = 1j * om * (MM - MP) - (m_c + MZ) - 2.0 * g * (S1 + S2)
        dMZ = T1 + T2 - 2.0 * g * MZt

        # ⟨σᶻσᶻ⟩, valid for i < j; the two site-sums are mutual conjugates
        Sum1 = PZ * bm_c + z_r * dMP_c + p_c * C_MZ - 2.0 * bm_c * p_c * z_r
        Sum1p = (ZP * (bm_r - m_c) + p_r * C_MZ.T + z_c * (dMP_r - MP)
                 - 2.0 * (bm_r - m_c) * z_c * p_r)
        dZZ = (-2.0 * om * (MZ.imag + MZt.imag) - (z_c + z_r + 2.0 * ZZ)
               - 4.0 * g * (Sum1.real + Sum1p.real) + 4.0 * g * MP.real)

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


def _factorized_state(m: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Product state with the given singles (pair cumulants all zero)."""
    MM = np.outer(m, m)
    MP = np.outer(m, np.conj(m))
    MZ = np.outer(m, z)
    ZZ = np.outer(z, z)
    return _pack(m, z, MM, MP, MZ, ZZ)


def _warm_start(params: ModelParams, n: int) -> np.ndarray:
    """Factorized mean-field steady state of the n-site prefix: the resonant
    UWM cascade fixed point in closed form, so Newton only has to build up
    the pair cumulants."""
    fp = uwm_cascade_fixed_point(2.0 * params.rabi ** 2, params.beta, n)
    return _factorized_state(fp.sigma_minus, fp.sigma_z)


def _physical(y: np.ndarray, n: int, slack: float = 1e-6) -> bool:
    m, z, MM, MP, MZ, ZZ = _unpack(y, n)
    if np.max(np.abs(z)) > 1.0 + slack or np.max(np.abs(m)) > 0.5 + slack:
        return False
    for A in (MM, MP, MZ, ZZ):
        if np.max(np.abs(A)) > 1.0 + slack:
            return False
    return True


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


def solve_ce2(params: ModelParams, n: Optional[int] = None,
              opts: Optional[SolverOptions] = None,
              strategy: str = "simultaneous") -> CumulantSolution:
    """CE2 steady state of the cascaded chain.

    `n` defaults to params.n_emitters (pass a smaller value to solve a
    chain prefix).  The CE2 steady state is unique, so nothing is
    time-integrated: of `opts` only `steady_state_residual` is read, the
    max-norm residual every Newton solve must reach.  Strategies:
    "simultaneous" Newton-solves the whole packed moment system from the
    mean-field warm start (fast, vectorized); "blocks" sweeps left to
    right, freezing upstream sites and solving each site's block, which is
    affine in its own moments, from the ground state.  The cascade makes
    the two exactly equivalent at steady state.  A miss raises
    NonConvergence naming the cell; a failed block also carries its site
    index.  Both end in the shared round-off finish.  Detuned chains are
    not supported here (the sweeps that need CE2 are all on resonance).
    """
    n = params.n_emitters if n is None else int(n)
    if n > CE2_MAX_SITES:
        raise DimensionCap(f"CE2 capped at n = {CE2_MAX_SITES} (got {n})")
    if n < 1:
        raise ValueError("n must be >= 1")
    if params.detuning != 0.0:
        raise ValueError("CE2 solver supports resonant drive only")

    # bookkeeping contract: the packed state holds exactly the complex
    # moment count Σ_{k≤2} 3^k·C(n,k) (conjugation halves pairs, σᶻ is real —
    # the two reductions cancel in the count)
    assert _layout(n).size == 3 * math.comb(n, 1) + 9 * math.comb(n, 2)

    opts = opts or SolverOptions()
    rhs = build_rhs(params, n)

    if strategy == "simultaneous":
        y = _solve_simultaneous(rhs, params, n, opts)
    elif strategy == "blocks":
        target = opts.steady_state_residual
        y = _ground_state(n)
        for k in range(n):
            idx = _block_indices(n, k)

            def block(yb):
                y[idx] = yb
                return rhs(0.0, y)[idx]

            y[idx], residual = newton_finish(block, y[idx], lambda v: True,
                                             f_tol=0.5 * target)
            if residual > target:
                raise NonConvergence(
                    f"CE2 block for site {k + 1} not solved at "
                    f"{_cell(params, n)}: residual {residual:.2e}", site=k + 1)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    y, residual = newton_finish(lambda v: rhs(0.0, v), y, small_move(y))
    m, z, MM, MP, MZ, ZZ = _unpack(y, n)
    s0 = 2.0 * params.rabi ** 2
    return CumulantSolution(sigma_minus=m, sigma_z=z, mm=MM, mp=MP, mz=MZ,
                            zz=ZZ, residual=residual, beta=params.beta, s0=s0)


def _solve_simultaneous(rhs, params: ModelParams, n: int,
                        opts: SolverOptions) -> np.ndarray:
    """Whole-system steady state: one Newton–Krylov solve (physical roots
    only) from the factorized mean-field warm start to half the
    steady-state tolerance.  The steady state is unique, so there is no
    basin to integrate into first; a miss raises NonConvergence naming the
    cell and the residual."""
    target = opts.steady_state_residual
    y, residual = newton_finish(lambda v: rhs(0.0, v), _warm_start(params, n),
                                lambda v: _physical(v, n), f_tol=0.5 * target)
    if residual > target:
        raise NonConvergence(f"CE2 steady state not reached at {_cell(params, n)}: "
                             f"residual {residual:.2e} after Newton from the "
                             f"mean-field warm start")
    return y


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
