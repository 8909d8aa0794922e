"""Mean-field steady states of the four chain models.

The factorized equations of motion for every model are

    d⟨σ⁻_i⟩/dt = i α_i ⟨σᶻ_i⟩ + (iΔ_i − Γ_tot/2) ⟨σ⁻_i⟩
    d⟨σᶻ_i⟩/dt = −4 Im(α_i* ⟨σ⁻_i⟩) − Γ_tot (1 + ⟨σᶻ_i⟩)

with all model structure in the effective drive α_i:

    UWM   α_i = Ω/2 − i(Γ₁D/2) Σ_{j<i} ⟨σ⁻_j⟩
    EAM   … plus backward term Σ_{j>i} e^{−2(ηπ)²(j−i)} ⟨σ⁻_j⟩
    BWM   … plus backward term Σ_{j>i} e^{2ik₀(z_j−z_i)} ⟨σ⁻_j⟩  (spiral gauge)
    DM    α_i = Ω/2 − i(Γ₁D/2) Σ_{j≠i} ⟨σ⁻_j⟩   (= (N−1)⟨σ⁻⟩ when uniform)

All drive sums are evaluated in O(N): forward sums are exclusive cumulative
sums, and each backward sum is the first-order linear recurrence of the
model's left channel (`params.left_channel`; BWM phases factorize as
u_j ū_i with u_j = e^{4πi z_j}, positions in λ), solved as a unit
upper-bidiagonal system by the BLAS banded triangular solve (`ztbsv`).
The same recurrences, with the prefix and suffix sums as unknowns, make the
exact Jacobian solve of every Newton step one O(N) banded LU, written in
`dgbsv`'s band storage one band row per run of blocks (`_make_solve`).

A resonant chain (no site detunings) with a real left channel (c, v, w)
has a real sector.  The map T: ⟨σ⁻⟩ → −⟨σ⁻⟩* commutes with its flow, as
T(ρ) = PρᵀP commutes with the master equation under the same condition
(`exact._parity_symmetric`; Buča & Prosen, NJP 14, 073007 (2012)), and
the ground state is T-invariant.  So the continuation from it never leaves
⟨σ⁻_i⟩ = i v_i with v_i real, where every drive α_i is real.  On that
sector, 2N reals (v, z), the Jacobian solve is one tridiagonal LU
(`dgtsv`) on 2N unknowns (`_sector_system`).  In practice this is the
resonant EAM: uniform DM and resonant UWM have their own one-site and
closed-form paths, and the BWM's phases are complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg.blas import ztbsv
from scipy.linalg.lapack import dgbsv, dgtsv

from .params import (EmitterChain, ModelParams, left_channel,
                     output_saturations, site_detunings)
from .steady import RampSpec, SolverOptions, newton_step, pseudo_transient

__all__ = [
    "MeanFieldSolution", "FieldObservables",
    "effective_drive", "solve_steady_state", "field_observables",
    "uwm_cascade_fixed_point", "solve_collective",
]


@dataclass(frozen=True)
class MeanFieldSolution:
    sigma_minus: np.ndarray  # ⟨σ⁻_i⟩, complex
    sigma_z: np.ndarray      # ⟨σᶻ_i⟩, real
    alpha: np.ndarray        # effective drives α_i at the final state
    residual: float          # max-norm of the RHS at the final state
    model_tag: str
    path: str                # "collective", "cascade", "sector" or "band"

    def bloch_norm(self) -> np.ndarray:
        """4|⟨σ⁻⟩|² + ⟨σᶻ⟩² per site (≤ 1 for physical states)."""
        return 4.0 * np.abs(self.sigma_minus) ** 2 + self.sigma_z ** 2


@dataclass(frozen=True)
class FieldObservables:
    s_out_right: float
    s_out_left: float


# --- effective drives ------------------------------------------------------


class _DrivePlan:
    """Per-solve precomputation for O(N) drive evaluation of a chain.

    A chain model's drive is α_i = Ω/2 − i g (F_i + w_i B_i), g = Γ₁D/2,
    with the forward prefix sum F_{i+1} = F_i + m_i, F_0 = 0, and the
    backward suffix sum B_{i−1} = c (B_i + v_i m_i), B_{N−1} = 0, where
    (c, v, w) is the model's left channel (`params.left_channel`).  The
    UWM, which has none, takes c = 0: no backward sum.  A DM whose sites
    are all alike is solved as one site instead (`_collective_system`).
    """

    def __init__(self, model_tag: str, params: ModelParams,
                 chain: Optional[EmitterChain]):
        channel = left_channel(model_tag, params, chain)
        self.tag = model_tag
        self.n = params.n_emitters
        self.g = params.gamma_1d / 2.0  # Γ₁D/2
        self.c, self.v, self.w = channel or (0.0, 0.0, 0.0)
        # superdiagonal −c of the unit upper-bidiagonal band (the diagonal
        # row is not read: ztbsv runs with diag=1)
        self.band = np.full((2, self.n), -self.c, dtype=complex)

    def alpha(self, m: np.ndarray, omega: float) -> np.ndarray:
        base = 0.5 * omega
        if self.tag == "DM":
            return base - 1j * self.g * (np.sum(m) - m)
        fwd = np.cumsum(m)
        fwd = np.concatenate(([0.0 + 0.0j], fwd[:-1]))  # Σ_{j<i}
        if self.c == 0.0:  # no left channel (UWM, or an EAM whose r underflows)
            return base - 1j * self.g * fwd
        # B_i = c(B_{i+1} + v_{i+1} m_{i+1}) as the bidiagonal solve
        # B_i − c B_{i+1} = c v_{i+1} m_{i+1}
        bwd = np.zeros(self.n, dtype=complex)
        bwd[:-1] = (self.c * self.v * m)[1:]
        bwd = ztbsv(1, self.band, bwd, diag=1, overwrite_x=1)
        return base - 1j * self.g * (fwd + self.w * bwd)


def effective_drive(model_tag: str, params: ModelParams,
                    chain: Optional[EmitterChain],
                    sigma_minus: np.ndarray) -> np.ndarray:
    """α_i for the given model at drive Ω = params.rabi."""
    m = np.asarray(sigma_minus, dtype=complex)
    if m.shape != (params.n_emitters,):
        raise ValueError("sigma_minus must have length n_emitters")
    return _DrivePlan(model_tag, params, chain).alpha(m, params.rabi)


# --- steady-state solve -----------------------------------------------------


def _pack(m: np.ndarray, z: np.ndarray) -> np.ndarray:
    return np.concatenate((m.real, m.imag, z))


def _unpack(y: np.ndarray, n: int):
    return y[:n] + 1j * y[n:2 * n], y[2 * n:]


def _bloch(m, z, a, detunings):
    """The Bloch equations of each site at drive `a`, (dm/dt, dz/dt), on
    arrays of sites or on one site's Python scalars (see `_site_maps`)."""
    dm = 1j * a * z - 0.5 * m
    if detunings is not None:
        dm += 1j * detunings * m
    dz = -4.0 * (a.conjugate() * m).imag - (1.0 + z)
    return dm, dz


def _make_rhs(plan: _DrivePlan, detunings: Optional[np.ndarray]):
    n = plan.n

    def rhs(y, omega):
        m, z = _unpack(y, n)
        dm, dz = _bloch(m, z, plan.alpha(m, omega), detunings)
        return np.concatenate((dm.real, dm.imag, dz))

    return rhs


def _site_maps(m, z, a, detunings, delta, r_m, r_z):
    """Closed-form solve of each site's backward-Euler block.

    The block (I/δ − J) x = r of site i, with its drive perturbation dα_i
    held as a parameter, is 3×3 real in (Re dm_i, Im dm_i, dz_i); r comes
    unpacked into its complex and real parts (r_m, r_z).  Writing
    a real-linear map of a complex number as x ↦ P x + Q x̄, eliminating
    dz_i leaves M dm_i = K dα_i + c with M = (κ + 2|α|²/ε, −2α²/ε),
    K = (iz + 2αm̄/ε, −2αm/ε), c = r_m + iα r_z/ε, κ = 1/δ + ½ − iΔ and
    ε = 1/δ + 1.  Returns (tp, tq, q, dz): dm_i = tp dα_i + tq dᾱ_i + q_i,
    and dz(dα, dm) recovers the population part.  det M = |mp|² − |mq|² is
    formed as |κ|² + 4 Re(κ)|α|²/ε: on a diverging Newton iterate the two
    |α|⁴ terms of the squares swamp it.

    The chains call it on arrays of sites, the one-site collective system
    (`_collective_system`) on Python scalars: complex m, a and r_m, float
    z and r_z, and a float or None detuning.  Each operation means the
    same on both, so conjugates and parts are methods and every square is
    a product: a Python float raises OverflowError from `**` where an
    array returns inf.
    """
    inv = 1.0 / delta
    eps = inv + 1.0
    kap = inv + 0.5 if detunings is None else inv + 0.5 - 1j * detunings
    a2 = a.real * a.real + a.imag * a.imag
    mp, mq = kap + 2.0 * a2 / eps, -2.0 * a * a / eps
    # ≥ Re(κ)² > 0
    norm = kap.real * kap.real + kap.imag * kap.imag + 4.0 * kap.real * a2 / eps
    ip, iq = mp.conjugate() / norm, -mq / norm    # M⁻¹
    kp, kq = 1j * z + 2.0 * a * m.conjugate() / eps, -2.0 * a * m / eps
    tp = ip * kp + iq * kq.conjugate()
    tq = ip * kq + iq * kp.conjugate()
    c = r_m + 1j * a * r_z / eps
    q = ip * c + iq * c.conjugate()

    def dz(da, dm):
        return (r_z - 4.0 * (da.conjugate() * m).imag
                - 4.0 * (a.conjugate() * dm).imag) / eps

    return tp, tq, q, dz


def _make_solve(plan: _DrivePlan, detunings: Optional[np.ndarray]):
    """Exact solve of (I/δ − J(y)) x = r for the chain RHS, in O(N).

    With each site block solved in closed form (`_site_maps`), dm_i is a
    real-linear map of (dF_i, dB_i), the increments of the drive's prefix
    and suffix sums (`_DrivePlan`), and their recurrences become a 4N real
    system in the unknowns (dF_i, dB_i), stored site by site.  Each
    recurrence row spans six columns; placing the rows of F_{i+1} and
    B_{i−1} next to site i's unknowns gives bandwidth 3 on either side.
    A run of 2×2 blocks sits at a fixed rows − cols, so each of its entries
    is one band row of `dgbsv`'s storage (a[i, j] at ab[6 + i − j, j], rows
    0–2 for the fill-in) at column stride 4, and one banded LU with partial
    pivoting solves it.
    """
    n, g = plan.n, plan.g
    c, v, w = plan.c, plan.v, plan.w
    cv = np.broadcast_to(c * v, (n,))[1:]
    gw = -1j * g * np.broadcast_to(w, (n,))
    end = 4 * n - 4  # the last site's first column

    def put(ab, diff, start, stop, p, q):
        # the real 2×2 block of x ↦ p x + q x̄ at rows − cols = diff, for
        # the sites whose first block column runs start, start + 4, … < stop
        for dr, dc, op, x, y in ((0, 0, np.add, p.real, q.real),
                                 (0, 1, np.subtract, q.imag, p.imag),
                                 (1, 0, np.add, p.imag, q.imag),
                                 (1, 1, np.subtract, p.real, q.real)):
            op(x, y, out=ab[6 + diff + dr - dc, start + dc:stop:4])

    def solve(y, omega, delta, r):
        m, z = _unpack(y, n)
        a = plan.alpha(m, omega)
        tp, tq, q, dz = _site_maps(m, z, a, detunings, delta, *_unpack(r, n))
        # dm_i = A_i dF_i + W_i dB_i + q_i as (P, Q) pairs
        ap, aq = -1j * g * tp, 1j * g * tq
        wp, wq = gw * tp, np.conj(gw) * tq
        ab, rhs = np.zeros((10, 4 * n), order="F"), np.zeros(4 * n)
        # identity: F_0, B_{N−1} on the diagonal, F_i 2 rows above, B_i 2 below
        ab[6, :2] = ab[6, end + 2:] = 1.0
        ab[4, 4::4] = ab[4, 5::4] = 1.0
        ab[8, 2:end:4] = ab[8, 3:end:4] = 1.0
        # dF_i − (1 + A_{i−1}) dF_{i−1} − W_{i−1} dB_{i−1} = q_{i−1}
        put(ab, 2, 0, end, -1.0 - ap[:-1], -aq[:-1])
        put(ab, 0, 2, end, -wp[:-1], -wq[:-1])
        rhs[2:end:4], rhs[3:end:4] = q[:-1].real, q[:-1].imag
        # dB_i − c dB_{i+1} − cv_{i+1} (A dF + W dB)_{i+1} = cv_{i+1} q_{i+1}
        put(ab, 0, 4, None, -cv * ap[1:], -cv * aq[1:])
        put(ab, -2, 6, None, -c - cv * wp[1:], -cv * wq[1:])
        back = cv * q[1:]
        rhs[4::4], rhs[5::4] = back.real, back.imag
        # a non-finite system gives a non-finite x, which the caller
        # refuses as it refuses a singular one
        _, _, x, info = dgbsv(3, 3, ab, rhs, overwrite_ab=1, overwrite_b=1)
        if info > 0:
            raise np.linalg.LinAlgError(f"singular band: U({info}, {info}) = 0")
        if info < 0:
            raise ValueError(f"dgbsv: illegal value in argument {-info}")
        da = -1j * g * ((x[0::4] + 1j * x[1::4]) + w * (x[2::4] + 1j * x[3::4]))
        dm = tp * da + tq * np.conj(da) + q
        return np.concatenate((dm.real, dm.imag, dz(da, dm)))

    return solve


def _sector_system(plan: _DrivePlan):
    """The RHS and the exact solve of (I/δ − J(y)) x = r of a resonant
    chain with a real left channel on its real sector ⟨σ⁻⟩ = i v: the
    state y = (v, z) is 2N reals, and so are r and x.

    Both state their equations through `plan.alpha`, `_bloch` and
    `_site_maps` on m = i v, as the band path does.  There every drive is
    real, so a real dα_i gives dv_i = Im(tp + tq)_i dα_i + Im q_i, and
    dα_i = g (df_i + w_i db_i) in the real increments dF_i = i df_i and
    dB_i = i db_i of the prefix and suffix sums.  Their recurrences,
    interleaved f₀, b₀, f₁, b₁, …, are tridiagonal when the row of
    f_i sits at 2i − 1 (columns of f_{i−1}, b_{i−1}, f_i) and the row of
    b_i at 2i + 2 (columns of b_i, f_{i+1}, b_{i+1}), with f₀ = 0 and
    b_{N−1} = 0 in rows 0 and 2N − 1: one LU with partial pivoting
    (`dgtsv`) on 2N unknowns.
    """
    n, g = plan.n, plan.g
    c, w = plan.c, plan.w
    cv = np.broadcast_to(c * plan.v, (n,))[1:]

    def rhs(y, omega):
        m = 1j * y[:n]
        dm, dz = _bloch(m, y[n:], plan.alpha(m, omega), None)
        return np.concatenate((dm.imag, dz))

    def solve(y, omega, delta, r):
        m = 1j * y[:n]
        a = plan.alpha(m, omega)
        tp, tq, q, dz = _site_maps(m, y[n:], a, None, delta, 1j * r[:n],
                                   r[n:])
        # dm_i = t_i dα_i + q_i for a real dα_i, so dv_i = A_i df_i +
        # W_i db_i + Im q_i with A_i = g Im t_i and W_i = A_i w_i
        t, qv = tp + tq, q.imag
        ap = g * t.imag
        wp = ap * w
        dl, d, du = np.zeros(2 * n - 1), np.ones(2 * n), np.zeros(2 * n - 1)
        b = np.zeros(2 * n)
        # row 2i − 1: df_i − (1 + A_{i−1}) df_{i−1} − W_{i−1} db_{i−1} = q_{i−1}
        dl[0:-1:2] = -1.0 - ap[:-1]
        d[1:-1:2] = -wp[:-1]
        du[1::2] = 1.0
        b[1:-1:2] = qv[:-1]
        # row 2i + 2: db_i − c db_{i+1} − cv_{i+1} (A df + W db)_{i+1}
        # = cv_{i+1} q_{i+1}
        dl[1::2] = 1.0
        d[2::2] = -cv * ap[1:]
        du[2::2] = -c - cv * wp[1:]
        b[2::2] = cv * qv[1:]
        # a non-finite system gives a non-finite x, refused by the caller
        _, _, _, x, info = dgtsv(dl, d, du, b, overwrite_dl=1, overwrite_d=1,
                                 overwrite_du=1, overwrite_b=1)
        if info > 0:
            raise np.linalg.LinAlgError(f"singular tridiagonal: U({info}, "
                                        f"{info}) = 0")
        if info < 0:
            raise ValueError(f"dgtsv: illegal value in argument {-info}")
        da = g * (x[0::2] + w * x[1::2])
        dm = t * da + q
        return np.concatenate((dm.imag, dz(da, dm)))

    return rhs, solve


def _on_sector(plan: _DrivePlan, detunings: Optional[np.ndarray],
               initial: Optional[MeanFieldSolution]) -> bool:
    """Whether a chain solve stays on the real sector (`_sector_system`):
    resonant, with a real left channel, from the ground state or a warm
    start whose ⟨σ⁻⟩ is imaginary."""
    return (detunings is None and not np.iscomplexobj(plan.v)
            and not np.iscomplexobj(plan.w)
            and (initial is None or not np.any(initial.sigma_minus.real)))


# Γ_tot⁻¹ of drive ramp per quasi-static continuation step.  On 378
# collective cells across the bistable window (D = 16.5…80, up to 0.1% from
# each fold, ramps up and down over 400 Γ_tot⁻¹) steps of 12.5-50 matched
# the integrated ramp to 6e-14, while steps of 100 lost the branch on 6
# cells and a single step on 44: 10 leaves a fivefold margin.
_RAMP_STEP = 10.0


def _settle(rhs, solve, y0: np.ndarray, omega: float,
            ramp: Optional[RampSpec], cell: tuple):
    """Continue pseudo-transiently into the steady state at drive `omega`,
    then take one exact Newton step under the branch guard.  `solve` is
    the model's exact Jacobian solve, solve(y, omega, δ, r).

    With a `ramp`, the state is first continued quasi-statically along it:
    one pseudo-transient solve at each of the K drives s0_at(k·t_ramp/K),
    k = 0 … K − 1, K = ⌈t_ramp/_RAMP_STEP⌉, each warm-started from the
    last, before the settle at `omega`.  Stage k = 0 settles at s0_start;
    from the ground state at s₀ = 0 or from a finished warm start it
    returns at once.  Returns `newton_step`'s (y, residual).  A stage that
    runs out of steps raises NonConvergence("{model} {stage} not reached
    at {where}: residual …"), where `cell` is (model, where) and the stage
    is "ramp step k of K at s₀ = …" or "steady state".
    """
    model, where = cell

    def at(w):
        return (lambda y: rhs(y, w)), (lambda y, delta, r: solve(y, w, delta, r))

    y = y0
    if ramp is not None:
        k_steps = math.ceil(ramp.t_ramp / _RAMP_STEP)
        for k in range(k_steps):
            s0 = ramp.s0_at(k * ramp.t_ramp / k_steps)
            y = pseudo_transient(
                *at(math.sqrt(s0 / 2.0)), y, f"{model} ramp step {k} of "
                f"{k_steps} at s₀ = {s0:g} not reached at {where}")

    rhs0, solve0 = at(omega)
    y = pseudo_transient(rhs0, solve0, y,
                         f"{model} steady state not reached at {where}")
    return newton_step(rhs0, solve0, y)


def solve_steady_state(model_tag: str, params: ModelParams,
                       chain: Optional[EmitterChain] = None,
                       opts: Optional[SolverOptions] = None,
                       initial: Optional[MeanFieldSolution] = None,
                       ) -> MeanFieldSolution:
    """Mean-field steady state by pseudo-transient continuation, then a
    Newton finish.

    Starts from the ground state (⟨σ⁻⟩ = 0, ⟨σᶻ⟩ = −1) unless `initial`
    (warm start for branch continuation) is given, and follows the
    relaxation from there into its basin (`steady.pseudo_transient`), so a
    multistable model lands on the branch the dynamics selects.  A warm
    start of another length than N is refused (ValueError).
    `opts.ramp` first settles the state at s0_start, then continues it
    quasi-statically along the drive ramp s0_start → s0_end (see
    `RampSpec`); the returned solution then corresponds to drive
    ramp.s0_end, not params.rabi.  A DM whose sites share one detuning
    (`params.site_detunings`) is solved as its one-site collective system
    (as in `solve_collective`), broadcast to the N sites: a solve strategy,
    not another model.  A DM with per-site detunings takes the chain path
    with its (1, 1, 1) left channel.  Resonant UWM has a unique steady
    state and returns the cascade fixed point in closed form.  Any other
    resonant chain with a real left channel (c, v, w), in practice the
    EAM, is continued on its real sector ⟨σ⁻⟩ = i v (`_sector_system`),
    which the flow from the ground state never leaves: the mean-field
    form of the transpose-parity symmetry `exact._parity_symmetric`
    tests.  A warm start off that sector (Re⟨σ⁻⟩ ≠ 0 at some site), a
    detuned chain and the BWM take the band path (`_make_solve`).
    `path` on the result names which of the four ran: "collective",
    "cascade", "sector" or "band".
    A continuation that runs out of steps, on the ramp or at the final
    drive, is never continued past: it raises NonConvergence naming the
    model, N, β, the final s₀, the stage and the residual reached.  A
    returned solution has always reached `STEADY_RESIDUAL`.
    """
    opts = opts or SolverOptions()
    n = params.n_emitters
    omega_end = params.rabi
    if opts.ramp is not None:
        omega_end = math.sqrt(opts.ramp.s0_end / 2.0)
    cell = (model_tag, f"N = {n}, β = {params.beta:g}, "
                       f"s₀ = {2.0 * omega_end ** 2:g}")

    # built first: it checks the tag and the chain for every model, DM too
    plan = _DrivePlan(model_tag, params, chain)
    det = site_detunings(params, chain)
    if initial is not None and initial.sigma_minus.shape != (n,):
        raise ValueError(f"initial state has {initial.sigma_minus.size} "
                         f"sites but n_emitters = {n}")

    if model_tag == "DM" and (det is None or np.ptp(det) == 0.0):
        # every site alike: one collective site with b = 2β(N−1),
        # broadcast to N sites
        b = 2.0 * params.beta * (n - 1)
        y0 = np.array([0.0, 0.0, -1.0])
        if initial is not None:
            y0 = _pack(np.asarray(initial.sigma_minus[:1], dtype=complex),
                       np.asarray(initial.sigma_z[:1], dtype=float))
        y, residual = _settle(
            *_collective_system(b, None if det is None else det[0]), y0,
            float(omega_end), opts.ramp, cell)
        m, z = _unpack(y, 1)
        return MeanFieldSolution(
            sigma_minus=np.repeat(m, n), sigma_z=np.repeat(z, n),
            alpha=np.repeat(0.5 * omega_end - 1j * (b / 2.0) * m, n),
            residual=residual, model_tag="DM", path="collective")

    if model_tag == "UWM" and det is None:
        path = "cascade"
        fp = uwm_cascade_fixed_point(2.0 * omega_end ** 2, params.beta, n)
        y = _pack(fp.sigma_minus, fp.sigma_z)
        residual = float(np.max(np.abs(_make_rhs(plan, None)(y, omega_end))))
        m, z = _unpack(y, n)
    elif _on_sector(plan, det, initial):
        path = "sector"
        if initial is not None:
            y0 = np.concatenate((np.asarray(initial.sigma_minus).imag,
                                 np.asarray(initial.sigma_z, dtype=float)))
        else:
            y0 = np.concatenate((np.zeros(n), -np.ones(n)))
        y, residual = _settle(*_sector_system(plan), y0, omega_end,
                              opts.ramp, cell)
        m, z = np.zeros(n, dtype=complex), y[n:]
        m.imag = y[:n]  # Re⟨σ⁻⟩ = +0.0, as the band path leaves it
    else:
        path = "band"
        if initial is not None:
            y0 = _pack(np.asarray(initial.sigma_minus, dtype=complex),
                       np.asarray(initial.sigma_z, dtype=float))
        else:
            y0 = _pack(np.zeros(n, dtype=complex), -np.ones(n))
        y, residual = _settle(_make_rhs(plan, det), _make_solve(plan, det),
                              y0, omega_end, opts.ramp, cell)
        m, z = _unpack(y, n)

    alpha = plan.alpha(m, omega_end)
    return MeanFieldSolution(sigma_minus=m, sigma_z=z.copy(), alpha=alpha,
                             residual=residual, model_tag=model_tag,
                             path=path)


# --- collective (permutation-symmetric) reduction ---------------------------


def _collective_system(b: float, detuning: Optional[float]):
    """The RHS and the exact solve of (I/δ − J(y)) x = r of the one-site
    collective system α = Ω/2 − i g⟨σ⁻⟩, g = b/2: DM with every site
    equal at b = 2β(N−1), on Python scalars.

    b, the detuning and the drive Ω are taken as Python floats, and a
    detuning of 0 (or None) is none.  Each unpacks the state (Re m, Im m,
    z) into one complex and one float and states its equations through
    `_bloch` and `_site_maps`, as the chains do on arrays; the solve
    closes the site block by its own feedback dα = −i g dm.  A zero
    determinant of that 2×2 real solve raises LinAlgError, as a singular
    chain band does: a Python scalar would raise ZeroDivisionError where
    an array returns inf."""
    g = float(b) / 2.0
    detuning = float(detuning) if detuning else None

    def alpha(m, omega):
        return 0.5 * omega - 1j * g * m

    def unpack(v):
        re, im, z = v.tolist()
        return complex(re, im), z

    def rhs(y, omega):
        m, z = unpack(y)
        dm, dz = _bloch(m, z, alpha(m, omega), detuning)
        return np.array((dm.real, dm.imag, dz))

    def solve(y, omega, delta, r):
        m, z = unpack(y)
        tp, tq, q, dz = _site_maps(m, z, alpha(m, omega), detuning, delta,
                                   *unpack(r))
        # (1 − T∘(−ig)) dm = q, inverted as a map x ↦ p x + q x̄
        lp, lq = 1.0 + 1j * g * tp, -1j * g * tq
        det = (lp.real * lp.real + lp.imag * lp.imag
               - (lq.real * lq.real + lq.imag * lq.imag))
        if det == 0.0:
            raise np.linalg.LinAlgError("singular one-site block")
        dm = (lp.conjugate() * q - lq * q.conjugate()) / det
        return np.array((dm.real, dm.imag, dz(-1j * g * dm, dm)))

    return rhs, solve


def solve_collective(feedback: float, s0: float,
                     s0_start: Optional[float] = None):
    """Steady state of the one-site collective system α = Ω/2 − i(b/2)⟨σ⁻⟩.

    `feedback` is b: 2β(N−1) for the N-emitter permutation-symmetric model,
    or D/2 in the thermodynamic parametrization by total optical depth.
    With s0_start given, the system is continued quasi-statically along
    the drive ramp s0_start → s0 over 400 Γ_tot⁻¹ from the ground state
    settled at s0_start (branch continuation in the bistable window, see
    `RampSpec`); this is the DM branch of `solve_steady_state` with that
    ramp.  Returns (⟨σ⁻⟩, ⟨σᶻ⟩); a miss at any stage (a ramp step, the
    first of which is the settle at s0_start, or the final settle) raises
    NonConvergence naming the stage, b, s₀ and s0_start.
    """
    ramp = None if s0_start is None else RampSpec(s0_start, s0, 400.0)
    start = "none" if s0_start is None else f"{s0_start:g}"
    y, _ = _settle(
        *_collective_system(feedback, None), np.array([0.0, 0.0, -1.0]),
        math.sqrt(s0 / 2.0), ramp,
        ("collective", f"b = {feedback:g}, s₀ = {s0:g}, s0_start = {start}"))
    return y[0] + 1j * y[1], y[2]


# --- output fields ----------------------------------------------------------


def field_observables(solution: MeanFieldSolution, params: ModelParams,
                      chain: Optional[EmitterChain] = None) -> FieldObservables:
    """Coherent output saturations from the input–output relations
    (`params.output_saturations`): s = 8|α|²/Γ_tot², so an empty chain
    returns s₀ on the right."""
    # params.rabi must match the drive the solution was computed at; after a
    # ramp, pass params rebuilt with rabi = √(s0_end/2).
    s_right, s_left = output_saturations(solution.model_tag, params, chain,
                                         solution.sigma_minus)
    return FieldObservables(s_out_right=s_right, s_out_left=s_left)


# --- exact cascade ----------------------------------------------------------


@dataclass(frozen=True)
class CascadeFixedPoint:
    alpha: np.ndarray        # real > 0: the drive never acquires a phase
    sigma_minus: np.ndarray  # −2iα_i/(1+s_i)
    sigma_z: np.ndarray      # −1/(1+s_i)
    s: np.ndarray            # 8α_i²


def uwm_cascade_fixed_point(s0: float, beta: float, n: int) -> CascadeFixedPoint:
    """Exact cascaded mean-field fixed point: α_{i+1} = α_i(1 − 2β/(1+s_i)).

    Each emitter sits in the single-site resonance-fluorescence steady state
    of its local drive; the drive update follows from inserting ⟨σ⁻_i⟩ into
    the forward sum.  This is the unique resonant UWM steady state, which
    `solve_steady_state` returns directly; the test suite checks it against
    the integrated equations of motion.
    """
    a = np.empty(n)
    s = np.empty(n)
    cur = math.sqrt(s0 / 8.0)
    for i in range(n):
        a[i] = cur
        s[i] = 8.0 * cur * cur
        cur = cur * (1.0 - 2.0 * beta / (1.0 + s[i]))
    z = -1.0 / (1.0 + s)
    m = -2j * a / (1.0 + s)
    return CascadeFixedPoint(alpha=a, sigma_minus=m, sigma_z=z, s=s)
