"""The shared steady-state engine: pseudo-transient continuation against the
integration and the Newton–Krylov steps it replaced, the structured
Jacobian solves against dense Jacobians, round-off residuals, the
closed-form UWM path, and branch selection in the Dicke window by
quasi-static ramps against the integrated ramps they replaced."""

import logging

import numpy as np
import pytest
from scipy import optimize

from cascadia import (ModelParams, RampSpec, SolverOptions, build_chain,
                      dicke_bistability_window, dicke_steady_states,
                      effective_drive, solve_steady_state,
                      uwm_cascade_fixed_point)
from cascadia.errors import NonConvergence
from cascadia.meanfield import (_bloch, _collective_system, _DrivePlan,
                                _make_rhs, _make_solve, _sector_system,
                                _settle, _site_maps, solve_collective)
from cascadia.steady import (STEADY_RESIDUAL, _implicit_step, newton_step,
                             pseudo_transient)

from _banded_reference import make_solve as reference_solve
from _time_integration import (IntegrationOptions, integrate_ramp,
                               integrate_to_steady, newton_finish, small_move)


def _unpack(y, n):
    return y[:n] + 1j * y[n:2 * n], y[2 * n:]


def _rhs(model, params, chain):
    """Mean-field RHS on the packed (Re m, Im m, z) state, rebuilt from the
    public effective drive rather than the solver's own closure."""
    n = params.n_emitters

    def rhs(y):
        m, z = _unpack(y, n)
        a = effective_drive(model, params, chain, m)
        dm = 1j * a * z - 0.5 * m
        dz = -4.0 * np.imag(np.conj(a) * m) - (1.0 + z)
        return np.concatenate((dm.real, dm.imag, dz))

    return rhs


def _solve(model, params, chain):
    """The solver's exact Jacobian solve, (I/δ − J(y)) x = r, at drive
    params.rabi."""
    solve = _make_solve(_DrivePlan(model, params, chain), None)
    return lambda y, delta, r: solve(y, params.rabi, delta, r)


def _residual(model, params, chain, sol):
    y = np.concatenate((sol.sigma_minus.real, sol.sigma_minus.imag,
                        sol.sigma_z))
    return float(np.max(np.abs(_rhs(model, params, chain)(y))))


# --- pseudo-transient continuation against the integrated path ------------------


def _integrated_settle(rhs, y0):
    """The path pseudo-transient continuation replaced: integrate to the
    basin, then the Newton finish under the branch guard."""
    res = integrate_to_steady(lambda t, y: rhs(y), y0, IntegrationOptions())
    assert res.converged
    y, _ = newton_finish(rhs, res.y, small_move(res.y))
    return y


_BRAGG_FOLD = [("BWM", 1000, s0, 0.0) for s0 in (36.0, 37.0, 38.0, 40.0)]
_LONG_CHAINS = [(m, 2000, s0, 0.05) for m in ("BWM", "EAM") for s0 in (1.8, 75.0)]


def _assert_continuation_matches_integration(model, p, chain):
    n = p.n_emitters
    sol = solve_steady_state(model, p, chain)
    y = _integrated_settle(_rhs(model, p, chain),
                           np.concatenate((np.zeros(2 * n), -np.ones(n))))
    m, z = _unpack(y, n)
    assert np.max(np.abs(sol.sigma_minus - m)) <= 1e-10
    assert np.max(np.abs(sol.sigma_z - z)) <= 1e-10


@pytest.mark.parametrize("model,n,s0,eta", _BRAGG_FOLD + _LONG_CHAINS)
def test_continuation_matches_integration(model, n, s0, eta):
    # the Bragg cells sit just past the collective fold s₊ ≈ 37.6, where a
    # residual-monotone step control stalls
    p = ModelParams.from_beta(beta=0.005, s0=s0, n_emitters=n, eta=eta,
                              seed=3)
    chain = build_chain(p) if model == "BWM" else None
    _assert_continuation_matches_integration(model, p, chain)


@pytest.mark.xfail(strict=True, reason=(
    "continuation lands on another branch than the dynamics: mean σᶻ "
    "−0.2329 at residual 4.4e-15, against −0.5194 integrated from the "
    "ground state (max |Δσᶻ| = 0.357)"))
def test_continuation_follows_the_dynamics_on_a_nearly_ordered_chain():
    p = ModelParams.from_beta(beta=0.005, s0=100.0, n_emitters=2000,
                              eta=0.001, seed=505767740)
    _assert_continuation_matches_integration("BWM", p,
                                             build_chain(p, stream=3))


def _krylov_pseudo_transient(fun, y0):
    """The ΨTC loop the exact Newton steps replaced, copied with its step
    control unchanged: each backward-Euler step is solved by matrix-free
    Newton–Krylov (lgmres).  Returns (y, converged)."""
    y = np.asarray(y0, dtype=float).copy()
    residual = float(np.max(np.abs(fun(y))))
    t, delta = 0.0, 1.0
    for _ in range(200):
        f_tol = max(1e-4 * residual, 1e-13)
        if residual <= f_tol:  # at the floor: nothing left to solve
            break
        yk, rk, dk = y, residual, delta

        def step(v):
            return (v - yk) / dk - fun(v)

        try:
            ynew = optimize.newton_krylov(step, yk, method="lgmres",
                                          f_tol=f_tol, maxiter=8)
        except optimize.NoConvergence:
            delta /= 4.0
            continue
        rnew = (float(np.max(np.abs(fun(ynew))))
                if np.all(np.isfinite(ynew)) else np.inf)
        if not np.isfinite(rnew):
            delta /= 4.0
            continue
        y, residual, t = ynew, rnew, t + dk
        if residual < STEADY_RESIDUAL and residual > 0.5 * rk:
            break
        if residual >= rk:
            delta *= 2.0
        elif residual > 0.0:  # an exact 0.0 stops at the top of the loop
            delta *= min(max(rk / residual, 2.0), 16.0)
    return y, residual < STEADY_RESIDUAL


@pytest.mark.parametrize("model,n,s0,eta", _BRAGG_FOLD + _LONG_CHAINS)
def test_exact_newton_steps_match_krylov_steps(model, n, s0, eta):
    p = ModelParams.from_beta(beta=0.005, s0=s0, n_emitters=n, eta=eta,
                              seed=3)
    chain = build_chain(p) if model == "BWM" else None
    sol = solve_steady_state(model, p, chain)
    rhs = _rhs(model, p, chain)
    y, converged = _krylov_pseudo_transient(
        rhs, np.concatenate((np.zeros(2 * n), -np.ones(n))))
    assert converged
    y, _ = newton_finish(rhs, y, small_move(y))
    m, z = _unpack(y, n)
    assert np.max(np.abs(sol.sigma_minus - m)) <= 1e-10
    assert np.max(np.abs(sol.sigma_z - z)) <= 1e-10


# --- the structured Jacobian solve against a dense Jacobian -------------------


def _fd_jacobian(fun, y, h=1e-5):
    # every RHS is quadratic in the state, so central differences carry
    # no truncation error, only rounding
    return np.array([(fun(y + h * e) - fun(y - h * e)) / (2.0 * h)
                     for e in np.eye(y.size)]).T


def _assert_solves(fun, solve, y):
    jac = _fd_jacobian(fun, y)
    r = np.random.default_rng(5).normal(size=y.size)
    for delta in (0.7, np.inf):
        ref = np.linalg.solve(np.eye(y.size) / delta - jac, r)
        x = solve(y, delta, r)
        assert np.max(np.abs(x - ref)) <= 1e-9 * np.max(np.abs(ref))


def _chain_case(model, n, eta, xi, detuning):
    """Params, chain, drive plan and site detunings of a chain solve: BWM
    and DM draw a chain, with per-site detunings of spread ξ; `detuning`
    shifts every site."""
    p = ModelParams.from_beta(beta=0.1, s0=5.0, n_emitters=n, eta=eta,
                              seed=2, detuning=detuning)
    chain = build_chain(p, xi_delta=xi) if model in ("BWM", "DM") else None
    plan = _DrivePlan(model, p, chain)
    if model == "EAM" and eta > 1.0:
        assert plan.c == 0.0  # the kernel underflows: no backward channel
    det = chain.detunings if xi > 0.0 else None
    if detuning != 0.0:
        det = np.full(n, detuning)
    rng = np.random.default_rng(1)
    y = np.concatenate((0.3 * rng.normal(size=2 * n),
                        -0.5 + 0.3 * rng.normal(size=n)))
    return p, chain, plan, det, y


_CHAIN_CASES = [("BWM", 0.1, 0.0, 0.0), ("BWM", 0.1, 0.8, 0.0),
                ("EAM", 0.1, 0.0, 0.0), ("EAM", 20.0, 0.0, 0.0),
                ("UWM", 0.0, 0.0, 0.6), ("DM", 0.0, 0.8, 0.0)]


def _assert_chain_solve(model, n, eta, xi, detuning):
    # the detuned DM runs the chain path with its (1, 1, 1) channel, while
    # fun takes the public all-to-all drive
    p, chain, plan, det, y = _chain_case(model, n, eta, xi, detuning)

    def fun(v):
        m, z = _unpack(v, n)
        a = effective_drive(model, p, chain, m)
        dm = 1j * a * z - 0.5 * m
        if det is not None:
            dm += 1j * det * m
        dz = -4.0 * np.imag(np.conj(a) * m) - (1.0 + z)
        return np.concatenate((dm.real, dm.imag, dz))

    solve = _make_solve(plan, det)
    _assert_solves(fun, lambda v, d, r: solve(v, p.rabi, d, r), y)


@pytest.mark.parametrize("model,eta,xi,detuning", _CHAIN_CASES)
def test_chain_solve_matches_dense_jacobian(model, eta, xi, detuning):
    _assert_chain_solve(model, 7, eta, xi, detuning)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("model,eta,xi,detuning", _CHAIN_CASES)
def test_short_chain_solve_matches_dense_jacobian(model, eta, xi, detuning,
                                                  n):
    # the first and last sites of every strided run of the band
    _assert_chain_solve(model, n, eta, xi, detuning)


@pytest.mark.parametrize("delta", [0.7, 4.0, np.inf])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 200])
@pytest.mark.parametrize("model,eta,xi,detuning", _CHAIN_CASES)
def test_chain_solve_matches_the_fancy_index_assembly(model, eta, xi,
                                                      detuning, n, delta):
    # the band written in place in dgbsv's layout against the index-array
    # assembly and solve_banded it replaced: the same numbers reach the
    # same LAPACK routine, so the solves agree bit for bit
    p, _, plan, det, y = _chain_case(model, n, eta, xi, detuning)
    r = np.random.default_rng(n).normal(size=3 * n)
    x = _make_solve(plan, det)(y, p.rabi, delta, r)
    assert np.array_equal(x, reference_solve(plan, det)(y, p.rabi, delta, r))


def _assert_solve_status(model, p, chain, fun, solve, y, info, exc):
    # a LAPACK status: info > 0 (a zero pivot in U) is a singular solve,
    # which the continuation counts as a missed step and the finish
    # refuses; info < 0 (an illegal argument) is a defect and propagates
    with pytest.raises(exc):
        solve(y, p.rabi, 0.7, np.ones(y.size))
    at = lambda v, d, r: solve(v, p.rabi, d, r)
    if info > 0:
        assert np.array_equal(newton_step(fun, at, y)[0], y)
        with pytest.raises(NonConvergence, match=r"^singular: residual"):
            pseudo_transient(fun, at, y, "singular")
        with pytest.raises(NonConvergence,
                           match=rf"^{model} steady state not "):
            solve_steady_state(model, p, chain)
    else:
        with pytest.raises(ValueError, match="illegal"):
            newton_step(fun, at, y)
        with pytest.raises(ValueError, match="illegal"):
            solve_steady_state(model, p, chain)


@pytest.mark.parametrize("info,exc", [(5, np.linalg.LinAlgError),
                                      (-4, ValueError)])
def test_banded_solve_status(monkeypatch, info, exc):
    # dgbsv's status
    def status(kl, ku, ab, b, overwrite_ab=0, overwrite_b=0):
        return ab, np.zeros(b.size, dtype=np.int32), b, info

    monkeypatch.setattr("cascadia.meanfield.dgbsv", status)
    p, chain, plan, _, y = _chain_case("BWM", 7, 0.1, 0.0, 0.0)
    _assert_solve_status("BWM", p, chain, _rhs("BWM", p, chain),
                         _make_solve(plan, None), y, info, exc)


@pytest.mark.parametrize("info,exc", [(5, np.linalg.LinAlgError),
                                      (-4, ValueError)])
def test_tridiagonal_solve_status(monkeypatch, info, exc):
    # dgtsv's status on the resonant EAM's real sector, mapped as dgbsv's
    def status(dl, d, du, b, **overwrite):
        return dl, d, du, b, info

    monkeypatch.setattr("cascadia.meanfield.dgtsv", status)
    p, _, plan, _, y = _chain_case("EAM", 7, 0.1, 0.0, 0.0)
    rhs, solve = _sector_system(plan)
    _assert_solve_status("EAM", p, None, lambda v: rhs(v, p.rabi),
                         solve, y[7:], info, exc)


# --- the real sector of resonant chains with a real left channel -------------


@pytest.mark.parametrize("n", [1, 2, 3, 7])
@pytest.mark.parametrize("eta", [0.1, 20.0])
def test_sector_solve_matches_dense_jacobian(eta, n):
    # the sector's 2N-real tridiagonal solve against the dense Jacobian of
    # the public-drive RHS restricted to ⟨σ⁻⟩ = i v, which it never leaves
    p, _, plan, _, y = _chain_case("EAM", n, eta, 0.0, 0.0)
    full = _rhs("EAM", p, None)

    def fun(v):
        f = full(np.concatenate((np.zeros(n), v)))
        assert not np.any(f[:n])  # d Re⟨σ⁻⟩/dt = 0 on the sector
        return f[n:]

    _, solve = _sector_system(plan)
    _assert_solves(fun, lambda v, d, r: solve(v, p.rabi, d, r), y[n:])


def _band_settle(p, ramp=None):
    # the resonant EAM's band path from |g…g⟩: its packed state and drives
    n = p.n_emitters
    plan = _DrivePlan("EAM", p, None)
    y, _ = _settle(_make_rhs(plan, None), _make_solve(plan, None),
                   np.concatenate((np.zeros(2 * n), -np.ones(n))), p.rabi,
                   ramp, ("EAM", f"N = {n}"))
    return y, plan.alpha(y[:n] + 1j * y[n:2 * n], p.rabi)


def _assert_sector_matches_band(sol, y, alpha):
    n = sol.sigma_z.size
    assert sol.path == "sector" and sol.residual <= STEADY_RESIDUAL
    assert not np.any(sol.sigma_minus.real)
    assert not np.any(np.signbit(sol.sigma_minus.real))
    assert np.max(np.abs(sol.sigma_minus.imag - y[n:2 * n])) <= 1e-13
    assert np.max(np.abs(sol.sigma_z - y[2 * n:])) <= 1e-13
    assert np.max(np.abs(sol.alpha - alpha)) <= 1e-13


@pytest.mark.parametrize("eta", [0.001, 0.003, 0.01, 0.1, 20.0])
@pytest.mark.parametrize("n", [1, 2, 7, 200, 2000])
def test_sector_matches_the_band_path(n, eta):
    # the premise: from |g…g⟩ the band path itself keeps Re⟨σ⁻⟩ at +0.0
    # and the drive real on every site of a resonant EAM
    beta = 0.1 if n < 200 else 0.005
    for s0 in (0.5, 5.0, 50.0):
        p = ModelParams.from_beta(beta=beta, s0=s0, n_emitters=n, eta=eta)
        y, alpha = _band_settle(p)
        assert not np.any(y[:n]) and not np.any(np.signbit(y[:n]))
        assert not np.any(alpha.imag)
        _assert_sector_matches_band(solve_steady_state("EAM", p), y, alpha)


def test_sector_ramps_keep_their_branches():
    # N = 1000 at η = 0.001 is bistable at s₀ = 36 (the Bragg window is
    # s₀ ≈ 35.3…37.6): ramps up from 0 and down from 90 land on the two
    # branches, each the band path's
    p = ModelParams.from_beta(beta=0.005, s0=36.0, n_emitters=1000,
                              eta=0.001)
    z = []
    for start in (0.0, 90.0):
        ramp = RampSpec(start, 36.0, 400.0)
        sol = solve_steady_state("EAM", p, opts=SolverOptions(ramp=ramp))
        _assert_sector_matches_band(sol, *_band_settle(p, ramp))
        z.append(np.mean(sol.sigma_z))
    assert z[1] - z[0] > 0.3


@pytest.mark.parametrize("detuning", [0.0, 0.8])
def test_collective_solve_matches_dense_jacobian(detuning):
    b, omega = 7.0, 2.0

    def fun(v):
        m, z = v[0] + 1j * v[1], v[2]
        a = 0.5 * omega - 0.5j * b * m
        dm = 1j * a * z + (1j * detuning - 0.5) * m
        dz = -4.0 * (np.conj(a) * m).imag - (1.0 + z)
        return np.array([dm.real, dm.imag, dz])

    _, solve = _collective_system(b, detuning)
    _assert_solves(fun, lambda v, d, r: solve(v, omega, d, r),
                   np.array([0.1, -0.2, -0.4]))


def _random_sites(seed, n, detuned):
    rng = np.random.default_rng(seed)

    def cplx(scale):
        return scale * (rng.normal(size=n) + 1j * rng.normal(size=n))

    m, z, a = cplx(0.3), rng.uniform(-1.0, 1.0, n), cplx(2.0)
    det = rng.normal(0.0, 0.8, n) if detuned else None
    return m, z, a, det, cplx(1.0), rng.normal(size=n), cplx(0.1), cplx(0.1)


@pytest.mark.parametrize("delta", [0.7, np.inf])
@pytest.mark.parametrize("detuned", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_site_equations_on_scalars_match_arrays(seed, detuned, delta):
    # the chains evaluate the Bloch equations and the site block on arrays,
    # the one-site collective system on Python scalars: site i on scalars
    # must give element i of the array evaluation.  numpy's complex product
    # rounds differently from Python's, so they agree to rounding, relative
    # to each quantity's max-norm over the sites (tp is a difference of
    # larger products on strongly driven sites)
    m, z, a, det, r_m, r_z, da, dm = _random_sites(seed, 16, detuned)
    tp, tq, q, dz = _site_maps(m, z, a, det, delta, r_m, r_z)
    arrays = (tp, tq, q, dz(da, dm)) + _bloch(m, z, a, det)
    for i in range(m.size):
        det_i = None if det is None else float(det[i])
        *maps, dz_i = _site_maps(complex(m[i]), float(z[i]), complex(a[i]),
                                 det_i, delta, complex(r_m[i]), float(r_z[i]))
        scalars = (*maps, dz_i(complex(da[i]), complex(dm[i])),
                   *_bloch(complex(m[i]), float(z[i]), complex(a[i]), det_i))
        assert [type(x) for x in scalars] == [complex] * 3 + [float, complex,
                                                              float]
        for x, arr in zip(scalars, arrays):
            assert abs(x - arr[i]) <= 1e-14 * np.max(np.abs(arr))


@pytest.mark.parametrize("detuning", [None, 0.3])
def test_diverging_one_site_start_is_a_missed_step(detuning):
    # |⟨σ⁻⟩| ~ 1e160 squares past the float range: on Python scalars a
    # power would raise OverflowError where an array gives inf, so every
    # square is a product and the step ends as a miss, not a traceback
    rhs, solve = _collective_system(10.0, detuning)
    y = np.array([1e160, -1e160, -1.0])
    fun = lambda v: rhs(v, 2.0)
    assert _implicit_step(fun, lambda v, d, r: solve(v, 2.0, d, r), y,
                          fun(y), 1.0, 1e-10) is None


def test_singular_one_site_block_is_a_missed_step():
    # at ⟨σ⁻⟩ = 0, ⟨σᶻ⟩ = ½, Ω = 0, δ = 2 and b = 4 the feedback solve's
    # determinant |lp|² − |lq|² is exactly 0: a LinAlgError, as a singular
    # chain band gives, which the continuation takes as a missed step
    # (Python scalars would raise ZeroDivisionError)
    rhs, solve = _collective_system(4.0, None)
    y = np.array([0.0, 0.0, 0.5])
    with pytest.raises(np.linalg.LinAlgError):
        solve(y, 0.0, 2.0, np.ones(3))
    fun = lambda v: rhs(v, 0.0)
    assert _implicit_step(fun, lambda v, d, r: solve(v, 0.0, d, r), y,
                          fun(y), 2.0, 1e-10) is None


def test_continuation_survives_an_exact_zero_residual():
    # rounding snaps the last step onto the root: max|f| is exactly 0.0, as
    # on some cells of the 3-dof collective system
    y = pseudo_transient(lambda v: np.round(1.0 - v, 14),
                         lambda v, d, r: r / (1.0 / d + 1.0), np.zeros(1),
                         "rounded line")
    assert np.round(1.0 - y, 14)[0] == 0.0
    assert abs(y[0] - 1.0) < 1e-14


def test_collective_continuation_matches_integration():
    # DM at N = 200, a cell where the collective residual can land on 0.0
    p = ModelParams.from_beta(beta=0.005, s0=56.0, n_emitters=200)
    rhs, _ = _collective_system(2.0 * p.beta * (p.n_emitters - 1), None)
    sol = solve_steady_state("DM", p)
    y = _integrated_settle(lambda y: rhs(y, p.rabi), np.array([0.0, 0.0, -1.0]))
    assert abs(sol.sigma_minus[0] - (y[0] + 1j * y[1])) <= 1e-10
    assert abs(sol.sigma_z[0] - y[2]) <= 1e-10


def test_exhausted_step_budget_is_reported(monkeypatch):
    monkeypatch.setattr("cascadia.steady._PTC_STEPS", 2)
    p = ModelParams.from_beta(beta=0.005, s0=38.0, n_emitters=1000, eta=0.0,
                              seed=3)
    chain = build_chain(p)
    with pytest.raises(NonConvergence, match=r"^Bragg cell: residual \S+$") \
            as info:
        pseudo_transient(_rhs("BWM", p, chain), _solve("BWM", p, chain),
                         np.concatenate((np.zeros(2000), -np.ones(1000))),
                         "Bragg cell")
    assert float(str(info.value).split()[-1]) >= STEADY_RESIDUAL
    with pytest.raises(NonConvergence, match=r"^BWM steady state not reached "
                                             r"at N = 1000, β = 0\.005, "
                                             r"s₀ = 38: residual \S+$"):
        solve_steady_state("BWM", p, chain)


# --- the Newton step itself -------------------------------------------------------


def test_newton_step_accepts_and_rejects():
    def fun(v):
        return v ** 2 - 2.0

    def solve(v, delta, r):  # −J x = r at δ = ∞, with J = diag(2v)
        return -r / (2.0 * v)

    y0 = np.array([1.41421356, -1.41421356])
    y, r = newton_step(fun, solve, y0)
    assert np.max(np.abs(y - np.array([2 ** 0.5, -2 ** 0.5]))) < 1e-15
    assert r == float(np.max(np.abs(fun(y))))
    # the branch guard refuses a step further than 1e-5 of the state's
    # scale, and a refused step leaves the state and its residual untouched
    far = np.array([1.0, -1.0])
    y, r = newton_step(fun, solve, far)
    assert np.array_equal(y, far)
    assert r == float(np.max(np.abs(fun(far))))

    # a singular Jacobian solve is a refused finish, too
    def singular(v, delta, r):
        raise np.linalg.LinAlgError("singular matrix")

    y, r = newton_step(fun, singular, y0)
    assert np.array_equal(y, y0)
    assert r == float(np.max(np.abs(fun(y0))))


def test_refused_finish_is_logged(caplog):
    # each reason for keeping the state is one DEBUG record on the
    # "cascadia" logger; the state and its residual stay as they were
    def fun(v):
        return v ** 2 - 2.0

    def singular(v, delta, r):
        raise np.linalg.LinAlgError("singular matrix")

    y0 = np.array([1.41421356, -1.41421356])
    solves = {
        "singular Jacobian solve": singular,
        "non-finite result": lambda v, d, r: np.full_like(v, np.inf),
        "move 1.17e+00 of the state's scale": lambda v, d, r: 2.0 * v,
        "did not drop": lambda v, d, r: 1e-8 * v,
    }
    for reason, solve in solves.items():
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="cascadia"):
            y, r = newton_step(fun, solve, y0)
        assert np.array_equal(y, y0)
        assert r == float(np.max(np.abs(fun(y0))))
        [record] = caplog.records
        assert record.name == "cascadia" and record.levelno == logging.DEBUG
        assert record.getMessage().startswith("Newton finish refused: ")
        assert reason in record.getMessage()
    # an accepted finish logs nothing
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="cascadia"):
        newton_step(fun, lambda v, d, r: -r / (2.0 * v), y0)
    assert not caplog.records


def test_singular_or_non_finite_inner_solve_is_a_missed_step():
    # the first step meets a singular solve, its retry a non-finite one:
    # each quarters δ and retries from the same state, and the third try
    # goes on to the steady state
    deltas = []

    def fun(v):
        return 1.0 - v

    def solve(v, delta, r):
        deltas.append(delta)
        if len(deltas) == 1:
            raise np.linalg.LinAlgError("singular matrix")
        if len(deltas) == 2:
            return np.full_like(r, np.inf)
        return r / (1.0 / delta + 1.0)

    y = pseudo_transient(fun, solve, np.zeros(1), "line")
    assert deltas[:3] == [1.0, 0.25, 0.0625]
    assert abs(y[0] - 1.0) < 1e-12


# --- mean-field residuals at round-off, on both sides of the old cliff -------------


@pytest.mark.parametrize("n,s_tilde", [(12000, 1.0), (16000, 1.1)])
def test_long_eam_chains_at_the_phase_boundary(n, s_tilde):
    # an inner Newton iterate here diverges to |α| ~ 1e9: the site
    # determinant must not cancel to a negative number, and the singular
    # banded system it then meets must be a missed step, not a raise
    p = ModelParams.from_beta(beta=0.005, s0=s_tilde * 4.0 * 0.005 * n,
                              n_emitters=n, eta=0.03)
    sol = solve_steady_state("EAM", p)
    assert np.max(sol.bloch_norm()) <= 1.0
    assert _residual("EAM", p, None, sol) <= STEADY_RESIDUAL


@pytest.mark.parametrize("model,n", [("BWM", 2000), ("EAM", 2000),
                                     ("BWM", 700), ("BWM", 701)])
def test_meanfield_reaches_round_off(model, n):
    p = ModelParams.from_beta(beta=0.005, s0=17.8, n_emitters=n, eta=0.05,
                              seed=3)
    chain = build_chain(p) if model == "BWM" else None
    sol = solve_steady_state(model, p, chain)
    assert _residual(model, p, chain, sol) <= 1e-12


# --- resonant UWM: the closed form against the integration it replaces ------------


@pytest.mark.parametrize("n", [1, 100, 2000])
def test_uwm_fixed_point_matches_integration(n):
    p = ModelParams.from_beta(beta=0.005, s0=17.8, n_emitters=n)
    rhs = _rhs("UWM", p, None)
    y0 = np.concatenate((np.zeros(2 * n), -np.ones(n)))
    res = integrate_to_steady(lambda t, y: rhs(y), y0, IntegrationOptions())
    assert res.converged
    y, _ = newton_finish(rhs, res.y, small_move(res.y))
    m, z = _unpack(y, n)
    fp = uwm_cascade_fixed_point(17.8, 0.005, n)
    assert np.max(np.abs(m - fp.sigma_minus)) < 1e-10
    assert np.max(np.abs(z - fp.sigma_z)) < 1e-10

    sol = solve_steady_state("UWM", p)
    assert np.array_equal(sol.sigma_minus, fp.sigma_minus)
    assert np.array_equal(sol.sigma_z, fp.sigma_z)
    assert sol.residual == pytest.approx(_residual("UWM", p, None, sol),
                                         rel=0, abs=1e-15)


# --- Dicke bistability: both ramp branches survive the finish ----------------------


@pytest.mark.parametrize("d_eff", [20.0, 30.0, 40.0])
def test_dicke_ramps_keep_their_branches(d_eff):
    n = 201
    beta = d_eff / (4.0 * (n - 1))
    w = dicke_bistability_window(d_eff)
    s0 = 0.5 * (w.s_minus + w.s_plus)
    s_hi = 2.0 * w.s_plus
    p = ModelParams.from_beta(beta=beta, s0=s0, n_emitters=n)
    up = solve_steady_state("DM", p, opts=SolverOptions(
        ramp=RampSpec(0.0, s0, 400.0)))
    hi = solve_steady_state(
        "DM", ModelParams.from_beta(beta=beta, s0=s_hi, n_emitters=n))
    down = solve_steady_state("DM", p, initial=hi, opts=SolverOptions(
        ramp=RampSpec(s_hi, s0, 400.0)))
    roots = dicke_steady_states(d_eff, s0).roots
    assert roots.size == 3
    assert abs(up.sigma_z[0] - roots[0]) < 1e-10
    assert abs(down.sigma_z[0] - roots[-1]) < 1e-10


def _integrated_collective_ramp(b, s0, s0_start, t_ramp=400.0):
    """The collective ramp the quasi-static continuation replaced: settle at
    s0_start, integrate the ramp s0_start → s0 over t_ramp, settle at s0
    and take the Newton finish under the branch guard."""
    rhs, solve = _collective_system(b, None)

    def settle(y, s):
        w = np.sqrt(s / 2.0)
        return pseudo_transient(lambda v: rhs(v, w),
                                lambda v, d, r: solve(v, w, d, r), y,
                                f"collective settle at s₀ = {s:g}"), w

    y, _ = settle(np.array([0.0, 0.0, -1.0]), s0_start)
    ramp = RampSpec(s0_start, s0, t_ramp)
    y = integrate_ramp(lambda t, v: rhs(v, np.sqrt(ramp.s0_at(t) / 2.0)), y,
                       t_ramp, IntegrationOptions())
    y, w = settle(y, s0)
    y, _ = newton_step(lambda v: rhs(v, w), lambda v, d, r: solve(v, w, d, r),
                       y)
    return y[0] + 1j * y[1], y[2]


@pytest.mark.parametrize("d_tot", [20.0, 40.0, 80.0])
@pytest.mark.parametrize("place", ["lower fold", "mid", "upper fold"])
def test_quasi_static_ramps_match_integrated_ramps(d_tot, place):
    # 0.1% inside each fold of the window and mid-window, ramped up from
    # the ground state and down from deep saturation
    w = dicke_bistability_window(d_tot)
    s0 = {"lower fold": 1.001 * w.s_minus,
          "mid": 0.5 * (w.s_minus + w.s_plus),
          "upper fold": 0.999 * w.s_plus}[place]
    for s0_start in (0.0, max(4.0 * s0, 10.0 * d_tot, 100.0)):
        m, z = solve_collective(d_tot / 2.0, s0, s0_start=s0_start)
        m_ref, z_ref = _integrated_collective_ramp(d_tot / 2.0, s0, s0_start)
        assert abs(m - m_ref) <= 1e-10
        assert abs(z - z_ref) <= 1e-10
