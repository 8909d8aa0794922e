"""Second-order cumulant solver: algebra certification, oracle checks, physics."""

import numpy as np
import pytest

from cascadia import (ModelParams, effective_drive,
                      exact_observables, exact_steady_state,
                      inelastic_saturation, sigma_xx_cumulant, solve_ce2)
from cascadia.cumulant import (CumulantSolution, _block_indices, _pack,
                               _unpack, build_rhs)
from cascadia.errors import DimensionCap, NonConvergence

from _moment_oracle import (MomentTable, closed_moment_derivatives,
                            random_moment_state)


def _params(beta, s0, n):
    return ModelParams.from_beta(beta=beta, s0=s0, n_emitters=n)


# --- the equations themselves -------------------------------------------------


@pytest.mark.parametrize("n", [4, 5])
def test_rhs_matches_symbolic_oracle(n):
    # every term of the vectorized RHS against a literal application of
    # the adjoint generator with the same closure — random (unphysical)
    # moment values make this a polynomial identity check
    p = _params(0.2, 3.5, n)
    rng = np.random.default_rng(20 + n)
    m, z, MM, MP, MZ, ZZ = random_moment_state(n, rng)
    table = MomentTable(m, z, MM, MP, MZ, ZZ)
    dm, dz, dMM, dMP, dMZ, dZZ = closed_moment_derivatives(
        table, n, p.rabi, p.gamma_1d, p.gamma_loss)

    rhs = build_rhs(p, n)
    out = rhs(0.0, _pack(m, z, MM, MP, MZ, ZZ))
    om, oz, oMM, oMP, oMZ, oZZ = _unpack(out, n)

    mask = ~np.eye(n, dtype=bool)
    assert np.max(np.abs(om - dm)) < 1e-12
    assert np.max(np.abs(oz - dz.real)) < 1e-12
    assert np.max(np.abs((oMM - dMM)[mask])) < 1e-12
    assert np.max(np.abs((oMP - dMP)[mask])) < 1e-12
    assert np.max(np.abs((oMZ - dMZ)[mask])) < 1e-12
    assert np.max(np.abs((oZZ - dZZ)[mask])) < 1e-12


def test_factorized_state_reduces_to_mean_field():
    # with every pair moment set to its product value the singles
    # equations must collapse onto the nonlinear mean-field equations
    n = 7
    p = _params(0.1, 2.0, n)
    rng = np.random.default_rng(3)
    m = 0.3 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    z = -rng.uniform(0.2, 1.0, size=n)
    MM = np.outer(m, m)
    MP = np.outer(m, np.conj(m))
    MZ = np.outer(m, z)
    ZZ = np.outer(z, z)
    for A in (MM, MP, MZ, ZZ):
        np.fill_diagonal(A, 0.0)

    out = build_rhs(p, n)(0.0, _pack(m, z, MM, MP, MZ, ZZ))
    om, oz, *_ = _unpack(out, n)

    alpha = effective_drive("UWM", p, None, m)
    dm_mf = 1j * alpha * z - 0.5 * m
    dz_mf = -4.0 * (np.conj(alpha) * m).imag - (1.0 + z)
    assert np.max(np.abs(om - dm_mf)) < 1e-12
    assert np.max(np.abs(oz - dz_mf)) < 1e-12


# --- single site and pair against closed forms ---------------------------------


def test_single_site_closed_form():
    sol = solve_ce2(_params(0.25, 2.0, 1))
    assert sol.sigma_z[0] == pytest.approx(-1.0 / 3.0, abs=1e-10)
    # one emitter radiates the full resonance-fluorescence fluctuation:
    # s_ie = 8β²(s₀²/2)/(1+s₀)²
    assert inelastic_saturation(sol) == pytest.approx(
        8.0 * 0.25 ** 2 * (2.0 ** 2 / 2.0) / 9.0, rel=1e-9)


@pytest.mark.parametrize("beta,s0", [(0.25, 4.0), (0.05, 0.5)])
def test_two_sites_are_exact(beta, s0):
    # at n = 2 there are no triples to close, so CE2 is the full quantum
    # solution of the cascaded pair
    p = _params(beta, s0, 2)
    sol = solve_ce2(p)
    obs = exact_observables(exact_steady_state("UWM", p), p)

    assert np.max(np.abs(sol.sigma_minus - obs["sigma_minus"])) < 1e-8
    assert np.max(np.abs(sol.sigma_z - obs["sigma_z"])) < 1e-8
    mask = ~np.eye(2, dtype=bool)
    for a in "-+z":
        for b in "-+z":
            diff = sol.pair(a, b) - obs["pairs"][(a, b)]
            assert np.max(np.abs(diff[mask])) < 1e-8

    want_xx = ((obs["pairs"][("-", "-")][0, 1]
                + obs["pairs"][("-", "+")][0, 1]).real * 2.0
               - 4.0 * obs["sigma_minus"][0].real * obs["sigma_minus"][1].real)
    assert sigma_xx_cumulant(sol, 0, 1) == pytest.approx(want_xx, abs=1e-8)


def test_blocks_are_affine_and_blind_downstream():
    # the structure the site solve rests on: with upstream fixed, site k's
    # rows are affine in site k's own moments and never read a downstream
    # entry — so each block has one solution and the steady state is unique
    n = 6
    p = _params(0.2, 3.5, n)
    rng = np.random.default_rng(11)
    y = _pack(*random_moment_state(n, rng))
    sol = CumulantSolution(*_unpack(y, n), residual=0.0, beta=0.2, s0=3.5)
    assert y.size == 3 * n + 9 * (n * (n - 1)) // 2 == sol.dof

    blocks = [_block_indices(n, k) for k in range(n)]
    assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(y.size))

    rhs = build_rhs(p, n)
    for k, idx in enumerate(blocks):
        rows = rhs(0.0, y)[idx]
        for _ in range(3):
            d = np.zeros_like(y)
            d[idx] = rng.normal(size=idx.size)
            second = (rhs(0.0, y + d)[idx] - 2.0 * rows
                      + rhs(0.0, y - d)[idx])
            assert np.max(np.abs(second)) <= 1e-12
        down = np.concatenate(blocks[k + 1:] + [np.array([], dtype=int)])
        moved = y.copy()
        moved[down] += rng.normal(size=down.size)
        assert np.array_equal(rhs(0.0, moved)[idx], rows)


@pytest.mark.parametrize("beta,s0,n", [(0.05, 4.0, 6), (0.25, 20.0, 8),
                                       (0.1, 0.0, 3), (0.2, 80.0, 200)])
def test_block_sweep_equals_simultaneous(beta, s0, n):
    # the site-by-site sweep solves the simultaneous system: the packed
    # result zeroes the whole-chain RHS to round-off
    p = _params(beta, s0, n)
    sol = solve_ce2(p)
    y = _pack(sol.sigma_minus, sol.sigma_z, sol.mm, sol.mp, sol.mz, sol.zz)
    residual = np.max(np.abs(build_rhs(p, n)(0.0, y)))
    assert residual <= 1e-12
    assert sol.residual == residual


# --- solution structure ---------------------------------------------------------


def test_storage_symmetries_and_positivity():
    sol = solve_ce2(_params(0.05, 4.0, 20))
    assert np.max(np.abs(sol.mm - sol.mm.T)) < 1e-9
    assert np.max(np.abs(sol.mp - np.conj(sol.mp).T)) < 1e-9
    assert np.max(np.abs(sol.zz - sol.zz.T)) < 1e-9
    for A in (sol.mm, sol.mp, sol.mz):
        assert np.all(np.diagonal(A) == 0.0)
    # same-site ⟨σ⁺σ⁻⟩ fluctuation (1+z)/2 − |m|² is a variance
    diag_c = 0.5 * (1.0 + sol.sigma_z) - np.abs(sol.sigma_minus) ** 2
    assert np.min(diag_c) >= -1e-10
    # accumulated inelastic output grows monotonically along the chain
    s_ie = np.array([inelastic_saturation(sol, upto=k) for k in range(1, 21)])
    assert np.all(s_ie >= 0.0)
    assert sol.dof == 3 * 20 + 9 * (20 * 19) // 2


def test_xx_cumulant_contract():
    sol = solve_ce2(_params(0.1, 3.0, 5))
    assert sigma_xx_cumulant(sol, 1, 3) == pytest.approx(
        sigma_xx_cumulant(sol, 3, 1), rel=1e-12)
    with pytest.raises(ValueError):
        sigma_xx_cumulant(sol, 2, 2)
    with pytest.raises(ValueError):
        sigma_xx_cumulant(sol, 0, 5)
    zero = solve_ce2(_params(0.1, 0.0, 3))
    assert sigma_xx_cumulant(zero, 0, 2) == pytest.approx(0.0, abs=1e-12)
    assert inelastic_saturation(zero) == pytest.approx(0.0, abs=1e-12)


def test_size_and_input_guards():
    with pytest.raises(DimensionCap):
        solve_ce2(_params(0.001, 1.0, 513))
    with pytest.raises(ValueError):
        solve_ce2(ModelParams.from_beta(beta=0.1, s0=1.0, n_emitters=3,
                                        detuning=0.5))


def test_singular_site_system_reports_its_site(monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")

    # site 1 has no pairs, so site 2 is the first to solve a banded system
    monkeypatch.setattr("cascadia.cumulant.linalg.solve_banded", singular)
    with pytest.raises(NonConvergence, match=r"site 2 system singular at "
                                             r"n = 3, β = 0\.1") as exc:
        solve_ce2(_params(0.1, 5.0, 3))
    assert exc.value.site == 2


def test_block_failure_reports_site(monkeypatch):
    monkeypatch.setattr("cascadia.steady.STEADY_RESIDUAL", 1e-300)
    with pytest.raises(NonConvergence) as exc:
        solve_ce2(_params(0.1, 5.0, 3))
    assert exc.value.site == 1


# --- correlation physics ---------------------------------------------------------


def test_nearest_neighbor_correlations_flip_sign():
    # across the driven–undriven boundary the transverse nearest-neighbor
    # correlation changes sign; before it, correlations stay small
    s0, n, beta = 8.0, 200, 0.02
    sol = solve_ce2(_params(beta, s0, n))
    d_over = 4.0 * beta * np.arange(1, n) / s0  # D_i/s₀ of each bond
    c = np.array([sigma_xx_cumulant(sol, i, i + 1) for i in range(n - 1)])
    sign_flips = np.where(np.diff(np.sign(c[c != 0.0])) != 0)[0]
    assert sign_flips.size > 0
    crossing = d_over[sign_flips[0]]
    assert 0.8 < crossing < 1.2
    # pre-critical correlations stay well below the post-critical peak
    # (the contrast deepens with drive; at this moderate s₀ it is ~3.6×)
    pre = np.max(np.abs(c[d_over < 0.8]))
    post = np.max(np.abs(c[d_over >= 0.8]))
    assert pre < 0.4 * post


# --- chain prefixes and failures ---------------------------------------------------


@pytest.mark.parametrize("k", [1, 3, 5])
def test_chain_prefix_equals_shorter_chain(k):
    # downstream sites never feed back upstream, so the first k sites of
    # a longer chain solve as a k-emitter chain
    short = solve_ce2(_params(0.1, 5.0, k))
    full = solve_ce2(_params(0.1, 5.0, 6))
    for name in ("sigma_minus", "sigma_z", "mm", "mp", "mz", "zz"):
        a = getattr(short, name)
        head = getattr(full, name)[(slice(k),) * a.ndim]
        assert a.shape == head.shape
        assert np.max(np.abs(a - head)) <= 1e-12


def test_nonconvergence_names_the_cell(monkeypatch):
    monkeypatch.setattr("cascadia.steady.STEADY_RESIDUAL", 1e-300)
    with pytest.raises(NonConvergence,
                       match=r"n = 3, β = 0\.1, s₀ = 5: residual \S+"):
        solve_ce2(_params(0.1, 5.0, 3))
