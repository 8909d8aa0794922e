"""Parameter mapping, chain generation, and phase-average statistics."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadia import (ModelParams, averaged_phase_factor, build_chain,
                      derive)


def test_from_beta_maps_to_gamma_split():
    p = ModelParams.from_beta(beta=0.005, s0=20.0, n_emitters=2000)
    assert p.gamma_1d == 0.01
    assert p.gamma_loss == pytest.approx(0.99, abs=1e-15)
    assert p.gamma_1d + p.gamma_loss == pytest.approx(1.0, abs=1e-12)
    d = derive(p)
    assert d.d_total == pytest.approx(40.0, abs=1e-14)
    assert d.s_tilde == pytest.approx(0.5, abs=1e-14)
    assert d.s0 == pytest.approx(20.0, rel=1e-15)


@pytest.mark.parametrize("beta,n,d_expect", [
    (0.005, 1000, 20.0),
    (0.25, 1, 1.0),
])
def test_optical_depth_values(beta, n, d_expect):
    d = ModelParams.from_beta(beta=beta, s0=1.0, n_emitters=n).derive()
    assert d.d_total == pytest.approx(d_expect, abs=1e-14)


def test_derived_quantities_without_guided_decay():
    # β = 0: no optical depth, so any drive is infinitely many times D_N,
    # and no drive is an undefined ratio
    d = ModelParams.from_beta(beta=0.0, s0=2.0, n_emitters=5).derive()
    assert d.d_total == 0.0
    assert d.s_tilde == math.inf
    d = ModelParams.from_beta(beta=0.0, s0=0.0, n_emitters=5).derive()
    assert math.isnan(d.s_tilde)


def test_rates_must_sum_to_gamma_tot():
    with pytest.raises(ValueError):
        ModelParams(gamma_1d=0.3, gamma_loss=0.3, rabi=1.0, n_emitters=2)
    with pytest.raises(ValueError):
        ModelParams.from_beta(beta=0.7, s0=1.0, n_emitters=2)
    with pytest.raises(ValueError):
        ModelParams.from_beta(beta=0.1, s0=-1.0, n_emitters=2)
    with pytest.raises(ValueError):
        ModelParams.from_beta(beta=0.1, s0=1.0, n_emitters=0)
    with pytest.raises(ValueError):
        ModelParams.from_beta(beta=0.1, s0=1.0, n_emitters=3, eta=-0.5)


@given(beta=st.floats(1e-6, 0.5), s0=st.floats(0.0, 1e6),
       n=st.integers(1, 10**6))
@settings(max_examples=200, deadline=None)
def test_derived_quantities_round_trip(beta, s0, n):
    d = ModelParams.from_beta(beta=beta, s0=s0, n_emitters=n).derive()
    assert d.d_total == 4.0 * d.beta * n
    # s̃·D_N = s₀ up to the float division round-off
    assert d.s_tilde * d.d_total == pytest.approx(d.s0, rel=1e-12, abs=1e-300)


def test_json_round_trip_is_strict():
    p = ModelParams.from_beta(beta=0.01, s0=3.0, n_emitters=7, eta=0.2, seed=9)
    q = ModelParams.from_json(p.to_json())
    assert q == p
    blob = json.loads(p.to_json())
    blob["surprise"] = 1
    with pytest.raises(ValueError, match="unknown"):
        ModelParams.from_json(json.dumps(blob))
    del blob["surprise"], blob["rabi"]
    with pytest.raises(ValueError, match="missing"):
        ModelParams.from_json(json.dumps(blob))


# --- chains -----------------------------------------------------------------


def test_bragg_chain_is_exact():
    p = ModelParams.from_beta(beta=0.1, s0=1.0, n_emitters=3, eta=0.0)
    chain = build_chain(p)
    assert np.array_equal(chain.positions, [0.0, 0.5, 1.0])
    # all pairwise phases 2k₀(z_j − z_i) are integer multiples of 2π:
    # z in λ units, 2k₀z = 4πz, so z mod 0.5 must vanish exactly
    assert np.all(np.mod(chain.positions, 0.5) == 0.0)
    assert np.all(chain.detunings == 0.0)


def test_chain_spacing_statistics():
    p = ModelParams.from_beta(beta=0.1, s0=1.0, n_emitters=10**5, eta=0.1,
                              seed=42)
    z = build_chain(p).positions
    sp = np.diff(z)
    n = sp.size
    se_mean = 0.05 / np.sqrt(n)
    assert abs(sp.mean() - 0.5) < 3 * se_mean
    se_std = 0.05 / np.sqrt(2 * (n - 1))
    assert abs(sp.std(ddof=1) - 0.05) < 3 * se_std


def test_chain_determinism_and_streams():
    p = ModelParams.from_beta(beta=0.1, s0=1.0, n_emitters=50, eta=0.3, seed=7)
    a = build_chain(p, stream=0)
    b = build_chain(p, stream=0)
    c = build_chain(p, stream=1)
    assert np.array_equal(a.positions, b.positions)
    assert not np.array_equal(a.positions, c.positions)


def test_chain_detuning_draws():
    p = ModelParams.from_beta(beta=0.1, s0=1.0, n_emitters=2000, eta=0.0,
                              seed=3)
    chain = build_chain(p, xi_delta=2.0)
    assert abs(chain.detunings.std() - 2.0) < 0.15
    assert abs(chain.detunings.mean()) < 0.15


# --- averaged backward phase -------------------------------------------------


def test_phase_factor_closed_form():
    assert averaged_phase_factor(0.0, 1) == 1.0
    assert averaged_phase_factor(0.0, 17) == 1.0
    assert averaged_phase_factor(0.1, 1) == pytest.approx(
        np.exp(-2 * np.pi**2 * 0.01), rel=1e-15)
    assert averaged_phase_factor(1.0, 1) == pytest.approx(2.68e-9, rel=3e-3)
    with pytest.raises(ValueError):
        averaged_phase_factor(-0.1, 1)
    with pytest.raises(ValueError):
        averaged_phase_factor(0.1, 0)


def test_phase_factor_monotonicity():
    etas = [0.01, 0.05, 0.1, 0.5, 1.0]
    vals = [averaged_phase_factor(e, 1) for e in etas]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    hops = [averaged_phase_factor(0.1, h) for h in (1, 2, 5, 10)]
    assert all(a > b for a, b in zip(hops, hops[1:]))


@pytest.mark.parametrize("eta", [0.01, 0.05, 0.1, 0.5])
def test_phase_factor_against_monte_carlo(eta):
    # ⟨e^{2ik₀Z}⟩ over Z ~ N(λ/4, (λ/2·η)²); 2k₀Z = 4πZ for Z in λ units
    rng = np.random.default_rng(12345)
    z = rng.normal(0.5, 0.5 * eta, size=10**6)
    samples = np.cos(4 * np.pi * z)  # imaginary part averages to zero
    mc = samples.mean()
    sigma = samples.std(ddof=1) / np.sqrt(samples.size)
    assert abs(mc - averaged_phase_factor(eta, 1)) < 3 * sigma + 1e-12
