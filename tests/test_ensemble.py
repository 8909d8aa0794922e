"""Disorder-ensemble statistics: reproducibility and convention contracts."""

import numpy as np
import pytest

from cascadia import (EnsembleReport, ModelParams, run_ensemble,
                      solve_steady_state)
from cascadia.errors import NonConvergence


def _params(beta, s0, n, eta, seed=0):
    return ModelParams.from_beta(beta=beta, s0=s0, n_emitters=n, eta=eta,
                                 seed=seed)


def test_ordered_chain_has_zero_spread():
    # at η = 0 every realization is the same Bragg chain, which coincides
    # with the disorder-averaged model exactly
    rep = run_ensemble(_params(0.02, 2.0, 50, eta=0.0), M=3)
    assert np.max(np.abs(rep.mean_diff)) < 1e-10
    assert np.max(np.abs(rep.variance)) < 1e-20
    assert rep.excluded == 0
    assert rep.n_realizations == 3
    assert rep.per_realization_outputs.shape == (3, 2)
    assert np.all(np.isfinite(rep.per_realization_outputs))


def test_reports_are_bit_exact():
    p = _params(0.02, 3.0, 40, eta=0.05, seed=11)
    a = run_ensemble(p, M=4)
    b = run_ensemble(p, M=4)
    assert np.array_equal(a.mean_diff, b.mean_diff)
    assert np.array_equal(a.variance, b.variance)
    assert np.array_equal(a.per_realization_outputs, b.per_realization_outputs)


def test_worker_count_does_not_change_statistics():
    p = _params(0.02, 3.0, 30, eta=0.05, seed=2)
    serial = run_ensemble(p, M=4, jobs=1)
    parallel = run_ensemble(p, M=4, jobs=2)
    assert np.array_equal(serial.mean_diff, parallel.mean_diff)
    assert np.array_equal(serial.variance, parallel.variance)


def test_variance_convention():
    # variance is the mean squared deviation from the equation-averaged
    # profile, so mean_diff² ≤ variance site-wise with equality only for
    # a noiseless biased ensemble
    rep = run_ensemble(_params(0.02, 3.0, 40, eta=0.05), M=5)
    assert np.all(rep.mean_diff ** 2 <= rep.variance + 1e-18)
    assert np.any(rep.variance > 0.0)
    assert rep.sigma_z_avg.shape == (40,)


def test_strong_disorder_realizations_track_averaged_model():
    # deep in the scrambled regime every single realization stays within
    # 1e-3 of the averaged profile at this size and drive (deviation
    # shrinks ~β√N at fixed optical depth, and grows when the chain is
    # pushed toward the weak-drive critical region)
    p = _params(0.00125, 20.0, 2000, eta=1.5, seed=0)
    rep = run_ensemble(p, M=2)
    assert rep.excluded == 0
    per_site_rms = np.sqrt(rep.variance)
    assert np.max(per_site_rms) < 1e-3


def test_validation():
    with pytest.raises(ValueError):
        run_ensemble(_params(0.02, 1.0, 10, eta=0.1), M=0)
    with pytest.raises(ValueError):
        EnsembleReport(eta=0.1, n_realizations=1,
                       mean_diff=np.zeros(2), variance=np.array([-1.0, 0.0]),
                       per_realization_outputs=np.zeros((1, 2)), excluded=0,
                       sigma_z_avg=np.zeros(2))


def test_an_ensemble_with_no_converged_realization_raises(monkeypatch):
    # the disorder-averaged reference converges, every BWM realization
    # misses: nothing is left to average, and the miss is not a NaN report
    def missing(tag, *args, **kw):
        if tag == "BWM":
            raise NonConvergence("BWM steady state not reached")
        return solve_steady_state(tag, *args, **kw)

    monkeypatch.setattr("cascadia.ensemble.solve_steady_state", missing)
    with pytest.raises(NonConvergence,
                       match=r"^all 3 realizations failed to converge$"):
        run_ensemble(_params(0.02, 3.0, 10, eta=0.05), M=3, jobs=1)


def test_worker_count_from_environment_must_be_an_integer(monkeypatch):
    monkeypatch.setenv("CASCADIA_JOBS", "abc")
    with pytest.raises(ValueError, match="CASCADIA_JOBS"):
        run_ensemble(_params(0.02, 3.0, 10, eta=0.05), M=2)
