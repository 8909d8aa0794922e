"""Realization-level statistics for positionally disordered chains.

Compares averaging at the equation level (the disorder-averaged model,
solved once) against averaging at the solution level (many chain
realizations of the bidirectional model):

    mean_diff_i = (1/M) Σ_μ (⟨σᶻ_i⟩_μ − ⟨σᶻ_i⟩_avg)
    variance_i  = (1/M) Σ_μ (⟨σᶻ_i⟩_μ − ⟨σᶻ_i⟩_avg)²

NOTE the variance convention: it is the mean *squared deviation from the
equation-averaged profile*, not the sample variance about the sample mean.
The two differ by mean_diff²; consequently mean_diff_i² ≤ variance_i holds
site-wise and variance does not vanish for a biased but noiseless ensemble.

Realizations use independent child streams of the master seed, so reports
are bit-exact reproducible for a fixed (params, M) and invariant under how
many workers computed them (reduction is in fixed realization order).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .errors import NonConvergence
from .meanfield import field_observables, solve_steady_state
from .params import ModelParams, build_chain

__all__ = ["EnsembleReport", "run_ensemble"]


@dataclass(frozen=True)
class EnsembleReport:
    """Ensemble comparison statistics (see module docstring for the
    variance convention).  per_realization_outputs has shape (M, 2) with
    columns (s_out_right, s_out_left); rows of excluded (non-converged)
    realizations are NaN and do not enter mean_diff/variance."""

    eta: float
    n_realizations: int
    mean_diff: np.ndarray
    variance: np.ndarray
    per_realization_outputs: np.ndarray
    excluded: int
    sigma_z_avg: np.ndarray  # the equation-averaged reference profile

    def __post_init__(self):
        if np.any(self.variance < -1e-15):
            raise ValueError("variance must be non-negative")


def env_jobs(default: int) -> int:
    """Worker count from the CASCADIA_JOBS environment variable, or
    `default` when it is unset or empty."""
    env = os.environ.get("CASCADIA_JOBS") or str(default)
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"CASCADIA_JOBS={env!r} is not an integer") from None


def process_map(fn, items, jobs: int) -> list:
    """[fn(x) for x in items], in item order, across `jobs` processes when
    jobs > 1 and in this process otherwise."""
    jobs = min(jobs, len(items))
    if jobs <= 1:
        return [fn(x) for x in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _one_realization(params: ModelParams, mu: int):
    chain = build_chain(params, stream=mu)
    try:
        sol = solve_steady_state("BWM", params, chain)
    except NonConvergence:
        return None, (np.nan, np.nan)
    out = field_observables(sol, params, chain)
    return sol.sigma_z, (out.s_out_right, out.s_out_left)


def run_ensemble(params: ModelParams, M: int = 20,
                 jobs: Optional[int] = None) -> EnsembleReport:
    """Solve M chain realizations of the bidirectional model plus one
    disorder-averaged reference, and reduce to difference/variance maps.

    jobs > 1 distributes realizations over processes (default: the
    CASCADIA_JOBS environment variable, else serial).  Statistics are
    identical either way.  A realization that raises NonConvergence is
    excluded (a NaN row); a reference that raises it, or M excluded
    realizations, raise NonConvergence.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    if jobs is None:
        jobs = env_jobs(1)

    z_avg = solve_steady_state("EAM", params).sigma_z

    results = process_map(partial(_one_realization, params), range(M), jobs)

    n = params.n_emitters
    mean_diff = np.zeros(n)
    variance = np.zeros(n)
    outputs = np.full((M, 2), np.nan)
    kept = 0
    for mu, (z, out) in enumerate(results):  # fixed order: bit-exact reduction
        outputs[mu] = out
        if z is None:
            continue
        d = z - z_avg
        mean_diff += d
        variance += d * d
        kept += 1
    if kept == 0:
        raise NonConvergence(f"all {M} realizations failed to converge")
    mean_diff /= kept
    variance /= kept

    return EnsembleReport(eta=params.eta, n_realizations=M,
                          mean_diff=mean_diff, variance=variance,
                          per_realization_outputs=outputs,
                          excluded=M - kept, sigma_z_avg=z_avg)
