"""Seeded op generators for the three workloads.

An op is one call a user of cascadia would make (a solve, an ensemble, one
CLI command), timed as a whole, followed by an untimed output check.  A
workload is one pass, a list of op kinds; a run repeats the pass and draws
each op's parameters when the op is built.

Parameters are drawn as a centred Latin hypercube per run: a run makes a
fixed number of ops of each kind, and for each kind and coordinate the
range (log-scaled where stated) is cut into that many equal strata whose
midpoints are each used once, in a seeded random order per coordinate.
The seed sets which values meet in one op, the order of the ops and the
chain realizations.  A run's cost then no longer hinges on whether its
few draws of an expensive kind landed at the cheap or the dear end of a
range, which is what keeps medians steady across seeds.

Why these workloads (each side of each size threshold in the code):

* small_chains -- below the thresholds: dense `hybr` polishes (mean-field
  up to 700 sites, CE2 up to 4000 dof) and LSODA (up to 1200 dof).
  All four mean-field models at N=200 (600 dof: LSODA + polish) and UWM
  at N=401 (1203 dof: DOP853); CE2 n in {6, 8} (polished); Dicke ramp
  pairs; an N=200 ensemble.  EAM/BWM between 401 and 700 sites take 2-8 s
  per op (dense polish) and do not fit a run.
* large_chains -- above every threshold: DOP853, O(N) drive kernels, io,
  cli and process parallelism.  Mean-field at N in {2000, 8000} (no
  polish), the 24-cell UWM s0 sweep and figures through `cascadia.cli.main`,
  an N=2000 ensemble with `jobs` workers, CE2 n=48 (no polish) via fig7.
* oracle -- the exact master-equation layer: all four models at N in
  {3, 4} (LSODA) and UWM/DM/EAM at N=5 (DOP853) with observables and flux
  bookkeeping, plus CE2 against the oracle at N = 2-3.
"""

from __future__ import annotations

import contextlib
import io
import json
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import cascadia as cz
from cascadia import (ModelParams, RampSpec, SolverOptions,
                      dicke_bistability_window)
from cascadia import cli

import checks

BETA_MF = 0.005          # waveguide coupling of the production sweeps
SWEEP_AXIS = "s0=log:1..100:24"
SWEEP_N = 2000
FIG7_SITES = 48          # fig7's default 200 sites take ~30 s per op


class Sampler:
    """Seeded centred Latin-hypercube draws (see module docstring).

    `counts[kind]` is how many ops of that kind one run makes; each of its
    coordinates is cut into that many equal strata and every stratum's
    midpoint is used once per run, in a seeded random order per coordinate.
    """

    def __init__(self, seed, counts):
        self.rng = np.random.default_rng(seed)
        self.counts = counts
        self._perm = {}
        self._used = defaultdict(int)

    def u(self, kind, coord):
        key = (kind, coord)
        k = self.counts[kind]
        j = self._used[key]
        self._used[key] += 1
        if j % k == 0:
            self._perm[key] = self.rng.permutation(k)
        return (int(self._perm[key][j % k]) + 0.5) / k

    def log(self, kind, coord, lo, hi):
        return lo * (hi / lo) ** self.u(kind, coord)

    def lin(self, kind, coord, lo, hi):
        return lo + (hi - lo) * self.u(kind, coord)

    def integer(self, n):
        return int(self.rng.integers(n))

    def turn(self, kind, k):
        """0, 1, ..., k-1, 0, ... over a run's ops of `kind` (seed-free)."""
        key = (kind, "turn")
        self._used[key] += 1
        return (self._used[key] - 1) % k


@dataclass
class Op:
    kind: str
    inputs: dict
    run: Callable[[], Any]
    check: Callable[[Any], tuple]


@dataclass
class Context:
    tmp: Any             # pathlib.Path for CLI outputs
    jobs: int            # process parallelism for ensembles and sweeps
    invariance: list     # (what, ok) records of jobs-invariance checks
    rerun: Callable      # rerun(fn) -> (value, seconds), untimed and untraced
    parallel_s: dict     # op kind -> wall seconds of its jobs=2 rerun


# --- small_chains / large_chains ops ------------------------------------------


def mf_cell(model, n):
    kind = f"mf:{model}:{n}"

    def make(S, ctx):
        s0 = S.log(kind, "s0", 1.0, 100.0)
        eta = S.log(kind, "eta", 1e-3, 1.0)
        seed, stream = S.integer(2 ** 31), S.integer(1000)
        p = ModelParams.from_beta(beta=BETA_MF, s0=s0, n_emitters=n,
                                  eta=eta, seed=seed)

        def run():
            chain = cz.build_chain(p, stream=stream) if model == "BWM" else None
            sol = cz.solve_steady_state(model, p, chain)
            return chain, sol, cz.field_observables(sol, p, chain)

        def check(out):
            chain, sol, obs = out
            return checks.meanfield(model, p, chain, sol, obs)

        return Op(kind, dict(s0=s0, eta=eta, seed=seed, stream=stream), run, check)
    return kind, make


def dicke_ramp(n):
    """Up/down ramp continuation into the DM bistable window, plus the
    analytic roots and their stability."""
    kind = f"ramp:DM:{n}"

    def make(S, ctx):
        d_eff = S.lin(kind, "D", 20.0, 40.0)
        beta = d_eff / (4.0 * (n - 1))
        w = dicke_bistability_window(d_eff)
        s0 = w.s_minus + (w.s_plus - w.s_minus) * S.lin(kind, "x", 0.15, 0.85)
        s_hi = 2.0 * w.s_plus
        p = ModelParams.from_beta(beta=beta, s0=s0, n_emitters=n)
        p_hi = ModelParams.from_beta(beta=beta, s0=s_hi, n_emitters=n)

        def run():
            up = cz.solve_steady_state("DM", p, opts=SolverOptions(
                ramp=RampSpec(0.0, s0, 400.0)))
            hi = cz.solve_steady_state("DM", p_hi)
            down = cz.solve_steady_state("DM", p, initial=hi, opts=SolverOptions(
                ramp=RampSpec(s_hi, s0, 400.0)))
            return up, down, cz.dicke_steady_states(d_eff, s0)

        def check(out):
            up, down, roots = out
            return checks.ramp_pair(p, up.sigma_z, down.sigma_z,
                                    up.sigma_minus, down.sigma_minus, roots)

        return Op(kind, dict(D=d_eff, s0=s0), run, check)
    return kind, make


def ensemble(n, M, parallel):
    """`parallel` ensembles use the run's `jobs` and are checked once per
    run against the other jobs setting (bit-identical reports)."""
    kind = f"ens:{n}x{M}"

    def make(S, ctx):
        s0 = S.log(kind, "s0", 1.0, 100.0)
        eta = S.log(kind, "eta", 1e-3, 1.0)
        seed = S.integer(2 ** 31)
        p = ModelParams.from_beta(beta=BETA_MF, s0=s0, n_emitters=n,
                                  eta=eta, seed=seed)
        jobs = ctx.jobs if parallel else 1

        def run():
            return cz.run_ensemble(p, M=M, jobs=jobs)

        def check(rep):
            ok, res, note = checks.ensemble(rep, M)
            if parallel and not any(w == "ensemble" for w, _ in ctx.invariance):
                other, secs = ctx.rerun(lambda: cz.run_ensemble(
                    p, M=M, jobs=2 if jobs == 1 else 1))
                if jobs == 1:
                    ctx.parallel_s[kind] = secs
                same = checks.same_report(rep, other)
                ctx.invariance.append(("ensemble", same))
                if not same:
                    ok, note = False, note + "; ensemble differs across jobs"
            return ok, res, note

        return Op(kind, dict(s0=s0, eta=eta, seed=seed, jobs=jobs), run, check)
    return kind, make


def ce2_cell(n):
    kind = f"ce2:{n}"

    def make(S, ctx):
        beta = S.lin(kind, "beta", 0.05, 0.25)
        s0 = S.log(kind, "s0", 0.5, 20.0)
        p = ModelParams.from_beta(beta=beta, s0=s0, n_emitters=n)

        def run():
            sol = cz.solve_ce2(p)
            return sol, cz.inelastic_saturation(sol)

        def check(out):
            return checks.ce2(p, *out)

        return Op(kind, dict(beta=beta, s0=s0), run, check)
    return kind, make


def run_cli(argv):
    """`cascadia <argv>` in process; its progress line is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code
    if rc != 0:
        raise RuntimeError(f"cascadia {' '.join(argv)} exited {rc}")


def uwm_sweep():
    kind = "cli:sweep-UWM24"
    s0_grid = np.geomspace(1.0, 100.0, 24)

    def make(S, ctx):
        seed = S.integer(2 ** 31)
        tag = f"sweep{S.integer(10 ** 9)}"

        def argv(jobs, out):
            return ["sweep", "--model", "UWM", "--axis", SWEEP_AXIS,
                    "--N", str(SWEEP_N), "--beta", str(BETA_MF),
                    "--seed", str(seed), "--jobs", str(jobs), "--out", out]

        base = str(ctx.tmp / tag)

        def run():
            run_cli(argv(ctx.jobs, base))
            return base

        def check(prefix):
            manifest = json.loads(open(prefix + ".manifest.json").read())
            ok, res, note = checks.uwm_sweep(prefix, s0_grid, SWEEP_N, BETA_MF,
                                             manifest)
            if not any(w == "sweep" for w, _ in ctx.invariance):
                alt = base + "_alt"
                ctx.rerun(lambda: run_cli(argv(2 if ctx.jobs == 1 else 1, alt)))
                same = all(open(f"{prefix}_{s}.csv", "rb").read()
                           == open(f"{alt}_{s}.csv", "rb").read()
                           for s in ("profile", "scalars"))
                ctx.invariance.append(("sweep", same))
                if not same:
                    ok, note = False, note + "; sweep CSVs differ across jobs"
            return ok, res, note

        return Op(kind, dict(seed=seed, jobs=ctx.jobs), run, check)
    return kind, make


def fig(name):
    kind = f"cli:{name}"

    def make(S, ctx):
        out = ctx.tmp / f"{name}_{S.integer(10 ** 9)}"
        extra, inputs = [], {}
        if name == "fig7":
            s0 = S.log(kind, "s0", 4.0, 24.0)     # beta = s0/(2 sites) <= 1/4
            extra = ["--sites", str(FIG7_SITES), "--s0", repr(s0)]
            inputs = dict(s0=s0, sites=FIG7_SITES)

        def run():
            run_cli(["fig", name, "--out", str(out)] + extra)
            return out

        def check(d):
            if name == "fig5":
                return checks.fig5_curves(d / "jz_curves.csv")
            if name == "fig8":
                return checks.fig8_transmission(d / "transmission.csv")
            return checks.fig7_outputs(d, FIG7_SITES)

        return Op(kind, inputs, run, check)
    return kind, make


# --- oracle ops ---------------------------------------------------------------

# Exact solves integrate to a Frobenius residual of 1e-10.  Above s0 ~ 2 at
# N = 4-5 (beta >= 0.1) single solves take 15 s to over a minute and the UWM
# N=5 case can stall at t_max (NonConvergence), so the drawn box stays below.
EXACT_BETA = (0.05, 0.15)
EXACT_S0 = (0.5, 1.5)
# At N=5 the cost inside that box still jumps between 0.4 s and 20 s from one
# (beta, s0) to the next (the residual test between integration chunks
# passes early or late), and BWM takes 5-100 s.  Drawn N=5 cells would make
# the run time a lottery, so N=5 runs pinned cells, two per model taken in
# turn, each of 0.6-1.2 s in a scan of the box (most of the box costs 1-20 s
# per cell); BWM at N=5 is left out.
EXACT_N5_PINNED = {"UWM": ((0.05, 1.5), (0.10, 1.2)),
                   "DM": ((0.05, 1.2), (0.15, 0.8)),
                   "EAM": ((0.05, 1.2), (0.10, 1.5))}


def exact_cell(model, n, pinned=False):
    kind = f"exact:{model}:{n}"

    def make(S, ctx):
        if pinned:
            cells = EXACT_N5_PINNED[model]
            beta, s0 = cells[S.turn(kind, len(cells))]
        else:
            beta = S.lin(kind, "beta", *EXACT_BETA)
            s0 = S.log(kind, "s0", *EXACT_S0)
        eta = 0.1 if pinned else S.log(kind, "eta", 1e-3, 1.0)
        seed, stream = ((7, 0) if pinned
                        else (S.integer(2 ** 31), S.integer(1000)))
        p = ModelParams.from_beta(beta=beta, s0=s0, n_emitters=n, eta=eta,
                                  seed=seed)

        def run():
            chain = cz.build_chain(p, stream=stream) if model == "BWM" else None
            state = cz.exact_steady_state(model, p, chain)
            return (chain, state, cz.exact_observables(state, p, chain),
                    cz.flux_report(state, p, chain))

        def check(out):
            return checks.exact_op(model, p, *out)

        return Op(kind, dict(beta=beta, s0=s0, eta=eta, seed=seed,
                             stream=stream), run, check)
    return kind, make


def ce2_oracle(n):
    """A2 pattern: CE2 against the exact cascaded chain.  The closure is
    exact at n = 2; at n = 3 the single moments differ by the neglected
    third cumulants (bounded here by 0.05)."""
    kind = f"ce2-vs-exact:{n}"
    tol = 1e-8 if n == 2 else 5e-2

    def make(S, ctx):
        beta = S.lin(kind, "beta", *EXACT_BETA)
        s0 = S.log(kind, "s0", *EXACT_S0)
        p = ModelParams.from_beta(beta=beta, s0=s0, n_emitters=n)

        def run():
            sol = cz.solve_ce2(p)
            state = cz.exact_steady_state("UWM", p)
            return (sol, state, cz.exact_observables(state, p),
                    cz.flux_report(state, p))

        def check(out):
            return checks.ce2_vs_oracle(p, *out, tol=tol)

        return Op(kind, dict(beta=beta, s0=s0), run, check)
    return kind, make


# --- workloads ----------------------------------------------------------------


_MF = ("UWM", "DM", "EAM", "BWM")

# One pass of each workload.  large_chains runs a single pass, so the kinds
# whose cost depends on the drawn parameters appear several times in it.
# Repeats also put many drawn ops around op_p50_s and op_tail_s, so that
# these quantiles do not hinge on a few draws: on small_chains the ensemble
# runs twice so that op_tail_s falls among the ops above 1 s, not on the
# step down to the sub-second solves; on large_chains each N=2000 cell runs
# seven times and the heavy CLI, ensemble and N=8000 ops sit above the
# tail; on oracle each N=4 cell runs twice, as the median falls among them.
WORKLOADS = {
    "small_chains": (
        [mf_cell(m, 200) for m in _MF]
        + [mf_cell("UWM", 401), dicke_ramp(200), ce2_cell(6), ce2_cell(8)]
        + 2 * [ensemble(200, 2, parallel=False)]),
    "large_chains": (
        [uwm_sweep(), fig("fig5"), fig("fig8"), fig("fig7"),
         ensemble(2000, 8, parallel=True)]
        + 2 * [mf_cell("BWM", 8000)]
        + 7 * [mf_cell(m, 2000) for m in _MF]),
    "oracle": (
        [exact_cell(m, 3) for m in _MF]
        + 2 * [exact_cell(m, 4) for m in _MF]
        + [exact_cell(m, 5, pinned=True) for m in ("UWM", "DM", "EAM")]
        + [ce2_oracle(2), ce2_oracle(3)]),
}

# Seconds per pass, rounded, at the commit that introduced this benchmark on
# a 2-core Xeon (Sapphire Rapids, KVM) with single-threaded OpenBLAS.  A run
# of --seconds T executes round(T / PASS_SECONDS) passes (at least one):
# at T = 25 that is 4, 1 and 3 passes.  Every run of a workload then does
# the same ops, and the percentiles sit at the same ranks whatever the seed
# or the code's speed.
PASS_SECONDS = {"small_chains": 7.0, "large_chains": 25.0, "oracle": 8.0}


def passes(name, seconds):
    return max(1, round(seconds / PASS_SECONDS[name]))


def op_counts(name, n_passes):
    counts = defaultdict(int)
    for kind, _ in WORKLOADS[name]:
        counts[kind] += n_passes
    return counts
