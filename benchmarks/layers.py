"""Which cascadia functions the traced run wraps, and the per-layer metrics.

Layers are the package modules.  Each public entry point is wrapped at
all of its lookup sites, and the scipy entry points are wrapped at the
names cascadia looks them up by: `steady.solve_ivp` and `doppler.solve_ivp`
are module-level bindings, while `cumulant` imports `solve_ivp`, `root`
and `newton_krylov` inside functions, so those are wrapped on the scipy
modules themselves (cumulant is their only caller in the package).
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np
import scipy.integrate
import scipy.optimize

import cascadia
from cascadia import (analytic, cli, cumulant, doppler, ensemble, exact, io,
                      meanfield, params, steady)

from tracing import END, INFO, NAME, PARENT, START, summary
from workloads import run_cli

LAYERS = ("params", "analytic", "steady", "meanfield", "cumulant", "exact",
          "ensemble", "doppler", "io", "cli", "bench")


def _ivp(out, args, kwargs):
    return {"nfev": out.nfev, "njev": out.njev,
            "method": kwargs.get("method", "RK45")}


def _nfev(out, args, kwargs):
    return {"nfev": getattr(out, "nfev", 0)}


def _steady(out, args, kwargs):
    return {"t": out.t, "converged": out.converged}


def _bytes(out, args, kwargs):
    return {"bytes": os.path.getsize(out)}


def _excluded(out, args, kwargs):
    return {"excluded": out.excluded}


def install(tracer):
    for mod, attrs in (
            (params, ("build_chain", "derive")),
            (analytic, ("dicke_steady_states", "mean_polarization",
                        "dicke_bistability_window")),
            (steady, ("integrate_ramp",)),
            (meanfield, ("solve_steady_state", "effective_drive",
                         "field_observables", "solve_collective",
                         "uwm_cascade_fixed_point")),
            (cumulant, ("solve_ce2", "build_rhs", "inelastic_saturation",
                        "sigma_xx_cumulant")),
            (exact, ("exact_steady_state", "build_generator",
                     "exact_observables", "flux_report")),
            (doppler, ("doppler_profile",)),
            (io, ("write_cumulant_pair_csv", "write_sie_csv")),
            (cli, ("main",))):
        for attr in attrs:
            tracer.install(mod, attr)
    tracer.install(steady, "integrate_to_steady", post=_steady)
    tracer.install(ensemble, "run_ensemble", post=_excluded)
    tracer.install(io, "write_csv", post=_bytes)
    tracer.install(io, "write_json", post=_bytes)
    tracer.install(cumulant, "_warm_start", "cumulant.warm_start")
    # scipy entry points, named by the cascadia module that calls them
    tracer.install(steady, "solve_ivp", post=_ivp, scan=False)
    tracer.install(doppler, "solve_ivp", post=_ivp, scan=False)
    tracer.install(meanfield, "_scipy_root", "meanfield.root", post=_nfev,
                   scan=False)
    tracer.install(scipy.integrate, "solve_ivp", "cumulant.solve_ivp",
                   post=_ivp, scan=False)
    tracer.install(scipy.optimize, "root", "cumulant.root", post=_nfev,
                   scan=False)
    tracer.install(scipy.optimize, "newton_krylov", "cumulant.newton_krylov",
                   scan=False)


def _median_time(fn, repeats):
    ts = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        ts.append(time.perf_counter() - t)
    return statistics.median(ts)


def smoke(tmp):
    """One tiny call into every layer, so each layer metric is measured on
    every workload rather than reading a structural zero."""
    p = cascadia.ModelParams.from_beta(beta=0.2, s0=1.0, n_emitters=2, eta=0.1)
    state = cascadia.exact_steady_state("BWM", p, cascadia.build_chain(p))
    cascadia.flux_report(state, p, cascadia.build_chain(p))
    cascadia.inelastic_saturation(cascadia.solve_ce2(p))
    cascadia.run_ensemble(p, M=1, jobs=1)
    cascadia.dicke_steady_states(20.0, 30.0)
    cascadia.mean_polarization(2.0, 10.0)
    out = str(tmp / "smoke")
    run_cli(["sweep", "--model", "UWM", "--axis", "s0=lin:1..2:2", "--N", "4",
             "--jobs", "1", "--out", out])
    run_cli(["sweep", "--model", "DOPPLER", "--axis", "s_tilde=lin:0.5..1:2",
             "--d-max", "10", "--jobs", "1", "--out", out])


def probes():
    """Per-call kernel costs at fixed sizes, independent of the workload."""
    rng = np.random.default_rng(0)
    out = {}
    n = 8000
    m = 0.5 * (rng.random(n) - 0.5) + 0.5j * (rng.random(n) - 0.5)
    for model in ("UWM", "EAM", "BWM", "DM"):
        p = cascadia.ModelParams.from_beta(beta=0.005, s0=20.0, n_emitters=n,
                                           eta=0.05, seed=1)
        chain = cascadia.build_chain(p) if model == "BWM" else None
        out[f"meanfield.drive_us.{model}"] = 1e6 * _median_time(
            lambda: cascadia.effective_drive(model, p, chain, m), 51)
    p = cascadia.ModelParams.from_beta(beta=0.2, s0=80.0, n_emitters=200)
    rhs = cumulant.build_rhs(p, 200)
    y = cumulant._ground_state(200)
    out["cumulant.rhs_ms_n200"] = 1e3 * _median_time(lambda: rhs(0.0, y), 7)
    p = cascadia.ModelParams.from_beta(beta=0.1, s0=1.0, n_emitters=5, eta=0.05)
    gen = exact.build_generator("BWM", p, cascadia.build_chain(p))
    a = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    out["exact.apply_ms_n5"] = 1e3 * _median_time(lambda: gen.apply(rho), 21)
    return out


def metrics(tracer, runner, probe_values):
    """Per-layer metrics, and whether the layers' self times add up to the
    traced wall time."""
    spans = tracer.spans
    out = summary(tracer, LAYERS)

    def infos(name):
        return [s[INFO] or {} for s in spans if s[NAME] == name]

    ivp = infos("steady.solve_ivp")
    out["steady.solve_ivp.nfev"] = sum(i.get("nfev", 0) for i in ivp)
    out["steady.solve_ivp.njev"] = sum(i.get("njev", 0) for i in ivp)
    out["steady.solve_ivp.lsoda_calls"] = sum(i.get("method") == "LSODA" for i in ivp)
    out["steady.solve_ivp.dop853_calls"] = sum(i.get("method") == "DOP853" for i in ivp)
    its = infos("steady.integrate_to_steady")
    out["steady.integrate_to_steady.t_sum"] = sum(i.get("t", 0.0) for i in its)
    out["steady.integrate_to_steady.unconverged"] = sum(
        not i.get("converged", True) for i in its)
    out["cumulant.solve_ivp.nfev"] = sum(i.get("nfev", 0) for i in infos("cumulant.solve_ivp"))
    out["meanfield.root.nfev"] = sum(i.get("nfev", 0) for i in infos("meanfield.root"))
    out["cumulant.root.nfev"] = sum(i.get("nfev", 0) for i in infos("cumulant.root"))
    out["cumulant.warm_start_s"] = out["cumulant.warm_start.busy_s"]
    out["io.bytes_written"] = sum(i.get("bytes", 0) for s in ("io.write_csv", "io.write_json")
                                  for i in infos(s))
    out["ensemble.excluded"] = sum(i.get("excluded", 0) for i in infos("ensemble.run_ensemble"))
    out["exact.integrate_s"] = sum(
        s[END] - s[START] for s in spans
        if s[NAME] == "steady.integrate_to_steady" and s[PARENT] >= 0
        and spans[s[PARENT]][NAME] == "exact.exact_steady_state")
    out["exact.flux_defect_max"] = max(runner.flux_rel, default=0.0)
    out["ensemble.parallel_eff"] = runner.parallel_eff()
    out.update(probe_values)

    wall = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    self_sum = sum(out[f"{L}.self_s"] for L in LAYERS)
    out["trace.wall_s"] = wall
    out["trace.overhead_frac"] = runner.traced_s / runner.plain_s - 1.0
    sums_ok = abs(self_sum - wall) <= 1e-9 * max(wall, 1.0)
    print(f"traced wall {wall:.4f} s, sum of layer self times {self_sum:.4f} s, "
          f"overhead {out['trace.overhead_frac']:+.3f}", flush=True)
    return out, sums_ok
