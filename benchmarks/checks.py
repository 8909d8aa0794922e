"""Output checks that do not trust a solver's own report.

Each check returns (ok, residual, note).  `residual` is the check's own
measure of how far the output is from an exact steady state (None when the
output carries no state to test); the runner reduces it to
`resid_digits_min`.  Tolerances sit one decade above the solvers' own
stopping criteria, so a check fails only on a wrong answer, not on
round-off.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from cascadia import (ModelParams, dicke_cubic, effective_drive,
                      uwm_cascade_fixed_point, uwm_saturation)
from cascadia import cumulant, exact

MF_RESID_TOL = 1e-8      # mean-field steady_state_residual is 1e-9
BLOCH_SLACK = 1e-9
UWM_FP_TOL = 1e-8
CUBIC_TOL = 1e-7
CE2_RESID_TOL = 1e-8
EXACT_RESID_TOL = 1e-10  # exact_steady_state's own bound on ‖dρ/dt‖_F
FLUX_TOL = 1e-9
TRACE_TOL = 1e-9


class Verdict:
    """Accumulates failed conditions and the worst residual of one op."""

    def __init__(self):
        self.failed = []
        self.residual = None

    def need(self, cond, what):
        if not cond:
            self.failed.append(what)

    def resid(self, r):
        r = float(r)
        self.residual = r if self.residual is None else max(self.residual, r)
        return r

    def result(self):
        return not self.failed, self.residual, "; ".join(self.failed)


def mf_residual(model, params, chain, m, z):
    """Max-norm of the mean-field RHS rebuilt from `effective_drive`."""
    a = effective_drive(model, params, chain, m)
    dm = 1j * a * z - 0.5 * m
    dz = -4.0 * np.imag(np.conj(a) * m) - (1.0 + z)
    return float(max(np.max(np.abs(dm.real)), np.max(np.abs(dm.imag)),
                     np.max(np.abs(dz))))


def meanfield_state(v, model, params, chain, m, z):
    """Residual, Bloch norm and the model's closed-form cross-check."""
    m = np.asarray(m, dtype=complex)
    z = np.asarray(z, dtype=float)
    r = v.resid(mf_residual(model, params, chain, m, z))
    v.need(np.all(np.isfinite(m)) and np.all(np.isfinite(z)), "non-finite state")
    v.need(r <= MF_RESID_TOL, f"{model} residual {r:.2e}")
    bloch = float(np.max(4.0 * np.abs(m) ** 2 + z ** 2))
    v.need(bloch <= 1.0 + BLOCH_SLACK, f"{model} Bloch norm {bloch:.12f}")
    s0 = 2.0 * params.rabi ** 2
    n = params.n_emitters
    if model == "UWM":
        fp = uwm_cascade_fixed_point(s0, params.beta, n)
        d = float(max(np.max(np.abs(fp.sigma_minus - m)),
                      np.max(np.abs(fp.sigma_z - z))))
        v.need(d <= UWM_FP_TOL, f"UWM off the cascade fixed point by {d:.2e}")
    elif model == "DM":
        d_eff = 4.0 * params.beta * (n - 1)
        c = float(abs(dicke_cubic(z[0], d_eff, s0)))
        v.need(c <= CUBIC_TOL * max(1.0, d_eff ** 2 / 4.0),
               f"DM sigma_z not a cubic root ({c:.2e})")
        v.need(float(np.ptp(z)) == 0.0, "DM state not uniform")


def meanfield(model, params, chain, sol, obs):
    v = Verdict()
    meanfield_state(v, model, params, chain, sol.sigma_minus, sol.sigma_z)
    v.need(obs.s_out_right >= 0.0 and obs.s_out_left >= 0.0,
           "negative output saturation")
    if model == "UWM":
        v.need(obs.s_out_left == 0.0, "UWM emits to the left")
    return v.result()


def ramp_pair(params_at, z_up, z_down, m_up, m_down, roots):
    """Up/down ramps land on the lowest and highest stable cubic roots."""
    v = Verdict()
    p = params_at
    meanfield_state(v, "DM", p, None, m_up, z_up)
    meanfield_state(v, "DM", p, None, m_down, z_down)
    v.need(roots.bistable and roots.roots.size == 3, "window not bistable")
    if roots.roots.size == 3:
        v.need(abs(z_up[0] - roots.roots[0]) <= 1e-6, "up ramp off lower branch")
        v.need(abs(z_down[0] - roots.roots[2]) <= 1e-6,
               "down ramp off upper branch")
        v.need(roots.stability == ("stable", "unstable", "stable"),
               f"stability {roots.stability}")
    return v.result()


def ensemble(report, M):
    v = Verdict()
    v.need(report.excluded == 0, f"{report.excluded} realizations excluded")
    out = report.per_realization_outputs
    v.need(out.shape == (M, 2) and np.all(np.isfinite(out)) and np.all(out >= 0),
           "bad per-realization outputs")
    v.need(np.all(np.abs(report.sigma_z_avg) <= 1.0 + BLOCH_SLACK),
           "reference inversion outside [-1, 1]")
    # variance is the mean squared deviation from the reference profile, so
    # mean_diff² ≤ variance site-wise
    gap = float(np.max(report.mean_diff ** 2 - report.variance))
    v.need(gap <= 1e-12, f"mean_diff^2 exceeds variance by {gap:.2e}")
    return v.result()


def ce2_residual(params, sol):
    y = cumulant._pack(sol.sigma_minus, sol.sigma_z, sol.mm, sol.mp, sol.mz,
                       sol.zz)
    return float(np.max(np.abs(cumulant.build_rhs(params, sol.n)(0.0, y))))


def ce2(params, sol, s_ie):
    v = Verdict()
    r = v.resid(ce2_residual(params, sol))
    v.need(r <= CE2_RESID_TOL, f"CE2 residual {r:.2e}")
    v.need(s_ie >= -1e-12, f"negative inelastic output {s_ie:.2e}")
    return v.result()


def exact_state(v, model, params, chain, state, flux):
    rho = state.rho
    gen = exact.build_generator(model, params, chain)
    r = v.resid(np.linalg.norm(gen.apply(rho)))
    v.need(r <= EXACT_RESID_TOL, f"exact ‖Lρ‖_F {r:.2e}")
    v.need(abs(np.trace(rho) - 1.0) <= TRACE_TOL, "trace != 1")
    v.need(float(np.max(np.abs(rho - rho.conj().T))) <= 1e-14, "rho not Hermitian")
    lam = float(np.min(np.linalg.eigvalsh(rho)))
    v.need(lam >= -1e-9, f"rho not positive ({lam:.2e})")
    rel = abs(flux["defect"]) / flux["flux_in"]
    v.need(rel < FLUX_TOL, f"flux defect / flux_in = {rel:.2e}")
    return rel


def exact_op(model, params, chain, state, obs, flux):
    v = Verdict()
    rel = exact_state(v, model, params, chain, state, flux)
    v.need(obs["s_ie"] >= -1e-12, "negative inelastic output")
    ok, res, note = v.result()
    return ok, res, note, rel


def ce2_vs_oracle(params, sol, state, obs, flux, tol):
    """CE2 against the exact cascaded (UWM) chain; `tol` on single moments."""
    v = Verdict()
    r = v.resid(ce2_residual(params, sol))
    v.need(r <= CE2_RESID_TOL, f"CE2 residual {r:.2e}")
    rel = exact_state(v, "UWM", params, None, state, flux)
    d = float(max(np.max(np.abs(sol.sigma_minus - obs["sigma_minus"])),
                  np.max(np.abs(sol.sigma_z - obs["sigma_z"]))))
    v.need(d <= tol, f"CE2 vs oracle single moments differ by {d:.2e}")
    ok, res, note = v.result()
    return ok, res, note, rel


# --- CLI outputs, re-read from disk ------------------------------------------


def read_csv(path):
    """Numeric CSV as ({column: array}, row count)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.size == 0:
        data = np.empty((0, len(header)))
    return {h: data[:, i] for i, h in enumerate(header)}, data.shape[0]


def uwm_sweep(prefix, s0_grid, n, beta, manifest):
    """Per-cell UWM profiles re-read from the sweep CSVs."""
    v = Verdict()
    v.need(manifest["unresolved_count"] == 0 and not manifest["instability"],
           "unresolved sweep cells")
    prof, rows = read_csv(f"{prefix}_profile.csv")
    scal, srows = read_csv(f"{prefix}_scalars.csv")
    v.need(rows == n * len(s0_grid) and srows == len(s0_grid),
           f"sweep CSV row counts {rows}/{srows}")
    if v.failed:
        return v.result()
    for c, s0 in enumerate(s0_grid):
        sl = slice(c * n, (c + 1) * n)
        v.need(prof["s0"][sl][0] == s0, f"cell {c} s0 {prof['s0'][sl][0]} != {s0}")
        p = ModelParams.from_beta(beta=beta, s0=float(s0), n_emitters=n)
        m = prof["re_sigma_minus"][sl] + 1j * prof["im_sigma_minus"][sl]
        meanfield_state(v, "UWM", p, None, m, prof["sigma_z"][sl])
    v.need(np.all(scal["s_out_left"] == 0.0), "UWM emits to the left")
    return v.result()


def fig5_curves(path):
    """j_z(D, s̃) against the closed form ln(s(D)/s₀)/D: the inversion
    integral ∫₀ᴰ −dD′/(1+s) equals ∫ ds/s along ds/dD = −s/(1+s)."""
    v = Verdict()
    c, rows = read_csv(path)
    v.need(rows == 480, f"fig5 rows {rows}")
    worst = 0.0
    for D, st, jz in zip(c["D"], c["s_tilde"], c["j_z"]):
        s0 = st * D
        ref = (math.log(uwm_saturation(s0, D)) - math.log(s0)) / D
        worst = max(worst, abs(jz - ref))
    v.need(worst <= 1e-8, f"j_z off closed form by {worst:.2e}")
    v.need(bool(np.all((c["j_z"] >= -1.0) & (c["j_z"] <= 0.0))), "j_z outside [-1, 0]")
    return v.result()


def fig8_transmission(path):
    """Transmission in [0, 1] (it underflows to 0 below s̃ = 1 in the deep
    broadened media), non-decreasing with drive; the cold curve against the
    Lambert-W profile at D = 200."""
    v = Verdict()
    c, rows = read_csv(path)
    v.need(rows == 4 * 41, f"fig8 rows {rows}")
    T = c["transmission"]
    v.need(bool(np.all((T >= 0.0) & (T <= 1.0))), "transmission outside [0, 1]")
    for xi in (0.0, 1.0, 10.0, 37.0):
        sel = c["xi_delta"] == xi
        v.need(bool(np.all(np.diff(T[sel]) >= 0.0)), f"xi={xi} not monotone")
    cold = c["xi_delta"] == 0.0
    ref = np.array([uwm_saturation(st * 200.0, 200.0) / (st * 200.0)
                    for st in c["s_tilde"][cold]])
    d = float(np.max(np.abs(T[cold] - ref) / ref))
    v.need(d <= 1e-8, f"cold transmission off Lambert-W by {d:.2e}")
    return v.result()


def fig7_outputs(out_dir, n):
    """Inelastic profile non-negative; pair map complete and finite."""
    v = Verdict()
    sie, rows = read_csv(Path(out_dir) / "inelastic_profile.csv")
    v.need(rows == n, f"fig7 profile rows {rows}")
    v.need(bool(np.all(sie["s_ie_over_s0"] >= -1e-12)), "negative s_ie")
    xx, prs = read_csv(Path(out_dir) / "xx_cumulant_map.csv")
    v.need(prs == n * (n - 1) // 2, f"fig7 pair rows {prs}")
    v.need(bool(np.all(np.isfinite(xx["sigxx_cumulant"]))), "non-finite map")
    return v.result()


def same_report(a, b):
    """Bit-identical ensemble reports (jobs invariance)."""
    return (a.excluded == b.excluded
            and all(np.array_equal(getattr(a, f), getattr(b, f), equal_nan=True)
                    for f in ("mean_diff", "variance", "sigma_z_avg",
                              "per_realization_outputs")))
