"""Command-line front end: sweep runner and figure-data generators.

Every run is reproducible from its manifest: CLI flags are overrides onto
a JSON spec, the manifest echoes the fully-resolved spec, and CSV payloads
are byte-identical across reruns (fixed grid-cell order, fixed-order
reduction, 17-significant-digit floats).

One grid runner evaluates the cells of a sweep and of fig2, fig3 and
fig4 across `--jobs` processes.  Profile rows come from `io`, prefixed
with the cell's grid coordinates.  Each task names the profile its caller
reads: a CSV sweep's cells format their rows into CSV text
(`io.csv_lines`) in the worker that solved them, so the parent only joins
strings in task order; a JSON sweep's, fig2's and fig3's cells return the
rows, and fig4's none.
A Doppler medium without a `d_max` is 200(1 + 4ξ²) deep.
Figure flags that are not given take the figure's defaults; the ones given
are checked as a sweep cell's fields are, and a flag the figure does not
read is refused.

Exit codes: 0 ok; 2 spec validation failure, raised before any cell runs;
3 a grid cell of a sweep or a figure hit a numerical instability.  Every
solver raises NonConvergence when a steady state is not reached; a cell
that raises it, fig7's one CE2 solve included, is recorded in the manifest
("unresolved"; fig4's scatter under "scatter_unresolved") and left out of
the tables, not fatal.  Every figure's manifest carries "unresolved", an
empty list when nothing missed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, fields
from functools import partial
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from .analytic import mean_polarization
from .cumulant import CE2_MAX_SITES, inelastic_saturation, solve_ce2
from .doppler import DopplerParams, doppler_profile
from .ensemble import env_jobs, process_map, run_ensemble
from .errors import NonConvergence, NumericalInstability
from .io import (CE2_PAIR_COLS, CE2_PROFILE_COLS, DOPPLER_PROFILE_COLS,
                 ENSEMBLE_PROFILE_COLS, MEANFIELD_PROFILE_COLS,
                 ce2_profile_rows, csv_lines, doppler_profile_rows,
                 ensemble_profile_rows, meanfield_profile_rows, write_csv,
                 write_cumulant_pair_csv, write_json)
from .meanfield import field_observables, solve_steady_state
from .params import ModelParams, build_chain

MODELS = ("BWM", "EAM", "DM", "UWM", "CE2-UWM", "DOPPLER")
AXES = ("eta", "s0", "s_tilde", "D")

_SCALAR_COLS = ("s_out_right", "s_out_left", "j_z", "s_ie_total")
_PROFILE_COLS = {"DOPPLER": DOPPLER_PROFILE_COLS, "CE2-UWM": CE2_PROFILE_COLS}

# fixed sweep fields, (default, help); --<name> overrides as type(default)
_FIELDS = {"N": (100, "emitter / site count"), "beta": (0.005, None),
           "s0": (2.0, None), "eta": (0.0, None), "seed": (0, None),
           "k0": (1.0, "mean spacing in λ/2 units"),
           "xi": (0.0, "Doppler width ξ_Δ"), "d_max": (0.0, None),
           "stream": (0, "chain realization stream")}
_DEFAULTS = {name: default for name, (default, _) in _FIELDS.items()}


class SpecError(Exception):
    """Sweep/figure spec validation failure (CLI exit code 2)."""


# --- sweep spec --------------------------------------------------------------


@dataclass
class Axis:
    name: str
    kind: str      # "log" | "lin"
    lo: float
    hi: float
    n: int

    def values(self) -> np.ndarray:
        if self.n == 1:
            return np.array([self.lo])
        if self.kind == "log":
            return np.geomspace(self.lo, self.hi, self.n)
        return np.linspace(self.lo, self.hi, self.n)


def _parse_axis(text: str) -> Axis:
    # grammar: name=kind:lo..hi:n  e.g. s0=log:2.4..80:7
    try:
        name, rest = text.split("=", 1)
        kind, rng, n = rest.split(":")
        lo, hi = rng.split("..")
        ax = Axis(name=name.strip(), kind=kind.strip(),
                  lo=float(lo), hi=float(hi), n=int(n))
    except (ValueError, AttributeError):
        raise SpecError(f"axis {text!r}: expected name=log|lin:lo..hi:n")
    if ax.name not in AXES:
        raise SpecError(f"axis {text!r}: unknown axis name "
                        f"(choose from {', '.join(AXES)})")
    if ax.kind not in ("log", "lin"):
        raise SpecError(f"axis {text!r}: kind must be 'log' or 'lin'")
    if ax.n < 1:
        raise SpecError(f"axis {text!r}: grid size must be >= 1")
    if ax.kind == "log" and (ax.lo <= 0 or ax.hi <= 0):
        raise SpecError(f"axis {text!r}: log axis needs positive bounds")
    return ax


@dataclass
class SweepSpec:
    model: str
    axes: List[Axis]
    fixed: dict
    out: str = "sweep"
    format: str = "csv"
    jobs: int = 0          # 0 = auto

    def validate(self):
        if self.model not in MODELS:
            raise SpecError(f"model {self.model!r}: choose from "
                            f"{', '.join(MODELS)}")
        if not 1 <= len(self.axes) <= 2:
            raise SpecError("need one or two --axis specifications")
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise SpecError("axes must be distinct")
        if self.format not in ("csv", "json"):
            raise SpecError("format must be csv or json")
        if self.model == "DOPPLER" and "eta" in names:
            raise SpecError("DOPPLER has no disorder axis eta")
        for task in self.tasks():
            _check_fields(self.model, _cell_config(self.model, self.fixed,
                                                   task["coords"]))

    def tasks(self) -> List[dict]:
        return _grid_tasks(self.model, [(a.name, a.values())
                                        for a in self.axes], self.fixed,
                           "csv" if self.format == "csv" else "rows")


def _check_fields(model: str, cfg: dict):
    """Reject a configuration the solvers would refuse."""
    if cfg["N"] < 1:
        raise SpecError("field N: need at least one emitter")
    if model == "CE2-UWM" and cfg["N"] > CE2_MAX_SITES:
        raise SpecError(f"field N: CE2 admits at most {CE2_MAX_SITES} sites")
    if not 0.0 <= cfg["beta"] <= 0.5:
        raise SpecError(f"field beta = {cfg['beta']!r}: must lie in [0, 1/2]")
    if min(cfg[k] for k in ("s0", "eta", "xi", "d_max", "seed", "stream")) < 0:
        raise SpecError("fields s0, eta, xi, d_max, seed, stream must be >= 0")
    if model != "DOPPLER" and cfg["xi"] != 0.0:
        raise SpecError(f"field xi = {cfg['xi']!r}: only DOPPLER has a "
                        "Doppler width")
    if model in ("EAM", "DM") and not float(cfg["k0"]).is_integer():
        raise SpecError(f"field k0 = {cfg['k0']!r}: {model} is a "
                        "Bragg-lattice limit, k0 must be a whole number")


def _spec_from_args(args) -> SweepSpec:
    base: dict = {}
    if args.spec:
        try:
            base = json.loads(Path(args.spec).read_text())
        except OSError as exc:
            raise SpecError(f"spec file: {exc}")
        except json.JSONDecodeError as exc:
            raise SpecError(f"spec file line {exc.lineno}: {exc.msg}")
        if not isinstance(base, dict):
            raise SpecError("spec file: expected a JSON object")
    unknown = set(base) - {f.name for f in fields(SweepSpec)}
    if unknown:
        raise SpecError(f"spec file: unknown keys {sorted(unknown)}")
    fixed = dict(_DEFAULTS)
    fixed.update(base.get("fixed", {}))
    unknown = set(fixed) - set(_DEFAULTS)
    if unknown:
        raise SpecError(f"spec file fixed: unknown fields {sorted(unknown)}")

    axes = []
    for a in base.get("axes", []):
        if not isinstance(a, str):  # the grammar form only, as --axis
            raise SpecError(f"spec file axis {a!r}: expected a string "
                            "name=log|lin:lo..hi:n")
        axes.append(_parse_axis(a))
    if args.axis:
        axes = [_parse_axis(t) for t in args.axis]
    for name, default in _DEFAULTS.items():
        if getattr(args, name) is not None:
            fixed[name] = getattr(args, name)
        try:
            fixed[name] = type(default)(fixed[name])
        except (TypeError, ValueError):
            raise SpecError(f"field {name}: expected a number") from None

    model = args.model or base.get("model")
    if not model:
        raise SpecError("no model given (--model or spec file)")
    spec = SweepSpec(model=model, axes=axes, fixed=fixed,
                     out=args.out or base.get("out", "sweep"),
                     format=args.format or base.get("format", "csv"),
                     jobs=_resolve_jobs(args.jobs if args.jobs is not None
                                        else base.get("jobs", 0)))
    spec.validate()
    return spec


def _resolve_jobs(jobs: int) -> int:
    if jobs and jobs > 0:
        return jobs
    try:
        return max(1, env_jobs(os.cpu_count() or 1))
    except ValueError as exc:
        raise SpecError(str(exc)) from None


# --- grid-cell evaluation ----------------------------------------------------


def _doppler_depth(cfg: dict) -> float:
    """Depth of a Doppler medium: `d_max`, or 200(1 + 4ξ²) when it is 0."""
    return cfg["d_max"] or 200.0 * (1.0 + 4.0 * cfg["xi"] ** 2)


def _cell_config(model: str, fixed: dict,
                 coords: List[Tuple[str, float]]) -> dict:
    cfg = dict(fixed)
    # depth first so an s_tilde coordinate sees the cell's own D
    for name, v in sorted(coords, key=lambda c: c[0] != "D"):
        if name == "D":
            if model == "DOPPLER":
                cfg["d_max"] = v
            else:
                cfg["beta"] = v / (4.0 * cfg["N"])
        elif name == "s_tilde":
            cfg["s0"] = v * (_doppler_depth(cfg) if model == "DOPPLER"
                             else 4.0 * cfg["beta"] * cfg["N"])
        else:
            cfg[name] = v
    return cfg


def _grid_tasks(model: str, axes: List[Tuple[str, np.ndarray]],
                fixed: dict, profile: Optional[str]) -> List[dict]:
    """One task per grid point of the named axes, the last varying fastest.
    `profile` is what each cell returns of its profile: "csv" (the text of
    its CSV lines), "rows", or None (nothing)."""
    grids = [[(name, float(v)) for v in values] for name, values in axes]
    return [{"model": model, "fixed": fixed, "coords": list(c),
             "profile": profile}
            for c in itertools.product(*grids)]


def _eval_cell(task: dict) -> dict:
    """One grid cell; returns its profile in the form the task names, a
    scalar row, and a status.  The figures' model "ENSEMBLE" (not in MODELS)
    returns a `run_ensemble` report of M realizations instead of a scalar
    row, run serially: the grid is the parallel level, pools never nest."""
    model = task["model"]
    coords = task["coords"]
    cfg = _cell_config(model, task["fixed"], coords)
    prefix = [v for _, v in coords]
    out = {"coords": coords, "profile": None, "scalar": None,
           "status": "ok"}
    nan = float("nan")
    try:
        if model == "DOPPLER":
            p = DopplerParams(xi_delta=cfg["xi"], s0=cfg["s0"],
                              d_max=_doppler_depth(cfg))
            prof = doppler_profile(p)
            rows = partial(doppler_profile_rows, p, prof)
            out["scalar"] = prefix + [float(prof[-1, 1]), nan, nan, nan]
        elif model == "CE2-UWM":
            params = ModelParams.from_beta(beta=cfg["beta"], s0=cfg["s0"],
                                           n_emitters=cfg["N"],
                                           seed=cfg["seed"])
            sol = solve_ce2(params)
            rows = partial(ce2_profile_rows, sol, cfg["s0"])
            out["scalar"] = prefix + [nan, nan,
                                      float(np.mean(sol.sigma_z)),
                                      inelastic_saturation(sol)]
        else:
            params = ModelParams.from_beta(beta=cfg["beta"], s0=cfg["s0"],
                                           n_emitters=cfg["N"],
                                           eta=cfg["eta"], seed=cfg["seed"],
                                           k0_spacing=cfg["k0"])
            if model == "ENSEMBLE":
                rep = out["report"] = run_ensemble(params, M=cfg["M"], jobs=1)
                rows = partial(ensemble_profile_rows, params, rep)
            else:
                chain = (build_chain(params, stream=cfg["stream"])
                         if model == "BWM" else None)
                sol = solve_steady_state(model, params, chain)
                obs = field_observables(sol, params, chain)
                rows = partial(meanfield_profile_rows, params, sol)
                out["scalar"] = prefix + [obs.s_out_right, obs.s_out_left,
                                          float(np.mean(sol.sigma_z)), nan]
        if task["profile"] is not None:
            table = [prefix + row for row in rows()]
            out["profile"] = (csv_lines(table) if task["profile"] == "csv"
                              else table)
    except NonConvergence:
        out["status"] = "unresolved"
    except NumericalInstability:
        out["status"] = "instability"
    return out


def _run_grid(tasks: List[dict], jobs: int):
    """`_eval_cell` over `tasks` on `jobs` processes: the solved cells'
    results, then the unresolved and the unstable cells' coordinates."""
    split = {"ok": [], "unresolved": [], "instability": []}
    for r in process_map(_eval_cell, tasks, jobs):
        split[r["status"]].append(r if r["status"] == "ok" else r["coords"])
    return split["ok"], split["unresolved"], split["instability"]


def cmd_sweep(args) -> int:
    spec = _spec_from_args(args)
    t0 = time.time()

    names = [a.name for a in spec.axes]
    tasks = spec.tasks()
    solved, unresolved, instability = _run_grid(tasks, spec.jobs)

    prof_cols = _PROFILE_COLS.get(spec.model, MEANFIELD_PROFILE_COLS)
    # CSV cells bring their lines as text, JSON cells their rows
    prof_rows = ("".join(r["profile"] for r in solved)
                 if spec.format == "csv"
                 else [row for r in solved for row in r["profile"]])
    tables = {"profile": (names + list(prof_cols), prof_rows),
              "scalars": (names + list(_SCALAR_COLS),
                          [r["scalar"] for r in solved])}
    base = Path(spec.out)
    if spec.format == "csv":
        outputs = [write_csv(base.parent / f"{base.name}_{key}.csv", *table)
                   for key, table in tables.items()]
    else:
        outputs = [write_json(base.parent / f"{base.name}_data.json",
                              {key: {"columns": cols, "rows": rows}
                               for key, (cols, rows) in tables.items()})]
    outputs = [str(path) for path in outputs]

    manifest = {
        "spec": asdict(spec),
        "version": _version(),
        "seed": spec.fixed["seed"],
        "wall_time_s": time.time() - t0,
        "cells": len(tasks),
        "unresolved": unresolved,
        "unresolved_count": len(unresolved),
        "instability": instability,
        "outputs": outputs,
    }
    write_json(base.parent / (base.name + ".manifest.json"), manifest)
    print(f"{len(tasks)} cells -> {', '.join(outputs)}"
          f" ({len(unresolved)} unresolved)")
    if instability:
        print(f"numerical instability in {len(instability)} cells",
              file=sys.stderr)
        return 3
    return 0


# --- figure registry ---------------------------------------------------------


def _fig_dir(args, name: str) -> Path:
    d = Path(args.out or f"fig_{name}")
    d.mkdir(parents=True, exist_ok=True)
    return d


def _fig_fields(args, model: str, **defaults) -> dict:
    """The figure's fields named in `defaults`: the flag's value where it
    was given (not None), else the default, checked by `_check_fields` as
    a `model` cell's; M, the realization count, must be >= 1."""
    cfg = {name: default if getattr(args, name) is None
           else getattr(args, name) for name, default in defaults.items()}
    _check_fields(model, dict(_DEFAULTS, **cfg))
    if cfg.get("M", 1) < 1:
        raise SpecError("field M: need at least one realization")
    return cfg


def _fig_grid(args, tasks: List[dict]):
    """A figure's `_run_grid` on `--jobs` processes, less the unstable
    cells: any of those raises NumericalInstability (exit 3)."""
    solved, unresolved, unstable = _run_grid(tasks, _resolve_jobs(args.jobs))
    if unstable:
        raise NumericalInstability(f"{len(unstable)} cells, the first "
                                   f"{unstable[0]}")
    return solved, unresolved


def _fig2(args, manifest: dict) -> List[str]:
    """Steady-state inversion profiles across drive strengths (two
    directional limits), N=2000, β=0.005, s0 log-spaced 2.4..80."""
    cfg = _fig_fields(args, "UWM", N=2000, beta=0.005)
    s0s = np.geomspace(2.4, 80.0, 7)
    # a leading model coordinate heads each row and each unresolved cell
    tasks = [dict(task, coords=[("model", model)] + task["coords"])
             for model in ("UWM", "DM")
             for task in _grid_tasks(model, [("s0", s0s)],
                                     dict(_DEFAULTS, **cfg), "rows")]
    solved, unresolved = _fig_grid(args, tasks)
    rows = [(model, s0, site, D, z) for r in solved
            for model, s0, site, D, _, _, z, *_ in r["profile"]]
    out = _fig_dir(args, "fig2")
    path = write_csv(out / "inversion_profiles.csv",
                     ["model", "s0", "site", "D_i", "sigma_z"], rows)
    manifest["params"] = dict(cfg, s0_grid=list(map(float, s0s)))
    manifest["unresolved"] = unresolved
    return [str(path)]


def _fig3(args, manifest: dict) -> List[str]:
    """Realization-vs-equation averaging maps over disorder strength."""
    cfg = _fig_fields(args, "EAM", N=2000, beta=0.005, s0=20.0, M=20, seed=0)
    etas = np.geomspace(1e-3, 0.3, 7)
    solved, unresolved = _fig_grid(args, _grid_tasks(
        "ENSEMBLE", [("eta", etas)], dict(_DEFAULTS, **cfg), "rows"))
    out = _fig_dir(args, "fig3")
    path = write_csv(out / "ensemble_maps.csv",
                     ("eta",) + ENSEMBLE_PROFILE_COLS,
                     [row for r in solved for row in r["profile"]])
    manifest["params"] = {
        "N": cfg["N"], "beta": cfg["beta"], "s0": cfg["s0"], "M": cfg["M"],
        "eta_grid": list(map(float, etas)),
        "excluded": {f"{r['coords'][0][1]:.6g}": r["report"].excluded
                     for r in solved}}
    manifest["unresolved"] = unresolved
    return [str(path)]


def _fig4(args, manifest: dict) -> List[str]:
    """Output-saturation maps over (η, s̃) for the disorder-averaged model,
    plus per-realization output scatter at three disorder strengths.

    Desk-scale reduction: 20×30 heatmap grid (paper-scale grids are an
    override away) and M=6 realizations at N=500 for the scatter."""
    cfg = _fig_fields(args, "EAM", N=1000, beta=0.005, M=6, seed=0)
    n, beta = cfg["N"], cfg["beta"]
    etas = np.geomspace(1e-3, 1.0, 20)
    stils = np.linspace(0.05, 4.0, 30)
    fixed = dict(_DEFAULTS, **cfg)
    heat, unresolved = _fig_grid(args, _grid_tasks(
        "EAM", [("eta", etas), ("s_tilde", stils)], fixed, None))
    heat_cols = ("eta", "s_tilde", "s_out_right", "s_out_left")
    heat_rows = [r["scalar"][:4] for r in heat]    # the scalar row's head

    n_sc = min(500, n)
    scatter, scat_unresolved = _fig_grid(args, _grid_tasks(
        "ENSEMBLE", [("eta", (0.001, 0.02, 0.1)),
                     ("s_tilde", np.linspace(0.25, 3.0, 8))],
        dict(fixed, N=n_sc), None))
    scat_rows = [[v for _, v in r["coords"]] + [mu, *o] for r in scatter
                 for mu, o in enumerate(r["report"].per_realization_outputs)]

    out = _fig_dir(args, "fig4")
    paths = [
        write_csv(out / "output_heatmap.csv", heat_cols, heat_rows),
        write_csv(out / "realization_scatter.csv",
                  ["eta", "s_tilde", "realization", "s_out_right",
                   "s_out_left"], scat_rows),
    ]
    manifest["params"] = {"N": n, "beta": beta,
                          "heatmap_grid": [len(etas), len(stils)],
                          "scatter": {"N": n_sc, "M": cfg["M"]}}
    manifest["reductions"] = ("heatmap 20x30 and scatter N=500/M=6 keep the "
                              "default run desk-sized; pass --N/--M to scale")
    manifest["unresolved"] = unresolved
    manifest["scatter_unresolved"] = scat_unresolved
    return [str(p) for p in paths]


def _fig5(args, manifest: dict) -> List[str]:
    """Medium-averaged inversion j_z vs normalized drive for three depths."""
    rows = []
    stils = np.linspace(0.05, 4.0, 160)
    for d_tot in (10.0, 40.0, 160.0):
        for st in stils:
            rows.append((d_tot, float(st),
                         mean_polarization(float(st * d_tot), d_tot)))
    out = _fig_dir(args, "fig5")
    path = write_csv(out / "jz_curves.csv", ["D", "s_tilde", "j_z"], rows)
    manifest["params"] = {"D_values": [10.0, 40.0, 160.0],
                          "s_tilde_grid": [0.05, 4.0, 160]}
    return [str(path)]


def _fig7(args, manifest: dict) -> List[str]:
    """Pair-correlation map and inelastic output profile (second-order
    cumulant run with D_i spanning [0, 2 s0]).  A solve that does not
    converge is listed as unresolved and leaves both tables header-only."""
    s0 = args.s0 if args.s0 is not None else 80.0
    n = args.sites if args.sites is not None else 200
    # D_N = 4βn = 2 s0; n < 1 is refused just below
    beta = s0 / (2.0 * n) if n > 0 else 0.0
    _check_fields("CE2-UWM", dict(_DEFAULTS, N=n, beta=beta, s0=s0))
    params = ModelParams.from_beta(beta=beta, s0=s0, n_emitters=n)
    out = _fig_dir(args, "fig7")
    pair, profile = out / "xx_cumulant_map.csv", out / "inelastic_profile.csv"
    manifest["params"] = {"s0": s0, "sites": n, "beta": beta}
    try:
        sol = solve_ce2(params)
    except NonConvergence:
        manifest["unresolved"] = [[("sites", n), ("s0", s0)]]
        return [str(write_csv(pair, CE2_PAIR_COLS, [])),
                str(write_csv(profile, CE2_PROFILE_COLS, []))]
    paths = [write_cumulant_pair_csv(pair, sol),
             write_csv(profile, CE2_PROFILE_COLS,
                       ce2_profile_rows(sol, sol.s0))]
    return [str(p) for p in paths]


def _fig8(args, manifest: dict) -> List[str]:
    """Transmission vs normalized drive for broadened media."""
    rows = []
    stils = np.arange(0.5, 1.5001, 0.025)
    for xi in (0.0, 1.0, 10.0, 37.0):
        d_max = _doppler_depth({"d_max": 0.0, "xi": xi})
        grid = np.array([0.0, d_max])
        for st in stils:
            s0 = float(st * d_max)
            prof = doppler_profile(DopplerParams(xi_delta=xi, s0=s0,
                                                 d_max=d_max, grid=grid))
            rows.append((xi, float(st), prof[-1, 1] / s0))
    out = _fig_dir(args, "fig8")
    path = write_csv(out / "transmission.csv",
                     ["xi_delta", "s_tilde", "transmission"], rows)
    manifest["params"] = {"xi_values": [0.0, 1.0, 10.0, 37.0],
                          "depth_rule": "D = 200*(1+4*xi^2)"}
    return [str(path)]


# figure flags besides --out and --jobs, (type, help); `_FIG_REGISTRY`
# maps each figure to its generator and the flags it reads
_FIG_FLAGS = {"N": (int, None), "M": (int, "realization count"),
              "beta": (float, None), "s0": (float, None),
              "sites": (int, "cumulant site count"), "seed": (int, None)}
_FIG_REGISTRY = {"fig2": (_fig2, ("N", "beta")),
                 "fig3": (_fig3, ("N", "beta", "s0", "M", "seed")),
                 "fig4": (_fig4, ("N", "beta", "M", "seed")),
                 "fig5": (_fig5, ()), "fig7": (_fig7, ("s0", "sites")),
                 "fig8": (_fig8, ())}


def cmd_fig(args) -> int:
    if args.name not in _FIG_REGISTRY:
        print(f"unknown figure {args.name!r}: choose from "
              f"{', '.join(_FIG_REGISTRY)}", file=sys.stderr)
        return 2
    generate, reads = _FIG_REGISTRY[args.name]
    for flag in _FIG_FLAGS:
        if flag not in reads and getattr(args, flag) is not None:
            raise SpecError(f"flag --{flag}: {args.name} does not read it")
    t0 = time.time()
    manifest = {"figure": args.name, "version": _version()}
    if "seed" in reads:
        manifest["seed"] = 0 if args.seed is None else args.seed
    outputs = generate(args, manifest)
    manifest.setdefault("unresolved", [])
    manifest["wall_time_s"] = time.time() - t0
    manifest["outputs"] = outputs
    out_dir = Path(outputs[0]).parent if outputs else _fig_dir(args, args.name)
    write_json(out_dir / "manifest.json", manifest)
    print(f"{args.name} -> {', '.join(outputs)}")
    return 0


# --- entry point -------------------------------------------------------------


def _version() -> str:
    from . import __version__
    return __version__


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cascadia",
        description="Driven waveguide-QED emitter chains: sweeps and "
                    "figure data.")
    sub = ap.add_subparsers(dest="command", required=True)

    sw = sub.add_parser("sweep", help="evaluate a solver over a 1D/2D grid")
    sw.add_argument("--spec", help="JSON sweep spec (flags override it)")
    sw.add_argument("--model", choices=MODELS)
    sw.add_argument("--axis", action="append",
                    help="name=log|lin:lo..hi:n (repeat for a 2D grid)")
    for name, (default, help_) in _FIELDS.items():
        sw.add_argument("--" + name.replace("_", "-"), dest=name,
                        type=type(default), help=help_)
    sw.add_argument("--out", help="output basename (default 'sweep')")
    sw.add_argument("--format", choices=("csv", "json"))
    sw.add_argument("--jobs", type=int)
    sw.set_defaults(func=cmd_sweep)

    fg = sub.add_parser("fig", help="run a pre-registered figure dataset")
    fg.add_argument("name", help="|".join(_FIG_REGISTRY))
    for name, (type_, help_) in _FIG_FLAGS.items():
        fg.add_argument("--" + name, type=type_, help=help_)
    fg.add_argument("--jobs", type=int)
    fg.add_argument("--out", help="output directory (default fig_<name>)")
    fg.set_defaults(func=cmd_fig)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except NumericalInstability as exc:
        print(f"numerical instability: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
