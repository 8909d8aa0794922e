"""Serialization layer and the sweep/figure command-line driver."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadia import (DopplerParams, ModelParams, RampSpec, SolverOptions,
                      build_chain, doppler_profile, run_ensemble, solve_ce2,
                      solve_steady_state, uwm_saturation)
from cascadia.cli import _DEFAULTS, _eval_cell, _grid_tasks, main
from cascadia.errors import NonConvergence, NumericalInstability
from cascadia.io import (CE2_PAIR_COLS, CE2_PROFILE_COLS,
                         DOPPLER_PROFILE_COLS, ENSEMBLE_PROFILE_COLS,
                         MEANFIELD_PROFILE_COLS,
                         ce2_profile_rows, csv_lines, doppler_profile_rows,
                         ensemble_profile_rows, fmt17, meanfield_profile_rows,
                         write_csv, write_cumulant_pair_csv)
from cascadia.steady import pseudo_transient


# --- float round-trip formatting -----------------------------------------------


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=300, deadline=None)
def test_fmt17_round_trips_doubles(x):
    assert float(fmt17(x)) == x


def test_fmt17_non_floats():
    assert fmt17(True) == "true"
    assert fmt17(False) == "false"
    assert fmt17(42) == "42"
    assert fmt17("site") == "site"


def _fmt17_lines(rows):
    return "".join(",".join(fmt17(x) for x in row) + "\n" for row in rows)


_MIXED = [1.0 / 3.0, np.float64(-2.5e-7), np.float32(0.1), 7, np.int64(-9),
          True, np.bool_(False), "UWM", float("nan"), float("inf"),
          -float("inf"), -0.0, 5e-324, 1.8e308, np.int32(3), 1 + 2j, None]


def test_csv_lines_is_the_fmt17_join():
    rows = [_MIXED, _MIXED[::-1], _MIXED[3:] + _MIXED[:3], [], [0.0],
            ("site", 1, 0.5)]
    assert csv_lines(rows) == _fmt17_lines(rows)


_VALUES = st.one_of(
    st.floats(), st.floats(width=32).map(np.float32),
    st.floats().map(np.float64), st.integers(),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64), st.booleans(),
    st.booleans().map(np.bool_), st.text())


@given(st.lists(st.lists(_VALUES, max_size=8), max_size=6))
@settings(max_examples=300, deadline=None)
def test_csv_lines_matches_fmt17(rows):
    assert csv_lines(rows) == _fmt17_lines(rows)


def test_write_csv_takes_rows_or_their_text(tmp_path):
    rows = [[1, 0.5, "x"], [2, float("nan"), True]]
    a = write_csv(tmp_path / "a.csv", ["i", "v", "w"], rows)
    b = write_csv(tmp_path / "b.csv", ["i", "v", "w"], csv_lines(rows))
    assert a.read_bytes() == b.read_bytes() == \
        b"i,v,w\n1,0.5,x\n2,nan,true\n"


# --- writers ---------------------------------------------------------------------


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_meanfield_writer(tmp_path):
    p = ModelParams.from_beta(beta=0.1, s0=2.0, n_emitters=4)
    sol = solve_steady_state("UWM", p)
    out = write_csv(tmp_path / "mf.csv", MEANFIELD_PROFILE_COLS,
                    meanfield_profile_rows(p, sol))
    header, rows = _read_csv(out)
    assert header == ["site", "D_i", "re_sigma_minus", "im_sigma_minus",
                      "sigma_z", "re_alpha", "im_alpha", "s_i"]
    assert len(rows) == 4
    assert [r[0] for r in rows] == ["1", "2", "3", "4"]
    assert float(rows[0][4]) == sol.sigma_z[0]


def test_cumulant_pair_writer(tmp_path):
    sol = solve_ce2(ModelParams.from_beta(beta=0.1, s0=3.0, n_emitters=3))
    out = write_cumulant_pair_csv(tmp_path / "xx.csv", sol)
    header, rows = _read_csv(out)
    assert header == ["i", "j", "D_i", "D_j", "sigxx_cumulant"]
    # upper triangle of a 3-chain: (1,2), (1,3), (2,3); labels are 1-based
    assert [(r[0], r[1]) for r in rows] == [("1", "2"), ("1", "3"), ("2", "3")]
    from cascadia import sigma_xx_cumulant
    assert float(rows[0][4]) == sigma_xx_cumulant(sol, 0, 1)


def test_ensemble_writer(tmp_path):
    p = ModelParams.from_beta(beta=0.05, s0=2.0, n_emitters=10, eta=0.03)
    rep = run_ensemble(p, M=2)
    out = write_csv(tmp_path / "ens.csv", ENSEMBLE_PROFILE_COLS,
                    ensemble_profile_rows(p, rep))
    header, rows = _read_csv(out)
    assert header == ["site", "D_i", "mean_diff", "variance"]
    assert len(rows) == 10


def test_doppler_writer(tmp_path):
    dp = DopplerParams(xi_delta=1.0, s0=5.0, d_max=20.0)
    prof = doppler_profile(dp)
    out = write_csv(tmp_path / "dop.csv", DOPPLER_PROFILE_COLS,
                    doppler_profile_rows(dp, prof))
    header, rows = _read_csv(out)
    assert header == ["D", "s", "s_over_s0"]
    # s/s0 runs from 1 at the input to the transmission at the far end
    assert float(rows[0][2]) == 1.0
    assert float(rows[-1][2]) == prof[-1, 1] / 5.0


# --- sweep driver -----------------------------------------------------------------


def test_sweep_writes_profile_scalars_manifest(tmp_path):
    out = tmp_path / "run"
    rc = main(["sweep", "--model", "UWM", "--axis", "s0=lin:1..5:3",
               "--N", "20", "--beta", "0.02", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "run_profile.csv")
    assert header[:2] == ["s0", "site"]
    assert len(rows) == 3 * 20
    sheader, srows = _read_csv(tmp_path / "run_scalars.csv")
    assert sheader == ["s0", "s_out_right", "s_out_left", "j_z", "s_ie_total"]
    assert len(srows) == 3

    man = json.loads((tmp_path / "run.manifest.json").read_text())
    assert man["cells"] == 3
    assert man["unresolved_count"] == 0
    assert man["instability"] == []
    assert man["spec"]["model"] == "UWM"
    assert len(man["outputs"]) == 2


def test_sweep_at_the_eam_phase_boundary_resolves(tmp_path):
    # two long-chain EAM cells whose solves once raised out of the sweep
    out = tmp_path / "eam"
    rc = main(["sweep", "--model", "EAM", "--axis", "s_tilde=lin:0.9..1:2",
               "--N", "12000", "--beta", "0.005", "--eta", "0.03",
               "--jobs", "1", "--out", str(out)])
    assert rc == 0
    man = json.loads((tmp_path / "eam.manifest.json").read_text())
    assert man["unresolved_count"] == 0 and man["instability"] == []
    _, srows = _read_csv(tmp_path / "eam_scalars.csv")
    assert len(srows) == 2


def test_sweep_profile_matches_meanfield_writer(tmp_path):
    # one BWM cell: the sweep's profile rows are `meanfield_profile_rows`
    # behind the axis column, in the same 17-digit text
    rc = main(["sweep", "--model", "BWM", "--axis", "eta=lin:0.05..0.05:1",
               "--N", "12", "--beta", "0.05", "--s0", "2.0", "--seed", "4",
               "--out", str(tmp_path / "cell")])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "cell_profile.csv")

    p = ModelParams.from_beta(beta=0.05, s0=2.0, n_emitters=12, eta=0.05,
                              seed=4)
    chain = build_chain(p, stream=0)
    sol = solve_steady_state("BWM", p, chain)
    assert header == ["eta", *MEANFIELD_PROFILE_COLS]
    assert [r[1:] for r in rows] == [[fmt17(x) for x in row]
                                     for row in meanfield_profile_rows(p, sol)]
    assert all(float(r[0]) == 0.05 for r in rows)


def test_sweep_profile_matches_ce2_rows(tmp_path):
    # one CE2 cell: the sweep's profile rows are `ce2_profile_rows` behind
    # the axis column, in the same 17-digit text
    rc = main(["sweep", "--model", "CE2-UWM", "--axis", "s0=lin:3..3:1",
               "--N", "6", "--beta", "0.1", "--out", str(tmp_path / "cell")])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "cell_profile.csv")

    sol = solve_ce2(ModelParams.from_beta(beta=0.1, s0=3.0, n_emitters=6))
    assert header == ["s0", *CE2_PROFILE_COLS]
    assert [r[1:] for r in rows] == [[fmt17(x) for x in row]
                                     for row in ce2_profile_rows(sol, 3.0)]


def test_sweep_profile_matches_doppler_writer(tmp_path):
    # s̃ = 0.5 on a medium of depth 20 is s0 = 10
    rc = main(["sweep", "--model", "DOPPLER", "--axis", "s_tilde=lin:0.5..0.5:1",
               "--xi", "1.0", "--d-max", "20", "--out", str(tmp_path / "cell")])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "cell_profile.csv")

    dp = DopplerParams(xi_delta=1.0, s0=10.0, d_max=20.0)
    assert header == ["s_tilde", *DOPPLER_PROFILE_COLS]
    assert [r[1:] for r in rows] == [
        [fmt17(x) for x in row]
        for row in doppler_profile_rows(dp, doppler_profile(dp))]


def test_doppler_sweep_default_depth(tmp_path):
    # without --d-max the medium is 200(1 + 4ξ²) = 1000 deep for ξ = 1, and
    # s̃ scales the input drive by that same depth
    args = ["sweep", "--model", "DOPPLER", "--axis", "s_tilde=lin:0.5..1.5:3",
            "--xi", "1"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--d-max", "1000", "--out", str(tmp_path / "b")]) == 0
    for table in ("profile", "scalars"):
        assert (tmp_path / f"a_{table}.csv").read_bytes() == \
               (tmp_path / f"b_{table}.csv").read_bytes()
    header, rows = _read_csv(tmp_path / "a_scalars.csv")
    right = header.index("s_out_right")
    assert all(float(r[right]) > 0 for r in rows)


def test_sweep_is_deterministic(tmp_path):
    args = ["sweep", "--model", "BWM", "--axis", "eta=log:0.01..0.1:2",
            "--N", "15", "--beta", "0.05", "--s0", "2.0"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b), "--jobs", "2"]) == 0
    assert (tmp_path / "a_profile.csv").read_bytes() == \
           (tmp_path / "b_profile.csv").read_bytes()
    assert (tmp_path / "a_scalars.csv").read_bytes() == \
           (tmp_path / "b_scalars.csv").read_bytes()


@pytest.mark.parametrize("argv", [
    ["--model", "UWM", "--axis", "s0=log:1..40:5", "--N", "30"],
    ["--model", "EAM", "--axis", "eta=log:0.01..1:2",
     "--axis", "s_tilde=lin:0.5..2:3", "--N", "20", "--beta", "0.05"],
    ["--model", "CE2-UWM", "--axis", "s0=lin:1..4:3", "--N", "8",
     "--beta", "0.05"],
    ["--model", "DOPPLER", "--axis", "s_tilde=lin:0.5..1.5:3", "--xi", "1",
     "--d-max", "30"],
], ids=["UWM", "EAM", "CE2-UWM", "DOPPLER"])
def test_profile_csv_is_jobs_invariant(argv, tmp_path):
    # each worker formats its own cells' lines; the parent joins them
    for jobs in ("1", "2"):
        assert main(["sweep", *argv, "--jobs", jobs,
                     "--out", str(tmp_path / f"j{jobs}")]) == 0
    for table in ("profile", "scalars"):
        assert (tmp_path / f"j1_{table}.csv").read_bytes() == \
               (tmp_path / f"j2_{table}.csv").read_bytes()


@pytest.mark.parametrize("argv", [
    ["fig2", "--N", "50"],
    ["fig3", "--N", "20", "--M", "2"],
    ["fig4", "--N", "10", "--M", "2"],
], ids=["fig2", "fig3", "fig4"])
def test_figure_csv_is_jobs_invariant(argv, tmp_path):
    # the figure's grid cells (fig3's and fig4's scatter cells whole
    # ensembles) map over the process pool
    for jobs in ("1", "2"):
        assert main(["fig", *argv, "--jobs", jobs,
                     "--out", str(tmp_path / f"j{jobs}")]) == 0
    one, two = tmp_path / "j1", tmp_path / "j2"
    csvs = sorted(p.name for p in one.glob("*.csv"))
    assert csvs == sorted(p.name for p in two.glob("*.csv")) and csvs
    for name in csvs:
        assert (one / name).read_bytes() == (two / name).read_bytes()


def test_json_sweep_rows_are_the_csv_lines(tmp_path):
    argv = ["sweep", "--model", "BWM", "--axis", "s0=lin:1..3:2", "--N", "9",
            "--beta", "0.05", "--eta", "0.1", "--out"]
    assert main(argv + [str(tmp_path / "c")]) == 0
    assert main(argv + [str(tmp_path / "j"), "--format", "json"]) == 0
    data = json.loads((tmp_path / "j_data.json").read_text())["profile"]
    text = (tmp_path / "c_profile.csv").read_text()
    assert text == ",".join(data["columns"]) + "\n" + \
        _fmt17_lines(data["rows"])


def test_cell_returns_the_profile_its_task_names():
    def cell(profile):
        task, = _grid_tasks("EAM", [("s0", [3.0])],
                            dict(_DEFAULTS, N=7, eta=0.2), profile)
        return _eval_cell(task)

    rows, text, none = cell("rows"), cell("csv"), cell(None)
    assert len(rows["profile"]) == 7
    assert text["profile"] == csv_lines(rows["profile"])
    assert none["profile"] is None
    assert csv_lines([none["scalar"]]) == csv_lines([rows["scalar"]]) == \
        csv_lines([text["scalar"]])


def test_sweep_two_axes_and_json_format(tmp_path):
    out = tmp_path / "grid"
    rc = main(["sweep", "--model", "DOPPLER", "--axis", "D=lin:5..10:2",
               "--axis", "s_tilde=lin:0.5..1.5:2", "--xi", "1.0",
               "--format", "json", "--out", str(out)])
    assert rc == 0
    data = json.loads((tmp_path / "grid_data.json").read_text())
    assert data["profile"]["columns"][:2] == ["D", "s_tilde"]
    assert len(data["scalars"]["rows"]) == 4


def test_sweep_ce2_smoke(tmp_path):
    out = tmp_path / "ce2"
    rc = main(["sweep", "--model", "CE2-UWM", "--axis", "s0=lin:2..4:2",
               "--N", "6", "--beta", "0.1", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "ce2_profile.csv")
    assert header == ["s0", "site", "D_i", "sigma_z", "s_ie_over_s0",
                      "nn_sigxx_cumulant"]
    assert len(rows) == 12


def test_spec_file_with_overrides(tmp_path):
    spec = {"model": "UWM", "axes": ["s0=lin:1..2:2"],
            "fixed": {"N": 10, "beta": 0.05}}
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(spec))
    rc = main(["sweep", "--spec", str(f), "--N", "12",
               "--out", str(tmp_path / "o")])
    assert rc == 0
    man = json.loads((tmp_path / "o.manifest.json").read_text())
    assert man["spec"]["fixed"]["N"] == 12  # flag override wins


@pytest.mark.parametrize("argv", [
    ["sweep", "--model", "UWM", "--axis", "s0=lin:1..2"],          # bad grammar
    ["sweep", "--model", "UWM", "--axis", "s0=log:0..2:4"],        # log needs > 0
    ["sweep", "--model", "UWM", "--axis", "bogus=lin:1..2:2"],     # unknown axis
    ["sweep", "--model", "UWM", "--axis", "s0=lin:1..2:2",
     "--beta", "0.7"],                                             # beta range
    ["sweep", "--model", "DOPPLER", "--axis", "eta=lin:0..1:2"],   # no eta here
    ["fig", "fig6"],                                               # no such figure
    # accepted by the flags, refused by the solvers: caught before any cell
    ["sweep", "--model", "UWM", "--axis", "D=lin:1..1000:3",
     "--N", "100"],                                                # beta = D/4N > 1/2
    ["sweep", "--model", "CE2-UWM", "--axis", "s0=lin:1..2:2",
     "--N", "600"],                                                # CE2 site cap
    ["fig", "fig7", "--sites", "600"],                             # CE2 site cap
    ["sweep", "--model", "BWM", "--axis", "eta=lin:0.01..0.1:2",
     "--seed", "-1"],                                              # negative seed
    # figure flags: checked as a sweep cell's, and 0 is not "not given"
    ["fig", "fig2", "--beta", "0.7", "--N", "10"],                 # beta range
    ["fig", "fig3", "--N", "10", "--M", "2", "--seed", "-1"],      # negative seed
    ["fig", "fig3", "--N", "10", "--M", "0"],                      # no realizations
    ["fig", "fig4", "--N", "0"],                                   # no emitters
    ["fig", "fig4", "--N", "10", "--beta", "-0.1"],                # beta range
    ["fig", "fig7", "--sites", "0"],                               # no sites
    # a field the model would ignore: its cells would equal the default's
    ["sweep", "--model", "EAM", "--axis", "s0=lin:1..2:2",
     "--xi", "0.5"],                                               # no Doppler
    ["sweep", "--model", "EAM", "--axis", "s0=lin:1..2:2",
     "--k0", "0.5"],                                               # off Bragg
    ["sweep", "--model", "DM", "--axis", "s0=lin:1..2:2",
     "--k0", "1.5"],                                               # off Bragg
])
def test_spec_errors_exit_2(argv, tmp_path, capsys):
    rc = main(argv + ["--out", str(tmp_path / "x")])
    assert rc == 2


@pytest.mark.parametrize("model,flag,field", [
    ("EAM", "--xi", "xi"), ("UWM", "--xi", "xi"), ("BWM", "--xi", "xi"),
    ("EAM", "--k0", "k0"), ("DM", "--k0", "k0")])
def test_ignored_field_is_refused_by_name(model, flag, field, tmp_path,
                                          capsys):
    rc = main(["sweep", "--model", model, "--axis", "s0=lin:1..2:2",
               "--N", "4", "--beta", "0.05", flag, "0.5",
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert f"field {field} = 0.5" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_unknown_model_is_an_argparse_error(tmp_path):
    # --model is argparse-restricted, so the failure is the standard
    # usage-error exit rather than a SpecError return
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--model", "XX", "--axis", "s0=lin:1..2:2",
              "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_bad_jobs_environment_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CASCADIA_JOBS", "abc")
    rc = main(["sweep", "--model", "UWM", "--axis", "s0=lin:1..2:2",
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "CASCADIA_JOBS" in capsys.readouterr().err


def test_bad_spec_file_key_exit_2(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"model": "UWM", "axes": ["s0=lin:1..2:2"],
                             "fixed": {"N": 5}, "surprise": 1}))
    rc = main(["sweep", "--spec", str(f), "--out", str(tmp_path / "y")])
    assert rc == 2


def test_spec_file_field_not_a_number_exit_2(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"model": "UWM", "axes": ["s0=lin:1..2:2"],
                             "fixed": {"N": "many"}}))
    rc = main(["sweep", "--spec", str(f), "--out", str(tmp_path / "y")])
    assert rc == 2


@pytest.mark.parametrize("axis", [
    {"name": "bogus", "kind": "cubic", "lo": 1, "hi": 2, "n": 3},
    {"name": "s0", "kind": "log", "lo": -1, "hi": 2, "n": 3}])
def test_spec_file_axis_object_exit_2(axis, tmp_path, capsys):
    # axes are grammar strings only, each checked as --axis is
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"model": "UWM", "axes": [axis]}))
    rc = main(["sweep", "--spec", str(f), "--out", str(tmp_path / "y")])
    assert rc == 2
    assert "expected a string" in capsys.readouterr().err
    assert not (tmp_path / "y").exists()


def test_fig7_profile_is_the_ce2_table(tmp_path):
    rc = main(["fig", "fig7", "--sites", "6", "--s0", "2",
               "--out", str(tmp_path / "f7")])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "f7" / "inelastic_profile.csv")
    assert header == list(CE2_PROFILE_COLS)
    assert len(rows) == 6


def test_figure_registry_smoke(tmp_path):
    rc = main(["fig", "fig8", "--out", str(tmp_path / "f8")])
    assert rc == 0
    man = json.loads((tmp_path / "f8" / "manifest.json").read_text())
    assert man["figure"] == "fig8"
    header, rows = _read_csv(tmp_path / "f8" / "transmission.csv")
    assert header == ["xi_delta", "s_tilde", "transmission"]
    assert len(rows) == 4 * 41


# the flags each figure does not read; --out and --jobs every figure takes
_UNREAD = {"fig2": ("M", "s0", "sites", "seed"), "fig3": ("sites",),
           "fig4": ("s0", "sites"),
           "fig5": ("N", "M", "beta", "s0", "sites", "seed"),
           "fig7": ("N", "M", "beta", "seed"),
           "fig8": ("N", "M", "beta", "s0", "sites", "seed")}


@pytest.mark.parametrize("fig,flag", [(fig, flag) for fig, flags
                                      in _UNREAD.items() for flag in flags])
def test_figure_refuses_a_flag_it_does_not_read(fig, flag, tmp_path, capsys):
    # an unread flag would leave the data at its default while the
    # manifest recorded the flag: refused by name before anything runs
    value = "0.3" if flag == "beta" else "9"
    rc = main(["fig", fig, "--" + flag, value, "--out", str(tmp_path / "x")])
    assert rc == 2
    assert f"flag --{flag}: {fig} does not read it" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_fig4_scatters_every_realization(tmp_path):
    rc = main(["fig", "fig4", "--N", "10", "--M", "2", "--jobs", "1",
               "--out", str(tmp_path / "f4")])
    assert rc == 0
    man = json.loads((tmp_path / "f4" / "manifest.json").read_text())
    assert man["scatter_unresolved"] == []
    header, rows = _read_csv(tmp_path / "f4" / "realization_scatter.csv")
    assert header == ["eta", "s_tilde", "realization", "s_out_right",
                      "s_out_left"]
    # 3 disorder strengths × 8 drives × M realizations, in realization order
    assert len(rows) == 3 * 8 * 2
    assert [r[2] for r in rows] == ["0", "1"] * 24
    assert len({(r[0], r[1]) for r in rows}) == 24
    outputs = np.array([[float(x) for x in r[3:]] for r in rows])
    assert np.all(np.isfinite(outputs)) and np.all(outputs >= 0.0)


def test_fig5_is_the_log_saturation_ratio(tmp_path):
    # j_z = ln(s(D)/s₀)/D along the Lambert-W profile
    rc = main(["fig", "fig5", "--out", str(tmp_path / "f5")])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "f5" / "jz_curves.csv")
    assert header == ["D", "s_tilde", "j_z"]
    assert len(rows) == 480
    d, st_, jz = np.array(rows, dtype=float).T
    assert sorted(set(d)) == [10.0, 40.0, 160.0]
    s0 = st_ * d
    ref = np.log(np.array([uwm_saturation(a, b) for a, b in zip(s0, d)])
                 / s0) / d
    assert np.max(np.abs(jz - ref)) <= 1e-13


def test_figures_list_unconverged_solves(tmp_path, monkeypatch):
    # two ΨTC steps converge no DM or EAM solve here: fig2 keeps only the
    # closed-form UWM profiles, fig3 and fig4 no ensemble at all
    monkeypatch.setattr("cascadia.steady._PTC_STEPS", 2)
    rc = main(["fig", "fig2", "--N", "50", "--jobs", "1",
               "--out", str(tmp_path / "f2")])
    assert rc == 0
    man = json.loads((tmp_path / "f2" / "manifest.json").read_text())
    assert len(man["unresolved"]) == 7
    assert all(c[0] == ["model", "DM"] for c in man["unresolved"])
    _, rows = _read_csv(tmp_path / "f2" / "inversion_profiles.csv")
    assert len(rows) == 7 * 50 and {r[0] for r in rows} == {"UWM"}

    rc = main(["fig", "fig3", "--N", "20", "--M", "2", "--jobs", "1",
               "--out", str(tmp_path / "f3")])
    assert rc == 0
    man = json.loads((tmp_path / "f3" / "manifest.json").read_text())
    assert [c[0][0] for c in man["unresolved"]] == ["eta"] * 7
    _, rows = _read_csv(tmp_path / "f3" / "ensemble_maps.csv")
    assert rows == []

    rc = main(["fig", "fig4", "--N", "10", "--M", "2", "--jobs", "1",
               "--out", str(tmp_path / "f4")])
    assert rc == 0
    man = json.loads((tmp_path / "f4" / "manifest.json").read_text())
    assert len(man["scatter_unresolved"]) == 24
    _, rows = _read_csv(tmp_path / "f4" / "realization_scatter.csv")
    assert rows == []


def test_fig7_lists_an_unconverged_solve(tmp_path, monkeypatch):
    # no CE2 solve reaches a zero residual: the cell is listed, both
    # tables keep their headers only, and the run exits 0
    monkeypatch.setattr("cascadia.steady.STEADY_RESIDUAL", 0.0)
    rc = main(["fig", "fig7", "--sites", "6", "--s0", "2",
               "--out", str(tmp_path / "f7")])
    assert rc == 0
    man = json.loads((tmp_path / "f7" / "manifest.json").read_text())
    assert man["unresolved"] == [[["sites", 6], ["s0", 2.0]]]
    for name, cols in (("xx_cumulant_map.csv", CE2_PAIR_COLS),
                       ("inelastic_profile.csv", CE2_PROFILE_COLS)):
        assert _read_csv(tmp_path / "f7" / name) == (list(cols), [])


@pytest.mark.parametrize("fig", ["fig2", "fig3", "fig4"])
def test_figure_instability_exits_3(fig, tmp_path, monkeypatch, capsys):
    # a figure's cell that hits a numerical instability stops the figure
    # with exit 3, as a sweep's does, instead of listing it as unresolved;
    # only N = 501 solves fail, so fig4's N = 500 scatter would succeed
    def unstable(fun, solve, y0, what):
        if "N = 501," in what:
            raise NumericalInstability("non-finite state")
        return pseudo_transient(fun, solve, y0, what)

    monkeypatch.setattr("cascadia.meanfield.pseudo_transient", unstable)
    argv = ["--N", "501"] + ([] if fig == "fig2" else ["--M", "1"])
    rc = main(["fig", fig, *argv, "--jobs", "1", "--out", str(tmp_path / "f")])
    assert rc == 3
    assert "numerical instability" in capsys.readouterr().err


def test_only_figures_that_draw_record_a_seed(tmp_path):
    for argv in (["fig2", "--N", "10"], ["fig5"],
                 ["fig7", "--sites", "6", "--s0", "2"], ["fig8"],
                 ["fig4", "--N", "10", "--M", "1", "--seed", "7"]):
        out = tmp_path / argv[0]
        assert main(["fig", *argv, "--jobs", "1", "--out", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man.get("seed") == (7 if argv[0] == "fig4" else None)


def test_every_figure_manifest_lists_its_misses(tmp_path):
    # one schema for misses: `unresolved` is in every figure's manifest, an
    # empty list when nothing missed, and fig4 lists its scatter's apart
    for argv in (["fig2", "--N", "50"], ["fig3", "--N", "20", "--M", "2"],
                 ["fig4", "--N", "10", "--M", "2"], ["fig5"],
                 ["fig7", "--sites", "6", "--s0", "2"], ["fig8"]):
        out = tmp_path / argv[0]
        assert main(["fig", *argv, "--jobs", "1", "--out", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["unresolved"] == []
        assert man.get("scatter_unresolved") == \
            ([] if argv[0] == "fig4" else None)


def test_unreached_steady_states_raise_in_every_layer(tmp_path, monkeypatch):
    # one convention: a mean-field solve that misses raises NonConvergence
    # naming the model, the cell, the stage and the residual, and each
    # consumer records the miss instead of reading a flag
    monkeypatch.setattr("cascadia.steady._PTC_STEPS", 2)
    p = ModelParams.from_beta(beta=0.005, s0=38.0, n_emitters=1000, seed=3)
    cell = r"not reached at N = 1000, β = 0\.005, s₀ = 38: residual \S+$"
    with pytest.raises(NonConvergence, match=r"^BWM steady state " + cell):
        solve_steady_state("BWM", p, build_chain(p))
    with pytest.raises(NonConvergence, match=r"^DM steady state " + cell):
        solve_steady_state("DM", p)
    with pytest.raises(NonConvergence, match=r"^EAM ramp step 1 of 40 at "
                                             r"s₀ = 0\.95 " + cell):
        solve_steady_state("EAM", p, opts=SolverOptions(
            ramp=RampSpec(0.0, 38.0, 400.0)))
    with pytest.raises(NonConvergence, match=r"^EAM steady state " + cell):
        run_ensemble(p, M=2, jobs=1)

    # a sweep lists its missed cell as unresolved and exits 0
    out = tmp_path / "sweep"
    rc = main(["sweep", "--model", "EAM", "--axis", "s0=lin:0..38:2",
               "--N", "1000", "--jobs", "1", "--out", str(out)])
    assert rc == 0
    man = json.loads((tmp_path / "sweep.manifest.json").read_text())
    assert man["unresolved"] == [[["s0", 38.0]]]
    _, rows = _read_csv(tmp_path / "sweep_scalars.csv")
    assert [float(r[0]) for r in rows] == [0.0]

    # a single missed realization is excluded as a NaN row: the reference
    # settles on the first call, realization μ on call μ + 2
    monkeypatch.undo()
    calls = []

    def second_realization_misses(fun, solve, y0, what):
        calls.append(what)
        if len(calls) == 3:
            raise NonConvergence(f"{what}: residual 1")
        return pseudo_transient(fun, solve, y0, what)

    monkeypatch.setattr("cascadia.meanfield.pseudo_transient",
                        second_realization_misses)
    rep = run_ensemble(ModelParams.from_beta(beta=0.005, s0=20.0,
                                             n_emitters=200, eta=0.05),
                       M=3, jobs=1)
    assert rep.excluded == 1 and len(calls) == 4
    assert np.isnan(rep.per_realization_outputs[1]).all()
    assert np.isfinite(rep.per_realization_outputs[[0, 2]]).all()


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "cli"
    # the child imports the same cascadia as this process (a checkout's
    # src/ via the pytest pythonpath, or an installed copy)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    r = subprocess.run(
        [sys.executable, "-m", "cascadia.cli", "sweep", "--model", "DM",
         "--axis", "s0=lin:1..2:2", "--N", "8", "--beta", "0.1",
         "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "cli_profile.csv").exists()
