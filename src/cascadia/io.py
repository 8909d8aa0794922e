"""CSV / JSON serialization with a byte-determinism contract.

All floats are emitted with 17 significant digits ('%.17g'), which
round-trips IEEE doubles exactly, so identical inputs produce identical
bytes regardless of platform or worker scheduling.  Line endings are
fixed to '\\n'.

`_spec` states the format of each value type, and `fmt17` formats one
value by it.  `csv_lines` applies it a row at a time: one '%' format string
per tuple of value types, cached, with `fmt17` itself only for values that
no '%' spec formats exactly (booleans, unknown types).  Sweep workers call
`csv_lines` on their own cells, and `write_csv` takes either rows or that
text.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .cumulant import CumulantSolution, inelastic_saturation, sigma_xx_cumulant
from .doppler import DopplerParams
from .ensemble import EnsembleReport
from .meanfield import MeanFieldSolution
from .params import ModelParams

__all__ = ["fmt17", "csv_lines", "write_csv", "write_json", "MEANFIELD_PROFILE_COLS",
           "meanfield_profile_rows", "CE2_PROFILE_COLS", "ce2_profile_rows",
           "CE2_PAIR_COLS", "write_cumulant_pair_csv", "ENSEMBLE_PROFILE_COLS",
           "ensemble_profile_rows", "DOPPLER_PROFILE_COLS",
           "doppler_profile_rows"]


def fmt17(x) -> str:
    """Format one value: booleans as true/false, the rest by `_spec` or str."""
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x)).lower()
    spec = _spec(type(x))
    return str(x) if spec is None else spec % x


def _spec(kind: type) -> Optional[str]:
    """The '%' spec of a `kind` value, if one formats it exactly: integers
    in full, floats at 17 significant digits, strings as they are."""
    if issubclass(kind, (bool, np.bool_)):
        return None
    if issubclass(kind, (int, np.integer)):
        return "%d"
    if issubclass(kind, (float, np.floating)):
        return "%.17g"
    if issubclass(kind, str):
        return "%s"
    return None


@lru_cache(maxsize=256)   # keyed by tables' row layouts: a handful in a run
def _row_format(kinds: tuple):
    """(format string of one CSV line, positions left to `fmt17`)."""
    specs = [_spec(kind) for kind in kinds]
    loose = tuple(i for i, spec in enumerate(specs) if spec is None)
    return ",".join(spec or "%s" for spec in specs) + "\n", loose


def csv_lines(rows: Iterable[Sequence]) -> str:
    """The CSV lines of `rows`, each value formatted as by `fmt17`."""
    lines = []
    for row in rows:
        fmt, loose = _row_format(tuple(map(type, row)))
        if loose:
            row = list(row)
            for i in loose:
                row[i] = fmt17(row[i])
        lines.append(fmt % tuple(row))
    return "".join(lines)


def write_csv(path, header: Sequence[str],
              rows: Union[Iterable[Sequence], str]) -> Path:
    """Write a CSV table; `rows` is the rows or their `csv_lines` text."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(rows if isinstance(rows, str) else csv_lines(rows))
    return path


def write_json(path, payload: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    return path


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)!r}")


MEANFIELD_PROFILE_COLS = ("site", "D_i", "re_sigma_minus", "im_sigma_minus",
                          "sigma_z", "re_alpha", "im_alpha", "s_i")


def meanfield_profile_rows(params: ModelParams,
                           solution: MeanFieldSolution) -> list:
    """One row per site in the `MEANFIELD_PROFILE_COLS` layout."""
    beta = params.beta
    m, a = solution.sigma_minus, solution.alpha
    # plain floats, not numpy scalars: sweep workers pickle these rows, and
    # numpy scalars pickle several times slower.  This scalar form is the
    # package's only statement of s_i = 8|α_i|², and it stays scalar: a
    # vectorised np.abs differs from it in the last bit on some sites, which
    # would change the CSV bytes.
    s = [float(8.0 * abs(x) ** 2) for x in a]
    cols = zip(m.real.tolist(), m.imag.tolist(), solution.sigma_z.tolist(),
               a.real.tolist(), a.imag.tolist(), s)
    return [[i + 1, 4.0 * beta * (i + 1), *c] for i, c in enumerate(cols)]


CE2_PAIR_COLS = ("i", "j", "D_i", "D_j", "sigxx_cumulant")


def write_cumulant_pair_csv(path, sol: CumulantSolution) -> Path:
    """Pair-cumulant map, upper triangle, in the `CE2_PAIR_COLS` layout."""
    rows = []
    for i in range(1, sol.n + 1):       # 1-based site labels in the CSV
        for j in range(i + 1, sol.n + 1):
            rows.append((i, j, 4.0 * sol.beta * i, 4.0 * sol.beta * j,
                         sigma_xx_cumulant(sol, i - 1, j - 1)))
    return write_csv(path, CE2_PAIR_COLS, rows)


CE2_PROFILE_COLS = ("site", "D_i", "sigma_z", "s_ie_over_s0",
                    "nn_sigxx_cumulant")


def ce2_profile_rows(sol: CumulantSolution, s0: float) -> list:
    """One row per site in the `CE2_PROFILE_COLS` layout; the cumulative
    inelastic output is in units of `s0` (of 1 when s0 = 0)."""
    s0 = s0 if s0 > 0 else 1.0
    return [[i, 4.0 * sol.beta * i, float(sol.sigma_z[i - 1]),
             inelastic_saturation(sol, upto=i) / s0,
             sigma_xx_cumulant(sol, i - 1, i) if i < sol.n else float("nan")]
            for i in range(1, sol.n + 1)]


ENSEMBLE_PROFILE_COLS = ("site", "D_i", "mean_diff", "variance")


def ensemble_profile_rows(params: ModelParams, report: EnsembleReport) -> list:
    """One row per site in the `ENSEMBLE_PROFILE_COLS` layout."""
    cols = zip(report.mean_diff.tolist(), report.variance.tolist())
    return [[i + 1, 4.0 * params.beta * (i + 1), *c]
            for i, c in enumerate(cols)]


DOPPLER_PROFILE_COLS = ("D", "s", "s_over_s0")


def doppler_profile_rows(p: DopplerParams, profile: np.ndarray) -> list:
    """One row per depth sample in the `DOPPLER_PROFILE_COLS` layout."""
    s0 = p.s0 if p.s0 > 0 else 1.0
    return [[D, s, s / s0] for D, s in profile.tolist()]
