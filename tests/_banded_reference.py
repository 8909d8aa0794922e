"""The mean-field Jacobian solve as the package assembled it before it wrote
the band in LAPACK's own layout: the reference the in-place assembly is
tested against.

`make_solve` is the former body of `meanfield._make_solve`, kept verbatim
but for the site block's call, which now takes the unpacked right-hand side:
it scatters each real 2×2 block into `scipy.linalg.solve_banded`'s (7, 4N)
storage through precomputed index arrays, copies the identity part per
solve, and lets `solve_banded` copy the band into `dgbsv`'s layout.  Both
paths hand the same numbers to the same `dgbsv`, so their results must be
equal bit for bit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.linalg import solve_banded

from cascadia.meanfield import _DrivePlan, _site_maps, _unpack


def make_solve(plan: _DrivePlan, detunings: Optional[np.ndarray]):
    """Exact solve of (I/δ − J(y)) x = r for the chain RHS, in O(N), by
    fancy-index assembly and `solve_banded`."""
    n, g = plan.n, plan.g
    c, v, w = plan.c, plan.v, plan.w
    cv = np.broadcast_to(c * v, (n,))[1:]
    gw = -1j * g * np.broadcast_to(w, (n,))
    col = 4 * np.arange(n)           # Re dF_i; dB_i sits at col + 2
    rows_f = np.maximum(col - 2, 0)  # the equation for F_i
    rows_b = col + 4                 # the equation for B_i
    rows_b[-1] = 4 * n - 2

    def block(rows, cols):
        # band-storage positions of the real 2×2 block at rows/cols (+0, +1)
        return [(3 + rows + dr - cols - dc, cols + dc)
                for dr, dc in ((0, 0), (0, 1), (1, 0), (1, 1))]

    def put(ab, where, p, q):
        # the real 2×2 block of x ↦ p x + q x̄
        for pos, e in zip(where, ((p + q).real, (q - p).imag,
                                  (p + q).imag, (p - q).real)):
            ab[pos] = e

    band = np.zeros((7, 4 * n))  # the identity part, copied per solve
    put(band, block(rows_f, col), 1.0, 0.0)
    put(band, block(rows_b, col + 2), 1.0, 0.0)
    f_prev = block(rows_f[1:], col[:-1]), block(rows_f[1:], col[:-1] + 2)
    b_next = block(rows_b[:-1], col[1:]), block(rows_b[:-1], col[1:] + 2)

    def solve(y, omega, delta, r):
        m, z = _unpack(y, n)
        a = plan.alpha(m, omega)
        tp, tq, q, dz = _site_maps(m, z, a, detunings, delta, *_unpack(r, n))
        # dm_i = A_i dF_i + W_i dB_i + q_i as (P, Q) pairs
        ap, aq = -1j * g * tp, 1j * g * tq
        wp, wq = gw * tp, np.conj(gw) * tq
        ab, rhs = band.copy(), np.zeros(4 * n)
        # dF_i − (1 + A_{i−1}) dF_{i−1} − W_{i−1} dB_{i−1} = q_{i−1}
        put(ab, f_prev[0], -1.0 - ap[:-1], -aq[:-1])
        put(ab, f_prev[1], -wp[:-1], -wq[:-1])
        rhs[rows_f[1:]], rhs[rows_f[1:] + 1] = q[:-1].real, q[:-1].imag
        # dB_i − c dB_{i+1} − cv_{i+1} (A dF + W dB)_{i+1} = cv_{i+1} q_{i+1}
        put(ab, b_next[0], -cv * ap[1:], -cv * aq[1:])
        put(ab, b_next[1], -c - cv * wp[1:], -cv * wq[1:])
        back = cv * q[1:]
        rhs[rows_b[:-1]], rhs[rows_b[:-1] + 1] = back.real, back.imag
        # a non-finite system gives a non-finite x, which the caller
        # refuses as it refuses a singular one
        x = solve_banded((3, 3), ab, rhs, check_finite=False).reshape(n, 4)
        da = -1j * g * ((x[:, 0] + 1j * x[:, 1]) + w * (x[:, 2] + 1j * x[:, 3]))
        dm = tp * da + tq * np.conj(da) + q
        return np.concatenate((dm.real, dm.imag, dz(da, dm)))

    return solve
