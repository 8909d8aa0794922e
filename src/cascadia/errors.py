"""Exception types shared across solvers."""


class CascadiaError(Exception):
    """Base class for all package-specific errors."""


class NumericalInstability(CascadiaError):
    """A solve met numbers it cannot continue from: a non-finite
    steady-state iterate, a non-finite Doppler profile inversion, or an
    exact-oracle generator that does not preserve Hermiticity, is not
    finite, or gives a zero pivot in its shifted factor."""


class NonConvergence(CascadiaError):
    """A steady state was not reached: a continuation ran out of steps, a
    solve was singular, or the final residual stayed above its gate.

    ``site`` is set when a site-sequential solve can pinpoint the first
    emitter whose equations failed to settle.
    """

    def __init__(self, message: str, site: int | None = None):
        super().__init__(message)
        self.site = site


class NoPhysicalRoot(CascadiaError):
    """Root finding produced no admissible solution (e.g. all candidate
    saturation roots negative or complex)."""


class DimensionCap(CascadiaError):
    """Requested system size exceeds a hard solver limit (exact solver
    Hilbert-space cap, cumulant pair-state cap)."""
