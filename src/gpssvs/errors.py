"""Exception types shared across the package.

Every domain failure derives from :class:`GpssvsError` so callers (and the
CLI) can distinguish "the requested computation is out of numerical reach"
from programming errors, which stay plain ``ValueError``/``TypeError``.
"""


class GpssvsError(Exception):
    """Base class for domain errors raised by this package."""


class TruncationError(GpssvsError):
    """A lookup table or basis window is too short for the requested index."""

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required


class ConvergenceError(GpssvsError):
    """A series failed to reach the requested tail tolerance under the cap."""

    def __init__(self, message: str, achieved_tail: float | None = None):
        super().__init__(message)
        self.achieved_tail = achieved_tail


class AnnihilatedStateError(GpssvsError):
    """Photon subtraction produced the null vector; no state to normalize."""


class DimTooSmallError(GpssvsError):
    """A dense-operator basis window is too small for the requested state.

    Raised when a state's support reaches beyond the window, when a
    computation drops too much of the norm out of it, and when a result
    has not converged in it: the result still moves as the window grows.
    """


class MemoryBudgetError(GpssvsError):
    """A computation's estimated working set exceeds the machine's physical memory.

    Raised before anything is allocated, so a request that cannot fit ends
    in an error instead of an out-of-memory kill.
    """


class InternalConsistencyError(GpssvsError):
    """Two internal evaluation routes disagreed beyond tolerance."""
