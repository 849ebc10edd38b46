"""Generalized photon-subtracted squeezed vacuum states for f-deformed
oscillators, with quadrature/photon-number squeezing and Wigner-function
nonclassicality diagnostics.

Closed-form Fock series live in :mod:`gpssvs.states` and
:mod:`gpssvs.observables`; an independent dense-operator route in
:mod:`gpssvs.oracle` backs the :mod:`gpssvs.verify` suite.  Only the
oracle routes use scipy, imported on their first call, so importing the
package loads numpy alone.  Every output
format (state, sweep, Wigner grid, verify report) is written by
:mod:`gpssvs.writers`, which the CLI shares.
"""

from .deform import HARMONIC, POSCHL_TELLER, CUSTOM, Nonlinearity
from .errors import (
    GpssvsError,
    TruncationError,
    ConvergenceError,
    AnnihilatedStateError,
    DimTooSmallError,
    MemoryBudgetError,
    InternalConsistencyError,
)
from .logseries import AdaptiveSum, adaptive_log_sum
from .states import (
    EVEN,
    ODD,
    SqueezeSpec,
    FockExpansion,
    pssvs,
    squeezed_vacuum,
    coefficients_by_recursion,
)
from .observables import (
    QuadratureReport,
    NumberStatsReport,
    SweepRow,
    SWEEP_QUANTITIES,
    expectation_moments,
    moments_from_distribution,
    quadrature_report,
    number_stats,
    sweep,
)
from .oracle import (
    OperatorWorkspace,
    build_workspace,
    squeeze_by_exponential,
    subtract_photons,
    annihilation_residual,
)
from .wigner import (
    WignerGrid,
    wigner_point,
    wigner_point_oracle,
    wigner_grid,
)
from .verify import CheckResult, VerifyReport, run_suite
from .writers import (
    write_state,
    write_state_csv,
    write_sweep,
    write_sweep_csv,
    write_wigner,
    write_wigner_csv,
    write_wigner_matrix,
    report_to_json,
    write_report,
)

__version__ = "0.1.0"

__all__ = [
    "HARMONIC", "POSCHL_TELLER", "CUSTOM", "Nonlinearity",
    "GpssvsError", "TruncationError", "ConvergenceError",
    "AnnihilatedStateError", "DimTooSmallError", "MemoryBudgetError",
    "InternalConsistencyError",
    "AdaptiveSum", "adaptive_log_sum",
    "EVEN", "ODD", "SqueezeSpec", "FockExpansion",
    "pssvs", "squeezed_vacuum", "coefficients_by_recursion",
    "QuadratureReport", "NumberStatsReport", "SweepRow", "SWEEP_QUANTITIES",
    "expectation_moments", "moments_from_distribution",
    "quadrature_report", "number_stats", "sweep",
    "OperatorWorkspace", "build_workspace", "squeeze_by_exponential",
    "subtract_photons", "annihilation_residual",
    "WignerGrid", "wigner_point", "wigner_point_oracle", "wigner_grid",
    "CheckResult", "VerifyReport", "run_suite",
    "write_state", "write_state_csv", "write_sweep", "write_sweep_csv",
    "write_wigner", "write_wigner_csv", "write_wigner_matrix",
    "report_to_json", "write_report",
    "__version__",
]
