"""Truncated-Fock-space dense-operator reference implementation.

Builds the deformed ladder matrices A, A†, B† on a finite Fock window,
exponentiates the generalized squeeze generator, and subtracts photons by
explicit matrix application.  Everything here is deliberately independent
of the closed-form series in ``states``: agreement between the two routes
is the package's main correctness check.

The window is finite, so results are trustworthy only while truncation
leaves the computed coefficients unchanged.  The exponential route checks
this directly: it repeats the exponential on a window WINDOW_MARGIN levels
larger and refuses (``DimTooSmallError``) when any shared coefficient
moves by more than TAIL_GUARD in amplitude.  Weight at the top of the
basis is no such check: the generator is non-normal and A² grows like
n² f(n)², so a window can hold 1e-4 of error in its interior while its
edge carries no visible weight.

scipy serves only the oracle routes: ``scipy.linalg.expm`` here and the
Laguerre polynomials of ``wigner.displacement_columns``.  Both are
imported on first use, so ``import gpssvs`` and the closed-form routes
never load scipy.
"""

from dataclasses import dataclass
import math

import numpy as np

from .deform import Nonlinearity, f_value_array
from .errors import AnnihilatedStateError, DimTooSmallError
from .states import EVEN, ODD, FockExpansion, SqueezeSpec

TAIL_GUARD = 1e-10
WINDOW_MARGIN = 16
MAX_ORACLE_R = 2.0


@dataclass(frozen=True, eq=False)
class OperatorWorkspace:
    """Dense A, A†, B† matrices for one nonlinearity on a Fock window."""

    dim: int
    a_matrix: np.ndarray
    a_dagger_matrix: np.ndarray
    b_dagger_matrix: np.ndarray
    nl: Nonlinearity


def build_workspace(nl: Nonlinearity, dim: int) -> OperatorWorkspace:
    """Dense ladder matrices: A|n> = sqrt(n) f(n)|n-1>, B†|n> = sqrt(n+1)/f(n+1)|n+1>."""
    if dim < 2:
        raise ValueError("dim must be at least 2")
    n = np.arange(1, dim)
    f = f_value_array(nl, n)
    lowering = np.sqrt(n) * f                   # <n-1|A|n>
    raising_b = np.sqrt(n) / f                  # <n|B†|n-1>
    a = np.diag(lowering.astype(complex), k=1)
    b_dag = np.diag(raising_b.astype(complex), k=-1)
    for mat in (a, b_dag):
        mat.flags.writeable = False
    a_dag = a.conj().T.copy()
    a_dag.flags.writeable = False
    return OperatorWorkspace(dim=dim, a_matrix=a, a_dagger_matrix=a_dag,
                             b_dagger_matrix=b_dag, nl=nl)


def _gauge_fixed(vec: np.ndarray) -> np.ndarray:
    """Normalize and rotate so the leading nonzero entry is real-positive."""
    norm = np.linalg.norm(vec)
    vec = vec / norm
    lead = np.flatnonzero(np.abs(vec) > 0.0)[0]
    return vec * np.exp(-1j * np.angle(vec[lead]))


def _expansion_from_vector(vec: np.ndarray, parity: str, nl: Nonlinearity,
                           spec: SqueezeSpec | None, tail_bound: float,
                           tol: float) -> FockExpansion:
    offset = 0 if parity == EVEN else 1
    comps = vec[offset::2]
    keep = np.flatnonzero(np.abs(comps) > 0.0)
    comps = comps[: (int(keep[-1]) + 1) if keep.size else 1]
    with np.errstate(divide="ignore"):
        log_mags = np.log(np.abs(comps))
    phases = np.angle(comps)
    for arr in (log_mags, phases):
        arr.flags.writeable = False
    return FockExpansion(parity=parity, log_mags=log_mags, phases=phases,
                         truncation=len(comps), tail_bound=tail_bound,
                         nl=nl, spec=spec, tol=tol)


def _exponential_vacuum(ws: OperatorWorkspace, zeta: complex) -> np.ndarray:
    """Normalized, gauge-fixed exp[(ζ*A² − ζB†²)/2]|0> on the window of ws.

    The generator only couples |n> to |n ± 2>, so the vacuum never leaves
    the even levels and only that block of it is exponentiated.
    """
    from scipy.linalg import expm

    a2 = ws.a_matrix @ ws.a_matrix
    bdag2 = ws.b_dagger_matrix @ ws.b_dagger_matrix
    gen = 0.5 * (np.conj(zeta) * a2 - zeta * bdag2)
    vec = np.zeros(ws.dim, dtype=complex)
    vec[::2] = expm(gen[::2, ::2])[:, 0]
    return _gauge_fixed(vec)


def squeeze_by_exponential(ws: OperatorWorkspace, r: float, theta: float) -> FockExpansion:
    """Apply exp[(ζ*A² − ζB†²)/2] to the vacuum on the truncated window.

    Uses scaling-and-squaring Padé exponentiation of the dense generator
    (it is non-normal, so no eigendecomposition) and renormalizes the
    leaked norm.  The result is then checked against the same exponential
    on a window WINDOW_MARGIN (16) levels larger: when any of the ws.dim
    shared coefficients moves by more than TAIL_GUARD (1e-10, an
    amplitude), the window has not converged and DimTooSmallError is
    raised.  The squared move, a weight like the series' tail bound, is
    stored as the expansion's tail_bound.  A custom table must therefore
    cover f up to ws.dim + WINDOW_MARGIN − 1, or the check raises
    TruncationError.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r > MAX_ORACLE_R:
        raise ValueError(
            f"the dense oracle is limited to r <= {MAX_ORACLE_R}; truncation "
            "leakage grows too fast beyond that")
    zeta = r * np.exp(1j * theta)
    vec = _exponential_vacuum(ws, zeta)
    wider = _exponential_vacuum(build_workspace(ws.nl, ws.dim + WINDOW_MARGIN), zeta)
    move = float(np.max(np.abs(vec - wider[: ws.dim])))
    if move > TAIL_GUARD:
        raise DimTooSmallError(
            f"coefficients move by {move:.3e} (> {TAIL_GUARD:.0e}) when the "
            f"window grows by {WINDOW_MARGIN}; dim {ws.dim} is too small for r = {r}")
    spec = SqueezeSpec(r, theta, 0, EVEN)
    return _expansion_from_vector(vec, EVEN, ws.nl, spec, move * move, TAIL_GUARD)


def annihilation_residual(ws: OperatorWorkspace, state: FockExpansion,
                          r: float, theta: float) -> float:
    """Norm of (cosh r · A + e^{iθ} sinh r · B†) applied to the state.

    The top two output components are excluded: they are contaminated by
    the basis edge, not by the state itself.
    """
    vec = state.dense(ws.dim)
    op_vec = (math.cosh(r) * (ws.a_matrix @ vec)
              + np.exp(1j * theta) * math.sinh(r) * (ws.b_dagger_matrix @ vec))
    return float(np.linalg.norm(op_vec[: ws.dim - 2]))


def _shifted_spec(spec: SqueezeSpec | None, count: int) -> SqueezeSpec | None:
    if spec is None or count == 0:
        return spec
    total = spec.photons_removed + count
    if total % 2 == 0:
        return SqueezeSpec(spec.r, spec.theta, total // 2, EVEN)
    return SqueezeSpec(spec.r, spec.theta, (total - 1) // 2, ODD)


def subtract_photons(ws: OperatorWorkspace, state: FockExpansion,
                     count: int) -> FockExpansion:
    """Apply the annihilation matrix count times, renormalize, fix gauge."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count == 0:
        return state
    vec = state.dense(ws.dim)
    in_norm = np.linalg.norm(vec)
    for _ in range(count):
        vec = ws.a_matrix @ vec
    if np.linalg.norm(vec) < 1e-14 * in_norm:
        raise AnnihilatedStateError(
            f"subtracting {count} photon(s) left no amplitude")
    vec = _gauge_fixed(vec)
    flips = count % 2
    parity = state.parity if flips == 0 else (ODD if state.parity == EVEN else EVEN)
    return _expansion_from_vector(vec, parity, ws.nl,
                                  _shifted_spec(state.spec, count),
                                  state.tail_bound, state.tol)
