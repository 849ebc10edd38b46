"""Fock-basis construction of generalized squeezed vacuum and PSSVS.

A squeezed vacuum of a deformed oscillator lives on even Fock numbers:

    c_n ∝ (-1)^n e^{inθ} tanh^n(r) sqrt((2n)!) / (2^n n! f(2n)!)

Subtracting photons with the deformed annihilation operator A gives the
photon-subtracted squeezed vacuum states (PSSVS).  Removing 2m photons
keeps the state even with c on |2n> proportional to

    (-tanh r)^k e^{ikθ} (2k)! / (2^k k! sqrt((2n)!) f(2n)!),   k = m+n,

while removing 2m+1 photons gives odd support |2n+1> with k' = m+n+1 and
odd-index factorials.  Magnitudes are handled entirely in log space; the
global phase is fixed so the leading coefficient is real and positive.
"""

from dataclasses import dataclass
from functools import cached_property
import math

import numpy as np
from scipy.special import gammaln, xlogy

from .deform import Nonlinearity, f_value, log_f_factorial_array
from .errors import AnnihilatedStateError
from .logseries import AdaptiveSum, adaptive_log_sum

EVEN = "even"
ODD = "odd"

DEFAULT_TOL = 1e-12
DEFAULT_N_MAX = 100_000

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SqueezeSpec:
    """Full parameterization of one PSSVS.

    r is the squeezing magnitude, theta the squeezing phase (reduced to
    [0, 2π) on construction), m the pair-subtraction index: the even case
    removes 2m photons, the odd case 2m+1.
    """

    r: float
    theta: float = 0.0
    m: int = 0
    parity: str = EVEN

    def __post_init__(self):
        if not (math.isfinite(self.r) and math.isfinite(self.theta)):
            raise ValueError("r and theta must be finite")
        if self.r < 0:
            raise ValueError("r must be nonnegative")
        if self.m < 0 or int(self.m) != self.m:
            raise ValueError("m must be a nonnegative integer")
        if self.parity not in (EVEN, ODD):
            raise ValueError(f"parity must be {EVEN!r} or {ODD!r}")
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "theta", float(self.theta) % _TWO_PI)
        object.__setattr__(self, "m", int(self.m))

    @property
    def photons_removed(self) -> int:
        """Total photons subtracted from the squeezed vacuum."""
        return 2 * self.m + (1 if self.parity == ODD else 0)

    def describe(self) -> dict:
        return {"r": self.r, "theta": self.theta, "m": self.m, "parity": self.parity}


@dataclass(frozen=True, eq=False)
class FockExpansion:
    """Normalized coefficient vector over a single-parity Fock ladder.

    Entry j multiplies |2j> (even) or |2j+1> (odd).  Coefficients are
    stored as log-magnitude plus phase; ``coeffs`` materializes the
    normalized complex view.  tail_bound is the estimated relative weight
    of the discarded tail; tol is the tolerance the construction met.
    """

    parity: str
    log_mags: np.ndarray
    phases: np.ndarray
    truncation: int
    tail_bound: float
    nl: Nonlinearity
    spec: SqueezeSpec | None
    tol: float

    @cached_property
    def photon_numbers(self) -> np.ndarray:
        base = 0 if self.parity == EVEN else 1
        out = base + 2 * np.arange(self.truncation, dtype=np.int64)
        out.flags.writeable = False
        return out

    @cached_property
    def coeffs(self) -> np.ndarray:
        out = np.exp(self.log_mags + 1j * self.phases)
        out.flags.writeable = False
        return out

    @cached_property
    def probabilities(self) -> np.ndarray:
        out = np.exp(2.0 * self.log_mags)
        out.flags.writeable = False
        return out

    def dense(self, dim: int | None = None) -> np.ndarray:
        """Materialize as a dense Fock vector of length dim.

        dim defaults to the minimal length holding the support.  A dim
        smaller than the support is refused (it would silently drop
        amplitude), via DimTooSmallError.
        """
        from .errors import DimTooSmallError

        needed = int(self.photon_numbers[-1]) + 1
        if dim is None:
            dim = needed
        if dim < needed:
            raise DimTooSmallError(
                f"state support reaches |{needed - 1}> but dim is only {dim}")
        vec = np.zeros(dim, dtype=complex)
        vec[self.photon_numbers] = self.coeffs
        return vec


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _vacuum(nl: Nonlinearity, theta: float, tol: float) -> FockExpansion:
    return FockExpansion(
        parity=EVEN,
        log_mags=_freeze(np.zeros(1)),
        phases=_freeze(np.zeros(1)),
        truncation=1,
        tail_bound=0.0,
        nl=nl,
        spec=SqueezeSpec(0.0, theta, 0, EVEN),
        tol=tol,
    )


def _log_weight_fn(nl: Nonlinearity, spec: SqueezeSpec):
    """Log of the unnormalized |c_j|² for the PSSVS series of spec."""
    t = math.tanh(spec.r)
    m = spec.m
    if spec.parity == EVEN:
        def logw(js: np.ndarray) -> np.ndarray:
            k = m + js
            logc = (xlogy(k, t) - k * math.log(2.0) + gammaln(2 * k + 1)
                    - gammaln(k + 1) - 0.5 * gammaln(2 * js + 1)
                    - log_f_factorial_array(nl, 2 * js))
            return 2.0 * logc
    else:
        def logw(js: np.ndarray) -> np.ndarray:
            kp = m + js + 1
            logc = (xlogy(kp, t) - kp * math.log(2.0) + gammaln(2 * kp + 1)
                    - gammaln(kp + 1) - 0.5 * gammaln(2 * js + 2)
                    - log_f_factorial_array(nl, 2 * js + 1))
            return 2.0 * logc
    return logw


def _require_subtractable(spec: SqueezeSpec):
    if spec.r == 0.0 and spec.photons_removed > 0:
        raise AnnihilatedStateError(
            f"subtracting {spec.photons_removed} photon(s) from the vacuum "
            "annihilates the state; r must be positive")


def _expansion_from_scan(nl: Nonlinearity, spec: SqueezeSpec, tol: float,
                         scan: AdaptiveSum) -> FockExpansion:
    log_mags = 0.5 * scan.log_weights - 0.5 * scan.log_total
    phases = np.arange(scan.n_terms, dtype=float) * (spec.theta + math.pi)
    return FockExpansion(
        parity=spec.parity,
        log_mags=_freeze(log_mags),
        phases=_freeze(phases),
        truncation=scan.n_terms,
        tail_bound=scan.tail_rel,
        nl=nl,
        spec=spec,
        tol=tol,
    )


def pssvs(nl: Nonlinearity, spec: SqueezeSpec, tol: float = DEFAULT_TOL,
          n_max: int = DEFAULT_N_MAX) -> FockExpansion:
    """Build a normalized generalized PSSVS from its closed-form series.

    Raises AnnihilatedStateError when r = 0 with any subtraction requested,
    and ConvergenceError when n_max retained terms cannot push the relative
    tail below tol.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    _require_subtractable(spec)
    if spec.r == 0.0:
        return _vacuum(nl, spec.theta, tol)
    scan = adaptive_log_sum(_log_weight_fn(nl, spec), tol, n_max)
    return _expansion_from_scan(nl, spec, tol, scan)


def squeezed_vacuum(nl: Nonlinearity, r: float, theta: float,
                    tol: float = DEFAULT_TOL, n_max: int = DEFAULT_N_MAX) -> FockExpansion:
    """Generalized squeezed vacuum, the m = 0 even member of the family."""
    return pssvs(nl, SqueezeSpec(r, theta, 0, EVEN), tol=tol, n_max=n_max)


def coefficients_by_recursion(nl: Nonlinearity, r: float, theta: float,
                              tol: float = DEFAULT_TOL,
                              n_max: int = DEFAULT_N_MAX) -> FockExpansion:
    """Squeezed vacuum via the two-step coefficient recursion.

    C_{n+1} = -e^{iθ} tanh(r) sqrt(n/(n+1)) / (f(n) f(n+1)) · C_{n-1}
    on the even ladder, seeded at C_0 = 1 and normalized afterwards.  An
    independent route to squeezed_vacuum used for cross-checking.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if r < 0:
        raise ValueError("r must be nonnegative")
    spec = SqueezeSpec(r, theta, 0, EVEN)
    if r == 0.0:
        return _vacuum(nl, theta, tol)
    log_t = math.log(math.tanh(r))
    log_c: list[float] = [0.0]

    def logw(js: np.ndarray) -> np.ndarray:
        top = int(js.max())
        while len(log_c) <= top:
            j = len(log_c) - 1  # extend from |2j> to |2j+2>
            step = (log_t + 0.5 * (math.log(2 * j + 1) - math.log(2 * j + 2))
                    - math.log(f_value(nl, 2 * j + 1)) - math.log(f_value(nl, 2 * j + 2)))
            log_c.append(log_c[-1] + step)
        return 2.0 * np.array([log_c[j] for j in js])

    scan = adaptive_log_sum(logw, tol, n_max)
    return _expansion_from_scan(nl, spec, tol, scan)
