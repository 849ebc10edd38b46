"""Fock-basis construction of generalized squeezed vacuum and PSSVS.

Member q of the photon-subtracted squeezed vacuum family (PSSVS) is the
squeezed vacuum of a deformed oscillator with q photons removed by the
deformed annihilation operator A, so A|ψ_q> ∝ |ψ_{q+1}>.  Its support is
the Fock ladder n ≡ q (mod 2), and with k = (q + n)/2 the coefficient on
|n> is

    c_n ∝ (-e^{iθ} tanh r)^k (2k)! / (2^k k! sqrt(n!) f(n)!).

q = 0 is the squeezed vacuum itself; q = 2m keeps the state even and
q = 2m + 1 makes it odd.  Magnitudes are handled entirely in log space;
the global phase is fixed so the leading coefficient is real and
positive.
"""

from dataclasses import dataclass
from functools import cached_property
import math

import numpy as np

from .deform import Nonlinearity, f_value, log_f_factorial_array, log_factorial, xlogy
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


def _family_log_weight(nl: Nonlinearity, t: float, removed: int):
    """Log of the unnormalized |c_n|² of the member with ``removed`` photons
    subtracted, t = tanh r, as a function of the ladder index j: n = 2j + s,
    s = removed mod 2."""
    s = removed % 2

    def logw(js: np.ndarray) -> np.ndarray:
        n = 2 * js + s
        k = (removed + n) // 2
        logc = (xlogy(k, t) - k * math.log(2.0) + log_factorial(2 * k)
                - log_factorial(k) - 0.5 * log_factorial(n)
                - log_f_factorial_array(nl, n))
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


def _check_tol(tol: float) -> None:
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")


def pssvs(nl: Nonlinearity, spec: SqueezeSpec, tol: float = DEFAULT_TOL,
          n_max: int = DEFAULT_N_MAX) -> FockExpansion:
    """Build a normalized generalized PSSVS from its closed-form series.

    Raises AnnihilatedStateError when r = 0 with any subtraction requested,
    and ConvergenceError when n_max retained terms cannot push the relative
    tail below tol.
    """
    _check_tol(tol)
    _require_subtractable(spec)
    if spec.r == 0.0:
        return _vacuum(nl, spec.theta, tol)
    logw = _family_log_weight(nl, math.tanh(spec.r), spec.photons_removed)
    scan = adaptive_log_sum(logw, tol, n_max)
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
    _check_tol(tol)
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
