"""Deformation functions f(n), generalized factorials, commutator weights.

The deformed ladder algebra acts as A|n> = sqrt(n) f(n) |n-1> and
A†|n> = sqrt(n+1) f(n+1) |n+1>.  Every series downstream pulls its
f-dependence from here, in log space: the generalized factorial
f(n)! = f(1) f(2) ... f(n) overflows as a raw product near n ~ 150.

Three kinds are supported: the harmonic limit f ≡ 1, the Pöschl-Teller
well f(n) = sqrt(n + lambda + kappa), and a user-supplied positive table.

The log-gamma values the series need are read from tables:
``log_factorial`` (ln n!, one module table) and the Pöschl-Teller
f-factorial (ln Γ(n + 1 + λ + κ) − ln Γ(1 + λ + κ), one table per
Nonlinearity).  Each entry comes from ``math.lgamma`` on its own, never
from a running sum of logs whose rounding would grow with n, so an entry
does not depend on how far or in how many steps its table grew.  Tables
double whenever a lookup passes their end; a negative index raises
ValueError instead of wrapping around.  With ``xlogy`` this is all the
special-function support the production routes use: they need numpy
alone.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import TruncationError

HARMONIC = "harmonic"
POSCHL_TELLER = "poschl_teller"
CUSTOM = "custom"


@dataclass(frozen=True)
class Nonlinearity:
    """Descriptor of a deformation function f(n).

    Use the factory classmethods; the constructor validates but does not
    fill defaults.  pt_lambda/pt_kappa are the potential-well parameters
    (both must be >= 1/2); custom_table lists f(1), f(2), ... explicitly.
    """

    kind: str
    pt_lambda: float | None = None
    pt_kappa: float | None = None
    custom_table: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in (HARMONIC, POSCHL_TELLER, CUSTOM):
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")
        if self.kind == POSCHL_TELLER:
            if self.pt_lambda is None or self.pt_kappa is None:
                raise ValueError("poschl_teller needs pt_lambda and pt_kappa")
            if not all(0.5 <= v < math.inf for v in (self.pt_lambda, self.pt_kappa)):
                raise ValueError("poschl_teller requires finite pt_lambda >= 1/2 "
                                 "and pt_kappa >= 1/2")
            object.__setattr__(self, "_log_gamma", _LogGammaTable(self.pt_sum))
        if self.kind == CUSTOM:
            if not self.custom_table:
                raise ValueError("custom kind needs a nonempty table of f values")
            if not all(0 < v < math.inf for v in self.custom_table):
                raise ValueError("custom f values must all be positive and finite")
            # Cache cumulative log-products: entry j is ln f(1)...f(j).
            cum = np.concatenate([[0.0], np.cumsum(np.log(self.custom_table))])
            cum.flags.writeable = False
            object.__setattr__(self, "_log_cum", cum)

    @classmethod
    def harmonic(cls) -> "Nonlinearity":
        """Undeformed oscillator, f(n) = 1 for all n."""
        return cls(HARMONIC)

    @classmethod
    def poschl_teller(cls, pt_lambda: float = 1.5, pt_kappa: float = 1.5) -> "Nonlinearity":
        """Trigonometric Pöschl-Teller well, f(n) = sqrt(n + lambda + kappa)."""
        return cls(POSCHL_TELLER, pt_lambda=float(pt_lambda), pt_kappa=float(pt_kappa))

    @classmethod
    def custom(cls, values) -> "Nonlinearity":
        """Arbitrary deformation from an explicit table of f(1), f(2), ..."""
        return cls(CUSTOM, custom_table=tuple(float(v) for v in values))

    @property
    def pt_sum(self) -> float:
        """lambda + kappa, the shift appearing throughout the PT formulas."""
        if self.kind != POSCHL_TELLER:
            raise ValueError("pt_sum is defined for the poschl_teller kind only")
        return self.pt_lambda + self.pt_kappa

    def describe(self) -> dict:
        """JSON-friendly metadata for output sidecars."""
        out = {"kind": self.kind}
        if self.kind == POSCHL_TELLER:
            out["pt_lambda"] = self.pt_lambda
            out["pt_kappa"] = self.pt_kappa
        if self.kind == CUSTOM:
            out["table_length"] = len(self.custom_table)
        return out


class _LogGammaTable:
    """ln Γ(j + 1 + shift) − ln Γ(1 + shift) for j = 0, 1, ..., grown on demand."""

    INITIAL_SIZE = 256

    def __init__(self, shift: float):
        self.shift = float(shift)
        self.values = self._entries(0, self.INITIAL_SIZE)

    def _entries(self, start: int, stop: int) -> np.ndarray:
        base = math.lgamma(1.0 + self.shift)
        out = np.array([math.lgamma(j + 1.0 + self.shift) - base
                        for j in range(start, stop)])
        out.flags.writeable = False
        return out

    def lookup(self, n):
        """Entries at the integer index (or index array) n >= 0.

        The table is indexed directly and doubles only when that raises
        IndexError, which keeps a lookup near the cost of numpy indexing.
        """
        n = _indices(n)
        try:
            return self.values[n]
        except IndexError:
            need, size = int(n.max()) + 1, len(self.values)
            while size < need:
                size *= 2
            self.values = np.concatenate([self.values, self._entries(len(self.values), size)])
            self.values.flags.writeable = False
            return self.values[n]


def _indices(n) -> np.ndarray:
    """n as an integer array, refusing negatives (numpy would wrap them)."""
    n = np.asarray(n)
    if n.dtype.kind not in "iu":
        raise TypeError(f"indices must be integers, not {n.dtype}")
    # argmin is far cheaper than min() on the short arrays the series pass.
    if n.size and n.ravel()[n.argmin()] < 0:
        raise ValueError("n must be nonnegative")
    return n


_LOG_FACTORIAL = _LogGammaTable(0.0)


def log_factorial(n):
    """ln n! for an integer n >= 0 or an integer array of them."""
    return _LOG_FACTORIAL.lookup(n)


def xlogy(x, y):
    """x ln y, taken as 0 wherever x = 0 (also at y = 0), without warnings."""
    with np.errstate(divide="ignore"):
        return x * np.log(np.where(x == 0, 1.0, y))


def _check_custom_range(nl: Nonlinearity, n_max: int):
    table_len = len(nl.custom_table)
    if n_max > table_len:
        raise TruncationError(
            f"custom f table has {table_len} entries but f({n_max}) is required",
            required=int(n_max),
        )


def f_value_array(nl: Nonlinearity, n) -> np.ndarray:
    """f(n) for an integer array of indices n >= 0.

    Custom tables take f(0) = 1 by convention; the value never enters a
    series because every f(n) occurrence is weighted by n or starts at 1.
    """
    n = _indices(n)
    if nl.kind == HARMONIC:
        return np.ones(n.shape)
    if nl.kind == POSCHL_TELLER:
        return np.sqrt(n + nl.pt_sum)
    if n.size:
        _check_custom_range(nl, int(n.max()))
    table = np.concatenate([[1.0], nl.custom_table])
    return table[np.asarray(n, dtype=np.int64)]


def f_value(nl: Nonlinearity, n: int) -> float:
    """f(n) for a single index n >= 0."""
    return float(f_value_array(nl, np.array([n]))[0])


def log_f_factorial_array(nl: Nonlinearity, n) -> np.ndarray:
    """ln[f(1) f(2) ... f(n)] for an integer array of indices; n = 0 gives 0."""
    if nl.kind == POSCHL_TELLER:
        # sum_{j=1..n} 0.5 ln(j+s) telescopes through the gamma function.
        return 0.5 * nl._log_gamma.lookup(n)
    n = _indices(n)
    if nl.kind == HARMONIC:
        return np.zeros(n.shape)
    if n.size:
        _check_custom_range(nl, int(n.max()))
    return nl._log_cum[np.asarray(n, dtype=np.int64)]


def log_f_factorial(nl: Nonlinearity, n: int) -> float:
    """ln[f(1) ... f(n)] for a single index."""
    return float(log_f_factorial_array(nl, np.array([n]))[0])


def commutator_weight(nl: Nonlinearity, n: int) -> float:
    """Fock-diagonal weight of [A, A†]: (n+1) f²(n+1) − n f²(n)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    up = f_value(nl, n + 1)
    if n == 0:
        return up * up
    down = f_value(nl, n)
    return (n + 1) * up * up - n * down * down
