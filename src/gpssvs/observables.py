"""Expectation-value series and squeezing diagnostics for PSSVS.

Two independent routes exist for every second moment of the ladder
operators.  The closed-form route evaluates the analytic series that the
PSSVS coefficients induce (positive terms, summed in log space); the
distribution route weighs the number-diagonal matrix elements with the
state's photon probabilities.  Their agreement validates both.

The closed-form series reuse the family weight of ``states``: with Z_q the
unnormalized weight sum of member q, ⟨A†A⟩_q = Z_{q+1}/Z_q (A maps ψ_q to ψ_{q+1}).

Quadratures are X = (A + A†)/√2 and P = (A − A†)/(i√2), and a variance
counts as squeezed when it drops below the Robertson bound evaluated in
the same state: ½|⟨AA†⟩ − ⟨A†A⟩| (squared-units comparison).
"""

from dataclasses import dataclass
import math

import numpy as np

from .deform import (Nonlinearity, POSCHL_TELLER, f_value, f_value_array,
                     log_f_factorial_array, log_factorial)
from .errors import (AnnihilatedStateError, ConvergenceError, DimTooSmallError,
                     InternalConsistencyError, TruncationError)
from .logseries import adaptive_log_sum
from .states import (DEFAULT_N_MAX, DEFAULT_TOL, FockExpansion, SqueezeSpec,
                     _family_log_weight, pssvs)

SWEEP_QUANTITIES = ("var_x", "var_p", "robertson_rhs", "n_squeeze", "mandel_q")

# Failures a sweep records as an ``error:`` row instead of raising.
_POINT_ERRORS = (ValueError, TruncationError, ConvergenceError,
                 AnnihilatedStateError, DimTooSmallError)


@dataclass(frozen=True)
class QuadratureReport:
    """Second moments, quadrature variances and the Robertson bound."""

    exp_A2: complex
    exp_AdA: float
    exp_AAd: float
    var_x: float
    var_p: float
    robertson_rhs: float
    x_squeezed: bool
    p_squeezed: bool


@dataclass(frozen=True)
class NumberStatsReport:
    """Photon-number statistics; mandel_q is None for the vacuum."""

    mean_N: float
    mean_N2: float
    n_squeeze: float
    mandel_q: float | None


def _series_tol(state: FockExpansion) -> float:
    return max(1e-15, 0.01 * state.tol)


def _moment_series(nl: Nonlinearity, spec: SqueezeSpec, tol: float,
                   n_max: int) -> tuple[complex, float, float]:
    """Evaluate the four positive series and assemble the three moments."""
    t = math.tanh(spec.r)
    log_t2 = math.log(t / 2.0)
    q = spec.photons_removed
    s = q % 2
    den = _family_log_weight(nl, t, q)

    def num_a2(js):
        n = 2 * js + s
        k = (q + n) // 2
        return ((2 * k + 1) * log_t2 + log_factorial(2 * k) + log_factorial(2 * k + 2)
                - log_factorial(k) - log_factorial(k + 1)
                - log_factorial(n) - 2 * log_f_factorial_array(nl, n))

    def num_aad(js):
        n = 2 * js + s
        return den(js) + np.log(n + 1.0) + 2.0 * np.log(f_value_array(nl, n + 1))

    log_den = adaptive_log_sum(den, tol, n_max).log_total
    log_a2 = adaptive_log_sum(num_a2, tol, n_max).log_total
    log_aad = adaptive_log_sum(num_aad, tol, n_max).log_total
    log_ada = adaptive_log_sum(_family_log_weight(nl, t, q + 1), tol, n_max).log_total

    phase = complex(np.exp(1j * spec.theta))
    exp_a2 = -phase * math.exp(log_a2 - log_den)
    exp_ada = math.exp(log_ada - log_den)
    exp_aad = math.exp(log_aad - log_den)
    return exp_a2, exp_ada, exp_aad


def expectation_moments(state: FockExpansion,
                        n_max: int = DEFAULT_N_MAX) -> tuple[complex, float, float]:
    """(⟨A²⟩, ⟨A†A⟩, ⟨AA†⟩) from the closed-form series of the state.

    ⟨A†²⟩ is the conjugate of ⟨A²⟩ and single-ladder moments vanish by
    parity, so neither is returned.  Requires a state that carries its
    squeeze parameters; photon-count routes cover everything else.
    """
    if state.spec is None:
        raise ValueError("series moments need the squeeze parameters; "
                         "this state was built directly from a vector")
    spec = state.spec
    if spec.r == 0.0:
        f1 = f_value(state.nl, 1)
        return 0.0j, 0.0, f1 * f1
    return _moment_series(state.nl, spec, _series_tol(state), n_max)


def moments_from_distribution(state: FockExpansion) -> tuple[float, float, float, float]:
    """(⟨A†A⟩, ⟨AA†⟩, ⟨n⟩, ⟨n²⟩) from the photon distribution.

    Uses only the number-diagonal actions A†A|n> = n f²(n)|n> and
    AA†|n> = (n+1) f²(n+1)|n>; independent of the series route.
    """
    ns = state.photon_numbers
    p = state.probabilities
    f_up = f_value_array(state.nl, ns + 1)
    f_at = f_value_array(state.nl, ns)
    exp_ada = float(np.dot(p, ns * f_at * f_at))
    exp_aad = float(np.dot(p, (ns + 1) * f_up * f_up))
    mean_n = float(np.dot(p, ns))
    mean_n2 = float(np.dot(p, ns.astype(float) ** 2))
    return exp_ada, exp_aad, mean_n, mean_n2


def quadrature_report(state: FockExpansion, n_max: int = DEFAULT_N_MAX) -> QuadratureReport:
    """Quadrature variances and the state-dependent Robertson bound.

    var_x and var_p are differences of moments, ½(<AA†> + <A†A> ± 2 Re<A²>),
    so they lose about log10(<A†A> / var) digits to cancellation: for
    harmonic r = 3, m = 4 odd, var_x ≈ 0.00254 comes from moments near
    1912, and a 1e-13 relative move in the moments moved it by 9.1e-8
    relative.  A Bogoliubov-reduced route (ROADMAP direction 1) would
    avoid the difference.
    """
    exp_a2, exp_ada, exp_aad = expectation_moments(state, n_max=n_max)
    two_re = 2.0 * exp_a2.real
    var_x = 0.5 * (exp_aad + exp_ada + two_re)
    var_p = 0.5 * (exp_aad + exp_ada - two_re)
    rhs = 0.5 * abs(exp_aad - exp_ada)
    if var_x <= 0 or var_p <= 0:
        raise InternalConsistencyError(
            f"nonpositive variance (var_x={var_x}, var_p={var_p})")
    if math.sqrt(var_x * var_p) < rhs - 1e-10:
        raise InternalConsistencyError(
            f"Robertson bound violated: sqrt({var_x} * {var_p}) < {rhs}")
    return QuadratureReport(
        exp_A2=exp_a2, exp_AdA=exp_ada, exp_AAd=exp_aad,
        var_x=var_x, var_p=var_p, robertson_rhs=rhs,
        x_squeezed=bool(var_x < rhs), p_squeezed=bool(var_p < rhs))


def number_stats(state: FockExpansion) -> NumberStatsReport:
    """Photon-number mean, second moment, number squeezing and Mandel Q.

    The number operator acts as the photon number for every deformation,
    so both moments come from the distribution.  For the Pöschl-Teller
    kind the operator identities N = sqrt(A†A + (λ+κ)²/4) − (λ+κ)/2 and
    N² = A†A − (λ+κ)N are additionally evaluated literally (spectrally in
    the Fock basis) and must agree to 1e-10.
    """
    ns = state.photon_numbers
    p = state.probabilities
    mean_n = float(np.dot(p, ns))
    mean_n2 = float(np.dot(p, ns.astype(float) ** 2))

    if state.nl.kind == POSCHL_TELLER:
        s = state.nl.pt_sum
        f_at = f_value_array(state.nl, ns)
        n_f2 = ns * f_at * f_at
        literal_n = float(np.dot(p, np.sqrt(n_f2 + 0.25 * s * s) - 0.5 * s))
        literal_n2 = float(np.dot(p, n_f2)) - s * literal_n
        if (abs(literal_n - mean_n) > 1e-10 * max(1.0, abs(mean_n))
                or abs(literal_n2 - mean_n2) > 1e-10 * max(1.0, abs(mean_n2))):
            raise InternalConsistencyError(
                "factorized number-operator forms disagree with the "
                f"distribution: {literal_n} vs {mean_n}, {literal_n2} vs {mean_n2}")

    variance = mean_n2 - mean_n * mean_n
    mandel = None if mean_n == 0.0 else variance / mean_n - 1.0
    return NumberStatsReport(mean_N=mean_n, mean_N2=mean_n2,
                             n_squeeze=variance - mean_n, mandel_q=mandel)


@dataclass(frozen=True)
class SweepRow:
    """One (parameter point, quantity) entry of a sweep table."""

    r: float
    theta: float
    m: int
    parity: str
    quantity: str
    value: float | None
    status: str


def sweep(nl: Nonlinearity, r_values, theta_values, m_values, parity: str,
          quantities=SWEEP_QUANTITIES, tol: float = DEFAULT_TOL,
          n_max: int = DEFAULT_N_MAX) -> list[SweepRow]:
    """Dense table of diagnostics over the Cartesian parameter grid.

    Row order is deterministic: r outermost, then theta, then m, with the
    requested quantities innermost.  Invalid parameters (ValueError) and
    domain failures at a point (truncation, convergence, annihilated
    state, window too small) are recorded in the status column and the
    sweep continues; internal inconsistencies and programming errors
    propagate.
    """
    for q in quantities:
        if q not in SWEEP_QUANTITIES:
            raise ValueError(f"unknown quantity {q!r}; pick from {SWEEP_QUANTITIES}")
    rows: list[SweepRow] = []
    need_quad = any(q in ("var_x", "var_p", "robertson_rhs") for q in quantities)
    need_stats = any(q in ("n_squeeze", "mandel_q") for q in quantities)
    for r in r_values:
        for theta in theta_values:
            for m in m_values:
                point = dict(r=float(r), theta=float(theta), m=int(m), parity=parity)
                try:
                    spec = SqueezeSpec(r, theta, m, parity)
                    state = pssvs(nl, spec, tol=tol, n_max=n_max)
                    quad = quadrature_report(state, n_max=n_max) if need_quad else None
                    stats = number_stats(state) if need_stats else None
                except _POINT_ERRORS as exc:
                    for q in quantities:
                        rows.append(SweepRow(**point, quantity=q, value=None,
                                             status=f"error:{type(exc).__name__}"))
                    continue
                for q in quantities:
                    if q == "mandel_q" and stats.mandel_q is None:
                        rows.append(SweepRow(**point, quantity=q, value=None,
                                             status="absent"))
                        continue
                    value = {
                        "var_x": quad.var_x if quad else None,
                        "var_p": quad.var_p if quad else None,
                        "robertson_rhs": quad.robertson_rhs if quad else None,
                        "n_squeeze": stats.n_squeeze if stats else None,
                        "mandel_q": stats.mandel_q if stats else None,
                    }[q]
                    rows.append(SweepRow(**point, quantity=q, value=float(value),
                                         status="ok"))
    return rows
