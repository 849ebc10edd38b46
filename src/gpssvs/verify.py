"""Cross-module verification suite behind the CLI ``verify`` subcommand.

Each check pits two independent routes against each other (closed-form
series vs dense operators, recursion vs direct form, Laguerre kernel vs
displaced parity) and reports the measured residual next to its
tolerance.  Checks that cannot run because the dense window is too small
are reported as truncation-domain failures rather than crashes.
"""

from dataclasses import dataclass
import math

import numpy as np

from .deform import Nonlinearity, commutator_weight
from .errors import GpssvsError
from . import oracle as orc
from . import observables as obs
from . import states as st
from . import wigner as wg

DEFAULT_ORACLE_DIM = 80


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification check."""

    name: str
    domain: str
    residual: float
    tolerance: float
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class VerifyReport:
    checks: list[CheckResult]
    all_passed: bool
    config: dict


def _result(name, domain, residual, tolerance, note="") -> CheckResult:
    return CheckResult(name=name, domain=domain, residual=float(residual),
                       tolerance=float(tolerance),
                       passed=bool(residual <= tolerance), note=note)


def _failure(name, domain, tolerance, exc: Exception) -> CheckResult:
    truncation = isinstance(exc, GpssvsError)
    note = f"{'truncation domain: ' if truncation else ''}{type(exc).__name__}: {exc}"
    return CheckResult(name=name, domain=domain, residual=math.inf,
                       tolerance=float(tolerance), passed=False, note=note)


def _both_nl() -> list[tuple[str, Nonlinearity]]:
    return [("harmonic", Nonlinearity.harmonic()),
            ("poschl_teller(1.5,1.5)", Nonlinearity.poschl_teller(1.5, 1.5))]


def run_suite(oracle_dim: int = DEFAULT_ORACLE_DIM, tol: float = st.DEFAULT_TOL,
              n_max: int = st.DEFAULT_N_MAX) -> VerifyReport:
    """Run every cross-check; never raises on check failure."""
    checks: list[CheckResult] = []

    def check_tol(base: float) -> float:
        # Looser user tolerances loosen the acceptance thresholds too, so a
        # fast low-precision run can still come out green end to end.
        return max(base, 10.0 * tol)

    nls = _both_nl()
    workspaces = {label: orc.build_workspace(nl, oracle_dim) for label, nl in nls}
    # Closed-form series are cheap, so comparison states are resolved far
    # below the check thresholds; otherwise the ~sqrt(tol) amplitude at the
    # series cut would masquerade as route disagreement.
    tight = min(tol, 1e-22)

    # Ladder commutators on the truncated interior.
    name, domain = "ladder-commutators", f"harmonic+PT, dim={oracle_dim}, interior"
    try:
        worst = 0.0
        for label, nl in nls:
            ws = workspaces[label]
            eye = np.eye(ws.dim)
            comm_aad = ws.a_matrix @ ws.a_dagger_matrix - ws.a_dagger_matrix @ ws.a_matrix
            weights = np.array([commutator_weight(nl, n) for n in range(ws.dim - 1)])
            worst = max(worst, float(np.max(np.abs(
                np.diag(comm_aad)[: ws.dim - 1] - weights))))
            b = ws.b_dagger_matrix.conj().T
            for lhs in (ws.a_matrix @ ws.b_dagger_matrix - ws.b_dagger_matrix @ ws.a_matrix,
                        b @ ws.a_dagger_matrix - ws.a_dagger_matrix @ b):
                interior = (lhs - eye)[: ws.dim - 1, : ws.dim - 1]
                worst = max(worst, float(np.max(np.abs(interior))))
        checks.append(_result(name, domain, worst, check_tol(1e-12)))
    except Exception as exc:
        checks.append(_failure(name, domain, check_tol(1e-12), exc))

    # Matrix-exponential squeeze vs closed-form coefficients.
    squeeze_cells = [("harmonic", 0.25), ("harmonic", 0.5),
                     ("poschl_teller(1.5,1.5)", 0.5), ("poschl_teller(1.5,1.5)", 1.0),
                     ("poschl_teller(1.5,1.5)", 1.5)]
    for label, r in squeeze_cells:
        nl = dict(nls)[label]
        ws = workspaces[label]
        for theta in (0.0, 1.0):
            name = "squeeze-two-path"
            domain = f"{label}, r={r}, theta={theta}, dim={oracle_dim}"
            try:
                closed = st.squeezed_vacuum(nl, r, theta, tol=tight, n_max=n_max)
                viaexp = orc.squeeze_by_exponential(ws, r, theta)
                k = min(closed.truncation, viaexp.truncation)
                diff = np.abs(closed.coeffs[:k] - viaexp.coeffs[:k]).max()
                diff = max(float(diff),
                           _spare_mass(closed, k), _spare_mass(viaexp, k))
                checks.append(_result(name, domain, diff, check_tol(1e-8)))
            except Exception as exc:
                checks.append(_failure(name, domain, check_tol(1e-8), exc))

    # Annihilation identity on the closed-form states.
    for label, r in squeeze_cells:
        nl = dict(nls)[label]
        ws = workspaces[label]
        name, domain = "annihilation-identity", f"{label}, r={r}, dim={oracle_dim}"
        try:
            closed = st.squeezed_vacuum(nl, r, 0.7, tol=tight, n_max=n_max)
            resid = orc.annihilation_residual(ws, closed, r, 0.7)
            checks.append(_result(name, domain, resid, check_tol(1e-8)))
        except Exception as exc:
            checks.append(_failure(name, domain, check_tol(1e-8), exc))

    # Explicit photon subtraction vs the closed-form PSSVS series.  The
    # harmonic cell runs at lower r so the base state fits the dense window
    # even when resolved to the tight tolerance.
    for label, nl in nls:
        ws = workspaces[label]
        r_sub = 0.5 if label == "harmonic" else 1.0
        for count in (1, 2, 3):
            name = "photon-subtraction-two-path"
            domain = f"{label}, r={r_sub}, removed={count}, dim={oracle_dim}"
            try:
                base = st.squeezed_vacuum(nl, r_sub, 0.9, tol=tight, n_max=n_max)
                subtracted = orc.subtract_photons(ws, base, count)
                series = st.pssvs(nl, subtracted.spec, tol=tight, n_max=n_max)
                k = min(series.truncation, subtracted.truncation)
                diff = np.abs(series.coeffs[:k] - subtracted.coeffs[:k]).max()
                diff = max(float(diff),
                           _spare_mass(series, k), _spare_mass(subtracted, k))
                checks.append(_result(name, domain, diff, check_tol(1e-8)))
            except Exception as exc:
                checks.append(_failure(name, domain, check_tol(1e-8), exc))

    # Series moments vs distribution moments, plus the Robertson bound.
    moment_worst, robertson_worst = 0.0, 0.0
    moment_domain = "both nl, r in {0.5,1,2}, theta in {0,1}, m in {0,1}, both parities"
    try:
        for _, nl in nls:
            for r in (0.5, 1.0, 2.0):
                for theta in (0.0, 1.0):
                    for m in (0, 1):
                        for parity in (st.EVEN, st.ODD):
                            spec = st.SqueezeSpec(r, theta, m, parity)
                            state = st.pssvs(nl, spec, tol=tight, n_max=n_max)
                            quad = obs.quadrature_report(state, n_max=n_max)
                            d_ada, d_aad, _, _ = obs.moments_from_distribution(state)
                            moment_worst = max(
                                moment_worst,
                                abs(quad.exp_AdA - d_ada) / max(1.0, abs(d_ada)),
                                abs(quad.exp_AAd - d_aad) / max(1.0, abs(d_aad)))
                            gap = (quad.robertson_rhs
                                   - math.sqrt(quad.var_x * quad.var_p))
                            robertson_worst = max(robertson_worst, gap)
        checks.append(_result("moment-series-vs-distribution", moment_domain,
                              moment_worst, check_tol(1e-10)))
        checks.append(_result("robertson-inequality", moment_domain,
                              robertson_worst, check_tol(1e-10)))
    except Exception as exc:
        checks.append(_failure("moment-series-vs-distribution", moment_domain,
                               check_tol(1e-10), exc))
        checks.append(_failure("robertson-inequality", moment_domain,
                               check_tol(1e-10), exc))

    # Single-ladder moments vanish by parity (dense-matrix evaluation).
    name = "odd-moment-parity"
    domain = f"harmonic r=0.5 + PT r=1, m=0, both parities, dim={oracle_dim}"
    try:
        worst = 0.0
        for label, nl in nls:
            ws = workspaces[label]
            r_par = 0.5 if label == "harmonic" else 1.0
            for parity in (st.EVEN, st.ODD):
                state = st.pssvs(nl, st.SqueezeSpec(r_par, 0.4, 0, parity),
                                 tol=tol, n_max=n_max)
                vec = state.dense(ws.dim)
                worst = max(worst, abs(np.vdot(vec, ws.a_matrix @ vec)))
        checks.append(_result(name, domain, worst, check_tol(1e-12)))
    except Exception as exc:
        checks.append(_failure(name, domain, check_tol(1e-12), exc))

    # Wigner closed form vs displaced-parity oracle.
    name = "wigner-two-path"
    domain = "PT r=1 m in {0,1} both parities + harmonic r=1 m=0, 5 points"
    try:
        rng = np.random.default_rng(20240817)
        points = 1.4 * np.sqrt(rng.uniform(size=5)) * np.exp(2j * math.pi * rng.uniform(size=5))
        worst = 0.0
        nl_pt = dict(nls)["poschl_teller(1.5,1.5)"]
        states = [st.pssvs(nl_pt, st.SqueezeSpec(1.0, 0.5, m, parity), tol=tol, n_max=n_max)
                  for m in (0, 1) for parity in (st.EVEN, st.ODD)]
        states.append(st.squeezed_vacuum(Nonlinearity.harmonic(), 1.0, 0.0,
                                         tol=tol, n_max=n_max))
        for state in states:
            closed = wg.wigner_point(state, points)
            for z, w in zip(points, closed):
                worst = max(worst, abs(w - wg.wigner_point_oracle(state, z)))
        checks.append(_result(name, domain, worst, check_tol(1e-8)))
    except Exception as exc:
        checks.append(_failure(name, domain, check_tol(1e-8), exc))

    # Wigner grid structure: bound, symmetry, normalization.
    nl_pt = dict(nls)["poschl_teller(1.5,1.5)"]
    try:
        grids = [
            wg.wigner_grid(st.pssvs(nl_pt, st.SqueezeSpec(0.0), tol=tol, n_max=n_max),
                           (-3, 3), (-3, 3), 41),
            wg.wigner_grid(st.pssvs(nl_pt, st.SqueezeSpec(1.0, 0.0, 1, st.EVEN),
                                    tol=tol, n_max=n_max), (-4, 4), (-4, 4), 41),
        ]
        bound = max(float(np.max(np.abs(g.values))) - wg.TWO_OVER_PI for g in grids)
        sym = max(float(np.max(np.abs(g.values - g.values[::-1, ::-1]))) for g in grids)
        norm_dev = max(abs(g.integral - 1.0) for g in grids)
        checks.append(_result("wigner-bound-and-symmetry",
                              "PT vacuum + PT r=1 m=1 even, 41x41",
                              max(bound, sym), check_tol(1e-8)))
        checks.append(_result("wigner-normalization",
                              "PT vacuum + PT r=1 m=1 even, 41x41",
                              norm_dev, max(0.01, check_tol(1e-15))))
    except Exception as exc:
        checks.append(_failure("wigner-bound-and-symmetry", "PT grids 41x41",
                               check_tol(1e-8), exc))
        checks.append(_failure("wigner-normalization", "PT grids 41x41", 0.01, exc))

    # Normalization, phase covariance, recursion equivalence.
    name, domain = "state-normalization", "both nl, r in {0.5,1,2}, m in {0,1}, both parities"
    try:
        worst = 0.0
        for _, nl in nls:
            for r in (0.5, 1.0, 2.0):
                for m in (0, 1):
                    for parity in (st.EVEN, st.ODD):
                        state = st.pssvs(nl, st.SqueezeSpec(r, 0.3, m, parity),
                                         tol=tol, n_max=n_max)
                        worst = max(worst, abs(float(np.sum(state.probabilities)) - 1.0))
        checks.append(_result(name, domain, worst, check_tol(1e-12)))
    except Exception as exc:
        checks.append(_failure(name, domain, check_tol(1e-12), exc))

    name, domain = "phase-covariance", "both nl, r=1, theta 0 vs 1.1"
    try:
        worst = 0.0
        for _, nl in nls:
            ref = st.squeezed_vacuum(nl, 1.0, 0.0, tol=tol, n_max=n_max)
            rot = st.squeezed_vacuum(nl, 1.0, 1.1, tol=tol, n_max=n_max)
            k = min(ref.truncation, rot.truncation)
            expected = ref.coeffs[:k] * np.exp(1j * 1.1 * np.arange(k))
            worst = max(worst, float(np.max(np.abs(rot.coeffs[:k] - expected))))
        checks.append(_result(name, domain, worst, check_tol(1e-12)))
    except Exception as exc:
        checks.append(_failure(name, domain, check_tol(1e-12), exc))

    name, domain = "recursion-two-path", "both nl, r in {1,2}, theta=0.6"
    try:
        worst = 0.0
        for _, nl in nls:
            for r in (1.0, 2.0):
                direct = st.squeezed_vacuum(nl, r, 0.6, tol=tol, n_max=n_max)
                rec = st.coefficients_by_recursion(nl, r, 0.6, tol=tol, n_max=n_max)
                k = min(direct.truncation, rec.truncation)
                worst = max(worst, float(np.max(np.abs(direct.coeffs[:k] - rec.coeffs[:k]))))
        checks.append(_result(name, domain, worst, check_tol(1e-12)))
    except Exception as exc:
        checks.append(_failure(name, domain, check_tol(1e-12), exc))

    name, domain = "truncation-estimator", "PT r=1 even m=0, tol=1e-14"
    try:
        nl = dict(nls)["poschl_teller(1.5,1.5)"]
        spec = st.SqueezeSpec(1.0)
        n_sel = st.pssvs(nl, spec, tol=1e-14, n_max=n_max).truncation
        # Appending one more term must change the retained norm by < 1e-14.
        logw = st._family_log_weight(nl, math.tanh(spec.r), spec.photons_removed)(
            np.arange(n_sel + 1))
        total_n = np.exp(logw[:n_sel] - logw.max()).sum()
        extra = np.exp(logw[n_sel] - logw.max())
        checks.append(_result(name, domain, extra / total_n, max(1e-13, 10.0 * tol)))
    except Exception as exc:
        checks.append(_failure(name, domain, max(1e-13, 10.0 * tol), exc))

    all_passed = all(c.passed for c in checks)
    config = {"oracle_dim": oracle_dim, "tol": tol, "n_max": n_max}
    return VerifyReport(checks=checks, all_passed=all_passed, config=config)


def _spare_mass(state, k: int) -> float:
    """Amplitude beyond index k: the square root of the probability there.

    Two routes are only comparable on their common window; this bounds what
    either route holds outside it, so a route that silently dropped real
    weight still fails the comparison.  Like the coefficient differences,
    it is weighed against amplitude tolerances.
    """
    if state.truncation <= k:
        return 0.0
    return math.sqrt(float(np.sum(state.probabilities[k:])))
