"""Moment series, quadrature variances, number statistics, sweeps."""

import math

import numpy as np
import pytest

from gpssvs import (
    EVEN,
    InternalConsistencyError,
    Nonlinearity,
    ODD,
    SqueezeSpec,
    SWEEP_QUANTITIES,
    expectation_moments,
    moments_from_distribution,
    number_stats,
    pssvs,
    quadrature_report,
    squeezed_vacuum,
    sweep,
    write_sweep_csv,
)
from gpssvs import observables

HARM = Nonlinearity.harmonic()
PT = Nonlinearity.poschl_teller(1.5, 1.5)


class TestHarmonicClosedForms:
    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("theta", [0.0, 1.3])
    def test_svs_second_moments(self, r, theta):
        state = squeezed_vacuum(HARM, r, theta)
        a2, ada, aad = expectation_moments(state)
        sh, ch = math.sinh(r), math.cosh(r)
        assert abs(a2 - (-np.exp(1j * theta) * sh * ch)) < 1e-12
        assert abs(ada - sh * sh) < 1e-12
        assert abs(aad - ch * ch) < 1e-12

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    def test_svs_quadratures_at_zero_angle(self, r):
        state = squeezed_vacuum(HARM, r, 0.0)
        quad = quadrature_report(state)
        assert np.isclose(quad.var_x, math.exp(-2 * r) / 2, atol=1e-12)
        assert np.isclose(quad.var_p, math.exp(2 * r) / 2, atol=1e-10)
        assert np.isclose(quad.robertson_rhs, 0.5, atol=1e-12)
        assert quad.x_squeezed and not quad.p_squeezed

    def test_vacuum_moments(self):
        state = squeezed_vacuum(HARM, 0.0, 0.0)
        a2, ada, aad = expectation_moments(state)
        assert a2 == 0j and ada == 0.0 and aad == 1.0
        quad = quadrature_report(state)
        assert quad.var_x == pytest.approx(0.5) and quad.var_p == pytest.approx(0.5)
        assert not quad.x_squeezed and not quad.p_squeezed


class TestDeformedVacuum:
    def test_moments_use_deformed_commutator(self):
        state = squeezed_vacuum(PT, 0.0, 0.0)
        a2, ada, aad = expectation_moments(state)
        assert a2 == 0j and ada == 0.0
        assert aad == pytest.approx(4.0)  # f(1)^2 = 1 + lambda + kappa
        quad = quadrature_report(state)
        assert quad.var_x == pytest.approx(2.0)
        assert quad.robertson_rhs == pytest.approx(2.0)


SINE_TABLE = Nonlinearity.custom([1.0 + 0.1 * math.sin(k) for k in range(1, 400)])


class TestSeriesVsDistribution:
    # A 399-entry table cannot hold the r = 2 states: TruncationError.
    @pytest.mark.parametrize("r,nl", [
        pytest.param(r, nl, id=f"{r}-{name}")
        for name, nl, r_values in (("harmonic", HARM, (0.3, 1.0, 2.0)),
                                   ("pt", PT, (0.3, 1.0, 2.0)),
                                   ("custom", SINE_TABLE, (0.3, 1.0)))
        for r in r_values])
    @pytest.mark.parametrize("m,parity", [(0, EVEN), (1, EVEN), (1, ODD), (3, ODD),
                                          (0, ODD), (2, EVEN), (4, ODD)])
    def test_agreement(self, nl, r, m, parity):
        state = pssvs(nl, SqueezeSpec(r, 1.0, m, parity), tol=1e-16)
        _, ada, aad = expectation_moments(state)
        d_ada, d_aad, _, _ = moments_from_distribution(state)
        assert abs(ada - d_ada) <= 1e-10 * max(1.0, abs(d_ada))
        assert abs(aad - d_aad) <= 1e-10 * max(1.0, abs(d_aad))


class TestRobertson:
    @pytest.mark.parametrize("nl", [HARM, PT], ids=["harmonic", "pt"])
    @pytest.mark.parametrize("r,theta,m,parity", [
        (0.5, 0.0, 0, EVEN), (1.0, 1.0, 1, EVEN), (2.0, 4.0, 3, ODD),
        (1.0, 0.0, 0, ODD)])
    def test_uncertainty_product_bounded(self, nl, r, theta, m, parity):
        state = pssvs(nl, SqueezeSpec(r, theta, m, parity))
        quad = quadrature_report(state)
        assert math.sqrt(quad.var_x * quad.var_p) >= quad.robertson_rhs - 1e-10


class TestNumberStats:
    def test_vacuum(self):
        stats = number_stats(squeezed_vacuum(PT, 0.0, 0.0))
        assert stats.mean_N == 0.0 and stats.mean_N2 == 0.0
        assert stats.n_squeeze == 0.0
        assert stats.mandel_q is None

    def test_single_photon_limit(self):
        # Odd harmonic PSSVS at weak squeezing approaches |1>, which has
        # zero variance: maximally number-squeezed.
        stats = number_stats(pssvs(HARM, SqueezeSpec(0.05, 0.0, 0, ODD)))
        assert stats.mean_N == pytest.approx(1.0, abs=0.05)
        assert stats.n_squeeze < -0.9
        assert stats.mandel_q < -0.9

    def test_harmonic_svs_super_poissonian(self):
        # tol 1e-16: the n^2 weighting amplifies the discarded tail, so the
        # distribution must be resolved beyond the comparison threshold.
        stats = number_stats(squeezed_vacuum(HARM, 1.0, 0.0, tol=1e-16))
        # <n> = sinh^2 r, var = 2 sinh^2 r cosh^2 r for the harmonic case.
        sh, ch = math.sinh(1.0), math.cosh(1.0)
        assert stats.mean_N == pytest.approx(sh * sh, rel=1e-10)
        var = stats.mean_N2 - stats.mean_N**2
        assert var == pytest.approx(2 * sh * sh * ch * ch, rel=1e-10)
        assert stats.n_squeeze > 0 and stats.mandel_q > 0

    @pytest.mark.parametrize("nl", [HARM, PT], ids=["harmonic", "pt"])
    @pytest.mark.parametrize("r,m,parity", [
        (0.5, 0, EVEN), (1.0, 2, EVEN), (0.7, 1, ODD), (2.0, 0, ODD)])
    def test_mandel_sign_matches_n_squeeze(self, nl, r, m, parity):
        stats = number_stats(pssvs(nl, SqueezeSpec(r, 0.0, m, parity)))
        assert stats.mean_N > 0
        assert (stats.mandel_q < 0) == (stats.n_squeeze < 0)
        assert stats.mandel_q == pytest.approx(stats.n_squeeze / stats.mean_N,
                                               rel=1e-12)

    def test_pt_number_operator_identity_on_states(self):
        # The factorized square-root form of the number operator must agree
        # with the direct distribution moments (checked internally).
        for r, m, parity in [(0.5, 0, EVEN), (1.0, 1, ODD), (1.5, 2, EVEN)]:
            stats = number_stats(pssvs(PT, SqueezeSpec(r, 0.0, m, parity)))
            assert math.isfinite(stats.mean_N2)


class TestSweep:
    def test_row_grid_order_and_status(self):
        rows = sweep(PT, [0.5, 1.0], [0.0], [0, 1], EVEN,
                     quantities=("var_x", "n_squeeze"))
        assert len(rows) == 2 * 1 * 2 * 2
        assert [r.r for r in rows[:4]] == [0.5] * 4
        assert [r.m for r in rows[:4]] == [0, 0, 1, 1]
        assert all(r.status == "ok" for r in rows)
        assert all(r.parity == EVEN for r in rows)

    def test_error_points_recorded_not_raised(self):
        rows = sweep(HARM, [0.0], [0.0], [0, 1], EVEN, quantities=("var_x",))
        assert rows[0].status == "ok"
        assert rows[1].status == "error:AnnihilatedStateError"
        assert rows[1].value is None

    def test_convergence_failure_recorded(self):
        rows = sweep(HARM, [2.0], [0.0], [0], EVEN, quantities=("var_x",), n_max=3)
        assert rows[0].status == "error:ConvergenceError"

    @pytest.mark.parametrize("exc", [InternalConsistencyError("routes disagree"),
                                     ZeroDivisionError("programming error")])
    def test_internal_and_programming_errors_propagate(self, monkeypatch, exc):
        def broken(state, n_max=None):
            raise exc

        monkeypatch.setattr(observables, "quadrature_report", broken)
        with pytest.raises(type(exc)):
            sweep(PT, [1.0], [0.0], [0], EVEN, quantities=("var_x",))

    def test_vacuum_mandel_absent(self):
        rows = sweep(HARM, [0.0], [0.0], [0], EVEN, quantities=("mandel_q",))
        assert rows[0].status == "absent" and rows[0].value is None

    def test_unknown_quantity_rejected(self):
        with pytest.raises(ValueError):
            sweep(HARM, [1.0], [0.0], [0], EVEN, quantities=("bogus",))

    def test_csv_output(self, tmp_path):
        rows = sweep(PT, [1.0], [0.0, 1.0], [1], ODD,
                     quantities=SWEEP_QUANTITIES)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "r,theta,m,parity,quantity,value,status"
        assert len(lines) == 1 + len(rows)
        first = lines[1].split(",")
        assert first[3] == ODD and first[4] == "var_x" and first[6] == "ok"
        assert float(first[5]) == rows[0].value


class TestValidation:
    def test_moments_require_series_spec(self):
        from gpssvs.states import FockExpansion
        state = pssvs(PT, SqueezeSpec(1.0))
        bare = FockExpansion(parity=state.parity, log_mags=state.log_mags,
                             phases=state.phases, truncation=state.truncation,
                             tail_bound=state.tail_bound, nl=state.nl,
                             spec=None, tol=state.tol)
        with pytest.raises(ValueError):
            expectation_moments(bare)
