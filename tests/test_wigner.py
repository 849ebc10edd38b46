"""Wigner evaluation: Laguerre kernels, closed form, oracle, grids, metrics."""

import math

from hypothesis import assume, given, settings, strategies as hs
import numpy as np
import pytest
from scipy.special import eval_genlaguerre, gammaln

import gpssvs
from gpssvs import (
    DimTooSmallError,
    EVEN,
    MemoryBudgetError,
    Nonlinearity,
    ODD,
    SqueezeSpec,
    pssvs,
    squeezed_vacuum,
    wigner_grid,
    wigner_point,
    wigner_point_oracle,
    write_wigner_csv,
    write_wigner_matrix,
)
from gpssvs.wigner import TWO_OVER_PI, _laguerre_log_table, displacement_columns

PT = Nonlinearity.poschl_teller(1.5, 1.5)
HARM = Nonlinearity.harmonic()


class TestLaguerre:
    """The log-domain table the oracle runs where scipy's values overflow."""

    def test_known_values(self):
        # Columns alpha = 2, 0, 5 at x = 3 and x = 2, degrees 0..2:
        # L_1^(2)(3) = 3 - 3 = 0; L_2^(0)(2) = 1 - 4 + 2 = -1; L_0 = 1.
        log_t, sign_t = _laguerre_log_table(2, np.array([2.0, 0.0, 5.0]), 3.0)
        assert np.array_equal(sign_t[0], [1, 1, 1]) and np.array_equal(log_t[0], [0, 0, 0])
        assert sign_t[1, 0] == 0 and log_t[1, 0] == -math.inf
        log_t, sign_t = _laguerre_log_table(2, np.array([0.0]), 2.0)
        assert sign_t[2, 0] == -1
        assert log_t[2, 0] == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("n,alpha,x", [(7, 0.0, 1.5), (20, 4.0, 9.0),
                                           (45, 12.0, 30.0)])
    def test_matches_scipy(self, n, alpha, x):
        # Every degree and every order column, not just the top entry.
        alphas = np.array([alpha, alpha + 2.0])
        log_t, sign_t = _laguerre_log_table(n, alphas, x)
        ref = eval_genlaguerre(np.arange(n + 1)[:, None], alphas[None, :], x)
        assert np.array_equal(sign_t, np.sign(ref))
        assert np.allclose(sign_t * np.exp(log_t), ref, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("n,alpha,x", [(15, 2.0, 4.0), (60, 10.0, 25.0)])
    def test_log_form_matches_plain(self, n, alpha, x):
        log_t, sign_t = _laguerre_log_table(n, np.array([alpha]), x)
        plain = eval_genlaguerre(n, alpha, x)
        assert sign_t[-1, 0] == np.sign(plain)
        assert np.isclose(sign_t[-1, 0] * math.exp(log_t[-1, 0]), plain, rtol=1e-9)

    def test_log_form_survives_huge_degree(self):
        # Values pass the 1e270 rescale threshold at x = 2000; every
        # degree must stay finite in log space.
        for x in (800.0, 2000.0):
            log_t, sign_t = _laguerre_log_table(3000, np.array([6.0]), x)
            assert np.all(np.isfinite(log_t))
            assert set(np.unique(sign_t)) <= {-1, 1}

    def test_rescaled_values_match_high_precision(self):
        mpmath = pytest.importorskip("mpmath")
        log_t, sign_t = _laguerre_log_table(3000, np.array([6.0]), 2000.0)
        with mpmath.workdps(50):
            ref = mpmath.laguerre(3000, 6, 2000)
            ref_log = float(mpmath.log(abs(ref)))
        assert log_t[-1, 0] > 700.0  # beyond the double range
        assert sign_t[-1, 0] == int(mpmath.sign(ref))
        assert log_t[-1, 0] == pytest.approx(ref_log, rel=1e-12)


class TestClosedFormPoints:
    def test_vacuum_gaussian(self):
        vac = squeezed_vacuum(PT, 0.0, 0.0)
        for z in (0.0 + 0.0j, 0.5 + 0.2j, -1.0 + 1.5j):
            expected = TWO_OVER_PI * math.exp(-2 * abs(z) ** 2)
            assert np.isclose(wigner_point(vac, z), expected, atol=1e-13)

    def test_single_photon_negative_at_origin(self):
        # Weak odd harmonic PSSVS tends to |1>, whose Wigner dip reaches
        # the extremal value -2/pi at the origin.
        state = pssvs(HARM, SqueezeSpec(0.01, 0.0, 0, ODD))
        assert wigner_point(state, 0.0 + 0.0j) == pytest.approx(-TWO_OVER_PI, abs=1e-3)

    def test_origin_value_is_signed_parity(self):
        even = pssvs(PT, SqueezeSpec(1.0, 0.5, 1, EVEN))
        odd = pssvs(PT, SqueezeSpec(1.0, 0.5, 1, ODD))
        assert wigner_point(even, 0j) == pytest.approx(TWO_OVER_PI, abs=1e-12)
        assert wigner_point(odd, 0j) == pytest.approx(-TWO_OVER_PI, abs=1e-12)

    def test_point_symmetry(self):
        state = pssvs(PT, SqueezeSpec(1.2, 0.8, 1, ODD))
        for z in (0.7 + 0.1j, -0.3 + 0.9j):
            assert np.isclose(wigner_point(state, z), wigner_point(state, -z),
                              atol=1e-12)

    def test_bounded(self):
        state = pssvs(PT, SqueezeSpec(1.5, 0.0, 2, EVEN))
        zs = [0.3 * k + 0.2j * j for k in range(-3, 4) for j in range(-3, 4)]
        vals = [wigner_point(state, z) for z in zs]
        assert max(abs(v) for v in vals) <= TWO_OVER_PI + 1e-10


class TestPointArrays:
    def test_shapes(self):
        state = pssvs(PT, SqueezeSpec(1.0, 0.5, 1, EVEN))
        assert type(wigner_point(state, 0.3 + 0.1j)) is float
        assert type(wigner_point(state, np.complex128(0.3))) is float
        nodes = np.linspace(-1, 1, 12).reshape(3, 4) * (1 + 0.5j)
        values = wigner_point(state, nodes)
        assert values.shape == (3, 4) and values.dtype == float
        assert np.array_equal(values, [[wigner_point(state, complex(z)) for z in row]
                                       for row in nodes])
        assert wigner_point(state, [0.1, -0.2j]).shape == (2,)
        assert wigner_point(state, np.zeros((0, 5))).shape == (0, 5)

    def test_large_truncation_matches_oracle(self):
        # N = 2565: the pair coefficients times the Laguerre values span far
        # more than the double range, which the normalized recurrence and
        # its rescaling must absorb.
        state = squeezed_vacuum(HARM, 3.0, 0.0)
        assert state.truncation > 2000
        for z in (0.05j, 0.3 + 0.1j, 1.5 - 1.0j):
            assert abs(wigner_point(state, z) - wigner_point_oracle(state, z)) <= 1e-10


class TestCoherentTransform:
    def test_matches_independent_phase_space_integral(self):
        # Independent route for the harmonic case: write the Wigner function
        # as a coherent-state overlap integral and integrate numerically,
        #   W(z) = (2/pi^2) e^{2|z|^2} Int d^2b <-b|psi><psi|b> e^{2(b* z - b z*)}
        # with <n|b> = b^n e^{-|b|^2/2}/sqrt(n!).  No Laguerre machinery and
        # no displaced-parity sum is involved anywhere in this route.
        state = squeezed_vacuum(HARM, 0.5, 0.0)
        z = 0.3 + 0.2j

        half = 7.0
        count = 240  # even count keeps b = 0 off the nodes
        axis = np.linspace(-half, half, count)
        bu, bv = np.meshgrid(axis, axis, indexing="ij")
        beta = bu + 1j * bv

        nums = state.photon_numbers.astype(float)
        log_b = np.log(np.abs(beta))[..., None]
        ang_b = np.angle(beta)[..., None]
        log_mag = (state.log_mags[None, None, :] + nums * log_b
                   - 0.5 * gammaln(nums + 1.0)[None, None, :]
                   - (np.abs(beta) ** 2 / 2.0)[..., None])
        phase = nums * ang_b - state.phases[None, None, :]
        overlap = np.exp(log_mag + 1j * phase).sum(axis=-1)  # <psi|b>

        overlap_neg = overlap[::-1, ::-1]  # <psi|-b> on the symmetric grid
        kernel = np.exp(2.0 * (np.conj(beta) * z - beta * np.conj(z)))
        integrand = np.conj(overlap_neg) * overlap * kernel
        integral = np.trapezoid(np.trapezoid(integrand, axis, axis=1), axis)
        w_indep = 2.0 / math.pi**2 * math.exp(2 * abs(z) ** 2) * integral

        assert abs(w_indep.imag) < 1e-8
        assert np.isclose(w_indep.real, wigner_point(state, z), atol=1e-4)


class TestOracleAgreement:
    @pytest.mark.parametrize("m,parity", [(0, EVEN), (0, ODD), (1, EVEN), (1, ODD)])
    def test_pt_states(self, m, parity):
        state = pssvs(PT, SqueezeSpec(1.0, 0.5, m, parity))
        rng = np.random.default_rng(7)
        for _ in range(4):
            z = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
            assert np.isclose(wigner_point(state, z), wigner_point_oracle(state, z),
                              atol=1e-10)

    def test_harmonic_state(self):
        state = squeezed_vacuum(HARM, 1.0, 0.9)
        for z in (0.4 + 0.0j, -0.6 + 0.8j, 1.1 - 0.5j):
            assert np.isclose(wigner_point(state, z), wigner_point_oracle(state, z),
                              atol=1e-9)

    @pytest.mark.parametrize("m", [1, 4])
    @pytest.mark.parametrize("radius", [8.0, 6.0 * math.sqrt(2.0), 10.0])
    def test_default_window_far_from_origin(self, m, radius):
        # Displaced photon numbers grow like |z|^2; the default window must
        # follow them (a ±6 grid corner sits at |z| = 8.49).
        state = pssvs(PT, SqueezeSpec(4.0, 0.0, m, EVEN))
        for angle in (0.0, math.pi / 4, math.pi / 2):
            z = radius * complex(math.cos(angle), math.sin(angle))
            assert abs(wigner_point_oracle(state, z) - wigner_point(state, z)) <= 1e-8

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(family=hs.sampled_from([HARM, PT]), r=hs.floats(0.0, 1.2),
           theta=hs.floats(0.0, 2 * math.pi), m=hs.integers(0, 3),
           parity=hs.sampled_from([EVEN, ODD]), radius=hs.floats(0.0, 2.0),
           angle=hs.floats(0.0, 2 * math.pi))
    def test_property_routes_agree_and_point_symmetry(self, family, r, theta, m, parity,
                                                      radius, angle):
        spec = SqueezeSpec(r, theta, m, parity)
        assume(r > 0.0 or not spec.photons_removed)  # else the vacuum is annihilated
        state = pssvs(family, spec)
        z = radius * complex(math.cos(angle), math.sin(angle))
        w = wigner_point(state, z)
        assert abs(w - wigner_point_oracle(state, z)) <= 1e-8
        assert abs(w - wigner_point(state, -z)) <= 1e-8

    def test_oracle_window_too_small(self):
        state = pssvs(PT, SqueezeSpec(1.0, 0.0, 1, EVEN))
        with pytest.raises(DimTooSmallError):
            wigner_point_oracle(state, 1.5 + 0.5j, dim=16)

    def test_banded_columns_match_full(self):
        state = pssvs(PT, SqueezeSpec(1.0, 0.0, 0, EVEN))
        z = 0.7 - 0.4j
        full = wigner_point_oracle(state, z)
        banded = wigner_point_oracle(state, z, band=60)
        assert np.isclose(full, banded, atol=1e-12)

    def test_displacement_columns_are_unitary_slices(self):
        dim = 48
        delta = 0.6 + 0.3j
        cols = displacement_columns(delta, np.arange(6), dim)
        norms = np.linalg.norm(cols, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-10)
        # Columns of a unitary are orthonormal.
        gram = cols.conj().T @ cols
        assert np.allclose(gram, np.eye(6), atol=1e-10)


class TestGrid:
    def test_metrics_and_symmetry(self):
        state = pssvs(PT, SqueezeSpec(1.0, 0.0, 1, EVEN))
        grid = wigner_grid(state, (-4, 4), (-4, 4), 61)
        assert abs(grid.integral - 1.0) < 0.01
        assert grid.min_value < 0  # photon subtraction forces negativity
        assert grid.negative_volume > 0
        assert np.max(np.abs(grid.values)) <= TWO_OVER_PI + 1e-10
        assert np.allclose(grid.values, grid.values[::-1, ::-1], atol=1e-12)

    def test_vacuum_grid_is_positive(self):
        grid = wigner_grid(squeezed_vacuum(PT, 0.0, 0.0), (-3, 3), (-3, 3), 41)
        assert grid.min_value >= 0.0
        assert grid.negative_volume == pytest.approx(0.0, abs=1e-15)
        assert abs(grid.integral - 1.0) < 0.01

    def test_rectangular_resolution(self):
        state = squeezed_vacuum(PT, 0.5, 0.0)
        grid = wigner_grid(state, (-2, 2), (-3, 3), (11, 17))
        assert grid.values.shape == (11, 17)
        assert grid.x_axis.shape == (11,) and grid.p_axis.shape == (17,)

    def test_resolution_validation(self):
        state = squeezed_vacuum(PT, 0.5, 0.0)
        with pytest.raises(ValueError):
            wigner_grid(state, (-2, 2), (-2, 2), 1)

    def test_chunk_size_does_not_change_values(self, monkeypatch):
        # Whatever the chunk (one point, seven points, the whole grid), each
        # grid value is the very number wigner_point gives at its node,
        # whether the node comes alone or in an array.
        state = pssvs(PT, SqueezeSpec(1.0, 0.0, 1, ODD))
        reference = wigner_grid(state, (-2, 2), (-1.5, 1.5), (9, 7))
        nodes = reference.x_axis[:, None] + 1j * reference.p_axis[None, :]
        points = np.array([[wigner_point(state, complex(x, p)) for p in reference.p_axis]
                           for x in reference.x_axis])
        assert np.array_equal(reference.values, points)
        for chunk_points in (1, 7, 9 * 7 + 1):
            monkeypatch.setattr(gpssvs.wigner, "CHUNK_CELLS",
                                chunk_points * state.truncation)
            grid = wigner_grid(state, (-2, 2), (-1.5, 1.5), (9, 7))
            assert np.array_equal(grid.values, points)
            assert np.array_equal(wigner_point(state, nodes), points)

    def test_memory_refusal(self, monkeypatch):
        # A figure of 1 MiB stands in for a machine too small for the request;
        # an unknown figure refuses nothing.
        state = pssvs(PT, SqueezeSpec(1.0, 0.0, 1, EVEN))
        monkeypatch.setattr(gpssvs.wigner, "_physical_memory", lambda: 1 << 20)
        with pytest.raises(MemoryBudgetError):
            wigner_grid(state, (-2, 2), (-2, 2), 400)
        with pytest.raises(MemoryBudgetError):
            wigner_point(state, np.zeros(100_000))
        assert wigner_grid(state, (-2, 2), (-2, 2), 21).values.shape == (21, 21)
        monkeypatch.setattr(gpssvs.wigner, "_physical_memory", lambda: None)
        assert wigner_grid(state, (-2, 2), (-2, 2), 21).values.shape == (21, 21)


class TestFileOutputs:
    def test_csv_and_sidecar(self, tmp_path):
        state = pssvs(PT, SqueezeSpec(1.0, 0.0, 1, EVEN))
        grid = wigner_grid(state, (-2, 2), (-2, 2), 9)
        path = tmp_path / "w.csv"
        write_wigner_csv(grid, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,p,w"
        assert len(lines) == 1 + 81
        x0, p0, w0 = lines[1].split(",")
        assert float(x0) == -2.0 and float(p0) == -2.0
        assert float(w0) == grid.values[0, 0]
        sidecar = (tmp_path / "w.csv.json").read_text()
        assert '"min_value"' in sidecar and '"negative_volume"' in sidecar

    def test_matrix_format(self, tmp_path):
        state = squeezed_vacuum(PT, 0.3, 0.0)
        grid = wigner_grid(state, (-1, 1), (-2, 2), (5, 7))
        path = tmp_path / "w.txt"
        write_wigner_matrix(grid, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("# x ") and lines[1].startswith("# p ")
        data = np.array([[float(v) for v in line.split()] for line in lines[2:]])
        assert data.shape == (5, 7)
        assert np.array_equal(data, np.array([[float(f"{v:.17g}") for v in row]
                                              for row in grid.values]))
