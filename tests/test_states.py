"""State construction: coefficients, gauge, parity, truncation, serialization."""

import math

from hypothesis import given, settings, strategies as hs
import numpy as np
import pytest
from scipy.special import gammaln

import gpssvs
from gpssvs import (
    AnnihilatedStateError,
    DimTooSmallError,
    EVEN,
    Nonlinearity,
    ODD,
    SqueezeSpec,
    TruncationError,
    coefficients_by_recursion,
    pssvs,
    squeezed_vacuum,
    write_state_csv,
)
from gpssvs.deform import log_f_factorial_array, log_factorial, xlogy
from gpssvs.states import _family_log_weight


def harmonic_svs_coeffs(r, theta, k_max):
    """Reference harmonic squeezed-vacuum coefficients on |2k>, k=0..k_max."""
    k = np.arange(k_max + 1)
    log_mag = (k * math.log(math.tanh(r)) + 0.5 * gammaln(2 * k + 1)
               - k * math.log(2.0) - gammaln(k + 1) - 0.5 * math.log(math.cosh(r)))
    return np.exp(log_mag) * np.exp(1j * k * (theta + math.pi))


class TestSqueezeSpec:
    def test_defaults(self):
        spec = SqueezeSpec(1.0)
        assert spec.theta == 0.0 and spec.m == 0 and spec.parity == EVEN

    def test_theta_reduced_mod_two_pi(self):
        spec = SqueezeSpec(1.0, theta=2 * math.pi + 0.3)
        assert spec.theta == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize("bad", [{"r": -0.1}, {"r": 1.0, "m": -1},
                                     {"r": 1.0, "parity": "mixed"}])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            SqueezeSpec(**bad)

    @pytest.mark.parametrize("bad", [{"r": math.nan}, {"r": math.inf},
                                     {"r": 1.0, "theta": math.nan},
                                     {"r": 1.0, "theta": -math.inf}])
    def test_non_finite_rejected(self, bad):
        # NaN passes every comparison-based check, so it needs its own.
        with pytest.raises(ValueError, match="finite"):
            SqueezeSpec(**bad)

    def test_photons_removed(self):
        assert SqueezeSpec(1.0, m=2, parity=EVEN).photons_removed == 4
        assert SqueezeSpec(1.0, m=2, parity=ODD).photons_removed == 5
        assert SqueezeSpec(1.0).photons_removed == 0


class TestSqueezedVacuum:
    @pytest.mark.parametrize("r", [0.3, 1.0, 2.0])
    @pytest.mark.parametrize("theta", [0.0, 1.0, 4.0])
    def test_harmonic_matches_textbook_form(self, r, theta):
        state = squeezed_vacuum(Nonlinearity.harmonic(), r, theta)
        ref = harmonic_svs_coeffs(r, theta, state.truncation - 1)
        assert np.allclose(state.coeffs, ref, atol=1e-13)

    def test_leading_coefficient_real_positive(self):
        for nl in (Nonlinearity.harmonic(), Nonlinearity.poschl_teller(1.5, 1.5)):
            for spec in (SqueezeSpec(1.0, 2.0), SqueezeSpec(1.5, 5.0, 2, ODD)):
                state = pssvs(nl, spec)
                assert state.coeffs[0].imag == 0.0
                assert state.coeffs[0].real > 0.0

    def test_equals_pssvs_with_no_subtraction(self):
        nl = Nonlinearity.poschl_teller(1.5, 1.5)
        a = squeezed_vacuum(nl, 1.2, 0.4)
        b = pssvs(nl, SqueezeSpec(1.2, 0.4, 0, EVEN))
        assert a.truncation == b.truncation
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_zero_squeezing_is_vacuum(self):
        state = squeezed_vacuum(Nonlinearity.poschl_teller(1.5, 1.5), 0.0, 0.0)
        assert state.truncation == 1
        assert state.coeffs[0] == 1.0 + 0.0j
        assert state.photon_numbers.tolist() == [0]


class TestPssvs:
    @pytest.mark.parametrize("parity,residue", [(EVEN, 0), (ODD, 1)])
    def test_support_parity(self, parity, residue):
        nl = Nonlinearity.poschl_teller(1.5, 1.5)
        state = pssvs(nl, SqueezeSpec(1.0, 0.7, 1, parity))
        assert np.all(state.photon_numbers % 2 == residue)

    def test_normalized(self):
        for nl in (Nonlinearity.harmonic(), Nonlinearity.poschl_teller(1.5, 1.5)):
            for m in (0, 1, 3):
                for parity in (EVEN, ODD):
                    state = pssvs(nl, SqueezeSpec(1.0, 0.5, m, parity))
                    assert np.isclose(state.probabilities.sum(), 1.0, atol=1e-12)

    def test_phase_covariance(self):
        # theta enters only through a photon-number phase ramp.
        nl = Nonlinearity.poschl_teller(1.5, 1.5)
        base = pssvs(nl, SqueezeSpec(1.0, 0.0, 1, ODD))
        rot = pssvs(nl, SqueezeSpec(1.0, 0.9, 1, ODD))
        k = min(base.truncation, rot.truncation)
        ramp = np.exp(1j * 0.9 * np.arange(k))
        assert np.allclose(rot.coeffs[:k], base.coeffs[:k] * ramp, atol=1e-13)

    def test_subtracting_from_vacuum_raises(self):
        nl = Nonlinearity.harmonic()
        with pytest.raises(AnnihilatedStateError):
            pssvs(nl, SqueezeSpec(0.0, 0.0, 1, EVEN))
        with pytest.raises(AnnihilatedStateError):
            pssvs(nl, SqueezeSpec(0.0, 0.0, 0, ODD))

    @pytest.mark.parametrize("nl", [Nonlinearity.harmonic(),
                                    Nonlinearity.poschl_teller(1.5, 1.5)])
    def test_weak_odd_state_is_one_photon(self, nl):
        # At r = 1e-200 every weight underflows exp() in absolute terms, but
        # the state is still |1> to within the tolerance, not NaN.
        state = pssvs(nl, SqueezeSpec(1e-200, 0.0, 0, ODD))
        assert np.all(np.isfinite(state.log_mags))
        assert state.photon_numbers[0] == 1
        assert abs(state.coeffs[0]) == pytest.approx(1.0, abs=1e-12)

    def test_nan_tolerance_rejected(self):
        # tol <= 0 is false for NaN, which used to run n_max terms.
        with pytest.raises(ValueError, match="tol"):
            pssvs(Nonlinearity.poschl_teller(), SqueezeSpec(0.5), tol=math.nan)

    def test_deformation_shortens_support(self):
        # PT weights carry an extra 1/f(n)!^2, so the series cuts earlier.
        harm = pssvs(Nonlinearity.harmonic(), SqueezeSpec(1.5))
        pt = pssvs(Nonlinearity.poschl_teller(1.5, 1.5), SqueezeSpec(1.5))
        assert pt.truncation < harm.truncation

    def test_tail_bound_below_tolerance(self):
        state = pssvs(Nonlinearity.poschl_teller(1.5, 1.5), SqueezeSpec(1.0),
                      tol=1e-10)
        assert state.tail_bound < 1e-10

    def test_custom_table_state(self):
        table = [1.0 + 0.1 * math.sin(k) for k in range(1, 41)]
        nl = Nonlinearity.custom(table)
        state = pssvs(nl, SqueezeSpec(0.4, 0.3, 1, EVEN))
        assert np.isclose(state.probabilities.sum(), 1.0, atol=1e-12)

    @staticmethod
    def sine_table(length):
        return Nonlinearity.custom([1.0 + 0.1 * math.sin(k) for k in range(1, length + 1)])

    def test_custom_table_covering_first_discarded_term(self):
        # N = 17 even terms reach |32>, and the first discarded one needs f(34):
        # a 34-entry table suffices, and the scan asks for nothing beyond it.
        spec = SqueezeSpec(0.4, 0.3, 1, EVEN)
        state = pssvs(self.sine_table(34), spec)
        assert state.truncation == 17
        assert state.tail_bound == pssvs(self.sine_table(199), spec).tail_bound

    @pytest.mark.parametrize("length", [32, 33])
    def test_custom_table_one_entry_short(self, length):
        with pytest.raises(TruncationError) as err:
            pssvs(self.sine_table(length), SqueezeSpec(0.4, 0.3, 1, EVEN))
        assert err.value.required == 34

    def test_custom_table_too_short(self):
        nl = Nonlinearity.custom([1.0, 1.0, 1.0])
        with pytest.raises(TruncationError) as err:
            pssvs(nl, SqueezeSpec(2.0))
        assert err.value.required is not None


FAMILIES = (Nonlinearity.harmonic(), Nonlinearity.poschl_teller(1.5, 1.5),
            Nonlinearity.poschl_teller(0.7, 2.2))


class TestProperties:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(nl=hs.sampled_from(FAMILIES), r=hs.floats(0.0, 4.0, exclude_min=True),
           theta=hs.floats(0.0, 2 * math.pi), m=hs.integers(0, 4),
           parity=hs.sampled_from([EVEN, ODD]))
    def test_normalized_on_one_parity(self, nl, r, theta, m, parity):
        state = pssvs(nl, SqueezeSpec(r, theta, m, parity))
        assert math.isclose(math.fsum(state.probabilities), 1.0, abs_tol=1e-12)
        assert state.parity == parity
        vec = state.dense()
        residue = 0 if parity == EVEN else 1
        assert np.all(state.photon_numbers % 2 == residue)
        assert not np.any(vec[1 - residue::2])
        assert np.all(vec[state.photon_numbers] == state.coeffs)


def parity_log_weight(nl, spec):
    """The even and odd closed forms, written out per parity, that the
    family weight must reproduce byte for byte."""
    t = math.tanh(spec.r)
    m = spec.m
    if spec.parity == EVEN:
        def logw(js):
            k = m + js
            logc = (xlogy(k, t) - k * math.log(2.0) + log_factorial(2 * k)
                    - log_factorial(k) - 0.5 * log_factorial(2 * js)
                    - log_f_factorial_array(nl, 2 * js))
            return 2.0 * logc
    else:
        def logw(js):
            kp = m + js + 1
            logc = (xlogy(kp, t) - kp * math.log(2.0) + log_factorial(2 * kp)
                    - log_factorial(kp) - 0.5 * log_factorial(2 * js + 1)
                    - log_f_factorial_array(nl, 2 * js + 1))
            return 2.0 * logc
    return logw


SINE_TABLE = Nonlinearity.custom([1.0 + 0.1 * math.sin(k) for k in range(1, 400)])


class TestFamilyWeight:
    @pytest.mark.parametrize("nl", FAMILIES + (SINE_TABLE,),
                             ids=["harmonic", "pt", "pt-0.7-2.2", "custom"])
    @pytest.mark.parametrize("parity", [EVEN, ODD])
    def test_matches_parity_closed_forms(self, nl, parity):
        # Up to the table's last entry, or past harmonic r = 3, m = 4 odd (N = 4 966).
        js = np.arange(199 if nl is SINE_TABLE else 6000, dtype=np.int64)
        for r in (0.3, 1.0, 2.0, 3.0):
            for m in range(5):
                spec = SqueezeSpec(r, 0.0, m, parity)
                want = parity_log_weight(nl, spec)(js)
                got = _family_log_weight(nl, math.tanh(r), spec.photons_removed)(js)
                assert got.tobytes() == want.tobytes()


class TestRecursion:
    def test_nan_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tol"):
            coefficients_by_recursion(Nonlinearity.harmonic(), 0.5, 0.0, tol=math.nan)

    @pytest.mark.parametrize("nl", [Nonlinearity.harmonic(),
                                    Nonlinearity.poschl_teller(1.5, 1.5)],
                             ids=["harmonic", "pt"])
    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    def test_matches_direct_series(self, nl, r):
        direct = squeezed_vacuum(nl, r, 0.6)
        rec = coefficients_by_recursion(nl, r, 0.6)
        k = min(direct.truncation, rec.truncation)
        assert np.allclose(direct.coeffs[:k], rec.coeffs[:k], atol=1e-13)


class TestTruncation:
    def test_zero_squeezing_needs_one_term(self):
        for nl in (Nonlinearity.harmonic(), Nonlinearity.poschl_teller(1.5, 1.5)):
            assert pssvs(nl, SqueezeSpec(0.0)).truncation == 1

    def test_monotone_in_tolerance(self):
        nl = Nonlinearity.harmonic()
        spec = SqueezeSpec(1.0)
        loose = pssvs(nl, spec, tol=1e-6).truncation
        tight = pssvs(nl, spec, tol=1e-14).truncation
        assert tight > loose


class TestDense:
    def test_embedding(self):
        state = pssvs(Nonlinearity.poschl_teller(1.5, 1.5), SqueezeSpec(1.0, 0.0, 0, ODD))
        vec = state.dense(40)
        assert vec.shape == (40,)
        assert np.isclose(np.linalg.norm(vec), 1.0, atol=1e-12)
        top = state.photon_numbers.max()
        assert np.all(vec[top + 1:] == 0)
        assert vec[1] == state.coeffs[0]

    def test_too_small_raises(self):
        state = pssvs(Nonlinearity.poschl_teller(1.5, 1.5), SqueezeSpec(1.0))
        with pytest.raises(DimTooSmallError):
            state.dense(3)


class TestOutputs:
    def test_photon_distribution_pairs(self):
        state = pssvs(Nonlinearity.poschl_teller(1.5, 1.5), SqueezeSpec(1.0, 0.0, 1, EVEN))
        assert state.photon_numbers.shape == state.probabilities.shape
        assert state.photon_numbers.tolist() == list(range(0, 2 * state.truncation, 2))
        assert np.isclose(state.probabilities.sum(), 1.0, atol=1e-12)

    def test_write_state_csv_round_trip(self, tmp_path):
        state = pssvs(Nonlinearity.poschl_teller(1.5, 1.5), SqueezeSpec(1.0, 2.0, 1, ODD))
        path = tmp_path / "state.csv"
        write_state_csv(state, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "photon_number,re,im,prob"
        rows = [line.split(",") for line in lines[1:]]
        nums = np.array([int(row[0]) for row in rows])
        coeffs = np.array([float(row[1]) + 1j * float(row[2]) for row in rows])
        probs = np.array([float(row[3]) for row in rows])
        assert np.array_equal(nums, state.photon_numbers)
        assert np.array_equal(coeffs, state.coeffs)
        assert np.array_equal(probs, state.probabilities)

    def test_describe_round_trips_spec(self):
        spec = SqueezeSpec(1.25, 0.5, 2, ODD)
        desc = spec.describe()
        assert desc["r"] == 1.25 and desc["m"] == 2 and desc["parity"] == ODD
