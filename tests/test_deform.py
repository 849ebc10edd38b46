"""Deformation functions: values, factorials, commutator weights, validation."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import gammaln

from gpssvs import Nonlinearity, TruncationError
from gpssvs.deform import (
    _LogGammaTable,
    commutator_weight,
    f_value,
    f_value_array,
    log_f_factorial,
    log_f_factorial_array,
    log_factorial,
    xlogy,
)

EPS = np.finfo(float).eps


def test_harmonic_is_identity():
    nl = Nonlinearity.harmonic()
    n = np.arange(0, 50)
    assert np.all(f_value_array(nl, n) == 1.0)
    assert np.all(log_f_factorial_array(nl, n) == 0.0)


def test_poschl_teller_values():
    nl = Nonlinearity.poschl_teller(1.5, 1.5)
    n = np.arange(0, 20)
    assert np.allclose(f_value_array(nl, n), np.sqrt(n + 3.0), rtol=1e-15)


@pytest.mark.parametrize("lam,kappa", [(1.5, 1.5), (0.5, 0.5), (2.0, 3.5)])
def test_poschl_teller_log_factorial_matches_product(lam, kappa):
    nl = Nonlinearity.poschl_teller(lam, kappa)
    for n in (0, 1, 2, 5, 17):
        direct = sum(math.log(math.sqrt(j + lam + kappa)) for j in range(1, n + 1))
        assert np.isclose(log_f_factorial(nl, n), direct, atol=1e-12)


def test_poschl_teller_rejects_shallow_wells():
    with pytest.raises(ValueError):
        Nonlinearity.poschl_teller(0.4, 1.5)
    with pytest.raises(ValueError):
        Nonlinearity.poschl_teller(1.5, 0.0)


def test_custom_table_lookup_and_factorial():
    values = [2.0, 0.5, 3.0]
    nl = Nonlinearity.custom(values)
    assert f_value(nl, 1) == 2.0
    assert f_value(nl, 3) == 3.0
    assert np.isclose(log_f_factorial(nl, 3), math.log(2.0 * 0.5 * 3.0), atol=1e-14)
    assert log_f_factorial(nl, 0) == 0.0


def test_custom_table_range_exceeded():
    nl = Nonlinearity.custom([1.0, 1.0])
    with pytest.raises(TruncationError):
        f_value(nl, 3)
    with pytest.raises(TruncationError):
        log_f_factorial(nl, 5)


@pytest.mark.parametrize("lam,kappa", [(math.nan, 1.5), (1.5, math.nan), (math.inf, 1.5)])
def test_poschl_teller_rejects_non_finite(lam, kappa):
    # NaN passes every comparison-based check, so it needs its own.
    with pytest.raises(ValueError, match="finite"):
        Nonlinearity.poschl_teller(lam, kappa)


def test_custom_table_validation():
    with pytest.raises(ValueError):
        Nonlinearity.custom([])
    with pytest.raises(ValueError):
        Nonlinearity.custom([1.0, -2.0])
    with pytest.raises(ValueError):
        Nonlinearity.custom([1.0, 0.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_custom_table_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        Nonlinearity.custom([1.0, bad, 2.0])


class TestLogGammaTables:
    N = np.arange(300_000)

    def test_log_factorial_matches_scipy(self):
        ours, ref = log_factorial(self.N), gammaln(self.N + 1.0)
        assert ours[0] == ours[1] == 0.0
        assert np.all(np.abs(ours - ref) <= 4 * EPS * np.abs(ref))

    @pytest.mark.parametrize("lam,kappa", [(1.5, 1.5), (0.7, 2.2), (0.5, 0.5)])
    def test_poschl_teller_table_matches_scipy(self, lam, kappa):
        s = lam + kappa
        ours = 2.0 * log_f_factorial_array(Nonlinearity.poschl_teller(lam, kappa), self.N)
        top, base = gammaln(self.N + 1.0 + s), gammaln(1.0 + s)
        # The entry is a difference of two log-gammas: 4 ulp of the larger.
        scale = np.maximum(np.abs(top), abs(base))
        assert ours[0] == 0.0
        assert np.all(np.abs(ours - (top - base)) <= 4 * EPS * scale)

    @pytest.mark.parametrize("shift", [0.0, 3.0, 2.9])
    def test_growth_path_does_not_change_entries(self, shift):
        one_step, steps = _LogGammaTable(shift), _LogGammaTable(shift)
        one_step.lookup(5000)
        for n in (300, np.array([700, 2]), 1500, 4097, 5000):
            steps.lookup(n)
        assert len(one_step.values) == len(steps.values) > 5000
        assert one_step.values.tobytes() == steps.values.tobytes()
        if shift == 0.0:
            assert np.array_equal(log_factorial(np.arange(5001)), one_step.values[:5001])

    def test_lookup_shapes(self):
        assert log_factorial(3) == pytest.approx(math.log(6.0), rel=1e-15)
        assert log_factorial(np.arange(6).reshape(2, 3)).shape == (2, 3)
        assert log_factorial(np.array([], dtype=np.int64)).shape == (0,)

    @pytest.mark.parametrize("n", [-1, np.array([3, -1]), np.array([[0], [-7]])])
    def test_negative_index_raises(self, n):
        nl = Nonlinearity.poschl_teller()
        with pytest.raises(ValueError, match="nonnegative"):
            log_factorial(n)
        with pytest.raises(ValueError, match="nonnegative"):
            log_f_factorial_array(nl, n)
        with pytest.raises(ValueError, match="nonnegative"):
            f_value_array(nl, n)

    def test_non_integer_index_raises(self):
        with pytest.raises(TypeError):
            log_factorial(np.array([1.0, 2.0]))

    def test_xlogy_zero_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert xlogy(0, 0) == 0.0
            assert xlogy(0.0, 0.0) == 0.0
            out = xlogy(np.array([0.0, 2.0, 3.0]), np.array([0.0, 0.0, 2.0]))
        assert out[0] == 0.0 and out[1] == -math.inf
        assert out[2] == 3.0 * math.log(2.0)


def test_commutator_weight_harmonic_is_one():
    nl = Nonlinearity.harmonic()
    for n in range(10):
        assert commutator_weight(nl, n) == pytest.approx(1.0, abs=1e-15)


def test_commutator_weight_poschl_teller():
    # (n+1) f^2(n+1) - n f^2(n) with f^2(n) = n + s gives 2n + s + 1.
    nl = Nonlinearity.poschl_teller(1.5, 1.5)
    s = 3.0
    for n in range(12):
        expected = (n + 1) * (n + 1 + s) - n * (n + s)
        assert commutator_weight(nl, n) == pytest.approx(expected, rel=1e-14)
        assert expected == 2 * n + s + 1


def test_describe_is_json_friendly():
    assert Nonlinearity.harmonic().describe() == {"kind": "harmonic"}
    pt = Nonlinearity.poschl_teller(2.0, 1.0).describe()
    assert pt["pt_lambda"] == 2.0 and pt["pt_kappa"] == 1.0
    cs = Nonlinearity.custom([1.0, 2.0]).describe()
    assert cs["table_length"] == 2


def test_kinds_are_distinct():
    kinds = {Nonlinearity.harmonic().kind,
             Nonlinearity.poschl_teller(1.5, 1.5).kind,
             Nonlinearity.custom([1.0]).kind}
    assert len(kinds) == 3


def test_pt_sum_restricted_to_pt_kind():
    assert Nonlinearity.poschl_teller(1.5, 1.5).pt_sum == 3.0
    with pytest.raises(ValueError):
        Nonlinearity.harmonic().pt_sum
