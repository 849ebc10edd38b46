"""Adaptive log-domain summation: totals, tail rule, failure modes."""

import math

import numpy as np
import pytest

from gpssvs import adaptive_log_sum, ConvergenceError


def geometric_log_weights(ratio):
    log_ratio = math.log(ratio)

    def log_weight(idx):
        return np.asarray(idx, dtype=float) * log_ratio

    return log_weight


def test_geometric_total_matches_closed_form():
    ratio = 0.37
    out = adaptive_log_sum(geometric_log_weights(ratio), tol=1e-14, n_max=10_000)
    assert np.isclose(math.exp(out.log_total), 1.0 / (1.0 - ratio), rtol=1e-13)


def test_tail_rule_uses_first_discarded_term():
    # For a geometric series the rule keeps N terms where
    # ratio^N / (1 - ratio) < tol * sum_{j<N} ratio^j.
    ratio, tol = 0.5, 1e-6
    out = adaptive_log_sum(geometric_log_weights(ratio), tol=tol, n_max=10_000)
    n = out.n_terms
    retained = (1.0 - ratio**n) / (1.0 - ratio)
    assert ratio**n / (1.0 - ratio) < tol * retained
    # One fewer term would not have satisfied the rule.
    retained_prev = (1.0 - ratio ** (n - 1)) / (1.0 - ratio)
    assert ratio ** (n - 1) / (1.0 - ratio) >= tol * retained_prev


def test_single_dominant_term_keeps_one():
    def log_weight(idx):
        idx = np.asarray(idx, dtype=float)
        return np.where(idx == 0, 0.0, -np.inf)

    out = adaptive_log_sum(log_weight, tol=1e-12, n_max=100)
    assert out.n_terms == 1
    assert math.isclose(out.log_total, 0.0, abs_tol=1e-15)


def test_zero_leading_weight_returns_empty_total():
    def log_weight(idx):
        return np.full(np.shape(idx), -np.inf)

    out = adaptive_log_sum(log_weight, tol=1e-12, n_max=100)
    assert out.n_terms == 1
    assert out.log_total == -np.inf


def test_tiny_weights_are_not_zero():
    # Unnormalized weights far below exp() underflow still form a series;
    # only their size relative to the running sum may end it.
    shift = -1000.0

    def log_weight(idx):
        return shift + np.asarray(idx, dtype=float) * math.log(0.25)

    out = adaptive_log_sum(log_weight, tol=1e-14, n_max=10_000)
    assert out.n_terms > 1
    assert np.isclose(out.log_total, shift + math.log(4.0 / 3.0), rtol=1e-13)


def test_divergent_series_raises_with_tail_estimate():
    def log_weight(idx):
        return np.asarray(idx, dtype=float) * 0.0  # constant weights never converge

    with pytest.raises(ConvergenceError) as err:
        adaptive_log_sum(log_weight, tol=1e-12, n_max=500)
    assert err.value.achieved_tail is not None
    assert err.value.achieved_tail > 1e-12


def test_tighter_tolerance_keeps_more_terms():
    loose = adaptive_log_sum(geometric_log_weights(0.6), tol=1e-6, n_max=10_000)
    tight = adaptive_log_sum(geometric_log_weights(0.6), tol=1e-14, n_max=10_000)
    assert tight.n_terms > loose.n_terms
    assert np.isclose(math.exp(tight.log_total), 2.5, rtol=1e-13)


def test_log_weights_array_matches_requested_length():
    out = adaptive_log_sum(geometric_log_weights(0.3), tol=1e-10, n_max=10_000)
    assert out.log_weights.shape == (out.n_terms,)
    assert not out.log_weights.flags.writeable


def test_huge_magnitude_offsets_are_handled():
    # Weights around e^{+800} overflow direct exponentiation; the log-domain
    # path must still produce the right normalized total.
    shift = 800.0

    def log_weight(idx):
        return shift + np.asarray(idx, dtype=float) * math.log(0.25)

    out = adaptive_log_sum(log_weight, tol=1e-14, n_max=10_000)
    assert np.isclose(out.log_total, shift + math.log(4.0 / 3.0), rtol=1e-13)
