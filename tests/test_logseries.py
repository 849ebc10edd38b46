"""Adaptive log-domain summation: totals, tail rule, failure modes."""

import math

from hypothesis import given, settings, strategies as hs
import numpy as np
import pytest

import gpssvs
from gpssvs import (adaptive_log_sum, AdaptiveSum, ConvergenceError, Nonlinearity, ODD,
                    SqueezeSpec, TruncationError, pssvs)
from gpssvs.logseries import _LOG_EPS, _compensated_log_total


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


def scalar_log_sum(log_weight, tol, n_max, block=64):
    """The one-term-at-a-time scan that ``adaptive_log_sum`` must reproduce."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    log_tol = math.log(tol)

    logs: list[float] = []

    def fetch(j: int) -> float:
        while j >= len(logs):
            start = len(logs)
            count = max(block, j - start + 1)
            idx = np.arange(start, start + count, dtype=np.int64)
            try:
                vals = np.asarray(log_weight(idx), dtype=float)
            except TruncationError:
                # Block prefetch probed past a finite deformation table.
                # Only the indices the scan actually reaches may raise, so
                # retry one at a time up to the requested index.
                vals = np.asarray([log_weight(np.array([i], dtype=np.int64))[0]
                                   for i in range(start, j + 1)], dtype=float)
            logs.extend(vals.tolist())
        return logs[j]

    w0 = fetch(0)
    if w0 == -math.inf:
        # Zero leading weight: by construction the callers' series then vanish
        # identically; retain the single structural term.
        return AdaptiveSum(1, np.array([-math.inf]), -math.inf, 0.0)

    log_run = w0     # log of running retained sum
    prev = w0        # log of last retained weight
    last_tail_rel = math.inf
    j = 1
    while j <= n_max:
        w = fetch(j)
        # Candidate: discard from index j onwards.
        if w - log_run < _LOG_EPS:
            accepted = j
            last_tail_rel = 0.0
            break
        log_rho = w - prev
        if log_rho < 0.0:
            rho = math.exp(log_rho)
            if rho == 1.0:
                # No geometric tail: the term cannot end the series.
                log_tail = last_tail_rel = math.inf
            else:
                log_tail = w - math.log1p(-rho)
                last_tail_rel = math.exp(min(log_tail - log_run, 700.0))
            if log_tail < log_tol + log_run:
                accepted = j
                break
        log_run = np.logaddexp(log_run, w)
        prev = w
        j += 1
    else:
        raise ConvergenceError(
            f"series tail {last_tail_rel:.3e} still above tol {tol:.3e} "
            f"after {n_max} retained terms",
            achieved_tail=last_tail_rel,
        )

    kept = np.array(logs[:accepted], dtype=float)
    kept.flags.writeable = False
    return AdaptiveSum(accepted, kept, _compensated_log_total(kept), last_tail_rel)


BLOCK_EDGES = (63, 64, 65, 127, 128, 129)


@hs.composite
def log_series(draw):
    """Log weights from a table, continued linearly past its end."""
    kind = draw(hs.sampled_from(["walk", "hump", "edge"]))
    if kind == "walk":
        # Random-walk log ratios, with exact plateaus (log rho = 0).
        step = hs.one_of(hs.just(0.0), hs.floats(-3.0, 1.0))
        logs = np.cumsum(draw(hs.lists(step, min_size=1, max_size=300)))
    elif kind == "hump":
        # Log ratios falling linearly: the weights rise, then fall.
        a = draw(hs.floats(0.0, 5.0))
        b = draw(hs.floats(1e-3, 0.5))
        logs = np.cumsum(a - b * np.arange(draw(hs.integers(1, 300))))
    else:
        # A plateau, then a drop right at a block edge: the zero test or the
        # tail test (depending on the drop and tol) may end the series there.
        # Drops of 40-60 pass the tail test at every tol drawn below.
        edge = draw(hs.sampled_from(BLOCK_EDGES))
        logs = np.zeros(edge + 1)
        logs[edge] = -draw(hs.one_of(hs.floats(0.0, 60.0), hs.floats(40.0, 60.0),
                                     hs.floats(750.0, 800.0),
                                     hs.just(math.inf)))
    logs = logs.astype(float)
    if draw(hs.integers(0, 3)) == 0:
        logs[draw(hs.integers(0, logs.size - 1))] = draw(hs.sampled_from([-math.inf, math.nan]))
    offset = draw(hs.sampled_from([0.0, 800.0, -1000.0]))
    slope = draw(hs.sampled_from([0.0, -1e-3, -0.1, -2.0]))
    return offset + logs, slope


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(series=log_series(), tol=hs.sampled_from([1e-6, 1e-12, 1e-15]),
       n_max=hs.one_of(hs.integers(1, 140), hs.just(2000)))
def test_property_matches_scalar_scan(series, tol, n_max):
    table, slope = series

    def log_weight(idx):
        assert idx.dtype == np.int64
        past = idx - table.size + 1
        return np.where(past <= 0, table[np.minimum(idx, table.size - 1)],
                        table[-1] + slope * past)

    outcomes = []
    for scan in (scalar_log_sum, adaptive_log_sum):
        try:
            with np.errstate(invalid="ignore"):  # NaN weights warn in np.logaddexp
                outcomes.append(scan(log_weight, tol, n_max))
        except ConvergenceError as err:
            outcomes.append((str(err), repr(err.achieved_tail)))
    want, got = outcomes
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, AdaptiveSum)
    assert got.n_terms == want.n_terms
    assert repr(got.tail_rel) == repr(want.tail_rel)
    assert repr(got.log_total) == repr(want.log_total)
    assert got.log_weights.tobytes() == want.log_weights.tobytes()
    assert got.log_weights.flags.writeable == want.log_weights.flags.writeable


def test_ratio_rounding_to_one_never_ends_series():
    # exp(-1.7e-142) is 1.0: the drop after the plateau has no geometric
    # tail, so the series runs out of terms instead of failing in log1p.
    def log_weight(idx):
        return np.where(idx < 5, 0.0, -1.7e-142)

    for scan in (scalar_log_sum, adaptive_log_sum):
        with pytest.raises(ConvergenceError) as err:
            scan(log_weight, 1e-12, 50)
        assert err.value.achieved_tail == math.inf


@pytest.mark.parametrize("edge", BLOCK_EDGES)
@pytest.mark.parametrize("drop", [50.0, 800.0, math.inf])
def test_acceptance_at_block_edge(edge, drop):
    # A plateau ends at a block edge with a drop that the tail test (50),
    # the zero test (800) or an exact zero (inf) accepts right there.
    def log_weight(idx):
        return np.where(idx < edge, 0.0, -drop - (idx - edge))

    want = scalar_log_sum(log_weight, 1e-12, 1000)
    got = adaptive_log_sum(log_weight, 1e-12, 1000)
    assert got.n_terms == want.n_terms == edge
    assert repr(got.tail_rel) == repr(want.tail_rel)
    assert got.log_total == want.log_total


def test_block_requests_grow_geometrically(monkeypatch):
    # Harmonic r = 4, m = 2 odd keeps N = 30 137 terms: the scan asks for
    # them in O(log N) calls and evaluates at most about twice as many.
    calls = []

    def counting_scan(log_weight, tol, n_max):
        def counted(idx):
            assert idx.dtype == np.int64
            calls.append(idx.size)
            return log_weight(idx)
        return adaptive_log_sum(counted, tol, n_max)

    monkeypatch.setattr(gpssvs.states, "adaptive_log_sum", counting_scan)
    n = pssvs(Nonlinearity.harmonic(), SqueezeSpec(4.0, 0.0, 2, ODD)).truncation
    assert n == 30_137
    assert len(calls) <= math.ceil(math.log2(n / 64)) + 2
    assert sum(calls) <= 2 * n + 64
