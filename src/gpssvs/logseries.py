"""Adaptive summation of positive series given in log space.

The coefficient and moment series in this package are sums of positive
weights whose logarithms are cheap to evaluate but whose raw values span
hundreds of orders of magnitude.  This module owns the single truncation
rule used everywhere: keep adding terms until the geometric tail estimate

    w_N / (1 - rho),   rho = w_N / w_{N-1}   (valid once rho < 1)

drops below ``tol`` relative to the running sum, where w_N is the first
discarded term.  The retained-term count is capped at ``n_max``.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import ConvergenceError, TruncationError

_LOG_EPS = -745.0  # weight relative to the running sum below exp() underflow: zero


@dataclass(frozen=True)
class AdaptiveSum:
    """Result of an adaptive log-space summation.

    n_terms: retained term count N (indices 0..N-1)
    log_weights: log of each retained weight, length N
    log_total: log of the compensated sum of retained weights
    tail_rel: accepted tail estimate relative to the retained sum
    """

    n_terms: int
    log_weights: np.ndarray
    log_total: float
    tail_rel: float


def _compensated_log_total(logs: np.ndarray) -> float:
    """Log of sum(exp(logs)), low-to-high order with exact accumulation."""
    if logs.size == 0:
        return -math.inf
    peak = float(np.max(logs))
    if peak == -math.inf:
        return -math.inf
    return peak + math.log(math.fsum(np.exp(logs - peak)))


def adaptive_log_sum(log_weight, tol: float, n_max: int, block: int = 64) -> AdaptiveSum:
    """Sum a positive series until the geometric tail estimate is below tol.

    log_weight: callable mapping an int64 index array to log-weight array;
    -inf entries denote exact zeros.  Returns an AdaptiveSum whose
    ``n_terms`` is the smallest N accepted by the tail rule.

    Raises ConvergenceError when n_max retained terms do not suffice; the
    exception carries the last relative tail estimate.
    """
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
