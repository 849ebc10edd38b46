"""Adaptive summation of positive series given in log space.

The coefficient and moment series in this package are sums of positive
weights whose logarithms are cheap to evaluate but whose raw values span
hundreds of orders of magnitude.  This module owns the single truncation
rule used everywhere: keep adding terms until the geometric tail estimate

    w_N / (1 - rho),   rho = w_N / w_{N-1}   (valid once rho < 1)

drops below ``tol`` relative to the running sum, where w_N is the first
discarded term.  The retained-term count is capped at ``n_max``.

The scan works one block of weights at a time.  Array operations give
the running sums (``np.logaddexp.accumulate``, the same chain of roundings
as adding one term at a time) and locate the first indices that could end
the series, with a margin for the last-ulp differences between numpy's
vectorized ``exp``/``log1p`` and ``math``'s.  The scalar rule then
confirms or rejects each of those indices with ``math`` calls, so the
retained count, the tail estimate and every error are those of a scan
that adds one term at a time.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import ConvergenceError, TruncationError

_LOG_EPS = -745.0  # weight relative to the running sum below exp() underflow: zero
_FIRST_BLOCK = 64  # blocks double from here, so a scan makes O(log N) calls
_SLACK = 1e-12     # relative margin of the array tail test over the scalar one


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


def _tail(w: float, prev: float, log_run: float) -> tuple[float, float]:
    """Scalar geometric tail at a term below its predecessor: (log tail, relative tail)."""
    rho = math.exp(w - prev)
    if rho == 1.0:  # no geometric tail: the term cannot end the series
        return math.inf, math.inf
    log_tail = w - math.log1p(-rho)
    return log_tail, math.exp(min(log_tail - log_run, 700.0))


def _ends_series(w: float, prev: float, log_run: float, log_tol: float):
    """The scalar rule at one term: its relative tail if discarding from it is accepted, else None."""
    if w - log_run < _LOG_EPS:
        return 0.0
    if w - prev < 0.0:
        log_tail, tail_rel = _tail(w, prev, log_run)
        if log_tail < log_tol + log_run:
            return tail_rel
    return None


def adaptive_log_sum(log_weight, tol: float, n_max: int) -> AdaptiveSum:
    """Sum a positive series until the geometric tail estimate is below tol.

    log_weight: callable mapping an int64 index array to log-weight array;
    -inf entries denote exact zeros.  Returns an AdaptiveSum whose
    ``n_terms`` is the smallest N accepted by the tail rule.

    Weights are requested in blocks of doubling length, at most n_max + 1
    indices in all; the decision at each index is the one-term-at-a-time
    rule (see the module docstring).  When a block raises TruncationError
    (a finite deformation table), the rest of the scan requests one index
    at a time, so only indices the scan reaches may raise.

    Raises ConvergenceError when n_max retained terms do not suffice; the
    exception carries the last relative tail estimate.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    log_tol = math.log(tol)

    blocks: list[np.ndarray] = []
    start = 0
    single = False
    log_run = prev = None
    last_drop = None  # (w, prev, log_run) at the last term below its predecessor
    while start <= n_max:
        stop = min(start + (1 if single else max(_FIRST_BLOCK, start)), n_max + 1)
        idx = np.arange(start, stop, dtype=np.int64)
        try:
            w = np.asarray(log_weight(idx), dtype=float)
        except TruncationError:
            if single:
                raise
            single = True
            continue
        blocks.append(w)
        if start == 0:
            if w[0] == -math.inf:
                # Zero leading weight: by construction the callers' series then
                # vanish identically; retain the single structural term.
                return AdaptiveSum(1, np.array([-math.inf]), -math.inf, 0.0)
            log_run = prev = float(w[0])
            w = w[1:]
        first = stop - w.size  # index of w[0]
        with np.errstate(all="ignore"):
            runs = np.logaddexp.accumulate(np.concatenate(([log_run], w)))
            before = runs[:-1]  # running sum before each term
            prevs = np.concatenate(([prev], w[:-1]))
            log_rho = w - prevs
            drop = log_rho < 0.0
            rho = np.exp(log_rho)
            log_tail = w - np.log1p(-rho)
            slack = _SLACK * (1.0 + np.abs(w) + np.abs(log_tail) + 1.0 / (1.0 - rho))
            maybe = (w - before < _LOG_EPS) | (drop & ~(log_tail - slack >= log_tol + before))
        for k in np.flatnonzero(maybe).tolist():
            tail_rel = _ends_series(float(w[k]), float(prevs[k]), float(before[k]), log_tol)
            if tail_rel is not None:
                n = first + k
                kept = np.concatenate(blocks)[:n]
                kept.flags.writeable = False
                return AdaptiveSum(n, kept, _compensated_log_total(kept), tail_rel)
        drops = np.flatnonzero(drop)
        if drops.size:
            k = int(drops[-1])
            last_drop = (float(w[k]), float(prevs[k]), float(before[k]))
        if w.size:
            log_run, prev = runs[-1], float(w[-1])
        start = stop

    last_tail_rel = math.inf if last_drop is None else _tail(*last_drop)[1]
    raise ConvergenceError(
        f"series tail {last_tail_rel:.3e} still above tol {tol:.3e} "
        f"after {n_max} retained terms",
        achieved_tail=last_tail_rel,
    )
