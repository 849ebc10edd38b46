"""Wigner function of PSSVS: Laguerre closed form plus an independent oracle.

For a single-parity state |ψ> = Σ c_l |p_l> the Wigner function reduces,
after the change of variable γ = 2z, to a double sum over coefficient
pairs multiplied by displacement-type kernels

    K(p, q, γ) = sqrt(p!/q!) γ^{q-p} e^{-|γ|²/2} L_p^{(q-p)}(|γ|²),  q >= p,

with the mirrored conjugate form for q < p, and an overall parity sign
(+1 even, -1 odd support):  W(z) = (2/π) σ Σ c_{l1} c̄_{l2} K(p1, p2, 2z).
Since |K| <= 1, terms are bounded by |c c̄| and the sum is absolutely
convergent at the state's own truncation.

The oracle route never touches that reduction: it displaces the state and
takes the parity expectation, W(z) = (2/π) Σ_k (-1)^k |<k|D(-z)|ψ>|²,
with displacement matrix elements evaluated through scipy's Laguerre
implementation.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
import math
import os

import numpy as np
from scipy.special import eval_genlaguerre, gammaln, xlogy

from .deform import Nonlinearity
from .errors import DimTooSmallError, InternalConsistencyError
from .states import EVEN, FockExpansion, SqueezeSpec

TWO_OVER_PI = 2.0 / math.pi
IMAG_RESIDUE_TOL = 1e-8
ORACLE_DEFICIT_TOL = 1e-9

_BIG = 1e270
_LOG_BIG = math.log(_BIG)


def _laguerre_log_table(max_degree: int, alphas: np.ndarray, x: float):
    """log|L| and sign for all degrees 0..max_degree at each order in alphas.

    Column c holds L_n^{(alphas[c])}(x).  The recurrence runs in linear
    space with a per-column offset that absorbs overflow; logs are taken
    once at the end.
    """
    alphas = np.asarray(alphas, dtype=float)
    n_cols = alphas.size
    val_t = np.zeros((max_degree + 1, n_cols))
    off_t = np.zeros((max_degree + 1, n_cols))
    val_t[0] = 1.0
    if max_degree >= 1:
        prev = np.ones(n_cols)
        cur = 1.0 + alphas - x
        offsets = np.zeros(n_cols)
        val_t[1] = cur
        for n in range(1, max_degree):
            prev, cur = cur, ((2 * n + 1 + alphas - x) * cur - (n + alphas) * prev) / (n + 1)
            big = np.abs(cur) > _BIG
            if big.any():
                cur[big] /= _BIG
                prev[big] /= _BIG
                offsets[big] += _LOG_BIG
            val_t[n + 1] = cur
            off_t[n + 1] = offsets
    with np.errstate(divide="ignore"):
        log_t = np.log(np.abs(val_t)) + off_t
    sign_t = np.sign(val_t).astype(np.int8)
    return log_t, sign_t


class _WignerEvaluator:
    """Per-state precomputation for repeated closed-form point evaluations."""

    def __init__(self, state: FockExpansion):
        n = state.truncation
        s = 0 if state.parity == EVEN else 1
        self.sigma = 1.0 if s == 0 else -1.0
        self.max_degree = 2 * (n - 1) + s
        self.alphas = 2.0 * np.arange(n)
        idx = np.arange(n)
        l1 = np.repeat(idx, n)
        l2 = np.tile(idx, n)
        lo = np.minimum(l1, l2)
        d = np.abs(l2 - l1)
        self.p_lo = 2 * lo + s
        self.d_cols = d
        self.diff = (2 * d).astype(float)
        lg = gammaln(np.arange(self.max_degree + 2 * n + 2, dtype=float))
        self.log_pref = (state.log_mags[l1] + state.log_mags[l2]
                         + 0.5 * (lg[self.p_lo + 1] - lg[self.p_lo + 2 * d + 1]))
        self.dphase = state.phases[l1] - state.phases[l2]
        self.ket_below = (l2 >= l1)

    def evaluate(self, z: complex) -> float:
        gamma = 2.0 * complex(z)
        x = abs(gamma) ** 2
        log_t, sign_t = _laguerre_log_table(self.max_degree, self.alphas, x)
        log_l = log_t[self.p_lo, self.d_cols]
        sign_l = sign_t[self.p_lo, self.d_cols]
        log_mag = (self.log_pref + xlogy(self.diff, abs(gamma)) - 0.5 * x + log_l)
        ang = math.atan2(gamma.imag, gamma.real)
        base_ang = np.where(self.ket_below, ang, math.pi - ang)
        phase = self.dphase + self.diff * base_ang + np.where(sign_l < 0, math.pi, 0.0)
        total = complex(np.sum(np.exp(log_mag + 1j * phase)))
        w = TWO_OVER_PI * self.sigma * total
        if abs(w.imag) > IMAG_RESIDUE_TOL:
            raise InternalConsistencyError(
                f"Wigner double sum left imaginary residue {w.imag:.3e} at z={z}")
        return w.real


def wigner_point(state: FockExpansion, z: complex) -> float:
    """W(z) from the Laguerre-kernel double sum over coefficient pairs."""
    return _WignerEvaluator(state).evaluate(z)


def displacement_columns(delta: complex, photon_numbers: np.ndarray, dim: int,
                         band: int | None = None) -> np.ndarray:
    """Matrix of <k|D(delta)|n> for k = 0..dim-1 and the given columns n.

    Elements with |k - n| > band are left at zero (they are negligible
    when band exceeds ~e|δ|√n plus a safety margin).  Evaluation goes
    through scipy's generalized-Laguerre routine while its values fit in
    doubles (|L_q^{(a)}(x)| <= C(q+a, q) e^{x/2}), and falls back to a
    log-domain recurrence for the large windows where they cannot.
    """
    delta = complex(delta)
    cols = np.asarray(photon_numbers, dtype=np.int64)
    x = abs(delta) ** 2
    k_idx, n_idx = np.meshgrid(np.arange(dim, dtype=np.int64), cols, indexing="ij")
    if band is not None:
        sel = np.abs(k_idx - n_idx) <= band
        k_sel, n_sel = k_idx[sel], n_idx[sel]
    else:
        k_sel, n_sel = k_idx.ravel(), n_idx.ravel()
    lo = np.minimum(k_sel, n_sel)
    hi = np.maximum(k_sel, n_sel)
    d_int = hi - lo
    diff = d_int.astype(float)
    if hi.size and float(hi.max()) * math.log(2.0) + 0.5 * x >= 600.0:
        log_tab, sign_tab = _laguerre_log_table(
            int(lo.max()), np.arange(int(d_int.max()) + 1, dtype=float), x)
        log_l = log_tab[lo, d_int]
        sign_l = sign_tab[lo, d_int].astype(float)
    else:
        lag = eval_genlaguerre(lo, diff, x)
        if not np.all(np.isfinite(lag)):
            raise InternalConsistencyError("Laguerre overflow in displacement block")
        with np.errstate(divide="ignore"):
            log_l = np.log(np.abs(lag))
        sign_l = np.sign(lag)
    log_mag = (0.5 * (gammaln(lo + 1.0) - gammaln(hi + 1.0))
               + xlogy(diff, abs(delta)) - 0.5 * x)
    log_abs = log_mag + log_l
    ang = math.atan2(delta.imag, delta.real)
    base_ang = np.where(k_sel >= n_sel, ang, math.pi - ang)
    phase = diff * base_ang + np.where(sign_l < 0, math.pi, 0.0)
    vals = np.exp(log_abs + 1j * phase)
    out = np.zeros((dim, cols.size), dtype=complex)
    if band is not None:
        out[sel] = vals
    else:
        out[:] = vals.reshape(dim, cols.size)
    return out


def _oracle_window(state: FockExpansion, delta: complex) -> tuple[int, int]:
    """(dim, band) of the displaced-parity window for support up to |max_p>.

    Displacing |n> by δ spreads it to photon numbers near (√(n+1) + |δ|)²,
    so far from the origin the margin grows with |δ|²; near the origin
    the e|δ|√(n+1) spread is the larger one and sets the window.
    """
    max_p = int(state.photon_numbers[-1])
    root, size = math.sqrt(max_p + 1.0), abs(delta)
    margin = int(math.ceil(max(math.e * size * root, size * size + 2.0 * size * root))) + 40
    return max_p + 1 + margin, margin


def wigner_point_oracle(state: FockExpansion, z: complex,
                        dim: int | None = None, band: int | None = None) -> float:
    """W(z) via displaced parity: (2/π) Σ_k (-1)^k |<k|D(-z)|ψ>|².

    Verification-only route.  Refuses to answer when the displaced state
    does not fit the Fock window (norm deficit above 1e-9).
    """
    delta = -complex(z)
    auto_dim, auto_band = _oracle_window(state, delta)
    dim = auto_dim if dim is None else dim
    band = auto_band if band is None else band
    block = displacement_columns(delta, state.photon_numbers, dim, band)
    phi = block @ state.coeffs
    probs = np.abs(phi) ** 2
    deficit = abs(1.0 - float(np.sum(probs)))
    if deficit > ORACLE_DEFICIT_TOL:
        raise DimTooSmallError(
            f"displaced-parity window dropped {deficit:.3e} of the norm; "
            "increase dim/band")
    signs = 1.0 - 2.0 * (np.arange(dim) % 2)
    return float(TWO_OVER_PI * np.dot(signs, probs))


@dataclass(frozen=True, eq=False)
class WignerGrid:
    """Wigner values on a rectangular phase-space grid with metrics.

    The negativity metrics are min_value, negative_volume (the trapezoid
    integral of the negative part) and integral (of W itself, ≈ 1).
    """

    x_axis: np.ndarray
    p_axis: np.ndarray
    values: np.ndarray
    nl: Nonlinearity
    spec: SqueezeSpec | None
    min_value: float
    negative_volume: float
    integral: float


def wigner_grid(state: FockExpansion, x_range, p_range, resolution) -> WignerGrid:
    """Evaluate W on the product grid and attach negativity metrics.

    resolution is one node count for both axes or a (nx, np) pair, each at
    least 2.  Rows are shared among one worker thread per CPU the process
    may run on; any per-point failure aborts the whole grid, so a returned
    grid is always complete.
    """
    if np.isscalar(resolution):
        res_x = res_p = int(resolution)
    else:
        res_x, res_p = (int(v) for v in resolution)
    if res_x < 2 or res_p < 2:
        raise ValueError("resolution must be at least 2 nodes per axis")
    x_axis = np.linspace(float(x_range[0]), float(x_range[1]), res_x)
    p_axis = np.linspace(float(p_range[0]), float(p_range[1]), res_p)
    evaluator = _WignerEvaluator(state)

    def row(ix: int) -> np.ndarray:
        xv = x_axis[ix]
        return np.array([evaluator.evaluate(complex(xv, pv)) for pv in p_axis])

    workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        values = np.vstack(list(pool.map(row, range(res_x))))
    for arr in (x_axis, p_axis, values):
        arr.flags.writeable = False
    integral = float(np.trapezoid(np.trapezoid(values, p_axis, axis=1), x_axis))
    negative = 0.5 * (np.abs(values) - values)
    neg_volume = float(np.trapezoid(np.trapezoid(negative, p_axis, axis=1), x_axis))
    return WignerGrid(x_axis=x_axis, p_axis=p_axis, values=values, nl=state.nl,
                      spec=state.spec, min_value=float(values.min()),
                      negative_volume=neg_volume, integral=integral)
