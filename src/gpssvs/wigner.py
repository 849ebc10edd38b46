"""Wigner function of PSSVS: Laguerre closed form plus an independent oracle.

For a single-parity state |ψ> = Σ c_l |p_l> the Wigner function reduces,
after the change of variable γ = 2z, to a double sum over coefficient
pairs multiplied by displacement-type kernels

    K(p, q, γ) = sqrt(p!/q!) γ^{q-p} e^{-|γ|²/2} L_p^{(q-p)}(|γ|²),  q >= p,

with the mirrored conjugate form for q < p, and an overall parity sign
(+1 even, -1 odd support):  W(z) = (2/π) σ Σ c_{l1} c̄_{l2} K(p1, p2, 2z).
Since |K| <= 1, terms are bounded by |c c̄| and the sum is absolutely
convergent at the state's own truncation.  The evaluator groups the pairs
by diagonal d = |l2 - l1|, whose kernels share the Laguerre order 2d, and
runs one three-term recurrence over the degree for a whole array of
points at once (Clenshaw-style, as in Johansson, Nation & Nori, CPC 184,
1234 (2013)).

The oracle route never touches that reduction: it displaces the state and
takes the parity expectation, W(z) = (2/π) Σ_k (-1)^k |<k|D(-z)|ψ>|²,
with displacement matrix elements evaluated through scipy's Laguerre
implementation.  scipy is imported there, on first use, so the closed form
runs on numpy alone.
"""

from dataclasses import dataclass
import math
import os

import numpy as np

from .deform import Nonlinearity, log_factorial, xlogy
from .errors import DimTooSmallError, InternalConsistencyError, MemoryBudgetError
from .states import EVEN, FockExpansion, SqueezeSpec

TWO_OVER_PI = 2.0 / math.pi
IMAG_RESIDUE_TOL = 1e-8
ORACLE_DEFICIT_TOL = 1e-9

_BIG = 1e270
_LOG_BIG = math.log(_BIG)

# Points × diagonals evaluated together: bounds the evaluator's working set
# whatever the number of points.  The row tables of one block of degrees
# hold at most max(CHUNK_CELLS, 3N) floats, and the next block's are built
# before the last ones are freed.  Beyond those, a full chunk peaks at
# 100-112 bytes per cell (tracemalloc, N = 9, 613 and 2 565).
CHUNK_CELLS = 1 << 13
_CELL_BYTES = 120
_POINT_BYTES = 24  # the complex node and its value


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


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the OS does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


class _WignerEvaluator:
    """Closed-form W at arrays of points for one state.

    The pair (l1, l2) has Laguerre order 2d with d = |l2 - l1| and degree
    p = 2 lo + s, lo = min(l1, l2), s the parity offset.  Writing M for the
    normalized polynomial L_p^{(2d)}(x) / sqrt(C(p + 2d, p)), W becomes

        W = (2/π) σ Σ_d [γ^{2d} S_d + γ̄^{2d} S̄_d] e^{-x/2} / sqrt((2d)!),
        S_d = Σ_lo c_lo c̄_{lo+d} M_{2lo+s}^{(2d)}(x),

    with the d = 0 diagonal counted once.  One pass of the three-term
    recurrence for M over the degree adds the row of pair coefficients
    c_lo c̄_{lo+d} into S as the degree reaches 2 lo + s, so no Laguerre
    table is stored and no exponential is taken per pair.

    The recurrence runs on (diagonals × points) arrays.  Diagonals that
    have no pair left drop off the end, so the active ones are a leading
    block [:k], and for four or more points per chunk the arrays are
    diagonal-major: each operation runs over one contiguous block, long
    even when a grid state has only a few diagonals.  The x-independent
    rows 2 deg + 1 + 2d and sqrt(deg (deg + 2d)) are built for a block of
    degrees at once (at most about CHUNK_CELLS cells), so a degree costs
    five array updates.

    Cells whose values pass 1e270 are rescaled, the scale carried in a
    log offset.  Abramowitz & Stegun 22.14.13 bound |L_p^{(a)}(x)| by
    C(p + a, p) e^{x/2} for a, x >= 0; every active cell at degree p has
    p + 2d <= max_degree, so |M| <= sqrt(C(max_degree, p)) e^{x/2}.  A
    block of degrees where that bound stays e^10 below 1e270 skips the
    scan, which could not fire there; in practice the scan runs only
    above N ≈ 900 or far from the origin.

    Both orientations l2 > l1 and l2 < l1 are summed, the second with
    phase 2d(π - arg γ) as in the pair sum, so the imaginary residue of W
    stays a real check.  Points are evaluated in chunks of CHUNK_CELLS
    points × diagonals; every operation acts on each point alone, so
    values do not depend on the chunking or the memory order.
    """

    def __init__(self, state: FockExpansion):
        self.n = state.truncation
        self.s = 0 if state.parity == EVEN else 1
        self.sigma = 1.0 if self.s == 0 else -1.0
        self.coeffs = state.coeffs
        self.conj_coeffs = np.conj(state.coeffs)
        self.alphas = 2.0 * np.arange(self.n)
        self.log_norm = -0.5 * log_factorial(2 * np.arange(self.n))
        self.max_degree = top = 2 * (self.n - 1) + self.s
        # ln sqrt(C(max_degree, p)): |M| at degree p is below e^{x/2} times this.
        degrees = np.arange(top + 1)
        self.log_bound = 0.5 * (log_factorial(top) - log_factorial(degrees)
                                - log_factorial(top - degrees))

    def _chunk_points(self) -> int:
        return max(1, CHUNK_CELLS // self.n)

    def require_memory(self, points: int) -> None:
        """Refuse (MemoryBudgetError) when nodes, values and one chunk do not fit.

        The chunk is charged one point more for the evaluator's own
        per-diagonal arrays, plus two blocks of row tables.
        """
        cells = (min(points, self._chunk_points()) + 1) * self.n
        tables = 2 * max(CHUNK_CELLS, 3 * self.n)
        need = points * _POINT_BYTES + cells * _CELL_BYTES + tables * 8
        have = _physical_memory()
        if have is not None and need > have:
            raise MemoryBudgetError(
                f"Wigner evaluation of {points} points at truncation {self.n} "
                f"needs about {need / 2**20:.0f} MiB; the machine has "
                f"{have / 2**20:.0f} MiB")

    def evaluate(self, z) -> np.ndarray:
        """W at every point of z, in an array of z's shape."""
        z = np.asarray(z, dtype=complex)
        flat = z.reshape(-1)
        out = np.empty(flat.size)
        step = self._chunk_points()
        for start in range(0, flat.size, step):
            out[start:start + step] = self._chunk(flat[start:start + step])
        return out.reshape(z.shape)

    def _chunk(self, z: np.ndarray) -> np.ndarray:
        g_re, g_im = 2.0 * z.real, 2.0 * z.imag
        x = g_re * g_re + g_im * g_im
        acc, offsets = self._sums(x)
        arg = np.arctan2(g_im, g_re)
        alphas = self.alphas[:, None]
        log_mag = xlogy(0.5 * alphas, x) - 0.5 * x + self.log_norm[:, None] + offsets
        upper = acc * np.exp(log_mag + 1j * (alphas * arg))
        lower = np.conj(acc) * np.exp(log_mag + 1j * (alphas * (math.pi - arg)))
        # Diagonal by diagonal, so each point's sum is the same in any chunk.
        total = upper[0].copy()
        for d in range(1, self.n):
            total += upper[d]
            total += lower[d]
        w = (TWO_OVER_PI * self.sigma) * total
        bad = np.abs(w.imag) > IMAG_RESIDUE_TOL
        if bad.any():
            i = int(np.argmax(bad))
            raise InternalConsistencyError(
                f"Wigner double sum left imaginary residue {w.imag[i]:.3e} at z={z[i]}")
        return w.real

    def _sums(self, x: np.ndarray):
        """S_d at the points x = |γ|², divided by e^offsets, and the offsets.

        Both are (diagonals × points) arrays.  The recurrence runs in a call
        of its own so that its arrays are freed before the final sum.
        """
        n, s = self.n, self.s
        # With two or three points per chunk (N > CHUNK_CELLS / 4, or an
        # array that small), numpy would run the row products diagonal-major
        # in loops that short; point-major memory keeps them one diagonal
        # block long.
        order = "C" if x.size > 3 else "F"
        prev = np.zeros((n, x.size), order=order)
        cur = np.ones((n, x.size), order=order)
        work = np.empty((n, x.size), order=order)
        offsets = np.zeros((n, x.size), order=order)
        acc = np.zeros((n, x.size), dtype=complex, order=order)
        max_degree = self.max_degree
        # Degrees whose log_bound stays below this cannot reach 1e270; a NaN
        # point leaves room NaN, and "not <=" keeps the scan on.
        room = _LOG_BIG - 10.0 - 0.5 * float(x.max())
        block_end = 0
        for deg in range(max_degree + 1):
            if deg >= s and (deg - s) % 2 == 0:
                lo = (deg - s) // 2
                acc[:n - lo] += (self.coeffs[lo] * self.conj_coeffs[lo:])[:, None] * cur[:n - lo]
            if deg == max_degree:
                break
            # Only diagonals that still have a pair at a higher degree advance.
            k = n - (deg + 2 - s) // 2
            if deg == block_end:
                # Rows 2 deg + 1 + a and sqrt(deg (deg + a)) for a block of
                # degrees, about CHUNK_CELLS cells in all.
                block_start = deg
                block_end = min(deg + max(1, (CHUNK_CELLS // k - 1) // 2), max_degree)
                degs = np.arange(deg, block_end + 1, dtype=float)[:, None]
                a = self.alphas[:k]
                base = (2.0 * degs[:-1] + 1.0) + a
                root = degs + a
                root *= degs
                np.sqrt(root, out=root)
                peak = min(max(max_degree // 2, deg + 1), block_end)
                scan = not self.log_bound[peak] <= room
            i = deg - block_start
            cur_k, nxt = cur[:k], prev[:k]  # degree deg + 1 overwrites deg - 1
            lead = np.subtract(base[i, :k, None], x, out=work[:k])
            lead *= cur_k
            nxt *= root[i, :k, None]
            np.subtract(lead, nxt, out=nxt)
            nxt /= root[i + 1, :k, None]
            if scan:
                _rescale(nxt, cur_k, acc[:k], offsets[:k])
            prev, cur = cur, prev
        return acc, offsets


def _rescale(nxt, cur, acc, offsets) -> bool:
    """Divide the cells where |nxt| passes 1e270 by it; True if any did."""
    big = np.abs(nxt) > _BIG
    if not big.any():
        return False
    for arr in (nxt, cur, acc):
        np.divide(arr, _BIG, out=arr, where=big)
    np.add(offsets, _LOG_BIG, out=offsets, where=big)
    return True


def wigner_point(state: FockExpansion, z):
    """W(z) from the Laguerre-kernel double sum over coefficient pairs.

    z is one complex point or an array of them; the result is a float or
    an array of z's shape.  All points share one pass of the evaluator.
    """
    evaluator = _WignerEvaluator(state)
    evaluator.require_memory(int(np.size(z)))
    values = evaluator.evaluate(z)
    return float(values) if values.ndim == 0 else values


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
        from scipy.special import eval_genlaguerre

        lag = eval_genlaguerre(lo, diff, x)
        if not np.all(np.isfinite(lag)):
            raise InternalConsistencyError("Laguerre overflow in displacement block")
        with np.errstate(divide="ignore"):
            log_l = np.log(np.abs(lag))
        sign_l = np.sign(lag)
    log_mag = (0.5 * (log_factorial(lo) - log_factorial(hi))
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

    The ranges must be finite, and resolution is one node count for both
    axes or a (nx, np) pair, each at least 2.  All nodes go through one
    evaluator in fixed-size chunks, so each value is bit for bit
    wigner_point at its node.  A grid whose nodes, values and chunk would
    not fit in physical memory is refused up front (MemoryBudgetError);
    any point failure aborts the whole grid, so a returned grid is always
    complete.
    """
    if np.isscalar(resolution):
        res_x = res_p = int(resolution)
    else:
        res_x, res_p = (int(v) for v in resolution)
    if res_x < 2 or res_p < 2:
        raise ValueError("resolution must be at least 2 nodes per axis")
    (x_lo, x_hi), (p_lo, p_hi) = ((float(a), float(b)) for a, b in (x_range, p_range))
    if not all(math.isfinite(v) for v in (x_lo, x_hi, p_lo, p_hi)):
        raise ValueError("grid ranges must be finite")
    x_axis = np.linspace(x_lo, x_hi, res_x)
    p_axis = np.linspace(p_lo, p_hi, res_p)
    evaluator = _WignerEvaluator(state)
    evaluator.require_memory(res_x * res_p)
    nodes = np.empty((res_x, res_p), dtype=complex)
    nodes.real = x_axis[:, None]
    nodes.imag = p_axis[None, :]
    values = evaluator.evaluate(nodes)
    for arr in (x_axis, p_axis, values):
        arr.flags.writeable = False
    integral = float(np.trapezoid(np.trapezoid(values, p_axis, axis=1), x_axis))
    negative = 0.5 * (np.abs(values) - values)
    neg_volume = float(np.trapezoid(np.trapezoid(negative, p_axis, axis=1), x_axis))
    return WignerGrid(x_axis=x_axis, p_axis=p_axis, values=values, nl=state.nl,
                      spec=state.spec, min_value=float(values.min()),
                      negative_volume=neg_volume, integral=integral)
