"""Beamformed skymaps over a direction-cosine grid, plus peak finding.

A classical map evaluates real(a^H R a) / M^2 per pixel; cyclic maps take
the magnitude of the same quadratic form since the cyclic matrix is not
Hermitian. The M^2 normalization makes an on-grid unit point source read
as a peak of height ~= its power.

Maps are formed in the baseline domain: a^H R b is a sum over antenna
pairs, and on the regular (l, m) grid each pair's phase is an l factor times
an m factor. Each per-axis phase table is band-limited in the pair
coordinate, so it factors through its values at a few Chebyshev points of
that coordinate (after Ruiz-Antolin & Townsend, SIAM J. Sci. Comput. 2018).
A map is thus a small core product over pairs between two such factors,
cached per (geometry, grid).
"""

from dataclasses import dataclass

import numpy as np

from .arraysim import C_LIGHT, ArrayGeometry, DirectionLM
from .cyclospec import _local_maxima

KIND_CLASSICAL = "classical"
KIND_CYCLIC = "cyclic"
KIND_CONJ_CYCLIC = "conjugate_cyclic"


@dataclass
class SkymapGrid:
    l_min: float = -1.0
    l_max: float = 1.0
    m_min: float = -1.0
    m_max: float = 1.0
    n_l: int = 128
    n_m: int = 128

    def __post_init__(self):
        for v in (self.l_min, self.l_max, self.m_min, self.m_max):
            if not -1.0 <= v <= 1.0:
                raise ValueError("grid bounds must lie in [-1, 1]")
        if self.l_min >= self.l_max or self.m_min >= self.m_max:
            raise ValueError("grid bounds must be ordered")
        if self.n_l < 2 or self.n_m < 2:
            raise ValueError("need at least 2 pixels per axis")

    def l_axis(self):
        return np.linspace(self.l_min, self.l_max, self.n_l)

    def m_axis(self):
        return np.linspace(self.m_min, self.m_max, self.n_m)

    def mask(self):
        """True for pixels on the visible hemisphere."""
        ll, mm = np.meshgrid(self.l_axis(), self.m_axis(), indexing="ij")
        return ll ** 2 + mm ** 2 <= 1.0


@dataclass
class Skymap:
    grid: SkymapGrid
    power: np.ndarray
    kind: str
    alpha: float = 0.0


# Direct-form contract for every map kind: a map differs from the steering-
# matrix form a^H R b, evaluated pixel by pixel, by at most MAP_MATCH_RTOL
# times the largest magnitude of that form on the grid.
MAP_MATCH_RTOL = 1e-12

# Largest error bound accepted for the Chebyshev interpolant of a pair phase,
# relative to the phase's unit magnitude (`_node_count`).
_PHASE_TOL = 1e-16

# The one (geometry, grid) operator in use: key -> per-axis pair factors and
# the visibility mask (see `_operator`). Every map of a run shares it; a
# single entry bounds the memory to one operator, and `release_operator`
# frees it.
_operator_cache = {}


def _node_count(omega, limit):
    """Smallest K >= 2 whose Chebyshev interpolant of exp(i omega t) on
    [-1, 1] has its a-priori error bound below _PHASE_TOL, or `limit` if no
    K < limit does.

    The Chebyshev coefficients of exp(i omega t) are 2 i^k J_k(omega), with
    |J_k(omega)| <= (omega / 2)^k / k!, and the interpolant in K points errs
    by at most twice the sum of the coefficients it drops (Trefethen,
    "Approximation Theory and Approximation Practice", Thm. 4.2): at most
    4 sum_{k >= K} (omega / 2)^k / k!, whose terms fall from the first one
    on by the ratio q = omega / (2K + 2) or less. A term beyond the float
    range stays infinite, so the count is then `limit`.
    """
    term = 1.0
    for k in range(1, limit):
        term *= omega / (2.0 * k)
        q = omega / (2.0 * k + 2.0)
        if k >= 2 and q < 1.0 and 4.0 * term < (1.0 - q) * _PHASE_TOL:
            return k
    return limit


def _axis_factor(axis, s, kappa):
    """(U, W) with U @ W.T = the pair-phase table exp(i kappa axis[:, None] s)
    to rounding error: U (n x K) holds the phases at K Chebyshev points of
    the range of s, and W (B x K, real) the barycentric Lagrange weights of
    each s_p at those points (Berrut & Trefethen, SIAM Rev. 2004). K comes
    from `_node_count`; where it would reach the n pixels of the axis, the
    table is its own factor, U = I and W = the table, transposed.
    """
    center = 0.5 * (s.max() + s.min())
    half = 0.5 * (s.max() - s.min())
    k = _node_count(kappa * np.abs(axis).max() * half, len(axis))
    if k == len(axis):
        return np.eye(k), np.exp(1j * kappa * s[:, None] * axis)
    # Chebyshev points of the second kind, cos(j pi / (K - 1)), in the
    # scaled pair coordinate t = (s - center) / half, and their weights.
    nodes = np.cos(np.pi * np.arange(k) / (k - 1))
    node_weights = (-1.0) ** np.arange(k)
    node_weights[[0, -1]] *= 0.5
    t = np.clip((s - center) / half, -1.0, 1.0) if half > 0 else np.zeros_like(s)
    # A pair on a node takes that node's value alone.
    on_node = np.isin(t, nodes)
    gap = t[:, None] - nodes
    gap[on_node] = 1.0
    w = node_weights / gap
    w[on_node] = t[on_node, None] == nodes
    w /= w.sum(axis=1, keepdims=True)
    return np.exp(1j * kappa * axis[:, None] * (center + half * nodes)), w


def _operator(geom: ArrayGeometry, grid: SkymapGrid):
    """Per-axis factors of the pair-phase tables, built once per (geometry,
    grid) value. The arrays are read-only because they are shared by every
    map with the same key.

    With kappa = 2 pi f0 / c and a_n = exp(-i kappa (x_n l + y_n m)), a pair's
    phase over the grid is an l factor times an m factor, and each factor is
    a table T[l, p] = exp(i kappa l s_p) over the pair coordinates s_p:

    - diff_l and diff_m hold conj(a_n) a_m = exp(i kappa (x_n - x_m) l)
      exp(i kappa (y_n - y_m) m) for the B' = M(M-1)/2 pairs n < m;
    - sum_l and sum_m hold conj(a_n) conj(a_m), the same with x_n + x_m and
      y_n + y_m, for the B'' = M(M+1)/2 pairs n <= m.

    Each is a pair (U, W) from `_axis_factor` with T = U W^T.
    """
    key = (np.asarray(geom.positions, dtype=float).tobytes(), geom.f0,
           grid.l_min, grid.l_max, grid.m_min, grid.m_max, grid.n_l, grid.n_m)
    op = _operator_cache.get(key)
    if op is None:
        # Free the old operator first, so that two never coexist.
        _operator_cache.clear()
        kappa = 2.0 * np.pi * geom.f0 / C_LIGHT
        l, m = grid.l_axis(), grid.m_axis()
        x, y = geom.positions[:, 0], geom.positions[:, 1]
        n, k = np.triu_indices(geom.n_antennas, 1)
        diff_l = _axis_factor(l, x[n] - x[k], kappa)
        diff_m = _axis_factor(m, y[n] - y[k], kappa)
        n, k = np.triu_indices(geom.n_antennas)
        sum_l = _axis_factor(l, x[n] + x[k], kappa)
        sum_m = _axis_factor(m, y[n] + y[k], kappa)
        op = (diff_l, diff_m, sum_l, sum_m, grid.mask())
        for arr in (*diff_l, *diff_m, *sum_l, *sum_m, op[-1]):
            arr.flags.writeable = False
        _operator_cache[key] = op
    return op


def release_operator():
    """Free the cached imaging operator; the next map builds it again."""
    _operator_cache.clear()


def _pair_map(factor_l, factor_m, weights):
    """sum_p w_p T_l[:, p] T_m[:, p]^T for each row w of `weights`, shaped
    (rows, n_l, n_m): U_l (W_l^T diag(w) W_m) U_m^T. With W_l real the core
    is one real product, W_l^T (K_l x B) against diag(w) W_m (B x K_m)
    viewed as interleaved floats.
    """
    (u_l, w_l), (u_m, w_m) = factor_l, factor_m
    right = weights[:, :, None] * w_m
    if np.isrealobj(w_l):
        core = (w_l.T @ right.view(np.float64)).view(np.complex128)
    else:
        core = w_l.T @ right
    return u_l @ core @ u_m.T


def _quadratic_form(values, geom: ArrayGeometry, grid: SkymapGrid, kind):
    """a^H R b on the (n_l, n_m) grid, with b = conj(a) for the conjugate
    cyclic kind and b = a otherwise, as a product over antenna pairs; only
    the real part for the classical kind. Also returns the visibility mask.

    The pair folds are exact for any R, symmetric or not. Over a pair n < m,
    R_nm D + R_mn conj(D) with D = conj(a_n) a_m is u D + conj(v D) with
    u = R_nm and v = conj(R_mn), whose real part is Re((u + v) D); conjugate
    maps weight conj(a_n) conj(a_m) by R_nm + R_mn, and the pair n = m by
    R_nn.
    """
    diff_l, diff_m, sum_l, sum_m, visible = _operator(geom, grid)
    if kind == KIND_CONJ_CYCLIC:
        folded = values + values.T
        np.fill_diagonal(folded, values.diagonal())
        pairs = folded[np.triu_indices(len(values))]
        return _pair_map(sum_l, sum_m, pairs[None])[0], visible
    n, k = np.triu_indices(len(values), 1)
    upper, lower = values[n, k], values[k, n].conj()
    trace = np.trace(values)
    if kind == KIND_CLASSICAL:
        form = _pair_map(diff_l, diff_m, (upper + lower)[None])[0]
        return form.real + trace.real, visible
    up, low = _pair_map(diff_l, diff_m, np.stack((upper, lower)))
    return up + low.conj() + trace, visible


def skymap(r_matrix, geom: ArrayGeometry, grid: SkymapGrid) -> Skymap:
    """Classical beamformed power map from an M x M covariance array."""
    if r_matrix.shape[0] != geom.n_antennas:
        raise ValueError("covariance and geometry dimensions disagree")
    form, visible = _quadratic_form(r_matrix, geom, grid, KIND_CLASSICAL)
    q = np.clip(form / geom.n_antennas ** 2, 0.0, None)
    q[~visible] = 0.0
    return Skymap(grid, q, KIND_CLASSICAL)


def cyclic_skymap(ra_matrix, geom: ArrayGeometry, grid: SkymapGrid) -> Skymap:
    """Skymap of |a^H R_alpha a| / M^2 (conjugated right vector for the
    conjugate estimator)."""
    values = ra_matrix.values
    if values.shape[0] != geom.n_antennas:
        raise ValueError("cyclic matrix and geometry dimensions disagree")
    kind = KIND_CONJ_CYCLIC if ra_matrix.conjugate else KIND_CYCLIC
    form, visible = _quadratic_form(values, geom, grid, kind)
    q = np.abs(form) / geom.n_antennas ** 2
    q[~visible] = 0.0
    return Skymap(grid, q, kind, ra_matrix.alpha)


def _refine_axis(fm, f0, fp):
    denom = fm - 2.0 * f0 + fp
    if denom >= 0:
        return 0.0, 0.0
    off = 0.5 * (fm - fp) / denom
    off = float(np.clip(off, -0.5, 0.5))
    return off, -0.25 * (fm - fp) * off


def locate_peaks(smap: Skymap, max_peaks: int):
    """Interpolated local maxima above median + 5 * MAD of unmasked pixels."""
    if max_peaks < 1:
        raise ValueError("max_peaks must be >= 1")
    power = smap.power
    mask = smap.grid.mask()
    if not mask.any():  # no visible pixel, and np.median([]) warns
        return []
    n_l, n_m = power.shape
    l_axis = smap.grid.l_axis()
    m_axis = smap.grid.m_axis()
    dl = l_axis[1] - l_axis[0]
    dm = m_axis[1] - m_axis[0]
    vals = power[mask]
    med = np.median(vals)
    # MAD scaled to the standard deviation of a Gaussian.
    mad = 1.4826 * np.median(np.abs(vals - med))
    peaks = []
    for i, j in zip(*_local_maxima(power, mask, med + 5.0 * mad)):
        value = power[i, j]
        off_i = off_j = 0.0
        if 0 < i < n_l - 1 and 0 < j < n_m - 1 and mask[i - 1:i + 2, j - 1:j + 2].all():
            off_i, dv_i = _refine_axis(power[i - 1, j], value, power[i + 1, j])
            off_j, dv_j = _refine_axis(power[i, j - 1], value, power[i, j + 1])
            value = value + dv_i + dv_j
        l = l_axis[i] + off_i * dl
        m = m_axis[j] + off_j * dm
        norm = np.hypot(l, m)
        if norm > 1.0:
            l, m = l / norm, m / norm
        peaks.append((DirectionLM(l, m), float(value)))
    peaks.sort(key=lambda p: -p[1])
    return peaks[:max_peaks]
