"""Beamformed skymaps over a direction-cosine grid, plus peak finding.

A classical map evaluates real(a^H R a) / M^2 per pixel; cyclic maps take
the magnitude of the same quadratic form since the cyclic matrix is not
Hermitian. The M^2 normalization makes an on-grid unit point source read
as a peak of height ~= its power.

Maps are formed in the baseline domain: a^H R b is a sum over antenna
pairs, and on the regular (l, m) grid each pair's phase is an l factor times
an m factor. Each map is thus one matrix product of per-pixel-row pair
weights with per-axis phase tables that are cached per (geometry, grid).
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

# The one (geometry, grid) operator in use: key -> pair tables and the
# visibility mask (see `_operator`). Every map of a run shares it; a single
# entry bounds the memory to one operator, about 16 * M^2 * (n_l + n_m) bytes.
_operator_cache = {}


def _operator(geom: ArrayGeometry, grid: SkymapGrid):
    """Per-axis phase tables over antenna pairs, built once per (geometry,
    grid) value. The arrays are read-only because they are shared by every
    map with the same key.

    With kappa = 2 pi f0 / c and a_n = exp(-i kappa (x_n l + y_n m)), a pair's
    phase over the grid is an l factor times an m factor:

    - diff_l (n_l x B', complex) and diff_m (2B' x n_m, real) hold
      conj(a_n) a_m = exp(i kappa (x_n - x_m) l) exp(i kappa (y_n - y_m) m)
      for the B' = M(M-1)/2 pairs n < m; diff_m interleaves the rows
      cos and -sin of each pair's m phase, to meet diff_l viewed as
      interleaved (real, imag) floats;
    - sum_l (n_l x B'') and sum_m (B'' x n_m) hold conj(a_n) conj(a_m), the
      same with x_n + x_m and y_n + y_m, for the B'' = M(M+1)/2 pairs n <= m.
    """
    key = (np.asarray(geom.positions, dtype=float).tobytes(), geom.f0,
           grid.l_min, grid.l_max, grid.m_min, grid.m_max, grid.n_l, grid.n_m)
    op = _operator_cache.get(key)
    if op is None:
        # Free the old operator first, so that two never coexist.
        _operator_cache.clear()
        kappa = 2.0 * np.pi * geom.f0 / C_LIGHT
        l = grid.l_axis()[:, None]
        m = grid.m_axis()[None, :]
        x, y = geom.positions[:, 0], geom.positions[:, 1]
        n, k = np.triu_indices(geom.n_antennas, 1)
        diff_l = np.exp(1j * kappa * l * (x[n] - x[k]))
        rows = np.exp(1j * kappa * (y[n] - y[k])[:, None] * m)
        diff_m = np.stack((rows.real, -rows.imag), axis=1).reshape(-1, grid.n_m)
        n, k = np.triu_indices(geom.n_antennas)
        sum_l = np.exp(1j * kappa * l * (x[n] + x[k]))
        sum_m = np.exp(1j * kappa * (y[n] + y[k])[:, None] * m)
        op = (diff_l, diff_m, sum_l, sum_m, grid.mask())
        for arr in op:
            arr.flags.writeable = False
        _operator_cache[key] = op
    return op


def _quadratic_form(values, geom: ArrayGeometry, grid: SkymapGrid, kind):
    """a^H R b on the (n_l, n_m) grid, with b = conj(a) for the conjugate
    cyclic kind and b = a otherwise, as one matrix product over antenna pairs;
    only the real part for the classical kind. Also returns the visibility
    mask.

    The pair folds are exact for any R, symmetric or not. Over a pair n < m,
    R_nm D + R_mn conj(D) with D = conj(a_n) a_m has the real part
    Re(w D), w = R_nm + conj(R_mn), and the imaginary part Re(w' D),
    w' = -i (R_nm - conj(R_mn)); conjugate maps weight conj(a_n) conj(a_m)
    by R_nm + R_mn, and the pair n = m by R_nn.
    """
    diff_l, diff_m, sum_l, sum_m, visible = _operator(geom, grid)
    if kind == KIND_CONJ_CYCLIC:
        folded = values + values.T
        np.fill_diagonal(folded, values.diagonal())
        return (folded[np.triu_indices(len(values))] * sum_l) @ sum_m, visible
    n, k = np.triu_indices(len(values), 1)
    upper, lower = values[n, k], values[k, n].conj()
    trace = np.trace(values)
    if kind == KIND_CLASSICAL:
        left = ((upper + lower) * diff_l).view(np.float64)
        return left @ diff_m + trace.real, visible
    weights = np.stack((upper + lower, -1j * (upper - lower)))[:, None, :]
    left = (weights * diff_l).view(np.float64).reshape(2 * grid.n_l, -1)
    re, im = np.split(left @ diff_m, 2)
    return (re + trace.real) + 1j * (im + trace.imag), visible


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


def write_skymap_csv(smap: Skymap, path):
    """Header line, then one row of `%.17g` values per l; every value of the
    file is formatted by a single `%` call."""
    g = smap.grid
    n_l, n_m = smap.power.shape
    row = ",".join(["%.17g"] * n_m) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(f"# kind={smap.kind} alpha_hz={smap.alpha:.17g}"
                 f" l_min={g.l_min:.17g} l_max={g.l_max:.17g}"
                 f" m_min={g.m_min:.17g} m_max={g.m_max:.17g}\n")
        fh.write(row * n_l % tuple(smap.power.ravel().tolist()))


def write_skymap_pgm(smap: Skymap, path):
    """16-bit big-endian P5 image, linearly scaled from [0, max].

    A sidecar `<path>.meta` records the scale and grid so the map can be
    reconstructed (up to quantization).
    """
    power = smap.power
    peak = float(power.max())
    if peak > 0:
        img = np.rint(power / peak * 65535.0).astype(">u2")
    else:
        img = np.zeros(power.shape, dtype=">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{power.shape[1]} {power.shape[0]}\n65535\n".encode("ascii"))
        fh.write(img.tobytes())
    g = smap.grid
    with open(str(path) + ".meta", "w") as fh:
        fh.write(f"scale={peak / 65535.0 if peak > 0 else 0.0:.17g}\n")
        fh.write(f"l_min={g.l_min:.17g}\nl_max={g.l_max:.17g}\n")
        fh.write(f"m_min={g.m_min:.17g}\nm_max={g.m_max:.17g}\n")
        fh.write(f"kind={smap.kind}\nalpha_hz={smap.alpha:.17g}\n")
