"""Classical and cyclic correlation matrix estimation and alpha scanning.

The cyclic estimator is the zero-lag time average of z(t) z^H(t) (or
z(t) z^T(t) for the conjugate variant) demodulated at the cyclic frequency
alpha. Stationary inputs average to zero at alpha != 0; a cyclostationary
source leaves a rank-1 matrix carrying its steering vector.
"""

from dataclasses import dataclass

import numpy as np

from .arraysim import ArraySnapshot

# Direct-vs-FFT agreement contract for full-grid scans.
FFT_MATCH_RTOL = 1e-10


@dataclass
class CyclicCorrMatrix:
    values: np.ndarray
    alpha: float
    conjugate: bool


@dataclass
class CyclicSpectrum:
    """Frobenius norm of the cyclic matrix over a grid of cyclic frequencies."""

    alphas: np.ndarray
    magnitudes: np.ndarray
    conjugate: bool

    def __post_init__(self):
        self.alphas = np.asarray(self.alphas, dtype=float)
        self.magnitudes = np.asarray(self.magnitudes, dtype=float)
        if self.alphas.shape != self.magnitudes.shape:
            raise ValueError("alphas and magnitudes must have the same length")


def _cyclic_kernel(z, alpha, sample_rate, conjugate):
    n = z.shape[1]
    phase = np.exp(-2j * np.pi * alpha * np.arange(n) / sample_rate)
    zp = z * phase
    right = z.T if conjugate else z.conj().T
    return (zp @ right) / n


def corr_matrix(snap: ArraySnapshot) -> np.ndarray:
    """Sample covariance (1/N) sum z[k] z[k]^H, a Hermitian PSD M x M array."""
    return _cyclic_kernel(snap.data, 0.0, snap.sample_rate, False)


def cyclic_corr_matrix(snap: ArraySnapshot, alpha, conjugate=False) -> CyclicCorrMatrix:
    """Cyclic (or conjugate cyclic) correlation matrix at one alpha.

    For the non-conjugate estimator the matrix at -alpha is the Hermitian
    transpose of the one at +alpha; it is computed that way so the pair is
    exactly consistent in floating point.
    """
    if abs(alpha) >= snap.sample_rate:
        raise ValueError("alpha must satisfy |alpha| < sample_rate")
    if not conjugate and alpha < 0:
        pos = _cyclic_kernel(snap.data, -alpha, snap.sample_rate, False)
        return CyclicCorrMatrix(pos.conj().T, alpha, False)
    vals = _cyclic_kernel(snap.data, alpha, snap.sample_rate, conjugate)
    return CyclicCorrMatrix(vals, alpha, conjugate)


def fft_alpha_grid(snap: ArraySnapshot, conjugate=False) -> np.ndarray:
    """Default alpha grid: one FFT bin spacing, sample_rate / N.

    Non-conjugate features of interest live below sample_rate/2; conjugate
    cyclic frequencies (twice a carrier offset) can reach up to sample_rate.
    """
    n = snap.n_samples
    step = snap.sample_rate / n
    stop = n if conjugate else n // 2
    return np.arange(stop) * step


def _as_fft_bins(alphas, sample_rate, n):
    k = np.rint(alphas * n / sample_rate)
    step = sample_rate / n
    if np.max(np.abs(alphas - k * step)) > 1e-6 * step:
        return None
    if np.any(np.abs(alphas) >= sample_rate):
        return None
    return (k.astype(np.int64)) % n


def cyclic_spectrum(snap: ArraySnapshot, alphas, conjugate=False,
                    method="fft") -> CyclicSpectrum:
    """Scan the Frobenius norm of the cyclic matrix over an alpha grid.

    method="fft" requires the grid to sit on multiples of sample_rate/N and
    matches the direct estimator to FFT_MATCH_RTOL. It transforms only the
    pairs j >= i, M(M+1)/2 FFTs, because the rest follow by symmetry: with
    F_ij = FFT(z_i z_j^*), the non-conjugate |R_ji| at bin k is |F_ij[-k]| / N;
    the conjugate matrix is symmetric, so |R_ji| = |R_ij|. method="direct"
    takes any grid at O(K M^2 N) for K alphas; it is the reference.
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    if alphas.size == 0:
        raise ValueError("alpha grid must be non-empty")
    if alphas.size > 1 and np.any(np.diff(alphas) <= 0):
        raise ValueError("alpha grid must be strictly increasing")
    z = snap.data
    n = snap.n_samples
    if method == "fft":
        bins = _as_fft_bins(alphas, snap.sample_rate, n)
        if bins is None:
            raise ValueError("fft method needs alphas on the sample_rate/N grid")
        zc = z if conjugate else z.conj()
        # |F|^2 summed over pairs, kept as interleaved (re^2, im^2) per bin.
        diag = np.zeros(2 * n)
        off = np.zeros(2 * n)
        for row in range(snap.n_antennas):
            f = np.fft.fft(z[row] * zc[row:], axis=1).view(np.float64)
            diag += f[0] * f[0]
            off += np.einsum("ij,ij->j", f[1:], f[1:])
        diag = diag[0::2] + diag[1::2]
        off = off[0::2] + off[1::2]
        if conjugate:
            power = diag[bins] + 2.0 * off[bins]
        else:
            power = diag[bins] + off[bins] + off[(-bins) % n]
        mags = np.sqrt(power) / n
    elif method == "direct":
        mags = np.empty(alphas.size)
        for i, a in enumerate(alphas):
            mags[i] = np.linalg.norm(_cyclic_kernel(z, a, snap.sample_rate, conjugate))
    else:
        raise ValueError(f"unknown method {method!r}")
    return CyclicSpectrum(alphas, mags, conjugate)


def _local_maxima(values, valid):
    """Indices of the strict local maxima of an n-D array above median + 5 * MAD
    of its valid entries; invalid entries and the edges are -inf neighbours."""
    vals = values[valid]
    med = np.median(vals)
    # MAD scaled to the standard deviation of a Gaussian.
    mad = 1.4826 * np.median(np.abs(vals - med))
    threshold = med + 5.0 * mad
    padded = np.pad(np.where(valid, values, -np.inf), 1, constant_values=-np.inf)
    center = padded[(slice(1, -1),) * values.ndim]
    neighbours = np.full(values.shape, -np.inf)
    for shift in np.ndindex((3,) * values.ndim):
        if shift != (1,) * values.ndim:
            neighbours = np.maximum(neighbours, padded[tuple(
                slice(s, s + n) for s, n in zip(shift, values.shape))])
    return np.nonzero((center > neighbours) & (center > threshold))


def detect_cyclic_freqs(spec: CyclicSpectrum):
    """Local spectrum maxima above median + 5 * MAD, strongest first.

    The alpha = 0 bin of the non-conjugate spectrum is the ordinary
    covariance and is excluded.
    """
    mags = spec.magnitudes
    alphas = spec.alphas
    if mags.size < 16:
        raise ValueError("spectrum needs at least 16 grid points")
    (peaks,) = _local_maxima(mags, np.ones(mags.shape, dtype=bool))
    hits = [(float(alphas[i]), float(mags[i])) for i in peaks
            if spec.conjugate or abs(alphas[i]) >= 0.5 * (alphas[1] - alphas[0])]
    hits.sort(key=lambda p: -p[1])
    return hits


def write_spectrum_csv(spec: CyclicSpectrum, path):
    """Two header lines, then `alpha,magnitude` rows in `%.17g`; every value
    of the file is formatted by a single `%` call."""
    pairs = np.column_stack((spec.alphas, spec.magnitudes)).ravel().tolist()
    with open(path, "w", newline="") as fh:
        fh.write(f"# conjugate={str(spec.conjugate).lower()}\n")
        fh.write("alpha_hz,magnitude\n")
        fh.write("%.17g,%.17g\n" * spec.alphas.size % tuple(pairs))


def read_spectrum_csv(path) -> CyclicSpectrum:
    with open(path, newline="") as fh:
        first = fh.readline().strip()
        header = fh.readline().strip()
        lines = fh.read().splitlines()
    if first not in ("# conjugate=true", "# conjugate=false"):
        raise ValueError(f"{path}: spectrum lacks its '# conjugate=' line")
    if header != "alpha_hz,magnitude":
        raise ValueError(f"{path}: unexpected spectrum header {header!r}")
    if not lines:
        raise ValueError(f"{path}: spectrum has no rows")
    try:
        alphas, mags = np.array([[float(x) for x in line.split(",")]
                                 for line in lines]).T
    except ValueError as exc:
        raise ValueError(f"{path}: unreadable spectrum rows ({exc})") from None
    return CyclicSpectrum(alphas, mags, first == "# conjugate=true")
