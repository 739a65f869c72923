"""Classical and cyclic correlation matrix estimation and alpha scanning.

The cyclic estimator is the zero-lag time average of z(t) z^H(t) (or
z(t) z^T(t) for the conjugate variant) demodulated at the cyclic frequency
alpha. Stationary inputs average to zero at alpha != 0; a cyclostationary
source leaves a rank-1 matrix carrying its steering vector.

Detection tests each scan against its stationary Gaussian null, a weighted
sum of unit exponentials set by the eigenvalues of R^0 (Dandawate &
Giannakis, IEEE TSP 1994), and counts the sources at a detected alpha in the
whitened cyclic matrix (after Schell's cyclic MUSIC, 1989).
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .arraysim import ArraySnapshot

# Agreement of FFT scans, folded or not, with the norm of `cyclic_corr_matrix`.
FFT_MATCH_RTOL = 1e-10
# Threads per large FFT scan, the caller included. Only this count has been
# measured (2-core host); each worker thread also keeps about 5 MB of freed
# blocks of its own, so a larger count needs its own run_s and peak RSS runs.
SCAN_THREADS = 2
# FFT scans of fewer pair-samples, M(M+1)/2 * N, run on the calling thread
# alone. On a 2-core host a second thread made both scans of a 48 x 256 frame
# (301k pair-samples) slower, 9.5-12.4 ms against 6.9-7.8 ms on one thread,
# and a 48 x 4096 frame (4.8M) 1.7-1.9x faster (min of 40 each). Folded
# scans are counted at their product length N too. The pipeline's subspace
# scans stay below it (fig4 6,144 pair-samples, long_frames 12,288,
# many_frames 2,560); the 8 x 16384 and 8 x 65536 records of criterion 4
# (589,824 and 2,359,296) use the second thread: a perfbench null_sweep
# operation took 68 ms on two threads and 84 ms on one (medians of 40).
PARALLEL_MIN_PAIR_SAMPLES = 2 ** 19
# Samples per FFT call of a scan row; bounds the memory each thread holds.
_BLOCK_SAMPLES = 2 ** 16
# False-alarm rate of one alpha-scan under its stationary Gaussian null,
# split evenly over the scan's bins (`detect_cyclic_freqs`). The source
# count rejects most false hits, so the rate is set for sensitivity: over 50
# scenes of 12 frames of 48 x 256 with three 0 dB emitters beside a +5 dB
# Gaussian source, 1e-3 kept 137 of the 150 emitters tracked and 1e-2 all.
SCAN_PFA = 1e-2
# The signal subspace holds the eigenvalues of R^0 above SIGNAL_EDGE times
# the Marchenko-Pastur upper edge of noise at their median power,
# median(lambda) (1 + sqrt(M/N))^2 (`signal_subspace`).
SIGNAL_EDGE = 1.5
# A source is a singular value of the whitened cyclic matrix above
# SOURCE_EDGE times the upper edge of its noise-only singular values
# (`source_count`). Over 400 stationary draws at 48 antennas the largest
# noise-only one reached 1.03 (N = 256) and 1.07 (N = 2048) times the edge
# (1.18 at 12 antennas); a strong BPSK at twice its carrier gives about 1.27
# times it at 48 x 256, where a fixed 3 sqrt(M/N) would be 1.67 times it.
SOURCE_EDGE = 1.1
# Cap on the tail evaluations of one `null_threshold` root search; it takes
# about five.
_THRESHOLD_STEPS = 100
# Directions of R^0 below this fraction of its largest eigenvalue hold
# rounding error only and are not whitened.
_WHITEN_FLOOR = 1e-12


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
    if not abs(alpha) < snap.sample_rate:  # NaN fails this too
        raise ValueError(f"alpha must satisfy |alpha| < sample_rate, not {alpha}")
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


def _scan_threads():
    """Threads for a large FFT scan, the caller included: SCAN_THREADS, or
    fewer if this process may run on fewer CPUs."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # not available on every platform
        cores = os.cpu_count() or 1
    return min(SCAN_THREADS, cores)


def _row_power(z, zc, row, n):
    """|F|^2 of the pairs (row, j >= row), F = FFT(z_row zc_j) at transform
    length n, interleaved as (re^2, im^2) per bin: the diagonal term j = row
    and the sum over j > row.

    The products are N = z.shape[1] long. For n < N (n divides N) each is
    first folded onto period n, x_n[r] = sum_q x[r + qn], whose length-n DFT
    holds the length-N DFT's bins that are multiples of N / n.

    The partners go through the FFT in blocks of about _BLOCK_SAMPLES
    product samples, and each later block's sum is added to the row's in
    block order.
    """
    m, samples = z.shape
    fold = samples // n
    step = max(1, _BLOCK_SAMPLES // samples)

    def transform(p):
        if fold > 1:
            p = p.reshape(len(p), fold, n).sum(axis=1)
        return np.fft.fft(p, axis=1).view(np.float64)

    f = transform(z[row] * zc[row:row + step])
    diag = f[0] * f[0]
    acc = np.einsum("ij,ij->j", f[1:], f[1:])
    for start in range(row + step, m, step):
        f = transform(z[row] * zc[start:start + step])
        acc += np.einsum("ij,ij->j", f, f)
    return diag, acc


def _scan_power(z, zc, n):
    """Diagonal and off-diagonal |F|^2 of an FFT scan at transform length n,
    summed over rows; the pair products are z.shape[1] long.

    The calling thread computes rows = 0 mod k and takes the others from
    k - 1 pool workers through one `map`, which yields them in row order.
    Each row is added as it arrives, in row order, so the sums do not
    depend on k. Workers call numpy and `_row_power` only. A worker's
    exception re-raises where its row is taken; if the caller's own row
    raises, the workers first finish their rows (at most one scan's work).
    """
    m, samples = z.shape
    k = 1
    if m * (m + 1) // 2 * samples >= PARALLEL_MIN_PAIR_SAMPLES:
        k = min(_scan_threads(), m)
    diag = np.zeros(2 * n)
    off = np.zeros(2 * n)
    with ThreadPoolExecutor(max(k - 1, 1)) as pool:
        taken = pool.map(lambda row: _row_power(z, zc, row, n),
                         [row for row in range(m) if row % k])
        for row in range(m):
            row_diag, row_off = next(taken) if row % k else _row_power(z, zc, row, n)
            diag += row_diag
            off += row_off
    return diag, off


def cyclic_spectrum(snap: ArraySnapshot, alphas, conjugate=False) -> CyclicSpectrum:
    """Scan the Frobenius norm of the cyclic matrix over an alpha grid.

    The grid must sit on multiples of sample_rate/N, below sample_rate in
    magnitude; each value matches the norm of `cyclic_corr_matrix` at its
    alpha to FFT_MATCH_RTOL. The scan transforms only the pairs j >= i,
    M(M+1)/2 FFTs, because the rest follow by symmetry: with
    F_ij = FFT(z_i z_j^*), the non-conjugate |R_ji| at bin k is |F_ij[-k]| / N;
    the conjugate matrix is symmetric, so |R_ji| = |R_ij|. The products are
    N samples long; when every requested bin is a multiple of d, the
    greatest common divisor of N and the bins, each is folded onto period
    N/d and transformed at that length (d = 1 for the full grids of
    `fft_alpha_grid`). The result is still normalised by N.
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    if alphas.size == 0:
        raise ValueError("alpha grid must be non-empty")
    if not np.all(np.isfinite(alphas)):
        raise ValueError(f"alpha must be finite, not {alphas[~np.isfinite(alphas)][0]}")
    if alphas.size > 1 and np.any(np.diff(alphas) <= 0):
        raise ValueError("alpha grid must be strictly increasing")
    z = snap.data
    n = snap.n_samples
    bins = _as_fft_bins(alphas, snap.sample_rate, n)
    if bins is None:
        raise ValueError("alphas must lie on the sample_rate/N grid, below sample_rate")
    d = int(np.gcd.reduce(bins, initial=n))
    period = n // d
    zc = z if conjugate else z.conj()
    diag, off = _scan_power(z, zc, period)
    diag = diag[0::2] + diag[1::2]
    off = off[0::2] + off[1::2]
    bins = bins // d
    if conjugate:
        power = diag[bins] + 2.0 * off[bins]
    else:
        power = diag[bins] + off[bins] + off[(-bins) % period]
    mags = np.sqrt(power) / n
    return CyclicSpectrum(alphas, mags, conjugate)


def _local_maxima(values, valid, threshold):
    """Indices of the local maxima of an n-D array above `threshold`, in C
    order: entries above each neighbour before them in C order and not
    below each one after, so that a plateau of two keeps its first entry.
    Invalid entries and the edges are -inf neighbours; a NaN neighbour
    fails both tests. Only the valid entries above `threshold` are
    compared with their neighbours."""
    shape = tuple(n + 2 for n in values.shape)
    padded = np.full(shape, -np.inf)
    np.copyto(padded[(slice(1, -1),) * values.ndim], values, where=valid)
    index = np.nonzero(valid & (values > threshold))
    center = values[index]
    keep = np.ones(center.shape, dtype=bool)
    # Each candidate's neighbour at `shift` (its own position at all ones)
    # lies a fixed step from its corner in the flattened padded array.
    middle = (1,) * values.ndim
    corner = np.ravel_multi_index(index, shape)
    for shift in np.ndindex((3,) * values.ndim):
        if shift != middle:
            neighbour = padded.ravel()[corner + np.ravel_multi_index(shift, shape)]
            keep &= center > neighbour if shift < middle else center >= neighbour
    return tuple(i[keep] for i in index)


def signal_subspace(r0, n_samples):
    """Eigenvalues of R^0, largest first and clipped at 0; its eigenvectors
    as columns in the same order; and the signal rank r >= 1, the count of
    eigenvalues above SIGNAL_EDGE * median(lambda) * (1 + sqrt(M/N))^2.

    The Frobenius norm of a cyclic matrix is unitarily invariant, so a scan
    of y = U_r^H z loses only the power of the directions below the edge.
    """
    lam, vecs = np.linalg.eigh(r0)
    lam = np.maximum(lam[::-1], 0.0)
    edge = SIGNAL_EDGE * np.median(lam) * (1.0 + math.sqrt(len(lam) / n_samples)) ** 2
    return lam, vecs[:, ::-1], max(1, int(np.count_nonzero(lam > edge)))


def _lugannani_rice(weights, s):
    """(x, K''(s), P(X > x)) at the saddlepoint s in (0, 1) of
    X = sum_k w_k E_k, E_k unit exponentials, max w_k = 1: x = K'(s) for the
    cumulant generating function K(s) = -sum_k log(1 - w_k s)."""
    ws = weights * s
    d = weights / (1.0 - ws)
    x = float(np.sum(d))
    k = -float(np.sum(np.log1p(-ws)))
    # s x - K(s) > 0 for s > 0; s >= 2^-34 in `null_threshold` keeps it
    # well above its rounding error.
    w_hat = math.sqrt(2.0 * (s * x - k))
    curvature = float(np.dot(d, d))
    u_hat = s * math.sqrt(curvature)
    density = math.exp(-0.5 * w_hat * w_hat) / math.sqrt(2.0 * math.pi)
    return x, curvature, (0.5 * math.erfc(w_hat / math.sqrt(2.0))
                          + density * (1.0 / u_hat - 1.0 / w_hat))


def null_threshold(eigenvalues, n_samples, conjugate, pfa):
    """x with P(||R^alpha||_F^2 > x) = pfa at one on-grid alpha (other than
    non-conjugate 0) for a stationary circular Gaussian input whose R^0 has
    `eigenvalues` over the scanned directions.

    The statistic is then sum_k w_k E_k over unit exponentials E_k, with
    weights lambda_i lambda_j / N over all (i, j), or 2 lambda_i lambda_j / N
    over i <= j for the conjugate scan. The tail is the Lugannani-Rice
    saddlepoint approximation. Its log falls about linearly in
    y = 1 / (1 - s), s the saddlepoint (x = y for a single weight), so the
    root is found by secant steps on log P - log pfa in y. The first y is
    x / E[X] at the Wilson-Hilferty quantile of the Gamma law with X's mean
    and variance; the first step is a Newton step on the saddlepoint slope
    d log P / dx ~ -s, with dx / dy = K''(s) / y^2. A step that leaves the
    bracket of the root halves the bracket instead, or doubles y while the
    bracket has no upper end. About five tail evaluations give x to 1e-12
    relative.
    """
    if not 0.0 < pfa < 0.5:
        raise ValueError(f"pfa must lie in (0, 0.5), not {pfa}")
    lam = np.maximum(np.asarray(eigenvalues, dtype=float), 0.0)
    top = float(lam.max())
    if top == 0.0:
        return 0.0
    v = lam / top
    if conjugate:
        i, j = np.triu_indices(len(v))
        weights, scale = v[i] * v[j], 2.0 * top * top / n_samples
    else:
        weights, scale = np.outer(v, v).ravel(), top * top / n_samples
    shape = float(np.sum(weights)) ** 2 / float(np.dot(weights, weights))
    # The standard normal quantile at 1 - pfa, to its asymptotic expansion.
    tail_log = -2.0 * math.log(pfa)
    z = math.sqrt(max(tail_log - math.log(tail_log) - math.log(2.0 * math.pi), 0.0))
    lo, hi = 1.0 + 2.0 ** -34, math.inf
    y = max(max(1.0 - 1.0 / (9.0 * shape) + z / (3.0 * math.sqrt(shape)), 0.0) ** 3, lo)
    last = None
    for _ in range(_THRESHOLD_STEPS):
        s = (y - 1.0) / y
        x, curvature, tail = _lugannani_rice(weights, s)
        g = math.log(tail / pfa) if tail > 0.0 else -math.inf
        if g > 0.0:
            lo = y
        else:
            hi = y
        if last is None:
            step = g * y * y / (s * curvature)
        else:
            step = -g * (y - last[0]) / (g - last[1]) if g != last[1] else 0.0
        if abs(step) <= 1e-12 * y:
            break
        last = y, g
        y += step
        if not lo < y < hi:  # NaN fails this too
            y = 0.5 * (lo + hi) if hi < math.inf else 2.0 * last[0]
    return scale * x


def detect_cyclic_freqs(spec: CyclicSpectrum, eigenvalues, n_samples):
    """Local spectrum maxima whose ||R^alpha||_F^2 exceeds `null_threshold`
    at a false-alarm rate of SCAN_PFA per scan, split evenly over its bins;
    strongest first.

    `eigenvalues` are those of R^0 over the directions the spectrum scanned,
    from N = `n_samples` samples. The alpha = 0 bin of the non-conjugate
    spectrum is the ordinary covariance and is excluded.
    """
    mags = spec.magnitudes
    alphas = spec.alphas
    if mags.size < 2:  # the alpha = 0 exclusion reads the grid step
        raise ValueError("spectrum needs at least 2 grid points")
    eligible = np.ones(mags.shape, dtype=bool)
    if not spec.conjugate:
        eligible = np.abs(alphas) >= 0.5 * (alphas[1] - alphas[0])
    threshold = null_threshold(eigenvalues, n_samples, spec.conjugate,
                               SCAN_PFA / np.count_nonzero(eligible))
    (peaks,) = _local_maxima(mags, np.ones(mags.shape, dtype=bool),
                             math.sqrt(threshold))
    hits = [(float(alphas[i]), float(mags[i])) for i in peaks if eligible[i]]
    hits.sort(key=lambda p: -p[1])
    return hits


def source_count(ra: CyclicCorrMatrix, eigenvalues, eigenvectors, n_samples) -> int:
    """Sources at one cyclic frequency: the singular values of W R^alpha W^H
    (W R^alpha W^T if conjugate) above SOURCE_EDGE times their noise edge,
    with the whitener W = Lambda^(-1/2) U^H of R^0 from `signal_subspace`.

    Whitened by its own sample covariance, a stationary record of M
    directions and N samples is sqrt(N) Q, Q with orthonormal rows, and the
    whitened matrix is Q D Q^H (Q D Q^T if conjugate), D the diagonal of
    alpha demodulation phases: an M x M corner of a unitary, whose singular
    values end at 2 sqrt(c (1 - c)), c = M / N, or at 1 from c = 1/2 on. A
    strong source of unit cyclic correlation coefficient gives one near 1.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    keep = lam > _WHITEN_FLOOR * lam[0]
    w = eigenvectors[:, keep].conj().T / np.sqrt(lam[keep])[:, None]
    right = w.T if ra.conjugate else w.conj().T
    sv = np.linalg.svd(w @ ra.values @ right, compute_uv=False)
    c = min(0.5, len(w) / n_samples)
    return int(np.count_nonzero(sv > SOURCE_EDGE * 2.0 * math.sqrt(c * (1.0 - c))))
