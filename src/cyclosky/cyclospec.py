"""Classical and cyclic correlation matrix estimation and alpha scanning.

The cyclic estimator is the zero-lag time average of z(t) z^H(t) (or
z(t) z^T(t) for the conjugate variant) demodulated at the cyclic frequency
alpha. Stationary inputs average to zero at alpha != 0; a cyclostationary
source leaves a rank-1 matrix carrying its steering vector.
"""

import os
import queue
import threading
from dataclasses import dataclass

import numpy as np

from .arraysim import ArraySnapshot

# Direct-vs-FFT agreement contract for FFT scans, folded or not.
FFT_MATCH_RTOL = 1e-10
# Threads per large FFT scan, the caller included. Only this count has been
# measured (2-core host); each worker thread also keeps about 5 MB of freed
# blocks of its own, so a larger count needs its own run_s and peak RSS runs.
SCAN_THREADS = 2
# FFT scans of fewer pair-samples, M(M+1)/2 * N, run on the calling thread
# alone. On a 2-core host a second thread made both scans of a 48 x 256 frame
# (301k pair-samples) slower, 9.5-12.4 ms against 6.9-7.8 ms on one thread,
# and a 48 x 4096 frame (4.8M) 1.7-1.9x faster (min of 40 each). Folded
# scans are counted at their product length N too: 8 x 16384 and 8 x 65536
# records at 16 alpha, both folded to 1024 points, took 51-57 ms on two
# threads and 62 ms on one (min of 9, four record pairs).
PARALLEL_MIN_PAIR_SAMPLES = 2 ** 19
# Samples per FFT call of a scan row; bounds the memory each thread holds.
_BLOCK_SAMPLES = 2 ** 16


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


def _row_powers(z, zc, rows, n):
    """Yield, for each of `rows`, |F|^2 of the pairs (row, j >= row),
    F = FFT(z_row zc_j) at transform length n, interleaved as (re^2, im^2)
    per bin: the diagonal term j = row and the sum over j > row.

    The products are N = z.shape[1] long. For n < N (n divides N) each is
    first folded onto period n, x_n[r] = sum_q x[r + qn], whose length-n DFT
    holds the length-N DFT's bins that are multiples of N / n.

    The partners go through the FFT in blocks of N product samples, each
    summed by the einsum of the former whole-row loop, whose per-bin sum is
    a chain of multiply-adds (fused on some builds). A later block's einsum
    takes the row's sum so far as an extra first row, times a row of ones,
    which is exact fused or not; so the row's sum holds the same bits as one
    einsum over the whole row. A row's last block is freed only after the
    next row's first one is made, so the allocator reuses its pages instead
    of returning them.
    """
    m, samples = z.shape
    fold = samples // n
    step = max(1, _BLOCK_SAMPLES // samples)

    def transform(p):
        if fold > 1:
            p = p.reshape(len(p), fold, n).sum(axis=1)
        return np.fft.fft(p, axis=1).view(np.float64)

    if m > step:
        # A later block's einsum operands: rows (acc, f) and (1, f).
        left = np.empty((step + 1, 2 * n))
        right = np.empty((step + 1, 2 * n))
        right[0] = 1.0
    for row in rows:
        f = transform(z[row] * zc[row:row + step])
        diag = f[0] * f[0]
        acc = np.einsum("ij,ij->j", f[1:], f[1:])
        for start in range(row + step, m, step):
            f = transform(z[row] * zc[start:start + step])
            k = len(f) + 1
            left[0] = acc
            left[1:k] = right[1:k] = f
            acc = np.einsum("ij,ij->j", left[:k], right[:k])
        yield diag, acc


def _scan_power(z, zc, n):
    """Diagonal and off-diagonal |F|^2 of an FFT scan at transform length n,
    summed over rows; the pair products are z.shape[1] long.

    Rows go round-robin to the calling thread (rows = 0 mod k) and k - 1
    workers; each worker hands its rows over in order through its own queue,
    and the caller adds every row in row order, so the sums do not depend on
    k. Workers call numpy and `_row_powers` only.
    """
    m, samples = z.shape
    k = 1
    if m * (m + 1) // 2 * samples >= PARALLEL_MIN_PAIR_SAMPLES:
        k = min(_scan_threads(), m)
    queues = {first: queue.SimpleQueue() for first in range(1, k)}
    stop = threading.Event()

    def work(first):
        try:
            for power in _row_powers(z, zc, range(first, m, k), n):
                queues[first].put(power)
                if stop.is_set():
                    return
        except BaseException as exc:
            queues[first].put(exc)

    threads = []
    own = _row_powers(z, zc, range(0, m, k), n)
    diag = np.zeros(2 * n)
    off = np.zeros(2 * n)
    try:
        for first in range(1, k):
            thread = threading.Thread(target=work, args=(first,))
            thread.start()
            threads.append(thread)
        for row in range(m):
            if row % k:
                power = queues[row % k].get()
                if isinstance(power, BaseException):
                    raise power
            else:
                power = next(own)
            diag += power[0]
            off += power[1]
    finally:
        stop.set()
        for thread in threads:
            thread.join()
    return diag, off


def cyclic_spectrum(snap: ArraySnapshot, alphas, conjugate=False,
                    method="fft") -> CyclicSpectrum:
    """Scan the Frobenius norm of the cyclic matrix over an alpha grid.

    method="fft" requires the grid to sit on multiples of sample_rate/N and
    matches the direct estimator to FFT_MATCH_RTOL. It transforms only the
    pairs j >= i, M(M+1)/2 FFTs, because the rest follow by symmetry: with
    F_ij = FFT(z_i z_j^*), the non-conjugate |R_ji| at bin k is |F_ij[-k]| / N;
    the conjugate matrix is symmetric, so |R_ji| = |R_ij|. The products are
    N samples long; when every requested bin is a multiple of d, the
    greatest common divisor of N and the bins, each is folded onto period
    N/d and transformed at that length (d = 1 for the full grids of
    `fft_alpha_grid`). The result is still normalised by N. method="direct"
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
