"""Detection against the stationary Gaussian null, the signal subspace and
the source count.

The null of ||R^alpha||_F^2 is a weighted sum of unit exponentials with
weights set by the eigenvalues of R^0; `null_threshold` inverts its
Lugannani-Rice tail. These tests hold that tail to exact and Monte Carlo
tails, its root search to the bisection it replaced in at most 10 tail
evaluations, the threshold to the false-alarm share of stationary scenes,
and the subspace scan to the full scan's sensitivity.
"""

import math
import warnings

import numpy as np
import pytest

from cyclosky import cyclospec
from cyclosky.arraysim import (ArraySnapshot, DirectionLM, Scene, SourceSpec,
                               default_geometry, synthesize)
from cyclosky.cyclospec import (SCAN_PFA, corr_matrix, cyclic_corr_matrix,
                                cyclic_spectrum, detect_cyclic_freqs, fft_alpha_grid,
                                null_threshold, signal_subspace, source_count)

FS = 1e6
ASTRO = SourceSpec("astro", 5.0, DirectionLM(-0.35, 0.2))
SECOND_BPSK = SourceSpec("bpsk", 3.0, DirectionLM(-0.2, 0.5),
                         baud_rate=FS / 16, carrier_offset=FS / 16)


def bpsk(snr_db):
    return SourceSpec("bpsk", snr_db, DirectionLM(0.4, -0.3),
                      baud_rate=FS / 8, carrier_offset=FS / 16)


def scene(sources, seed, m=48, n=2048):
    return synthesize(Scene(default_geometry(m, 1.42e9, 0), sources, n, FS, 1.0, seed))


def subspace(snap):
    """The pipeline's scan input: eigenvalues, eigenvectors, rank and the
    snapshot projected onto the top-rank eigenvectors."""
    lam, vecs, rank = signal_subspace(corr_matrix(snap), snap.n_samples)
    proj = ArraySnapshot(vecs[:, :rank].conj().T @ snap.data, snap.sample_rate)
    return lam, vecs, rank, proj


def weights(lam, n, conjugate):
    if conjugate:
        i, j = np.triu_indices(len(lam))
        return 2.0 * lam[i] * lam[j] / n
    return np.outer(lam, lam).ravel() / n


def bisection_threshold(eigenvalues, n, conjugate, pfa):
    """The threshold by the bisection on the saddlepoint s that
    `null_threshold` used before its secant steps."""
    lam = np.asarray(eigenvalues, dtype=float)
    top = lam.max()
    v = lam / top
    if conjugate:
        i, j = np.triu_indices(len(v))
        w, scale = v[i] * v[j], 2.0 * top * top / n
    else:
        w, scale = np.outer(v, v).ravel(), top * top / n
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-10:
        s = 0.5 * (lo + hi)
        x, _, tail = cyclospec._lugannani_rice(w, s)
        if tail > pfa:
            lo = s
        else:
            hi = s
    return scale * x


def counted_threshold(monkeypatch, *args):
    """`null_threshold(*args)` and its count of tail evaluations."""
    calls = []
    tail = cyclospec._lugannani_rice

    def counted(*a):
        calls.append(a)
        return tail(*a)

    with monkeypatch.context() as mp:
        mp.setattr(cyclospec, "_lugannani_rice", counted)
        x = null_threshold(*args)
    return x, len(calls)


class TestNullThreshold:
    @pytest.mark.parametrize("r", [1, 2, 4])
    @pytest.mark.parametrize("conjugate", [False, True])
    @pytest.mark.parametrize("pfa", [1e-2, 1e-4, 1e-7])
    def test_equal_eigenvalues_match_gamma_tail(self, r, conjugate, pfa):
        # r equal eigenvalues lam: k equal weights w, so X ~ Gamma(k, w) and
        # P(X > x) = e^(-y) sum_{j<k} y^j / j! at y = x / w.
        lam, n = 1.5, 1000
        k, w = (r * (r + 1) // 2, 2 * lam * lam / n) if conjugate else (r * r, lam * lam / n)
        y = null_threshold(np.full(r, lam), n, conjugate, pfa) / w
        tail = math.exp(-y) * sum(y ** j / math.factorial(j) for j in range(k))
        assert tail == pytest.approx(pfa, rel=0.05)

    @pytest.mark.parametrize("lam", [[5.0, 1.0], [9.0, 3.0, 1.0, 1.0], [2.0, 1.9, 0.1]])
    @pytest.mark.parametrize("conjugate", [False, True])
    def test_matches_monte_carlo_tail(self, lam, conjugate):
        n = 256
        lam = np.array(lam)
        w = weights(lam, n, conjugate)
        rng = np.random.default_rng(7)
        draws = np.zeros(2_000_000)
        for wk in w:
            draws += wk * rng.standard_exponential(draws.size)
        pfa = 1e-3
        share = np.mean(draws > null_threshold(lam, n, conjugate, pfa))
        assert share == pytest.approx(pfa, rel=0.1)

    @pytest.mark.parametrize("lam", [
        np.array([3.7]),                                 # r = 1
        np.ones(48),                                     # equal eigenvalues
        np.concatenate(([1e6], np.ones(47))),            # one 1e6 x the rest
        np.concatenate(([1e6], np.full(3, 1e-300))),     # and one far below
    ], ids=["rank1", "equal", "dominant", "tiny"])
    @pytest.mark.parametrize("conjugate", [False, True])
    @pytest.mark.parametrize("pfa", [0.499, 0.4, 1e-2, 1e-6, 1e-15])
    def test_edge_cases_finite_without_warnings(self, lam, conjugate, pfa):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            x = null_threshold(lam, 2048, conjugate, pfa)
        mean = float(np.sum(weights(lam, 2048, conjugate)))
        assert math.isfinite(x) and x > 0
        assert x > mean or pfa > 0.1

    @pytest.mark.parametrize("r", [1, 2, 4])
    @pytest.mark.parametrize("conjugate", [False, True])
    @pytest.mark.parametrize("pfa", [1e-2, 1e-4, 1e-7])
    def test_matches_bisection_in_few_evaluations(self, r, conjugate, pfa, monkeypatch):
        # The Gamma cases of `test_equal_eigenvalues_match_gamma_tail`.
        lam = np.full(r, 1.5)
        x, evaluations = counted_threshold(monkeypatch, lam, 1000, conjugate, pfa)
        assert x == pytest.approx(bisection_threshold(lam, 1000, conjugate, pfa), rel=1e-9)
        assert evaluations <= 10

    def test_few_evaluations_per_pipeline_scan(self, monkeypatch):
        """Each scan's threshold as `detect_cyclic_freqs` sets it, on the
        signal subspaces of scenes with one to three strong directions."""
        counts = []
        for seed in range(4):
            for sources in ([ASTRO], [bpsk(0.0), ASTRO], [bpsk(0.0), ASTRO, SECOND_BPSK]):
                lam, _, rank, proj = subspace(scene(sources, seed, n=256))
                for conjugate in (False, True):
                    bins = len(fft_alpha_grid(proj, conjugate)) - (not conjugate)
                    x, evaluations = counted_threshold(
                        monkeypatch, lam[:rank], 256, conjugate, SCAN_PFA / bins)
                    assert x == pytest.approx(bisection_threshold(
                        lam[:rank], 256, conjugate, SCAN_PFA / bins), rel=1e-8)
                    counts.append(evaluations)
        assert max(counts) <= 10

    def test_single_weight_is_an_exponential_quantile(self):
        # r = 1: X = (lambda^2 / N) E, P(X > x) = exp(-x N / lambda^2).
        x = null_threshold([2.0], 100, False, 1e-6)
        assert x == pytest.approx(-4.0 / 100 * math.log(1e-6), rel=0.02)

    def test_zero_eigenvalues_give_zero(self):
        assert null_threshold(np.zeros(3), 64, True, 1e-3) == 0.0

    @pytest.mark.parametrize("pfa", [0.0, 0.5, -1e-3, float("nan")])
    def test_rejects_rate_outside_open_half(self, pfa):
        with pytest.raises(ValueError, match="pfa"):
            null_threshold([1.0], 64, False, pfa)


@pytest.mark.parametrize("pfa", [1e-2, 1e-3])
def test_false_alarm_share_matches_rate(pfa):
    """Stationary scenes, noise plus a +5 dB Gaussian source, scanned as the
    pipeline scans them: bins above the threshold at per-bin rate pfa."""
    above = bins = 0
    for seed in range(100):
        lam, _, rank, proj = subspace(scene([ASTRO], seed))
        for conjugate in (False, True):
            mags = cyclic_spectrum(proj, fft_alpha_grid(proj, conjugate), conjugate).magnitudes
            if not conjugate:
                mags = mags[1:]  # alpha = 0 is the covariance
            above += np.count_nonzero(mags ** 2 > null_threshold(
                lam[:rank], proj.n_samples, conjugate, pfa))
            bins += mags.size
    assert above / bins == pytest.approx(pfa, rel=0.25)


def test_full_and_subspace_scans_detect_bpsk_at_minus_3_db():
    """One BPSK at -3 dB beside the +5 dB source; each scan tested against
    its own null (all M eigenvalues, or the top r) finds the BPSK's
    conjugate alpha, twice its carrier, in every trial."""
    for trial in range(15):
        snap = scene([bpsk(-3.0), ASTRO], 100 + trial)
        lam, _, rank, proj = subspace(snap)
        assert rank == 2
        for scanned, eigenvalues in ((snap, lam), (proj, lam[:rank])):
            spec = cyclic_spectrum(scanned, fft_alpha_grid(scanned, True), True)
            hits = detect_cyclic_freqs(spec, eigenvalues, snap.n_samples)
            assert any(alpha == FS / 8 for alpha, _ in hits), (trial, scanned.n_antennas)


class TestSignalSubspace:
    def test_rank_counts_strong_directions(self):
        assert subspace(scene([ASTRO], 1))[2] == 1
        assert subspace(scene([bpsk(0.0), ASTRO], 1))[2] == 2

    def test_noise_only_keeps_one_direction(self):
        lam, vecs, rank, proj = subspace(scene([], 2))
        assert rank == 1 and proj.n_antennas == 1

    def test_eigenpairs_descending_and_orthonormal(self):
        snap = scene([bpsk(0.0), ASTRO], 3, m=12, n=512)
        r0 = corr_matrix(snap)
        lam, vecs, _ = signal_subspace(r0, snap.n_samples)
        assert np.all(np.diff(lam) <= 0) and lam[-1] >= 0
        assert np.allclose(vecs.conj().T @ vecs, np.eye(12), atol=1e-12)
        assert np.allclose(r0 @ vecs, vecs * lam, atol=1e-9 * lam[0])

    def test_scan_power_preserved_in_subspace(self):
        # ||R^alpha||_F is unitarily invariant: at the BPSK's alpha the
        # projected scan keeps nearly all of the full scan's power.
        snap = scene([bpsk(0.0), ASTRO], 4)
        _, _, _, proj = subspace(snap)
        full = cyclic_spectrum(snap, [FS / 8], True).magnitudes[0]
        part = cyclic_spectrum(proj, [FS / 8], True).magnitudes[0]
        assert part <= full * (1 + 1e-12)
        assert part > 0.99 * full


class TestSourceCount:
    @pytest.mark.parametrize("n", [256, 2048])
    def test_one_source_at_its_alpha(self, n):
        # At N = 256 a strong source's whitened singular value, near 1, is
        # 2.3 sqrt(M/N): above the noise edge 1.8 sqrt(M/N), below 3 sqrt(M/N).
        for seed in range(5):
            snap = scene([bpsk(0.0), ASTRO], seed, n=n)
            lam, vecs, _, _ = subspace(snap)
            ra = cyclic_corr_matrix(snap, FS / 8, True)
            assert source_count(ra, lam, vecs, n) == 1

    def test_two_sources_at_one_alpha(self):
        srcs = [bpsk(0.0), SourceSpec("bpsk", 0.0, DirectionLM(-0.2, 0.5),
                                      baud_rate=FS / 16, carrier_offset=FS / 16)]
        snap = scene(srcs, 6)
        lam, vecs, _, _ = subspace(snap)
        ra = cyclic_corr_matrix(snap, FS / 8, True)
        assert source_count(ra, lam, vecs, snap.n_samples) == 2

    @pytest.mark.parametrize("n", [32, 256, 2048])
    def test_none_in_stationary_scenes(self, n):
        rng = np.random.default_rng(n)
        for seed in range(10):
            snap = scene([ASTRO], seed, n=n)
            lam, vecs, _, _ = subspace(snap)
            for k in rng.integers(1, n // 2, 4):
                for conjugate in (False, True):
                    ra = cyclic_corr_matrix(snap, k * FS / n, conjugate)
                    assert source_count(ra, lam, vecs, n) == 0

    def test_zero_record_has_none(self):
        snap = ArraySnapshot(np.zeros((4, 64)), FS)
        lam, vecs, _ = signal_subspace(corr_matrix(snap), 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert source_count(cyclic_corr_matrix(snap, FS / 8, True), lam, vecs, 64) == 0

