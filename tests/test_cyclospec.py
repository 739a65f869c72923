import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclosky.arraysim import (ArraySnapshot, DirectionLM, Scene, SourceSpec,
                               default_geometry, steering_vector, synthesize)
from cyclosky.cyclospec import (FFT_MATCH_RTOL, CyclicSpectrum, corr_matrix,
                                cyclic_corr_matrix, cyclic_spectrum,
                                detect_cyclic_freqs, fft_alpha_grid, signal_subspace,
                                spectrum_csv)


def noise_snapshot(m, n, seed, power=1.0, fs=1e6):
    rng = np.random.default_rng(seed)
    data = np.sqrt(power / 2) * (rng.standard_normal((m, n))
                                 + 1j * rng.standard_normal((m, n)))
    return ArraySnapshot(data, fs)


def direct_magnitudes(snap, alphas, conjugate=False):
    """The scan's reference: the norm of `cyclic_corr_matrix` at each alpha."""
    return np.array([np.linalg.norm(cyclic_corr_matrix(snap, a, conjugate).values)
                     for a in alphas])


def bpsk_scene_snapshot(m, n, seed, fs=1e6, snr_db=0.0):
    geom = default_geometry(m, 1.42e9, seed)
    src = SourceSpec("bpsk", snr_db, DirectionLM(0.4, -0.3),
                     baud_rate=fs / 8, carrier_offset=fs / 16)
    return geom, src, synthesize(Scene(geom, [src], n, fs, 1.0, seed))


class TestCorrMatrix:
    def test_single_sample_outer_product(self):
        snap = ArraySnapshot(np.array([[1.0], [1j]]), 1.0)
        r = corr_matrix(snap)
        assert np.allclose(r, [[1.0, -1j], [1j, 1.0]])

    def test_noise_covariance(self):
        n = 8192
        snap = noise_snapshot(6, n, seed=2)
        r = corr_matrix(snap)
        off = r - np.diag(np.diag(r))
        assert np.all((np.diag(r).real > 0.95) & (np.diag(r).real < 1.05))
        assert np.abs(off).max() < 5.0 / np.sqrt(n)
        # Hermitian and positive semidefinite.
        scale = max(np.abs(r).max(), 1e-300)
        assert np.abs(r - r.conj().T).max() <= 1e-12 * scale
        assert np.linalg.eigvalsh(r).min() >= -1e-10 * np.trace(r).real

    def test_trace_is_total_power(self):
        snap = noise_snapshot(4, 512, seed=3)
        r = corr_matrix(snap)
        total = sum(np.mean(np.abs(row) ** 2) for row in snap.data)
        assert np.trace(r).real == pytest.approx(total)


class TestCyclicCorrMatrix:
    def test_alpha_zero_identity_bitwise(self):
        for seed in range(5):
            snap = noise_snapshot(5, 256, seed)
            ra = cyclic_corr_matrix(snap, 0.0, conjugate=False)
            r = corr_matrix(snap)
            assert np.array_equal(ra.values, r)

    def test_conjugation_symmetry_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            snap = noise_snapshot(4, 128, rng.integers(1 << 31))
            alpha = float(rng.uniform(1e3, 4e5))
            pos = cyclic_corr_matrix(snap, alpha)
            neg = cyclic_corr_matrix(snap, -alpha)
            assert np.array_equal(neg.values, pos.values.conj().T)

    def test_noise_null_level(self):
        m, n = 6, 16384
        for seed in range(3):
            snap = noise_snapshot(m, n, seed)
            ra = cyclic_corr_matrix(snap, 1.2345e5)
            assert np.linalg.norm(ra.values) < 4.0 * np.sqrt(m * m / n)

    def test_conjugate_matrix_symmetric(self):
        snap = noise_snapshot(5, 512, seed=9)
        ra = cyclic_corr_matrix(snap, 3.3e4, conjugate=True)
        scale = max(np.abs(ra.values).max(), 1e-300)
        assert np.abs(ra.values - ra.values.T).max() <= 1e-12 * scale

    def test_rank_collapse_at_cyclic_frequency(self):
        # One BPSK RFI: the conjugate cyclic matrix at its line tends rank-1.
        fs = 1e6
        _, _, snap = bpsk_scene_snapshot(16, 16384, seed=8, fs=fs)
        ra = cyclic_corr_matrix(snap, fs / 8, conjugate=True)
        s = np.linalg.svd(ra.values, compute_uv=False)
        assert s[1] / s[0] < 0.2

    def test_principal_vector_matches_steering(self):
        fs = 1e6
        geom, src, snap = bpsk_scene_snapshot(16, 16384, seed=8, fs=fs)
        ra = cyclic_corr_matrix(snap, fs / 8, conjugate=True)
        u, _, _ = np.linalg.svd(ra.values)
        a = steering_vector(geom, src.direction)
        cosine = abs(u[:, 0].conj() @ a) / np.linalg.norm(a)
        assert cosine >= 0.9

    def test_scaling_linearity(self):
        snap = noise_snapshot(4, 256, seed=5)
        c = 1.7 - 0.6j
        scaled = ArraySnapshot(c * snap.data, snap.sample_rate)
        alpha = 2.5e4
        plain = cyclic_corr_matrix(snap, alpha)
        assert np.allclose(cyclic_corr_matrix(scaled, alpha).values,
                           abs(c) ** 2 * plain.values)
        plain_conj = cyclic_corr_matrix(snap, alpha, conjugate=True)
        assert np.allclose(cyclic_corr_matrix(scaled, alpha, True).values,
                           c ** 2 * plain_conj.values)

    def test_rejects_alpha_at_sample_rate(self):
        snap = noise_snapshot(3, 64, seed=1)
        with pytest.raises(ValueError):
            cyclic_corr_matrix(snap, snap.sample_rate)

    @pytest.mark.parametrize("conjugate", [False, True])
    def test_rejects_nan_alpha(self, conjugate):
        snap = noise_snapshot(3, 64, seed=1)
        with pytest.raises(ValueError, match="not nan"):
            cyclic_corr_matrix(snap, float("nan"), conjugate)


class TestCyclicSpectrum:
    def test_fft_matches_direct(self):
        snap = noise_snapshot(6, 1024, seed=13)
        for conjugate in (False, True):
            grid = fft_alpha_grid(snap, conjugate)
            fft = cyclic_spectrum(snap, grid, conjugate)
            assert np.allclose(fft.magnitudes, direct_magnitudes(snap, grid, conjugate),
                               rtol=1e-10, atol=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 6), n=st.integers(16, 300), conjugate=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_fft_matches_direct_on_any_grid(self, m, n, conjugate, seed, data):
        # Any on-grid subset, negative alpha included, exercises both the
        # bin k and the mirrored bin -k of the upper-triangle scan.
        ks = data.draw(st.lists(st.integers(-(n - 1), n - 1), min_size=1,
                                max_size=12, unique=True))
        snap = noise_snapshot(m, n, seed)
        alphas = np.sort(np.array(ks)) * snap.sample_rate / n
        fft = cyclic_spectrum(snap, alphas, conjugate)
        assert np.array_equal(fft.alphas, alphas)
        assert np.allclose(fft.magnitudes, direct_magnitudes(snap, alphas, conjugate),
                           rtol=FFT_MATCH_RTOL, atol=1e-13)

    def test_single_antenna(self):
        snap = noise_snapshot(1, 64, seed=4)
        z = snap.data[0]
        for conjugate in (False, True):
            grid = fft_alpha_grid(snap, conjugate)
            spec = cyclic_spectrum(snap, grid, conjugate)
            prod = z * (z if conjugate else z.conj())
            expected = np.abs(np.fft.fft(prod))[:grid.size] / snap.n_samples
            assert np.allclose(spec.magnitudes, expected, rtol=1e-12)
            assert np.allclose(spec.magnitudes, direct_magnitudes(snap, grid, conjugate),
                               rtol=FFT_MATCH_RTOL, atol=1e-13)

    def test_rescan_bit_identical(self):
        snap = noise_snapshot(7, 500, seed=21)
        for conjugate in (False, True):
            grid = fft_alpha_grid(snap, conjugate)
            first = cyclic_spectrum(snap, grid, conjugate)
            again = cyclic_spectrum(snap, grid, conjugate)
            assert np.array_equal(first.magnitudes, again.magnitudes)

    def test_bpsk_conjugate_argmax_at_baud(self):
        fs = 1e6
        _, _, snap = bpsk_scene_snapshot(8, 4096, seed=3, fs=fs)
        grid = fft_alpha_grid(snap, conjugate=True)
        spec = cyclic_spectrum(snap, grid, conjugate=True)
        step = grid[1] - grid[0]
        # Skip the alpha=0 pseudo-covariance bin.
        best = grid[1:][np.argmax(spec.magnitudes[1:])]
        assert abs(best - fs / 8) <= step

    def test_cw_conjugate_argmax_at_twice_freq(self):
        fs = 1e6
        geom = default_geometry(6, 1.42e9, seed=4)
        src = SourceSpec("cw", 3.0, DirectionLM(0.2, 0.2), freq=1.0e5)
        snap = synthesize(Scene(geom, [src], 4096, fs, 1.0, seed=4))
        grid = fft_alpha_grid(snap, conjugate=True)
        spec = cyclic_spectrum(snap, grid, conjugate=True)
        step = grid[1] - grid[0]
        best = grid[1:][np.argmax(spec.magnitudes[1:])]
        assert abs(best - 2.0e5) <= step

    def test_spectrum_scaling(self):
        snap = noise_snapshot(4, 512, seed=6)
        grid = fft_alpha_grid(snap)
        base = cyclic_spectrum(snap, grid)
        c = 0.3 + 2.1j
        scaled = cyclic_spectrum(ArraySnapshot(c * snap.data, snap.sample_rate), grid)
        assert np.allclose(scaled.magnitudes, abs(c) ** 2 * base.magnitudes)

    def test_off_grid_alpha_needs_the_direct_method(self):
        snap = noise_snapshot(3, 64, seed=0)
        off_grid = [0.5 * snap.sample_rate / 64]
        with pytest.raises(ValueError, match="sample_rate/N grid"):
            cyclic_spectrum(snap, off_grid)
        assert direct_magnitudes(snap, off_grid).size == 1

    def test_rejects_unsorted_grid(self):
        snap = noise_snapshot(3, 64, seed=0)
        with pytest.raises(ValueError):
            cyclic_spectrum(snap, np.array([1.0, 1.0, 2.0]))

    @pytest.mark.parametrize("estimator", ["fft", "direct"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_alpha(self, estimator, bad):
        # NaN once passed the fft grid check and was read as bin 0. The
        # direct reference, `cyclic_corr_matrix`, rejects it too.
        snap = noise_snapshot(3, 64, seed=0)
        if estimator == "fft":
            with pytest.raises(ValueError, match=f"finite, not {bad}$"):
                cyclic_spectrum(snap, [0.0, bad])
        else:
            with pytest.raises(ValueError, match=f"sample_rate, not {bad}$"):
                cyclic_corr_matrix(snap, bad)


def detect_full(spec, snap):
    """Hits of a full scan of `snap`, tested against the null of all M
    eigenvalues of its covariance."""
    lam = signal_subspace(corr_matrix(snap), snap.n_samples)[0]
    return detect_cyclic_freqs(spec, lam, snap.n_samples)


class TestDetect:
    def test_noise_only_mostly_empty(self):
        alphas = np.arange(1, 65) * 1e6 / 256
        empty = 0
        trials = 200
        for seed in range(trials):
            snap = noise_snapshot(8, 256, seed=1000 + seed)
            spec = CyclicSpectrum(alphas, direct_magnitudes(snap, alphas), False)
            if not detect_full(spec, snap):
                empty += 1
        assert empty / trials >= 0.99

    def test_single_bpsk_single_detection(self):
        fs = 1e6
        _, _, snap = bpsk_scene_snapshot(8, 16384, seed=12, fs=fs)
        grid = fft_alpha_grid(snap, conjugate=True)
        spec = cyclic_spectrum(snap, grid, conjugate=True)
        hits = detect_full(spec, snap)
        assert len(hits) == 1
        assert hits[0][0] == pytest.approx(fs / 8)

    def test_two_bauds_two_detections(self):
        fs = 1e6
        geom = default_geometry(8, 1.42e9, seed=14)
        srcs = [SourceSpec("bpsk", 3.0, DirectionLM(0.4, -0.3),
                           baud_rate=fs / 8, carrier_offset=fs / 16),
                SourceSpec("bpsk", 3.0, DirectionLM(-0.2, 0.5),
                           baud_rate=fs / 16, carrier_offset=fs / 32)]
        snap = synthesize(Scene(geom, srcs, 16384, fs, 1.0, seed=14))
        grid = fft_alpha_grid(snap, conjugate=True)
        spec = cyclic_spectrum(snap, grid, conjugate=True)
        found = {round(alpha) for alpha, _ in detect_full(spec, snap)[:2]}
        assert found == {round(fs / 8), round(fs / 16)}

    def test_alpha_zero_is_a_neighbour_but_never_a_hit(self):
        # The covariance bin takes part in the local-maximum rule and is then
        # dropped, so a weaker bin beside it is no hit either.
        mags = np.zeros(32)
        mags[[5, 6, 20]] = 100.0, 50.0, 50.0
        spec = CyclicSpectrum(np.arange(-5.0, 27.0), mags, False)
        assert detect_cyclic_freqs(spec, [1.0], 64) == [(15.0, 50.0)]

    def test_degenerate_spectrum_empty(self):
        spec = CyclicSpectrum(np.arange(32.0), np.ones(32), False)
        assert detect_cyclic_freqs(spec, [1e-6], 64) == []

    def test_requires_enough_points(self):
        spec = CyclicSpectrum(np.arange(1.0), np.ones(1), False)
        with pytest.raises(ValueError, match="at least 2 grid points"):
            detect_cyclic_freqs(spec, [1.0], 16)
        two = CyclicSpectrum(np.arange(2.0), np.array([1.0, 9.0]), False)
        assert detect_cyclic_freqs(two, [1.0], 16) == [(1.0, 9.0)]


class TestExports:
    def test_spectrum_roundtrip(self):
        snap = noise_snapshot(4, 256, seed=2)
        spec = cyclic_spectrum(snap, fft_alpha_grid(snap, True), conjugate=True)
        lines = spectrum_csv(spec).decode().splitlines()
        assert lines[:2] == ["# conjugate=true", "alpha_hz,magnitude"]
        alphas, mags = np.loadtxt(lines[2:], delimiter=",", unpack=True)
        assert np.array_equal(alphas, spec.alphas)
        assert np.array_equal(mags, spec.magnitudes)
