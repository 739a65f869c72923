import numpy as np
import pytest

from cyclosky.signals import gen_bpsk, gen_cw, gen_noise


def cyclic_autocorr(x, alpha, fs, lag=0, conjugate=False):
    """Brute-force cyclic autocorrelation at one lag; test oracle."""
    n = len(x) - lag
    k = np.arange(n)
    head = x[lag:lag + n]
    tail = x[:n] if conjugate else np.conj(x[:n])
    return np.mean(head * tail * np.exp(-2j * np.pi * alpha * k / fs))


def mean_power(x):
    return float(np.mean(np.abs(x) ** 2))


def alpha_scan(x, alphas, fs, lag=0, conjugate=False):
    return np.array([abs(cyclic_autocorr(x, a, fs, lag, conjugate)) for a in alphas])


class TestGenNoise:
    def test_reproducible(self):
        a = gen_noise(1024, 1.0, seed=7)
        b = gen_noise(1024, 1.0, seed=7)
        assert np.array_equal(a, b)
        c = gen_noise(1024, 1.0, seed=8)
        assert not np.array_equal(a, c)

    def test_mean_power(self):
        s = gen_noise(4096, 1.0, seed=7)
        assert 0.9 <= mean_power(s) <= 1.1

    def test_plus_five_db_power(self):
        power = 10 ** (5 / 10)
        s = gen_noise(4096, power, seed=11)
        assert abs(mean_power(s) - power) <= 0.1 * power

    def test_zero_power_single_sample(self):
        s = gen_noise(1, 0.0, seed=3)
        assert len(s) == 1
        assert s[0] == 0

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            gen_noise(0, 1.0, seed=0)

    def test_stationarity(self):
        # At alpha != 0 the cyclic autocorrelation of stationary noise decays
        # as N^{-1/2}; check against the 4 sigma-ish bound on an alpha grid.
        n = 65536
        s = gen_noise(n, 1.0, seed=5)
        alphas = np.linspace(0.01, 0.49, 100)
        mags = alpha_scan(s, alphas, 1.0)
        bound = 4.0 / np.sqrt(n)
        assert np.mean(mags < bound) >= 0.99


class TestGenBpsk:
    def test_constant_modulus(self):
        s = gen_bpsk(2048, 1 / 8, 0.0, 1.0, 1.0, seed=1)
        assert np.allclose(np.abs(s), 1.0)

    def test_power(self):
        s = gen_bpsk(4096, 1 / 8, 1 / 16, 1.0, 2.5, seed=2)
        assert abs(mean_power(s) - 2.5) <= 0.25

    def test_reproducible(self):
        a = gen_bpsk(512, 1 / 8, 1 / 16, 1.0, 1.0, seed=9)
        b = gen_bpsk(512, 1 / 8, 1 / 16, 1.0, 1.0, seed=9)
        assert np.array_equal(a, b)

    def test_rejects_fast_baud(self):
        with pytest.raises(ValueError):
            gen_bpsk(64, 0.5, 0.0, 1.0, 1.0, seed=0)

    def test_baud_line_in_cyclic_autocorr(self):
        # Rectangular BPSK is constant-modulus, so the baud line shows at a
        # half-symbol lag of the non-conjugate cyclic autocorrelation.
        baud = 1 / 8
        s = gen_bpsk(65536, baud, 0.0, 1.0, 1.0, seed=4)
        lag = 4
        at_baud = abs(cyclic_autocorr(s, baud, 1.0, lag))
        off_baud = abs(cyclic_autocorr(s, 1.5 * baud, 1.0, lag))
        assert at_baud >= 5.0 * off_baud

    def test_baud_is_argmax_of_lagged_scan(self):
        baud = 1 / 8
        s = gen_bpsk(65536, baud, 0.0, 1.0, 1.0, seed=4)
        alphas = np.linspace(0.025, 0.3, 56)  # grid hits baud = 0.125 exactly
        mags = alpha_scan(s, alphas, 1.0, lag=4)
        assert abs(alphas[np.argmax(mags)] - baud) <= alphas[1] - alphas[0]

    def test_conjugate_line_at_twice_offset(self):
        offset = 1 / 16
        s = gen_bpsk(65536, 1 / 8, offset, 1.0, 1.0, seed=6)
        alphas = np.linspace(0.01, 0.49, 97)
        # Include the exact line in the grid.
        alphas = np.sort(np.append(alphas, 2 * offset))
        mags = alpha_scan(s, alphas, 1.0, conjugate=True)
        assert alphas[np.argmax(mags)] == pytest.approx(2 * offset)


class TestGenCw:
    def test_dc_tone(self):
        s = gen_cw(4, 0.0, 1.0, 1.0, 0.0)
        assert np.allclose(s, np.ones(4))

    def test_quarter_rate_tone(self):
        s = gen_cw(8, 0.25, 1.0, 1.0, 0.0)
        expected = np.array([1, 1j, -1, -1j] * 2)
        assert np.allclose(s, expected)

    def test_power(self):
        s = gen_cw(4096, 0.1, 1.0, 3.0, 0.3)
        assert abs(mean_power(s) - 3.0) < 1e-9

    def test_rejects_aliasing(self):
        with pytest.raises(ValueError):
            gen_cw(16, 0.6, 1.0, 1.0)

    def test_conjugate_cyclic_peak_at_twice_freq(self):
        freq = 0.11
        power = 2.0
        s = gen_cw(8192, freq, 1.0, power, 0.4)
        at_line = cyclic_autocorr(s, 2 * freq, 1.0, conjugate=True)
        off_line = cyclic_autocorr(s, 2 * freq + 0.05, 1.0, conjugate=True)
        assert abs(at_line) == pytest.approx(power, rel=1e-9)
        assert abs(off_line) < 0.01 * power
