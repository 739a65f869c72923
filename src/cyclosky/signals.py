"""Deterministic complex-baseband source generators.

All generators are pure functions of their parameters and seed, so a scene
can be re-synthesized bit-identically in any evaluation order.
"""

import numpy as np


def gen_noise(n, power, seed) -> np.ndarray:
    """Circular complex Gaussian noise with the requested mean power."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if power < 0:
        raise ValueError("power must be non-negative")
    rng = np.random.default_rng(seed)
    scale = np.sqrt(power / 2.0)
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def gen_bpsk(n, baud_rate, carrier_offset, sample_rate, power, seed) -> np.ndarray:
    """Rectangular-pulse BPSK on a complex exponential carrier offset.

    Random equiprobable +/-1 symbols are held for sample_rate/baud_rate
    samples; fractional symbol boundaries land on the nearest sample.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 < baud_rate < sample_rate / 2:
        raise ValueError("baud_rate must lie in (0, sample_rate/2)")
    if abs(carrier_offset) >= sample_rate / 2:
        raise ValueError("carrier_offset would alias")
    rng = np.random.default_rng(seed)
    n_sym = int(np.ceil(n * baud_rate / sample_rate)) + 1
    symbols = rng.integers(0, 2, n_sym) * 2 - 1
    # Symbol i ends at the sample nearest i * sample_rate / baud_rate.
    bounds = np.rint(np.arange(1, n_sym + 1) * sample_rate / baud_rate).astype(np.int64)
    idx = np.searchsorted(bounds, np.arange(n), side="right")
    k = np.arange(n)
    carrier = np.exp(2j * np.pi * carrier_offset * k / sample_rate)
    return np.sqrt(power) * symbols[idx] * carrier


def gen_cw(n, freq, sample_rate, power, phase=0.0) -> np.ndarray:
    """Constant-amplitude complex tone."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if abs(freq) >= sample_rate / 2:
        raise ValueError("freq would alias")
    k = np.arange(n)
    return np.sqrt(power) * np.exp(1j * (2 * np.pi * freq * k / sample_rate + phase))
