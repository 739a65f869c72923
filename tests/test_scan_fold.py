"""The FFT scan on sparse on-grid alpha: fold before the transform.

When every requested bin is a multiple of d = gcd(N, bins), `cyclic_spectrum`
folds each N-sample pair product onto period L = N/d and transforms it at
length L. These tests hold it to the direct estimator, the norm of
`cyclic_corr_matrix` at each alpha, within FFT_MATCH_RTOL, check the length
it transforms at, and require the threaded scan to return the same bits as
one thread at the same block size. Full grids (d = 1) are pinned to the
former loop by `test_scan_reference.py`.
"""

from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclosky import cyclospec
from cyclosky.arraysim import ArraySnapshot
from cyclosky.cyclospec import (FFT_MATCH_RTOL, cyclic_corr_matrix, cyclic_spectrum,
                                fft_alpha_grid)

FS = 1e6


def random_snapshot(m, n, seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    return ArraySnapshot(data, FS)


def scan(snap, alphas, conjugate, threads=1, block_samples=None):
    """FFT magnitudes, and the transform length `_scan_power` was given."""
    lengths = []
    real = cyclospec._scan_power

    def spy(z, zc, n):
        lengths.append(n)
        return real(z, zc, n)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cyclospec, "_scan_power", spy)
        mp.setattr(cyclospec, "_scan_threads", lambda: threads)
        if threads > 1:
            mp.setattr(cyclospec, "PARALLEL_MIN_PAIR_SAMPLES", 0)
        if block_samples is not None:
            mp.setattr(cyclospec, "_BLOCK_SAMPLES", block_samples)
        spec = cyclic_spectrum(snap, alphas, conjugate)
    (length,) = lengths
    return spec.magnitudes, length


def assert_matches_direct(snap, alphas, conjugate, mags):
    direct = [np.linalg.norm(cyclic_corr_matrix(snap, a, conjugate).values)
              for a in alphas]
    assert np.allclose(mags, direct, rtol=FFT_MATCH_RTOL, atol=1e-13)


def fold_length(n, ks):
    """N / gcd(N, bins) for the bins ks (negative ones taken mod N)."""
    d = n
    for k in ks:
        d = gcd(d, k % n)
    return n // d


@st.composite
def sparse_scans(draw):
    m = draw(st.integers(2, 8))
    d = draw(st.sampled_from([2, 3, 4, 8, 16, 64]))
    length = draw(st.integers(1, 256))
    n = d * length
    # alpha = d k fs / N with |alpha| < fs, alpha = 0 and negative alpha allowed.
    ks = sorted(draw(st.lists(st.integers(-(length - 1), length - 1),
                              min_size=1, max_size=16, unique=True)))
    return (random_snapshot(m, n, draw(st.integers(0, 2 ** 32 - 1))),
            [d * k for k in ks], draw(st.booleans()), draw(st.sampled_from([2, 3])),
            draw(st.sampled_from([1, 2, 3, None])))


@settings(max_examples=60, deadline=None)
@given(case=sparse_scans())
def test_folded_scan_matches_direct_and_threads(case):
    snap, bins, conjugate, threads, partners = case
    n = snap.n_samples
    alphas = np.array(bins) * FS / n
    mags, length = scan(snap, alphas, conjugate)
    assert length == fold_length(n, bins)
    assert_matches_direct(snap, alphas, conjugate, mags)
    # Blocks of one to three partners, or the default.
    block = None if partners is None else partners * n
    blocked, _ = scan(snap, alphas, conjugate, 1, block)
    assert_matches_direct(snap, alphas, conjugate, blocked)
    threaded, _ = scan(snap, alphas, conjugate, threads, block)
    assert np.array_equal(threaded, blocked)


@pytest.mark.parametrize("conjugate", [False, True])
def test_one_bin_grid_transforms_one_point(conjugate):
    snap = random_snapshot(5, 96, seed=3)
    mags, length = scan(snap, [0.0], conjugate)
    assert length == 1
    assert_matches_direct(snap, [0.0], conjugate, mags)
    # A single nonzero bin: gcd(96, 36) = 12, so length 8.
    alphas = [-36 * FS / 96]
    mags, length = scan(snap, alphas, conjugate)
    assert length == 8
    assert_matches_direct(snap, alphas, conjugate, mags)


@pytest.mark.parametrize("conjugate", [False, True])
def test_bins_closer_mod_n_than_their_gcd(conjugate):
    # Two or more bins cannot be spaced by less than their gcd, except
    # modulo N: -48 and 16 are one bin of N = 64 (gcd 16), and 16 and 48 are
    # spaced by twice their gcd.
    snap = random_snapshot(6, 64, seed=4)
    alphas = np.array([-48, 16, 48]) * FS / 64
    mags, length = scan(snap, alphas, conjugate)
    assert length == 4
    assert_matches_direct(snap, alphas, conjugate, mags)
    blocked, _ = scan(snap, alphas, conjugate, block_samples=64)
    threaded, _ = scan(snap, alphas, conjugate, threads=2, block_samples=64)
    assert np.array_equal(threaded, blocked)


@pytest.mark.parametrize("conjugate", [False, True])
def test_full_grid_is_not_folded(conjugate):
    snap = random_snapshot(4, 120, seed=5)
    _, length = scan(snap, fft_alpha_grid(snap, conjugate), conjugate)
    assert length == 120


def test_null_sweep_shape_folds_to_criterion_4_grid():
    # Criterion 4's grid, alpha = k fs / 1024 for k = 1..16, on an 8 x 16384
    # record: bins 16 k, so the products fold onto 1024 samples.
    snap = random_snapshot(8, 16384, seed=6)
    alphas = np.arange(1, 17) * FS / 1024
    for conjugate in (False, True):
        mags, length = scan(snap, alphas, conjugate)
        assert length == 1024
        assert_matches_direct(snap, alphas[[0, -1]], conjugate, mags[[0, -1]])
        threaded, _ = scan(snap, alphas, conjugate, threads=2)
        assert np.array_equal(threaded, mags)
