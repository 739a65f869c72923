"""The threaded FFT scan against the single-thread loop it replaced.

`reference_spectrum` is the former `method="fft"` body of `cyclic_spectrum`:
one FFT call and one `einsum` per row, the rows added in order on one
thread, with each row's products folded onto the grid's period first as
`_row_powers` folds them (only the one-bin grids of N = 2 and 3 fold here). The scan now splits each row's partners into blocks and deals the
rows out to threads; with the work threshold at 0 and 2 or 3 threads it
must still return the same magnitudes bit for bit. (The scan uses at most
`SCAN_THREADS` = 2; 3 checks the deal with more than one worker.)

numpy's `einsum` loop is a chain of multiply-adds that some builds fuse
(FMA) and others round twice, and CI runs on x86-64 only, where numpy's
baseline does not fuse. So the block sums are also checked against the
reference with `einsum` replaced by an exactly rounded fused emulation.
"""

import os
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclosky import cyclospec
from cyclosky.arraysim import ArraySnapshot
from cyclosky.cyclospec import cyclic_spectrum, fft_alpha_grid


def reference_power(z, zc, n):
    diag = np.zeros(2 * n)
    off = np.zeros(2 * n)
    fold = z.shape[1] // n
    for row in range(z.shape[0]):
        p = z[row] * zc[row:]
        if fold > 1:
            p = p.reshape(len(p), fold, n).sum(axis=1)
        f = np.fft.fft(p, axis=1).view(np.float64)
        diag += f[0] * f[0]
        off += np.einsum("ij,ij->j", f[1:], f[1:])
    return diag, off


def reference_spectrum(snap, conjugate):
    z = snap.data
    n = snap.n_samples
    bins = cyclospec._as_fft_bins(fft_alpha_grid(snap, conjugate), snap.sample_rate, n)
    d = int(np.gcd.reduce(bins, initial=n))
    bins, period = bins // d, n // d
    zc = z if conjugate else z.conj()
    diag, off = reference_power(z, zc, period)
    diag = diag[0::2] + diag[1::2]
    off = off[0::2] + off[1::2]
    if conjugate:
        power = diag[bins] + 2.0 * off[bins]
    else:
        power = diag[bins] + off[bins] + off[(-bins) % period]
    return np.sqrt(power) / n


def random_snapshot(m, n, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 3, (m, 1))
    data = scale * (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
    return ArraySnapshot(data, 1e6)


def threaded_spectrum(snap, conjugate, threads, block_samples=cyclospec._BLOCK_SAMPLES):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cyclospec, "PARALLEL_MIN_PAIR_SAMPLES", 0)
        mp.setattr(cyclospec, "_scan_threads", lambda: threads)
        mp.setattr(cyclospec, "_BLOCK_SAMPLES", block_samples)
        spec = cyclic_spectrum(snap, fft_alpha_grid(snap, conjugate), conjugate)
    return spec.magnitudes


@st.composite
def scans(draw):
    m = draw(st.integers(2, 12))
    n = draw(st.integers(2, 4096))
    # Blocks of one partner, of a few, and the default (whole rows here).
    partners = draw(st.sampled_from([1, 2, 3, 5, None]))
    block = cyclospec._BLOCK_SAMPLES if partners is None else partners * n
    return (random_snapshot(m, n, draw(st.integers(0, 2 ** 32 - 1))),
            draw(st.booleans()), draw(st.sampled_from([2, 3])), block)


@settings(max_examples=60, deadline=None)
@given(scan=scans())
def test_threaded_scan_matches_reference(scan):
    snap, conjugate, threads, block = scan
    assert np.array_equal(threaded_spectrum(snap, conjugate, threads, block),
                          reference_spectrum(snap, conjugate))


@pytest.mark.parametrize("conjugate", [False, True])
@pytest.mark.parametrize("threads", [2, 3])
def test_full_size_scan_matches_reference(conjugate, threads):
    # 48 x 2048 is above the threshold, and rows 0-15 take two blocks.
    snap = random_snapshot(48, 2048, seed=11)
    assert np.array_equal(threaded_spectrum(snap, conjugate, threads),
                          reference_spectrum(snap, conjugate))


def fused_einsum(subscripts, a, b):
    """`np.einsum("ij,ij->j", a, b)` on a build whose loop fuses each
    multiply-add: out[j] = fma(a[i, j], b[i, j], out[j]) for i in order, each
    step rounded once (exact rationals; int / int division rounds correctly)."""
    assert subscripts == "ij,ij->j"
    out = [0.0] * a.shape[1]
    for i in range(a.shape[0]):
        for j, (x, y) in enumerate(zip(a[i].tolist(), b[i].tolist())):
            out[j] = float(Fraction(x) * Fraction(y) + Fraction(out[j]))
    return np.array(out)


@pytest.mark.parametrize("threads", [2, 3])
@pytest.mark.parametrize("partners", [1, 2, 3])
def test_blocked_sum_matches_reference_with_fused_einsum(monkeypatch, threads,
                                                         partners):
    z = random_snapshot(9, 16, seed=partners).data
    plain = reference_power(z, z.conj(), 16)
    monkeypatch.setattr(np, "einsum", fused_einsum)
    fused = reference_power(z, z.conj(), 16)
    # The emulation must round differently here, or the test shows nothing.
    assert not np.array_equal(fused[1], plain[1])
    monkeypatch.setattr(cyclospec, "PARALLEL_MIN_PAIR_SAMPLES", 0)
    monkeypatch.setattr(cyclospec, "_scan_threads", lambda: threads)
    monkeypatch.setattr(cyclospec, "_BLOCK_SAMPLES", partners * 16)
    blocked = cyclospec._scan_power(z, z.conj(), 16)
    assert np.array_equal(blocked[0], fused[0])
    assert np.array_equal(blocked[1], fused[1])


def test_scan_threads_capped_at_measured_count(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)),
                        raising=False)
    assert cyclospec._scan_threads() == cyclospec.SCAN_THREADS == 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cyclospec._scan_threads() == 1


def row_threads(monkeypatch, snap):
    """The thread that ran each row of one scan (objects, not idents, which
    a finished thread may hand on)."""
    seen = {}
    real = cyclospec._row_powers

    def spy(z, zc, rows, n):
        for row, power in zip(rows, real(z, zc, rows, n)):
            seen[row] = threading.current_thread()
            yield power

    monkeypatch.setattr(cyclospec, "_row_powers", spy)
    cyclic_spectrum(snap, fft_alpha_grid(snap))
    return seen


def test_rows_dealt_round_robin(monkeypatch):
    monkeypatch.setattr(cyclospec, "PARALLEL_MIN_PAIR_SAMPLES", 0)
    monkeypatch.setattr(cyclospec, "_scan_threads", lambda: 3)
    seen = row_threads(monkeypatch, random_snapshot(7, 64, seed=1))
    assert sorted(seen) == list(range(7))
    assert {seen[r] for r in (0, 3, 6)} == {threading.main_thread()}
    assert len({seen[r] for r in range(7)}) == 3
    assert seen[1] == seen[4] and seen[2] == seen[5]


def test_small_scan_stays_on_calling_thread(monkeypatch):
    monkeypatch.setattr(cyclospec, "_scan_threads", lambda: 3)
    # 48 x 256 is 301,056 pair-samples, below the threshold.
    seen = row_threads(monkeypatch, random_snapshot(48, 256, seed=1))
    assert set(seen.values()) == {threading.main_thread()}


@pytest.mark.parametrize("threads", [2, 3])
@pytest.mark.parametrize("bad_row", [0, 1])
def test_row_failure_reaches_caller_and_no_thread_outlives_it(monkeypatch, threads,
                                                             bad_row):
    monkeypatch.setattr(cyclospec, "PARALLEL_MIN_PAIR_SAMPLES", 0)
    monkeypatch.setattr(cyclospec, "_scan_threads", lambda: threads)
    error = RuntimeError(f"row {bad_row} failed")
    real = cyclospec._row_powers

    def failing(z, zc, rows, n):
        for row, power in zip(rows, real(z, zc, rows, n)):
            if row == bad_row:
                raise error
            yield power

    monkeypatch.setattr(cyclospec, "_row_powers", failing)
    snap = random_snapshot(9, 128, seed=2)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as excinfo:
        cyclic_spectrum(snap, fft_alpha_grid(snap))
    assert excinfo.value is error
    assert threading.active_count() == before


def test_failed_thread_start_joins_started_workers(monkeypatch):
    monkeypatch.setattr(cyclospec, "PARALLEL_MIN_PAIR_SAMPLES", 0)
    monkeypatch.setattr(cyclospec, "_scan_threads", lambda: 3)
    error = RuntimeError("can't start new thread")
    real_start = threading.Thread.start
    starts = []

    def start_once(thread):
        if starts:
            raise error
        starts.append(thread)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start_once)
    snap = random_snapshot(9, 128, seed=2)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as excinfo:
        cyclic_spectrum(snap, fft_alpha_grid(snap))
    assert excinfo.value is error
    assert len(starts) == 1 and not starts[0].is_alive()
    assert threading.active_count() == before
