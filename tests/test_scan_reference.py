"""The threaded FFT scan against the single-thread loop it replaced.

`reference_spectrum` is the former FFT body of `cyclic_spectrum`: one FFT
call and one `einsum` per row, the rows added in order on one thread, with
each row's products folded onto the grid's period first as `_row_power`
folds them (only the one-bin grids of N = 2 and 3 fold here). The scan now
splits each row's partners into blocks and shares the rows among threads.
Where a row's partners span more than one block, the reference adds each
block's `einsum` to the row's sum in block order, as the scan does; a row
that fits one block keeps the whole-row form. With the work threshold at 0
and 2 or 3 threads the scan must still return the same magnitudes bit for
bit. (The scan uses at most `SCAN_THREADS` = 2; 3 checks the scan with more
than one worker.) The direct estimator, the norm of `cyclic_corr_matrix` at
each alpha, is the scan's reference within FFT_MATCH_RTOL in
`test_cyclospec.py` and `test_scan_fold.py`.
"""

import os
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclosky import cyclospec
from cyclosky.arraysim import ArraySnapshot
from cyclosky.cyclospec import cyclic_spectrum, fft_alpha_grid


def reference_power(z, zc, n, step):
    """Row sums over blocks of `step` partners, each block's einsum added in
    order (one einsum over the row when it fits a block)."""
    diag = np.zeros(2 * n)
    off = np.zeros(2 * n)
    fold = z.shape[1] // n
    for row in range(z.shape[0]):
        p = z[row] * zc[row:]
        if fold > 1:
            p = p.reshape(len(p), fold, n).sum(axis=1)
        f = np.fft.fft(p, axis=1).view(np.float64)
        diag += f[0] * f[0]
        row_off = np.einsum("ij,ij->j", f[1:step], f[1:step])
        for start in range(step, len(f), step):
            block = f[start:start + step]
            row_off += np.einsum("ij,ij->j", block, block)
        off += row_off
    return diag, off


def reference_spectrum(snap, conjugate, block_samples=cyclospec._BLOCK_SAMPLES):
    z = snap.data
    n = snap.n_samples
    bins = cyclospec._as_fft_bins(fft_alpha_grid(snap, conjugate), snap.sample_rate, n)
    d = int(np.gcd.reduce(bins, initial=n))
    bins, period = bins // d, n // d
    zc = z if conjugate else z.conj()
    diag, off = reference_power(z, zc, period, max(1, block_samples // n))
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
                          reference_spectrum(snap, conjugate, block))


@pytest.mark.parametrize("conjugate", [False, True])
@pytest.mark.parametrize("threads", [2, 3])
def test_full_size_scan_matches_reference(conjugate, threads):
    # 48 x 2048 is above the threshold, and rows 0-15 take two blocks.
    snap = random_snapshot(48, 2048, seed=11)
    assert np.array_equal(threaded_spectrum(snap, conjugate, threads),
                          reference_spectrum(snap, conjugate))


def test_many_threads_under_short_switch_interval():
    # More threads than cores, switching every microsecond: a row lost or
    # added out of order would change the bits.
    snap = random_snapshot(24, 256, seed=5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        mags = threaded_spectrum(snap, False, threads=8)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(mags, reference_spectrum(snap, False))


def test_scan_threads_capped_at_measured_count(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)),
                        raising=False)
    assert cyclospec._scan_threads() == cyclospec.SCAN_THREADS == 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cyclospec._scan_threads() == 1


@pytest.mark.parametrize("cpus, threads", [(None, 1), (8, cyclospec.SCAN_THREADS)])
def test_scan_threads_without_affinity_counts_cpus(monkeypatch, cpus, threads):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert cyclospec._scan_threads() == threads


def row_threads(monkeypatch, snap, threads=1):
    """The thread that ran each row of one scan (objects, not idents, which
    a finished thread may hand on). Each thread waits at its first row until
    `threads` have arrived, so a pool cannot hand every row to one worker
    that went idle."""
    seen = {}
    real = cyclospec._row_power
    first_rows = threading.Barrier(threads, timeout=30)

    def spy(z, zc, row, n):
        if threading.current_thread() not in seen.values():
            first_rows.wait()
        seen[row] = threading.current_thread()
        return real(z, zc, row, n)

    monkeypatch.setattr(cyclospec, "_row_power", spy)
    cyclic_spectrum(snap, fft_alpha_grid(snap))
    return seen


def test_caller_takes_every_kth_row(monkeypatch):
    monkeypatch.setattr(cyclospec, "PARALLEL_MIN_PAIR_SAMPLES", 0)
    monkeypatch.setattr(cyclospec, "_scan_threads", lambda: 3)
    seen = row_threads(monkeypatch, random_snapshot(7, 64, seed=1), threads=3)
    assert sorted(seen) == list(range(7))
    assert {r for r in seen if seen[r] is threading.main_thread()} == {0, 3, 6}
    assert len(set(seen.values())) == 3


def test_small_scan_stays_on_calling_thread(monkeypatch):
    monkeypatch.setattr(cyclospec, "_scan_threads", lambda: 3)
    # 48 x 256 is 301,056 pair-samples, below the threshold.
    seen = row_threads(monkeypatch, random_snapshot(48, 256, seed=1))
    assert set(seen.values()) == {threading.main_thread()}


def most_rows_alive(monkeypatch, snap):
    """The most earlier rows whose powers were still alive when a row of one
    scan started."""
    real = cyclospec._row_power
    done = []
    most = 0

    def spy(z, zc, row, n):
        nonlocal most
        most = max(most, sum(any(ref() is not None for ref in refs) for refs in done))
        power = real(z, zc, row, n)
        done.append([weakref.ref(a) for a in power])
        return power

    monkeypatch.setattr(cyclospec, "_row_power", spy)
    cyclic_spectrum(snap, fft_alpha_grid(snap))
    return most


def test_one_thread_holds_one_earlier_row(monkeypatch):
    # 24 x 256 is 76,800 pair-samples, below the threshold.
    assert most_rows_alive(monkeypatch, random_snapshot(24, 256, seed=3)) <= 1


def test_two_threads_hold_at_most_the_workers_rows(monkeypatch):
    # The worker runs ahead by at most its own 12 rows; the caller holds the
    # last row it added.
    monkeypatch.setattr(cyclospec, "PARALLEL_MIN_PAIR_SAMPLES", 0)
    monkeypatch.setattr(cyclospec, "_scan_threads", lambda: 2)
    assert most_rows_alive(monkeypatch, random_snapshot(24, 256, seed=3)) <= 24 // 2 + 1


@pytest.mark.parametrize("threads", [2, 3])
@pytest.mark.parametrize("bad_row", [0, 1])
def test_row_failure_reaches_caller_and_no_thread_outlives_it(monkeypatch, threads,
                                                             bad_row):
    monkeypatch.setattr(cyclospec, "PARALLEL_MIN_PAIR_SAMPLES", 0)
    monkeypatch.setattr(cyclospec, "_scan_threads", lambda: threads)
    error = RuntimeError(f"row {bad_row} failed")
    real = cyclospec._row_power

    def failing(z, zc, row, n):
        if row == bad_row:
            raise error
        return real(z, zc, row, n)

    monkeypatch.setattr(cyclospec, "_row_power", failing)
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
    real_row = cyclospec._row_power
    starts = []
    # The first worker holds its rows until the second start fails, so the
    # pool cannot hand the second row to it as an idle worker instead.
    second_start = threading.Event()

    def start_once(thread):
        if starts:
            second_start.set()
            raise error
        starts.append(thread)
        real_start(thread)

    def held_row(z, zc, row, n):
        if threading.current_thread() is not threading.main_thread():
            assert second_start.wait(timeout=30)
        return real_row(z, zc, row, n)

    monkeypatch.setattr(threading.Thread, "start", start_once)
    monkeypatch.setattr(cyclospec, "_row_power", held_row)
    snap = random_snapshot(9, 128, seed=2)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as excinfo:
        cyclic_spectrum(snap, fft_alpha_grid(snap))
    assert excinfo.value is error
    assert len(starts) == 1 and not starts[0].is_alive()
    assert threading.active_count() == before
