"""End-to-end acceptance gate.

Each test prints exactly one PASS/FAIL line for its criterion, straight to
the terminal (bypassing capture), then asserts it.
"""

import filecmp
import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from cyclosky.arraysim import (ArraySnapshot, DirectionLM, Scene, SourceSpec,
                               default_geometry, steering_vector, synthesize)
from cyclosky.cli import main as cli_main
from cyclosky.cyclospec import (corr_matrix, cyclic_corr_matrix,
                                cyclic_spectrum, fft_alpha_grid)
from cyclosky.imaging import SkymapGrid, cyclic_skymap, skymap
from cyclosky.scheduling import (ChannelGrid, Program, SchedulerConfig,
                                 SiteModel, corruption_risk, flag_mask,
                                 schedule, target_position)
from cyclosky.tracking import (FAST, SLOW, STATIONARY, Detection, RfiTrack,
                               Tracker, TrackerConfig, classify, predict)

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "fig4.scenario"


@pytest.fixture
def report(capsys):
    def _report(num, name, ok, detail=""):
        line = f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  ({detail})"
        with capsys.disabled():
            print(line)
        assert ok, line
    return _report


def random_snapshot(rng, m=4, n=64, fs=1e6):
    data = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
    return ArraySnapshot(data / np.sqrt(2), fs)


def bpsk_scene(seed, m=48, n=2048, snr_db=0.0, astro_db=None, fs=1e6):
    sources = [SourceSpec("bpsk", snr_db, DirectionLM(0.4, -0.3),
                          baud_rate=fs / 8, carrier_offset=fs / 16)]
    if astro_db is not None:
        sources.append(SourceSpec("astro", astro_db, DirectionLM(-0.35, 0.2)))
    geom = default_geometry(m, 1.42e9, seed=0, aperture_wavelengths=6.0)
    return synthesize(Scene(geom, sources, n, fs, 1.0, seed)), geom


def test_criterion_1_quantitative_scenario(report):
    t_start = time.perf_counter()
    fs = 1e6
    n = 2048
    baud = fs / 8
    step = fs / n
    grid = SkymapGrid(n_l=128, n_m=128)
    pitch = grid.l_axis()[1] - grid.l_axis()[0]
    d_bpsk = DirectionLM(0.4, -0.3)
    d_astro = DirectionLM(-0.35, 0.2)

    argmax_err = []
    bpsk_map_err = []
    astro_map_err = []
    cyc_peak_err = []
    leak_ratio = []
    for seed in range(20):
        snap, geom = bpsk_scene(seed, astro_db=5.0)
        alphas = fft_alpha_grid(snap, conjugate=True)
        spec = cyclic_spectrum(snap, alphas, conjugate=True)
        hit = spec.alphas[1:][np.argmax(spec.magnitudes[1:])]
        argmax_err.append(abs(hit - baud))

        smap = skymap(corr_matrix(snap), geom, grid)
        maxima = local_maxima(smap.power)
        bpsk_map_err.append(pixel_distance(smap, maxima, d_bpsk))
        astro_map_err.append(pixel_distance(smap, maxima, d_astro))

        cmap = cyclic_skymap(cyclic_corr_matrix(snap, baud, conjugate=True),
                             geom, grid)
        i, j = np.unravel_index(np.argmax(cmap.power), cmap.power.shape)
        cyc_peak_err.append(np.hypot(cmap.grid.l_axis()[i] - d_bpsk.l,
                                     cmap.grid.m_axis()[j] - d_bpsk.m))
        ia = np.argmin(np.abs(cmap.grid.l_axis() - d_astro.l))
        ja = np.argmin(np.abs(cmap.grid.m_axis() - d_astro.m))
        leak_ratio.append(cmap.power[ia, ja] / cmap.power[i, j])
    elapsed = time.perf_counter() - t_start

    ok = (np.mean(argmax_err) <= step
          and np.mean(bpsk_map_err) <= pitch
          and np.mean(astro_map_err) <= pitch
          and np.mean(cyc_peak_err) <= pitch
          and np.mean(leak_ratio) < 0.1
          and elapsed < 30.0)
    report(1, "quantitative scenario", ok,
           f"argmax err {np.mean(argmax_err):.0f} Hz, map errs "
           f"{np.mean(bpsk_map_err):.4f}/{np.mean(astro_map_err):.4f}, "
           f"leak {np.mean(leak_ratio):.3f}, {elapsed:.1f} s")


def local_maxima(power):
    padded = np.pad(power, 1, constant_values=-np.inf)
    core = padded[1:-1, 1:-1]
    mask = np.ones_like(core, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di or dj:
                mask &= core > padded[1 + di:padded.shape[0] - 1 + di,
                                      1 + dj:padded.shape[1] - 1 + dj]
    floor = 0.05 * power.max()
    return np.argwhere(mask & (core > floor))


def pixel_distance(smap, maxima, direction):
    la, ma = smap.grid.l_axis(), smap.grid.m_axis()
    dists = [np.hypot(la[i] - direction.l, ma[j] - direction.m)
             for i, j in maxima]
    return min(dists) if dists else np.inf


def test_criterion_2_alpha_zero_identity(report):
    rng = np.random.default_rng(2)
    ok = True
    for _ in range(100):
        snap = random_snapshot(rng, m=int(rng.integers(2, 9)),
                               n=int(rng.integers(16, 257)))
        a = cyclic_corr_matrix(snap, 0.0, conjugate=False).values
        b = corr_matrix(snap)
        if not (a.shape == b.shape and np.array_equal(a, b)):
            ok = False
            break
    report(2, "alpha=0 identity", ok, "100 snapshots, bit-for-bit")


def test_criterion_3_conjugation_symmetry(report):
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(100):
        snap = random_snapshot(rng, m=int(rng.integers(2, 9)),
                               n=int(rng.integers(16, 257)))
        alpha = float(rng.uniform(1.0, snap.sample_rate / 2))
        pos = cyclic_corr_matrix(snap, alpha).values
        neg = cyclic_corr_matrix(snap, -alpha).values
        if not np.array_equal(pos.conj().T, neg):
            ok = False
            break
    report(3, "conjugation symmetry", ok, "100 (snapshot, alpha) pairs, exact")


def test_criterion_4_stationary_null_decay(report):
    fs = 1e6
    alphas = np.arange(1, 17) * fs / 1024  # FFT bins of both sizes
    med_small = []
    med_big = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        for n, sink in ((16384, med_small), (65536, med_big)):
            snap = random_snapshot(rng, m=8, n=n, fs=fs)
            spec = cyclic_spectrum(snap, alphas)
            sink.append(np.median(spec.magnitudes))
    ratio = np.median(med_big) / np.median(med_small)
    ok = 0.75 * 0.5 <= ratio <= 1.25 * 0.5
    report(4, "stationary null decay", ok,
           f"norm ratio {ratio:.3f} vs 0.5 +/- 25%, 100 seeds")


def test_criterion_5_rank_collapse(report):
    hits = 0
    for seed in range(100):
        snap, geom = bpsk_scene(seed, m=16, n=16384)
        ra = cyclic_corr_matrix(snap, 1.25e5, conjugate=True).values
        u = np.linalg.svd(ra)[0][:, 0]
        a = steering_vector(geom, DirectionLM(0.4, -0.3))
        cos = abs(u.conj() @ a) / (np.linalg.norm(u) * np.linalg.norm(a))
        hits += cos >= 0.9
    ok = hits >= 95
    report(5, "rank collapse", ok, f"{hits}/100 seeds with cosine >= 0.9")


def test_criterion_6_imaging_calibration(report):
    geom = default_geometry(16, 1.42e9, seed=6)
    grid = SkymapGrid(n_l=64, n_m=64)
    d = DirectionLM(grid.l_axis()[40], grid.m_axis()[20])
    a = steering_vector(geom, d)
    r = np.outer(a, a.conj())
    smap = skymap(r, geom, grid)
    peak_ok = (abs(smap.power[40, 20] - 1.0) <= 1e-9
               and abs(smap.power.max() - 1.0) <= 1e-9)
    c = 3.7
    scaled = skymap(c * r, geom, grid)
    scale_ok = (np.allclose(scaled.power, c * smap.power, rtol=1e-12)
                and np.argmax(scaled.power) == np.argmax(smap.power))
    ok = peak_ok and scale_ok
    report(6, "imaging calibration", ok,
           f"peak {smap.power[40, 20]:.12f}, scaling exact")


def test_criterion_7_tracker(report):
    # Noiseless: exact recovery and threshold semantics.
    dl, dm = 2.5e-3, -1.5e-3
    tracker = Tracker(TrackerConfig(s_stat=1e-6, gate_min=0.02))
    for k in range(20):
        tracker.step([Detection(float(k), 1e5, True,
                                DirectionLM(-0.2 + dl * k, 0.1 + dm * k), 1.0)])
    noiseless_ok = (len(tracker.tracks) == 1
                    and abs(tracker.tracks[0].model.dl_dt - dl) < 1e-9
                    and abs(tracker.tracks[0].model.dm_dt - dm) < 1e-9)
    track = tracker.tracks[0]
    s = track.speed()
    boundary_ok = (
        classify(track, TrackerConfig(s_stat=np.nextafter(s, np.inf))) == STATIONARY
        and classify(track, TrackerConfig(s_stat=s, s_fast=np.nextafter(s, np.inf))) == SLOW
        and classify(track, TrackerConfig(s_stat=1e-9, s_fast=np.nextafter(s, -np.inf))) == FAST
        and classify(track, TrackerConfig(s_stat=1e-9, s_fast=s)) == SLOW)

    # Noisy Monte Carlo: 10-s prediction within 3x reported uncertainty.
    sigma = 0.002
    hits = 0
    for trial in range(1000):
        rng = np.random.default_rng(trial)
        tr = Tracker(TrackerConfig(s_stat=1e-6, gate_min=6 * sigma))
        for k in range(20):
            tr.step([Detection(float(k), 1e5, True,
                               DirectionLM(-0.3 + 3e-3 * k + sigma * rng.standard_normal(),
                                           0.1 + 1e-3 * k + sigma * rng.standard_normal()),
                               1.0)])
        track = max(tr.tracks, key=lambda t: len(t.history))
        pred = predict(track, 29.0)
        err = np.hypot(pred.direction.l - (-0.3 + 3e-3 * 29),
                       pred.direction.m - (0.1 + 1e-3 * 29))
        hits += err < 3 * pred.radius
    mc_ok = hits >= 950
    ok = noiseless_ok and boundary_ok and mc_ok
    report(7, "tracker", ok,
           f"noiseless exact, boundaries exact, {hits}/1000 within 3x sigma")


def stationary_rfi_track(tid, l, m, alpha):
    track = RfiTrack(tid, alpha, True,
                     [(float(-k), DirectionLM(l, m), 1.0) for k in range(5, 0, -1)])
    classify(track, TrackerConfig(min_points=3))
    return track


def brute_force_optimum(programs, site, horizon, tracks, cfg):
    """Independent exhaustive enumerator over per-program start choices."""
    preds = []
    for slot in range(horizon):
        t = slot * site.slot_length
        preds.append([(predict(tr, t), tr.alpha) for tr in tracks])
    feasible = {}
    for p in programs:
        options = []
        for start in range(horizon - p.duration + 1):
            risks = []
            for k in range(start, start + p.duration):
                pos = target_position((p.ra, p.dec), site, k)
                if pos is None:
                    break
                risks.append(corruption_risk(pos, p.freq_span, preds[k], cfg))
            else:
                if max(risks) <= cfg.risk_cap:
                    options.append((start, sum(risks)))
        feasible[p.id] = options
    progs = sorted(programs, key=lambda p: p.id)
    best = None
    for combo in itertools.product(*([(None, 0.0)] + feasible[p.id]
                                     for p in progs)):
        occupied = 0
        cost = 0.0
        value = 0.0
        valid = True
        for p, (start, wcost) in zip(progs, combo):
            if start is None:
                continue
            bits = ((1 << p.duration) - 1) << start
            if bits & occupied:
                valid = False
                break
            occupied |= bits
            cost += wcost
            value += p.priority
        if valid:
            objective = cost - cfg.lam * value
            if best is None or objective < best:
                best = objective
    return best, feasible


def test_criterion_8_scheduler_oracle(report):
    rng = np.random.default_rng(8)
    site = SiteModel(latitude=-0.5, slot_length=1800.0)
    mismatches = 0
    greedy_losses = 0
    infeasible_uses = 0
    for case in range(200):
        if case < 170:
            n_prog = int(rng.integers(1, 5))
            horizon = int(rng.integers(3, 13))
        else:
            n_prog = int(rng.integers(5, 7))
            horizon = int(rng.integers(3, 7))
        programs = [Program(pid,
                            ra=float(rng.uniform(0, 2 * np.pi)),
                            dec=float(rng.uniform(-np.pi / 2, 0.3)),
                            freq_span=(1.419e9, 1.421e9),
                            duration=int(rng.integers(1, 4)),
                            priority=float(rng.uniform(0.5, 3.0)))
                    for pid in range(n_prog)]
        tracks = [stationary_rfi_track(k, float(rng.uniform(-0.6, 0.6)),
                                       float(rng.uniform(-0.6, 0.6)), 1e5)
                  for k in range(int(rng.integers(0, 3)))]
        cfg = SchedulerConfig(lam=1.0, risk_cap=0.6,
                              exclusion_radius=float(rng.uniform(0.05, 0.3)))
        exact = schedule(programs, site, horizon, tracks, "exact", cfg)
        greedy = schedule(programs, site, horizon, tracks, "greedy", cfg)
        optimum, feasible = brute_force_optimum(programs, site, horizon,
                                                tracks, cfg)
        if exact.objective != optimum:
            mismatches += 1
        if greedy.objective < exact.objective - 1e-12:
            greedy_losses += 1
        for sched in (exact, greedy):
            for pid, start in sched.starts.items():
                if start not in {s for s, _ in feasible[pid]}:
                    infeasible_uses += 1
    ok = mismatches == 0 and greedy_losses == 0 and infeasible_uses == 0
    report(8, "scheduler oracle", ok,
           f"200 instances: {mismatches} objective mismatches, "
           f"{greedy_losses} greedy < exact, {infeasible_uses} infeasible windows")


def fast_crossing_track(tid, l0, m0, dl, dm, alpha):
    track = RfiTrack(tid, alpha, True,
                     [(float(-k), DirectionLM(l0 - dl * k, m0 - dm * k), 1.0)
                      for k in range(5, 0, -1)])
    classify(track, TrackerConfig(min_points=3, s_fast=1e-4))
    return track


def test_criterion_9_flag_mask_soundness(report):
    site = SiteModel(latitude=-0.5, slot_length=10.0)
    channels = ChannelGrid(f_start=1.419e9, channel_width=2.5e5, n_channels=8)
    program = Program(0, ra=0.0, dec=-0.5, freq_span=(1.419e9, 1.421e9),
                      duration=6, priority=1.0)
    sched = schedule([program], site, 6)
    rng = np.random.default_rng(9)
    exact_ok = True
    for _ in range(20):
        # Ground truth: linear crossing of the (near-)zenith pointing.
        t_cross = float(rng.uniform(5.0, 55.0))
        speed = float(rng.uniform(0.004, 0.02))
        band_lo = channels.f_start + int(rng.integers(0, 6)) * channels.channel_width
        band = (band_lo, band_lo + 2 * channels.channel_width)
        cfg = SchedulerConfig(exclusion_radius=float(rng.uniform(0.03, 0.1)),
                              bands={1e5: band})
        track = fast_crossing_track(0, -speed * t_cross, 0.0, speed, 0.0, 1e5)
        mask = flag_mask([track], sched, site, cfg, channels)
        truth = np.zeros_like(mask.flags)
        for slot in range(6):
            t = slot * site.slot_length
            pointing = target_position((program.ra, program.dec), site, slot)
            pos_l = speed * (t - t_cross)
            dist = np.hypot(pos_l - pointing.l, pointing.m)
            if dist < cfg.exclusion_radius:
                for ch in range(channels.n_channels):
                    lo, hi = channels.span(ch)
                    if band[0] < hi and band[1] > lo:
                        truth[slot, ch] = True
        if not np.array_equal(mask.flags, truth):
            exact_ok = False
    monotone_ok = True
    for _ in range(50):
        track = fast_crossing_track(0, float(rng.uniform(-0.2, 0.2)),
                                    float(rng.uniform(-0.2, 0.2)),
                                    float(rng.uniform(-0.01, 0.01)),
                                    float(rng.uniform(-0.01, 0.01)), 1e5)
        r1, r2 = sorted(rng.uniform(0.02, 0.4, size=2))
        narrow = flag_mask([track], sched, site,
                           SchedulerConfig(exclusion_radius=float(r1)), channels)
        wide = flag_mask([track], sched, site,
                         SchedulerConfig(exclusion_radius=float(r2)), channels)
        if not np.all(wide.flags | ~narrow.flags):
            monotone_ok = False
    ok = exact_ok and monotone_ok
    report(9, "flag-mask soundness", ok,
           "ground-truth equality x20, monotone x50")


def test_criterion_10_determinism(report, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli_main(["run", "--config", str(SCENARIO), "--out", str(out_a)]) == 0
    assert cli_main(["run", "--config", str(SCENARIO), "--out", str(out_b)]) == 0
    files = sorted(p.relative_to(out_a) for p in out_a.rglob("*")
                   if p.is_file() and p.name != "manifest.json")
    diffs = [str(rel) for rel in files
             if not filecmp.cmp(out_a / rel, out_b / rel, shallow=False)]
    ok = bool(files) and not diffs
    report(10, "determinism", ok,
           f"{len(files)} files byte-compared" + (f"; diffs: {diffs}" if diffs else ""))
