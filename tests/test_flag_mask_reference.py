"""The all-channel flag mask against the per-channel one it replaced.

`reference_risk` and `reference_flag_mask` are the former bodies of
`corruption_risk` (a track without band overlap is skipped) and `flag_mask`
(one risk call per channel, the pointing recomputed from the program). The
mask must equal the reference exactly, and the risk over arrays of band
edges must equal the risk of each band alone.
"""

from math import acos, exp, pi, tan

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclosky.arraysim import DirectionLM
from cyclosky.scheduling import (OMEGA_SIDEREAL, ChannelGrid, Program,
                                 SchedulerConfig, SiteModel, corruption_risk,
                                 flag_mask, schedule, target_position)
from cyclosky.tracking import (FAST, MotionFit, Prediction, RfiTrack,
                               TrackStats, predict)

LATITUDE = -0.5
F_START = 1.419e9
WIDTH = 2.5e5


def reference_risk(pointing, freq_span, predictions, cfg):
    clear = 1.0
    excl = cfg.exclusion_radius
    for pred, alpha in predictions:
        if pred.below_horizon:
            continue
        band = cfg.band_for(alpha)
        if not (band[0] < freq_span[1] and band[1] > freq_span[0]):
            continue
        effective = pointing.distance(pred.direction) - pred.radius
        if effective < excl:
            per = 1.0
        else:
            per = exp(-effective ** 2 / (2.0 * excl ** 2))
        clear *= 1.0 - per
    return 1.0 - clear


def reference_flag_mask(tracks, sched, site, programs, cfg, channels):
    by_id = {p.id: p for p in programs}
    n_slots = len(sched.assignments)
    flags = np.zeros((n_slots, channels.n_channels), dtype=bool)
    fast = [tr for tr in tracks if tr.track_class == FAST]
    for slot, pid in enumerate(sched.assignments):
        if pid is None:
            continue
        program = by_id[pid]
        pointing = target_position((program.ra, program.dec), site, slot)
        if pointing is None:
            continue
        t = slot * site.slot_length
        for tr in fast:
            this_track = [(predict(tr, t), tr.alpha)]
            for ch in range(channels.n_channels):
                if reference_risk(pointing, channels.span(ch), this_track, cfg) == 1.0:
                    flags[slot, ch] = True
    return flags


def band_edge(n_channels):
    """A frequency on, between or just outside the channel edges."""
    return st.one_of(st.integers(-1, n_channels + 1).map(float),
                     st.floats(-1.0, n_channels + 1.0)).map(
        lambda ch: F_START + ch * WIDTH)


@st.composite
def bands(draw, n_channels):
    lo, hi = sorted(draw(st.lists(band_edge(n_channels), min_size=2, max_size=2,
                                  unique=True)))
    return lo, hi


@st.composite
def setting_program(draw, pid, site, horizon):
    """A program whose target sets between slot 0 and the horizon's end."""
    dec = draw(st.floats(-1.0, 0.3))
    ha_set = acos(-tan(dec) * tan(LATITUDE))
    slot_set = draw(st.floats(0.5, horizon - 0.5))
    ra = (site.lst0 + slot_set * site.slot_length * OMEGA_SIDEREAL - ha_set) % (2 * pi)
    return Program(pid, ra, dec, (F_START, F_START + 64 * WIDTH),
                   draw(st.integers(1, 3)), draw(st.floats(0.5, 3.0)))


@st.composite
def fast_track(draw, tid, site, aim):
    """A fast mover whose prediction passes near `aim` at its slot."""
    slot, target = aim
    t = slot * site.slot_length
    dl, dm = (draw(st.floats(-2e-4, 2e-4)) for _ in range(2))
    off_l, off_m = (draw(st.floats(-0.15, 0.15)) for _ in range(2))
    model = MotionFit(target.l - dl * t + off_l, target.m - dm * t + off_m, dl, dm,
                      draw(st.floats(0.0, 0.02)))
    stats = TrackStats(-5 * site.slot_length, 0.0, 0.0, 0.0)
    alpha = 1e5 * draw(st.integers(1, 3))
    return RfiTrack(tid, alpha, True, [(0.0, DirectionLM(0.0, 0.0), 1.0)], FAST,
                    model, stats)


@st.composite
def scenes(draw):
    site = SiteModel(LATITUDE, draw(st.floats(300.0, 3600.0)),
                     draw(st.floats(0.0, 2 * pi)))
    horizon = draw(st.integers(2, 12))
    programs = [draw(setting_program(pid, site, horizon))
                for pid in range(draw(st.integers(1, 3)))]
    sched = schedule(programs, site, horizon, mode=draw(st.sampled_from(
        ["greedy", "exact"])))
    by_id = {p.id: p for p in programs}
    aims = [(slot, target_position((by_id[pid].ra, by_id[pid].dec), site, slot))
            for slot, pid in enumerate(sched.assignments) if pid is not None]
    aims = aims or [(0, DirectionLM(0.0, 0.0))]
    tracks = [draw(fast_track(tid, site, draw(st.sampled_from(aims))))
              for tid in range(draw(st.integers(1, 3)))]
    n_channels = draw(st.integers(1, 64))
    cfg = SchedulerConfig(
        exclusion_radius=draw(st.floats(0.02, 0.3)),
        bands=draw(st.dictionaries(st.sampled_from([1e5, 2e5, 3e5]),
                                   bands(n_channels))))
    return tracks, sched, site, programs, cfg, ChannelGrid(F_START, WIDTH, n_channels)


@settings(max_examples=300, deadline=None)
@given(scene=scenes())
def test_flag_mask_matches_per_channel_reference(scene):
    tracks, sched, site, programs, cfg, channels = scene
    mask = flag_mask(tracks, sched, site, cfg, channels)
    expected = reference_flag_mask(tracks, sched, site, programs, cfg, channels)
    assert np.array_equal(mask.flags, expected)


def predictions():
    direction = st.builds(DirectionLM, st.floats(-0.7, 0.7), st.floats(-0.7, 0.7))
    prediction = st.builds(Prediction, direction, st.floats(0.0, 0.2),
                           st.booleans())
    return st.lists(st.tuples(prediction, st.sampled_from([1e5, 2e5, 3e5])),
                    max_size=4)


@settings(max_examples=100, deadline=None)
@given(pointing=st.builds(DirectionLM, st.floats(-0.7, 0.7), st.floats(-0.7, 0.7)),
       preds=predictions(), data=st.data())
def test_risk_over_band_arrays_is_elementwise(pointing, preds, data):
    n = data.draw(st.integers(1, 16))
    spans = data.draw(st.lists(bands(n), min_size=n, max_size=n))
    cfg = SchedulerConfig(exclusion_radius=data.draw(st.floats(0.02, 0.3)),
                          bands=data.draw(st.dictionaries(
                              st.sampled_from([1e5, 2e5, 3e5]), bands(n))))
    lo, hi = np.array(spans).T
    risks = np.broadcast_to(corruption_risk(pointing, (lo, hi), preds, cfg), n)
    for i, span in enumerate(spans):
        assert risks[i] == corruption_risk(pointing, span, preds, cfg)
        assert risks[i] == reference_risk(pointing, span, preds, cfg)
