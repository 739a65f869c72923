"""Frame logs, schedule.json and flagmask.csv: what is read back writes the
same bytes again."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cyclosky.arraysim import DirectionLM
from cyclosky.scheduling import (FlagMask, Schedule, read_flag_mask_csv,
                                 read_schedule_json, write_flag_mask_csv,
                                 write_schedule_json)
from cyclosky.tracking import (FAST, SLOW, STATIONARY, UNCLASSIFIED, MotionFit,
                               RfiTrack, Tracker, TrackStats, read_frame_log,
                               tracks_from_record, write_frame_log)

FLOAT = st.floats(width=64, allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(1e-300, 1e300)
COSINE = st.floats(-0.7, 0.7)


def write_read_write(write, read, obj):
    """Bytes written, the object read back, and the bytes it writes."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first", Path(tmp) / "second"
        write(obj, first)
        back = read(first)
        write(back, second)
        return first.read_bytes(), back, second.read_bytes()


@st.composite
def tracks(draw):
    ids = draw(st.lists(st.integers(0, 10 ** 6), max_size=5, unique=True))
    out = []
    for tid in ids:
        history = [(draw(FLOAT), DirectionLM(draw(COSINE), draw(COSINE)), draw(FLOAT))
                   for _ in range(draw(st.integers(1, 4)))]
        model = draw(st.none() | st.builds(MotionFit, FLOAT, FLOAT, FLOAT, FLOAT, FLOAT))
        stats = draw(st.none() | st.builds(TrackStats, FLOAT, FLOAT, FLOAT, FLOAT))
        out.append(RfiTrack(tid, draw(FLOAT), draw(st.booleans()), history,
                            draw(st.sampled_from([UNCLASSIFIED, STATIONARY, SLOW, FAST])),
                            model, stats))
    return out


def frame_record(live, time):
    tracker = Tracker()
    tracker.tracks = live
    return tracker.frame_record(time)


class TestFrameLog:
    @settings(max_examples=60, deadline=None)
    @given(live=tracks(), time=FLOAT)
    def test_round_trip(self, live, time):
        record = frame_record(live, time)
        first, back, second = write_read_write(write_frame_log, read_frame_log, record)
        assert back == record
        assert second == first
        # A classified track needs its model and stats to be predicted from.
        bad = [rec for rec in record["tracks"] if rec["class"] != UNCLASSIFIED
               and None in (rec["model"], rec["stats"])]
        if bad:
            with pytest.raises(ValueError, match=f"track {bad[0]['id']} is "):
                tracks_from_record(back)
            return
        # A rebuilt track keeps everything but its history, which is one point.
        rebuilt = frame_record(tracks_from_record(back), time)
        assert rebuilt == {"time": time, "tracks": [dict(rec, n_points=1)
                                                    for rec in record["tracks"]]}


@st.composite
def planned(draw):
    """A Schedule with any pointings, as write_schedule_json takes it."""
    ids = draw(st.lists(st.integers(0, 99), min_size=1, max_size=4, unique=True))
    horizon = draw(st.integers(1, 8))
    slots = st.lists(st.none() | st.sampled_from(ids), min_size=horizon,
                     max_size=horizon)
    pointings = st.lists(st.none() | st.builds(DirectionLM, COSINE, COSINE),
                         min_size=horizon, max_size=horizon)
    return Schedule(
        draw(slots), draw(pointings),
        draw(st.lists(FLOAT, min_size=horizon, max_size=horizon)),
        draw(FLOAT), draw(FLOAT),
        draw(st.dictionaries(st.sampled_from(ids), st.integers(0, horizon - 1))),
        draw(st.lists(st.sampled_from(ids), unique=True)),
        draw(st.lists(st.text(max_size=20), max_size=2)))


class TestScheduleJson:
    @settings(max_examples=60, deadline=None)
    @given(sched=planned())
    def test_round_trip(self, sched):
        first, back, second = write_read_write(write_schedule_json,
                                               read_schedule_json, sched)
        assert back == sched
        assert second == first


class TestFlagMaskCsv:
    @settings(max_examples=60, deadline=None)
    @given(flags=st.tuples(st.integers(1, 6), st.integers(1, 9)).flatmap(
               lambda shape: arrays(bool, shape)),
           channel_width=POSITIVE, f_start=FLOAT, slot_length=POSITIVE)
    def test_round_trip(self, flags, channel_width, f_start, slot_length):
        mask = FlagMask(flags, channel_width, f_start, slot_length)
        first, back, second = write_read_write(write_flag_mask_csv,
                                               read_flag_mask_csv, mask)
        assert np.array_equal(back.flags, flags)
        assert (back.channel_width, back.f_start, back.slot_length) == (
            channel_width, f_start, slot_length)
        assert second == first
