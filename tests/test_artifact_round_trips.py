"""Frame logs, schedule.json and flagmask.csv: what json and numpy read back
is what was written."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cyclosky.arraysim import DirectionLM
from cyclosky.artifacts import flag_mask_csv, schedule_json
from cyclosky.scheduling import FlagMask, Schedule
from cyclosky.tracking import (FAST, SLOW, STATIONARY, UNCLASSIFIED, MotionFit,
                               RfiTrack, Tracker, TrackStats, tracks_from_record,
                               write_frame_log)

FLOAT = st.floats(width=64, allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(1e-300, 1e300)
COSINE = st.floats(-0.7, 0.7)


def written(write, obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out"
        write(obj, path)
        return path.read_bytes()


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
        back = json.loads(written(write_frame_log, record))
        assert back == record
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
    """A Schedule with any pointings, as schedule_json takes it."""
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
        doc = json.loads(schedule_json(sched))
        slots = doc["slots"]
        assert [s["slot"] for s in slots] == list(range(len(sched.assignments)))
        assert [s["program"] for s in slots] == sched.assignments
        assert [None if s["pointing"] is None else DirectionLM(*s["pointing"])
                for s in slots] == sched.pointings
        assert [s["risk"] for s in slots] == sched.risk
        assert {int(k): v for k, v in doc["starts"].items()} == sched.starts
        assert (doc["total_risk"], doc["objective"], doc["unscheduled"],
                doc["diagnostics"]) == (sched.total_risk, sched.objective,
                                        sched.unscheduled, sched.diagnostics)


class TestFlagMaskCsv:
    @settings(max_examples=60, deadline=None)
    @given(flags=st.tuples(st.integers(1, 6), st.integers(1, 9)).flatmap(
               lambda shape: arrays(bool, shape)),
           channel_width=POSITIVE, f_start=FLOAT, slot_length=POSITIVE)
    def test_round_trip(self, flags, channel_width, f_start, slot_length):
        mask = FlagMask(flags, channel_width, f_start, slot_length)
        header, *rows = flag_mask_csv(mask).decode().splitlines()
        meta = dict(kv.split("=") for kv in header.removeprefix("# ").split())
        assert {k: float(v) for k, v in meta.items()} == {
            "slot_length_s": slot_length, "channel_width_hz": channel_width,
            "f_start_hz": f_start}
        assert np.array_equal(np.loadtxt(rows, delimiter=",", dtype=int, ndmin=2),
                              flags)
