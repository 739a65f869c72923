import json
from math import exp, pi

import numpy as np
import pytest

from cyclosky.arraysim import DirectionLM
from cyclosky.artifacts import flag_mask_csv, schedule_json
from cyclosky.scheduling import (OMEGA_SIDEREAL, ChannelGrid, Program,
                                 Schedule, SchedulerConfig, SiteModel,
                                 corruption_risk, flag_mask, schedule,
                                 target_position)
from cyclosky.tracking import (FAST, MotionFit, Prediction, RfiTrack,
                               TrackerConfig, TrackStats, classify)


def make_track(tid, samples, alpha=1.25e5, s_fast=5e-3):
    """Classified track from (time, l, m) samples."""
    track = RfiTrack(tid, alpha, True,
                     [(t, DirectionLM(l, m), 1.0) for t, l, m in samples])
    classify(track, TrackerConfig(min_points=3, s_fast=s_fast))
    return track


def stationary_track(tid, l, m, alpha=1.25e5):
    return make_track(tid, [(float(-k), l, m) for k in range(5, 0, -1)],
                      alpha=alpha)


class TestTargetPosition:
    def test_zenith(self):
        site = SiteModel(latitude=-0.5, slot_length=600.0, lst0=1.2)
        pos = target_position((1.2, -0.5), site, 0)
        assert pos.l == pytest.approx(0.0, abs=1e-12)
        assert pos.m == pytest.approx(0.0, abs=1e-12)

    def test_antipode_is_set(self):
        site = SiteModel(latitude=0.0, slot_length=600.0, lst0=0.0)
        assert target_position((pi, 0.0), site, 0) is None

    def test_sidereal_day_periodicity(self):
        site = SiteModel(latitude=-0.3, slot_length=2 * pi / OMEGA_SIDEREAL,
                         lst0=0.7)
        a = target_position((0.3, 0.1), site, 0)
        b = target_position((0.3, 0.1), site, 1)
        assert a.l == pytest.approx(b.l, abs=1e-9)
        assert a.m == pytest.approx(b.m, abs=1e-9)

    def test_pole_target_fixed(self):
        site = SiteModel(latitude=-0.8, slot_length=600.0)
        south_pole_dec = -pi / 2
        a = target_position((0.0, south_pole_dec), site, 0)
        b = target_position((0.0, south_pole_dec), site, 7)
        assert a.l == pytest.approx(b.l, abs=1e-12)
        assert a.m == pytest.approx(b.m, abs=1e-12)


class TestCorruptionRisk:
    cfg = SchedulerConfig(exclusion_radius=0.05)

    def pred(self, l, m, radius=0.0, below=False):
        return Prediction(DirectionLM(l, m), radius, below_horizon=below)

    def test_no_tracks_zero(self):
        assert corruption_risk(DirectionLM(0, 0), (1e9, 2e9), [], self.cfg) == 0.0

    def test_inside_core_is_one(self):
        preds = [(self.pred(0.02, 0.0), 1e5)]
        assert corruption_risk(DirectionLM(0, 0), (1e9, 2e9), preds, self.cfg) == 1.0

    def test_gaussian_falloff(self):
        preds = [(self.pred(0.15, 0.0), 1e5)]
        risk = corruption_risk(DirectionLM(0, 0), (1e9, 2e9), preds, self.cfg)
        assert risk == pytest.approx(exp(-0.15 ** 2 / (2 * 0.05 ** 2)), rel=1e-12)

    def test_uncertainty_radius_widens_core(self):
        preds = [(self.pred(0.08, 0.0, radius=0.04), 1e5)]
        assert corruption_risk(DirectionLM(0, 0), (1e9, 2e9), preds, self.cfg) == 1.0

    def test_band_gating(self):
        cfg = SchedulerConfig(exclusion_radius=0.05,
                              bands={1e5: (1.0e9, 1.1e9)})
        preds = [(self.pred(0.0, 0.0), 1e5)]
        assert corruption_risk(DirectionLM(0, 0), (1.2e9, 1.3e9), preds, cfg) == 0.0
        assert corruption_risk(DirectionLM(0, 0), (1.05e9, 1.2e9), preds, cfg) == 1.0

    def test_band_for_takes_nearest_alpha(self):
        cfg = SchedulerConfig(bands={125_000.0: (1419.0e6, 1419.5e6),
                                     125_400.0: (1420.5e6, 1421.0e6)},
                              band_alpha_tol=1e6 / 2048)
        assert cfg.band_for(125_390.0) == (1420.5e6, 1421.0e6)
        assert cfg.band_for(125_010.0) == (1419.0e6, 1419.5e6)
        assert cfg.band_for(125_200.0) == (1419.0e6, 1419.5e6)  # tie: lower alpha
        assert cfg.band_for(126_000.0) == (-np.inf, np.inf)

    def test_inverted_band_rejected(self):
        with pytest.raises(ValueError, match="alpha 125000.0"):
            SchedulerConfig(bands={125_000.0: (1421.0e6, 1419.0e6)})
        with pytest.raises(ValueError):
            SchedulerConfig(bands={125_000.0: (1420.0e6, 1420.0e6)})

    def test_set_track_ignored(self):
        preds = [(self.pred(0.0, 0.0, below=True), 1e5)]
        assert corruption_risk(DirectionLM(0, 0), (1e9, 2e9), preds, self.cfg) == 0.0

    def test_two_tracks_combine(self):
        preds = [(self.pred(0.15, 0.0), 1e5), (self.pred(-0.15, 0.0), 2e5)]
        p = exp(-0.15 ** 2 / (2 * 0.05 ** 2))
        risk = corruption_risk(DirectionLM(0, 0), (1e9, 2e9), preds, self.cfg)
        assert risk == pytest.approx(1 - (1 - p) ** 2, rel=1e-12)


class TestSchedule:
    site = SiteModel(latitude=-0.5, slot_length=3600.0)

    def zenith_program(self, pid=0, duration=1, priority=1.0):
        return Program(pid, ra=0.0, dec=-0.5, freq_span=(1.419e9, 1.421e9),
                       duration=duration, priority=priority)

    def test_single_program_takes_first_clear_slot(self):
        sched = schedule([self.zenith_program()], self.site, 6)
        assert sched.starts == {0: 0}
        assert sched.assignments[0] == 0
        assert sched.objective == pytest.approx(-1.0)
        assert sched.unscheduled == []

    def test_stationary_rfi_pushes_program_later(self):
        # RFI parked on the slot-0 pointing; the target drifts clear by slot 1.
        track = stationary_track(0, 0.0, 0.0)
        sched = schedule([self.zenith_program()], self.site, 6, tracks=[track],
                         cfg=SchedulerConfig(exclusion_radius=0.05, risk_cap=0.5))
        assert sched.starts[0] >= 1
        assert max(sched.risk) <= 0.5

    def test_greedy_priority_order(self):
        # One clear slot at the start; the high-priority program gets it.
        p_low = self.zenith_program(pid=0, priority=1.0)
        p_high = self.zenith_program(pid=1, priority=5.0)
        sched = schedule([p_low, p_high], self.site, 2, mode="greedy")
        assert sched.starts[1] == 0
        assert sched.starts[0] == 1

    def test_exact_beats_greedy_on_packing(self):
        # Greedy spends both slots on the single priority-3 program; exact
        # prefers the two priority-2 programs.
        progs = [Program(0, 0.0, -0.5, (1e9, 2e9), duration=2, priority=3.0),
                 Program(1, 0.0, -0.5, (1e9, 2e9), duration=1, priority=2.0),
                 Program(2, 0.0, -0.5, (1e9, 2e9), duration=1, priority=2.0)]
        greedy = schedule(progs, self.site, 2, mode="greedy")
        exact = schedule(progs, self.site, 2, mode="exact")
        assert greedy.starts.keys() == {0}
        assert exact.starts.keys() == {1, 2}
        assert exact.objective < greedy.objective

    def test_exact_matches_greedy_single_program(self):
        p = self.zenith_program(duration=2)
        greedy = schedule([p], self.site, 8, mode="greedy")
        exact = schedule([p], self.site, 8, mode="exact")
        assert greedy.starts == exact.starts
        assert greedy.objective == pytest.approx(exact.objective)

    def test_exact_limits_enforced(self):
        p = self.zenith_program()
        with pytest.raises(ValueError):
            schedule([p], self.site, 13, mode="exact")
        progs = [self.zenith_program(pid=k) for k in range(7)]
        with pytest.raises(ValueError):
            schedule(progs, self.site, 8, mode="exact")

    def test_exact_one_point_mover_keeps_risks_finite(self, tmp_path):
        # Fitted from one point, so t_first == t_last and residual 0: the
        # prediction radius must stay 0 at every horizon, not turn NaN.
        track = RfiTrack(0, 1.25e5, True, [(0.0, DirectionLM(0.5, 0.0), 1.0)],
                         FAST, MotionFit(0.5, 0.0, 1e-5, 0.0, 0.0),
                         TrackStats(0.0, 0.0, 0.0, 0.0))
        site = SiteModel(latitude=-0.5, slot_length=600.0)
        program = Program(0, ra=0.0, dec=-pi / 2, freq_span=(1.419e9, 1.421e9),
                          duration=12, priority=1.0)
        sched = schedule([program], site, 12, tracks=[track])
        assert sched.assignments == [0] * 12
        assert all(np.isfinite(sched.risk))
        path = tmp_path / "schedule.json"
        path.write_bytes(schedule_json(sched))

        def reject(name):
            raise ValueError(f"schedule.json holds {name}")

        doc = json.loads(path.read_text(), parse_constant=reject)
        assert [s["risk"] for s in doc["slots"]] == sched.risk

    @pytest.mark.parametrize("mode", ["greedy", "exact"])
    def test_horizon_too_short_diagnostic(self, mode):
        p = self.zenith_program(duration=5)
        assert schedule([p], self.site, 3, mode=mode) == Schedule(
            [None] * 3, [None] * 3, [0.0] * 3, 0.0, 0.0, {}, [0],
            ["horizon is shorter than every program duration; nothing scheduled"])

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            schedule([], self.site, 0)
        with pytest.raises(ValueError):
            schedule([], self.site, 4, mode="best")
        with pytest.raises(ValueError):
            Program(0, 0.0, 0.0, (2e9, 1e9), 1, 1.0)
        with pytest.raises(ValueError):
            Program(0, 0.0, 0.0, (1e9, 2e9), 1, 0.0)

    def test_repeated_program_id_rejected(self):
        programs = [self.zenith_program(pid=1, duration=2),
                    self.zenith_program(pid=1, duration=2)]
        for mode in ("greedy", "exact"):
            with pytest.raises(ValueError, match=r"repeated: \[1\]"):
                schedule(programs, self.site, 8, mode=mode)


class TestFlagMask:
    site = SiteModel(latitude=-0.5, slot_length=10.0)
    channels = ChannelGrid(f_start=1.419e9, channel_width=2.5e5, n_channels=8)

    def fast_track(self):
        # Crosses the zenith pointing at t = 0 with speed 0.01 /s.
        return make_track(0, [(float(-k), -0.01 * k, 0.0)
                              for k in range(5, 0, -1)], s_fast=1e-3)

    def setup_sched(self):
        program = Program(0, ra=0.0, dec=-0.5, freq_span=(1.419e9, 1.421e9),
                          duration=3, priority=1.0)
        sched = schedule([program], self.site, 3)
        return program, sched

    def test_fast_track_flags_band_channels(self):
        program, sched = self.setup_sched()
        cfg = SchedulerConfig(exclusion_radius=0.05,
                              bands={1.25e5: (1.4195e9, 1.42e9)})
        mask = flag_mask([self.fast_track()], sched, self.site, cfg,
                         self.channels)
        # The track sits on the pointing only at slot 0; band covers ch 2-3.
        assert mask.flags[0].tolist() == [False, False, True, True,
                                          False, False, False, False]
        assert not mask.flags[1:].any()

    def test_slow_tracks_not_flagged(self):
        program, sched = self.setup_sched()
        cfg = SchedulerConfig(exclusion_radius=0.05)
        slow = stationary_track(0, 0.0, 0.0)
        mask = flag_mask([slow], sched, self.site, cfg, self.channels)
        assert not mask.flags.any()

    def test_idle_slots_not_flagged(self):
        program = Program(0, ra=0.0, dec=-0.5, freq_span=(1.419e9, 1.421e9),
                          duration=1, priority=1.0)
        sched = schedule([program], self.site, 3)
        cfg = SchedulerConfig(exclusion_radius=0.05)
        mask = flag_mask([self.fast_track()], sched, self.site, cfg,
                         self.channels)
        for slot in range(3):
            if sched.assignments[slot] is None:
                assert not mask.flags[slot].any()

    def test_monotone_in_exclusion_radius(self):
        program, sched = self.setup_sched()
        track = self.fast_track()
        narrow = flag_mask([track], sched, self.site,
                           SchedulerConfig(exclusion_radius=0.02), self.channels)
        wide = flag_mask([track], sched, self.site,
                         SchedulerConfig(exclusion_radius=0.2), self.channels)
        assert np.all(wide.flags | ~narrow.flags)


class TestSerialization:
    site = SiteModel(latitude=-0.5, slot_length=3600.0)

    def test_schedule_json_roundtrip(self, tmp_path):
        progs = [Program(0, 0.0, -0.5, (1.419e9, 1.421e9), 2, 1.0),
                 Program(1, 0.4, -0.4, (1.419e9, 1.421e9), 1, 2.0)]
        sched = schedule(progs, self.site, 6)
        path = tmp_path / "schedule.json"
        path.write_bytes(schedule_json(sched))
        doc = json.loads(path.read_text())
        slots = doc["slots"]
        assert [s["slot"] for s in slots] == list(range(6))
        assert [s["program"] for s in slots] == sched.assignments
        assert [s["pointing"] for s in slots] == [
            None if pos is None else [pos.l, pos.m] for pos in sched.pointings]
        assert {int(k): v for k, v in doc["starts"].items()} == sched.starts
        assert doc["objective"] == sched.objective
        assert [s["risk"] for s in slots] == sched.risk

    def test_non_finite_schedule_writes_no_file(self, tmp_path):
        sched = Schedule([None], [None], [float("nan")], float("nan"), 0.0, {}, [])
        path = tmp_path / "schedule.json"
        with pytest.raises(ValueError, match="JSON compliant"):
            path.write_bytes(schedule_json(sched))
        assert not path.exists()

    def test_flag_mask_csv_roundtrip(self, tmp_path):
        flags = np.zeros((4, 6), dtype=bool)
        flags[1, 2] = flags[3, 5] = True
        from cyclosky.scheduling import FlagMask
        mask = FlagMask(flags, 2.5e5, 1.419e9, 600.0)
        path = tmp_path / "flags.csv"
        path.write_bytes(flag_mask_csv(mask))
        lines = path.read_text().splitlines()
        assert lines[0] == ("# slot_length_s=600 channel_width_hz=250000"
                            " f_start_hz=1419000000")
        assert np.array_equal(np.loadtxt(lines[1:], delimiter=",", dtype=int),
                              mask.flags)
