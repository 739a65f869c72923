import json

import numpy as np
import pytest

from cyclosky.arraysim import DirectionLM
from cyclosky.tracking import (DROP_AFTER, FAST, SLOW, STATIONARY, UNCLASSIFIED,
                               Detection, MotionFit, RfiTrack, Tracker, TrackerConfig,
                               TrackStats, classify, fit_motion, predict,
                               tracks_from_record, write_frame_log)


def det(t, l, m, alpha=1.25e5, conjugate=True, power=1.0):
    return Detection(t, alpha, conjugate, DirectionLM(l, m), power)


def linear_track(n, l0, m0, dl, dm, dt=1.0, t0=0.0, **kw):
    tr = Tracker(TrackerConfig(**kw)) if kw else Tracker()
    for k in range(n):
        t = t0 + k * dt
        tr.step([det(t, l0 + dl * t, m0 + dm * t)])
    return tr


class TestMotionFit:
    def test_exact_line_recovered(self):
        tr = linear_track(6, 0.1, -0.2, 2e-3, -1e-3)
        track = tr.tracks[0]
        fit = track.model
        assert fit.l0 == pytest.approx(0.1, abs=1e-12)
        assert fit.m0 == pytest.approx(-0.2, abs=1e-12)
        assert fit.dl_dt == pytest.approx(2e-3, abs=1e-12)
        assert fit.dm_dt == pytest.approx(-1e-3, abs=1e-12)
        assert fit.residual_rms < 1e-12

    def test_single_point_fit(self):
        track = RfiTrack(0, 1.0, True, [(3.0, DirectionLM(0.2, 0.3), 1.0)])
        fit = fit_motion(track)
        assert (fit.l0, fit.m0, fit.dl_dt, fit.dm_dt) == (0.2, 0.3, 0.0, 0.0)

    def test_noisy_fit_residual(self):
        rng = np.random.default_rng(7)
        track = RfiTrack(0, 1.0, True, [])
        sigma = 2e-3
        for k in range(50):
            track.history.append((float(k),
                                  DirectionLM(0.1 + sigma * rng.standard_normal(),
                                              0.2 + sigma * rng.standard_normal()),
                                  1.0))
        fit = fit_motion(track)
        assert fit.residual_rms == pytest.approx(sigma, rel=0.3)
        assert abs(fit.dl_dt) < 3 * sigma / 50 ** 0.5


class TestClassify:
    def test_stationary_slow_fast(self):
        cfg = TrackerConfig(min_points=3)
        cases = [(0.0, 0.0, STATIONARY), (1e-4, 0.0, SLOW), (1e-2, 0.0, FAST)]
        for dl, dm, expected in cases:
            track = RfiTrack(0, 1.0, True,
                             [(float(k), DirectionLM(dl * k, dm * k), 1.0)
                              for k in range(4)])
            assert classify(track, cfg) == expected

    def test_too_few_points_unclassified(self):
        cfg = TrackerConfig(min_points=5)
        track = RfiTrack(0, 1.0, True,
                         [(float(k), DirectionLM(0.0, 0.0), 1.0) for k in range(4)])
        assert classify(track, cfg) == UNCLASSIFIED

    def test_fast_threshold_monotone(self):
        # Class never moves back toward "stationary" as speed grows.
        cfg = TrackerConfig(min_points=2)
        order = {STATIONARY: 0, SLOW: 1, FAST: 2}
        prev = -1
        for speed in [0.0, 5e-6, 1e-4, 4e-3, 6e-3, 1e-1]:
            track = RfiTrack(0, 1.0, True,
                             [(float(k), DirectionLM(speed * k, 0.0), 1.0)
                              for k in range(3)])
            rank = order[classify(track, cfg)]
            assert rank >= prev
            prev = rank


class TestPredict:
    def test_unclassified_rejected(self):
        track = RfiTrack(0, 1.0, True, [(0.0, DirectionLM(0.0, 0.0), 1.0)])
        with pytest.raises(ValueError):
            predict(track, 5.0)

    def test_stationary_prediction(self):
        tr = linear_track(6, 0.3, -0.1, 0.0, 0.0)
        pred = predict(tr.tracks[0], 100.0)
        assert pred.direction.l == pytest.approx(0.3, abs=1e-12)
        assert pred.direction.m == pytest.approx(-0.1, abs=1e-12)
        assert not pred.below_horizon

    def test_linear_extrapolation(self):
        tr = linear_track(6, 0.0, 0.0, 2e-3, 1e-3, s_stat=1e-6)
        pred = predict(tr.tracks[0], 20.0)
        assert pred.direction.l == pytest.approx(0.04, abs=1e-9)
        assert pred.direction.m == pytest.approx(0.02, abs=1e-9)

    def test_radius_grows_with_horizon(self):
        rng = np.random.default_rng(3)
        tr = Tracker(TrackerConfig(s_stat=1e-6))
        for k in range(10):
            tr.step([det(float(k), 2e-3 * k + 1e-4 * rng.standard_normal(),
                         1e-4 * rng.standard_normal())])
        track = tr.tracks[0]
        r_near = predict(track, 10.0).radius
        r_far = predict(track, 100.0).radius
        assert r_far > r_near > 0.0

    def test_exact_one_point_fit_radius_zero(self):
        track = RfiTrack(0, 1.25e5, True, [(0.0, DirectionLM(0.5, 0.0), 1.0)],
                         FAST, MotionFit(0.5, 0.0, 1e-5, 0.0, 0.0),
                         TrackStats(0.0, 0.0, 0.0, 0.0))
        for t in (1.0, 4.0, 600.0):
            assert predict(track, t).radius == 0.0

    def test_horizon_exit_flagged(self):
        tr = linear_track(6, 0.9, 0.0, 0.02, 0.0, s_stat=1e-6, gate_min=0.05)
        pred = predict(tr.tracks[0], 20.0)
        assert pred.below_horizon
        assert pred.direction.l == pytest.approx(1.0, abs=1e-9)


class TestAssociate:
    def test_spawn_then_extend(self):
        tr = Tracker()
        tr.step([det(0.0, 0.1, 0.1)])
        tr.step([det(1.0, 0.101, 0.1)])
        assert len(tr.tracks) == 1
        assert tr.tracks[0].history[-1][0] == 1.0

    def test_alpha_separates_tracks(self):
        tr = Tracker(TrackerConfig(alpha_tol=10.0))
        tr.step([det(0.0, 0.1, 0.1, alpha=1e5), det(0.0, 0.1, 0.1, alpha=2e5)])
        tr.step([det(1.0, 0.1, 0.1, alpha=1e5), det(1.0, 0.1, 0.1, alpha=2e5)])
        assert sorted(len(t.history) for t in tr.tracks) == [2, 2]

    def test_conjugate_flag_separates_tracks(self):
        tr = Tracker()
        tr.step([det(0.0, 0.1, 0.1, conjugate=True),
                 det(0.0, 0.1, 0.1, conjugate=False)])
        assert len(tr.tracks) == 2

    def test_far_detection_spawns_new_track(self):
        tr = Tracker(TrackerConfig(gate_min=0.01))
        tr.step([det(0.0, 0.1, 0.1)])
        tr.step([det(1.0, 0.5, 0.5)])
        assert len(tr.tracks) == 2

    def test_missed_track_retired(self):
        tr = Tracker()
        tr.step([det(0.0, 0.1, 0.1)])
        for k in range(1, DROP_AFTER + 1):
            tr.step([], frame_time=float(k))
        assert [t.misses for t in tr.tracks] == [DROP_AFTER]
        tr.step([], frame_time=DROP_AFTER + 1.0)
        assert tr.tracks == []

    def test_mixed_frame_times_rejected(self):
        tr = Tracker()
        with pytest.raises(ValueError):
            tr.step([det(0.0, 0.1, 0.1), det(1.0, 0.1, 0.1)])

    def test_empty_frame_needs_time(self):
        tr = Tracker()
        with pytest.raises(ValueError):
            tr.step([])

    def test_nearest_track_wins(self):
        tr = Tracker(TrackerConfig(gate_min=0.2))
        tr.step([det(0.0, 0.0, 0.0), det(0.0, 0.1, 0.0)])
        tr.step([det(1.0, 0.02, 0.0)])
        # Both tracks are inside the gate; the nearer one gets the detection.
        near = next(t for t in tr.tracks if t.id == 0)
        far = next(t for t in tr.tracks if t.id == 1)
        assert len(near.history) == 2
        assert len(far.history) == 1

    def test_deterministic(self):
        def run():
            rng = np.random.default_rng(9)
            tr = Tracker(TrackerConfig(s_stat=1e-6))
            for k in range(12):
                dets = [det(float(k), 1e-3 * k + 5e-4 * rng.standard_normal(),
                            0.2 + 5e-4 * rng.standard_normal()),
                        det(float(k), -0.4, -0.4, alpha=3e5)]
                tr.step(dets)
            return tr.frame_record(11.0)

        assert run() == run()


class TestTrackingMonteCarlo:
    def test_single_moving_source_one_track(self):
        sigma = 2e-3
        ok = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            tr = Tracker(TrackerConfig(s_stat=1e-6, gate_min=6 * sigma))
            for k in range(20):
                tr.step([det(float(k),
                             -0.3 + 3e-3 * k + sigma * rng.standard_normal(),
                             0.1 + sigma * rng.standard_normal())])
            if len(tr.tracks) == 1 and len(tr.tracks[0].history) == 20:
                track = tr.tracks[0]
                if track.track_class in (SLOW, FAST):
                    pred = predict(track, 25.0)
                    truth_l = -0.3 + 3e-3 * 25.0
                    if np.hypot(pred.direction.l - truth_l,
                                pred.direction.m - 0.1) < 3 * pred.radius + sigma:
                        ok += 1
        assert ok >= 95


class TestFrameLog:
    def test_roundtrip_and_rebuild(self, tmp_path):
        tr = linear_track(8, 0.1, 0.2, 2e-3, -1e-3, s_stat=1e-6)
        record = tr.frame_record(7.0)
        path = tmp_path / "frame.json"
        write_frame_log(record, path)
        back = json.loads(path.read_text())
        assert back == record
        rebuilt = tracks_from_record(back)
        assert len(rebuilt) == 1
        p_orig = predict(tr.tracks[0], 15.0)
        p_back = predict(rebuilt[0], 15.0)
        assert p_back.direction.l == pytest.approx(p_orig.direction.l, abs=1e-12)
        assert p_back.radius == pytest.approx(p_orig.radius, abs=1e-12)

    def test_non_finite_log_writes_no_file(self, tmp_path):
        path = tmp_path / "frame.json"
        with pytest.raises(ValueError, match="JSON compliant"):
            write_frame_log({"time": float("nan"), "tracks": []}, path)
        assert not path.exists()

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    @pytest.mark.parametrize("field", ["power", "dl_dt", "position"])
    def test_rebuild_rejects_non_finite_numbers(self, literal, field):
        rec = linear_track(8, 0.1, 0.2, 2e-3, -1e-3).frame_record(7.0)["tracks"][0]
        holder, key = {"power": (rec, "power"), "dl_dt": (rec["model"], "dl_dt"),
                       "position": (rec["position"], 0)}[field]
        holder[key] = "bad"
        text = json.dumps({"time": 7.0, "tracks": [rec]}).replace('"bad"', literal)
        with pytest.raises(ValueError, match=f"track {rec['id']} holds a non-finite"):
            tracks_from_record(json.loads(text))
