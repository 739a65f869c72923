"""Frame-to-frame association of cyclic detections into RFI tracks.

Tracks are keyed by cyclic frequency first and position second. Motion is
modelled as a degree-1 polynomial in (l, m) vs time, which is enough to
separate the stationary / slow / fast classes and to extrapolate.
"""

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import artifacts
from .arraysim import DirectionLM

STATIONARY = "stationary"
SLOW = "slow"
FAST = "fast"
UNCLASSIFIED = "unclassified"

# A classified track's gate is max(GATE_SIGMA * prediction radius, gate_min)
# around its prediction; a track that misses more than DROP_AFTER frames in
# a row is retired.
GATE_SIGMA = 3.0
DROP_AFTER = 5


@dataclass
class TrackerConfig:
    s_stat: float = 1e-5      # below: stationary, in /s
    s_fast: float = 5e-3      # above: fast
    gate_min: float = 0.01
    alpha_tol: float = 1.0    # Hz; typically one alpha-grid step
    min_points: int = 5


@dataclass
class Detection:
    time: float
    alpha: float
    conjugate: bool
    direction: DirectionLM
    power: float


@dataclass
class MotionFit:
    """l(t) = l0 + dl_dt * t, ditto for m; residual_rms over both axes."""

    l0: float
    m0: float
    dl_dt: float
    dm_dt: float
    residual_rms: float


@dataclass
class TrackStats:
    t_first: float
    t_last: float
    mean_l: float
    mean_m: float


@dataclass
class Prediction:
    direction: DirectionLM
    radius: float
    below_horizon: bool = False


@dataclass
class RfiTrack:
    id: int
    alpha: float
    conjugate: bool
    history: list = field(default_factory=list)  # (time, DirectionLM, power)
    track_class: str = UNCLASSIFIED
    model: MotionFit = None
    stats: TrackStats = None
    misses: int = 0

    def speed(self) -> float:
        if self.model is None:
            return 0.0
        return float(np.hypot(self.model.dl_dt, self.model.dm_dt))


def fit_motion(track: RfiTrack) -> MotionFit:
    t = np.array([h[0] for h in track.history])
    l = np.array([h[1].l for h in track.history])
    m = np.array([h[1].m for h in track.history])
    track.stats = TrackStats(float(t[0]), float(t[-1]), float(l.mean()), float(m.mean()))
    if t.size < 2 or t[-1] == t[0]:
        return MotionFit(float(l[-1]), float(m[-1]), 0.0, 0.0, 0.0)
    cl = np.polyfit(t, l, 1)
    cm = np.polyfit(t, m, 1)
    res = np.concatenate([l - np.polyval(cl, t), m - np.polyval(cm, t)])
    return MotionFit(float(cl[1]), float(cm[1]), float(cl[0]), float(cm[0]),
                     float(np.sqrt(np.mean(res ** 2))))


def classify(track: RfiTrack, cfg: TrackerConfig) -> str:
    """Linear-fit angular speed mapped to the three motion classes."""
    track.model = fit_motion(track)
    if len(track.history) < cfg.min_points:
        track.track_class = UNCLASSIFIED
    else:
        s = track.speed()
        if s < cfg.s_stat:
            track.track_class = STATIONARY
        elif s > cfg.s_fast:
            track.track_class = FAST
        else:
            track.track_class = SLOW
    return track.track_class


def predict(track: RfiTrack, t: float) -> Prediction:
    """Extrapolate the fitted model to time t with a grown uncertainty."""
    if track.track_class == UNCLASSIFIED:
        raise ValueError("cannot predict an unclassified track")
    model = track.model
    stats = track.stats
    if track.track_class == STATIONARY:
        return Prediction(DirectionLM(stats.mean_l, stats.mean_m), model.residual_rms)
    radius = 0.0
    if model.residual_rms:
        # An exact fit keeps radius 0; otherwise 0 * inf would make it NaN.
        span = max(stats.t_last - stats.t_first, np.finfo(float).tiny)
        horizon = max(t - stats.t_last, 0.0)
        radius = model.residual_rms * (1.0 + horizon / span)
    l = model.l0 + model.dl_dt * t
    m = model.m0 + model.dm_dt * t
    norm = np.hypot(l, m)
    if norm <= 1.0:
        return Prediction(DirectionLM(l, m), radius)
    # Extrapolation leaves the hemisphere: report it set, at the limb.
    return Prediction(DirectionLM(l / norm, m / norm), radius, below_horizon=True)


def _gate_and_prediction(track: RfiTrack, frame_time: float, cfg: TrackerConfig):
    if track.track_class != UNCLASSIFIED:
        pred = predict(track, frame_time)
        gate = max(GATE_SIGMA * pred.radius, cfg.gate_min)
        return pred.direction, gate
    # Immature track: last observed position, minimum gate.
    return track.history[-1][1], cfg.gate_min


class Tracker:
    """Stateful per-frame tracker; one writer per frame."""

    def __init__(self, cfg: TrackerConfig = None):
        self.cfg = cfg or TrackerConfig()
        self.tracks = []
        self.next_id = 0

    def step(self, detections, frame_time=None):
        """Greedy nearest-neighbor update for one frame of detections.

        Returns the live tracks. Detections must share a frame time; ties
        break on (track id, detection index).
        """
        if detections:
            times = {d.time for d in detections}
            if len(times) > 1:
                raise ValueError("detections must share one frame time")
            frame_time = detections[0].time
        if frame_time is None:
            raise ValueError("frame_time is required when there are no detections")
        cfg = self.cfg
        candidates = {tr.id: _gate_and_prediction(tr, frame_time, cfg)
                      for tr in self.tracks}
        matched = set()
        new_tracks = []
        for det in detections:
            best = None
            for tr in self.tracks:
                if tr.id in matched or tr.conjugate != det.conjugate:
                    continue
                if abs(tr.alpha - det.alpha) > cfg.alpha_tol:
                    continue
                pred_dir, gate = candidates[tr.id]
                dist = pred_dir.distance(det.direction)
                if dist > gate:
                    continue
                key = (dist, tr.id)
                if best is None or key < best[0]:
                    best = (key, tr)
            if best is not None:
                tr = best[1]
                matched.add(tr.id)
                tr.history.append((det.time, det.direction, det.power))
                tr.misses = 0
                classify(tr, cfg)
            else:
                tr = RfiTrack(self.next_id, det.alpha, det.conjugate,
                              [(det.time, det.direction, det.power)])
                classify(tr, cfg)
                self.next_id += 1
                new_tracks.append(tr)
        for tr in self.tracks:
            if tr.id not in matched:
                tr.misses += 1
        self.tracks = [tr for tr in self.tracks
                       if tr.misses <= DROP_AFTER] + new_tracks
        return self.tracks

    def frame_record(self, frame_time) -> dict:
        """JSON-serializable snapshot of the live tracks at one frame."""
        records = []
        for tr in sorted(self.tracks, key=lambda t: t.id):
            t, d, p = tr.history[-1]
            records.append({
                "id": tr.id,
                "alpha_hz": tr.alpha,
                "conjugate": tr.conjugate,
                "class": tr.track_class,
                "position": [d.l, d.m],
                "power": p,
                "n_points": len(tr.history),
                "model": None if tr.model is None else asdict(tr.model),
                "stats": None if tr.stats is None else asdict(tr.stats),
            })
        return {"time": frame_time, "tracks": records}


def write_frame_log(record: dict, path):
    """Strict JSON: a NaN or infinity raises ValueError and writes no file."""
    Path(path).write_bytes(artifacts.json_bytes(record))


def tracks_from_record(record: dict):
    """Rebuild prediction-capable tracks from a frame log document; a track
    of unknown class, classified without model or stats, or holding a
    non-finite number (NaN, Infinity, or a literal such as 1e999) is a
    ValueError."""
    tracks = []
    for rec in record["tracks"]:
        try:
            artifacts.json_bytes([record["time"], rec])
        except ValueError:
            raise ValueError(f"track {rec['id']} holds a non-finite number") from None
        if rec["class"] not in (STATIONARY, SLOW, FAST, UNCLASSIFIED):
            raise ValueError(f"track {rec['id']} has unknown class {rec['class']!r}")
        for key in ("model", "stats"):
            if rec["class"] != UNCLASSIFIED and rec[key] is None:
                raise ValueError(f"track {rec['id']} is {rec['class']} but has no {key}")
        model = None if rec["model"] is None else MotionFit(**rec["model"])
        stats = None if rec["stats"] is None else TrackStats(**rec["stats"])
        tracks.append(RfiTrack(rec["id"], rec["alpha_hz"], rec["conjugate"],
                               [(record["time"], DirectionLM(*rec["position"]),
                                 rec["power"])],
                               rec["class"], model, stats))
    return tracks
