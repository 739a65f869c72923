"""RFI-aware slotted observation scheduling and flag-mask generation.

Programs occupy contiguous slots. The objective trades per-slot RFI
corruption risk against program priority:

    objective = sum(assigned slot risks) - lambda * sum(priority of scheduled)

Greedy assigns programs in descending priority to their cheapest feasible
window; Exact enumerates every feasible assignment and is intended as a
small-instance optimum (and the oracle target).
"""

from dataclasses import dataclass, field
from math import cos, exp, sin, sqrt

import numpy as np

from .arraysim import DirectionLM
from .tracking import FAST, UNCLASSIFIED, predict

OMEGA_SIDEREAL = 7.2921150e-5  # rad/s

EXACT_MAX_SLOTS = 12
EXACT_MAX_PROGRAMS = 6


@dataclass
class Program:
    id: int
    ra: float
    dec: float
    freq_span: tuple  # (f_lo, f_hi) Hz
    duration: int     # slots
    priority: float

    def __post_init__(self):
        if self.freq_span[0] >= self.freq_span[1]:
            raise ValueError("freq_span must satisfy f_lo < f_hi")
        if self.duration < 1:
            raise ValueError("duration must be >= 1")
        if not self.priority > 0:
            raise ValueError("priority must be positive")


@dataclass
class SiteModel:
    latitude: float     # rad
    slot_length: float  # s
    lst0: float = 0.0   # rad, local sidereal time at slot 0

    def __post_init__(self):
        if abs(self.latitude) > np.pi / 2:
            raise ValueError("latitude must lie in [-pi/2, pi/2]")
        if not self.slot_length > 0:
            raise ValueError("slot_length must be positive")


@dataclass
class ChannelGrid:
    f_start: float
    channel_width: float
    n_channels: int

    def __post_init__(self):
        if not self.channel_width > 0 or self.n_channels < 1:
            raise ValueError("invalid channel grid")

    def span(self, channel):
        lo = self.f_start + channel * self.channel_width
        return lo, lo + self.channel_width


@dataclass
class SchedulerConfig:
    lam: float = 1.0
    risk_cap: float = 0.5
    exclusion_radius: float = 0.1
    # alpha signature (Hz) -> (f_lo, f_hi); unknown signatures fall back to
    # full band (overlap with everything).
    bands: dict = field(default_factory=dict)
    band_alpha_tol: float = 1.0

    def __post_init__(self):
        for alpha, (f_lo, f_hi) in self.bands.items():
            # An inverted band overlaps nothing, so its risk would read 0.
            if not f_lo < f_hi:
                raise ValueError(f"band at alpha {alpha}: f_lo must be below f_hi")

    def band_for(self, alpha):
        """Span of the band nearest alpha within band_alpha_tol (the lower
        alpha on a tie), else the full band."""
        near = [(abs(key - alpha), key) for key in self.bands
                if abs(key - alpha) <= self.band_alpha_tol]
        return self.bands[min(near)[1]] if near else (-np.inf, np.inf)


@dataclass
class Schedule:
    assignments: list          # slot -> program id or None
    pointings: list            # slot -> DirectionLM of its program or None
    risk: list                 # per-slot corruption risk
    total_risk: float
    objective: float
    starts: dict               # program id -> start slot
    unscheduled: list          # program ids left out
    diagnostics: list = field(default_factory=list)


@dataclass
class FlagMask:
    flags: np.ndarray          # (n_slots, n_channels) bool
    channel_width: float
    f_start: float
    slot_length: float


def target_position(target, site: SiteModel, slot):
    """Topocentric (l, m) of an (ra, dec) target at a slot, or None when set.

    Hour angle advances at the sidereal rate from the schedule-start LST.
    """
    ra, dec = target
    hour_angle = site.lst0 + slot * site.slot_length * OMEGA_SIDEREAL - ra
    lat = site.latitude
    sin_alt = sin(dec) * sin(lat) + cos(dec) * cos(lat) * cos(hour_angle)
    if sin_alt < 0:
        return None
    l = -cos(dec) * sin(hour_angle)
    m = sin(dec) * cos(lat) - cos(dec) * sin(lat) * cos(hour_angle)
    norm = sqrt(l * l + m * m)
    if norm > 1.0:
        l, m = l / norm, m / norm
    return DirectionLM(l, m)


def corruption_risk(pointing: DirectionLM, freq_span, predictions,
                    cfg: SchedulerConfig) -> float:
    """Combined corruption risk from predicted RFI positions.

    `predictions` is a list of (Prediction, alpha_hz). Per track: hard risk 1
    inside the exclusion core, Gaussian roll-off outside, zero without band
    overlap or when the track is below the horizon. `freq_span` may hold
    arrays of band edges; the risk is then one per band.
    """
    clear = 1.0
    excl = cfg.exclusion_radius
    for pred, alpha in predictions:
        if pred.below_horizon:
            continue
        band = cfg.band_for(alpha)
        overlap = (band[0] < freq_span[1]) & (band[1] > freq_span[0])
        if not np.any(overlap):
            continue
        effective = pointing.distance(pred.direction) - pred.radius
        if effective < excl:
            per = 1.0
        else:
            per = exp(-effective ** 2 / (2.0 * excl ** 2))
        clear *= 1.0 - per * overlap
    return 1.0 - clear


def _slot_predictions(tracks, site, horizon):
    preds = []
    for slot in range(horizon):
        t = slot * site.slot_length
        preds.append([(predict(tr, t), tr.alpha) for tr in tracks])
    return preds


def _program_windows(program, site, horizon, preds_by_slot, cfg):
    """Per-slot positions of one program, and its feasible windows as
    start -> (cost, slot_risks)."""
    positions = [target_position((program.ra, program.dec), site, s)
                 for s in range(horizon)]
    risks = [None] * horizon
    for s, pos in enumerate(positions):
        if pos is not None:
            risks[s] = corruption_risk(pos, program.freq_span, preds_by_slot[s], cfg)
    windows = {}
    for start in range(horizon - program.duration + 1):
        span = risks[start:start + program.duration]
        if any(r is None for r in span):
            continue
        if max(span) > cfg.risk_cap:
            continue
        windows[start] = (sum(span), span)
    return positions, windows


def _window_mask(start, duration):
    return ((1 << duration) - 1) << start


def schedule(programs, site: SiteModel, horizon, tracks=(), mode="greedy",
             cfg: SchedulerConfig = None) -> Schedule:
    """Assign programs to contiguous visible low-risk windows."""
    cfg = cfg or SchedulerConfig()
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if mode not in ("greedy", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact":
        if horizon > EXACT_MAX_SLOTS or len(programs) > EXACT_MAX_PROGRAMS:
            raise ValueError("exact mode is limited to small instances")
    ids = [p.id for p in programs]
    repeated = sorted({pid for pid in ids if ids.count(pid) > 1})
    if repeated:
        raise ValueError(f"program ids must be unique; repeated: {repeated}")
    diagnostics = []
    if programs and horizon < min(p.duration for p in programs):
        diagnostics.append("horizon is shorter than every program duration; "
                           "nothing scheduled")
    classified = [tr for tr in tracks if tr.track_class != UNCLASSIFIED]
    preds_by_slot = _slot_predictions(classified, site, horizon)
    progs = sorted(programs, key=lambda p: p.id)
    positions, windows = {}, {}
    for p in progs:
        positions[p.id], windows[p.id] = _program_windows(p, site, horizon,
                                                          preds_by_slot, cfg)

    if mode == "greedy":
        occupied = 0
        starts = {}
        order = sorted(progs, key=lambda p: (-p.priority, p.id))
        for p in order:
            free = [(cost, start) for start, (cost, _) in windows[p.id].items()
                    if not _window_mask(start, p.duration) & occupied]
            if free:
                start = min(free)[1]
                starts[p.id] = start
                occupied |= _window_mask(start, p.duration)
    else:
        best_state = None

        def rec(i, occupied, cost, value, chosen):
            nonlocal best_state
            if i == len(progs):
                objective = cost - cfg.lam * value
                # Deterministic tie-break: earliest starts, None last.
                key = (objective, tuple((s is None, 0 if s is None else s)
                                        for s in chosen))
                if best_state is None or key < best_state[0]:
                    best_state = (key, dict((p.id, s) for p, s in zip(progs, chosen)
                                            if s is not None))
                return
            p = progs[i]
            rec(i + 1, occupied, cost, value, chosen + [None])
            for start, (wcost, _) in windows[p.id].items():
                bits = _window_mask(start, p.duration)
                if bits & occupied:
                    continue
                rec(i + 1, occupied | bits, cost + wcost, value + p.priority,
                    chosen + [start])

        rec(0, 0, 0.0, 0.0, [])
        starts = best_state[1]

    assignments = [None] * horizon
    pointings = [None] * horizon
    slot_risk = [0.0] * horizon
    total = 0.0
    value = 0.0
    by_id = {p.id: p for p in progs}
    for pid, start in starts.items():
        p = by_id[pid]
        cost, span = windows[pid][start]
        value += p.priority
        total += cost
        for k in range(p.duration):
            assignments[start + k] = pid
            pointings[start + k] = positions[pid][start + k]
            slot_risk[start + k] = span[k]
    unscheduled = [p.id for p in progs if p.id not in starts]
    return Schedule(assignments, pointings, slot_risk, total,
                    total - cfg.lam * value, starts, unscheduled, diagnostics)


def flag_mask(tracks, sched: Schedule, site: SiteModel, cfg: SchedulerConfig,
              channels: ChannelGrid) -> FlagMask:
    """Time-frequency flags for fast movers crossing scheduled pointings."""
    flags = np.zeros((len(sched.pointings), channels.n_channels), dtype=bool)
    spans = channels.span(np.arange(channels.n_channels))
    fast = [tr for tr in tracks if tr.track_class == FAST]
    for slot, pointing in enumerate(sched.pointings):
        if pointing is None:
            continue
        t = slot * site.slot_length
        for tr in fast:
            # Risk 1 means inside the exclusion core: the roll-off outside
            # it is at most exp(-1/2).
            risk = corruption_risk(pointing, spans, [(predict(tr, t), tr.alpha)], cfg)
            flags[slot] |= risk == 1.0
    return FlagMask(flags, channels.channel_width, channels.f_start,
                    site.slot_length)
