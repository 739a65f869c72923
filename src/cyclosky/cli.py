"""Scenario-driven command-line front end.

A scenario is one JSON document (versioned, unknown keys rejected) that
describes the scene, the per-frame analysis, the tracker, and the
scheduling problem. `run` executes the full chain deterministically under
the scenario seed and writes every artifact to the output directory.
"""

import argparse
import hashlib
import json
import sys
import traceback
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, arraysim, cyclospec, imaging, scheduling, tracking

SCHEMA_VERSION = 1


class ScenarioError(Exception):
    """Raised for any scenario validation problem; names the offending key."""


def _require(cond, key, message):
    if not cond:
        raise ScenarioError(f"{key}: {message}")


def _check_keys(obj, allowed, path):
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: expected an object")
    for key in obj:
        if key not in allowed:
            raise ScenarioError(f"{path}.{key}: unknown key")


def _get(obj, key, path, default=None, required=False):
    if key not in obj:
        if required:
            raise ScenarioError(f"{path}.{key}: missing required key")
        return default
    return obj[key]


def _parse_direction(raw, path):
    if "start" in raw:
        _check_keys(raw, {"start", "rate"}, path)
        start = _parse_direction(raw["start"], path + ".start")
        rate = raw.get("rate", [0.0, 0.0])
        _require(len(rate) == 2, path + ".rate", "expected [dl_dt, dm_dt]")
        return arraysim.TrajectorySpec(start, (float(rate[0]), float(rate[1])))
    _check_keys(raw, {"l", "m"}, path)
    try:
        return arraysim.DirectionLM(float(_get(raw, "l", path, required=True)),
                                    float(_get(raw, "m", path, required=True)))
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}")


def _parse_source(raw, path):
    _check_keys(raw, {"kind", "snr_db", "direction", "baud_rate_hz",
                      "carrier_offset_hz", "freq_hz", "phase_rad", "seed"}, path)
    kind = _get(raw, "kind", path, required=True)
    _require(kind in (arraysim.KIND_ASTRO, arraysim.KIND_BPSK, arraysim.KIND_CW),
             path + ".kind", f"unknown source kind {kind!r}")
    direction = _parse_direction(_get(raw, "direction", path, required=True),
                                 path + ".direction")
    snr_db = _get(raw, "snr_db", path, required=True)
    try:
        # Synthesis scales the noise power by 10 ** (snr_db / 10).
        usable = 0.0 < 10.0 ** (float(snr_db) / 10.0) < np.inf
    except (TypeError, ValueError, OverflowError):
        usable = False
    _require(usable, path + ".snr_db",
             f"must give a positive finite power 10**(snr_db/10), not {snr_db!r}")
    return arraysim.SourceSpec(
        kind=kind,
        snr_db=float(snr_db),
        direction=direction,
        baud_rate=raw.get("baud_rate_hz"),
        carrier_offset=float(raw.get("carrier_offset_hz", 0.0)),
        freq=float(raw.get("freq_hz", 0.0)),
        phase=float(raw.get("phase_rad", 0.0)),
        seed=raw.get("seed"),
    )


class ScenarioConfig:
    """Validated scenario; holds constructed domain objects."""

    def __init__(self, doc, seed_override=None, mode_override=None):
        _check_keys(doc, {"schema_version", "seed", "scene", "frames", "analysis",
                          "skymap", "tracker", "site", "programs", "scheduler",
                          "output"}, "scenario")
        version = _get(doc, "schema_version", "scenario", required=True)
        _require(version == SCHEMA_VERSION, "scenario.schema_version",
                 f"unsupported schema version {version}")
        self.seed = int(_get(doc, "seed", "scenario", 0))
        if seed_override is not None:
            self.seed = int(seed_override)

        scene = _get(doc, "scene", "scenario", required=True)
        _check_keys(scene, {"n_antennas", "aperture_wavelengths", "positions_m",
                            "reference_freq_hz", "n_samples", "sample_rate_hz",
                            "system_noise_power", "sources"}, "scene")
        f0 = float(_get(scene, "reference_freq_hz", "scene", required=True))
        _require(f0 > 0, "scene.reference_freq_hz", "must be positive")
        if scene.get("positions_m") is not None:
            try:
                self.geometry = arraysim.ArrayGeometry(
                    np.asarray(scene["positions_m"], dtype=float), f0)
            except ValueError as exc:
                raise ScenarioError(f"scene.positions_m: {exc}")
        else:
            n_ant = _get(scene, "n_antennas", "scene", required=True)
            _require(int(n_ant) >= 2, "scene.n_antennas", "need at least 2 antennas")
            self.geometry = arraysim.default_geometry(
                int(n_ant), f0, self.seed,
                float(scene.get("aperture_wavelengths", 6.0)))
        n_samples = _get(scene, "n_samples", "scene", required=True)
        _require(int(n_samples) >= 1, "scene.n_samples", "must be >= 1")
        self.n_samples = int(n_samples)
        sample_rate = float(_get(scene, "sample_rate_hz", "scene", required=True))
        _require(sample_rate > 0, "scene.sample_rate_hz", "must be positive")
        self.sample_rate = sample_rate
        noise = float(scene.get("system_noise_power", 1.0))
        _require(noise >= 0, "scene.system_noise_power", "must be non-negative")
        self.system_noise_power = noise
        self.sources = [_parse_source(s, f"scene.sources[{i}]")
                        for i, s in enumerate(scene.get("sources", []))]
        for i, src in enumerate(self.sources):
            if src.kind == arraysim.KIND_BPSK:
                _require(src.baud_rate is not None,
                         f"scene.sources[{i}].baud_rate_hz", "required for bpsk")
                _require(0 < src.baud_rate < sample_rate / 2,
                         f"scene.sources[{i}].baud_rate_hz",
                         "must lie in (0, sample_rate/2)")
            if abs(src.carrier_offset) >= sample_rate / 2:
                raise ScenarioError(f"scene.sources[{i}].carrier_offset_hz: aliases")

        frames = _get(doc, "frames", "scenario", {})
        _check_keys(frames, {"length"}, "frames")
        self.frame_length = int(frames.get("length", self.n_samples))
        _require(self.frame_length >= 1, "frames.length", "must be >= 1")
        _require(self.n_samples % self.frame_length == 0, "frames.length",
                 "must divide scene.n_samples")
        self.n_frames = self.n_samples // self.frame_length

        analysis = _get(doc, "analysis", "scenario", {})
        _check_keys(analysis, {"non_conjugate", "conjugate",
                               "max_detections_per_frame", "max_peaks_per_alpha"},
                    "analysis")
        self.scan_non_conjugate = bool(analysis.get("non_conjugate", True))
        self.scan_conjugate = bool(analysis.get("conjugate", True))
        self.max_detections = int(analysis.get("max_detections_per_frame", 3))
        self.max_peaks = int(analysis.get("max_peaks_per_alpha", 2))

        skymap = _get(doc, "skymap", "scenario", {})
        _check_keys(skymap, {"l_min", "l_max", "m_min", "m_max", "n_l", "n_m"},
                    "skymap")
        try:
            self.skymap_grid = imaging.SkymapGrid(
                float(skymap.get("l_min", -1.0)), float(skymap.get("l_max", 1.0)),
                float(skymap.get("m_min", -1.0)), float(skymap.get("m_max", 1.0)),
                int(skymap.get("n_l", 128)), int(skymap.get("n_m", 128)))
        except ValueError as exc:
            raise ScenarioError(f"skymap: {exc}")

        tracker = _get(doc, "tracker", "scenario", {})
        _check_keys(tracker, {"s_stat", "s_fast", "gate_min", "gate_sigma",
                              "alpha_tol_hz", "drop_after", "min_points"}, "tracker")
        alpha_tol = tracker.get("alpha_tol_hz")
        if alpha_tol is None:
            alpha_tol = sample_rate / self.frame_length  # one alpha-grid step
        self.tracker_cfg = tracking.TrackerConfig(
            s_stat=float(tracker.get("s_stat", 1e-5)),
            s_fast=float(tracker.get("s_fast", 5e-3)),
            gate_min=float(tracker.get("gate_min", 0.01)),
            gate_sigma=float(tracker.get("gate_sigma", 3.0)),
            alpha_tol=float(alpha_tol),
            drop_after=int(tracker.get("drop_after", 5)),
            min_points=int(tracker.get("min_points", 5)))

        site = _get(doc, "site", "scenario", {})
        _check_keys(site, {"latitude_deg", "slot_length_s", "lst0_deg"}, "site")
        try:
            self.site = scheduling.SiteModel(
                np.deg2rad(float(site.get("latitude_deg", 0.0))),
                float(site.get("slot_length_s", 600.0)),
                np.deg2rad(float(site.get("lst0_deg", 0.0))))
        except ValueError as exc:
            raise ScenarioError(f"site: {exc}")

        self.programs = []
        for i, raw in enumerate(_get(doc, "programs", "scenario", [])):
            path = f"programs[{i}]"
            _check_keys(raw, {"id", "ra_deg", "dec_deg", "f_lo_hz", "f_hi_hz",
                              "duration_slots", "priority"}, path)
            try:
                self.programs.append(scheduling.Program(
                    int(_get(raw, "id", path, required=True)),
                    np.deg2rad(float(_get(raw, "ra_deg", path, required=True))),
                    np.deg2rad(float(_get(raw, "dec_deg", path, required=True))),
                    (float(_get(raw, "f_lo_hz", path, required=True)),
                     float(_get(raw, "f_hi_hz", path, required=True))),
                    int(_get(raw, "duration_slots", path, required=True)),
                    float(_get(raw, "priority", path, required=True))))
            except ValueError as exc:
                raise ScenarioError(f"{path}: {exc}")

        sched = _get(doc, "scheduler", "scenario", {})
        _check_keys(sched, {"mode", "horizon_slots", "lambda", "risk_cap",
                            "exclusion_radius", "rfi_bands", "channels"},
                    "scheduler")
        self.mode = sched.get("mode", "greedy")
        if mode_override is not None:
            self.mode = mode_override
        _require(self.mode in ("greedy", "exact"), "scheduler.mode",
                 f"unknown mode {self.mode!r}")
        self.horizon = int(sched.get("horizon_slots", 12))
        _require(self.horizon >= 1, "scheduler.horizon_slots", "must be >= 1")
        bands = {}
        for i, raw in enumerate(sched.get("rfi_bands", [])):
            path = f"scheduler.rfi_bands[{i}]"
            _check_keys(raw, {"alpha_hz", "f_lo_hz", "f_hi_hz"}, path)
            bands[float(_get(raw, "alpha_hz", path, required=True))] = (
                float(_get(raw, "f_lo_hz", path, required=True)),
                float(_get(raw, "f_hi_hz", path, required=True)))
        self.sched_cfg = scheduling.SchedulerConfig(
            lam=float(sched.get("lambda", 1.0)),
            risk_cap=float(sched.get("risk_cap", 0.5)),
            exclusion_radius=float(sched.get("exclusion_radius", 0.1)),
            bands=bands,
            band_alpha_tol=self.tracker_cfg.alpha_tol)
        channels = sched.get("channels")
        self.channels = None
        if channels is not None:
            _check_keys(channels, {"f_start_hz", "channel_width_hz", "n_channels"},
                        "scheduler.channels")
            try:
                self.channels = scheduling.ChannelGrid(
                    float(_get(channels, "f_start_hz", "scheduler.channels",
                               required=True)),
                    float(_get(channels, "channel_width_hz", "scheduler.channels",
                               required=True)),
                    int(_get(channels, "n_channels", "scheduler.channels",
                             required=True)))
            except ValueError as exc:
                raise ScenarioError(f"scheduler.channels: {exc}")

        output = _get(doc, "output", "scenario", {})
        _check_keys(output, {"directory"}, "output")
        self.out_dir = output.get("directory", "out")

    def scene(self):
        return arraysim.Scene(self.geometry, self.sources, self.n_samples,
                              self.sample_rate, self.system_noise_power, self.seed)


def load_scenario(path, seed_override=None, mode_override=None) -> ScenarioConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ScenarioError(f"scenario file unreadable: {exc}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}")
    return ScenarioConfig(doc, seed_override, mode_override)


def _require_finite(values, what, frame_idx):
    """Raise on NaN or inf, which would give NaN maps and silently no tracks."""
    bad = np.count_nonzero(~np.isfinite(values))
    if bad:
        raise ValueError(f"frame {frame_idx}: {what} has {bad} non-finite entries")


def _analyze_frame(cfg, frame_snap, frame_time, out, frame_idx):
    """One detection / imaging cycle; returns the frame's detections."""
    detections = []
    r = cyclospec.corr_matrix(frame_snap)
    _require_finite(r.values, "covariance", frame_idx)
    classical = imaging.skymap(r, cfg.geometry, cfg.skymap_grid)
    stem = out / "skymaps" / f"frame_{frame_idx:04d}_classical"
    imaging.write_skymap_csv(classical, str(stem) + ".csv")
    imaging.write_skymap_pgm(classical, str(stem) + ".pgm")
    scans = []
    if cfg.scan_non_conjugate:
        scans.append(False)
    if cfg.scan_conjugate:
        scans.append(True)
    hits = []
    for conjugate in scans:
        grid = cyclospec.fft_alpha_grid(frame_snap, conjugate)
        spec = cyclospec.cyclic_spectrum(frame_snap, grid, conjugate)
        label = "conj" if conjugate else "nonconj"
        _require_finite(spec.magnitudes, f"{label} spectrum", frame_idx)
        cyclospec.write_spectrum_csv(
            spec, out / "spectra" / f"frame_{frame_idx:04d}_{label}.csv")
        for alpha, mag in cyclospec.detect_cyclic_freqs(spec):
            hits.append((conjugate, alpha, mag))
    hits.sort(key=lambda h: -h[2])
    for rank, (conjugate, alpha, _) in enumerate(hits[:cfg.max_detections]):
        ra = cyclospec.cyclic_corr_matrix(frame_snap, alpha, conjugate)
        cmap = imaging.cyclic_skymap(ra, cfg.geometry, cfg.skymap_grid)
        if rank == 0:
            stem = out / "skymaps" / f"frame_{frame_idx:04d}_cyclic"
            imaging.write_skymap_csv(cmap, str(stem) + ".csv")
            imaging.write_skymap_pgm(cmap, str(stem) + ".pgm")
        for direction, power in imaging.locate_peaks(cmap, cfg.max_peaks):
            detections.append(tracking.Detection(frame_time, alpha, conjugate,
                                                 direction, power))
    return detections


def _write_flag_mask(cfg, tracks, sched, out):
    """Write flagmask.csv, or remove an earlier one when channels are unset."""
    path = out / "flagmask.csv"
    if cfg.channels is None:
        path.unlink(missing_ok=True)
        return
    mask = scheduling.flag_mask(tracks, sched, cfg.site, cfg.programs,
                                cfg.sched_cfg, cfg.channels)
    scheduling.write_flag_mask_csv(mask, path)


def run_pipeline(cfg: ScenarioConfig, out_dir) -> dict:
    out = Path(out_dir)
    for sub in ("spectra", "skymaps", "tracks"):
        (out / sub).mkdir(parents=True, exist_ok=True)
        # A rerun with fewer frames must not leave an earlier run's frames.
        for stale in (out / sub).glob("frame_*"):
            if stale.is_file():
                stale.unlink()
    scene = cfg.scene()
    snap = arraysim.synthesize(scene)
    np.save(out / "snapshot.npy", snap.data)
    with open(out / "snapshot_meta.json", "w") as fh:
        json.dump({"sample_rate_hz": snap.sample_rate, "t0_s": snap.t0,
                   "positions_m": cfg.geometry.positions.tolist(),
                   "reference_freq_hz": cfg.geometry.f0, "seed": cfg.seed},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")

    tracker = tracking.Tracker(cfg.tracker_cfg)
    for idx in range(cfg.n_frames):
        lo = idx * cfg.frame_length
        hi = lo + cfg.frame_length
        frame_time = snap.t0 + lo / snap.sample_rate
        frame = arraysim.ArraySnapshot(snap.data[:, lo:hi], snap.sample_rate,
                                       frame_time)
        detections = _analyze_frame(cfg, frame, frame_time, out, idx)
        tracker.step(detections, frame_time)
        tracking.write_frame_log(tracker.frame_record(frame_time),
                                 out / "tracks" / f"frame_{idx:04d}.json")

    tracks = tracker.tracks
    sched = scheduling.schedule(cfg.programs, cfg.site, cfg.horizon, tracks,
                                cfg.mode, cfg.sched_cfg)
    scheduling.write_schedule_json(sched, cfg.site, cfg.programs,
                                   out / "schedule.json")
    _write_flag_mask(cfg, tracks, sched, out)
    return {"n_frames": cfg.n_frames, "n_tracks": len(tracks),
            "scheduled": sorted(sched.starts)}


def _write_manifest(cfg_path, cfg, out_dir):
    digest = hashlib.sha256(Path(cfg_path).read_bytes()).hexdigest()
    manifest = {
        "config_sha256": digest,
        "seed": cfg.seed,
        "mode": cfg.mode,
        "versions": {"cyclosky": __version__, "numpy": np.__version__,
                     "python": sys.version.split()[0]},
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }
    with open(Path(out_dir) / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_run(args):
    try:
        cfg = load_scenario(args.config, args.seed, args.mode)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    if args.validate_only:
        return 0
    out_dir = args.out or cfg.out_dir
    try:
        run_pipeline(cfg, out_dir)
        _write_manifest(args.config, cfg, out_dir)
    except Exception:
        traceback.print_exc()
        return 3
    return 0


def _cmd_validate(args):
    try:
        load_scenario(args.config)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    print("scenario is valid")
    return 0


def _cmd_skymap(args):
    try:
        cfg = load_scenario(args.config, args.seed)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    try:
        data = np.load(Path(args.snapshot) / "snapshot.npy")
        meta_path = Path(args.snapshot) / "snapshot_meta.json"
        with open(meta_path) as fh:
            meta = json.load(fh)
        # Image with the array that recorded the snapshot, not the one the
        # scenario and --seed would build now.
        missing = [k for k in ("positions_m", "reference_freq_hz", "seed")
                   if k not in meta]
        if missing:
            print(f"snapshot error: {meta_path} lacks {', '.join(missing)};"
                  " rerun `cyclosky run` to record the array geometry",
                  file=sys.stderr)
            return 3
        if args.seed is not None and args.seed != meta["seed"]:
            print(f"snapshot error: {meta_path} was made with seed"
                  f" {meta['seed']}, not --seed {args.seed}", file=sys.stderr)
            return 3
        geom = arraysim.ArrayGeometry(np.array(meta["positions_m"], dtype=float),
                                      meta["reference_freq_hz"])
        try:
            snap = arraysim.ArraySnapshot(data, meta["sample_rate_hz"],
                                          meta["t0_s"])
        except ValueError as exc:
            print(f"snapshot error: {Path(args.snapshot) / 'snapshot.npy'}: {exc}",
                  file=sys.stderr)
            return 3
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.alpha is None:
            smap = imaging.skymap(cyclospec.corr_matrix(snap), geom,
                                  cfg.skymap_grid)
        else:
            ra = cyclospec.cyclic_corr_matrix(snap, args.alpha, args.conjugate)
            smap = imaging.cyclic_skymap(ra, geom, cfg.skymap_grid)
        imaging.write_skymap_csv(smap, out / "skymap.csv")
        imaging.write_skymap_pgm(smap, out / "skymap.pgm")
    except Exception:
        traceback.print_exc()
        return 3
    return 0


def _cmd_schedule(args):
    try:
        cfg = load_scenario(args.config, mode_override=args.mode)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    try:
        record = tracking.read_frame_log(args.tracks)
        tracks = tracking.tracks_from_record(record)
        sched = scheduling.schedule(cfg.programs, cfg.site, cfg.horizon, tracks,
                                    cfg.mode, cfg.sched_cfg)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        scheduling.write_schedule_json(sched, cfg.site, cfg.programs,
                                       out / "schedule.json")
        _write_flag_mask(cfg, tracks, sched, out)
    except Exception:
        traceback.print_exc()
        return 3
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cyclosky",
        description="Cyclostationary RFI monitor: synthesis, cyclic imaging, "
                    "tracking, and RFI-aware scheduling.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the full pipeline on a scenario")
    run.add_argument("--config", required=True)
    run.add_argument("--out", help="output directory (default: scenario's)")
    run.add_argument("--seed", type=int, help="override the scenario seed")
    run.add_argument("--validate-only", action="store_true")
    run.add_argument("--mode", choices=["greedy", "exact"])
    run.set_defaults(func=_cmd_run)

    val = sub.add_parser("validate", help="validate a scenario file")
    val.add_argument("--config", required=True)
    val.set_defaults(func=_cmd_validate)

    sky = sub.add_parser("skymap", help="image a saved snapshot")
    sky.add_argument("--config", required=True)
    sky.add_argument("--snapshot", required=True,
                     help="output directory of a previous run")
    sky.add_argument("--alpha", type=float,
                     help="cyclic frequency (omit for classical map)")
    sky.add_argument("--conjugate", action="store_true")
    sky.add_argument("--seed", type=int,
                     help="must match the seed the snapshot was made with")
    sky.add_argument("--out", required=True)
    sky.set_defaults(func=_cmd_skymap)

    sch = sub.add_parser("schedule", help="plan from a saved track log")
    sch.add_argument("--config", required=True)
    sch.add_argument("--tracks", required=True, help="a frame log JSON file")
    sch.add_argument("--mode", choices=["greedy", "exact"])
    sch.add_argument("--out", required=True)
    sch.set_defaults(func=_cmd_schedule)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
