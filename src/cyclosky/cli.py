"""Scenario-driven command-line front end.

A scenario is one JSON document (versioned, unknown keys rejected) that
describes the scene, the per-frame analysis, the tracker, and the
scheduling problem; `SCHEMA` lists every key with its type, default and
check. `run` executes the full chain deterministically under the scenario
seed and writes every artifact to the output directory.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, arraysim, artifacts, cyclospec, imaging, scheduling, tracking

SCHEMA_VERSION = 1


class ScenarioError(Exception):
    """Raised for any scenario validation problem; names the offending key."""


def _require(cond, key, message):
    if not cond:
        raise ScenarioError(f"{key}: {message}")


REQUIRED = object()
POSITIVE = (lambda v: v > 0, "must be positive")
NON_NEGATIVE = (lambda v: v >= 0, "must be >= 0")
AT_LEAST_1 = (lambda v: v >= 1, "must be >= 1")
# frames.length x antennas x summed power must stay below this, so that the
# squared magnitudes the alpha-scan sums stay finite.
MAX_FRAME_LOAD = 1e150


def _finite_power(snr_db):
    # A source's power is the noise reference times 10 ** (snr_db / 10).
    try:
        return 0.0 < 10.0 ** (snr_db / 10.0) < math.inf
    except OverflowError:
        return False


# section -> key -> (type, default or REQUIRED[, check, message]). A type is
# int, float, str or dict (a raw JSON object), the name of another
# section, or [type] for a JSON array of that type. JSON integers are taken
# for float keys; null is taken only where the default is None.
SCHEMA = {
    "scenario": {
        "schema_version": (int, REQUIRED, lambda v: v == SCHEMA_VERSION,
                           f"must be {SCHEMA_VERSION}"),
        "seed": (int, 0, *NON_NEGATIVE), "scene": ("scene", REQUIRED),
        "frames": ("frames", {}), "analysis": ("analysis", {}),
        "skymap": ("skymap", {}), "tracker": ("tracker", {}), "site": ("site", {}),
        "programs": (["program"], []), "scheduler": ("scheduler", {})},
    "scene": {
        "n_antennas": (int, None, lambda v: v >= 2, "need at least 2 antennas"),
        "aperture_wavelengths": (float, 6.0, *POSITIVE),
        "positions_m": ([[float]], None),
        "reference_freq_hz": (float, REQUIRED, *POSITIVE),
        # A frame of N samples has a non-conjugate alpha grid of N // 2
        # points, and `detect_cyclic_freqs` needs 2.
        "n_samples": (int, REQUIRED, lambda v: v >= 4, "must be >= 4"),
        "sample_rate_hz": (float, REQUIRED, *POSITIVE),
        "system_noise_power": (float, 1.0, *NON_NEGATIVE),
        "sources": (["source"], [])},
    "source": {
        "kind": (str, REQUIRED, lambda v: v in (arraysim.KIND_ASTRO, arraysim.KIND_BPSK,
                                                arraysim.KIND_CW),
                 "must be 'astro', 'bpsk' or 'cw'"),
        "snr_db": (float, REQUIRED, _finite_power,
                   "must give a positive finite power 10**(snr_db/10)"),
        "direction": (dict, REQUIRED), "baud_rate_hz": (float, None),
        "carrier_offset_hz": (float, 0.0), "freq_hz": (float, 0.0),
        "phase_rad": (float, 0.0), "seed": (int, None, *NON_NEGATIVE)},
    "direction": {"l": (float, REQUIRED), "m": (float, REQUIRED)},
    "trajectory": {
        "start": ("direction", REQUIRED),
        "rate": ([float], [0.0, 0.0], lambda v: len(v) == 2, "must be [dl_dt, dm_dt]")},
    "frames": {"length": (int, None, lambda v: v >= 4, "must be >= 4")},
    "analysis": {
        "max_detections_per_frame": (int, 3, *NON_NEGATIVE),
        "max_peaks_per_alpha": (int, 2, *AT_LEAST_1)},
    "skymap": {f.name: (f.type, f.default)
               for f in dataclasses.fields(imaging.SkymapGrid)},
    # TrackerConfig's fields but alpha_tol, which is one alpha-grid step.
    "tracker": {
        **{f.name: (f.type, f.default, *NON_NEGATIVE)
           for f in dataclasses.fields(tracking.TrackerConfig) if f.name != "alpha_tol"},
        "min_points": (int, tracking.TrackerConfig.min_points, *AT_LEAST_1)},
    "site": {"latitude_deg": (float, 0.0), "slot_length_s": (float, 600.0),
             "lst0_deg": (float, 0.0)},
    "program": {
        "id": (int, REQUIRED), "ra_deg": (float, REQUIRED), "dec_deg": (float, REQUIRED),
        "f_lo_hz": (float, REQUIRED), "f_hi_hz": (float, REQUIRED),
        "duration_slots": (int, REQUIRED), "priority": (float, REQUIRED)},
    "scheduler": {
        "mode": (str, "greedy", lambda v: v in ("greedy", "exact"),
                 "must be 'greedy' or 'exact'"),
        "horizon_slots": (int, 12, *AT_LEAST_1),
        "lambda": (float, scheduling.SchedulerConfig.lam, *NON_NEGATIVE),
        "risk_cap": (float, scheduling.SchedulerConfig.risk_cap, *NON_NEGATIVE),
        "exclusion_radius": (float, scheduling.SchedulerConfig.exclusion_radius,
                             *POSITIVE),
        "rfi_bands": (["rfi_band"], []), "channels": ("channels", None)},
    "rfi_band": {"alpha_hz": (float, REQUIRED), "f_lo_hz": (float, REQUIRED),
                 "f_hi_hz": (float, REQUIRED)},
    "channels": {"f_start_hz": (float, REQUIRED), "channel_width_hz": (float, REQUIRED),
                 "n_channels": (int, REQUIRED)},
}

_TYPE_NAMES = {int: "an integer", float: "a number",
               str: "a string", list: "an array", dict: "an object"}


def _typed(value, kind, where, check=None, message=None):
    """`value` checked against one schema type and its check."""
    if isinstance(kind, list):
        _typed(value, list, where)
        value = [_typed(v, kind[0], f"{where}[{i}]") for i, v in enumerate(value)]
    elif isinstance(kind, str):
        value = _section(value, kind, where)
    else:
        if kind is float and type(value) is int:
            value = float(value) if abs(value) <= sys.float_info.max else math.inf
        if type(value) is not kind:
            raise ScenarioError(
                f"{where}: must be {_TYPE_NAMES[kind]}, not {value!r:.60}")
    # A key's own check and message come before the generic finiteness one.
    if check is not None and not check(value):
        raise ScenarioError(f"{where}: {message}, not {value!r:.60}")
    if kind is float and not math.isfinite(value):
        raise ScenarioError(f"{where}: must be finite, not {value!r}")
    return value


def _section(raw, name, path):
    """One scenario object checked against SCHEMA[name], defaults filled in."""
    _typed(raw, dict, path or name)
    schema = SCHEMA[name]
    prefix = f"{path}." if path else ""
    for key in raw:
        _require(key in schema, prefix + key, "unknown key")
    out = {}
    for key, (kind, default, *rule) in schema.items():
        where = prefix + key
        value = raw.get(key, default)
        _require(value is not REQUIRED, where, "missing required key")
        out[key] = (None if value is None and default is None
                    else _typed(value, kind, where, *rule))
    return out


def _build(path, constructor, *args, **kwargs):
    """A domain object; its own ValueError becomes a ScenarioError at `path`."""
    try:
        return constructor(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


def _direction(raw, path):
    if "start" in raw:
        traj = _section(raw, "trajectory", path)
        return arraysim.TrajectorySpec(
            _build(path + ".start", arraysim.DirectionLM, **traj["start"]),
            tuple(traj["rate"]))
    return _build(path, arraysim.DirectionLM, **_section(raw, "direction", path))


class ScenarioConfig:
    """Validated scenario; holds constructed domain objects."""

    def __init__(self, doc, seed_override=None):
        doc = _section(doc, "scenario", "")
        if seed_override is not None:  # --seed takes the key's own check
            doc["seed"] = _typed(seed_override, int, "seed",
                                 *SCHEMA["scenario"]["seed"][2:])
        self.seed = doc["seed"]

        scene = doc["scene"]
        f0 = scene["reference_freq_hz"]
        if scene["positions_m"] is not None:
            self.geometry = _build("scene.positions_m", arraysim.ArrayGeometry,
                                   scene["positions_m"], f0)
            _require(scene["n_antennas"] in (None, self.geometry.n_antennas),
                     "scene.n_antennas", f"{scene['n_antennas']} disagrees with the "
                     f"{self.geometry.n_antennas} rows of scene.positions_m")
        else:
            _require(scene["n_antennas"] is not None, "scene.n_antennas",
                     "missing required key")
            self.geometry = arraysim.default_geometry(
                scene["n_antennas"], f0, self.seed, scene["aperture_wavelengths"])
        self.n_samples = scene["n_samples"]
        self.sample_rate = fs = scene["sample_rate_hz"]
        self.system_noise_power = scene["system_noise_power"]
        self.sources = []
        for i, src in enumerate(scene["sources"]):
            path = f"scene.sources[{i}]"
            if src["kind"] == arraysim.KIND_BPSK:
                _require(src["baud_rate_hz"] is not None, path + ".baud_rate_hz",
                         "required for bpsk")
                _require(0 < src["baud_rate_hz"] < fs / 2, path + ".baud_rate_hz",
                         "must lie in (0, sample_rate/2)")
            for key in ("carrier_offset_hz", "freq_hz"):
                _require(abs(src[key]) < fs / 2, f"{path}.{key}", "aliases")
            direction = _direction(src["direction"], path + ".direction")
            if isinstance(direction, arraysim.TrajectorySpec):
                # The disk is convex: inside at both ends is inside throughout.
                _build(path + ".direction.rate", direction.position,
                       self.n_samples / fs)
            self.sources.append(arraysim.SourceSpec(
                src["kind"], src["snr_db"], direction, src["baud_rate_hz"],
                src["carrier_offset_hz"], src["freq_hz"], src["phase_rad"],
                src["seed"]))

        self.frame_length = doc["frames"]["length"] or self.n_samples
        _require(self.n_samples % self.frame_length == 0, "frames.length",
                 "must divide scene.n_samples")
        self.n_frames = self.n_samples // self.frame_length
        # Summed over a frame, z z^H must not overflow; the strongest term of
        # the power sum is named.
        reference = self.system_noise_power or 1.0
        terms = [(reference, "scene.system_noise_power")] + [
            (10.0 ** (s.snr_db / 10.0) * reference, f"scene.sources[{i}].snr_db")
            for i, s in enumerate(self.sources)]
        load = self.frame_length * self.geometry.n_antennas * sum(p for p, _ in terms)
        _require(load < MAX_FRAME_LOAD, max(terms)[1],
                 f"frames.length x antennas x total power is {load:.3g}, "
                 f"not below {MAX_FRAME_LOAD:g}")

        analysis = doc["analysis"]
        self.max_detections = analysis["max_detections_per_frame"]
        self.max_peaks = analysis["max_peaks_per_alpha"]

        self.skymap_grid = _build("skymap", imaging.SkymapGrid, **doc["skymap"])

        alpha_tol = fs / self.frame_length  # one alpha-grid step
        self.tracker_cfg = tracking.TrackerConfig(**doc["tracker"], alpha_tol=alpha_tol)

        site = doc["site"]
        self.site = _build("site", scheduling.SiteModel,
                           np.deg2rad(site["latitude_deg"]), site["slot_length_s"],
                           np.deg2rad(site["lst0_deg"]))
        self.programs = [
            _build(f"programs[{i}]", scheduling.Program, p["id"],
                   np.deg2rad(p["ra_deg"]), np.deg2rad(p["dec_deg"]),
                   (p["f_lo_hz"], p["f_hi_hz"]), p["duration_slots"], p["priority"])
            for i, p in enumerate(doc["programs"])]
        ids = [p.id for p in self.programs]
        for i, pid in enumerate(ids):
            _require(pid not in ids[:i], f"programs[{i}].id",
                     f"{pid} is also programs[{ids.index(pid)}].id")

        sched = doc["scheduler"]
        self.mode = sched["mode"]
        self.horizon = sched["horizon_slots"]
        if self.mode == "exact":
            _require(self.horizon <= scheduling.EXACT_MAX_SLOTS,
                     "scheduler.horizon_slots", "exact mode allows at most "
                     f"{scheduling.EXACT_MAX_SLOTS}, not {self.horizon}")
            _require(len(self.programs) <= scheduling.EXACT_MAX_PROGRAMS,
                     "programs", "exact mode allows at most "
                     f"{scheduling.EXACT_MAX_PROGRAMS}, not {len(self.programs)}")
        bands = {}
        for i, band in enumerate(sched["rfi_bands"]):
            path = f"scheduler.rfi_bands[{i}]"
            # An inverted band overlaps nothing, so its risk would read 0.
            _require(band["f_lo_hz"] < band["f_hi_hz"], path,
                     "f_lo_hz must be below f_hi_hz")
            _require(band["alpha_hz"] not in bands, path + ".alpha_hz",
                     f"{band['alpha_hz']} is also an earlier band's alpha_hz")
            bands[band["alpha_hz"]] = (band["f_lo_hz"], band["f_hi_hz"])
        self.sched_cfg = scheduling.SchedulerConfig(
            lam=sched["lambda"], risk_cap=sched["risk_cap"],
            exclusion_radius=sched["exclusion_radius"], bands=bands,
            band_alpha_tol=alpha_tol)
        channels = sched["channels"]
        self.channels = None if channels is None else _build(
            "scheduler.channels", scheduling.ChannelGrid, channels["f_start_hz"],
            channels["channel_width_hz"], channels["n_channels"])

    def scene(self):
        return arraysim.Scene(self.geometry, self.sources, self.n_samples,
                              self.sample_rate, self.system_noise_power, self.seed)


def load_scenario(path, seed_override=None) -> ScenarioConfig:
    """The scenario at `path`, with `config_sha256` of the bytes it was read
    from (the file is read once, so the manifest hashes what ran)."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ScenarioError(f"scenario file unreadable: {exc}")
    try:
        doc = json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}")
    cfg = ScenarioConfig(doc, seed_override)
    cfg.config_sha256 = hashlib.sha256(data).hexdigest()
    return cfg


def _require_finite(values, what, frame_idx):
    """Raise on NaN or inf, which would give NaN maps and silently no tracks."""
    bad = np.count_nonzero(~np.isfinite(values))
    if bad:
        raise ValueError(f"frame {frame_idx}: {what} has {bad} non-finite entries")


def _write_json(doc, path):
    """Strict JSON: a NaN or infinity raises ValueError and writes no file."""
    path.write_bytes(artifacts.json_bytes(doc))


def _write_skymap(smap, stem):
    """`<stem>.csv` and `<stem>.pgm` (with its `.meta` sidecar)."""
    Path(f"{stem}.csv").write_bytes(artifacts.skymap_csv(smap))
    pgm, meta = artifacts.skymap_pgm(smap)
    Path(f"{stem}.pgm").write_bytes(pgm)
    Path(f"{stem}.pgm.meta").write_bytes(meta)


def _write_spectrum(spec, path):
    path.write_bytes(artifacts.spectrum_csv(spec))


def _analyze_frame(cfg, frame_snap, out, frame_idx, write):
    """One detection / imaging cycle; returns the frame's detections.

    Both alpha-scans run on the frame's signal subspace, y = U_r^H z, each
    tested against its own stationary null; each hit is imaged on all
    antennas and gives as many map peaks as it has sources, up to
    `max_peaks`. The frame's map and spectrum files go to `write(fn, *args)`.
    """
    detections = []
    r = cyclospec.corr_matrix(frame_snap)
    _require_finite(r, "covariance", frame_idx)
    write(_write_skymap, imaging.skymap(r, cfg.geometry, cfg.skymap_grid),
          out / "skymaps" / f"frame_{frame_idx:04d}_classical")
    n = frame_snap.n_samples
    lam, vecs, rank = cyclospec.signal_subspace(r, n)
    subspace = arraysim.ArraySnapshot(vecs[:, :rank].conj().T @ frame_snap.data,
                                      frame_snap.sample_rate, frame_snap.t0)
    hits = []
    for conjugate in (False, True):
        grid = cyclospec.fft_alpha_grid(subspace, conjugate)
        spec = cyclospec.cyclic_spectrum(subspace, grid, conjugate)
        label = "conj" if conjugate else "nonconj"
        _require_finite(spec.magnitudes, f"{label} spectrum", frame_idx)
        write(_write_spectrum, spec,
              out / "spectra" / f"frame_{frame_idx:04d}_{label}.csv")
        for alpha, mag in cyclospec.detect_cyclic_freqs(spec, lam[:rank], n):
            hits.append((conjugate, alpha, mag))
    hits.sort(key=lambda h: -h[2])
    first = True
    for conjugate, alpha, _ in hits[:cfg.max_detections]:
        ra = cyclospec.cyclic_corr_matrix(frame_snap, alpha, conjugate)
        sources = cyclospec.source_count(ra, lam, vecs, n)
        if sources == 0:
            continue
        cmap = imaging.cyclic_skymap(ra, cfg.geometry, cfg.skymap_grid)
        if first:
            write(_write_skymap, cmap, out / "skymaps" / f"frame_{frame_idx:04d}_cyclic")
            first = False
        for direction, power in imaging.locate_peaks(cmap, min(sources, cfg.max_peaks)):
            detections.append(tracking.Detection(frame_snap.t0, alpha, conjugate,
                                                 direction, power))
    return detections


def _plan(cfg, tracks, out):
    """Schedule; write schedule.json and flagmask.csv (removed if no channels)."""
    sched = scheduling.schedule(cfg.programs, cfg.site, cfg.horizon, tracks,
                                cfg.mode, cfg.sched_cfg)
    (out / "schedule.json").write_bytes(artifacts.schedule_json(sched))
    path = out / "flagmask.csv"
    if cfg.channels is None:
        path.unlink(missing_ok=True)
    else:
        path.write_bytes(artifacts.flag_mask_csv(scheduling.flag_mask(
            tracks, sched, cfg.site, cfg.sched_cfg, cfg.channels)))


def run_pipeline(cfg: ScenarioConfig, out_dir):
    out = Path(out_dir)
    # A rerun, with fewer frames or failing partway, must leave nothing of an
    # earlier run that looks like its own output.
    for sub in ("spectra", "skymaps", "tracks"):
        (out / sub).mkdir(parents=True, exist_ok=True)
        for stale in (out / sub).glob("frame_*"):
            if stale.is_file():
                stale.unlink()
    snapshot, partial = out / "snapshot.npy", out / "snapshot.npy.partial"
    for path in (snapshot, partial, out / "manifest.json", out / "schedule.json",
                 out / "flagmask.csv"):
        path.unlink(missing_ok=True)
    scene = cfg.scene()
    synth = arraysim.Synthesizer(scene)
    _write_json({"sample_rate_hz": scene.sample_rate, "t0_s": scene.t0,
                 "positions_m": cfg.geometry.positions.tolist(),
                 "reference_freq_hz": cfg.geometry.f0, "seed": cfg.seed},
                out / "snapshot_meta.json")

    tracker = tracking.Tracker(cfg.tracker_cfg)
    m, n, length = cfg.geometry.n_antennas, cfg.n_samples, cfg.frame_length
    data = np.empty((m, length), dtype=np.complex128)  # one frame, reused
    # Each frame is made, checked, written into the snapshot at its columns'
    # offsets and analysed in turn. The snapshot takes its name after the
    # last frame, so that a failed run leaves none.
    # One writer thread runs each frame's `_write_*` tasks while this thread
    # goes on with the frame's analysis, whose BLAS and FFT calls release the
    # GIL. A frame's log comes after its files are complete, and the `with`
    # waits for every submitted write, also on an error. The writer calls
    # nothing perfbench wraps: its frame clock wraps each public `cyclospec`
    # function, its Tracer (one span stack per process) each public `write_*`
    # of `cyclospec`, `imaging`, `tracking` and `scheduling`.
    try:
        with open(partial, "wb") as fh, ThreadPoolExecutor(1) as writer:
            header = np.lib.format.header_data_from_array_1_0(data)
            np.lib.format.write_array_header_1_0(fh, {**header, "shape": (m, n)})
            head = fh.tell()
            for idx in range(cfg.n_frames):
                lo = idx * length
                synth.fill(data, lo)
                frame = arraysim.ArraySnapshot(data, scene.sample_rate,
                                               scene.t0 + lo / scene.sample_rate)
                for row in range(m):
                    fh.seek(head + (row * n + lo) * data.itemsize)
                    fh.write(data[row])
                writes = []
                detections = _analyze_frame(
                    cfg, frame, out, idx, lambda *task: writes.append(writer.submit(*task)))
                for pending in writes:
                    pending.result()  # re-raises a failed write here
                tracker.step(detections, frame.t0)
                tracking.write_frame_log(tracker.frame_record(frame.t0),
                                         out / "tracks" / f"frame_{idx:04d}.json")
        partial.replace(snapshot)
    finally:
        partial.unlink(missing_ok=True)
    imaging.release_operator()  # not held until the next run

    _plan(cfg, tracker.tracks, out)


def _cmd_run(args, cfg):
    run_pipeline(cfg, args.out)
    _write_json({
        "config_sha256": cfg.config_sha256,
        "seed": cfg.seed,
        "mode": cfg.mode,
        "versions": {"cyclosky": __version__, "numpy": np.__version__,
                     "python": sys.version.split()[0]},
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }, Path(args.out) / "manifest.json")


def _cmd_validate(args, cfg):
    print("scenario is valid")


def _cmd_skymap(args, cfg):
    data = np.load(Path(args.snapshot) / "snapshot.npy")
    meta_path = Path(args.snapshot) / "snapshot_meta.json"
    with open(meta_path) as fh:
        meta = json.load(fh)
    # Image with the array that recorded the snapshot: the run's --seed may
    # have built another array than the scenario builds now.
    missing = [k for k in ("positions_m", "reference_freq_hz", "sample_rate_hz",
                           "t0_s") if k not in meta]
    if missing:
        raise ValueError(f"{meta_path} lacks {', '.join(missing)};"
                         " rerun `cyclosky run` to record the snapshot")
    geom = arraysim.ArrayGeometry(np.array(meta["positions_m"], dtype=float),
                                  meta["reference_freq_hz"])
    try:
        snap = arraysim.ArraySnapshot(data, meta["sample_rate_hz"], meta["t0_s"])
    except ValueError as exc:
        raise ValueError(f"{Path(args.snapshot) / 'snapshot.npy'}: {exc}") from None
    if args.alpha is None:
        smap = imaging.skymap(cyclospec.corr_matrix(snap), geom, cfg.skymap_grid)
    else:
        ra = cyclospec.cyclic_corr_matrix(snap, args.alpha, args.conjugate)
        smap = imaging.cyclic_skymap(ra, geom, cfg.skymap_grid)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_skymap(smap, out / "skymap")


def _cmd_schedule(args, cfg):
    try:
        tracks = tracking.tracks_from_record(json.loads(Path(args.tracks).read_bytes()))
    except KeyError as exc:
        raise ValueError(f"{args.tracks} is not a frame log: it lacks key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{args.tracks} is not a frame log: {exc}") from None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _plan(cfg, tracks, out)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cyclosky",
        description="Cyclostationary RFI monitor: synthesis, cyclic imaging, "
                    "tracking, and RFI-aware scheduling.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the full pipeline on a scenario")
    run.add_argument("--config", required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--seed", type=int, help="override the scenario seed")
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
    sky.add_argument("--out", required=True)
    sky.set_defaults(func=_cmd_skymap)

    sch = sub.add_parser("schedule", help="plan from a saved track log")
    sch.add_argument("--config", required=True)
    sch.add_argument("--tracks", required=True, help="a frame log JSON file")
    sch.add_argument("--out", required=True)
    sch.set_defaults(func=_cmd_schedule)
    return parser


def main(argv=None) -> int:
    """Exit 0 on success, 2 on a scenario error, 3 on a runtime failure."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "skymap" and args.conjugate and args.alpha is None:
        parser.error("skymap --conjugate needs --alpha; a classical map has no conjugate")
    try:
        cfg = load_scenario(args.config, getattr(args, "seed", None))
        args.func(args, cfg)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
