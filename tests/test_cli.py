import copy
import filecmp
import hashlib
import inspect
import io
import json
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cyclosky import arraysim, artifacts, cli, cyclospec, imaging, scheduling, tracking
from cyclosky.arraysim import ArraySnapshot, synthesize
from cyclosky.cli import load_scenario, main, run_pipeline
from cyclosky.cyclospec import cyclic_corr_matrix
from cyclosky.imaging import cyclic_skymap
from test_csv_formats import reference_skymap_csv, reference_spectrum_csv

SMALL_SCENARIO = {
    "schema_version": 1,
    "seed": 7,
    "scene": {
        "n_antennas": 12,
        "aperture_wavelengths": 3.0,
        "reference_freq_hz": 1.42e9,
        "n_samples": 2048,
        "sample_rate_hz": 1e6,
        "system_noise_power": 1.0,
        "sources": [
            {"kind": "bpsk", "snr_db": 3.0,
             "direction": {"l": 0.4, "m": -0.3},
             "baud_rate_hz": 1.25e5, "carrier_offset_hz": 6.25e4},
        ],
    },
    "frames": {"length": 1024},
    "analysis": {"max_detections_per_frame": 2, "max_peaks_per_alpha": 1},
    "skymap": {"l_min": -1.0, "l_max": 1.0, "m_min": -1.0, "m_max": 1.0,
               "n_l": 48, "n_m": 48},
    "tracker": {"min_points": 2, "s_stat": 2.0, "s_fast": 50.0,
                "gate_min": 0.05},
    "site": {"latitude_deg": -26.7, "slot_length_s": 600.0, "lst0_deg": 0.0},
    "programs": [
        {"id": 1, "ra_deg": 10.0, "dec_deg": -30.0,
         "f_lo_hz": 1.419e9, "f_hi_hz": 1.421e9,
         "duration_slots": 2, "priority": 1.0},
    ],
    "scheduler": {
        "mode": "greedy", "horizon_slots": 4, "lambda": 1.0,
        "risk_cap": 0.5, "exclusion_radius": 0.1, "rfi_bands": [],
        "channels": {"f_start_hz": 1.419e9, "channel_width_hz": 2.5e5,
                     "n_channels": 8},
    },
}


def write_scenario(tmp_path, doc, name="scene.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return path


@pytest.fixture
def scenario(tmp_path):
    return write_scenario(tmp_path, SMALL_SCENARIO)


class TestValidation:
    def test_valid_scenario(self, scenario, capsys):
        assert main(["validate", "--config", str(scenario)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_unknown_key_named(self, tmp_path, capsys):
        doc = copy.deepcopy(SMALL_SCENARIO)
        doc["scene"]["bandwidth"] = 1.0
        path = write_scenario(tmp_path, doc)
        assert main(["validate", "--config", str(path)]) == 2
        assert "scene.bandwidth" in capsys.readouterr().err

    def test_bad_value_named(self, tmp_path, capsys):
        doc = copy.deepcopy(SMALL_SCENARIO)
        doc["scene"]["n_samples"] = 0
        path = write_scenario(tmp_path, doc)
        assert main(["validate", "--config", str(path)]) == 2
        assert "scene.n_samples" in capsys.readouterr().err

    @pytest.mark.parametrize("snr_db", [4000.0, float("nan"), float("inf"),
                                        float("-inf")])
    def test_snr_db_must_give_finite_power(self, tmp_path, capsys, snr_db):
        # 10 ** (4000 / 10) overflows a float; synthesis would raise.
        doc = copy.deepcopy(SMALL_SCENARIO)
        doc["scene"]["sources"][0]["snr_db"] = snr_db
        path = write_scenario(tmp_path, doc)
        assert main(["validate", "--config", str(path)]) == 2
        assert "scene.sources[0].snr_db: must give" in capsys.readouterr().err
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        assert "scene.sources[0].snr_db" in capsys.readouterr().err

    def test_overflowing_frame_fails_loudly(self, tmp_path):
        # Validation bounds snr_db; raised past that bound afterwards, the
        # frame covariance overflows and the run stops at frame 0.
        cfg = load_scenario(write_scenario(tmp_path, SMALL_SCENARIO))
        cfg.sources[0].snr_db = 3082.0
        with np.errstate(all="ignore"), pytest.raises(
                ValueError, match=r"frame 0: covariance has \d+ non-finite entries"):
            run_pipeline(cfg, tmp_path / "out")

    def test_snr_db_just_below_the_bound_runs_clean(self, tmp_path):
        # frames.length x antennas x power = 1024 x 12 x 10**145.9 = 9.8e149,
        # just below the 1e150 bound (BAD_SCENARIOS holds 1530 and 3082).
        doc = copy.deepcopy(SMALL_SCENARIO)
        doc["scene"]["sources"][0]["snr_db"] = 1459.0
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_scenario(tmp_path, doc)),
                     "--out", str(out)]) == 0
        for name in ("classical", "cyclic"):
            power = np.loadtxt(out / "skymaps" / f"frame_0000_{name}.csv", delimiter=",")
            assert np.all(np.isfinite(power))

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 2

    def test_undecodable_file_is_scenario_error(self, tmp_path, capsys):
        path = tmp_path / "scene.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(SMALL_SCENARIO).encode())
        assert main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario error: scenario is not valid JSON: ")
        assert "Traceback" not in err

    def test_frame_length_must_divide(self, tmp_path, capsys):
        doc = copy.deepcopy(SMALL_SCENARIO)
        doc["frames"]["length"] = 1000
        path = write_scenario(tmp_path, doc)
        assert main(["validate", "--config", str(path)]) == 2

    @pytest.mark.parametrize("length", [4, 8, 24])
    def test_short_frames_run(self, tmp_path, length):
        # Frames of 24 samples once validated and then failed in frame 0.
        doc = copy.deepcopy(SMALL_SCENARIO)
        doc["scene"]["n_samples"] = 96
        doc["frames"]["length"] = length
        path = write_scenario(tmp_path, doc)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert len(list((tmp_path / "out" / "tracks").glob("frame_*.json"))) == 96 // length


def exact_mode(doc, horizon=12, programs=6):
    doc["scheduler"].update(mode="exact", horizon_slots=horizon)
    doc["programs"] = [dict(doc["programs"][0], id=i) for i in range(programs)]


def set_path(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = value


BPSK = ("scene", "sources", 0)

# (dotted key the error must name, edit: (path, value) or a function)
BAD_SCENARIOS = [
    ("scene.n_samples", (("scene", "n_samples"), "abc")),
    ("seed", (("seed",), "abc")),
    ("tracker.gate_min", (("tracker", "gate_min"), "x")),
    ("programs", (("programs",), 5)),
    ("scene.sources[0].baud_rate_hz", ((*BPSK, "baud_rate_hz"), "fast")),
    ("scene.sources[0].direction.rate",
     ((*BPSK, "direction"), {"start": {"l": 0.4, "m": -0.3}, "rate": 5})),
    ("skymap.n_l", (("skymap", "n_l"), 48.9)),
    # Both scans always run and the alpha tolerance is one grid step: the keys
    # that set them are unknown, even at their former defaults (also below).
    ("analysis.non_conjugate", (("analysis", "non_conjugate"), True)),
    ("analysis.max_detections_per_frame",
     (("analysis", "max_detections_per_frame"), -1)),
    ("tracker.drop_after", (("tracker", "drop_after"), -1)),
    ("scene.n_samples", (("scene", "n_samples"), True)),
    ("analysis.max_peaks_per_alpha", (("analysis", "max_peaks_per_alpha"), 0)),
    ("scheduler.exclusion_radius", (("scheduler", "exclusion_radius"), 0)),
    ("scene.sources[0].snr_db", ((*BPSK, "snr_db"), 3082.0)),
    ("scene.sources[0].snr_db", ((*BPSK, "snr_db"), 1530.0)),
    ("scheduler.horizon_slots", lambda doc: exact_mode(doc, horizon=99)),
    ("programs", lambda doc: exact_mode(doc, programs=7)),
    ("scene.sources[0].seed", ((*BPSK, "seed"), -1)),
    ("scene.system_noise_power", (("scene", "system_noise_power"), float("nan"))),
    ("scene.reference_freq_hz", (("scene", "reference_freq_hz"), None)),
    ("scene.sources[0].direction.l", ((*BPSK, "direction", "l"), float("inf"))),
    ("scene.sources[0].direction.rate",
     ((*BPSK, "direction"), {"start": {"l": 0.4, "m": -0.3}, "rate": [1000.0, 0]})),
    ("scene.sources[0].freq_hz", ((*BPSK, "freq_hz"), 2e6)),
    # A second program with id 1 was neither scheduled nor reported.
    ("programs[1].id", lambda doc: doc["programs"].append(dict(doc["programs"][0]))),
    # An inverted or empty band overlaps nothing, so its risk read 0.
    ("scheduler.rfi_bands[0]", (("scheduler", "rfi_bands"), [
        {"alpha_hz": 1.25e5, "f_lo_hz": 1.421e9, "f_hi_hz": 1.419e9}])),
    ("scheduler.rfi_bands[0]", (("scheduler", "rfi_bands"), [
        {"alpha_hz": 1.25e5, "f_lo_hz": 1.42e9, "f_hi_hz": 1.42e9}])),
    # The band dict kept only the last of two equal alphas.
    ("scheduler.rfi_bands[1].alpha_hz", (("scheduler", "rfi_bands"), [
        {"alpha_hz": 1.25e5, "f_lo_hz": 1.419e9, "f_hi_hz": 1.421e9},
        {"alpha_hz": 1.25e5, "f_lo_hz": 1.42e9, "f_hi_hz": 1.4201e9}])),
    # Frames below 4 samples give a non-conjugate alpha grid of one point.
    ("frames.length", (("frames", "length"), 2)),
    ("frames.length", lambda doc: (doc["scene"].update(n_samples=96),
                                   doc["frames"].update(length=3))),
    ("scene.n_samples", (("scene", "n_samples"), 3)),
    ("analysis.conjugate", (("analysis", "conjugate"), True)),
    ("tracker.alpha_tol_hz", (("tracker", "alpha_tol_hz"), 1e6 / 1024)),
    # A count that disagrees with the positions was ignored.
    ("scene.n_antennas", (("scene", "positions_m"), [[0, 0], [30, 0], [0, 40]])),
    # The gate's sigma is a constant, and --out alone sets where a run writes.
    ("tracker.gate_sigma", (("tracker", "gate_sigma"), 3.0)),
    ("output", (("output",), {"directory": "out"})),
]


class TestBadScenarios:
    @pytest.mark.parametrize("key,edit", BAD_SCENARIOS,
                             ids=[f"{i}-{k}" for i, (k, _) in enumerate(BAD_SCENARIOS)])
    def test_exits_2_naming_the_key(self, tmp_path, capsys, key, edit):
        doc = copy.deepcopy(SMALL_SCENARIO)
        if callable(edit):
            edit(doc)
        else:
            set_path(doc, *edit)
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        for command in (["validate"], ["run", "--out", str(out)],
                        ["skymap", "--snapshot", "none", "--out", str(out)],
                        ["schedule", "--tracks", "none.json", "--out", str(out)]):
            assert main(command + ["--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"scenario error: {key}: "), err
            assert "Traceback" not in err
        assert not out.exists()

    def test_exact_mode_limits_are_inclusive(self, tmp_path):
        doc = copy.deepcopy(SMALL_SCENARIO)
        exact_mode(doc, horizon=12, programs=6)
        assert main(["validate", "--config", str(write_scenario(tmp_path, doc))]) == 0

    def test_negative_seed_override(self, scenario, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", str(scenario), "--seed", "-1",
                     "--out", str(out)]) == 2
        assert "scenario error: seed: " in capsys.readouterr().err
        assert not out.exists()

    def test_validate_only_is_gone(self, scenario, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(scenario), "--out", str(tmp_path / "out"),
                  "--validate-only"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --validate-only" in capsys.readouterr().err

    # The scenario alone sets the scheduler mode, a snapshot records its own
    # seed, and --out alone sets where a run writes.
    @pytest.mark.parametrize("command,message", [
        (["run", "--out", "out", "--mode", "exact"], "unrecognized arguments: --mode"),
        (["schedule", "--tracks", "log.json", "--out", "out", "--mode", "exact"],
         "unrecognized arguments: --mode"),
        (["skymap", "--snapshot", "run", "--out", "out", "--seed", "7"],
         "unrecognized arguments: --seed"),
        (["run"], "required: --out"),
    ], ids=["run-mode", "schedule-mode", "skymap-seed", "run-without-out"])
    def test_removed_options_are_refused(self, scenario, capsys, command, message):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--config", str(scenario)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


class TestDefaults:
    MINIMAL = {
        "schema_version": 1,
        "scene": {"n_antennas": 4, "reference_freq_hz": 1.42e9,
                  "n_samples": 512, "sample_rate_hz": 1e6,
                  "sources": [
                      {"kind": "bpsk", "snr_db": 0, "baud_rate_hz": 1e5,
                       "direction": {"l": 0.1, "m": 0.2}},
                      {"kind": "cw", "snr_db": -3.0,
                       "direction": {"start": {"l": 0, "m": -0.5}}}]},
        "programs": [{"id": 3, "ra_deg": 90, "dec_deg": -45.0, "f_lo_hz": 1e9,
                      "f_hi_hz": 2e9, "duration_slots": 2, "priority": 1}],
        "scheduler": {"channels": {"f_start_hz": 1e9, "channel_width_hz": 1e6,
                                   "n_channels": 4},
                      "rfi_bands": [{"alpha_hz": 1e5, "f_lo_hz": 1e9,
                                     "f_hi_hz": 1.1e9}]},
    }

    def test_every_default(self, tmp_path):
        cfg = load_scenario(write_scenario(tmp_path, self.MINIMAL))
        assert cfg.seed == 0
        expected = arraysim.default_geometry(4, 1.42e9, 0, 6.0)
        assert np.array_equal(cfg.geometry.positions, expected.positions)
        assert cfg.geometry.f0 == 1.42e9
        assert (cfg.n_samples, cfg.sample_rate, cfg.system_noise_power) == (
            512, 1e6, 1.0)
        assert cfg.sources == [
            arraysim.SourceSpec("bpsk", 0.0, arraysim.DirectionLM(0.1, 0.2),
                                baud_rate=1e5, carrier_offset=0.0, freq=0.0,
                                phase=0.0, seed=None),
            arraysim.SourceSpec("cw", -3.0, arraysim.TrajectorySpec(
                arraysim.DirectionLM(0.0, -0.5), (0.0, 0.0)))]
        assert (cfg.frame_length, cfg.n_frames) == (512, 1)
        assert (cfg.max_detections, cfg.max_peaks) == (3, 2)
        assert cfg.skymap_grid == imaging.SkymapGrid(-1.0, 1.0, -1.0, 1.0, 128, 128)
        assert cfg.tracker_cfg == tracking.TrackerConfig(
            s_stat=1e-5, s_fast=5e-3, gate_min=0.01, alpha_tol=1e6 / 512,
            min_points=5)
        assert cfg.site == scheduling.SiteModel(0.0, 600.0, 0.0)
        assert cfg.programs == [scheduling.Program(
            3, np.deg2rad(90.0), np.deg2rad(-45.0), (1e9, 2e9), 2, 1.0)]
        assert (cfg.mode, cfg.horizon) == ("greedy", 12)
        assert cfg.sched_cfg == scheduling.SchedulerConfig(
            lam=1.0, risk_cap=0.5, exclusion_radius=0.1,
            bands={1e5: (1e9, 1.1e9)}, band_alpha_tol=1e6 / 512)
        assert cfg.channels == scheduling.ChannelGrid(1e9, 1e6, 4)
        for value in (cfg.sources[0].snr_db, cfg.site.slot_length,
                      cfg.programs[0].priority, cfg.tracker_cfg.alpha_tol):
            assert type(value) is float
        for value in (cfg.n_samples, cfg.frame_length, cfg.horizon,
                      cfg.max_detections, cfg.programs[0].duration):
            assert type(value) is int

    def test_optional_sections_may_be_left_out(self, tmp_path):
        doc = copy.deepcopy(self.MINIMAL)
        del doc["programs"], doc["scheduler"]
        doc["scene"]["sources"] = []
        cfg = load_scenario(write_scenario(tmp_path, doc))
        assert cfg.sources == [] and cfg.programs == []
        assert cfg.channels is None
        assert cfg.sched_cfg.bands == {}

    def test_null_where_the_default_is_none(self, tmp_path):
        doc = copy.deepcopy(self.MINIMAL)
        doc["scene"]["sources"][0]["seed"] = None
        doc["scheduler"]["channels"] = None
        doc["scene"]["positions_m"] = None
        cfg = load_scenario(write_scenario(tmp_path, doc))
        assert cfg.sources[0].seed is None
        assert cfg.tracker_cfg.alpha_tol == 1e6 / 512
        assert cfg.channels is None
        assert cfg.geometry.n_antennas == 4

    def test_positions_replace_the_random_array(self, tmp_path):
        doc = copy.deepcopy(self.MINIMAL)
        del doc["scene"]["n_antennas"]
        doc["scene"]["positions_m"] = [[0, 0], [1.5, 0], [0, 2]]
        cfg = load_scenario(write_scenario(tmp_path, doc))
        assert np.array_equal(cfg.geometry.positions,
                              [[0.0, 0.0], [1.5, 0.0], [0.0, 2.0]])
        for n_antennas in (None, 3):  # null, or the row count, agrees
            doc["scene"]["n_antennas"] = n_antennas
            assert load_scenario(write_scenario(tmp_path, doc)).geometry.n_antennas == 3


def parsed_skymap(path):
    """The map a skymap CSV holds, from its header line and values."""
    lines = path.read_text().splitlines()
    head = dict(item.split("=") for item in lines[0].split()[1:])
    power = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    grid = imaging.SkymapGrid(*(float(head[k]) for k in ("l_min", "l_max", "m_min", "m_max")),
                              *power.shape)
    return imaging.Skymap(grid, power, head["kind"], float(head["alpha_hz"]))


def parsed_spectrum(path):
    lines = path.read_text().splitlines()
    alphas, mags = np.loadtxt(lines[2:], delimiter=",", ndmin=2, unpack=True)
    return cyclospec.CyclicSpectrum(alphas, mags, lines[0] == "# conjugate=true")


class TestRun:
    def test_full_run_outputs(self, scenario, tmp_path):
        out = tmp_path / "run_out"
        assert main(["run", "--config", str(scenario), "--out", str(out)]) == 0

        assert np.load(out / "snapshot.npy").shape == (12, 2048)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 7
        assert "generated_at" in manifest

        for frame in range(2):
            power = np.loadtxt(out / "skymaps" / f"frame_{frame:04d}_classical.csv",
                               delimiter=",")
            assert power.shape == (48, 48)
            spec = out / "spectra" / f"frame_{frame:04d}_conj.csv"
            assert spec.read_text().startswith("# conjugate=true\n")
            record = json.loads((out / "tracks" / f"frame_{frame:04d}.json").read_text())
            assert "tracks" in record
        # Every map and spectrum is the per-value `%.17g` text of its values.
        maps = sorted((out / "skymaps").glob("*.csv"))
        spectra = sorted((out / "spectra").glob("*.csv"))
        assert len(maps) >= 2 and len(spectra) == 4
        for path in maps:
            assert path.read_bytes() == reference_skymap_csv(parsed_skymap(path)), path
        for path in spectra:
            assert path.read_bytes() == reference_spectrum_csv(parsed_spectrum(path)), path

        assert not imaging._operator_cache  # freed when the run ends
        sched = json.loads((out / "schedule.json").read_text())
        assert len(sched["slots"]) == 4
        flags = np.loadtxt(out / "flagmask.csv", delimiter=",", dtype=int)
        assert flags.shape == (4, 8)

    def test_manifest_hashes_the_bytes_that_ran(self, scenario, tmp_path,
                                                monkeypatch):
        ran = scenario.read_bytes()

        def edit_then_run(cfg, out_dir):
            scenario.write_text(json.dumps(dict(SMALL_SCENARIO, seed=8)))
            run_pipeline(cfg, out_dir)

        monkeypatch.setattr(cli, "run_pipeline", edit_then_run)
        out = tmp_path / "out"
        assert main(["run", "--config", str(scenario), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_sha256"] == hashlib.sha256(ran).hexdigest()
        assert manifest["seed"] == 7

    def test_seed_override(self, scenario, tmp_path):
        out = tmp_path / "o"
        assert main(["run", "--config", str(scenario), "--out", str(out),
                     "--seed", "99"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 99

    def test_rerun_byte_identical(self, scenario, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", "--config", str(scenario), "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(scenario), "--out", str(out_b)]) == 0
        files = sorted(p.relative_to(out_a) for p in out_a.rglob("*")
                       if p.is_file() and p.name != "manifest.json")
        assert files
        for rel in files:
            assert filecmp.cmp(out_a / rel, out_b / rel, shallow=False), rel

    def test_other_scene_between_reruns(self, scenario, tmp_path):
        # Scene B (another seed, so another array) runs between two runs of
        # scene A in one process; nothing of B may reach A's second run.
        run = ["run", "--config", str(scenario), "--out"]
        assert main(run + [str(tmp_path / "a1")]) == 0
        assert main(run + [str(tmp_path / "b"), "--seed", "8"]) == 0
        assert main(run + [str(tmp_path / "a2")]) == 0
        assert tree_files(tmp_path / "a1") == tree_files(tmp_path / "a2")
        for rel in tree_files(tmp_path / "a1"):
            if rel.name != "manifest.json":
                assert filecmp.cmp(tmp_path / "a1" / rel, tmp_path / "a2" / rel,
                                   shallow=False), rel
        assert not filecmp.cmp(tmp_path / "a1" / "skymaps" / "frame_0000_classical.csv",
                               tmp_path / "b" / "skymaps" / "frame_0000_classical.csv",
                               shallow=False)

    def test_rerun_without_channels_removes_flag_mask(self, scenario, tmp_path):
        doc = copy.deepcopy(SMALL_SCENARIO)
        del doc["scheduler"]["channels"]
        plain = write_scenario(tmp_path, doc, "plain.json")
        out = tmp_path / "out"
        assert main(["run", "--config", str(scenario), "--out", str(out)]) == 0
        assert (out / "flagmask.csv").exists()
        assert main(["run", "--config", str(plain), "--out", str(out)]) == 0
        assert not (out / "flagmask.csv").exists()
        fresh = tmp_path / "fresh"
        assert main(["run", "--config", str(plain), "--out", str(fresh)]) == 0
        assert tree_files(out) == tree_files(fresh)

    def test_failed_rerun_leaves_no_earlier_plan(self, scenario, tmp_path,
                                                 monkeypatch):
        out = tmp_path / "out"
        assert main(["run", "--config", str(scenario), "--out", str(out)]) == 0
        spectrum = cyclospec.cyclic_spectrum

        def fail_in_frame_1(snap, *args, **kwargs):
            if snap.t0 > 0:
                raise RuntimeError("injected failure")
            return spectrum(snap, *args, **kwargs)

        monkeypatch.setattr(cyclospec, "cyclic_spectrum", fail_in_frame_1)
        assert main(["run", "--config", str(scenario), "--out", str(out)]) == 3
        for name in ("manifest.json", "schedule.json", "flagmask.csv",
                     "tracks/frame_0001.json"):
            assert not (out / name).exists(), name

    def test_failed_write_stops_the_run(self, scenario, tmp_path, monkeypatch):
        # A map write fails on the writer thread; the run exits 3 before
        # that frame's log, and no thread outlives `main`.
        threads = threading.active_count()
        assert main(["run", "--config", str(scenario), "--out", str(tmp_path / "ok")]) == 0
        assert threading.active_count() == threads
        render = artifacts.skymap_csv
        classical = []

        def fail_on_frame_1(smap):
            if smap.kind == "classical":
                classical.append(smap)
                if len(classical) == 2:
                    raise OSError("injected write failure")
            return render(smap)

        monkeypatch.setattr(artifacts, "skymap_csv", fail_on_frame_1)
        out = tmp_path / "out"
        assert main(["run", "--config", str(scenario), "--out", str(out)]) == 3
        assert threading.active_count() == threads
        assert (out / "tracks" / "frame_0000.json").exists()
        for name in ("tracks/frame_0001.json", "manifest.json", "schedule.json"):
            assert not (out / name).exists(), name

    def test_frame_log_follows_its_files(self, scenario, tmp_path, monkeypatch):
        # Each frame's maps and spectra are complete when its log is written.
        # Slow PGM rendering makes a log written before its join miss files.
        log, pgm = tracking.write_frame_log, artifacts.skymap_pgm
        out = tmp_path / "out"
        seen = {}

        def sizes(frame):
            return {p.relative_to(out): p.stat().st_size for sub in ("skymaps", "spectra")
                    for p in (out / sub).glob(f"{frame}_*")}

        def slow_pgm(smap):
            time.sleep(0.05)
            return pgm(smap)

        def sizes_then_log(record, path):
            seen[path.stem] = sizes(path.stem)
            log(record, path)

        monkeypatch.setattr(artifacts, "skymap_pgm", slow_pgm)
        monkeypatch.setattr(tracking, "write_frame_log", sizes_then_log)
        assert main(["run", "--config", str(scenario), "--out", str(out)]) == 0
        assert sorted(seen) == ["frame_0000", "frame_0001"]
        for frame, at_log in seen.items():
            assert len(at_log) == 8, frame  # 2 maps x 3 files, 2 spectra
            assert at_log == sizes(frame), frame

    def test_writer_calls_nothing_perfbench_wraps(self, scenario, tmp_path, monkeypatch):
        # perfbench's frame clock wraps every public `cyclospec` function, and
        # its Tracer, one span stack per process, every public `write_*` of
        # `cyclospec`, `imaging`, `tracking` and `scheduling`. A call from the
        # writer thread would open a frame or a span on the wrong thread.
        wrapped = {(cyclospec, name) for name in public_functions(cyclospec)}
        wrapped |= {(module, name) for module in (cyclospec, imaging, tracking, scheduling)
                    for name in public_functions(module) if name.startswith("write_")}
        assert (tracking, "write_frame_log") in wrapped
        calls = []

        def watch(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append((threading.current_thread() is threading.main_thread(),
                              f"{module.__name__}.{name}"))
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        for module, name in wrapped:
            watch(module, name)
        assert main(["run", "--config", str(scenario), "--out", str(tmp_path / "out")]) == 0
        assert ("cyclosky.tracking.write_frame_log" in
                {name for on_main, name in calls if on_main})
        assert [name for on_main, name in calls if not on_main] == []

    def test_rerun_with_fewer_frames_leaves_no_stale_frames(self, tmp_path):
        def frames_doc(n_frames):
            doc = copy.deepcopy(SMALL_SCENARIO)
            doc["scene"]["n_samples"] = 256 * n_frames
            doc["frames"]["length"] = 256
            return write_scenario(tmp_path, doc, f"scene{n_frames}.json")

        out = tmp_path / "out"
        assert main(["run", "--config", str(frames_doc(6)), "--out", str(out)]) == 0
        assert (out / "tracks" / "frame_0005.json").exists()
        (out / "skymaps" / "notes.txt").write_text("kept")
        assert main(["run", "--config", str(frames_doc(3)), "--out", str(out)]) == 0
        fresh = tmp_path / "fresh"
        assert main(["run", "--config", str(frames_doc(3)), "--out", str(fresh)]) == 0
        kept = tree_files(out) - {Path("skymaps/notes.txt")}
        assert (out / "skymaps" / "notes.txt").read_text() == "kept"
        assert kept == tree_files(fresh)
        frames = {p.name[:10] for p in kept if p.name.startswith("frame_")}
        assert frames == {"frame_0000", "frame_0001", "frame_0002"}


def public_functions(module):
    return [name for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")]


def plan_with_risk(risk, path):
    """`cli._plan` of a one-slot schedule of this risk, into `path`'s folder."""
    cfg = load_scenario(write_scenario(path.parent.parent, SMALL_SCENARIO))
    sched = scheduling.Schedule([None], [None], [risk], risk, 0.0, {}, [])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scheduling, "schedule", lambda *args: sched)
        cli._plan(cfg, [], path.parent)


JSON_WRITERS = {
    "snapshot_meta.json": lambda value, path: cli._write_json({"t0_s": value}, path),
    "manifest.json": lambda value, path: cli._write_json({"seed": value}, path),
    "frame_0000.json": lambda value, path: tracking.write_frame_log(
        {"time": value, "tracks": []}, path),
    "schedule.json": plan_with_risk,
}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", sorted(JSON_WRITERS))
def test_json_artifacts_are_strict(tmp_path, name, value):
    # A NaN or infinity raises before the file is opened: no file is left.
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(ValueError, match="JSON compliant"):
        JSON_WRITERS[name](value, out / name)
    assert list(out.iterdir()) == []


def tree_files(root):
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def streamed_doc(n_frames, length, n_antennas=48):
    doc = copy.deepcopy(SMALL_SCENARIO)
    doc["scene"].update(n_antennas=n_antennas, n_samples=n_frames * length)
    doc["frames"]["length"] = length
    doc["skymap"].update(n_l=16, n_m=16)
    return doc


class TestStreamedSnapshot:
    """A run makes, checks, writes and analyses one frame at a time in one
    reused buffer. CI also runs this class on one CPU."""

    @pytest.mark.parametrize("n_frames, length", [(3, 1280), (5, 768)])
    def test_snapshot_is_the_synthesized_record(self, tmp_path, n_frames, length):
        # At 48 antennas a noise block is 1280 columns wide, so frames of
        # 768 end inside blocks.
        path = write_scenario(tmp_path, streamed_doc(n_frames, length))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        saved = io.BytesIO()
        np.save(saved, synthesize(load_scenario(path).scene()).data)
        assert (out / "snapshot.npy").read_bytes() == saved.getvalue()
        assert not (out / "snapshot.npy.partial").exists()

    def test_run_holds_less_than_its_record(self, tmp_path):
        path = write_scenario(tmp_path, streamed_doc(12, 1024))
        record = 48 * 12 * 1024 * 16
        run = ["run", "--config", str(path), "--out"]
        assert main(run + [str(tmp_path / "warm")]) == 0
        tracemalloc.start()
        try:
            assert main(run + [str(tmp_path / "out")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < record, f"traced peak {peak} B, record {record} B"

    def test_failed_run_leaves_no_snapshot(self, tmp_path, monkeypatch):
        # Frame 2 of 4 fails. The earlier run's snapshot is gone from the
        # start, and the run leaves neither it nor the partial file.
        path = write_scenario(tmp_path, streamed_doc(4, 1024, n_antennas=12))
        out = tmp_path / "out"
        run = ["run", "--config", str(path), "--out", str(out)]
        assert main(run) == 0
        assert (out / "snapshot.npy").is_file()
        spectrum = cyclospec.cyclic_spectrum
        at_failure = []

        def fail_in_frame_2(snap, *args, **kwargs):
            if snap.t0 > 1.5 * 1024 / 1e6:
                at_failure.append(sorted(p.name for p in out.glob("snapshot*")))
                raise RuntimeError("injected failure")
            return spectrum(snap, *args, **kwargs)

        monkeypatch.setattr(cyclospec, "cyclic_spectrum", fail_in_frame_2)
        assert main(run) == 3
        assert at_failure[0] == ["snapshot.npy.partial", "snapshot_meta.json"]
        assert not (out / "snapshot.npy").exists()
        assert not (out / "snapshot.npy.partial").exists()
        assert (out / "tracks" / "frame_0001.json").exists()
        assert not (out / "tracks" / "frame_0002.json").exists()


class TestSkymapCommand:
    def test_classical_and_cyclic(self, scenario, tmp_path):
        run_out = tmp_path / "run_out"
        assert main(["run", "--config", str(scenario), "--out", str(run_out)]) == 0
        sky_out = tmp_path / "sky"
        assert main(["skymap", "--config", str(scenario),
                     "--snapshot", str(run_out), "--out", str(sky_out)]) == 0
        assert (sky_out / "skymap.csv").read_text().startswith(
            "# kind=classical alpha_hz=0 l_min=-1 l_max=1 m_min=-1 m_max=1\n")

        cyc_out = tmp_path / "cyc"
        assert main(["skymap", "--config", str(scenario),
                     "--snapshot", str(run_out), "--alpha", "125000",
                     "--conjugate", "--out", str(cyc_out)]) == 0
        assert (cyc_out / "skymap.csv").read_text().startswith(
            "# kind=conjugate_cyclic alpha_hz=125000 l_min=-1 l_max=1 m_min=-1 m_max=1\n")
        power = np.loadtxt(cyc_out / "skymap.csv", delimiter=",")
        # The BPSK source dominates the conjugate cyclic map.
        grid = load_scenario(scenario).skymap_grid
        i, j = np.unravel_index(np.argmax(power), power.shape)
        assert abs(grid.l_axis()[i] - 0.4) < 0.1
        assert abs(grid.m_axis()[j] + 0.3) < 0.1

    def test_geometry_comes_from_snapshot(self, tmp_path):
        # The run overrides the scenario seed, so the array it simulates
        # differs from the one the scenario alone builds.
        doc = copy.deepcopy(SMALL_SCENARIO)
        doc["seed"] = 0
        path = write_scenario(tmp_path, doc)
        run_out = tmp_path / "run_out"
        assert main(["run", "--config", str(path), "--out", str(run_out),
                     "--seed", "7"]) == 0
        sky_out = tmp_path / "sky"
        assert main(["skymap", "--config", str(path), "--snapshot", str(run_out),
                     "--alpha", "125000", "--conjugate", "--out", str(sky_out)]) == 0
        power = np.loadtxt(sky_out / "skymap.csv", delimiter=",")

        cfg = load_scenario(path, seed_override=7)
        meta = json.loads((run_out / "snapshot_meta.json").read_text())
        assert meta["seed"] == 7
        assert np.array_equal(meta["positions_m"], cfg.geometry.positions)
        snap = ArraySnapshot(np.load(run_out / "snapshot.npy"),
                             meta["sample_rate_hz"], meta["t0_s"])
        expected = cyclic_skymap(cyclic_corr_matrix(snap, 125000.0, True),
                                 cfg.geometry, cfg.skymap_grid)
        assert np.array_equal(power, expected.power)
        i, j = np.unravel_index(np.argmax(power), power.shape)
        assert abs(cfg.skymap_grid.l_axis()[i] - 0.4) < 0.1
        assert abs(cfg.skymap_grid.m_axis()[j] + 0.3) < 0.1

    def test_snapshot_without_seed_gives_same_skymap(self, scenario, tmp_path):
        # The snapshot records its seed, but `skymap` reads only its geometry.
        run_out = tmp_path / "run_out"
        assert main(["run", "--config", str(scenario), "--out", str(run_out)]) == 0
        skymap = ["skymap", "--config", str(scenario), "--snapshot", str(run_out),
                  "--alpha", "125000", "--conjugate", "--out"]
        assert main(skymap + [str(tmp_path / "with_seed")]) == 0
        meta_path = run_out / "snapshot_meta.json"
        meta = json.loads(meta_path.read_text())
        del meta["seed"]
        meta_path.write_text(json.dumps(meta))
        assert main(skymap + [str(tmp_path / "without_seed")]) == 0
        for name in ("skymap.csv", "skymap.pgm", "skymap.pgm.meta"):
            assert ((tmp_path / "with_seed" / name).read_bytes()
                    == (tmp_path / "without_seed" / name).read_bytes())

    @pytest.mark.parametrize("key", ["positions_m", "reference_freq_hz",
                                     "sample_rate_hz", "t0_s"])
    def test_snapshot_without_geometry_is_runtime_error(self, scenario, tmp_path,
                                                        capsys, key):
        run_out = tmp_path / "run_out"
        assert main(["run", "--config", str(scenario), "--out", str(run_out)]) == 0
        meta_path = run_out / "snapshot_meta.json"
        meta = json.loads(meta_path.read_text())
        del meta[key]
        meta_path.write_text(json.dumps(meta))
        assert main(["skymap", "--config", str(scenario), "--snapshot", str(run_out),
                     "--out", str(tmp_path / "sky")]) == 3
        assert f"{meta_path} lacks {key};" in capsys.readouterr().err
        assert not (tmp_path / "sky" / "skymap.csv").exists()

    def test_non_finite_snapshot_is_runtime_error(self, scenario, tmp_path, capsys):
        run_out = tmp_path / "run_out"
        assert main(["run", "--config", str(scenario), "--out", str(run_out)]) == 0
        data = np.load(run_out / "snapshot.npy")
        data[3, 100] = np.nan
        np.save(run_out / "snapshot.npy", data)
        assert main(["skymap", "--config", str(scenario), "--snapshot", str(run_out),
                     "--out", str(tmp_path / "sky")]) == 3
        assert "1 non-finite samples" in capsys.readouterr().err
        assert not (tmp_path / "sky" / "skymap.csv").exists()

    def test_conjugate_without_alpha_is_usage_error(self, scenario, tmp_path, capsys):
        # A classical map has no conjugate form; the flag was once ignored.
        with pytest.raises(SystemExit) as excinfo:
            main(["skymap", "--config", str(scenario), "--snapshot", str(tmp_path),
                  "--conjugate", "--out", str(tmp_path / "sky")])
        assert excinfo.value.code == 2
        assert "skymap --conjugate needs --alpha" in capsys.readouterr().err
        assert not (tmp_path / "sky").exists()

    def test_nan_alpha_is_runtime_error(self, scenario, tmp_path, capsys):
        run_out = tmp_path / "run_out"
        assert main(["run", "--config", str(scenario), "--out", str(run_out)]) == 0
        assert main(["skymap", "--config", str(scenario), "--snapshot", str(run_out),
                     "--alpha", "nan", "--out", str(tmp_path / "sky")]) == 3
        assert "not nan" in capsys.readouterr().err
        assert not (tmp_path / "sky").exists()

    def test_missing_snapshot_is_runtime_error(self, scenario, tmp_path):
        assert main(["skymap", "--config", str(scenario),
                     "--snapshot", str(tmp_path / "nothing"),
                     "--out", str(tmp_path / "sky")]) == 3


def moving_exact_scenario(tmp_path):
    """The small scene with its BPSK moving above `s_fast`, planned exactly."""
    doc = copy.deepcopy(SMALL_SCENARIO)
    doc["scene"]["sources"][0]["direction"] = {"start": {"l": 0.4, "m": -0.3},
                                               "rate": [60.0, -30.0]}
    doc["frames"]["length"] = 256
    exact_mode(doc, horizon=12, programs=3)
    return write_scenario(tmp_path, doc, "moving.json")


class TestScheduleCommand:
    def test_schedule_from_frame_log(self, scenario, tmp_path):
        # Planning from the run's last frame log reproduces the run's plan.
        fig4 = Path(__file__).resolve().parent.parent / "scenarios" / "fig4.scenario"
        for name, config in [("small", scenario), ("fig4", fig4),
                             ("moving", moving_exact_scenario(tmp_path))]:
            run_out = tmp_path / name / "run_out"
            assert main(["run", "--config", str(config), "--out", str(run_out)]) == 0
            logs = sorted(run_out.glob("tracks/frame_*.json"))
            assert json.loads(logs[-1].read_text())["tracks"]
            sch_out = tmp_path / name / "sch"
            assert main(["schedule", "--config", str(config),
                         "--tracks", str(logs[-1]), "--out", str(sch_out)]) == 0
            for artifact in ("schedule.json", "flagmask.csv"):
                assert filecmp.cmp(run_out / artifact, sch_out / artifact,
                                   shallow=False), (name, artifact)
        sched = json.loads((tmp_path / "small" / "sch" / "schedule.json").read_text())
        assert len(sched["slots"]) == 4
        moving = json.loads((tmp_path / "moving" / "run_out" / "tracks" /
                             "frame_0007.json").read_text())
        assert [t["class"] for t in moving["tracks"]] == [tracking.FAST]

    def test_schedule_without_channels_removes_flag_mask(self, scenario, tmp_path):
        run_out = tmp_path / "run_out"
        assert main(["run", "--config", str(scenario), "--out", str(run_out)]) == 0
        logs = sorted(run_out.glob("tracks/frame_*.json"))
        doc = copy.deepcopy(SMALL_SCENARIO)
        del doc["scheduler"]["channels"]
        plain = write_scenario(tmp_path, doc, "plain.json")
        sch_out = tmp_path / "sch"
        for config in (scenario, plain):
            assert main(["schedule", "--config", str(config),
                         "--tracks", str(logs[-1]), "--out", str(sch_out)]) == 0
        assert not (sch_out / "flagmask.csv").exists()
        assert (sch_out / "schedule.json").exists()

    @pytest.mark.parametrize("name, edit, named", [
        ("snapshot_meta.json", None, "lacks key 'tracks'"),
        ("no_model.json", lambda log: log["tracks"][0].pop("model"),
         "lacks key 'model'"),
        ("no_rate.json", lambda log: log["tracks"][0]["model"].pop("dl_dt"),
         "'dl_dt'"),
        ("bogus_class.json", lambda log: log["tracks"][0].update({"class": "bogus"}),
         "has unknown class 'bogus'"),
        ("null_model.json",
         lambda log: log["tracks"][0].update({"class": "slow", "model": None}),
         "but has no model"),
        ("nan_power.json", lambda log: log["tracks"][0].update({"power": float("nan")}),
         "holds a non-finite number"),
        ("inf_rate.json",
         lambda log: log["tracks"][0]["model"].update({"dl_dt": float("inf")}),
         "holds a non-finite number"),
    ])
    def test_not_a_frame_log_is_runtime_error(self, scenario, tmp_path, capsys,
                                              name, edit, named):
        run_out = tmp_path / "run_out"
        assert main(["run", "--config", str(scenario), "--out", str(run_out)]) == 0
        path = run_out / name
        if edit is not None:
            log = json.loads(sorted(run_out.glob("tracks/frame_*.json"))[-1].read_text())
            assert log["tracks"] and log["tracks"][0]["model"] is not None
            edit(log)
            path.write_text(json.dumps(log))
        sch_out = tmp_path / "sch"
        assert main(["schedule", "--config", str(scenario), "--tracks", str(path),
                     "--out", str(sch_out)]) == 3
        err = capsys.readouterr().err
        assert f"ValueError: {path} is not a frame log" in err
        assert named in err
        assert not (sch_out / "schedule.json").exists()

    def test_mode_override_exact(self, scenario, tmp_path):
        # The scenario is the one place that sets the scheduler mode.
        run_out = tmp_path / "run_out"
        assert main(["run", "--config", str(scenario), "--out", str(run_out)]) == 0
        logs = sorted(run_out.glob("tracks/frame_*.json"))
        doc = copy.deepcopy(SMALL_SCENARIO)
        doc["scheduler"]["mode"] = "exact"
        exact = write_scenario(tmp_path, doc, "exact.json")
        sch_out = tmp_path / "sch"
        assert main(["schedule", "--config", str(exact),
                     "--tracks", str(logs[-1]), "--out", str(sch_out)]) == 0
        assert len(json.loads((sch_out / "schedule.json").read_text())["slots"]) == 4
