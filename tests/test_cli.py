import copy
import filecmp
import json
from pathlib import Path

import numpy as np
import pytest

from cyclosky.arraysim import ArraySnapshot
from cyclosky.cli import load_scenario, main
from cyclosky.cyclospec import cyclic_corr_matrix, read_spectrum_csv
from cyclosky.imaging import cyclic_skymap, read_skymap_csv
from cyclosky.scheduling import read_flag_mask_csv, read_schedule_json
from cyclosky.tracking import read_frame_log

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
    "analysis": {"non_conjugate": True, "conjugate": True,
                 "max_detections_per_frame": 2, "max_peaks_per_alpha": 1},
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
    "output": {"directory": "out"},
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

    def test_validate_only_run(self, scenario):
        assert main(["run", "--config", str(scenario), "--validate-only"]) == 0

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

    def test_overflowing_frame_fails_loudly(self, tmp_path, capsys):
        # Power 10 ** 308.2 is finite, but its frame covariance overflows.
        doc = copy.deepcopy(SMALL_SCENARIO)
        doc["scene"]["sources"][0]["snr_db"] = 3082.0
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            assert main(["run", "--config", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "ValueError: frame 0: covariance has" in err
        assert "non-finite entries" in err
        assert not (out / "manifest.json").exists()

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 2

    def test_frame_length_must_divide(self, tmp_path, capsys):
        doc = copy.deepcopy(SMALL_SCENARIO)
        doc["frames"]["length"] = 1000
        path = write_scenario(tmp_path, doc)
        assert main(["validate", "--config", str(path)]) == 2


class TestRun:
    def test_full_run_outputs(self, scenario, tmp_path):
        out = tmp_path / "run_out"
        assert main(["run", "--config", str(scenario), "--out", str(out)]) == 0

        assert np.load(out / "snapshot.npy").shape == (12, 2048)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 7
        assert "generated_at" in manifest

        for frame in range(2):
            smap = read_skymap_csv(out / "skymaps" / f"frame_{frame:04d}_classical.csv")
            assert smap.power.shape == (48, 48)
            spec = read_spectrum_csv(out / "spectra" / f"frame_{frame:04d}_conj.csv")
            assert spec.conjugate
            record = read_frame_log(out / "tracks" / f"frame_{frame:04d}.json")
            assert "tracks" in record

        sched = read_schedule_json(out / "schedule.json")
        assert len(sched.assignments) == 4
        mask = read_flag_mask_csv(out / "flagmask.csv")
        assert mask.flags.shape == (4, 8)

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


def tree_files(root):
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


class TestSkymapCommand:
    def test_classical_and_cyclic(self, scenario, tmp_path):
        run_out = tmp_path / "run_out"
        assert main(["run", "--config", str(scenario), "--out", str(run_out)]) == 0
        sky_out = tmp_path / "sky"
        assert main(["skymap", "--config", str(scenario),
                     "--snapshot", str(run_out), "--out", str(sky_out)]) == 0
        smap = read_skymap_csv(sky_out / "skymap.csv")
        assert smap.kind == "classical"

        cyc_out = tmp_path / "cyc"
        assert main(["skymap", "--config", str(scenario),
                     "--snapshot", str(run_out), "--alpha", "125000",
                     "--conjugate", "--out", str(cyc_out)]) == 0
        cmap = read_skymap_csv(cyc_out / "skymap.csv")
        assert cmap.kind == "conjugate_cyclic"
        # The BPSK source dominates the conjugate cyclic map.
        i, j = np.unravel_index(np.argmax(cmap.power), cmap.power.shape)
        assert abs(cmap.grid.l_axis()[i] - 0.4) < 0.1
        assert abs(cmap.grid.m_axis()[j] + 0.3) < 0.1

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
        cmap = read_skymap_csv(sky_out / "skymap.csv")

        cfg = load_scenario(path, seed_override=7)
        meta = json.loads((run_out / "snapshot_meta.json").read_text())
        assert meta["seed"] == 7
        assert np.array_equal(meta["positions_m"], cfg.geometry.positions)
        snap = ArraySnapshot(np.load(run_out / "snapshot.npy"),
                             meta["sample_rate_hz"], meta["t0_s"])
        expected = cyclic_skymap(cyclic_corr_matrix(snap, 125000.0, True),
                                 cfg.geometry, cfg.skymap_grid)
        assert np.array_equal(cmap.power, expected.power)
        i, j = np.unravel_index(np.argmax(cmap.power), cmap.power.shape)
        assert abs(cmap.grid.l_axis()[i] - 0.4) < 0.1
        assert abs(cmap.grid.m_axis()[j] + 0.3) < 0.1

    def test_snapshot_seed_mismatch_is_runtime_error(self, scenario, tmp_path, capsys):
        run_out = tmp_path / "run_out"
        assert main(["run", "--config", str(scenario), "--out", str(run_out)]) == 0
        assert main(["skymap", "--config", str(scenario), "--snapshot", str(run_out),
                     "--seed", "8", "--out", str(tmp_path / "sky")]) == 3
        assert "seed 7" in capsys.readouterr().err

    def test_snapshot_without_geometry_is_runtime_error(self, scenario, tmp_path,
                                                        capsys):
        run_out = tmp_path / "run_out"
        assert main(["run", "--config", str(scenario), "--out", str(run_out)]) == 0
        meta_path = run_out / "snapshot_meta.json"
        meta = json.loads(meta_path.read_text())
        del meta["positions_m"]
        meta_path.write_text(json.dumps(meta))
        assert main(["skymap", "--config", str(scenario), "--snapshot", str(run_out),
                     "--out", str(tmp_path / "sky")]) == 3
        assert "positions_m" in capsys.readouterr().err
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

    def test_missing_snapshot_is_runtime_error(self, scenario, tmp_path):
        assert main(["skymap", "--config", str(scenario),
                     "--snapshot", str(tmp_path / "nothing"),
                     "--out", str(tmp_path / "sky")]) == 3


class TestScheduleCommand:
    def test_schedule_from_frame_log(self, scenario, tmp_path):
        run_out = tmp_path / "run_out"
        assert main(["run", "--config", str(scenario), "--out", str(run_out)]) == 0
        logs = sorted(run_out.glob("tracks/frame_*.json"))
        sch_out = tmp_path / "sch"
        assert main(["schedule", "--config", str(scenario),
                     "--tracks", str(logs[-1]), "--out", str(sch_out)]) == 0
        sched = read_schedule_json(sch_out / "schedule.json")
        assert len(sched.assignments) == 4
        assert (sch_out / "flagmask.csv").exists()

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

    def test_mode_override_exact(self, scenario, tmp_path):
        run_out = tmp_path / "run_out"
        assert main(["run", "--config", str(scenario), "--out", str(run_out)]) == 0
        logs = sorted(run_out.glob("tracks/frame_*.json"))
        sch_out = tmp_path / "sch"
        assert main(["schedule", "--config", str(scenario),
                     "--tracks", str(logs[-1]), "--mode", "exact",
                     "--out", str(sch_out)]) == 0
