"""Workload inputs, made from the benchmark seed, and the truth they hold.

The three pipeline workloads are scenario documents derived from the shipped
`scenarios/fig4.scenario`; the program only ever sees the written file.
`null_sweep` is a set of stationary noise records for `cyclic_spectrum`.
"""

import json
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
FIG4 = ROOT / "scenarios" / "fig4.scenario"
PIPELINE = ("fig4", "long_frames", "many_frames")
WORKLOADS = PIPELINE + ("null_sweep",)

# Track precision varies from scene to scene by a third or more (fig4 holds
# 11 to 25 live tracks over seeds 0-11, one of them true), so each run pools
# the truth over this many scenes and runs every one of them at least once.
SCENES_PER_RUN = 5

# null_sweep: each operation scans this many (short, long) record pairs at
# the 16 on-grid alphas of acceptance criterion 4.
NULL_PAIRS = 4
NULL_ANTENNAS = 8
NULL_SAMPLE_RATE = 1e6
NULL_ALPHAS = np.arange(1, 17) * NULL_SAMPLE_RATE / 1024


def scene_seeds(seed):
    """Scenario seeds of one run; distinct across benchmark seeds."""
    return [1000 * seed + j for j in range(SCENES_PER_RUN)]


def scenario(workload, seed, tiny=False):
    """The scenario document of a pipeline workload at one scenario seed."""
    doc = json.loads(FIG4.read_text())
    doc["seed"] = seed
    scene = doc["scene"]
    if workload == "long_frames":
        # Scan-bound: long frames on a coarse sky.
        scene["n_antennas"] = 48
        scene["n_samples"] = 6 * 4096
        doc["frames"]["length"] = 4096
        doc["skymap"].update(n_l=32, n_m=32)
    elif workload == "many_frames":
        # Map-bound: short frames, more detections and peaks per frame, a
        # moving emitter, and the exact scheduler.
        scene["n_samples"] = 12 * 256
        doc["frames"]["length"] = 256
        pitch = 2.0 / (doc["skymap"]["n_l"] - 1)
        scene["sources"] += [
            {"kind": "bpsk", "snr_db": 0.0, "baud_rate_hz": 100000.0,
             "carrier_offset_hz": 187500.0,
             "direction": {"start": {"l": -0.2, "m": 0.5}, "rate": [20.0, -10.0]}},
            {"kind": "cw", "snr_db": 0.0, "freq_hz": -156250.0,
             "direction": {"l": -1.0 + 30 * pitch, "m": -1.0 + 90 * pitch}},
        ]
        doc["analysis"].update(max_detections_per_frame=4, max_peaks_per_alpha=3)
        doc["programs"] = [
            {"id": i + 1, "ra_deg": 10.0 + 50.0 * i, "dec_deg": -30.0 - 5.0 * i,
             "f_lo_hz": 1419000000.0, "f_hi_hz": 1421000000.0,
             "duration_slots": 1 + i % 3, "priority": 1.0 + i}
            for i in range(6)]
        doc["scheduler"].update(mode="exact", horizon_slots=12)
    elif workload != "fig4":
        raise ValueError(f"not a pipeline workload: {workload}")
    if tiny:
        frames = 3 if workload == "many_frames" else 2
        scene["n_antennas"] = 8
        scene["n_samples"] = frames * 256
        doc["frames"]["length"] = 256
        doc["skymap"].update(n_l=16, n_m=16)
    return doc


def expected_artifacts(doc):
    """Files every successful `run` of the scenario writes."""
    n_frames = doc["scene"]["n_samples"] // doc["frames"]["length"]
    analysis = doc["analysis"]
    names = ["snapshot.npy", "snapshot_meta.json", "schedule.json", "manifest.json"]
    if doc["scheduler"].get("channels") is not None:
        names.append("flagmask.csv")
    for k in range(n_frames):
        names.append(f"tracks/frame_{k:04d}.json")
        stem = f"skymaps/frame_{k:04d}_classical"
        names += [stem + ".csv", stem + ".pgm", stem + ".pgm.meta"]
        if analysis.get("non_conjugate", True):
            names.append(f"spectra/frame_{k:04d}_nonconj.csv")
        if analysis.get("conjugate", True):
            names.append(f"spectra/frame_{k:04d}_conj.csv")
    return names


def _position(direction, t):
    if "start" in direction:
        rate = direction.get("rate", [0.0, 0.0])
        return (direction["start"]["l"] + rate[0] * t,
                direction["start"]["m"] + rate[1] * t)
    return direction["l"], direction["m"]


def emitters(doc):
    """Cyclostationary sources: (conjugate, alpha_hz, direction document).

    Rectangular BPSK and CW tones carry their zero-lag feature in the
    conjugate statistic at twice the carrier (or tone) frequency, folded
    into the conjugate scan's [0, sample_rate) grid.
    """
    fs = doc["scene"]["sample_rate_hz"]
    out = []
    for src in doc["scene"]["sources"]:
        if src["kind"] == "bpsk":
            out.append((True, (2.0 * src.get("carrier_offset_hz", 0.0)) % fs,
                        src["direction"]))
        elif src["kind"] == "cw":
            out.append((True, (2.0 * src.get("freq_hz", 0.0)) % fs, src["direction"]))
    return out


def score_tracks(doc, final_record):
    """(emitters found, emitters, true tracks, live tracks) at the last frame.

    A live track is true when some emitter has its conjugate flag, an alpha
    within one alpha-grid step and, at the centre of the frame that gave
    the track its last point, a position within one pixel pitch.
    """
    fs = doc["scene"]["sample_rate_hz"]
    frame_len = doc["frames"]["length"]
    alpha_step = fs / frame_len
    sky = doc["skymap"]
    pitch = max((sky["l_max"] - sky["l_min"]) / (sky["n_l"] - 1),
                (sky["m_max"] - sky["m_min"]) / (sky["n_m"] - 1))
    truth = emitters(doc)
    found = set()
    true_tracks = 0
    for track in final_record["tracks"]:
        t_last = (track["stats"]["t_last"] if track["stats"] is not None
                  else final_record["time"])
        t_mid = t_last + frame_len / (2.0 * fs)
        hit = False
        for k, (conjugate, alpha, direction) in enumerate(truth):
            l, m = _position(direction, t_mid)
            if (track["conjugate"] == conjugate
                    and abs(track["alpha_hz"] - alpha) <= alpha_step
                    and np.hypot(track["position"][0] - l,
                                 track["position"][1] - m) <= pitch):
                found.add(k)
                hit = True
        true_tracks += hit
    return len(found), len(truth), true_tracks, len(final_record["tracks"])


def null_records(seed, tiny=False):
    """(short, long) pairs of stationary unit-power noise records."""
    short, long_ = (1024, 4096) if tiny else (16384, 65536)
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    def record(n):
        shape = (NULL_ANTENNAS, n)
        return np.sqrt(0.5) * (rng.standard_normal(shape)
                               + 1j * rng.standard_normal(shape))
    return [(record(short), record(long_)) for _ in range(NULL_PAIRS)]


def write_scenario(doc, path):
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")
