"""End-to-end truth gate: the shipped fig4 scene ends with one live track per
seed, and it is the BPSK emitter's.

Each seed runs `cyclosky run` and scores the last frame log against the
scene: a track is true when it has the emitter's conjugate flag, an alpha
within one alpha-grid step of twice the carrier, and, at the centre of the
frame of its last point, a position within one pixel pitch.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from cyclosky.cli import main

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "fig4.scenario"


def score(doc, record):
    """(emitters found, emitters, true tracks, live tracks) of a fixed-source
    scene at its last frame; BPSK and CW sources are the emitters."""
    fs = doc["scene"]["sample_rate_hz"]
    alpha_step = fs / doc["frames"]["length"]
    sky = doc["skymap"]
    pitch = max((sky["l_max"] - sky["l_min"]) / (sky["n_l"] - 1),
                (sky["m_max"] - sky["m_min"]) / (sky["n_m"] - 1))
    emitters = []
    for src in doc["scene"]["sources"]:
        offset = {"bpsk": src.get("carrier_offset_hz", 0.0),
                  "cw": src.get("freq_hz", 0.0)}.get(src["kind"])
        if offset is not None:
            emitters.append(((2.0 * offset) % fs, src["direction"]))
    found = set()
    true_tracks = 0
    for track in record["tracks"]:
        hit = False
        for k, (alpha, direction) in enumerate(emitters):
            if (track["conjugate"] and abs(track["alpha_hz"] - alpha) <= alpha_step
                    and np.hypot(track["position"][0] - direction["l"],
                                 track["position"][1] - direction["m"]) <= pitch):
                found.add(k)
                hit = True
        true_tracks += hit
    return len(found), len(emitters), true_tracks, len(record["tracks"])


@pytest.mark.parametrize("seed", range(10))
def test_fig4_ends_with_the_true_track_alone(seed, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", str(SCENARIO), "--seed", str(seed),
                 "--out", str(out)]) == 0
    doc = json.loads(SCENARIO.read_bytes())
    last = sorted((out / "tracks").glob("frame_*.json"))[-1]
    assert score(doc, json.loads(last.read_bytes())) == (1, 1, 1, 1)
