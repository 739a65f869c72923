"""End-to-end truth gates: the shipped fig4 scene ends with one live track per
seed, and it is the BPSK emitter's; and the plan a run makes risks no more
than the plan made from the true emitters.

Each seed runs `cyclosky run` and scores the last frame log against the
scene: a track is true when it has the emitter's conjugate flag, an alpha
within one alpha-grid step of twice the carrier, and, at the centre of the
frame of its last point, a position within one pixel pitch.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from cyclosky.cli import load_scenario, main
from cyclosky.scheduling import corruption_risk, schedule, target_position
from cyclosky.tracking import STATIONARY, MotionFit, RfiTrack, TrackStats, predict

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "fig4.scenario"


def emitters(doc):
    """(conjugate alpha, direction) of each BPSK and CW source of a
    fixed-source scene: twice the carrier or tone, folded into [0, fs)."""
    fs = doc["scene"]["sample_rate_hz"]
    found = []
    for src in doc["scene"]["sources"]:
        offset = {"bpsk": src.get("carrier_offset_hz", 0.0),
                  "cw": src.get("freq_hz", 0.0)}.get(src["kind"])
        if offset is not None:
            found.append(((2.0 * offset) % fs, src["direction"]))
    return found


def score(doc, record):
    """(emitters found, emitters, true tracks, live tracks) of a fixed-source
    scene at its last frame; BPSK and CW sources are the emitters."""
    alpha_step = doc["scene"]["sample_rate_hz"] / doc["frames"]["length"]
    sky = doc["skymap"]
    pitch = max((sky["l_max"] - sky["l_min"]) / (sky["n_l"] - 1),
                (sky["m_max"] - sky["m_min"]) / (sky["n_m"] - 1))
    truth = emitters(doc)
    found = set()
    true_tracks = 0
    for track in record["tracks"]:
        hit = False
        for k, (alpha, direction) in enumerate(truth):
            if (track["conjugate"] and abs(track["alpha_hz"] - alpha) <= alpha_step
                    and np.hypot(track["position"][0] - direction["l"],
                                 track["position"][1] - direction["m"]) <= pitch):
                found.add(k)
                hit = True
        true_tracks += hit
    return len(found), len(truth), true_tracks, len(record["tracks"])


@pytest.mark.parametrize("seed", range(10))
def test_fig4_ends_with_the_true_track_alone(seed, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", str(SCENARIO), "--seed", str(seed),
                 "--out", str(out)]) == 0
    doc = json.loads(SCENARIO.read_bytes())
    last = sorted((out / "tracks").glob("frame_*.json"))[-1]
    assert score(doc, json.loads(last.read_bytes())) == (1, 1, 1, 1)


def oracle_tracks(doc):
    """One stationary track per emitter at its true direction and alpha,
    fitted exactly: zero residual, model and stats at that position."""
    tracks = []
    for k, (alpha, direction) in enumerate(emitters(doc)):
        l, m = direction["l"], direction["m"]
        tracks.append(RfiTrack(k, alpha, True, [], STATIONARY,
                               MotionFit(l, m, 0.0, 0.0, 0.0), TrackStats(0.0, 0.0, l, m)))
    return tracks


def true_risk(assignments, cfg, truth):
    """Summed corruption risk of a plan's assigned slots, each program pointed
    at its target, against the true tracks predicted at the slot's time."""
    programs = {p.id: p for p in cfg.programs}
    total = 0.0
    for slot, pid in enumerate(assignments):
        if pid is not None:
            p = programs[pid]
            t = slot * cfg.site.slot_length
            total += corruption_risk(target_position((p.ra, p.dec), cfg.site, slot),
                                     p.freq_span,
                                     [(predict(tr, t), tr.alpha) for tr in truth],
                                     cfg.sched_cfg)
    return total


@pytest.fixture(scope="module")
def plan_scenario(tmp_path_factory):
    """fig4 with program 1 at RA 29 deg, Dec -41 deg: it passes 0.036 from
    the BPSK at slot 0 and stays within the exclusion radius for slots 0-2,
    so a plan that ignores the emitter pays for it."""
    doc = json.loads(SCENARIO.read_bytes())
    doc["programs"][0].update(ra_deg=29.0, dec_deg=-41.0)
    path = tmp_path_factory.mktemp("plan") / "plan.scenario"
    path.write_text(json.dumps(doc))
    return path, doc


def plan(cfg, tracks):
    return schedule(cfg.programs, cfg.site, cfg.horizon, tracks, cfg.mode, cfg.sched_cfg)


@pytest.mark.parametrize("seed", range(10))
def test_fig4_plan_risks_no_more_than_the_oracle(seed, tmp_path, plan_scenario):
    path, doc = plan_scenario
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--seed", str(seed),
                 "--out", str(out)]) == 0
    cfg = load_scenario(path, seed)
    truth = oracle_tracks(doc)
    ran = json.loads((out / "schedule.json").read_bytes())
    oracle = plan(cfg, truth)
    ran_risk = true_risk([s["program"] for s in ran["slots"]], cfg, truth)
    oracle_risk = true_risk(oracle.assignments, cfg, truth)
    assert ran_risk <= oracle_risk + 1e-12, (
        f"run plan {ran['starts']}: true risk {ran_risk}, own {ran['total_risk']}; "
        f"oracle plan {oracle.starts}: true risk {oracle_risk}, own {oracle.total_risk}")


def test_plan_without_tracks_fails_the_plan_gate(plan_scenario):
    path, doc = plan_scenario
    cfg = load_scenario(path)
    truth = oracle_tracks(doc)
    blind = plan(cfg, [])
    assert true_risk(blind.assignments, cfg, truth) > (
        true_risk(plan(cfg, truth).assignments, cfg, truth) + 1e-12)
