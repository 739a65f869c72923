"""End-to-end truth gates: the shipped fig4 scene ends with one live track per
seed, and it is the BPSK emitter's; and the plan a run makes risks no more
than the plan made from the true emitters.

Each seed runs `cyclosky run` and scores the last frame log against the
scene: a track is true when it has the emitter's conjugate flag, an alpha
within one alpha-grid step of twice the carrier, and, at the centre of the
frame of its last point, a position within one pixel pitch.
"""

import json
import sys
from pathlib import Path

import pytest

from cyclosky.cli import load_scenario, main
from cyclosky.scheduling import corruption_risk, schedule, target_position
from cyclosky.tracking import STATIONARY, MotionFit, RfiTrack, TrackStats, predict

ROOT = Path(__file__).resolve().parent.parent
SCENARIO = ROOT / "scenarios" / "fig4.scenario"
# The benchmark's truth scorer is the one scorer; it also handles movers.
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import emitters, score_tracks  # noqa: E402


@pytest.mark.parametrize("seed", range(10))
def test_fig4_ends_with_the_true_track_alone(seed, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", str(SCENARIO), "--seed", str(seed),
                 "--out", str(out)]) == 0
    doc = json.loads(SCENARIO.read_bytes())
    last = sorted((out / "tracks").glob("frame_*.json"))[-1]
    assert score_tracks(doc, json.loads(last.read_bytes())) == (1, 1, 1, 1)


def oracle_tracks(doc):
    """One stationary track per emitter at its true direction and alpha,
    fitted exactly: zero residual, model and stats at that position."""
    tracks = []
    for k, (conjugate, alpha, direction) in enumerate(emitters(doc)):
        l, m = direction["l"], direction["m"]
        tracks.append(RfiTrack(k, alpha, conjugate, [], STATIONARY,
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
            t = cfg.site.slot_time(slot)
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
