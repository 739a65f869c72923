"""`synthesize` against the body it replaced, bit for bit.

`reference_synthesize` is the former body: every source steered per
MOTION_BLOCK block, static ones included, and the noise drawn as two M x N
arrays and added through one complex array. `synthesize` steers a static
source in column blocks and draws the noise on a worker thread in row
blocks of about BLOCK_SAMPLES, added in draw order as they arrive.
"""

import threading
from pathlib import Path

import numpy as np
import pytest

from cyclosky import arraysim
from cyclosky.arraysim import (DirectionLM, Scene, SourceSpec, TrajectorySpec,
                               default_geometry, steering_vector, synthesize)
from cyclosky.cli import load_scenario

FIG4 = Path(__file__).resolve().parent.parent / "scenarios" / "fig4.scenario"


def reference_synthesize(scene):
    geom = scene.geometry
    m = geom.n_antennas
    n = scene.n_samples
    data = np.zeros((m, n), dtype=np.complex128)
    for index, src in enumerate(scene.sources):
        wave = arraysim._source_waveform(src, scene, index)
        traj = src.direction
        if isinstance(traj, DirectionLM):
            traj = TrajectorySpec(traj)
        traj.position(scene.t0)
        traj.position(scene.t0 + n / scene.sample_rate)
        for start in range(0, n, arraysim.MOTION_BLOCK):
            stop = min(start + arraysim.MOTION_BLOCK, n)
            tc = scene.t0 + (start + stop) / 2.0 / scene.sample_rate
            a = steering_vector(geom, traj.position(tc))
            data[:, start:stop] += a[:, None] * wave[None, start:stop]
    if scene.system_noise_power > 0:
        rng = np.random.default_rng(arraysim._noise_seed(scene.seed))
        scale = np.sqrt(scene.system_noise_power / 2.0)
        data += scale * (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
    return data


def assert_same_bits(scene):
    got = synthesize(scene).data
    want = reference_synthesize(scene)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def sources(kind):
    bpsk = SourceSpec("bpsk", 0.0, DirectionLM(0.4, -0.3), baud_rate=1.25e5,
                      carrier_offset=6.25e4)
    astro = SourceSpec("astro", 5.0, DirectionLM(-0.35, 0.2))
    moving = SourceSpec("bpsk", 0.0, TrajectorySpec(DirectionLM(-0.2, 0.5), (20.0, -10.0)),
                        baud_rate=1e5, carrier_offset=1.875e5)
    cw = SourceSpec("cw", -3.0, DirectionLM(0.0, 0.0), freq=-1.5625e5, phase=0.3)
    return {"none": [], "static": [bpsk, astro, cw], "moving": [moving],
            "mixed": [bpsk, moving, astro]}[kind]


@pytest.mark.parametrize("seed", [0, 1, 2, 3001])
@pytest.mark.parametrize("noise", [0.0, 1.0, 0.25])
@pytest.mark.parametrize("kind", ["none", "static", "moving", "mixed"])
def test_synthesize_matches_former_body(kind, noise, seed):
    geom = default_geometry(12, 1.42e9, seed)
    # 1000 samples: the last motion block is a partial one.
    scene = Scene(geom, sources(kind), 1000, 1e6, noise, seed=seed, t0=1e-3)
    assert_same_bits(scene)


@pytest.mark.parametrize("seed", [3, 3001])
def test_fig4_scene_matches_former_body(seed):
    assert_same_bits(load_scenario(FIG4, seed_override=seed).scene())


@pytest.mark.parametrize("m", [2, 13, 49])
def test_partial_row_blocks_match_former_body(m):
    # Four noise rows per block, so every count here ends in a partial block;
    # the record is not a multiple of MOTION_BLOCK either.
    n = arraysim.BLOCK_SAMPLES // 4 - 100
    assert arraysim.BLOCK_SAMPLES // n == 4 and n % arraysim.MOTION_BLOCK
    geom = default_geometry(m, 1.42e9, m)
    assert_same_bits(Scene(geom, sources("mixed"), n, 1e6, 1.0, seed=m, t0=1e-3))


def test_record_longer_than_a_block_matches_former_body():
    # One row per block, and a record not a multiple of MOTION_BLOCK; at
    # 4 MHz the moving source stays on the disk.
    n = arraysim.BLOCK_SAMPLES + 1000
    geom = default_geometry(3, 1.42e9, 5)
    assert_same_bits(Scene(geom, sources("mixed"), n, 4e6, 0.25, seed=5))


def test_long_frames_shape_matches_former_body():
    geom = default_geometry(48, 1.42e9, 0)
    assert_same_bits(Scene(geom, sources("mixed"), 6 * 4096, 1e6, 1.0, seed=0))


def leaving_scene():
    # The second source sets below the horizon before the record ends; the
    # noise thread is drawing when the caller finds that.
    geom = default_geometry(48, 1.42e9, 0)
    leaving = SourceSpec("cw", 0.0, TrajectorySpec(DirectionLM(0.9, 0.0), (20.0, 0.0)),
                         freq=1e5)
    return Scene(geom, sources("static")[:1] + [leaving], 6 * 4096, 1e6, 1.0)


def test_trajectory_leaving_the_disk_stops_the_draw():
    with pytest.raises(ValueError) as want:
        reference_synthesize(leaving_scene())
    threads = threading.active_count()
    with pytest.raises(ValueError) as got:
        synthesize(leaving_scene())
    assert str(got.value) == str(want.value)
    assert "leaves the visible hemisphere" in str(got.value)
    assert threading.active_count() == threads


def test_noise_thread_failure_is_raised(monkeypatch):
    # The noise thread fails on its third block: the caller raises that error
    # instead of waiting for the block, and no thread is left.
    default_rng = np.random.default_rng

    class FailingRng:
        def __init__(self, seed):
            self.rng, self.blocks = default_rng(seed), 0

        def standard_normal(self, out):
            self.blocks += 1
            if self.blocks == 3:
                raise FloatingPointError("draw failed")
            return self.rng.standard_normal(out=out)

    scene = Scene(default_geometry(48, 1.42e9, 0), [], 6 * 4096, 1e6, 1.0)
    monkeypatch.setattr(arraysim.np.random, "default_rng", FailingRng)
    threads = threading.active_count()
    with pytest.raises(FloatingPointError, match="draw failed"):
        synthesize(scene)
    assert threading.active_count() == threads
