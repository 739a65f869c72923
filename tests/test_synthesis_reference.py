"""`synthesize` against the body it replaced, bit for bit.

`reference_synthesize` is the former body: every source steered per
MOTION_BLOCK block, static ones included, and the noise added through one
complex array. `synthesize` now steers a static source once over the whole
record and adds the real and imaginary noise parts in place.
"""

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
