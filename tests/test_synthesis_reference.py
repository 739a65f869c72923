"""`synthesize` and `Synthesizer.fill` against a plain serial body, bit for bit.

`reference_synthesize` steers every source per MOTION_BLOCK block, static
ones included, then draws the noise block by block on one thread: block b
of `width` columns from SeedSequence(seed, spawn_key=(0, b)), its M x w real
parts, then its imaginary parts, each scaled and added to its half of the
record. `synthesize` and `fill` steer a static source per noise block, draw
the blocks on a worker thread, and add each block to the columns of the
range they fill. Tests named `*_former_body` keep the names they had when
the reference was the body that an earlier `synthesize` replaced.
"""

import threading
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from cyclosky import arraysim
from cyclosky.arraysim import (DirectionLM, Scene, SourceSpec, Synthesizer,
                               TrajectorySpec, default_geometry, steering_vector,
                               synthesize)
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
        width = arraysim.MOTION_BLOCK * max(1, 2 ** 16 // (m * arraysim.MOTION_BLOCK))
        scale = np.sqrt(scene.system_noise_power / 2.0)
        for b, lo in enumerate(range(0, n, width)):
            hi = min(lo + width, n)
            seed = np.random.SeedSequence(scene.seed, spawn_key=(0, b))
            rng = np.random.default_rng(seed)
            real = rng.standard_normal((m, hi - lo))
            imag = rng.standard_normal((m, hi - lo))
            data.real[:, lo:hi] += scale * real
            data.imag[:, lo:hi] += scale * imag
    return data


def same_bits(got, want):
    return got.shape == want.shape and np.array_equal(got.view(np.uint64),
                                                      want.view(np.uint64))


def assert_same_bits(scene):
    assert same_bits(synthesize(scene).data, reference_synthesize(scene))


def sources(kind):
    bpsk = SourceSpec("bpsk", 0.0, DirectionLM(0.4, -0.3), baud_rate=1.25e5,
                      carrier_offset=6.25e4)
    astro = SourceSpec("astro", 5.0, DirectionLM(-0.35, 0.2))
    moving = SourceSpec("bpsk", 0.0, TrajectorySpec(DirectionLM(-0.2, 0.5), (20.0, -10.0)),
                        baud_rate=1e5, carrier_offset=1.875e5)
    cw = SourceSpec("cw", -3.0, DirectionLM(0.0, 0.0), freq=-1.5625e5, phase=0.3)
    return {"none": [], "static": [bpsk, astro, cw], "moving": [moving],
            "mixed": [bpsk, moving, astro]}[kind]


@pytest.mark.parametrize("m, width", [(8, 8192), (12, 5376), (48, 1280), (300, 256)])
def test_block_width(m, width):
    # A multiple of MOTION_BLOCK near 2^16 samples, and one motion block
    # once the antennas alone hold more.
    scene = Scene(default_geometry(m, 1.42e9, 0), [], 64, 1e6)
    assert Synthesizer(scene).width == width


@pytest.mark.parametrize("seed", [0, 1, 2, 3001])
@pytest.mark.parametrize("noise", [0.0, 1.0, 0.25])
@pytest.mark.parametrize("kind", ["none", "static", "moving", "mixed"])
def test_synthesize_matches_former_body(kind, noise, seed):
    # 48 antennas: blocks of 1280 columns. 3000 samples end in a partial
    # noise block and a partial motion block, and the mover crosses two
    # block edges.
    geom = default_geometry(48, 1.42e9, seed)
    assert_same_bits(Scene(geom, sources(kind), 3000, 1e6, noise, seed=seed, t0=1e-3))


@pytest.mark.parametrize("noise", [0.0, 1.0])
def test_record_narrower_than_a_block_matches_reference(noise):
    scene = Scene(default_geometry(12, 1.42e9, 4), sources("mixed"), 1000, 1e6, noise,
                  seed=4, t0=1e-3)
    assert Synthesizer(scene).width > 1000
    assert_same_bits(scene)


@pytest.mark.parametrize("seed", [3, 3001])
def test_fig4_scene_matches_former_body(seed):
    assert_same_bits(load_scenario(FIG4, seed_override=seed).scene())


@pytest.mark.parametrize("m", [2, 13, 49])
def test_partial_row_blocks_match_former_body(m):
    # Named for the row blocks of an earlier draw: two whole column blocks
    # and a partial one, in a record that is not a multiple of MOTION_BLOCK.
    geom = default_geometry(m, 1.42e9, m)
    width = Synthesizer(Scene(geom, [], 1, 1e6)).width
    n = 2 * width + 1000
    assert n % arraysim.MOTION_BLOCK
    assert_same_bits(Scene(geom, sources("mixed"), n, 4e6, 1.0, seed=m, t0=1e-3))


def test_record_longer_than_a_block_matches_former_body():
    # 3 antennas: blocks of 21760 columns, the second one partial; at 4 MHz
    # the moving source stays on the disk.
    geom = default_geometry(3, 1.42e9, 5)
    scene = Scene(geom, sources("mixed"), 21760 + 1000, 4e6, 0.25, seed=5)
    assert Synthesizer(scene).width == 21760
    assert_same_bits(scene)


def test_long_frames_shape_matches_former_body():
    geom = default_geometry(48, 1.42e9, 0)
    assert_same_bits(Scene(geom, sources("mixed"), 6 * 4096, 1e6, 1.0, seed=0))


@pytest.mark.parametrize("length", [7, 256, 1000, 1280, 2600])
def test_fill_in_frames_draws_each_block_once(length, monkeypatch):
    # Frames in order, cutting noise and motion blocks anywhere, give the
    # reference's columns; a block a frame ends inside is kept for the next.
    geom = default_geometry(48, 1.42e9, 5)
    scene = Scene(geom, sources("mixed"), 5200, 1e6, 1.0, seed=5, t0=1e-3)
    want = reference_synthesize(scene)
    default_rng = np.random.default_rng
    drawn = []

    def counted(seed):
        if seed.spawn_key[0] == 0:  # a noise block, not a source
            drawn.append(seed.spawn_key[1])
        return default_rng(seed)

    monkeypatch.setattr(arraysim.np.random, "default_rng", counted)
    synth = Synthesizer(scene)
    out = np.empty((48, length), dtype=np.complex128)
    for lo in range(0, scene.n_samples, length):
        frame = out[:, :min(length, scene.n_samples - lo)]
        synth.fill(frame, lo)
        assert same_bits(frame, want[:, lo:lo + frame.shape[1]]), lo
    assert sorted(drawn) == list(range(5))  # 5200 columns: 4 blocks and 80


def test_fill_any_range_on_its_own():
    geom = default_geometry(48, 1.42e9, 6)
    scene = Scene(geom, sources("mixed"), 5200, 1e6, 1.0, seed=6)
    want = reference_synthesize(scene)
    synth = Synthesizer(scene)
    for lo, hi in [(3000, 3100), (100, 4000), (5199, 5200), (1280, 2560), (0, 5200)]:
        out = np.empty((48, hi - lo), dtype=np.complex128)
        synth.fill(out, lo)
        assert same_bits(out, want[:, lo:hi]), (lo, hi)


class OnTheCaller:
    """An executor that runs each draw on the calling thread, as it is
    submitted."""

    def __init__(self, workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args, **kwargs):
        done = Future()
        done.set_result(fn(*args, **kwargs))
        return done


def test_drawing_on_the_calling_thread_gives_the_same_bits(monkeypatch):
    scene = load_scenario(FIG4, seed_override=5).scene()
    want = synthesize(scene).data
    monkeypatch.setattr(arraysim, "ThreadPoolExecutor", OnTheCaller)
    assert same_bits(synthesize(scene).data, want)
    assert same_bits(synthesize(scene).data, reference_synthesize(scene))


def leaving_scene():
    # The second source sets below the horizon before the record ends; the
    # scene is rejected before any block is drawn.
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
    # The worker's third draw fails: the caller raises that error and no
    # thread is left.
    default_rng = np.random.default_rng
    lock = threading.Lock()
    rngs = []

    class FailingRng:
        def __init__(self, seed):
            self.rng = default_rng(seed)
            with lock:
                rngs.append(self)
                self.fails = len(rngs) == 3

        def standard_normal(self, out):
            if self.fails:
                raise FloatingPointError("draw failed")
            return self.rng.standard_normal(out=out)

    scene = Scene(default_geometry(48, 1.42e9, 0), [], 6 * 4096, 1e6, 1.0)
    monkeypatch.setattr(arraysim.np.random, "default_rng", FailingRng)
    threads = threading.active_count()
    with pytest.raises(FloatingPointError, match="draw failed"):
        synthesize(scene)
    assert threading.active_count() == threads
