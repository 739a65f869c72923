"""Array geometry, steering vectors, and scene synthesis.

The narrowband model: each source contributes a(direction) * s(t) to the
antenna voltages, geometry entering as a pure phase at the reference
frequency. Moving sources use block-constant directions.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import signals

C_LIGHT = 299792458.0

# Moving sources hold their direction constant over blocks of this many
# samples, evaluated at the block center.
MOTION_BLOCK = 256
# The system noise comes in column blocks of about this many samples, each
# drawn from its own stream (`Synthesizer`).
NOISE_BLOCK_SAMPLES = 2 ** 16

KIND_ASTRO = "astro"
KIND_BPSK = "bpsk"
KIND_CW = "cw"


@dataclass(frozen=True)
class DirectionLM:
    """Direction cosines on the visible hemisphere (l^2 + m^2 <= 1)."""

    l: float
    m: float

    def __post_init__(self):
        if not self.l ** 2 + self.m ** 2 <= 1.0 + 1e-12:  # NaN fails this too
            raise ValueError(f"direction ({self.l}, {self.m}) is not on the unit disk")

    def distance(self, other) -> float:
        return float(np.hypot(self.l - other.l, self.m - other.m))

    @classmethod
    def onto_disk(cls, l, m):
        """(direction, outside): (l, m), or its projection onto the limb if outside."""
        norm = np.hypot(l, m)
        if norm > 1.0:
            return cls(l / norm, m / norm), True
        return cls(l, m), False


@dataclass
class TrajectorySpec:
    """Fixed or linearly drifting direction; rate in direction cosines / s."""

    start: DirectionLM
    rate: tuple = (0.0, 0.0)

    def position(self, t: float) -> DirectionLM:
        try:
            return DirectionLM(self.start.l + self.rate[0] * t,
                               self.start.m + self.rate[1] * t)
        except ValueError:
            raise ValueError(f"trajectory leaves the visible hemisphere at t={t:g} s")


@dataclass
class ArrayGeometry:
    """Planar antenna positions in meters plus the observing frequency."""

    positions: np.ndarray
    f0: float

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape[1] != 2:
            raise ValueError("positions must be an (M, 2) array")
        if self.positions.shape[0] < 2:
            raise ValueError("need at least two antennas")
        if len({tuple(p) for p in self.positions}) != len(self.positions):
            raise ValueError("antenna positions must be distinct")
        if not self.f0 > 0:
            raise ValueError("f0 must be positive")

    @property
    def n_antennas(self) -> int:
        return self.positions.shape[0]


@dataclass
class SourceSpec:
    """One source in the scene; snr_db is per antenna vs system noise."""

    kind: str
    snr_db: float
    direction: object  # DirectionLM or TrajectorySpec
    baud_rate: float = None
    carrier_offset: float = 0.0
    freq: float = 0.0
    phase: float = 0.0
    seed: int = None


@dataclass
class Scene:
    geometry: ArrayGeometry
    sources: list
    n_samples: int
    sample_rate: float
    system_noise_power: float = 1.0
    seed: int = 0
    t0: float = 0.0

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.system_noise_power < 0:
            raise ValueError("system_noise_power must be non-negative")
        if not self.sample_rate > 0:
            raise ValueError("sample_rate must be positive")


@dataclass
class ArraySnapshot:
    """M x N matrix of antenna voltages."""

    data: np.ndarray
    sample_rate: float
    t0: float = 0.0

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.complex128)
        if self.data.ndim != 2:
            raise ValueError("data must be an (M, N) matrix")
        bad = self.data.size - np.count_nonzero(np.isfinite(self.data))
        if bad:
            raise ValueError(f"data has {bad} non-finite samples")

    @property
    def n_antennas(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


def steering_vector(geom: ArrayGeometry, direction: DirectionLM) -> np.ndarray:
    """Unit-modulus phase pattern of a plane wave from `direction`."""
    x = geom.positions[:, 0]
    y = geom.positions[:, 1]
    return np.exp(-2j * np.pi * (geom.f0 / C_LIGHT) * (x * direction.l + y * direction.m))


def default_geometry(n_antennas, f0, seed, aperture_wavelengths=6.0) -> ArrayGeometry:
    """Pseudo-random layout in a disk of the given aperture (in wavelengths)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2,)))
    radius = aperture_wavelengths / 2.0 * C_LIGHT / f0
    r = radius * np.sqrt(rng.uniform(0, 1, n_antennas))
    phi = rng.uniform(0, 2 * np.pi, n_antennas)
    positions = np.stack([r * np.cos(phi), r * np.sin(phi)], axis=1)
    return ArrayGeometry(positions, f0)


def source_seed(scene_seed, index):
    """Per-source seed derived from the scene seed by source index."""
    return np.random.SeedSequence(scene_seed, spawn_key=(1, index))


def _source_waveform(src: SourceSpec, scene: Scene, index: int) -> np.ndarray:
    reference = scene.system_noise_power if scene.system_noise_power > 0 else 1.0
    power = 10.0 ** (src.snr_db / 10.0) * reference
    seed = src.seed if src.seed is not None else source_seed(scene.seed, index)
    if src.kind == KIND_ASTRO:
        return signals.gen_noise(scene.n_samples, power, seed)
    if src.kind == KIND_BPSK:
        return signals.gen_bpsk(scene.n_samples, src.baud_rate, src.carrier_offset,
                                scene.sample_rate, power, seed)
    if src.kind == KIND_CW:
        return signals.gen_cw(scene.n_samples, src.freq, scene.sample_rate,
                              power, src.phase)
    raise ValueError(f"unknown source kind {src.kind!r}")


class Synthesizer:
    """A scene's record, the sum of steered source waveforms plus i.i.d.
    system noise, made one column range at a time.

    A moving source keeps its direction over each MOTION_BLOCK block of the
    record, a static one over each noise block. The noise comes in column
    blocks `width` wide, a multiple of MOTION_BLOCK near NOISE_BLOCK_SAMPLES
    samples (the last block may be narrower). Block b is drawn from
    SeedSequence(seed, spawn_key=(0, b)), its M x w real parts first, then
    its imaginary parts, so any column range can be made on its own and a
    block has the same bits whichever thread draws it.
    """

    def __init__(self, scene: Scene):
        m = scene.geometry.n_antennas
        self.scene = scene
        self.width = MOTION_BLOCK * max(1, NOISE_BLOCK_SAMPLES // (m * MOTION_BLOCK))
        self._sources = []
        for index, src in enumerate(scene.sources):
            traj, block = src.direction, MOTION_BLOCK
            if isinstance(traj, DirectionLM):
                traj, block = TrajectorySpec(traj), self.width
            # Reject trajectories that set below the horizon mid-scene.
            traj.position(scene.t0)
            traj.position(scene.t0 + scene.n_samples / scene.sample_rate)
            self._sources.append((_source_waveform(src, scene, index), traj, block))
        self._kept = None  # (b, noise, None): the block the last range ended inside

    def fill(self, out, lo) -> ArraySnapshot:
        """Columns lo:lo + L of the record into `out`, an M x L array,
        returned as the checked snapshot that shares `out` and starts at
        scene.t0 + lo / sample_rate.

        One worker thread draws the noise blocks that the range touches
        while this thread steers the sources; this thread then adds the
        blocks in order. The block the range ends inside is kept for a range
        that starts in it, so ranges in order draw each block once."""
        scene = self.scene
        hi = lo + out.shape[1]
        blocks = range(lo // self.width,
                       -(-hi // self.width) if scene.system_noise_power > 0 else 0)
        kept, self._kept = self._kept, None
        draws = [kept] if kept and kept[0] in blocks else []
        # On an error, the `with` waits for the draws in flight.
        with ThreadPoolExecutor(1) as pool:
            # The blocks are allocated here, where they are freed, and the
            # worker only fills them: allocated on the worker, they made
            # long_frames' peak RSS vary by 3 MB from run to run.
            for b in blocks:
                if not (kept and b == kept[0]):
                    width = min(self.width, scene.n_samples - b * self.width)
                    noise = np.empty((2, len(out), width))
                    seed = np.random.SeedSequence(scene.seed, spawn_key=(0, b))
                    rng = np.random.default_rng(seed)
                    draws.append((b, noise, pool.submit(rng.standard_normal, out=noise)))
            out[...] = 0.0
            for wave, traj, block in self._sources:
                for start in range(lo - lo % block, hi, block):
                    stop = min(start + block, scene.n_samples)
                    tc = scene.t0 + (start + stop) / 2.0 / scene.sample_rate
                    a = steering_vector(scene.geometry, traj.position(tc))
                    dest = out[:, max(start, lo) - lo:min(stop, hi) - lo]
                    dest += a[:, None] * wave[None, max(start, lo):min(stop, hi)]
            for b, noise, draw in draws:
                if draw is not None:
                    draw.result()  # a failed draw re-raises here
                    noise *= np.sqrt(scene.system_noise_power / 2.0)
                start = b * self.width
                stop = start + noise.shape[2]
                dest = out[:, max(start, lo) - lo:min(stop, hi) - lo]
                part = noise[:, :, max(lo - start, 0):min(stop, hi) - start]
                np.add(dest.real, part[0], out=dest.real)
                np.add(dest.imag, part[1], out=dest.imag)
                if hi < stop:
                    self._kept = (b, noise, None)
        return ArraySnapshot(out, scene.sample_rate, scene.t0 + lo / scene.sample_rate)


def synthesize(scene: Scene) -> ArraySnapshot:
    """The whole record of `scene`; see `Synthesizer`."""
    data = np.empty((scene.geometry.n_antennas, scene.n_samples), dtype=np.complex128)
    return Synthesizer(scene).fill(data, 0)
