"""Array geometry, steering vectors, and scene synthesis.

The narrowband model: each source contributes a(direction) * s(t) to the
antenna voltages, geometry entering as a pure phase at the reference
frequency. Moving sources use block-constant directions.
"""

import copy
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import signals

C_LIGHT = 299792458.0

# Moving sources hold their direction constant over blocks of this many
# samples, evaluated at the block center.
MOTION_BLOCK = 256
# Samples per row block of the noise draw or column block of a static source.
BLOCK_SAMPLES = 2 ** 16
# Noise blocks in flight between the drawing thread and the caller.
NOISE_BUFFERS = 8

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

    def frame(self, lo, hi) -> "ArraySnapshot":
        """Samples lo:hi in this snapshot's memory, not checked again."""
        out = copy.copy(self)
        out.data = self.data[:, lo:hi]
        out.t0 = self.t0 + lo / self.sample_rate
        return out


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


def _noise_seed(scene_seed):
    return np.random.SeedSequence(scene_seed, spawn_key=(0,))


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


def synthesize(scene: Scene) -> ArraySnapshot:
    """Sum of steered source waveforms plus i.i.d. system noise.

    The noise is one PCG64 stream through numpy's ziggurat, whose rejection
    step lets the values drawn decide how much stream each takes, so one
    thread draws it, in row blocks, while this one steers the sources; each
    block is then added in draw order. No M x N temporary is made."""
    geom = scene.geometry
    m = geom.n_antennas
    n = scene.n_samples
    data = np.zeros((m, n), dtype=np.complex128)
    rows = max(1, BLOCK_SAMPLES // n)
    # Real parts first: the draw order fixes each seed's noise.
    blocks = [(part, lo, min(lo + rows, m))
              for part in (data.real, data.imag) if scene.system_noise_power > 0
              for lo in range(0, m, rows)]
    k = min(NOISE_BUFFERS, len(blocks))
    bufs = np.empty((k, rows, n))
    outs = [bufs[i % k, :hi - lo] for i, (_, lo, hi) in enumerate(blocks)]
    rng = np.random.default_rng(_noise_seed(scene.seed))
    scale = np.sqrt(scene.system_noise_power / 2.0)
    # The pool's one thread draws the blocks in the order they are submitted,
    # at most k ahead of the adds. On an error, the `with` waits for those.
    with ThreadPoolExecutor(1) as pool:
        draws = [pool.submit(rng.standard_normal, out=out) for out in outs[:k]]
        for index, src in enumerate(scene.sources):
            wave = _source_waveform(src, scene, index)
            traj = src.direction
            block = MOTION_BLOCK
            if isinstance(traj, DirectionLM):
                # A static source: column blocks of about BLOCK_SAMPLES.
                traj, block = TrajectorySpec(traj), max(1, BLOCK_SAMPLES // m)
            # Reject trajectories that set below the horizon mid-scene.
            traj.position(scene.t0)
            traj.position(scene.t0 + n / scene.sample_rate)
            for start in range(0, n, block):
                stop = min(start + block, n)
                tc = scene.t0 + (start + stop) / 2.0 / scene.sample_rate
                a = steering_vector(geom, traj.position(tc))
                data[:, start:stop] += a[:, None] * wave[None, start:stop]
        for i, (part, lo, hi) in enumerate(blocks):
            draws[i].result()  # re-raises a failed draw here
            outs[i] *= scale
            part[lo:hi] += outs[i]
            if i + k < len(blocks):
                draws.append(pool.submit(rng.standard_normal, out=outs[i + k]))
    return ArraySnapshot(data, scene.sample_rate, scene.t0)
