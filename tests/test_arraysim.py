import numpy as np
import pytest

from cyclosky.arraysim import (C_LIGHT, MOTION_BLOCK, ArrayGeometry, ArraySnapshot,
                               DirectionLM, Scene, SourceSpec, TrajectorySpec,
                               default_geometry, steering_vector, synthesize)


@pytest.fixture
def small_geom():
    return default_geometry(8, 1.42e9, seed=1)


class TestDirection:
    def test_rejects_outside_disk(self):
        with pytest.raises(ValueError):
            DirectionLM(0.9, 0.9)

    def test_boundary_allowed(self):
        DirectionLM(1.0, 0.0)

    @pytest.mark.parametrize("l, m", [(np.nan, 0.0), (0.0, np.nan),
                                      (np.inf, 0.0), (0.0, -np.inf)])
    def test_rejects_non_finite(self, l, m):
        with pytest.raises(ValueError, match="not on the unit disk"):
            DirectionLM(l, m)

    def test_onto_disk(self):
        assert DirectionLM.onto_disk(0.3, -0.4) == (DirectionLM(0.3, -0.4), False)
        direction, outside = DirectionLM.onto_disk(-3.0, 4.0)
        assert outside and direction == DirectionLM(-0.6, 0.8)
        assert np.hypot(direction.l, direction.m) == pytest.approx(1.0, abs=1e-15)
        assert DirectionLM.onto_disk(0.0, -1.0) == (DirectionLM(0.0, -1.0), False)


class TestGeometry:
    def test_rejects_single_antenna(self):
        with pytest.raises(ValueError):
            ArrayGeometry(np.array([[0.0, 0.0]]), 1e9)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            ArrayGeometry(np.array([[0.0, 0.0], [0.0, 0.0]]), 1e9)

    def test_default_layout_within_aperture(self):
        geom = default_geometry(48, 1.42e9, seed=3, aperture_wavelengths=6.0)
        radii = np.hypot(geom.positions[:, 0], geom.positions[:, 1])
        assert radii.max() <= 3.0 * C_LIGHT / geom.f0 + 1e-9


class TestSteeringVector:
    def test_zenith_is_all_ones(self, small_geom):
        a = steering_vector(small_geom, DirectionLM(0.0, 0.0))
        assert np.allclose(a, np.ones(8))

    def test_half_wavelength_pair(self):
        f0 = 1e9
        geom = ArrayGeometry(np.array([[0.0, 0.0], [C_LIGHT / f0, 0.0]]), f0)
        a = steering_vector(geom, DirectionLM(0.5, 0.0))
        assert np.allclose(a, [1.0, -1.0])

    def test_unit_modulus(self, small_geom):
        a = steering_vector(small_geom, DirectionLM(0.3, -0.4))
        assert np.allclose(np.abs(a), 1.0)

    def test_antisymmetry(self, small_geom):
        d = DirectionLM(0.21, 0.47)
        a = steering_vector(small_geom, d)
        b = steering_vector(small_geom, DirectionLM(-d.l, -d.m))
        assert np.allclose(b, np.conj(a))


class TestSynthesize:
    def test_noise_only_covariance(self, small_geom):
        n = 8192
        scene = Scene(small_geom, [], n, 1e6, 1.0, seed=5)
        snap = synthesize(scene)
        r = (snap.data @ snap.data.conj().T) / n
        off = r - np.diag(np.diag(r))
        assert np.allclose(np.diag(r).real, 1.0, atol=0.1)
        assert np.abs(off).max() < 5.0 / np.sqrt(n)

    def test_cw_at_zenith_no_noise(self, small_geom):
        src = SourceSpec("cw", 0.0, DirectionLM(0.0, 0.0), freq=1e5)
        scene = Scene(small_geom, [src], 256, 1e6, 0.0, seed=1)
        snap = synthesize(scene)
        for row in snap.data:
            assert np.array_equal(row, snap.data[0])

    def test_superposition(self, small_geom):
        a = SourceSpec("bpsk", 0.0, DirectionLM(0.4, -0.3), baud_rate=1.25e5,
                       carrier_offset=6.25e4, seed=101)
        b = SourceSpec("astro", 5.0, DirectionLM(-0.35, 0.2), seed=102)
        both = synthesize(Scene(small_geom, [a, b], 1024, 1e6, 0.0, seed=9))
        only_a = synthesize(Scene(small_geom, [a], 1024, 1e6, 0.0, seed=9))
        only_b = synthesize(Scene(small_geom, [b], 1024, 1e6, 0.0, seed=9))
        assert np.array_equal(both.data, only_a.data + only_b.data)

    def test_determinism(self, small_geom):
        src = SourceSpec("astro", 0.0, DirectionLM(0.1, 0.1))
        scene = Scene(small_geom, [src], 512, 1e6, 1.0, seed=33)
        assert np.array_equal(synthesize(scene).data, synthesize(scene).data)

    def test_narrowband_consistency(self, small_geom):
        n = 8192
        power = 2.0
        d = DirectionLM(0.3, 0.1)
        src = SourceSpec("astro", 10 * np.log10(power), d)
        scene = Scene(small_geom, [src], n, 1e6, 1.0, seed=21)
        snap = synthesize(scene)
        r = (snap.data @ snap.data.conj().T) / n
        signal_part = r - np.eye(8)
        w, v = np.linalg.eigh(signal_part)
        principal = v[:, -1]
        a = steering_vector(small_geom, d)
        cosine = abs(principal.conj() @ a) / (np.linalg.norm(a))
        assert cosine >= 0.99

    def test_trajectory_leaving_hemisphere_rejected(self, small_geom):
        traj = TrajectorySpec(DirectionLM(0.9, 0.0), (100.0, 0.0))
        src = SourceSpec("cw", 0.0, traj, freq=1e4)
        scene = Scene(small_geom, [src], 4096, 1e6, 0.0, seed=2)
        with pytest.raises(ValueError, match="t="):
            synthesize(scene)

    def test_moving_source_block_constant(self, small_geom):
        # A moving source must equal the manual block-by-block construction.
        traj = TrajectorySpec(DirectionLM(0.0, 0.0), (10.0, 0.0))
        src = SourceSpec("cw", 0.0, traj, freq=1e4, seed=7)
        n = 1024
        fs = 1e6
        scene = Scene(small_geom, [src], n, fs, 0.0, seed=7)
        snap = synthesize(scene)
        from cyclosky.signals import gen_cw
        wave = gen_cw(n, 1e4, fs, 1.0, 0.0)
        expected = np.zeros((8, n), dtype=complex)
        for start in range(0, n, MOTION_BLOCK):
            stop = min(start + MOTION_BLOCK, n)
            tc = (start + stop) / 2.0 / fs
            a = steering_vector(small_geom, traj.position(tc))
            expected[:, start:stop] = a[:, None] * wave[None, start:stop]
        assert np.array_equal(snap.data, expected)

    def test_fixed_source_is_one_steered_waveform(self, small_geom):
        # A fixed direction is a trajectory at rate (0, 0): the same steering
        # vector over every motion block, including a partial last one.
        d = DirectionLM(0.3, -0.2)
        n = 3 * MOTION_BLOCK + 17
        fs = 1e6

        def synth(direction):
            src = SourceSpec("cw", 0.0, direction, freq=1e4, seed=7)
            return synthesize(Scene(small_geom, [src], n, fs, 0.0, seed=7)).data

        from cyclosky.signals import gen_cw
        wave = gen_cw(n, 1e4, fs, 1.0, 0.0)
        fixed = synth(d)
        assert np.array_equal(fixed, steering_vector(small_geom, d)[:, None] * wave)
        assert np.array_equal(fixed, synth(TrajectorySpec(d, (0.0, 0.0))))

    def test_rejects_zero_samples(self, small_geom):
        with pytest.raises(ValueError):
            Scene(small_geom, [], 0, 1e6, 1.0, seed=0)


class TestSnapshot:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_rejects_non_finite_samples(self, bad):
        data = np.ones((3, 64), dtype=np.complex128)
        data[1, 5] = bad
        data[2, 9] = bad
        with pytest.raises(ValueError, match="2 non-finite samples"):
            ArraySnapshot(data, 1e6)
