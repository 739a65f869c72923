import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclosky import cli, imaging
from cyclosky.arraysim import (C_LIGHT, ArrayGeometry, ArraySnapshot,
                               DirectionLM, default_geometry, steering_vector)
from cyclosky.cyclospec import CyclicCorrMatrix, cyclic_corr_matrix
from cyclosky.imaging import Skymap, SkymapGrid, cyclic_skymap, locate_peaks, skymap


@pytest.fixture
def geom():
    return default_geometry(16, 1.42e9, seed=2)


@pytest.fixture
def grid():
    return SkymapGrid(n_l=64, n_m=64)


def point_source_cov(geom, direction, power=1.0):
    a = steering_vector(geom, direction)
    return power * np.outer(a, a.conj())


def on_grid_direction(grid, i, j):
    return DirectionLM(grid.l_axis()[i], grid.m_axis()[j])


class TestSkymap:
    def test_identity_covariance_is_flat(self, geom, grid):
        m = geom.n_antennas
        smap = skymap(np.eye(m, dtype=complex), geom, grid)
        mask = grid.mask()
        assert np.allclose(smap.power[mask], 1.0 / m)
        assert np.all(smap.power[~mask] == 0.0)

    def test_unit_point_source_peak_is_one(self, geom, grid):
        d = on_grid_direction(grid, 40, 20)
        smap = skymap(point_source_cov(geom, d), geom, grid)
        assert smap.power[40, 20] == pytest.approx(1.0, abs=1e-9)
        assert smap.power.max() == pytest.approx(1.0, abs=1e-9)

    def test_scaling_equivariance(self, geom, grid):
        d = on_grid_direction(grid, 30, 30)
        r = point_source_cov(geom, d)
        base = skymap(r, geom, grid)
        scaled = skymap(3.5 * r, geom, grid)
        assert np.allclose(scaled.power, 3.5 * base.power)
        assert (np.unravel_index(np.argmax(scaled.power), scaled.power.shape)
                == np.unravel_index(np.argmax(base.power), base.power.shape))

    def test_dimension_mismatch(self, geom, grid):
        with pytest.raises(ValueError):
            skymap(np.eye(3, dtype=complex), geom, grid)


class TestCyclicSkymap:
    def test_rank_one_peak_reads_cyclic_power(self, geom, grid):
        d = on_grid_direction(grid, 10, 40)
        a = steering_vector(geom, d)
        rho = 0.7
        ra = CyclicCorrMatrix(rho * np.outer(a, a), 1.25e5, True)
        smap = cyclic_skymap(ra, geom, grid)
        assert smap.power[10, 40] == pytest.approx(rho, abs=1e-9)
        assert smap.alpha == 1.25e5
        assert smap.kind == "conjugate_cyclic"

    def test_non_conjugate_variant(self, geom, grid):
        d = on_grid_direction(grid, 25, 25)
        a = steering_vector(geom, d)
        ra = CyclicCorrMatrix(0.5 * np.outer(a, a.conj()), 2.0e5, False)
        smap = cyclic_skymap(ra, geom, grid)
        assert smap.power[25, 25] == pytest.approx(0.5, abs=1e-9)

    def test_noise_only_map_is_low(self, geom, grid):
        n = 16384
        rng = np.random.default_rng(11)
        data = (rng.standard_normal((16, n)) + 1j * rng.standard_normal((16, n)))
        data /= np.sqrt(2)
        snap = ArraySnapshot(data, 1e6)
        ra = cyclic_corr_matrix(snap, 1.7e5)
        smap = cyclic_skymap(ra, geom, grid)
        assert smap.power.max() < 5.0 / np.sqrt(n)


def direct_form(matrix, geom, grid):
    """a^H R b per pixel from a steering matrix A (M x P) built for this call
    alone, shaped (n_l, n_m); the real part for a classical matrix."""
    ll, mm = np.meshgrid(grid.l_axis(), grid.m_axis(), indexing="ij")
    x = geom.positions[:, 0][:, None]
    y = geom.positions[:, 1][:, None]
    a = np.exp(-2j * np.pi * (geom.f0 / C_LIGHT)
               * (x * ll.ravel()[None, :] + y * mm.ravel()[None, :]))
    classical = isinstance(matrix, np.ndarray)
    right = a if classical or not matrix.conjugate else a.conj()
    values = matrix if classical else matrix.values
    form = np.einsum("mp,mp->p", a.conj(), values @ right)
    form = form.reshape(grid.n_l, grid.n_m)
    return form.real if classical else form


def fresh_map(matrix, geom, grid):
    """Reference map from the direct form."""
    q = direct_form(matrix, geom, grid) / geom.n_antennas ** 2
    q = np.clip(q, 0.0, None) if isinstance(matrix, np.ndarray) else np.abs(q)
    q[~grid.mask()] = 0.0
    return q


def any_map(matrix, geom, grid):
    if isinstance(matrix, np.ndarray):
        return skymap(matrix, geom, grid).power
    return cyclic_skymap(matrix, geom, grid).power


def rebuilt_map(matrix, geom, grid):
    """The map from an operator built for this call alone."""
    imaging.release_operator()
    return any_map(matrix, geom, grid)


def assert_matches_direct(power, matrix, geom, grid):
    expected = fresh_map(matrix, geom, grid)
    assert (np.abs(power - expected).max()
            <= imaging.MAP_MATCH_RTOL * np.abs(expected).max())


def random_matrices(m, seed=5):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((m, 3 * m)) + 1j * rng.standard_normal((m, 3 * m))
    w = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return [z @ z.conj().T / (3 * m),
            CyclicCorrMatrix(w, 1.25e5, False),
            CyclicCorrMatrix(w + w.T, 1.25e5, True)]


class TestOperatorCache:
    def test_cached_map_equals_fresh_operator(self, geom, grid):
        for matrix in random_matrices(geom.n_antennas):
            first = any_map(matrix, geom, grid)
            again = any_map(matrix, geom, grid)
            expected = rebuilt_map(matrix, geom, grid)
            assert np.array_equal(first, expected)
            assert np.array_equal(again, expected)
            assert_matches_direct(first, matrix, geom, grid)

    def test_alternating_geometries(self, geom, grid):
        other = default_geometry(16, 1.42e9, seed=3)
        matrices = random_matrices(16)
        expected = [[rebuilt_map(matrix, g, grid) for matrix in matrices]
                    for g in (geom, other)]
        for _ in range(2):
            for g, maps in zip((geom, other), expected):
                for matrix, power in zip(matrices, maps):
                    assert np.array_equal(any_map(matrix, g, grid), power)
                    assert_matches_direct(power, matrix, g, grid)
        assert not np.array_equal(expected[0][0], expected[1][0])

    def test_alternating_grids(self, geom, grid):
        other = SkymapGrid(-0.5, 0.5, -0.25, 0.75, grid.n_l, grid.n_m)
        matrices = random_matrices(geom.n_antennas)
        expected = [[rebuilt_map(matrix, geom, g) for matrix in matrices]
                    for g in (grid, other)]
        for _ in range(2):
            for g, maps in zip((grid, other), expected):
                for matrix, power in zip(matrices, maps):
                    assert np.array_equal(any_map(matrix, geom, g), power)
                    assert_matches_direct(power, matrix, geom, g)

    def test_positions_changed_in_place(self, grid):
        geom = default_geometry(16, 1.42e9, seed=2)
        matrix = random_matrices(16)[0]
        before = any_map(matrix, geom, grid)
        geom.positions[0] += 0.05
        after = any_map(matrix, geom, grid)
        assert not np.array_equal(before, after)
        rebuilt = ArrayGeometry(geom.positions.copy(), geom.f0)
        assert np.array_equal(after, rebuilt_map(matrix, rebuilt, grid))
        assert_matches_direct(after, matrix, rebuilt, grid)

    def test_one_read_only_entry(self, geom):
        # On 64 pixels each axis keeps its exact table; on 128 it is factored.
        for n in (64, 128):
            grid = SkymapGrid(n_l=n, n_m=n)
            op = imaging._operator(geom, grid)
            assert imaging._operator(geom, grid) is op
            *factors, visible = op
            arrays = [arr for factor in factors for arr in factor] + [visible]
            assert len(arrays) == 9
            for arr in arrays:
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0, 0] = 0
            imaging._operator(default_geometry(16, 1.42e9, seed=3), grid)
            assert len(imaging._operator_cache) == 1
            imaging.release_operator()
            assert not imaging._operator_cache


@st.composite
def sub_grids(draw):
    """Grids inside [-1, 1]^2 at least 0.05 wide, down to 2 pixels per axis."""
    l_min = draw(st.floats(-1.0, 0.95))
    m_min = draw(st.floats(-1.0, 0.95))
    return SkymapGrid(l_min, draw(st.floats(l_min + 0.05, 1.0)),
                      m_min, draw(st.floats(m_min + 0.05, 1.0)),
                      draw(st.integers(2, 9)), draw(st.integers(2, 9)))


class TestPairTables:
    @settings(max_examples=80, deadline=None)
    @given(positions=st.integers(2, 8).flatmap(lambda m: st.lists(
               st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
               min_size=m, max_size=m, unique=True)),
           grid=sub_grids(), seed=st.integers(0, 2 ** 32 - 1),
           asymmetry=st.sampled_from([1e-12, 1e-3, 1.0]))
    @example(positions=[(0.0, 0.0), (0.5, -0.25)],
             grid=SkymapGrid(-0.5, 0.5, -0.5, 0.5, 2, 2), seed=0,
             asymmetry=1e-12)
    @example(positions=[(0.1 * i, (-0.3) ** i) for i in range(8)],
             grid=SkymapGrid(-0.9, 0.3, -0.2, 0.7, 2, 9), seed=1,
             asymmetry=1.0)
    def test_maps_match_direct_form(self, positions, grid, seed, asymmetry):
        """Every map kind against the direct form, for matrices with no
        symmetry to lean on: a non-Hermitian classical R and a conjugate
        matrix that is symmetric only up to `asymmetry`."""
        geom = ArrayGeometry(np.array(positions), 1.42e9)
        m = geom.n_antennas
        rng = np.random.default_rng(seed)
        w, u = rng.standard_normal((2, m, m)) + 1j * rng.standard_normal((2, m, m))
        for matrix in (w, CyclicCorrMatrix(w, 1.25e5, False),
                       CyclicCorrMatrix(w + w.T + asymmetry * u, 1.25e5, True)):
            # The scale is the map before clipping and masking: a classical
            # map of a non-Hermitian R can clip to far below its terms.
            scale = np.abs(direct_form(matrix, geom, grid)).max() / m ** 2
            assert (np.abs(any_map(matrix, geom, grid)
                           - fresh_map(matrix, geom, grid)).max()
                    <= imaging.MAP_MATCH_RTOL * scale)


def node_counts(geom, grid):
    """Columns of U for diff_l, diff_m, sum_l and sum_m."""
    return [u.shape[1] for u, _ in imaging._operator(geom, grid)[:4]]


def assert_all_kinds_match_direct(geom, grid, seed=5):
    for matrix in random_matrices(geom.n_antennas, seed):
        assert_matches_direct(rebuilt_map(matrix, geom, grid), matrix, geom, grid)


FIG4_GEOMETRY = default_geometry(48, 1.42e9, 42, aperture_wavelengths=6.0)


class TestFactoredTables:
    """Pair tables factored at Chebyshev points, U W^T, against the direct
    form: at pipeline scale, on degenerate pair ranges and on a grid that
    factors one axis and keeps the exact table on the other."""

    def test_fig4_scale(self):
        grid = SkymapGrid(n_l=128, n_m=128)
        assert_all_kinds_match_direct(FIG4_GEOMETRY, grid)
        assert all(40 < k < 100 for k in node_counts(FIG4_GEOMETRY, grid))

    def test_fig4_scale_point_source(self):
        # A point source at fig4's BPSK direction reads its power there.
        grid = SkymapGrid(n_l=128, n_m=128)
        d = DirectionLM(grid.l_axis()[89], grid.m_axis()[44])
        smap = skymap(point_source_cov(FIG4_GEOMETRY, d), FIG4_GEOMETRY, grid)
        assert smap.power[89, 44] == pytest.approx(1.0, abs=1e-12)
        assert np.unravel_index(np.argmax(smap.power), smap.power.shape) == (89, 44)

    def test_mixed_grid(self):
        grid = SkymapGrid(-0.9, 0.8, -0.5, 0.7, 128, 16)
        assert_all_kinds_match_direct(FIG4_GEOMETRY, grid)
        k_l, k_m = node_counts(FIG4_GEOMETRY, grid)[:2]
        assert k_l < 128 and k_m == 16
        (u_m, w_m) = imaging._operator(FIG4_GEOMETRY, grid)[1]
        assert np.array_equal(u_m, np.eye(16)) and np.iscomplexobj(w_m)

    @pytest.mark.parametrize("positions", [
        [(0.0, 0.0), (0.5, -0.25)],                                  # two antennas
        [(0.05 * i - 0.2, 0.3) for i in range(9)],                    # east-west line
        [(x, 0.05 * i - 0.2) for i, x in enumerate([-0.2, 0.0, 0.1] * 3)],  # repeated x
    ], ids=["two", "east_west", "repeated_x"])
    def test_degenerate_pair_ranges(self, positions):
        geom = ArrayGeometry(np.array(positions), 1.42e9)
        grid = SkymapGrid(-0.8, 0.9, -1.0, 0.6, 48, 40)
        assert_all_kinds_match_direct(geom, grid)
        counts = node_counts(geom, grid)
        assert counts[0] < 48 and counts[2] < 48
        if np.ptp(geom.positions[:, 1]) == 0:
            # Every y-difference is 0 and every y-sum the same: two points.
            assert counts[1] == counts[3] == 2

    @settings(max_examples=40, deadline=None)
    @given(positions=st.integers(2, 12).flatmap(lambda m: st.lists(
               st.tuples(st.floats(-0.4, 0.4), st.floats(-0.4, 0.4)),
               min_size=m, max_size=m, unique=True)),
           n_l=st.integers(2, 64), n_m=st.integers(2, 64),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_compact_arrays_match_direct_form(self, positions, n_l, n_m, seed):
        """Arrays within 0.8 m, about 4 wavelengths, on grids of up to 64
        pixels per axis: each axis factored or exact, as its node count
        decides."""
        geom = ArrayGeometry(np.array(positions), 1.42e9)
        grid = SkymapGrid(n_l=n_l, n_m=n_m)
        for matrix in random_matrices(geom.n_antennas, seed):
            scale = np.abs(direct_form(matrix, geom, grid)).max() / geom.n_antennas ** 2
            assert (np.abs(any_map(matrix, geom, grid) - fresh_map(matrix, geom, grid)).max()
                    <= imaging.MAP_MATCH_RTOL * scale)


class TestNodeCount:
    def test_constant_phase_needs_two_points(self):
        assert imaging._node_count(0.0, 100) == 2

    def test_grows_with_frequency_and_stops_at_the_limit(self):
        counts = [imaging._node_count(w, 1000) for w in (1.0, 10.0, 40.0, 100.0)]
        assert counts == sorted(counts) and counts[-1] < 1000
        assert imaging._node_count(40.0, 30) == 30
        assert imaging._node_count(1e4, 500) == 500

    @pytest.mark.parametrize("omega", [0.5, 5.0, 37.7])
    def test_interpolant_meets_the_bound(self, omega):
        # The factor of exp(i a t) for |a| <= omega on [-1, 1], checked off
        # the nodes.
        axis = np.linspace(-omega, omega, 201)
        t = np.linspace(-1.0, 1.0, 1001)
        u, w = imaging._axis_factor(axis, t, 1.0)
        assert u.shape == (201, imaging._node_count(omega, 201))
        assert np.abs(u @ w.T - np.exp(1j * np.outer(axis, t))).max() < 1e-14


class TestLocatePeaks:
    def test_single_on_grid_source(self, geom, grid):
        d = on_grid_direction(grid, 40, 20)
        smap = skymap(point_source_cov(geom, d), geom, grid)
        peaks = locate_peaks(smap, max_peaks=4)
        assert len(peaks) >= 1
        best, power = peaks[0]
        dl = grid.l_axis()[1] - grid.l_axis()[0]
        assert abs(best.l - d.l) < 0.5 * dl
        assert abs(best.m - d.m) < 0.5 * dl

    def test_off_grid_source_interpolated(self, geom):
        grid = SkymapGrid(n_l=96, n_m=96)
        dl = grid.l_axis()[1] - grid.l_axis()[0]
        d = DirectionLM(grid.l_axis()[50] + 0.5 * dl, grid.m_axis()[30])
        smap = skymap(point_source_cov(geom, d), geom, grid)
        best, _ = locate_peaks(smap, max_peaks=1)[0]
        assert np.hypot(best.l - d.l, best.m - d.m) < 0.25 * dl

    def test_two_sources_resolved(self, grid):
        geom = default_geometry(48, 1.42e9, seed=5, aperture_wavelengths=6.0)
        d1 = DirectionLM(-0.175, 0.0)
        d2 = DirectionLM(0.175, 0.0)
        r = point_source_cov(geom, d1) + point_source_cov(geom, d2)
        smap = skymap(r, geom, grid)
        peaks = locate_peaks(smap, max_peaks=2)
        assert len(peaks) == 2
        found = sorted(p[0].l for p in peaks)
        assert abs(found[0] - d1.l) < 0.05
        assert abs(found[1] - d2.l) < 0.05

    def test_flat_map_returns_nothing(self, grid):
        smap = Skymap(grid, np.where(grid.mask(), 1.0, 0.0), "classical")
        assert locate_peaks(smap, max_peaks=3) == []

    def test_masked_pixels_never_peak(self, grid):
        power = np.zeros((grid.n_l, grid.n_m))
        power[0, 0] = 100.0  # corner is outside the unit disk
        smap = Skymap(grid, np.where(grid.mask(), power, 0.0), "classical")
        peaks = locate_peaks(smap, max_peaks=3)
        assert all(p[0].l ** 2 + p[0].m ** 2 <= 1.0 for p in peaks)

    def test_max_peaks_validated(self, grid):
        smap = Skymap(grid, np.zeros((grid.n_l, grid.n_m)), "classical")
        with pytest.raises(ValueError):
            locate_peaks(smap, max_peaks=0)


class TestExports:
    def test_csv_roundtrip(self, geom, grid, tmp_path):
        d = on_grid_direction(grid, 12, 50)
        smap = skymap(point_source_cov(geom, d), geom, grid)
        cli._write_skymap(smap, tmp_path / "map")
        lines = (tmp_path / "map.csv").read_text().splitlines()
        assert lines[0] == "# kind=classical alpha_hz=0 l_min=-1 l_max=1 m_min=-1 m_max=1"
        assert np.array_equal(np.loadtxt(lines[1:], delimiter=","), smap.power)

    def test_pgm_roundtrip(self, geom, grid, tmp_path):
        d = on_grid_direction(grid, 12, 50)
        smap = skymap(point_source_cov(geom, d), geom, grid)
        cli._write_skymap(smap, tmp_path / "map")
        header = f"P5\n{grid.n_m} {grid.n_l}\n65535\n".encode()
        data = (tmp_path / "map.pgm").read_bytes()
        assert data.startswith(header)
        img = np.frombuffer(data[len(header):], dtype=">u2").reshape(grid.n_l, grid.n_m)
        peak = smap.power.max()
        assert np.array_equal(img, np.rint(smap.power / peak * 65535))
        # Written in binary mode: "\n" line ends on every platform.
        assert (tmp_path / "map.pgm.meta").read_bytes() == (
            f"scale={peak / 65535:.17g}\nl_min=-1\nl_max=1\nm_min=-1\n"
            "m_max=1\nkind=classical\nalpha_hz=0\n").encode()
