"""The shared peak rule against loop references.

`reference_detect` is the α-scan detector written as a loop over bins: a
local maximum above the stationary-null threshold (`null_threshold` at the
scan's false-alarm rate split over its eligible bins), with the
non-conjugate α = 0 bin excluded. `reference_locate` is the former body of
`locate_peaks` (an 8-shift loop over a padded map), and
`reference_local_maxima` is the former full-grid body of the shared rule,
which now compares only the entries above the threshold. All keep an entry
that is above each neighbour before it in C order and not below each one
after it, so a plateau of two keeps its first entry. The finders and the
rule must return exactly what their references return. Inputs from a few levels, one of them
the threshold itself, make plateaus and ties common, so a comparison
turned the wrong way round shows.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cyclosky.arraysim import DirectionLM
from cyclosky.cyclospec import (SCAN_PFA, CyclicSpectrum, _local_maxima, detect_cyclic_freqs,
                                null_threshold)
from cyclosky.imaging import Skymap, SkymapGrid, _refine_axis, locate_peaks


def reference_root_threshold(alphas, conjugate, eigenvalues, n_samples):
    step = alphas[1] - alphas[0]
    eligible = sum(1 for a in alphas if conjugate or abs(a) >= 0.5 * step)
    return math.sqrt(null_threshold(eigenvalues, n_samples, conjugate,
                                    SCAN_PFA / eligible))


def reference_detect(spec, eigenvalues, n_samples):
    mags = spec.magnitudes
    alphas = spec.alphas
    if mags.size < 2:
        raise ValueError("spectrum needs at least 2 grid points")
    threshold = reference_root_threshold(alphas, spec.conjugate, eigenvalues,
                                         n_samples)
    step = alphas[1] - alphas[0]
    hits = []
    for i in range(mags.size):
        left = mags[i - 1] if i > 0 else -np.inf
        right = mags[i + 1] if i < mags.size - 1 else -np.inf
        if mags[i] <= threshold or mags[i] <= left or mags[i] < right:
            continue
        if not spec.conjugate and abs(alphas[i]) < 0.5 * step:
            continue
        hits.append((float(alphas[i]), float(mags[i])))
    hits.sort(key=lambda p: -p[1])
    return hits


def reference_locate(smap, max_peaks):
    if max_peaks < 1:
        raise ValueError("max_peaks must be >= 1")
    power = smap.power
    mask = smap.grid.mask()
    vals = power[mask]
    if vals.size == 0 or vals.max() == vals.min():
        return []
    med = np.median(vals)
    mad = 1.4826 * np.median(np.abs(vals - med))
    threshold = med + 5.0 * mad
    n_l, n_m = power.shape
    padded = np.full((n_l + 2, n_m + 2), -np.inf)
    padded[1:-1, 1:-1] = np.where(mask, power, -np.inf)
    center = padded[1:-1, 1:-1]
    before = np.full(power.shape, -np.inf)
    after = np.full(power.shape, -np.inf)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            shifted = padded[1 + di:n_l + 1 + di, 1 + dj:n_m + 1 + dj]
            if (di, dj) < (0, 0):
                before = np.maximum(before, shifted)
            else:
                after = np.maximum(after, shifted)
    is_peak = mask & (center > before) & (center >= after) & (center > threshold)
    l_axis = smap.grid.l_axis()
    m_axis = smap.grid.m_axis()
    dl = l_axis[1] - l_axis[0]
    dm = m_axis[1] - m_axis[0]
    peaks = []
    for i, j in zip(*np.nonzero(is_peak)):
        value = power[i, j]
        off_i = off_j = 0.0
        if 0 < i < n_l - 1 and 0 < j < n_m - 1 and np.isfinite(
                padded[i:i + 3, j:j + 3]).all():
            off_i, dv_i = _refine_axis(power[i - 1, j], value, power[i + 1, j])
            off_j, dv_j = _refine_axis(power[i, j - 1], value, power[i, j + 1])
            value = value + dv_i + dv_j
        l = l_axis[i] + off_i * dl
        m = m_axis[j] + off_j * dm
        norm = np.hypot(l, m)
        if norm > 1.0:
            l, m = l / norm, m / norm
        peaks.append((DirectionLM(l, m), float(value)))
    peaks.sort(key=lambda p: -p[1])
    return peaks[:max_peaks]


# Low integers with sparse high ones: plateaus, ties with the threshold and
# ties between neighbouring peaks all occur.
LEVEL = st.integers(0, 3) | st.sampled_from([20, 25])


def values(shape):
    constant = st.floats(0.0, 30.0).map(lambda v: np.full(shape, v))
    return arrays(float, shape, elements=LEVEL) | constant


@st.composite
def detector_inputs(draw):
    """A spectrum and the eigenvalues and sample count of its null.
    Magnitudes are multiples of the root threshold, whose multiple 1 is the
    threshold itself."""
    n = draw(st.integers(2, 300))
    step = draw(st.sampled_from([1.0, 0.5, 1e6 / 256]))
    alphas = (np.arange(n) - draw(st.integers(0, n))) * step
    conjugate = draw(st.booleans())
    eigenvalues = draw(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=5))
    n_samples = draw(st.sampled_from([32, 256, 2048]))
    root = reference_root_threshold(alphas, conjugate, eigenvalues, n_samples)
    levels = arrays(float, (n,), elements=st.sampled_from([0.0, 0.5, 1.0, 1.0, 1.5, 8.0]))
    spec = CyclicSpectrum(alphas, draw(levels) * root, conjugate)
    return spec, eigenvalues, n_samples


@st.composite
def skymaps(draw):
    bounds = st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2,
                      unique=True).map(sorted)
    (l_min, l_max), (m_min, m_max) = draw(bounds), draw(bounds)
    grid = SkymapGrid(l_min, l_max, m_min, m_max,
                      draw(st.integers(2, 20)), draw(st.integers(2, 20)))
    return Skymap(grid, draw(values((grid.n_l, grid.n_m))), "classical")


@settings(max_examples=300, deadline=None)
@given(inputs=detector_inputs())
def test_spectrum_peaks_match_reference(inputs):
    assert detect_cyclic_freqs(*inputs) == reference_detect(*inputs)


@settings(max_examples=300, deadline=None)
@given(smap=skymaps(), max_peaks=st.integers(1, 6))
def test_map_peaks_match_reference(smap, max_peaks):
    assert locate_peaks(smap, max_peaks) == reference_locate(smap, max_peaks)


def reference_local_maxima(values, valid, threshold):
    """The former full-grid body: the largest neighbour before and after
    each entry, over eight shifted copies of the padded array."""
    padded = np.pad(np.where(valid, values, -np.inf), 1, constant_values=-np.inf)
    middle = (1,) * values.ndim
    center = padded[tuple(slice(1, -1) for _ in middle)]
    before = np.full(values.shape, -np.inf)
    after = np.full(values.shape, -np.inf)
    for shift in np.ndindex((3,) * values.ndim):
        if shift != middle:
            neighbour = padded[tuple(slice(s, s + n) for s, n in zip(shift, values.shape))]
            if shift < middle:
                before = np.maximum(before, neighbour)
            else:
                after = np.maximum(after, neighbour)
    return np.nonzero((center > before) & (center >= after) & (center > threshold))


@st.composite
def maxima_inputs(draw):
    """Entries from a few levels, NaN and infinities among them, some of
    them invalid, in one to three dimensions."""
    shape = tuple(draw(st.lists(st.integers(1, 7), min_size=1, max_size=3)))
    level = LEVEL | st.sampled_from([np.nan, np.inf, -np.inf])
    valid = draw(arrays(bool, shape)) | draw(st.booleans())
    threshold = draw(st.sampled_from([-np.inf, 0.0, 1.0, 2.0, 20.0, np.nan]))
    return draw(arrays(float, shape, elements=level)), valid, threshold


@settings(max_examples=200, deadline=None)
@given(inputs=maxima_inputs())
def test_local_maxima_match_full_grid_form(inputs):
    got = _local_maxima(*inputs)
    want = reference_local_maxima(*inputs)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_map_plateau_of_two_keeps_one_peak():
    # Two equal pixels, neighbours in l, on a flat low map: one peak, at the
    # first pixel refined half a pixel towards the second.
    grid = SkymapGrid(n_l=21, n_m=21)
    power = np.where(grid.mask(), 1.0, 0.0)
    power[10, 12] = power[11, 12] = 9.0
    peaks = locate_peaks(Skymap(grid, power, "classical"), max_peaks=4)
    assert len(peaks) == 1
    direction, value = peaks[0]
    dl = grid.l_axis()[1] - grid.l_axis()[0]
    assert direction.l == pytest.approx(grid.l_axis()[10] + 0.5 * dl, abs=1e-12)
    assert direction.m == pytest.approx(grid.m_axis()[12], abs=1e-12)
    assert value >= 9.0


@pytest.mark.parametrize("conjugate", [False, True])
def test_spectrum_plateau_of_two_keeps_one_hit(conjugate):
    # Two equal bins far above the null threshold: one hit, the first bin.
    alphas = np.arange(64) * 1e3
    mags = np.full(64, 0.01)
    mags[20] = mags[21] = 50.0
    hits = detect_cyclic_freqs(CyclicSpectrum(alphas, mags, conjugate), [1.0, 0.5], 256)
    assert hits == [(20e3, 50.0)]
