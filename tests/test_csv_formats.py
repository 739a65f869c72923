"""Skymap and spectrum CSV text: exact bytes, and values that np.loadtxt
reads back bit-exactly."""

import math
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cyclosky.cyclospec import CyclicSpectrum, spectrum_csv
from cyclosky.imaging import Skymap, SkymapGrid, skymap_csv

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308,
           -1e308, np.finfo(float).max, np.nan, np.inf, -np.inf, 0.1, 1 / 3]


def ulps_around(x, n=2):
    """x and the n doubles on either side of it."""
    below = above = x
    out = [x]
    for _ in range(n):
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
        out += [below, above]
    return out


# The renderers print zeros and |x| in [1e-4, 1e17) in fixed notation from
# exact products, and hand every other value to `%`. Their edges: 1-2 ulp
# around each power of ten from 1e-5 to 1e18 (just below one, log10 reads
# the next decade), e-05 values, and the bounds themselves.
EDGES = [s * v for k in range(-5, 19) for v in ulps_around(float(f"1e{k}"))
         for s in (1.0, -1.0)]
EDGES += [0.0, -0.0, 9.9999999999999991e-05, 5e-05, 1e-05, 0.000123,
          99999999999999984.0, 1e17, 12345678901234567.0]


def tie_range(t):
    """Bounds on odd m with m / 2**t in [10**(17 - t), 10**(18 - t)), m < 2**53."""
    lo = math.ceil(2 ** t * Fraction(10) ** (17 - t))
    hi = math.ceil(2 ** t * Fraction(10) ** (18 - t))
    return lo, min(hi, 2 ** 53) - 2


# m / 2**t with m odd has exactly t decimals, the last a 5; in that decade it
# has 18 significant digits, so 17-digit rounding meets an exact tie.
HALF_WAY = st.integers(2, 21).flatmap(
    lambda t: st.integers(*tie_range(t)).map(lambda m: math.ldexp(m | 1, -t)))
ANY_FLOAT = st.one_of(st.sampled_from(SPECIAL), st.sampled_from(EDGES), HALF_WAY,
                      st.floats(width=64))
FINITE_FLOAT = st.one_of(
    st.sampled_from([v for v in SPECIAL if np.isfinite(v)]), st.sampled_from(EDGES),
    HALF_WAY, st.floats(width=64, allow_nan=False, allow_infinity=False))
# More values than one formatting block holds, with every edge and a disk of
# zeros as in a real map.
_rng = np.random.default_rng(0)
LARGE_MAP = _rng.exponential(size=(130, 130)) * 10.0 ** _rng.integers(-6, 19, (130, 130))
LARGE_MAP[np.hypot(*np.mgrid[-1:1:130j, -1:1:130j]) > 1] = 0.0
LARGE_MAP.flat[:len(EDGES + SPECIAL)] = EDGES + SPECIAL


# The formatters the writers had before they formatted a whole file with one
# `%` call: one f-string per value. The files must keep these exact bytes.
def reference_skymap_csv(smap):
    g = smap.grid
    text = (f"# kind={smap.kind} alpha_hz={smap.alpha:.17g}"
            f" l_min={g.l_min:.17g} l_max={g.l_max:.17g}"
            f" m_min={g.m_min:.17g} m_max={g.m_max:.17g}\n")
    for row in smap.power:
        text += ",".join(f"{v:.17g}" for v in row) + "\n"
    return text.encode()


def reference_spectrum_csv(spec):
    text = f"# conjugate={str(spec.conjugate).lower()}\nalpha_hz,magnitude\n"
    for a, m in zip(spec.alphas, spec.magnitudes):
        text += f"{a:.17g},{m:.17g}\n"
    return text.encode()


def map_of(power, alpha=0.0):
    # A grid has at least 2 pixels per axis; the renderer prints the power it
    # holds, so one-row and one-column maps test the row layout alone.
    grid = SkymapGrid(-0.5, 0.75, -1.0, 1.0, *np.maximum(power.shape, 2))
    return Skymap(grid, power, "conjugate_cyclic", alpha)


def map_power(elements):
    shapes = st.tuples(st.integers(1, 9), st.integers(1, 9))
    return shapes.flatmap(lambda s: arrays(np.float64, s, elements=elements))


def spectrum_columns(elements):
    return st.integers(1, 40).flatmap(
        lambda n: st.tuples(arrays(np.float64, n, elements=elements),
                            arrays(np.float64, n, elements=elements)))


class TestSkymapCsv:
    @settings(max_examples=80, deadline=None)
    @given(power=map_power(ANY_FLOAT), alpha=FINITE_FLOAT)
    @example(power=np.array([[0.0, -0.0], [np.nan, np.inf]]), alpha=-0.0)
    @example(power=np.array([[5e-324, -np.inf, 1e308]] * 5), alpha=125000.0)
    @example(power=np.array(EDGES)[:, None], alpha=1e-05)
    @example(power=np.array([EDGES]), alpha=-0.0)
    @example(power=LARGE_MAP, alpha=125000.0)
    def test_bytes_match_per_value_formatter(self, power, alpha):
        smap = map_of(power, alpha)
        assert skymap_csv(smap) == reference_skymap_csv(smap)

    @settings(max_examples=60, deadline=None)
    @given(power=map_power(FINITE_FLOAT))
    def test_round_trip(self, power):
        lines = skymap_csv(map_of(power, 7.5)).decode().splitlines()
        assert lines[0] == ("# kind=conjugate_cyclic alpha_hz=7.5"
                            " l_min=-0.5 l_max=0.75 m_min=-1 m_max=1")
        assert np.array_equal(np.loadtxt(lines[1:], delimiter=",", ndmin=2), power)


class TestSpectrumCsv:
    @settings(max_examples=80, deadline=None)
    @given(columns=spectrum_columns(ANY_FLOAT), conjugate=st.booleans())
    @example(columns=(np.array([-0.0]), np.array([np.nan])), conjugate=False)
    @example(columns=(np.array([0.0, 5e-324, 1e308]),
                      np.array([-np.inf, np.inf, -1e308])), conjugate=True)
    @example(columns=(np.array(EDGES), -np.array(EDGES)), conjugate=False)
    @example(columns=(np.arange(9000) * 488.28125, LARGE_MAP.ravel()[:9000]),
             conjugate=True)
    def test_bytes_match_per_value_formatter(self, columns, conjugate):
        spec = CyclicSpectrum(*columns, conjugate)
        assert spectrum_csv(spec) == reference_spectrum_csv(spec)

    @settings(max_examples=60, deadline=None)
    @given(columns=spectrum_columns(FINITE_FLOAT), conjugate=st.booleans())
    @example(columns=(np.array([1.5]), np.array([2.5])), conjugate=True)
    def test_round_trip(self, columns, conjugate):
        spec = CyclicSpectrum(*columns, conjugate)
        lines = spectrum_csv(spec).decode().splitlines()
        assert lines[:2] == ["# conjugate=true" if conjugate else "# conjugate=false",
                             "alpha_hz,magnitude"]
        alphas, mags = np.loadtxt(lines[2:], delimiter=",", ndmin=2, unpack=True)
        assert np.array_equal(alphas, spec.alphas)
        assert np.array_equal(mags, spec.magnitudes)
