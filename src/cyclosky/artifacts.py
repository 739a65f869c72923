"""The bytes of every artifact; the writers in `cli` and `tracking` put them in files.

Exact `%.17g` text of CSV bodies, formatted with array operations.

`g17_rows(values, n_cols)` returns the bytes that
`(",".join(["%.17g"] * n_cols) + "\n") * n_rows % tuple(values)` gives.
Zeros and |x| in [1e-4, 1e17) print in fixed notation, with the decimal
exponent X of their first digit in [-4, 16]; they are formatted here. Every
other value (NaN, infinities, tiny or huge magnitudes) goes through `%` alone.

The 17 significant digits of |x| are round-half-even(|x| * 10**(16 - X)).
Dekker's error-free product (Numer. Math. 1971) gives that product exactly
as hi + lo, 10**(16 - X) <= 1e21 being an exact double. hi >= 1e16 > 2**53
is an even integer, so adding rint(lo) rounds the sum half to even: the
correctly rounded digits that `%` prints (Gay 1990). X comes from log10 and
moves by one where the digits show it a decade off (log10 rounds across a
decade next to a power of ten) or rounded up to 10**17.
"""

import json

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Values formatted per block, with about 300 bytes of scratch each. 2**12 to
# 2**14 format equally fast on a 2-core host; at 2**12 the heap layout left
# perfbench's fig4 peak RSS 7 MB higher on every seed tried, at 2**13 on 1
# run of 27.
_BLOCK = 2 ** 13
_POW10 = np.array([float(10 ** k) for k in range(22)])  # exact: 5**21 < 2**53
_SPLIT = 2.0 ** 27 + 1


def _halves(a):
    """Dekker's split a = hi + lo into two halves of at most 26 bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _halves(_POW10)
# The four ASCII digits of each group 0000-9999 as one word, and the number
# of its trailing zeros (4 for 0000).
_GROUPS = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T
_DIGITS4 = np.ascontiguousarray(_GROUPS + ord("0")).view(np.uint32).ravel()
_ZEROS4 = np.logical_and.accumulate(_GROUPS[:, ::-1] == 0, axis=1).sum(axis=1)
# A value's text row: column 0 its sign, 1-17 the digits of weight 10**16 down
# to 10**0, 18 the point, 19-38 the digits of weight 10**-1 to 10**-20, 39
# its separator. _KEEP[start * 40 + end] keeps columns start to end - 1 and
# the separator.
_COLS = np.arange(40)
_KEEP = ((_COLS >= np.arange(18)[:, None, None]) & (_COLS < np.arange(40)[:, None])
         | (_COLS == 39)).reshape(-1, 40)


def _digits(a, k):
    """round-half-even(a * 10**k) as int64, for a * 10**k in [2**53, 2**62)."""
    hi = a * _POW10.take(k)
    a_hi, a_lo = _halves(a)
    b_hi, b_lo = _POW10_HI.take(k), _POW10_LO.take(k)
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _block(x, n_cols):
    """The text of whole rows of values, as uint8."""
    n = x.size
    a = np.abs(x)
    with np.errstate(invalid="ignore"):
        fast = (a >= 1e-4) & (a < 1e17)
    zero = a == 0.0
    a[~fast] = 2.0  # placeholder digits; zeros and `%` values replace them
    e = np.floor(np.log10(a)).astype(np.int64).clip(-4, 16)
    k = 16 - e
    d = _digits(a, k)
    # X one too high leaves the product below 10**16, where it need not be an
    # exact integer but never rounds above 10**16: take X - 1 unless that
    # rounds to 10**17.
    i = np.flatnonzero(d <= 10 ** 16)
    d_down = _digits(a[i], k[i] + 1)
    i, d_down = i[d_down < 10 ** 17], d_down[d_down < 10 ** 17]
    d[i], e[i] = d_down, e[i] - 1
    i = np.flatnonzero(d >= 10 ** 17)  # one too low, or rounded up to 10**17
    d[i], e[i] = _digits(a[i], k[i] - 1), e[i] + 1
    e[zero] = -1
    lead, rest = np.divmod(d, 10 ** 16)
    high, low = np.divmod(rest, 10 ** 8)
    groups = np.empty((n, 4), dtype=np.int64)
    groups[:, 0], groups[:, 1] = np.divmod(high, 10 ** 4)
    groups[:, 2], groups[:, 3] = np.divmod(low, 10 ** 4)
    # The 17 digits sit at columns 23-39 of a row of zeros; the text row's
    # digit columns are the 37 from 7 + X on.
    canvas = np.full((n, 60), ord("0"), dtype=np.uint8)
    canvas[:, 23] += lead.astype(np.uint8)
    canvas.view(np.uint32)[:, 6:10] = _DIGITS4.take(groups)
    digits = sliding_window_view(canvas.ravel(), 37)[np.arange(n) * 60 + 7 + e]
    out = np.empty((n, 40), dtype=np.uint8)
    out[:, 1:18] = digits[:, :17]
    out[:, 18] = ord(".")
    out[:, 19:39] = digits[:, 17:]
    out[:, 39] = ord(",")
    out[n_cols - 1::n_cols, 39] = ord("\n")
    # Trailing zeros of the 16 digits after the first, which is never 0.
    zeros = _ZEROS4.take(groups)
    trailing = zeros[:, 0]
    for j in (1, 2, 3):
        trailing = zeros[:, j] + (groups[:, j] == 0) * trailing
    decimals = np.where(zero, 0, np.maximum(16 - trailing - e, 0))
    neg = np.signbit(x)
    start = 17 - np.maximum(e, 0) - neg
    end = np.where(decimals > 0, 19 + decimals, 18)
    i = np.flatnonzero(neg)
    out[i, start[i]] = ord("-")
    for j in np.flatnonzero(~(fast | zero)):
        text = b"%.17g" % x[j]
        out[j, :len(text)] = np.frombuffer(text, dtype=np.uint8)
        start[j], end[j] = 0, len(text)
    return out[_KEEP.take(start * 40 + end, axis=0)]


def g17_rows(values, n_cols):
    """The `%.17g` text of `values` in rows of `n_cols`, comma-separated."""
    values = np.asarray(values, dtype=float).ravel()
    step = max(1, _BLOCK // n_cols) * n_cols
    return b"".join(_block(values[i:i + step], n_cols)
                    for i in range(0, values.size, step))


def json_bytes(doc):
    """Strict JSON: a NaN or infinity raises ValueError."""
    return (json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


def skymap_csv(smap):
    """Header line, then one row of `%.17g` values per l."""
    g = smap.grid
    return (f"# kind={smap.kind} alpha_hz={smap.alpha:.17g}"
            f" l_min={g.l_min:.17g} l_max={g.l_max:.17g}"
            f" m_min={g.m_min:.17g} m_max={g.m_max:.17g}\n".encode()
            + g17_rows(smap.power, smap.power.shape[1]))


def skymap_pgm(smap):
    """A 16-bit big-endian P5 image, linearly scaled from [0, max], and the
    text of its `.meta` sidecar, which records the scale and grid so the map
    can be reconstructed (up to quantization)."""
    power = smap.power
    peak = float(power.max())
    scaled = power / peak * 65535.0 if peak > 0 else np.zeros(power.shape)
    img = np.rint(scaled).astype(">u2")
    g = smap.grid
    pgm = f"P5\n{power.shape[1]} {power.shape[0]}\n65535\n".encode() + img.tobytes()
    meta = (f"scale={peak / 65535.0 if peak > 0 else 0.0:.17g}\n"
            f"l_min={g.l_min:.17g}\nl_max={g.l_max:.17g}\n"
            f"m_min={g.m_min:.17g}\nm_max={g.m_max:.17g}\n"
            f"kind={smap.kind}\nalpha_hz={smap.alpha:.17g}\n")
    return pgm, meta.encode()


def spectrum_csv(spec):
    """Two header lines, then `alpha,magnitude` rows in `%.17g`."""
    return (f"# conjugate={str(spec.conjugate).lower()}\nalpha_hz,magnitude\n".encode()
            + g17_rows(np.column_stack((spec.alphas, spec.magnitudes)), 2))


def schedule_json(sched):
    """`schedule.json`: each slot's program, pointing and risk, and the totals."""
    slots = [{"slot": slot, "program": pid, "risk": risk,
              "pointing": None if pos is None else [pos.l, pos.m]}
             for slot, (pid, pos, risk) in enumerate(
                 zip(sched.assignments, sched.pointings, sched.risk))]
    return json_bytes({"slots": slots, "total_risk": sched.total_risk,
                       "objective": sched.objective, "unscheduled": sched.unscheduled,
                       "starts": {str(k): v for k, v in sorted(sched.starts.items())},
                       "diagnostics": sched.diagnostics})


def flag_mask_csv(mask):
    """Header line, then one row of 0/1 flags per slot, one column per channel."""
    rows = "".join(",".join("1" if v else "0" for v in row) + "\n" for row in mask.flags)
    return (f"# slot_length_s={mask.slot_length:.17g}"
            f" channel_width_hz={mask.channel_width:.17g}"
            f" f_start_hz={mask.f_start:.17g}\n" + rows).encode()
