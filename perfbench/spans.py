"""Spans and frame timestamps recorded from outside the cyclosky package.

Every hook replaces a public module attribute (or a class attribute) with a
wrapper and puts the original back on `close()`. The pipeline in
`cyclosky.cli` looks each call up as `module.func` at call time, so the
wrappers see every call without a change under `src/`.
"""

import functools
import inspect
import time

import numpy as np

from cyclosky import arraysim, cyclospec, imaging, scheduling, signals, tracking

_clock = time.perf_counter


class _Patches:
    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, make):
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def close(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _public_functions(module):
    return [name for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")]


class FrameClock:
    """Per-frame latency: from a frame's first call into `cyclospec` to the
    return of its `tracking.write_frame_log`."""

    def __init__(self):
        self.latencies = []
        self._open = None
        self._patches = _Patches()
        for name in _public_functions(cyclospec):
            self._patches.replace(cyclospec, name, self._opening)
        self._patches.replace(tracking, "write_frame_log", self._closing)

    def _opening(self, fn):
        def wrapper(*args, **kwargs):
            if self._open is None:
                self._open = _clock()
            return fn(*args, **kwargs)
        return wrapper

    def _closing(self, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self._open is not None:
                self.latencies.append(_clock() - self._open)
                self._open = None
            return result
        return wrapper

    def take(self):
        """Latencies of the frames closed since the last call."""
        out, self.latencies, self._open = self.latencies, [], None
        return out

    def close(self):
        self._patches.close()


# Span name -> layer metric prefix. Writes are found by name (`write_*`).
_LAYER_OF = {
    "signals.gen_noise": "signals",
    "signals.gen_bpsk": "signals",
    "signals.gen_cw": "signals",
    "arraysim.synthesize": "arraysim.synthesize",
    "cyclospec.cyclic_spectrum": "cyclospec.cyclic_spectrum",
    "cyclospec.corr_matrix": "cyclospec.corr_matrix",
    "cyclospec.cyclic_corr_matrix": "cyclospec.cyclic_corr_matrix",
    "cyclospec.detect_cyclic_freqs": "cyclospec.detect_cyclic_freqs",
    "imaging.skymap": "imaging.map",
    "imaging.cyclic_skymap": "imaging.map",
    "imaging.locate_peaks": "imaging.locate_peaks",
    "tracking.Tracker.step": "tracking.step",
    "scheduling.schedule": "scheduling.schedule",
    "scheduling.flag_mask": "scheduling.flag_mask",
    "numpy.save": "cli.write",
    # Roots: one pipeline run, one stationary-null test.
    "cli.run": "cli.run",
    "null_sweep.test": "null_sweep.test",
}


def layer_of(name):
    if name.rsplit(".", 1)[-1].startswith("write_"):
        return "cli.write"
    return _LAYER_OF[name]


class Tracer:
    """In-memory spans (name, start, end, parent index) plus counters.

    Counters are kept where the work happens: the wrapper of each layer
    reads the call's arguments and result.
    """

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._patches = _Patches()
        for name in ("gen_noise", "gen_bpsk", "gen_cw"):
            self._hook(signals, name)
        self._hook(arraysim, "synthesize")
        self._hook(cyclospec, "cyclic_spectrum", self._count_scan)
        self._hook(cyclospec, "corr_matrix")
        self._hook(cyclospec, "cyclic_corr_matrix")
        self._hook(cyclospec, "detect_cyclic_freqs", self._count_hits)
        self._hook(imaging, "skymap", self._count_map)
        self._hook(imaging, "cyclic_skymap", self._count_map)
        self._hook(imaging, "locate_peaks", self._count_peaks)
        self._hook(tracking.Tracker, "step", self._count_step,
                   label="tracking.Tracker.step")
        self._hook(scheduling, "schedule")
        self._hook(scheduling, "flag_mask")
        for module in (cyclospec, imaging, tracking, scheduling):
            for name in _public_functions(module):
                if name.startswith("write_"):
                    self._hook(module, name)
        self._hook(np, "save")

    def _add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _hook(self, owner, attr, count=None, label=None):
        label = label or f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"

        def make(fn):
            def wrapper(*args, **kwargs):
                with self.span(label):
                    result = fn(*args, **kwargs)
                self._add(label + ".calls", 1)
                if count:
                    count(args, result)
                return result
            return wrapper
        self._patches.replace(owner, attr, make)

    def span(self, name):
        return _Span(self, name)

    def _count_scan(self, args, result):
        snap = args[0]
        self._add("pair_samples", snap.n_antennas ** 2 * snap.n_samples)

    def _count_hits(self, args, result):
        self._add("hits", len(result))

    def _count_map(self, args, result):
        geom, grid = args[1], args[2]
        self._add("pixel_antennas", grid.n_l * grid.n_m * geom.n_antennas)

    def _count_peaks(self, args, result):
        self._add("peaks", len(result))

    def _count_step(self, args, result):
        # A matched detection extends a track to two or more points ending
        # at this frame; an unmatched one starts a track of one point.
        detections = args[1]
        self._add("detections", len(detections))
        if detections:
            now = detections[0].time
            self._add("matched", sum(1 for tr in result if len(tr.history) > 1
                                     and tr.history[-1][0] == now))
        self.counts["live_tracks"] = len(result)

    def close(self):
        self._patches.close()


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        parent = tracer._stack[-1] if tracer._stack else None
        self.index = len(tracer.spans)
        tracer.spans.append([self.name, _clock(), None, parent])
        tracer._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index][2] = _clock()
        self.tracer._stack.pop()
        return False


def self_times(spans):
    """Per-layer self time: each span's duration minus its children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    out = {}
    for (name, start, end, parent), inner in zip(spans, child):
        layer = layer_of(name)
        out[layer] = out.get(layer, 0.0) + (end - start) - inner
    return out
