"""The cyclosky benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload fig4 --seed 0 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports `cyclosky` from
`src/`. With `--trace 0` it times whole operations and prints the
end-to-end metrics; with `--trace 1` it wraps the layers' public functions
in spans and prints the per-layer metrics. The last line of standard output
is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
README.md in this directory says why each workload exists.
"""

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, fixed before numpy loads. At these matrix sizes a second
# thread gains nothing on a 2-core host, and with it every operation slows
# whenever another process takes the other core.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import workloads  # noqa: E402

ROOT = workloads.ROOT
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPANS_OUT = ROOT / ".perfbench_out"
# Fresh `validate` processes per untraced run: two before the warm-up,
# then one after each operation, so they sample the host across the run.
SETUP_SAMPLES = 7
# The host probe's time on the 2-core Xeon host this benchmark was tuned on.
# End-to-end times are scaled by PROBE_REF_S / (the run's probe median): on
# that host the same code's raw times moved by up to 60 % between minutes,
# while their ratio to the probe moved by about 10 %.
PROBE_REF_S = 6.0e-3
_clock = time.perf_counter


def blas_threads():
    """Threads of the OpenBLAS that numpy's wheel bundles, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            cdll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(cdll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def host_info():
    """Core count, BLAS threads and library versions of this process."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": blas_threads(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "python": sys.version.split()[0]}


class Probe:
    """Fixed numpy FFT-plus-matmul kernel that does not call cyclosky; its
    time tracks the speed of the host. It writes into preallocated arrays,
    so the heap state a workload leaves behind does not change it."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.data = rng.standard_normal((32, 8192)) + 1j * rng.standard_normal((32, 8192))
        self.spectrum = np.empty_like(self.data)
        self.conj = np.empty_like(self.data)
        self.gram = np.empty((32, 32), dtype=complex)
        self.times = []

    def __call__(self, repeats=5):
        """Median of `repeats` timed kernels, kept as one sample."""
        once = []
        for _ in range(repeats):
            start = _clock()
            np.fft.fft(self.data, axis=1, out=self.spectrum)
            np.conjugate(self.spectrum, out=self.conj)
            np.matmul(self.spectrum, self.conj.T, out=self.gram)
            once.append(_clock() - start)
        self.times.append(statistics.median(once))


def tree_digest(out):
    """sha256 of every artifact but `manifest.json`, by relative path."""
    digests = {}
    for path in sorted(out.rglob("*")):
        rel = path.relative_to(out).as_posix()
        if path.is_file() and rel != "manifest.json":
            digests[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def tree_size(out):
    files = [p for p in out.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


class Run:
    """State of one benchmark run: operations, their times and checks."""

    def __init__(self, args):
        self.args = args
        self.attempted = 0
        self.failures = []
        self.op_times = []          # timed operations, untraced
        self.traced_times = []
        self.frames = []            # per-frame latencies, s
        self.layer_runs = []        # one (self times, counts, files, bytes) per traced op
        self.span_log = []          # spans of each traced op
        self.probe = Probe()
        self.setup_path = None
        self.setup_times = []
        self.work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"

    def record(self, error):
        self.attempted += 1
        if error is not None:
            self.failures.append(error)

    def timed_loop(self, n_min, op):
        """Call op(i, traced) until `--seconds` have passed and at least
        n_min operations ran. Traced runs alternate untraced and traced
        operations, so the difference is the tracing overhead."""
        deadline = _clock() + self.args.seconds
        i = 0
        while i < n_min or _clock() < deadline:
            traced = bool(self.args.trace) and i % 2 == 1
            elapsed = op(i // 2 if self.args.trace else i, traced)
            (self.traced_times if traced else self.op_times).append(elapsed)
            self.probe()
            self.setup()
            i += 1

    def operation(self, traced, root, work, check, out=None):
        """Time work() as one operation, then run check(result) outside the
        timed span; returns the wall time."""
        import spans
        tracer = spans.Tracer() if traced else None
        result = error = None
        start = _clock()
        try:
            with tracer.span(root) if tracer else contextlib.nullcontext():
                result = work()
        except Exception as exc:  # an operation that raises has failed
            error = repr(exc)
        finally:
            if tracer is not None:
                tracer.close()
        elapsed = _clock() - start
        if error is None:
            error = check(result)
        self.record(error)
        if tracer is not None:
            files, size = tree_size(out) if out is not None else (0, 0)
            self.layer_runs.append((spans.self_times(tracer.spans),
                                    dict(tracer.counts), files, size))
            self.span_log.append(tracer.spans)
        return elapsed

    # -- pipeline workloads ------------------------------------------------

    def pipeline(self):
        from cyclosky import cli
        import spans

        scenes = []
        for j, seed in enumerate(workloads.scene_seeds(self.args.seed)):
            doc = workloads.scenario(self.args.workload, seed, self.args.tiny)
            path = self.work / f"scene{j}.scenario"
            workloads.write_scenario(doc, path)
            scenes.append((doc, path))
        self.setup_path = scenes[0][1]
        self.setup()
        self.setup()
        reference = {}
        scores = {}
        out = self.work / "out"
        clock = spans.FrameClock()

        def op(i, traced):
            j = i % len(scenes)
            doc, path = scenes[j]
            shutil.rmtree(out, ignore_errors=True)
            argv = ["run", "--config", str(path), "--out", str(out)]
            clock.take()

            def check(code):
                frames = clock.take()
                self.frames += frames
                error = self.check_pipeline(j, doc, out, code, frames, reference, scores)
                return error and f"scene {j}: {error}"
            return self.operation(traced, "cli.run", lambda: cli.main(argv), check, out)

        try:
            op(0, False)  # warm-up; also the reference for scene 0
            self.frames.clear()
            self.timed_loop(2 if self.args.trace else len(scenes), op)
        finally:
            clock.close()
        found, emitters, true_tracks, live = [sum(col) for col in zip(*scores.values())] or [0] * 4
        return {
            "emitter_recall": found / emitters if emitters else 1.0,
            "track_precision": true_tracks / live if live else 1.0,
            "truth": {"scenes": len(scores), "emitters_found": found,
                      "emitters": emitters, "true_tracks": true_tracks,
                      "live_tracks": live},
        }

    def setup(self):
        """Time one fresh `validate` process (import, parse and geometry),
        in untraced runs until SETUP_SAMPLES are taken."""
        if self.args.trace or len(self.setup_times) >= SETUP_SAMPLES:
            return
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        start = _clock()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "cyclosky.cli", "validate", "--config",
                 str(self.setup_path)], env=env, cwd=ROOT, capture_output=True,
                text=True, timeout=60)
        except subprocess.TimeoutExpired:
            proc = None
        elapsed = _clock() - start
        error = None
        if proc is None:
            error = "validate timed out"
        elif proc.returncode != 0 or "scenario is valid" not in proc.stdout:
            error = f"validate exited {proc.returncode}: {proc.stderr.strip()[-200:]}"
        self.record(error)
        self.setup_times.append(elapsed)

    def check_pipeline(self, j, doc, out, code, frames, reference, scores):
        if code != 0:
            return f"exit code {code}"
        missing = [name for name in workloads.expected_artifacts(doc)
                   if not (out / name).is_file()]
        if missing:
            return f"missing {missing[:3]}"
        n_frames = doc["scene"]["n_samples"] // doc["frames"]["length"]
        if len(frames) != n_frames:
            return f"frame clock saw {len(frames)} of {n_frames} frames"
        digest = tree_digest(out)
        if j not in reference:
            reference[j] = digest
            final = json.loads((out / f"tracks/frame_{n_frames - 1:04d}.json").read_text())
            scores[j] = workloads.score_tracks(doc, final)
        elif digest != reference[j]:
            changed = sorted(k for k in digest.keys() | reference[j].keys()
                             if digest.get(k) != reference[j].get(k))
            return f"artifacts differ from its first run: {changed[:3]}"
        return None

    # -- null_sweep ----------------------------------------------------------

    def null_sweep(self):
        from cyclosky import arraysim, cyclospec

        # Set-up time is the program's, so it is measured on the fig4 scene.
        self.setup_path = self.work / "setup.scenario"
        workloads.write_scenario(
            workloads.scenario("fig4", workloads.scene_seeds(self.args.seed)[0],
                               self.args.tiny), self.setup_path)
        self.setup()
        self.setup()
        fs = workloads.NULL_SAMPLE_RATE
        alphas = workloads.NULL_ALPHAS
        pairs = [(arraysim.ArraySnapshot(short, fs), arraysim.ArraySnapshot(long_, fs))
                 for short, long_ in workloads.null_records(self.args.seed, self.args.tiny)]
        reference = []

        def scan():
            result, frames = [], []
            for short, long_ in pairs:
                t0 = _clock()
                result.append((cyclospec.cyclic_spectrum(short, alphas),
                               cyclospec.cyclic_spectrum(long_, alphas)))
                frames.append(_clock() - t0)
            return result, frames

        def check(outcome):
            result, frames = outcome
            self.frames += frames
            return self.check_null(pairs, alphas, result, reference)

        def op(i, traced):
            return self.operation(traced, "null_sweep.test", scan, check)

        op(0, False)  # warm-up; also the reference result
        self.frames.clear()
        self.timed_loop(2, op)
        return {"emitter_recall": 1.0, "track_precision": 1.0,
                "truth": "no emitters and no tracks: recall and precision are 1"}

    def check_null(self, pairs, alphas, result, reference):
        from cyclosky import cyclospec
        mags = [(s.magnitudes, l.magnitudes) for s, l in result]
        if not reference:
            reference.extend(mags)
            # The FFT scan against the direct estimator at two alphas.
            for snaps, specs in zip(pairs, result):
                for snap, spec in zip(snaps, specs):
                    for k in (0, len(alphas) - 1):
                        direct = np.linalg.norm(
                            cyclospec.cyclic_corr_matrix(snap, alphas[k]).values)
                        if abs(spec.magnitudes[k] - direct) > 1e-10 * direct:
                            return (f"FFT scan {spec.magnitudes[k]!r} vs direct "
                                    f"{direct!r} at alpha {alphas[k]}")
        elif any(not (np.array_equal(a, c) and np.array_equal(b, d))
                 for (a, b), (c, d) in zip(mags, reference)):
            return "scan differs from the first operation"
        # Stationary null: the cyclic norm decays as N^(-1/2), so the
        # 4x longer records give half the median norm.
        ratio = (np.median([np.median(b) for _, b in mags])
                 / np.median([np.median(a) for a, _ in mags]))
        if not 0.375 <= ratio <= 0.625:
            return f"null norm ratio {ratio:.3f} outside 0.5 +/- 25%"
        return None

    # -- report ----------------------------------------------------------------

    def end_to_end(self, extra):
        frames = sorted(self.frames) or [0.0]  # empty only when every operation failed
        n = len(frames)
        host = PROBE_REF_S / statistics.median(self.probe.times)
        # Tail: the highest percentile with at least ten frames beyond it,
        # never below the median (short runs have few frames).
        tail_rank = max(n - 11, n // 2)
        raw = {"run_s": statistics.median(self.op_times),
               "frame_ms": 1e3 * statistics.median(frames),
               "frame_tail_ms": 1e3 * frames[tail_rank],
               "setup_s": statistics.median(self.setup_times)}
        metrics = {
            "run_s": (host * raw["run_s"], "s"),
            "frame_ms": (host * raw["frame_ms"], "ms"),
            "frame_tail_ms": (host * raw["frame_tail_ms"], "ms"),
            "setup_s": (host * raw["setup_s"], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB"),
            "emitter_recall": (extra["emitter_recall"], "ratio"),
            "track_precision": (extra["track_precision"], "ratio"),
            "ok_rate": (1.0 - len(self.failures) / self.attempted, "ratio"),
        }
        info = {"frame_tail_percentile": round(100.0 * (tail_rank + 1) / n, 1),
                "frame_samples": n, "truth": extra["truth"],
                "host_speed_factor": host, "unscaled": raw}
        return metrics, info

    def per_layer(self):
        runs = self.layer_runs
        k = len(runs)

        def mean_self(layer):
            return sum(r[0].get(layer, 0.0) for r in runs) / k

        def mean_count(key):
            return sum(r[1].get(key, 0) for r in runs) / k

        def ratio(a, b):
            return a / b if b else 0.0

        scan_s = mean_self("cyclospec.cyclic_spectrum")
        map_s = mean_self("imaging.map")
        hits = mean_count("hits")
        detections = mean_count("detections")
        cyclic_calls = mean_count("cyclospec.cyclic_corr_matrix.calls")
        map_calls = (mean_count("imaging.skymap.calls")
                     + mean_count("imaging.cyclic_skymap.calls"))
        metrics = {
            "signals.self_s": (mean_self("signals"), "s"),
            "arraysim.synthesize.self_s": (mean_self("arraysim.synthesize"), "s"),
            "arraysim.synthesize.calls": (mean_count("arraysim.synthesize.calls"), "count"),
            "cyclospec.cyclic_spectrum.self_s": (scan_s, "s"),
            "cyclospec.cyclic_spectrum.calls": (
                mean_count("cyclospec.cyclic_spectrum.calls"), "count"),
            "cyclospec.cyclic_spectrum.ns_per_pair_sample": (
                1e9 * ratio(scan_s, mean_count("pair_samples")), "ns"),
            "cyclospec.corr_matrix.self_s": (mean_self("cyclospec.corr_matrix"), "s"),
            "cyclospec.cyclic_corr_matrix.self_s": (
                mean_self("cyclospec.cyclic_corr_matrix"), "s"),
            "cyclospec.cyclic_corr_matrix.calls": (cyclic_calls, "count"),
            "cyclospec.detect_cyclic_freqs.self_s": (
                mean_self("cyclospec.detect_cyclic_freqs"), "s"),
            "cyclospec.detect_cyclic_freqs.hits": (hits, "count"),
            "cyclospec.hits_imaged_ratio": (ratio(cyclic_calls, hits), "ratio"),
            "imaging.map.self_s": (map_s, "s"),
            "imaging.map.calls": (map_calls, "count"),
            "imaging.map.ns_per_pixel_antenna": (
                1e9 * ratio(map_s, mean_count("pixel_antennas")), "ns"),
            "imaging.locate_peaks.self_s": (mean_self("imaging.locate_peaks"), "s"),
            "imaging.locate_peaks.peaks": (mean_count("peaks"), "count"),
            "tracking.step.self_s": (mean_self("tracking.step"), "s"),
            "tracking.step.detections": (detections, "count"),
            "tracking.step.match_ratio": (ratio(mean_count("matched"), detections), "ratio"),
            "tracking.live_tracks": (mean_count("live_tracks"), "count"),
            "scheduling.schedule.self_s": (mean_self("scheduling.schedule"), "s"),
            "scheduling.flag_mask.self_s": (mean_self("scheduling.flag_mask"), "s"),
            "cli.write.self_s": (mean_self("cli.write"), "s"),
            "cli.write.bytes": (sum(r[3] for r in runs) / k, "B"),
            "cli.write.files": (sum(r[2] for r in runs) / k, "count"),
            "cli.run.self_s": (mean_self("cli.run"), "s"),
        }
        traced = statistics.median(self.traced_times)
        untraced = statistics.median(self.op_times)
        traced_mean = statistics.fmean(self.traced_times)
        shares = {layer: round(mean_self(layer) / traced_mean, 4)
                  for layer in sorted({name for r in runs for name in r[0]})}
        info = {"traced_run_s": traced, "untraced_run_s": untraced,
                "trace_overhead_s": traced - untraced, "traced_ops": k,
                "layer_share_of_traced_run": shares}
        return metrics, info

    def write_spans(self):
        SPANS_OUT.mkdir(exist_ok=True)
        path = SPANS_OUT / f"spans-{self.args.workload}-seed{self.args.seed}.json"
        doc = {"fields": ["name", "start_s", "end_s", "parent"],
               "operations": self.span_log}
        path.write_text(json.dumps(doc) + "\n")
        return path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (for the smoke test)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cyclosky" / "cli.py").is_file() or not workloads.FIG4.is_file():
        print(f"cyclosky sources not found under {ROOT}: run from a checkout "
              "holding src/ and scenarios/", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    run = Run(args)
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "null_sweep":
            extra = run.null_sweep()
        else:
            extra = run.pipeline()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "host": host_info(), "operations": len(run.op_times) + len(run.traced_times),
            "probe_ms": 1e3 * statistics.median(run.probe.times),
            "op_s": [round(t, 4) for t in run.op_times],
            "setup_samples_s": [round(t, 4) for t in run.setup_times]}
    if args.trace:
        metrics, more = run.per_layer()
        more["spans_file"] = str(run.write_spans().relative_to(ROOT))
    else:
        metrics, more = run.end_to_end(extra)
    info.update(more)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    for failure in run.failures[:10]:
        print(f"failed: {failure}", file=sys.stderr)
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
