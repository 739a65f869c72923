"""Smoke test of the benchmark itself, at a tiny input size.

    python3 perfbench/smoke.py          (or: python3 -m pytest perfbench/smoke.py)

Each workload runs once untraced and once traced. Every metric that
BENCHMARK.json names must come out with its unit, and no operation may
fail. A copy of the benchmark without the sources must refuse to run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0.3", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_every_workload_emits_every_metric():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["attempted"] >= 1
            # error_rate: failed operations over attempted ones.
            assert result["failed"] / result["attempted"] == 0, proc.stderr
            assert result["correct"] is True
            wanted = {m["name"]: m["unit"] for m in SPEC[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == wanted, (workload, trace)
            assert all(isinstance(m["value"], (int, float))
                       for m in result["metrics"].values())


def test_refuses_to_run_without_sources():
    bare = ROOT / ".perfbench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(bare, "fig4", 0)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    test_every_workload_emits_every_metric()
    test_refuses_to_run_without_sources()
    print("smoke: ok")
