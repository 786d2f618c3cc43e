"""Fast self-check of the benchmark at tiny sizes.

Runs every workload in BENCHMARK.json once untraced and once traced with
``--tiny``, and checks the result line against BENCHMARK.json: its keys, the
metric names and units, and that every output check passed.  It also checks
that tracing leaves the outputs unchanged (same digest) and that the
benchmark refuses to run, without printing a result, in a directory holding
only BENCHMARK.json and the benchmark's own files.

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
DIGEST = re.compile(r"output digest \(first pass\) (sha256:[0-9a-f]{64})")


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
               "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def result_problems(done: subprocess.CompletedProcess, expected: dict[str, str]) -> list[str]:
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr.strip()[-300:]}"]
    result = json.loads(done.stdout.splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("an output check failed")
    counts = (result.get("attempted"), result.get("failed"))
    if not all(type(c) is int for c in counts) or counts[0] < 1 or not 0 <= counts[1] <= counts[0]:
        problems.append(f"attempted/failed {counts}")
    metrics = result.get("metrics", {})
    if list(metrics) != list(expected):
        problems.append(f"metric names {list(metrics)}, expected {list(expected)}")
    for name, metric in metrics.items():
        value = metric.get("value")
        if set(metric) != {"value", "unit"} or metric["unit"] != expected.get(name):
            problems.append(f"{name}: {metric}")
        elif type(value) not in (int, float) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layouts = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        digests = set()
        for trace, expected in layouts.items():
            done = run(ROOT, workload, trace)
            problems = result_problems(done, expected)
            digests.update(DIGEST.findall(done.stdout))
            status = "ok" if not problems else "FAILED " + "; ".join(problems)
            print(f"{workload} trace {trace}: {status}")
            failures += bool(problems)
        if len(digests) != 1:
            print(f"{workload}: traced and untraced outputs differ: {sorted(digests)}")
            failures += 1

    bare = ROOT / ".perfbench_work" / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, spec["workloads"][0]["name"], 0)
        refused = done.returncode != 0 and '"metrics"' not in done.stdout
        print(f"without the library's sources: {'refused' if refused else 'FAILED to refuse'}")
        failures += not refused
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
