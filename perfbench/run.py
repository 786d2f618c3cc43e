"""Benchmark of the majority_illusion library and its millusion CLI.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload color-pipeline --seed 1 --seconds 16 --trace 0

Load model: a closed loop with one caller in one single-threaded process.
Each job starts when the previous one returns, as a script or a shell
pipeline waiting on ``millusion`` would.  The loop makes whole passes over
the workload's job pool; their number is ``--seconds`` over the pool's
nominal pass time, so a seed always runs the same jobs.

Host speed: a shared host's speed drifts by tens of percent over seconds.
Before each job, and after the last, the loop times a fixed pure-Python
reference task that does not touch the library.  Each job's wall time is
scaled by ``REFERENCE_S`` over the mean of the two readings around it,
which gives its time on a host where the reference task takes
``REFERENCE_S``.  The end-to-end timings are these scaled times; the raw
wall times are printed and recorded beside them.

Set-up time is measured in fresh processes (``--setup-only``): importing
the library and generating and writing the inputs, up to the first job,
scaled in the same way by reference readings taken around it.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the library's layer functions are
wrapped for the run (see ``tracing.py``) and the line carries the per-layer
metrics.  Lines before it give the same figures for people, with the tail
percentile, the failures by kind, the output digest and the environment.
A copy of the results, and the spans of a traced run, go to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import os

# Before numpy is imported, anywhere: the benchmark runs single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
TAIL_BEYOND = 10
# REFERENCE_S only fixes the unit of the scaled times.  It is a little below
# the fastest reading of the reference task (see reference_reading) seen on
# a shared 2-vCPU x86-64 VM with CPython 3.11, 12.7 ms; under load, readings
# there were twice that.  A job's scaled time uses the mean of the two
# readings around it: the host's speed changes within seconds, so readings
# further away track it less well.
REFERENCE_ITERATIONS = 40_000
REFERENCE_ROWS = 25_000
REFERENCE_S = 0.0115

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "ops_ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-check")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def reference_reading() -> float:
    """Wall time of a fixed pure-Python task that does not touch the library:
    dict updates on small keys, then building and freeing a few megabytes of
    tuples and strings, as the library does with edges and text.  It gives
    the host's current speed."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(REFERENCE_ITERATIONS):
        key = i & 1023
        table[key] = table.get(key, 0) + i
    rows = [(i, i + 1, str(i)) for i in range(REFERENCE_ROWS)]
    index = {row[0]: row for row in rows}
    del rows, index
    return time.perf_counter() - t0


def scale_factors(readings: list[float]) -> list[float]:
    """Per job, REFERENCE_S over the mean of the readings just before and
    just after it: job ``i`` runs between readings ``i`` and ``i + 1``."""
    return [2 * REFERENCE_S / (a + b) for a, b in zip(readings, readings[1:])]


def load_library() -> None:
    """Put the checkout's own source first on the path; refuse to run on
    anything else, such as an installed copy."""
    src = ROOT / "src"
    if not (src / "majority_illusion" / "__init__.py").is_file():
        raise SystemExit(f"error: no majority_illusion sources under {src}")
    sys.path.insert(0, str(src))
    import majority_illusion

    if Path(majority_illusion.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"error: imported majority_illusion from {majority_illusion.__file__}")


def fresh_workdir(tag: str) -> Path:
    path = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def setup(args: argparse.Namespace, tag: str):
    """Import the library and generate and write the workload's inputs."""
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"expected one of {sorted(workloads.WORKLOADS)}")
    workdir = fresh_workdir(tag)
    return workdir, workloads.WORKLOADS[args.workload](args.seed, workdir, args.tiny)


def setup_probe(args: argparse.Namespace) -> int:
    before = [reference_reading() for _ in range(4)]
    start = time.perf_counter()
    load_library()
    workdir, _ = setup(args, "probe")
    elapsed = time.perf_counter() - start
    shutil.rmtree(workdir, ignore_errors=True)
    speed = statistics.median(before + [reference_reading() for _ in range(4)])
    print(json.dumps({"setup_s": elapsed * REFERENCE_S / speed, "raw_setup_s": elapsed}))
    return 0


def measure_setup(args: argparse.Namespace) -> list[dict]:
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    if args.tiny:
        command.append("--tiny")
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=False)
        if done.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{done.stderr}")
        times.append(json.loads(done.stdout.splitlines()[-1]))
    return times


def environment() -> dict:
    import numpy

    with open("/proc/loadavg", encoding="ascii") as fh:
        loadavg = fh.read().split()[:3]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": [float(x) for x in loadavg],
    }


def run_jobs(jobs, passes: int, tracer) -> dict:
    """Closed loop: ``passes`` whole passes over the pool, with a reference
    reading before each job and after the last.  Each job starts from a
    collected heap, as a fresh ``millusion`` process would.

    A job fails if it raises (including an exception escaping ``cli.main``),
    returns an unexpected exit code, or fails its output check; the loop
    records the kind and carries on.  Only ``job.run`` is timed.  A job whose
    outputs are byte for byte those of an earlier run of the same job gets
    that run's check verdict instead of a second check.
    """
    from workloads import CheckFailed, ExitCodeError

    walls: list[float] = []
    readings: list[float] = []
    ok: list[bool] = []
    failures: Counter[str] = Counter()
    examples: dict[str, str] = {}
    checks_failed = 0
    verdicts: dict[tuple[int, bytes], str | None] = {}
    digest = hashlib.sha256()
    for position, job in enumerate(jobs * passes):
        gc.collect()
        readings.append(reference_reading())
        if tracer is not None:
            tracer.job = len(walls)
        t0 = time.perf_counter()
        try:
            outputs = job.run()
            kind = detail = None
        except ExitCodeError as exc:
            kind, detail = f"exit {exc.code}", str(exc)
            outputs = (kind,)
        except Exception as exc:  # any escape from the library is a failed job
            kind, detail = type(exc).__name__, str(exc)[:200]
            outputs = (kind,)
        walls.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.job = None
        text = repr(outputs).encode()
        if kind is None:
            key = (position % len(jobs), hashlib.sha256(text).digest())
            if key not in verdicts:
                try:
                    job.check(outputs)
                    verdicts[key] = None
                except CheckFailed as exc:
                    verdicts[key] = str(exc)
            if verdicts[key] is not None:
                kind, detail = "check", verdicts[key]
                checks_failed += 1
        ok.append(kind is None)
        if kind is not None:
            failures[kind] += 1
            examples.setdefault(kind, f"{job.label}: {detail}")
        if position < len(jobs):
            digest.update(text)
    readings.append(reference_reading())
    return {
        "walls": walls,
        "readings": readings,
        "ok": ok,
        "failures": failures,
        "examples": examples,
        "checks_failed": checks_failed,
        "digest": digest.hexdigest(),
    }


def tail(walls: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND jobs beyond it, and
    that percentile; with fewer jobs, the maximum at 100."""
    ordered = sorted(walls)
    index = len(ordered) - 1 - (TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        return setup_probe(args)
    load_library()
    env = environment()
    setup_probes = measure_setup(args)
    workdir, jobs = setup(args, "run")
    import workloads

    passes = workloads.passes(args.workload, args.seconds, args.tiny)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        result = run_jobs(jobs, passes, tracer)
    finally:
        if tracer is not None:
            tracer.remove()
        shutil.rmtree(workdir, ignore_errors=True)

    raw_walls, ok = result["walls"], result["ok"]
    factors = scale_factors(result["readings"])
    walls = [wall * factor for wall, factor in zip(raw_walls, factors)]
    attempted = len(walls)
    failed = attempted - sum(ok)
    jobs_per_s = (attempted - failed) / sum(walls)
    tail_value, tail_pct = tail(walls)
    end_to_end = {
        "jobs_per_s": jobs_per_s,
        "job_p50_s": statistics.median(walls),
        "job_tail_s": tail_value,
        "ops_ok_ratio": (attempted - failed) / attempted,
        "setup_s": statistics.median(p["setup_s"] for p in setup_probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {
        "jobs_per_s": (attempted - failed) / sum(raw_walls),
        "job_p50_s": statistics.median(raw_walls),
        "job_tail_s": tail(raw_walls)[0],
        "setup_s": statistics.median(p["raw_setup_s"] for p in setup_probes),
    }
    if tracer is None:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}
    else:
        metrics = tracer.layer_metrics(jobs_per_s, statistics.median(factors))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} jobs, {passes} passes over a pool of {len(jobs)}")
    for name, metric in metrics.items():
        note = ""
        if name == "job_tail_s":
            note = f"  (p{tail_pct:.1f} of {attempted} jobs)"
        print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}{note}")
    print(f"  ops_failed_ratio             {failed / attempted:.6g} ratio")
    print(f"  unscaled wall times: {json.dumps(raw)}; "
          f"host speed factor median {statistics.median(factors):.4g}, "
          f"range {min(factors):.4g}-{max(factors):.4g}")
    for kind, count in sorted(result["failures"].items()):
        print(f"  failed {kind}: {count} (first: {result['examples'][kind]})")
    print(f"  output digest (first pass) sha256:{result['digest']}")
    print(f"  environment {json.dumps(env, sort_keys=True)}")
    if tracer is not None:
        from tracing import PER_LAYER

        print("  predictions (per-layer metric -> end-to-end metric and workload):")
        for name, _, _, prediction in PER_LAYER:
            print(f"    {name}: {prediction}")

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "environment": env,
        "metrics": metrics,
        "end_to_end_of_this_run": end_to_end,
        "unscaled": raw,
        "tail_percentile": tail_pct,
        "passes": passes,
        "jobs": [job.label for job in jobs],
        "job_walls_s": raw_walls,
        "job_scaled_s": walls,
        "reference_readings_s": result["readings"],
        "setup_probes": setup_probes,
        "failures": dict(result["failures"]),
        "output_digest": result["digest"],
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if tracer is not None:
        with open(stem.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")

    print(json.dumps({
        "correct": result["checks_failed"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
