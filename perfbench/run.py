"""Benchmark of bgshift: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload sweep-4-1 --seed 0 --seconds 20 --trace 0

``--workload all`` runs every workload, each in its own process.

Run it from the root of a checkout; it builds nothing and imports bgshift
from ``src/``. The workloads are described in ``workloads.py`` and
BENCHMARK.json.

``--trace 0`` sets up the workload several times (``setup_s`` is the median),
then repeats the timed call until ``--seconds`` have passed and reports
medians. ``--trace 1`` makes one untraced call
and one traced call, checks that both computed the same results, writes the
spans to ``.perfbench_out/`` and reports the per-layer metrics, the kernel
timings and ``trace_overhead``. Every call's output is checked; a failed
check counts into ``failed`` and makes the exit code 1. The last line of
standard output is the result as one JSON object.

Seeds: 0 is the default and the seed for tuning; 7919 is held out for
checking claims. The dataset and training seeds are derived from it.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BGSHIFT_WORKERS": "1",
}
IMPORT_PROBE = "import time; t = time.perf_counter(); import bgshift; print(time.perf_counter() - t)"


def import_seconds() -> float:
    """Time ``import bgshift`` in a fresh interpreter (numpy included)."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.split()[-1])


def git_commit() -> str:
    """The checked-out commit, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "pinned": {k: os.environ[k] for k in PINNED_ENV},
        "commit": git_commit(),
    }


@dataclass
class Unit:
    """One timed call into the program and the check of its output."""

    wall_s: float
    outcome: object


def timed_call(workload, tracer=None) -> Unit:
    t = time.perf_counter()
    try:
        with tracer.installed() if tracer else contextlib.nullcontext():
            raw = workload.call()
        wall_s = time.perf_counter() - t
        return Unit(wall_s, workload.evaluate(raw))
    except Exception:  # a crash is reported as failed cells, not as a traceback exit
        wall_s = time.perf_counter() - t
        print(traceback.format_exc(), file=sys.stderr)
        return Unit(wall_s, workload.failed_call(traceback.format_exc(limit=1).strip().splitlines()[-1]))


def measure(workload, seconds: float, trace: bool, seed: int) -> dict:
    """Set up and run ``workload``; returns the result object to print."""
    setups = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        t = time.perf_counter()
        workload.setup()
        setups.append(imported + time.perf_counter() - t)

    started = time.perf_counter()
    units = [timed_call(workload)]
    while not trace and time.perf_counter() - started < seconds:
        units.append(timed_call(workload))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        units.append(timed_call(workload, tracer))

    errors = [e for u in units for e in u.outcome.errors]
    failed = sum(u.outcome.failed for u in units)
    first = units[0].outcome
    for i, u in enumerate(units[1:], 1):
        if u.outcome.signature != first.signature:
            errors.append(f"call {i} computed other results than call 0 (repeat or tracing changed them)")
            failed += 1

    detail = {
        "cells_attempted": (first.attempted, "count"),
        "cells_failed": (first.failed, "count"),
        **{k: (v, "mIoU") for k, v in first.quality.items()},
    }
    if trace:
        traced = units[-1]
        for method, loss in first.final_loss.items():
            if tracer.final_loss.get(method) != loss:
                errors.append(f"traced final loss of {method} differs from the untraced run")
                failed += 1
        from kernels import kernel_metrics

        metrics = tracer.per_layer()
        metrics.update(kernel_metrics(workload.hw, seed))
        metrics["trace_overhead"] = (traced.wall_s / units[0].wall_s, "ratio")
        tracer.write(ROOT / ".perfbench_out" / f"trace-{workload.name}-seed{seed}.json")
    else:
        walls = [u.wall_s for u in units]
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "train_iters_per_s": (statistics.median(u.outcome.iterations / u.wall_s for u in units), "1/s"),
        }
        detail["calls_measured"] = (len(units), "count")
    return {
        "correct": failed == 0 and not errors,
        "attempted": sum(u.outcome.attempted for u in units),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()},
        "errors": errors,
    }


def run_all(names: list[str], args) -> int:
    """Run every workload, each in its own process; nonzero if any failed."""
    codes = []
    for name in names:
        flags = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
        codes.append(subprocess.run([sys.executable, __file__, "--workload", name, *flags], cwd=ROOT).returncode)
    return max(codes)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny is for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "bgshift" / "__init__.py").is_file():
        print(f"error: no bgshift sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    # the thread settings only hold if they are in place before numpy loads
    os.environ.update(PINNED_ENV)
    sys.path[:0] = [str(SRC), str(HERE)]
    import bgshift
    from workloads import WORKLOADS

    if Path(bgshift.__file__).resolve().parent != (SRC / "bgshift").resolve():
        print(f"error: imported bgshift from {bgshift.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(list(WORKLOADS), args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: all, {', '.join(WORKLOADS)}")

    print(json.dumps({"environment": environment()}))
    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, args.scale, work_dir)
    try:
        result = measure(workload, args.seconds, bool(args.trace), args.seed)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    from tracing import prediction

    print(f"{args.workload} seed={args.seed} scale={args.scale} trace={args.trace}")
    for name, m in result.pop("detail").items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, m in result["metrics"].items():
        note = f"  -> moves {prediction(name)}" if args.trace else ""
        print(f"  {name} = {m['value']:.6g} {m['unit']}{note}")
    for error in result.pop("errors"):
        print(f"  CHECK FAILED: {error}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
