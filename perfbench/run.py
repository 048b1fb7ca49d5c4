"""Benchmark of ring-explorer: time to a checked result for its batch checkers.

    python3 perfbench/run.py --workload refute|campaign|verify --seed N \
        --seconds S --trace 0|1 [--size full|tiny]

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's ``src`` directory.  The run repeats the
workload's fixed job, each time in a fresh interpreter (``worker.py``), one
after another, until ``--seconds`` have passed and at least three repetitions
are done.  It reports the median of each metric over the repetitions.

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` untraced and traced repetitions
alternate and the metrics are the per-layer ones, plus the tracing overhead
(traced minus untraced ``wall_s``).  Every repetition's outputs must equal the
first one's, traced or not.

The second-to-last line of standard output is a JSON object with the run's
metadata (Python version, CPU count, commit, seed, sizes, instance counts);
the last line is the result: ``{"correct", "attempted", "failed", "metrics"}``.
``--size tiny`` runs the smoke-test sizes.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

import worker  # noqa: E402  (imports nothing from the package)

MIN_REPS = 3
LAST_START_S = 120  # no repetition starts later than this into the run
RUN_LIMIT_S = 170  # a repetition still running at this point is killed


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_worker(args: argparse.Namespace, traced: bool, deadline: float) -> dict:
    spawned = worker.now()
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--started-at", repr(spawned), "--size", args.size, "--trace", str(int(traced))]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=max(1.0, deadline - spawned))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["traced"] = traced
    return rep


def median_of(reps: list[dict], key: str) -> float:
    return statistics.median(rep[key] for rep in reps)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=worker.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(worker.SIZES), default="full")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "ring_explorer" / "__init__.py").is_file():
        print(f"run.py: no ring_explorer source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # Exit through Python on SIGTERM so that subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    start = worker.now()
    reps: list[dict] = []
    while True:
        elapsed = worker.now() - start
        if len(reps) >= MIN_REPS and (elapsed >= args.seconds or elapsed >= LAST_START_S):
            break
        traced = bool(args.trace) and len(reps) % 2 == 1
        try:
            reps.append(run_worker(args, traced, start + RUN_LIMIT_S))
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
            print(f"run.py: repetition {len(reps) + 1} failed: {exc}", file=sys.stderr)
            return 1

    failed = sum(rep["failed"] for rep in reps)
    attempted = sum(rep["attempted"] for rep in reps)
    errors = [e for rep in reps for e in rep["errors"]]
    for i, rep in enumerate(reps[1:], start=2):
        if rep["outputs"] != reps[0]["outputs"]:
            failed += rep["attempted"]
            errors.append(f"repetition {i} ({'traced' if rep['traced'] else 'untraced'}) "
                          "produced different outputs from repetition 1")

    untraced = [rep for rep in reps if not rep["traced"]]
    traced = [rep for rep in reps if rep["traced"]]
    if args.trace:
        values = {name: statistics.median(rep["layers"][name] for rep in traced)
                  for name in traced[0]["layers"]}
        overhead = median_of(traced, "wall_s") - median_of(untraced, "wall_s")
        values["trace.overhead_s"] = overhead
        values["trace.overhead_frac"] = overhead / median_of(untraced, "wall_s")
        wanted = spec["per_layer"]
    else:
        values = {name: median_of(reps, name)
                  for name in ("setup_s", "wall_s", "part_a_s", "part_b_s", "peak_rss_mb")}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "workload_size": reps[0]["size"],
        "repetitions": len(reps),
        "traced_repetitions": len(traced),
        "setup_s": [rep["setup_s"] for rep in reps],
        "raw_setup_s": [rep["raw_setup_s"] for rep in reps],
        "wall_s": [rep["wall_s"] for rep in reps],
        "raw_wall_s": [rep["raw_wall_s"] for rep in reps],
        "calibrations": [rep["calibrations"] for rep in reps],
        "failed_frac": failed / attempted,
        "errors": errors[:20],
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": failed == 0 and not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
