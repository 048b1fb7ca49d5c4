"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

1. A tiny-size run of every workload, untraced and traced, prints exactly the
   end-to-end or per-layer metrics named in ``BENCHMARK.json``, each with its
   unit, and passes its correctness gate.
2. The gate has teeth.  A ``decide`` mutant fed through the public ``decide=``
   parameter, a gathering robot that steps onto an occupied neighbour, makes
   the ``campaign`` and ``verify`` jobs report failed units.  For ``refute``,
   which has no such parameter, one altered reference kind must count as
   exactly one failed table.

It is kept out of the package's test suite so that the suite's time stays a
measure of the tests alone.  Exit status 0 when every check passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402

SEED = 7
TINY = worker.SIZES["tiny"]


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise AssertionError(f"run.py {workload} --trace {trace} exited {proc.returncode}: "
                             f"{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_metrics() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = bench(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            assert result["attempted"] >= 1
            units = {name: metric["unit"] for name, metric in result["metrics"].items()}
            assert units == {m["name"]: m["unit"] for m in spec[key]}, (workload, key)
            print(f"ok {workload} --trace {trace}: {len(units)} metrics, "
                  f"{result['attempted']} units")


def colliding_mover(ctx):
    """Phase-1 movers step onto an occupied neighbour when they have one."""
    decide, protocol, ring = ctx.pkg.decide, ctx.protocol, ctx.ring

    def mutant(c, i):
        d = decide(c, i)
        if d.moves and ring.is_towerless(c) and not protocol.has_four_segment(c):
            n = len(c)
            for v in ((i - 1) % n, (i + 1) % n):
                if c[v]:
                    return protocol.move(v)
        return d

    return mutant


def check_gate() -> None:
    for workload in ("campaign", "verify"):
        ctx = worker.setup(workload, TINY[workload])
        clean = worker.measure(ctx, SEED, traced=False)
        mutated = worker.measure(ctx, SEED, traced=False, decide=colliding_mover(ctx))
        assert clean["failed"] == 0, clean["errors"]
        assert mutated["failed"] > 0, f"{workload}: the mutant passed the gate"
        print(f"ok {workload} gate: mutant failed {mutated['failed']}/{mutated['attempted']} "
              f"units, e.g. {mutated['errors'][0]!r}")

    ctx = worker.setup("refute", TINY["refute"])
    kinds = ctx.expected["distributed"]
    ctx.expected["distributed"] = kinds[:3] + ("f" if kinds[3] == "b" else "b") + kinds[4:]
    result = worker.measure(ctx, SEED, traced=False)
    assert result["failed"] == 1, result
    print(f"ok refute gate: one altered reference kind gave {result['failed']} failed table")


if __name__ == "__main__":
    check_metrics()
    check_gate()
    print("smoke test passed")
