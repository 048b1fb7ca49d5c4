"""One repetition of one benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload refute|campaign|verify --seed N \
        --started-at T [--size full|tiny] [--trace 0|1]

The worker imports ``ring_explorer`` from the ``src`` directory of the
checkout this file sits in, sets the workload up, runs its fixed job once,
checks every unit of work against the reference, and prints one JSON line.
A fresh interpreter per repetition matters: the package's ``lru_cache``s and
its lazily built refuter tables live for the whole process, and a command-line
user pays to fill them on every invocation.

``--started-at`` is the CLOCK_MONOTONIC instant at which the parent started
this interpreter, so that set-up is timed from interpreter start.

Times are reported in reference seconds.  The machine the benchmark was made
on runs at two speeds about 1.7x apart, each lasting seconds to minutes, so
``calibrate()`` runs right after set-up and after each half of the job, and
each time is scaled by the calibration measured around it (see README).
Raw seconds are reported alongside.

With ``--trace 1`` the job runs with spans around the calls into each layer.
The only hook into the program is the public ``decide=`` parameter of
``run``, ``campaign`` and the ``check_*`` functions; no module of the package
is patched and no private name is read.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("refute", "campaign", "verify")
MODES = ("distributed", "sequential")
POLICIES = ("round-robin", "random-subset")
CHECKS = ("no_tower", "four_segment", "phase3")
KIND_CODES = {"bad-terminal": "b", "forcing-non-termination": "f", "unrefuted": "u"}
KIND_NAMES = {"b": "bad_terminal", "f": "forcing", "u": "unrefuted"}
MAX_STEPS = 100_000  # the ``campaign`` subcommand's default and the MRP batch's limit
RING_REPLAY_CALLS = 20_000  # calls per ring function in the replay
CALIBRATION_ROUNDS = 200
REFERENCE_CALIBRATION_S = 0.1  # calibrate() on the reference machine; see README

# ``full`` is what the benchmark measures; ``tiny`` is for the smoke test.
# The refute stride is a fixed stride over the table index, not a prefix: at
# 14 the slice keeps the full space's 40.0% share of bad-terminal tables.
SIZES = {
    "full": {
        "refute": {"stride": 14},
        "campaign": {"n": 15, "trials": 500},
        "verify": {"n": 20, "traces": 25},
    },
    "tiny": {
        "refute": {"stride": 1400},
        "campaign": {"n": 9, "trials": 10},
        "verify": {"n": 9, "traces": 3},
    },
}


def now() -> float:
    # Comparable across processes on Linux, unlike a per-process counter.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def to_reference(seconds: float, calibration: float) -> float:
    """Seconds scaled to the machine speed at which ``calibrate()`` takes
    REFERENCE_CALIBRATION_S."""
    return seconds * REFERENCE_CALIBRATION_S / calibration


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop of the kinds of work the package
    does most: building and slicing small tuples, ``min`` over generators,
    and dict updates.  The benchmark's own code, so a change to the package
    cannot move it."""
    start = time.perf_counter()
    seen: dict = {}
    for r in range(CALIBRATION_ROUNDS):
        for a in range(40):
            c = tuple((a * 7 + j * r) % 3 for j in range(12))
            m = c[::-1]
            best = min(min(c[i:] + c[:i] for i in range(12)), min(m[i:] + m[:i] for i in range(12)))
            seen[best] = seen.get(best, 0) + 1
    return time.perf_counter() - start


def load_reference() -> dict:
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    refute = reference["refute"]
    for mode in MODES:
        kinds = refute["kinds"][mode]
        counts = {code: kinds.count(code) for code in refute["totals"][mode]}
        if counts != refute["totals"][mode] or len(kinds) != sum(counts.values()):
            raise ValueError(f"reference kinds for {mode} do not add up to the published totals")
    return reference


# ---------------------------------------------------------------------------
# Tracing: spans and counts recorded from the benchmark's side of each call
# ---------------------------------------------------------------------------

class TracedDecide:
    """Wraps a decide function; counts calls, busy time and distinct keys."""

    def __init__(self, decide: Callable):
        self._decide = decide
        self.calls = 0
        self.busy_s = 0.0
        self.keys: set = set()

    def __call__(self, c, i):
        start = time.perf_counter()
        decision = self._decide(c, i)
        self.busy_s += time.perf_counter() - start
        self.calls += 1
        self.keys.add((tuple(c), i))
        return decision


@dataclass
class Spans:
    """Per-layer spans of one traced repetition."""

    refute: dict = field(default_factory=dict)  # (mode, kind code) -> [seconds]
    witness_s: float = 0.0
    validate_s: float = 0.0
    decide: Optional[TracedDecide] = None
    trials: dict = field(default_factory=dict)  # policy -> [(run s, decide s, steps)]
    busy: dict = field(default_factory=dict)  # verify span name -> seconds
    no_tower_self_s: float = 0.0
    no_tower_instances: int = 0
    ring_configs: int = 0
    ring: dict = field(default_factory=dict)  # ring function -> (calls, seconds)

    def add(self, name: str, seconds: float) -> None:
        self.busy[name] = self.busy.get(name, 0.0) + seconds

    def metrics(self) -> dict:
        """Every per-layer metric, 0 for a layer the workload does not use."""
        out: dict[str, float] = {}
        for mode in MODES:
            for code, kind in KIND_NAMES.items():
                samples = self.refute.get((mode, code), [])
                prefix = f"impossibility.{mode}.{kind}"
                out[f"{prefix}.tables"] = len(samples)
                out[f"{prefix}.busy_s"] = sum(samples)
                if code != "u":  # a handful of unrefuted tables has no useful percentile
                    out[f"{prefix}.p50_us"] = percentile(samples, 0.50) * 1e6
                    out[f"{prefix}.p98_us"] = percentile(samples, 0.98) * 1e6
        out["impossibility.witness_s"] = self.witness_s
        out["impossibility.validate_s"] = self.validate_s

        decide = self.decide
        calls = decide.calls if decide else 0
        out["protocol.decide.calls"] = calls
        out["protocol.decide.busy_s"] = decide.busy_s if decide else 0.0
        out["protocol.decide.us_per_call"] = decide.busy_s / calls * 1e6 if calls else 0.0
        out["protocol.decide.distinct_frac"] = len(decide.keys) / calls if calls else 0.0

        for policy in POLICIES:
            trials = self.trials.get(policy, [])
            steps = sum(t[2] for t in trials)
            self_s = sum(t[0] - t[1] for t in trials)
            prefix = f"engine.{policy.replace('-', '_')}"
            out[f"{prefix}.steps"] = steps
            out[f"{prefix}.self_s"] = self_s
            out[f"{prefix}.us_per_step"] = self_s / steps * 1e6 if steps else 0.0
            out[f"{prefix}.trial_p50_ms"] = percentile([t[0] for t in trials], 0.50) * 1e3
            out[f"{prefix}.trial_p98_ms"] = percentile([t[0] for t in trials], 0.98) * 1e3

        for name in ("invariants", "mrp_bounds", "no_tower", "four_segment", "phase3", "mrp_batch"):
            out[f"verify.{name}.busy_s"] = self.busy.get(name, 0.0)
        out["verify.no_tower.self_s"] = self.no_tower_self_s
        out["verify.no_tower.instances"] = self.no_tower_instances

        out["ring.replay.configs"] = self.ring_configs
        for name in ("canonical_form", "view_of", "segments", "find_arrow"):
            calls, seconds = self.ring.get(name, (0, 0.0))
            out[f"ring.{name}.us_per_call"] = seconds / calls * 1e6 if calls else 0.0
        return out


def reached_keys(ctx: SimpleNamespace, spans: Spans) -> list:
    """The (configuration, occupied node) pairs the job looked at: the keys
    ``decide`` saw, or for the refuter every three-robot configuration of the
    four-ring, which is what its transition tables are built from."""
    if spans.decide.keys:
        return sorted(spans.decide.keys)
    imp = ctx.impossibility
    configs = [
        tuple(nodes.count(v) for v in range(imp.N))
        for nodes in itertools.combinations_with_replacement(range(imp.N), imp.K)
    ]
    return [(c, v) for c in configs for v in range(imp.N) if c[v]]


def replay_ring(ctx: SimpleNamespace, spans: Spans, keys: list) -> None:
    """Time the public ring functions on the configurations a workload reached.

    The package caches ring results, so after the job this is the warm-cache
    cost per call: argument validation plus the cache lookup.
    """
    ring = ctx.ring
    configs = sorted({c for c, _ in keys})
    spans.ring_configs = len(configs)
    for name, fn, args in (
        ("canonical_form", ring.canonical_form, [(c,) for c in configs]),
        ("segments", ring.segments, [(c,) for c in configs]),
        ("find_arrow", ring.find_arrow, [(c,) for c in configs]),
        ("view_of", ring.view_of, keys),
    ):
        for a in args:  # fill the caches for configurations the job did not pass here
            fn(*a)
        passes = max(1, -(-RING_REPLAY_CALLS // len(args)))
        start = time.perf_counter()
        for _ in range(passes):
            for a in args:
                fn(*a)
        spans.ring[name] = (passes * len(args), time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class Rep:
    """What one repetition measured and checked."""

    attempted: int = 0
    failed: int = 0
    parts: list = field(default_factory=list)  # seconds of the job's two halves
    outputs: dict = field(default_factory=dict)  # deterministic results, compared across reps
    errors: list = field(default_factory=list)
    size: dict = field(default_factory=dict)  # n, trials, instance counts
    calibrations: list = field(default_factory=list)  # calibrate() around each part

    def end_part(self, start: float) -> None:
        """Close the half of the job begun at ``start``, then calibrate."""
        self.parts.append(time.perf_counter() - start)
        self.calibrations.append(calibrate())

    def fail(self, units: int, message: str) -> None:
        self.failed += units
        if len(self.errors) < 10:
            self.errors.append(message)


def import_package() -> SimpleNamespace:
    """Import the package under test from this checkout's ``src``."""
    sys.path.insert(0, str(SRC))
    import ring_explorer
    import ring_explorer.cli  # noqa: F401  (a command-line user pays this import)
    from ring_explorer import impossibility, protocol, ring, verify

    if not Path(ring_explorer.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"ring_explorer imported from {ring_explorer.__file__}, not {SRC}")
    return SimpleNamespace(
        pkg=ring_explorer, impossibility=impossibility, protocol=protocol, ring=ring, verify=verify
    )


def setup(workload: str, size: dict) -> SimpleNamespace:
    """Everything before the first unit of work: the import and, for refute,
    the table list and the refuter's lazily built transition tables."""
    ctx = import_package()
    ctx.workload = workload
    ctx.size = size
    if workload == "refute":
        imp = ctx.impossibility
        stride = size["stride"]
        reference = load_reference()["refute"]["kinds"]
        ctx.tables = list(imp.enumerate_protocols(imp.enumerate_view_classes()))[::stride]
        ctx.expected = {mode: reference[mode][::stride] for mode in MODES}
        # The first refute builds the transition tables; the job refutes this table again.
        imp.refute(ctx.tables[0], "distributed", with_witness=False)
    elif workload == "verify":
        ctx.expected = load_reference()["verify_instances"][str(size["n"])]
    return ctx


def refute_job(ctx: SimpleNamespace, seed: int, decide, spans: Optional[Spans], rep: Rep) -> None:
    """Every table of the slice in distributed and then sequential mode, then
    one example certificate per kind, built and validated as
    ``theorem2_report`` does.  There is no randomness, so the seed is unused."""
    imp = ctx.impossibility
    rep.size.update(stride=ctx.size["stride"], tables=len(ctx.tables))
    for mode in MODES:
        start = time.perf_counter()
        codes = []
        for table in ctx.tables:
            began = time.perf_counter()
            code = KIND_CODES[imp.refute(table, mode, with_witness=False).kind]
            if spans is not None:
                spans.refute.setdefault((mode, code), []).append(time.perf_counter() - began)
            codes.append(code)
        got = "".join(codes)
        expected = ctx.expected[mode]
        rep.attempted += len(expected)
        wrong = sum(a != b for a, b in zip(got, expected))
        if wrong:
            rep.fail(wrong, f"{mode}: {wrong} tables refuted differently from the reference")
        for code in sorted(set(got)):
            rep.attempted += 1
            table = ctx.tables[got.index(code)]
            began = time.perf_counter()
            cert = imp.refute(table, mode, with_witness=True)
            witnessed = time.perf_counter()
            try:
                imp.validate_certificate(table, cert, mode)
            except ValueError as exc:
                rep.fail(1, f"{mode} {cert.kind} example certificate: {exc}")
            if spans is not None:
                spans.witness_s += witnessed - began
                spans.validate_s += time.perf_counter() - witnessed
        rep.end_part(start)
        rep.outputs[mode] = {KIND_NAMES[c]: got.count(c) for c in KIND_NAMES}
        rep.size[mode] = rep.outputs[mode]


def traced_campaign(ctx: SimpleNamespace, n: int, trials: int, policy, seed: int,
                    decide: TracedDecide, spans: Spans):
    """``verify.campaign`` rebuilt from its public parts with a span per call.

    It draws the same trial seeds and calls the same functions in the same
    order, so its statistics must equal the untraced campaign's exactly.
    """
    verify = ctx.verify
    master = random.Random(seed)
    trial_seeds = [master.randrange(2**63) for _ in range(trials)]
    terminated = coverage = 0
    step_counts = []
    samples = spans.trials.setdefault(policy.mode, [])
    for trial_seed in trial_seeds:
        rng = random.Random(trial_seed)
        initial = ctx.pkg.sample_towerless(n, verify.PROTOCOL_K, rng)
        decide_before = decide.busy_s
        start = time.perf_counter()
        trace = ctx.pkg.run(initial, policy, rng=rng, max_steps=MAX_STEPS, decide=decide)
        run_s = time.perf_counter() - start
        samples.append((run_s, decide.busy_s - decide_before, trace.step_count))
        start = time.perf_counter()
        verify.check_run_invariants(trace)
        spans.add("invariants", time.perf_counter() - start)
        if trace.terminated:
            terminated += 1
            coverage += trace.full_coverage
            if policy.sequential:
                start = time.perf_counter()
                bounds = verify.check_mrp_bounds(trace)
                spans.add("mrp_bounds", time.perf_counter() - start)
                if not bounds.passed:
                    raise verify.InvariantViolation(
                        f"MRP bounds violated on seed {trial_seed}: {bounds.violations}")
        step_counts.append(trace.step_count)
    return verify.CampaignStats(
        n=n,
        trials=trials,
        terminated_count=terminated,
        full_coverage_count=coverage,
        steps_min=min(step_counts),
        steps_median=statistics.median(step_counts),
        steps_mean=statistics.fmean(step_counts),
        steps_max=max(step_counts),
        seed=seed,
        policy=policy.mode,
        max_steps=MAX_STEPS,
    )


def campaign_job(ctx: SimpleNamespace, seed: int, decide, spans: Optional[Spans], rep: Rep) -> None:
    """``campaign --n 15 --trials 500 --seed <seed>`` under round-robin and then
    random-subset.  A trial fails unless it terminates with full coverage; a
    campaign that raises fails all its trials."""
    n, trials = ctx.size["n"], ctx.size["trials"]
    rep.size.update(n=n, trials_per_policy=trials)
    for name in POLICIES:
        policy = ctx.pkg.SchedulerPolicy(name)
        rep.attempted += trials
        start = time.perf_counter()
        try:
            if spans is None:
                stats = ctx.verify.campaign(n, trials, policy, seed, max_steps=MAX_STEPS,
                                            decide=decide)
            else:
                stats = traced_campaign(ctx, n, trials, policy, seed, decide, spans)
        except Exception as exc:  # any failure of the program fails the whole campaign
            rep.fail(trials, f"{name}: {type(exc).__name__}: {exc}")
            rep.outputs[name] = f"{type(exc).__name__}"
        else:
            if stats.full_coverage_count != trials:
                rep.fail(trials - stats.full_coverage_count,
                         f"{name}: {stats.full_coverage_count}/{trials} trials explored the ring")
            rep.outputs[name] = stats.to_json()
        rep.end_part(start)


def verify_job(ctx: SimpleNamespace, seed: int, decide, spans: Optional[Spans], rep: Rep) -> None:
    """``verify --n 20 --traces 25 --seed <seed>``: the three exhaustive
    one-step checks, then the MRP (minimal relevant prefix) bounds on 25
    round-robin traces.  A unit is a checked branch or instance of a one-step
    check, or one trace of the batch.

    The first half is the no-tower branch enumeration alone; the second half
    is the rest.  The batch's time depends on the seed's traces, and the
    deterministic checks beside it keep that half's spread across seeds low."""
    verify = ctx.verify
    n, traces = ctx.size["n"], ctx.size["traces"]
    rep.size.update(n=n, traces=traces)
    start = time.perf_counter()
    checks = (verify.check_no_tower_one_step, verify.check_four_segment_step,
              verify.check_phase3_monotone)
    for name, check, expected in zip(CHECKS, checks, ctx.expected):
        rep.attempted += expected
        decide_before = spans.decide.busy_s if spans else 0.0
        began = time.perf_counter()
        try:
            report = check(n, decide=decide)
        except Exception as exc:
            rep.fail(expected, f"{name}: {type(exc).__name__}: {exc}")
            rep.outputs[name] = type(exc).__name__
        else:
            if spans is not None:
                busy = time.perf_counter() - began
                spans.add(name, busy)
                if name == "no_tower":
                    spans.no_tower_self_s = busy - (spans.decide.busy_s - decide_before)
                    spans.no_tower_instances = report.instances_checked
            wrong = len(report.violations) + abs(report.instances_checked - expected)
            if wrong:
                rep.fail(wrong, f"{name}: {report.instances_checked} instances "
                                f"(expected {expected}), {len(report.violations)} violations")
            rep.outputs[name] = [report.instances_checked, len(report.violations)]
            rep.size[f"{name}_instances"] = report.instances_checked
        if name == "no_tower":
            rep.end_part(start)
            start = time.perf_counter()

    # The MRP batch, as the ``verify`` subcommand runs it.
    batch_start = time.perf_counter()
    master = random.Random(seed)
    policy = ctx.pkg.SchedulerPolicy("round-robin")
    batch = []
    mrp_instances = 0
    for _ in range(traces):
        rep.attempted += 1
        rng = random.Random(master.randrange(2**63))
        initial = ctx.pkg.sample_towerless(n, verify.PROTOCOL_K, rng)
        try:
            decide_before = spans.decide.busy_s if spans else 0.0
            began = time.perf_counter()
            trace = ctx.pkg.run(initial, policy, rng=rng, max_steps=MAX_STEPS, decide=decide)
            if spans is not None:
                spans.trials.setdefault(policy.mode, []).append(
                    (time.perf_counter() - began, spans.decide.busy_s - decide_before,
                     trace.step_count))
            if not trace.terminated:
                rep.fail(1, "MRP batch: a run did not terminate")
                batch.append([trace.step_count, None])
                continue
            began = time.perf_counter()
            report = verify.check_mrp_bounds(trace)
            if spans is not None:
                spans.add("mrp_bounds", time.perf_counter() - began)
        except Exception as exc:
            rep.fail(1, f"MRP batch: {type(exc).__name__}: {exc}")
            batch.append(type(exc).__name__)
            continue
        mrp_instances += report.instances_checked
        if report.violations:
            rep.fail(1, f"MRP batch: {report.violations}")
        batch.append([trace.step_count, report.instances_checked, len(report.violations)])
    rep.outputs["mrp_batch"] = batch
    rep.size["mrp_instances"] = mrp_instances
    if spans is not None:
        spans.add("mrp_batch", time.perf_counter() - batch_start)
    rep.end_part(start)


JOBS = {"refute": refute_job, "campaign": campaign_job, "verify": verify_job}


def measure(ctx: SimpleNamespace, seed: int, traced: bool, decide=None) -> dict:
    """Run the workload's job once and report its timings, checks and spans."""
    decide = decide if decide is not None else ctx.pkg.decide
    spans = None
    if traced:
        spans = Spans(decide=TracedDecide(decide))
        decide = spans.decide
    rep = Rep(calibrations=[calibrate()])
    JOBS[ctx.workload](ctx, seed, decide, spans, rep)
    if spans is not None:
        replay_ring(ctx, spans, reached_keys(ctx, spans))
    # Each half in reference seconds: its time scaled by the machine's speed
    # measured just before and just after it.
    parts = [to_reference(seconds, statistics.fmean(rep.calibrations[i:i + 2]))
             for i, seconds in enumerate(rep.parts)]
    return {
        "wall_s": sum(parts),
        "part_a_s": parts[0],
        "part_b_s": parts[1],
        "raw_wall_s": sum(rep.parts),
        "calibrations": rep.calibrations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": rep.attempted,
        "failed": rep.failed,
        "errors": rep.errors,
        "outputs": rep.outputs,
        "size": rep.size,
        "layers": spans.metrics() if spans is not None else None,
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--started-at", type=float, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ring_explorer" / "__init__.py").is_file():
        print(f"worker: no package source at {SRC}", file=sys.stderr)
        return 2
    ctx = setup(args.workload, SIZES[args.size][args.workload])
    setup_s = now() - args.started_at
    result = measure(ctx, args.seed, bool(args.trace))
    result["setup_s"] = to_reference(setup_s, result["calibrations"][0])
    result["raw_setup_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
