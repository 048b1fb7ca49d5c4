"""Command-line entry point.

Subcommands: ``simulate`` (one seeded run, JSONL trace), ``campaign``
(Monte-Carlo termination/coverage statistics, JSON), ``verify`` (exhaustive
one-step checks plus trace bounds), ``count`` (tower-class counting), and
``impossible`` (the three-robot refutation report).  Identical invocations
with identical seeds produce byte-identical output; timings go to stderr.
Out-of-range arguments, such as an ``--n`` of 8 or less for ``simulate``,
``campaign`` or ``verify``, or an ``--n``, ``--n-max`` or ``--k`` above
``sys.maxsize``, are argparse usage errors with exit status 2.  A size
within that bound that still does not fit in memory, such as ``simulate
--n`` at ``sys.maxsize``, ends with one stderr line and exit status 1, as
does a payload that cannot be written to ``--output`` or to stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from typing import Callable, Optional

from . import impossibility, verify
from .engine import (DEFAULT_MAX_STEPS, POLICY_NAMES, SCRIPTED, SchedulerPolicy, run,
                     sample_towerless, trace_to_jsonl)
from .protocol import phase
from .ring import parse_config


def _int_at_least(low: int, high: Optional[int] = None) -> Callable[[str], int]:
    """argparse type: an integer no smaller than ``low`` and, when ``high`` is
    given, no larger than it.  Ring sizes and robot counts take ``high =
    sys.maxsize``: a larger one cannot size a sequence."""
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value
    return convert


def _initial(text: str):
    """argparse type for ``--initial``: "random" or a configuration in the protocol's domain."""
    if text == "random":
        return text
    try:
        c = parse_config(text)
        if sum(c) != verify.PROTOCOL_K:
            raise ValueError(f"holds {sum(c)} robots, not {verify.PROTOCOL_K}")
        if phase(c) == "invalid":
            raise ValueError("a tower outside an arrow is outside the protocol's domain")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad configuration {text!r}: {exc}") from None
    return c


def _emit(text: str, output: Optional[str]) -> None:
    """Write the payload to ``output``, or to stdout when it is None.  A
    failed write ends the command with one stderr line and exit status 1."""
    try:
        if output is None:
            sys.stdout.write(text + "\n")
            sys.stdout.flush()
            return
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        if output is None:
            # The unwritten text stays buffered; the interpreter's flush at
            # exit would fail again, so it goes to the null device instead.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(f"cannot write {output or 'stdout'}: {exc.strerror}") from None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=_int_at_least(9, sys.maxsize), default=9, help="ring size")
    parser.add_argument("--seed", type=int, default=0, help="master seed (recorded in output)")
    parser.add_argument("--output", default=None, help="write to file instead of stdout")


def _cmd_simulate(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    if args.initial == "random":
        initial = sample_towerless(args.n, verify.PROTOCOL_K, rng)
    else:
        initial = args.initial
        if len(initial) != args.n:
            args.error(f"argument --initial: has {len(initial)} nodes but --n is {args.n}")
    # A sampled start is towerless; an explicit --initial may be an arrow.
    trace = run(initial, SchedulerPolicy(args.policy), seed=args.seed, rng=rng,
                max_steps=args.max_steps, require_towerless=False)
    _emit("\n".join(trace_to_jsonl(trace)), args.output)
    return 0 if trace.terminated else 1


def _cmd_campaign(args: argparse.Namespace) -> int:
    stats = verify.campaign(
        args.n, args.trials, SchedulerPolicy(args.policy), args.seed, max_steps=args.max_steps
    )
    _emit(json.dumps(stats.to_json(), indent=2), args.output)
    ok = stats.terminated_count == args.trials and stats.full_coverage_count == args.trials
    return 0 if ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    reports = [
        verify.check_no_tower_one_step(args.n),
        verify.check_four_segment_step(args.n),
        verify.check_phase3_monotone(args.n),
        _mrp_batch(args.n, args.traces, args.seed),
    ]
    lines = []
    all_passed = True
    for report in reports:
        all_passed &= report.passed
        lines.append(json.dumps(report.to_json()))
        print(f"{'PASS' if report.passed else 'FAIL'} {report.claim} "
              f"({report.instances_checked} instances)", file=sys.stderr)
    _emit("\n".join(lines), args.output)
    return 0 if all_passed else 1


def _mrp_batch(n: int, traces: int, seed: int) -> verify.CheckReport:
    batch = verify.CheckReport(claim="mrp-lower-bounds", details={"n": n, "traces": traces})
    for _, trace in verify.trial_runs(n, traces, SchedulerPolicy("round-robin"), seed):
        if not trace.terminated:
            batch.violations.append({"reason": "run did not terminate"})
            continue
        report = verify.check_mrp_bounds(trace)
        batch.instances_checked += report.instances_checked
        batch.violations.extend(report.violations)
    return batch


def _cmd_count(args: argparse.Namespace) -> int:
    n_max = args.n_max if args.n_max is not None else args.n
    if n_max < args.n:
        args.error(f"argument --n-max: must be at least --n ({args.n}), got {n_max}")
    rows = [(n, args.k, verify.count_tower_classes(n, args.k)) for n in range(args.n, n_max + 1)]
    if len(rows) == 1 and args.n_max is None:
        _emit(str(rows[0][2]), args.output)
    else:
        lines = ["n\tk\tclasses"] + [f"{n}\t{k}\t{count}" for n, k, count in rows]
        _emit("\n".join(lines), args.output)
    return 0


def _cmd_impossible(args: argparse.Namespace) -> int:
    modes = ("distributed", "sequential") if args.mode == "both" else (args.mode,)
    report: dict = {}
    ok = True
    for mode in modes:
        start = time.perf_counter()
        part = impossibility.theorem2_report(modes=(mode,))
        report = part | {"modes": report.get("modes", {}) | part["modes"]}
        counts = part["modes"][mode]
        print(f"{mode}: {counts['bad_terminal']} bad-terminal, {counts['forcing']} forcing, "
              f"{counts['unrefuted']} unrefuted ({time.perf_counter() - start:.2f} s)",
              file=sys.stderr)
        ok &= (counts["unrefuted"] == 0) if mode == "distributed" else (counts["unrefuted"] >= 1)
    _emit(json.dumps(report, indent=2), args.output)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ring-explorer",
        description="Simulate and verify ring exploration by four oblivious robots, "
                    "and refute all three-robot protocols on a four-node ring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="one seeded run, JSONL trace output")
    _add_common(p)
    p.add_argument("--initial", type=_initial, default="random",
                   help='comma-separated multiplicities or "random"')
    p.add_argument("--policy", choices=[m for m in POLICY_NAMES if m != SCRIPTED],
                   default="round-robin")
    p.add_argument("--max-steps", type=_int_at_least(0), default=DEFAULT_MAX_STEPS)
    p.set_defaults(func=_cmd_simulate, error=p.error)

    p = sub.add_parser("campaign", help="Monte-Carlo termination/coverage statistics")
    _add_common(p)
    p.add_argument("--trials", type=_int_at_least(1), default=500)
    p.add_argument("--policy", choices=[m for m in POLICY_NAMES if m != SCRIPTED],
                   default="random-subset")
    p.add_argument("--max-steps", type=_int_at_least(0), default=verify.CAMPAIGN_MAX_STEPS)
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser("verify", help="exhaustive one-step checks and trace bounds")
    _add_common(p)
    p.add_argument("--traces", type=_int_at_least(0), default=25,
                   help="sequential runs fed through the MRP bounds")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("count", help="tower-bearing configuration classes")
    p.add_argument("--n", type=_int_at_least(3, sys.maxsize), default=4, help="ring size")
    p.add_argument("--n-max", type=_int_at_least(3, sys.maxsize), default=None)
    p.add_argument("--k", type=_int_at_least(1, sys.maxsize), default=3)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_count, error=p.error)

    p = sub.add_parser("impossible", help="three-robot refutation report (n=4, k=3)")
    p.add_argument("--mode", choices=["distributed", "sequential", "both"], default="both")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_impossible)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MemoryError:
        raise SystemExit(f"ring-explorer {args.command}: out of memory") from None


if __name__ == "__main__":
    sys.exit(main())
