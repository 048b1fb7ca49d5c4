"""Mechanical checkers for the protocol's finite claims.

Exhaustive one-step checks (no tower creation, 4-segment successors, arrow
growth), an exhaustive check that no towerless configuration or non-final
arrow is terminal, lower bounds on the collapsed configuration sequence of
sequential terminating runs, counting of tower-bearing configuration
classes, and seeded Monte-Carlo exploration campaigns with per-step
invariant monitoring.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations, compress
from math import comb
from typing import Callable, Iterable, Iterator, Optional

from . import protocol as default_protocol
from .engine import (
    DecideFn,
    OptionsFn,
    SchedulerPolicy,
    Trace,
    _below,
    decision_outcomes,
    mrp,
    run,
    sample_towerless,
    successors,
)
from .protocol import Decision, phase
from .ring import (
    Configuration,
    canonical_form,
    configurations,
    find_arrow,
    format_config,
    is_towerless,
    occupied_nodes,
    placement,
    segments,
)

PROTOCOL_K = 4
CAMPAIGN_MAX_STEPS = 100_000  # step limit of each campaign trial and MRP batch run


class InvariantViolation(Exception):
    """A monitored run broke a structural invariant."""


@dataclass
class CheckReport:
    claim: str
    instances_checked: int = 0
    violations: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "claim": self.claim,
            "instances_checked": self.instances_checked,
            "passed": self.passed,
            "violations": [_violation_json(v) for v in self.violations[:10]],
            "violation_count": len(self.violations),
            "details": self.details,
        }


def _violation_json(v: dict) -> dict:
    return {k: (format_config(x) if isinstance(x, tuple) else x) for k, x in v.items()}


# ---------------------------------------------------------------------------
# Exhaustive one-step checks
# ---------------------------------------------------------------------------

def _protocol_options(c: Configuration, decide: DecideFn) -> OptionsFn:
    """Each robot's outcomes under ``decide``, labelled with its decision."""
    def options(node: int) -> list[tuple[Optional[int], Decision]]:
        d = decide(c, node)
        return [(dest, d) for dest in decision_outcomes(len(c), node, d)]
    return options


def _arrow_config(n: int, tower: int, orientation: int, size: int) -> Configuration:
    return placement(n, (tower, tower, (tower + orientation) % n,
                         (tower - orientation * (size + 1)) % n))


@lru_cache(maxsize=1 << 12)
def successor_rule(before: Configuration) -> Callable[[Configuration], bool]:
    """The test for the configurations one protocol step may reach from
    ``before``: from a scatter, any towerless one; from a 4-segment, itself or
    a primary arrow on its own four nodes; from an arrow, itself or the arrow
    with the same tower and head grown by one (the final arrow included); from
    the final arrow or an invalid snapshot, only itself.  Memoised for the
    run monitor, whose steps and trials revisit the same few thousand
    configurations; the one-step checks ask about each configuration once,
    so they call ``successor_rule.__wrapped__`` and leave the memo alone."""
    kind = phase(before)
    if kind == "scatter":
        return is_towerless
    n = len(before)
    allowed = {before}
    if kind == "four-segment":
        start = next(start for start, length in segments(before) if length == 4)
        allowed |= {_arrow_config(n, (start + 1) % n, -1, 1),
                    _arrow_config(n, (start + 2) % n, 1, 1)}
    elif kind == "arrow":
        arrow = find_arrow(before)
        allowed.add(_arrow_config(n, arrow.tower, arrow.orientation, arrow.size + 1))
    return allowed.__contains__


def _check_successors(claim: str, n: int,
                      cases: Iterable[tuple[Configuration, Callable[[Configuration], bool]]],
                      decide: DecideFn) -> tuple[CheckReport, int]:
    """Every branch of one step from each ``(configuration, rule)`` pair,
    tested with the pair's rule: ``successor_rule(configuration)``, or a test
    the caller knows to be the same, so that no configuration is classified
    twice.  Returns the report and the number of pairs.

    A case whose rule is the scatter rule, ``is_towerless``, is settled from
    its robots' landing sets, each robot's own node plus its decision's
    destinations.  The rule admits ``c`` itself, so the robots sit on
    distinct nodes, and they choose independently: each may stay (not
    activated, idle, or a lost coin) or land on any destination, and every
    combination but "nobody activated" is a branch.  So some branch makes a
    tower if and only if two landing sets meet, and a scatter whose landing
    sets are pairwise disjoint passes with no successor built.  Every other
    case walks ``engine.successors``, and each rejected branch is a
    violation, recorded as the refuter's witness rows are: the activation as
    a robot count per node, and each activated robot's ``node`` and
    destination ``to`` (None when it stays).
    ``instances_checked`` is the number of branches either way: per node,
    the outcome multisets ``C(L + m, m)`` of its ``m`` robots over ``L``
    landing spots, multiplied over nodes, less the empty activation."""
    if n <= 8:
        raise ValueError("protocol domain starts at n=9")
    report = CheckReport(claim=claim)
    # (node, decision, robots) -> (branch factor, landing set as a bitmask)
    node_moves: dict = {}
    count = 0
    for count, (c, allowed) in enumerate(cases, 1):
        branches = 1
        landed = clash = 0
        for v in compress(range(n), c):
            m = c[v]
            d = decide(c, v)
            key = (v, d, m)
            if key not in node_moves:
                spots = decision_outcomes(n, v, d)
                node_moves[key] = (comb(len(spots) + m, m),
                                   1 << v | sum(1 << dest for dest in spots if dest is not None))
            factor, lands = node_moves[key]
            branches *= factor
            clash |= landed & lands
            landed |= lands
        report.instances_checked += branches - 1
        if not clash and allowed is is_towerless:
            continue
        for activation, outcomes, after in successors(c, _protocol_options(c, decide)):
            if not allowed(after):
                report.violations.append({
                    "before": c,
                    "after": after,
                    "activation": dict(activation),
                    "outcomes": [{"node": v, "to": dest} for v, dest, _ in outcomes],
                })
    return report, count


def _four_segments(n: int) -> list[tuple[int, ...]]:
    """The sorted nodes of each of the n 4-segments, in start order."""
    return [tuple(sorted((start + j) % n for j in range(PROTOCOL_K))) for start in range(n)]


def check_no_tower_one_step(n: int, decide: DecideFn = default_protocol.decide) -> CheckReport:
    """For every towerless 4-robot configuration without a 4-segment, every
    nonempty activation, coin vector, and adversary resolution: the successor
    is towerless.  Exhaustive: a scatter whose robots' landing sets are
    pairwise disjoint has no tower in any branch, any other has its
    branches walked, and ``instances_checked`` counts the branches.

    The configurations are the towerless placements less the n 4-segments,
    so each one is a scatter, and ``is_towerless`` (the claim) is exactly
    its ``successor_rule``."""
    base = comb(n, PROTOCOL_K)
    skipped = set(_four_segments(n))
    scatters = ((placement(n, nodes), is_towerless)
                for nodes in combinations(range(n), PROTOCOL_K) if nodes not in skipped)
    report, checked = _check_successors("no-tower-after-one-step", n, scatters, decide)
    report.details = {
        "n": n,
        "base_configurations": base,
        "four_segments_skipped": base - checked,
        "configurations_checked": checked,
    }
    return report


def check_four_segment_step(n: int, decide: DecideFn = default_protocol.decide) -> CheckReport:
    """Every successor of a 4-segment configuration is that configuration or
    the primary arrow on the same four nodes.  Exhaustive over placements,
    activations, and coin vectors: every branch ``engine.successors`` yields
    is tested, and ``instances_checked`` counts them."""
    placements = (placement(n, nodes) for nodes in _four_segments(n))
    report, count = _check_successors("four-segment-successors", n,
                                      ((c, successor_rule.__wrapped__(c)) for c in placements),
                                      decide)
    report.details = {"n": n, "placements": count}
    return report


def check_phase3_monotone(n: int, decide: DecideFn = default_protocol.decide) -> CheckReport:
    """Every arrow of size 1..n-3, as decided: ``find_arrow`` reads its
    tower, orientation and size; the tail of a non-final arrow moves to the
    node ahead, which grows the arrow by exactly one (the one arrow
    ``successor_rule`` allows), and every other robot idles; on the final
    arrow every robot idles, so it is terminal.  By induction a primary arrow
    reaches the terminal shape in exactly n-4 tail moves."""
    if n <= 8:
        raise ValueError("protocol domain starts at n=9")
    report = CheckReport(claim="arrow-growth")
    for tower in range(n):
        for orientation in (1, -1):
            for size in range(1, n - 2):
                key = (tower, orientation, size)
                c = _arrow_config(n, *key)
                arrow = find_arrow(c)
                report.instances_checked += 1
                if arrow is None or (arrow.tower, arrow.orientation, arrow.size) != key:
                    report.violations.append({"config": c, "reason": "arrow not recognized"})
                    continue
                final = size == n - 3
                for node in occupied_nodes(c):
                    d = decide(c, node)
                    if final or node != arrow.tail:
                        if d.moves:
                            report.violations.append({"config": c, "reason": f"node {node} moves"})
                    elif d.kind != default_protocol.MOVE or d.target != (node - orientation) % n:
                        report.violations.append({"config": c, "reason": "tail decision"})
    report.details = {"n": n, "tail_moves_to_terminal": n - 4}
    return report


def check_terminal_shape(n: int, decide: DecideFn = default_protocol.decide) -> CheckReport:
    """Every towerless placement and every non-final arrow (size 1..n-4) has
    an occupied node whose decision moves, so none of them is terminal; each
    one where no robot moves is a violation.  The direction it proves: the
    three one-step checks show by induction that every reachable
    configuration is towerless or an arrow, and ``check_phase3_monotone``
    that the final arrow is terminal, so with them every reachable terminal
    configuration is the final arrow."""
    if n <= 8:
        raise ValueError("protocol domain starts at n=9")
    report = CheckReport(claim="terminal-shape")
    towerless = (placement(n, nodes) for nodes in combinations(range(n), PROTOCOL_K))
    arrows = (_arrow_config(n, tower, orientation, size)
              for tower in range(n) for orientation in (1, -1) for size in range(1, n - 3))
    for c in chain(towerless, arrows):
        report.instances_checked += 1
        if not any(decide(c, v).moves for v in compress(range(n), c)):
            report.violations.append({"config": c, "phase": phase(c)})
    report.details = {"n": n, "towerless": comb(n, PROTOCOL_K),
                      "non_final_arrows": 2 * n * (n - 4)}
    return report


# ---------------------------------------------------------------------------
# Trace bounds
# ---------------------------------------------------------------------------

def has_small_tower(c: Configuration, k: int) -> bool:
    """A tower of fewer than k robots."""
    return any(2 <= v < k for v in c)


def check_mrp_bounds(trace: Trace) -> CheckReport:
    """Lower bounds on the collapsed configuration sequence of a sequential
    terminating run: at least n-k+1 entries in total, with a tower, with a
    tower of fewer than k robots, and pairwise-distinguishable among those."""
    configs = [trace.initial]
    append = configs.append
    for s in trace.steps:  # one pass: the sequential check and the sequence
        if len(s.activated) != 1:
            raise ValueError("lemma applies to sequential computations")
        append(s.after)
    if not trace.terminated:
        raise ValueError("lemma applies to terminating computations")
    n, k = trace.n, trace.k
    bound = n - k + 1
    prefix = mrp(configs)
    towers = small = 0
    distinct = set()
    for c in prefix:
        top = max(c)
        if top >= 2:
            towers += 1
            # Every configuration holds all k robots, so a tower of k leaves
            # no other node occupied: it has a small tower iff 2 <= max < k.
            if top < k:
                small += 1
                distinct.add(canonical_form(c))
    report = CheckReport(claim="mrp-lower-bounds", instances_checked=4)
    measured = {
        "mrp_length": len(prefix),
        "with_tower": towers,
        "with_small_tower": small,
        "distinguishable_small_tower": len(distinct),
    }
    for name, value in measured.items():
        if value < bound:
            report.violations.append({"bound": name, "value": value, "required": bound})
    report.details = {"n": n, "k": k, "required": bound, **measured}
    return report


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------

def count_tower_classes(n: int, k: int = 3) -> int:
    """Number of indistinguishability classes of k-robot configurations that
    contain a tower of fewer than k robots, by brute-force enumeration."""
    return len({canonical_form(c) for c in configurations(n, k) if has_small_tower(c, k)})


# ---------------------------------------------------------------------------
# Run monitoring and campaigns
# ---------------------------------------------------------------------------

def check_run_invariants(trace: Trace) -> None:
    """Assert that a run starts from a valid configuration, that every step
    changing the configuration is one ``successor_rule`` allows, and that a
    terminated run ends in the terminal arrow.  Raises InvariantViolation.
    A step that keeps the configuration keeps its object (``after is
    before``), so identity is tested before equality."""
    if phase(trace.initial) == "invalid":
        raise InvariantViolation(f"initial configuration invalid: {trace.initial}")
    for step in trace.steps:
        before, after = step.before, step.after
        if before is not after and before != after and not successor_rule(before)(after):
            raise InvariantViolation(
                f"step {step.t}: {phase(before)} -> {phase(after)} "
                f"({format_config(before)} -> {format_config(after)})"
            )
    end = phase(trace.steps[-1].after if trace.steps else trace.initial)
    if trace.terminated and end != "final":
        raise InvariantViolation(f"terminated in non-terminal shape {end}")


@dataclass
class CampaignStats:
    n: int
    trials: int
    terminated_count: int
    full_coverage_count: int
    steps_min: int
    steps_median: float
    steps_mean: float
    steps_max: int
    seed: int
    policy: str
    max_steps: int

    def to_json(self) -> dict:
        return dict(self.__dict__)


def trial_runs(n: int, trials: int, policy: SchedulerPolicy, seed: int, *,
               max_steps: int = CAMPAIGN_MAX_STEPS,
               decide: DecideFn = default_protocol.decide) -> Iterator[tuple[int, Trace]]:
    """Seeded runs from uniform towerless initials, as ``(trial_seed, trace)``;
    the trial seeds are drawn from ``random.Random(seed)``."""
    master = random.Random(seed)
    for _ in range(trials):
        trial_seed = _below(master, 1 << 63)
        rng = random.Random(trial_seed)
        initial = sample_towerless(n, PROTOCOL_K, rng)
        yield trial_seed, run(initial, policy, rng=rng, max_steps=max_steps, decide=decide)


def campaign(
    n: int,
    trials: int,
    policy: SchedulerPolicy,
    seed: int,
    *,
    max_steps: int = CAMPAIGN_MAX_STEPS,
    decide: DecideFn = default_protocol.decide,
) -> CampaignStats:
    """Seeded Monte-Carlo exploration over ``trial_runs``.

    Every run is monitored step by step (InvariantViolation on any breach) and
    every terminated sequential run is pushed through the MRP lower bounds.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    terminated = coverage = 0
    step_counts = []
    for trial_seed, trace in trial_runs(n, trials, policy, seed, max_steps=max_steps,
                                        decide=decide):
        check_run_invariants(trace)
        if trace.terminated:
            terminated += 1
            if trace.full_coverage:
                coverage += 1
            if policy.sequential:
                bounds = check_mrp_bounds(trace)
                if not bounds.passed:
                    raise InvariantViolation(
                        f"MRP bounds violated on seed {trial_seed}: {bounds.violations}"
                    )
        step_counts.append(trace.step_count)
    return CampaignStats(
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
        max_steps=max_steps,
    )

