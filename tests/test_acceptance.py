"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines and
measured runtimes.
"""

import hashlib
import itertools
import json
import random
import time

import pytest

from ring_explorer import impossibility as imp
from ring_explorer import protocol, verify
from ring_explorer.engine import SchedulerPolicy, run, sample_towerless
from ring_explorer.verify import InvariantViolation

from mutants import flipped_tail_mutant, shortest_hole_mutant

# SHA-256 of the stdout of `ring-explorer impossible --mode both`.
IMPOSSIBLE_BOTH_SHA256 = "6fc01f5ec1e2c9c9d00f038150a4b94c633dddb7638968cda1b8ec95b073bd14"


def report_line(ok: bool, label: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


class TestCriterion1NoTowerExhaustive:
    @pytest.mark.parametrize("n", [9, 10, 11])
    def test_no_tower_one_step(self, n):
        start = time.perf_counter()
        report = verify.check_no_tower_one_step(n)
        elapsed = time.perf_counter() - start
        ok = report.passed and elapsed < 60.0
        report_line(
            ok,
            f"criterion 1 (towerless preserved, n={n})",
            f"{report.instances_checked} resolved branches over "
            f"{report.details['configurations_checked']} configurations, "
            f"0 violations expected, got {len(report.violations)}; {elapsed:.1f}s",
        )


class TestCriterion2FourSegmentExhaustive:
    @pytest.mark.parametrize("n", [9, 10, 11, 12])
    def test_four_segment_successors(self, n):
        report = verify.check_four_segment_step(n)
        report_line(
            report.passed,
            f"criterion 2 (4-segment successors, n={n})",
            f"{report.instances_checked} resolved branches, "
            f"{len(report.violations)} violations",
        )


class TestCriterion3StatisticalExploration:
    def test_campaigns(self):
        start = time.perf_counter()
        failures = []
        lines = []
        for n in (9, 10, 12, 15):
            for policy_name in ("random-subset", "round-robin"):
                stats = verify.campaign(
                    n, 500, SchedulerPolicy(policy_name), seed=42, max_steps=100_000
                )
                ok = stats.terminated_count == 500 and stats.full_coverage_count == 500
                if not ok:
                    failures.append((n, policy_name, stats))
                lines.append(
                    f"n={n} {policy_name}: {stats.terminated_count}/500 terminated, "
                    f"{stats.full_coverage_count}/500 covered, "
                    f"max {stats.steps_max} steps"
                )
        elapsed = time.perf_counter() - start
        report_line(
            not failures and elapsed < 120.0,
            "criterion 3 (termination/coverage, 500 trials each)",
            "; ".join(lines) + f"; total {elapsed:.1f}s",
        )


class TestCriterion4TailWalkDeterminism:
    @pytest.mark.parametrize("n", range(9, 16))
    def test_exact_move_count(self, n):
        report = verify.check_phase3_monotone(n)
        report_line(
            report.passed,
            f"criterion 4 (tail walk, n={n})",
            f"exactly {n - 4} moves from every primary arrow placement "
            f"({report.instances_checked} instances)",
        )


class TestCriterion5MrpBounds:
    @pytest.mark.parametrize("n", [9, 12])
    def test_sequential_trace_bounds(self, n):
        bound = n - 3
        master = random.Random(1000 + n)
        worst = {"mrp_length": 10**9, "with_tower": 10**9,
                 "with_small_tower": 10**9, "distinguishable_small_tower": 10**9}
        checked = 0
        for _ in range(110):
            rng = random.Random(master.randrange(2**63))
            trace = run(sample_towerless(n, 4, rng), SchedulerPolicy("round-robin"),
                        rng=rng, max_steps=100_000)
            assert trace.terminated
            report = verify.check_mrp_bounds(trace)
            assert report.passed, report.violations
            checked += 1
            for key in worst:
                worst[key] = min(worst[key], report.details[key])
        report_line(
            checked >= 100 and all(v >= bound for v in worst.values()),
            f"criterion 5 (MRP bounds, n={n})",
            f"{checked} sequential terminating traces, minima {worst}, bound {bound}",
        )


class TestCriterion6Counting:
    def test_tower_class_counts(self):
        counts = {n: verify.count_tower_classes(n, 3) for n in range(4, 13)}
        exact = all(counts[n] == n // 2 for n in range(4, 13))
        inequality = all(n // 2 < n - 2 for n in range(5, 13))
        report_line(
            exact and inequality,
            "criterion 6 (tower-class counting, k=3)",
            f"counts {counts} equal floor(n/2) for n=4..12; "
            f"floor(n/2) < n-2 holds for n=5..12",
        )


class TestCriterion7ThreeRobotRefutation:
    def test_full_enumeration(self):
        start = time.perf_counter()
        classes = imp.enumerate_view_classes()
        asym = sum(1 for vc in classes if not vc.symmetric)
        sym = len(classes) - asym
        assert (asym, sym) == (3, 4)
        expected_total = 7**asym * 3**sym
        report = imp.theorem2_report()
        elapsed = time.perf_counter() - start
        dist = report["modes"]["distributed"]
        seq = report["modes"]["sequential"]
        counts = {mode: (part["bad_terminal"], part["forcing"], part["unrefuted"])
                  for mode, part in report["modes"].items()}
        ok = (
            dist["total"] == seq["total"] == expected_total == 27783
            and counts == {"distributed": (11121, 16662, 0),
                           "sequential": (7757, 19986, 40)}
            and elapsed < 300.0
        )
        # The report is the deterministic stdout payload: no timings in it,
        # and `ring-explorer impossible --mode both` prints exactly this.
        payload = json.dumps(report, indent=2) + "\n"
        assert "elapsed" not in payload
        assert hashlib.sha256(payload.encode()).hexdigest() == IMPOSSIBLE_BOTH_SHA256
        tables = list(imp.enumerate_protocols(classes))
        for mode, part in report["modes"].items():
            for kind, example in part["example_certificates"].items():
                cert = imp.Certificate(kind, example["witness"])
                imp.validate_certificate(tables[example["protocol_index"]], cert, mode)
        report_line(
            ok,
            "criterion 7 (three-robot refutation)",
            f"distributed: {dist['bad_terminal']} bad-terminal + {dist['forcing']} "
            f"forcing + {dist['unrefuted']} unrefuted of {dist['total']}; "
            f"sequential: {seq['unrefuted']} unrefuted; {elapsed:.1f}s",
        )


class TestCriterion8FaultInjection:
    def test_gathering_mutant_caught_by_criterion_1(self):
        report = verify.check_no_tower_one_step(9, decide=shortest_hole_mutant)
        report_line(
            not report.passed,
            "criterion 8a (hole-length guard removed)",
            f"{len(report.violations)} tower-creating branches detected",
        )

    def test_tail_mutant_caught_by_criterion_3(self):
        caught = False
        detail = "campaign unexpectedly clean"
        try:
            verify.campaign(9, 100, SchedulerPolicy("random-subset"), seed=42,
                            decide=flipped_tail_mutant)
        except (InvariantViolation, protocol.ProtocolError) as exc:
            caught = True
            detail = f"run aborted: {type(exc).__name__}: {exc}"
        report_line(caught, "criterion 8b (tail direction flipped)", detail)
