"""Checkers: exhaustive one-step lemma checks, MRP bounds, counting, campaigns."""

import dataclasses
import itertools
import random
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ring_explorer import protocol, verify
from ring_explorer.engine import (SchedulerPolicy, StepRecord, Trace, decision_outcomes,
                                  is_terminal, mrp, run, sample_towerless, successors)
from ring_explorer.ring import (canonical_form, configurations, find_arrow, is_towerless,
                                occupied_nodes, parse_config, placement, segments)
from ring_explorer.verify import (
    CheckReport,
    InvariantViolation,
    campaign,
    check_four_segment_step,
    check_mrp_bounds,
    check_no_tower_one_step,
    check_phase3_monotone,
    check_run_invariants,
    check_terminal_shape,
    count_tower_classes,
)

from mutants import (final_mover_mutant, flipped_tail_mutant, gap_filler_mutant,
                     idle_tail_mutant, lander_mutant, shortest_hole_mutant,
                     stuck_scatter_mutant)

DECIDERS = [protocol.decide, shortest_hole_mutant, gap_filler_mutant, flipped_tail_mutant,
            idle_tail_mutant, final_mover_mutant, lander_mutant]


def towerless_configs(n):
    """Every towerless four-robot configuration, in ``combinations`` order."""
    for nodes in itertools.combinations(range(n), 4):
        yield tuple(1 if i in nodes else 0 for i in range(n))


def expected_one_step_instances(n, decide=protocol.decide):
    """The no-tower check's instance count in closed form: per configuration,
    prod(1 + outcomes per robot) - 1.  The checker counts with the same
    product, so ``TestOneStepOracle`` counts the branches one by one."""
    total = 0
    for c in towerless_configs(n):
        if protocol.phase(c) == "four-segment":
            continue
        product = 1
        for node in occupied_nodes(c):
            product *= 1 + len(decision_outcomes(n, node, decide(c, node)))
        total += product - 1
    return total


class TestNoTowerOneStep:
    @pytest.mark.parametrize("n", [9, 10])
    def test_passes(self, n):
        report = check_no_tower_one_step(n)
        assert report.passed
        assert report.details["base_configurations"] == comb(n, 4)
        assert report.details["four_segments_skipped"] == n
        assert report.details["configurations_checked"] == comb(n, 4) - n

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            check_no_tower_one_step(8)

    def test_protocol_scatters_are_settled_without_enumeration(self, monkeypatch):
        # The protocol's robots never share a landing spot in a scatter, so
        # the landing-set test settles every case and no successor is built.
        def no_successors(*args):
            raise AssertionError("a scatter had its branches walked")

        monkeypatch.setattr(verify, "successors", no_successors)
        report = check_no_tower_one_step(12)
        assert report.passed
        assert report.instances_checked == expected_one_step_instances(12)


def reference_check_successors(claim, n, cases, decide):
    """The one-step checkers' loop with no landing-set shortcut: every branch
    of ``engine.successors`` counted and tested, one at a time.  The rule
    each case carries is ignored and ``successor_rule`` recomputed, so the
    checkers' rules are checked too."""
    if n <= 8:
        raise ValueError("protocol domain starts at n=9")
    report = CheckReport(claim=claim)
    count = 0
    for count, (c, _) in enumerate(cases, 1):
        allowed = verify.successor_rule(c)
        for activation, outcomes, after in successors(c, verify._protocol_options(c, decide)):
            report.instances_checked += 1
            if not allowed(after):
                report.violations.append({
                    "before": c,
                    "after": after,
                    "activation": dict(activation),
                    "outcomes": [{"node": v, "to": dest} for v, dest, _ in outcomes],
                })
    return report, count


class TestOneStepOracle:
    """The checkers against the branch-by-branch reference: the same counts,
    details and violation rows, in the same order."""

    @pytest.mark.parametrize("check", [check_no_tower_one_step, check_four_segment_step],
                             ids=["no-tower", "four-segment"])
    @pytest.mark.parametrize("decide", DECIDERS, ids=lambda d: d.__name__)
    @pytest.mark.parametrize("n", [9, 10, 11])
    def test_reports_match_branch_walk(self, n, decide, check, monkeypatch):
        report = check(n, decide=decide)
        monkeypatch.setattr(verify, "_check_successors", reference_check_successors)
        expected = check(n, decide=decide)
        assert report.instances_checked == expected.instances_checked
        assert report.details == expected.details
        assert report.violations == expected.violations

    @pytest.mark.parametrize("decide", DECIDERS, ids=lambda d: d.__name__)
    @pytest.mark.parametrize("n", [9, 10, 11])
    def test_each_configuration_counts_its_branches(self, n, decide):
        # Every four-robot configuration in the protocol's domain, arrows
        # (a node with two robots) included; the reference counts each
        # branch ``engine.successors`` yields.
        for c in configurations(n, 4):
            if protocol.phase(c) == "invalid":
                continue
            cases = [(c, verify.successor_rule(c))]
            report, _ = verify._check_successors("one", n, cases, decide)
            expected, _ = reference_check_successors("one", n, cases, decide)
            assert report.instances_checked == expected.instances_checked, c
            assert report.violations == expected.violations, c


@st.composite
def towerless_decisions(draw):
    """A towerless placement at n = 9..12 and one decision per robot: idle,
    or a move or coin toss to either neighbour or to the adversary's choice."""
    n = draw(st.integers(min_value=9, max_value=12))
    nodes = draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=4, max_size=4,
                          unique=True))
    decisions = {v: draw(st.sampled_from(
        [protocol.idle()] + [make(target) for make in (protocol.move, protocol.try_move)
                             for target in ((v - 1) % n, (v + 1) % n, None)]))
        for v in sorted(nodes)}
    return n, placement(n, nodes), decisions


@given(towerless_decisions())
def test_one_case_matches_branch_walk_under_any_decisions(case):
    # Any decisions, not only the protocol's: a scatter settled from its
    # landing sets, and a 4-segment under its own rule, must give the same
    # count and rows as walking every branch.
    n, c, decisions = case
    cases = [(c, verify.successor_rule.__wrapped__(c))]

    def decide(_, v):
        return decisions[v]

    report, _ = verify._check_successors("one", n, cases, decide)
    expected, _ = reference_check_successors("one", n, cases, decide)
    assert report.instances_checked == expected.instances_checked
    assert report.violations == expected.violations


class TestScatterEnumeration:
    """``check_no_tower_one_step`` enumerates the scatters itself and tests
    each with ``is_towerless``; the phase classifier is the oracle."""

    @pytest.mark.parametrize("n", range(9, 21))
    def test_cases_are_the_scatters_with_the_claim_as_rule(self, n, monkeypatch):
        seen = []

        def spy(claim, n, cases, decide):
            seen.extend(cases)
            return CheckReport(claim=claim), len(seen)

        monkeypatch.setattr(verify, "_check_successors", spy)
        check_no_tower_one_step(n)
        expected = [c for c in towerless_configs(n) if protocol.phase(c) != "four-segment"]
        assert [c for c, _ in seen] == expected
        assert all(protocol.phase(c) == "scatter" for c, _ in seen)
        assert {rule for _, rule in seen} == {is_towerless}

    @pytest.mark.parametrize("n", range(9, 21))
    def test_four_segments_in_start_order(self, n):
        four = [c for c in towerless_configs(n) if protocol.phase(c) == "four-segment"]
        four.sort(key=lambda c: next(start for start, length in segments(c) if length == 4))
        assert verify._four_segments(n) == [occupied_nodes(c) for c in four]
        assert len(four) == n


class TestFourSegmentStep:
    @pytest.mark.parametrize("n", [9, 12])
    def test_passes(self, n):
        report = check_four_segment_step(n)
        assert report.passed
        assert report.details["placements"] == n

    def test_single_mover_resolution_is_adjacent_arrow(self):
        # one inner robot moving makes a tower adjacent to the surviving inner
        succ = (1, 0, 2, 1, 0, 0, 0, 0, 0)
        arrow = find_arrow(succ)
        assert arrow.tower == 2 and arrow.size == 1


class TestPhase3Monotone:
    @pytest.mark.parametrize("n,moves", [(9, 5), (15, 11)])
    def test_passes_with_exact_move_count(self, n, moves):
        report = check_phase3_monotone(n)
        assert report.passed
        assert report.details["tail_moves_to_terminal"] == moves

    def test_below_the_domain_rejected(self):
        with pytest.raises(ValueError, match="protocol domain starts at n=9"):
            check_phase3_monotone(8)

    def test_misread_orientation_is_reported(self, monkeypatch):
        # A ring model that reads every arrow backwards: each of the
        # 2 * 9 * 6 arrows, the final ones included, is one violation.
        def backwards(c):
            arrow = find_arrow(c)
            return dataclasses.replace(arrow, orientation=-arrow.orientation)

        monkeypatch.setattr(verify, "find_arrow", backwards)
        report = check_phase3_monotone(9)
        assert report.instances_checked == 108
        assert len({v["config"] for v in report.violations}) == 108
        assert {v["reason"] for v in report.violations} == {"arrow not recognized"}


class TestTerminalShape:
    # n: (configurations, stuck under protocol.decide, stuck_scatter_mutant,
    # idle_tail_mutant, final_mover_mutant, gap_filler_mutant)
    COUNTS = {9: (216, 0, 54, 90, 0, 0), 12: (687, 0, 252, 192, 0, 0)}
    DECIDERS = (protocol.decide, stuck_scatter_mutant, idle_tail_mutant, final_mover_mutant,
                gap_filler_mutant)

    @pytest.mark.parametrize("n", sorted(COUNTS))
    def test_counts(self, n):
        reports = [check_terminal_shape(n, decide=d) for d in self.DECIDERS]
        assert reports[0].claim == "terminal-shape"
        assert {r.instances_checked for r in reports} == {self.COUNTS[n][0]}
        assert tuple(len(r.violations) for r in reports) == self.COUNTS[n][1:]
        assert reports[0].details == {"n": n, "towerless": comb(n, 4),
                                      "non_final_arrows": 2 * n * (n - 4)}

    @pytest.mark.parametrize("n", [9, 10])
    @pytest.mark.parametrize("decide", [protocol.decide, stuck_scatter_mutant, idle_tail_mutant])
    def test_violations_are_the_terminal_non_final_shapes(self, n, decide):
        # Oracle: over every four-robot configuration of n nodes, the stuck
        # ones the engine's step plan finds terminal, less the final arrows
        # and the towers outside an arrow.
        expected = [c for c in configurations(n, 4)
                    if protocol.phase(c) not in ("final", "invalid")
                    and is_terminal(c, decide)]
        report = check_terminal_shape(n, decide=decide)
        assert sorted(v["config"] for v in report.violations) == sorted(expected)
        assert all(v["phase"] == protocol.phase(v["config"]) for v in report.violations)

    def test_below_the_domain_rejected(self):
        with pytest.raises(ValueError):
            check_terminal_shape(8)


class TestCoverage:
    """A run reaches an arrow only as a primary arrow out of a 4-segment.
    The 4-segment's nodes plus the nodes its arrow's tail walk occupies on
    the way to the final arrow are the whole ring."""

    def test_segment_and_tail_walk_cover_the_ring(self):
        pairs = 0
        for n in range(9, 25):
            size_one_arrows = [placement(n, [(t - 2 * o) % n, t, t, (t + o) % n])
                               for t in range(n) for o in (1, -1)]
            for start in range(n):
                nodes = {(start + j) % n for j in range(4)}
                allowed = verify.successor_rule.__wrapped__(placement(n, nodes))
                primaries = [c for c in size_one_arrows if allowed(c)]
                assert len(primaries) == 2
                for c in primaries:
                    covered = nodes | set(occupied_nodes(c))
                    for _ in range(n - 4):
                        if protocol.phase(c) == "final":
                            break
                        tail = find_arrow(c).tail
                        target = protocol.decide(c, tail).target
                        c = tuple(m - (v == tail) + (v == target) for v, m in enumerate(c))
                        covered.add(target)
                    assert protocol.phase(c) == "final", c
                    assert covered == set(range(n)), (nodes, c)
                    pairs += 1
        assert pairs == 528


def test_one_step_checks_leave_the_monitor_memo_alone():
    # The 4-segment and arrow checks ask about each configuration once, so
    # they compute the rule directly; the memo is the run monitor's.
    verify.successor_rule.cache_clear()
    assert check_four_segment_step(20).passed
    assert check_phase3_monotone(20).passed
    assert verify.successor_rule.cache_info().currsize == 0


class TestInstanceCounts:
    """Closed forms for the three one-step checks' instance counts: at n = 20
    they give the 83,035 / 700 / 680 instances ``verify`` reports."""

    @pytest.mark.parametrize("n", [*range(9, 14), 20])
    def test_closed_forms(self, n):
        assert check_no_tower_one_step(n).instances_checked == \
            expected_one_step_instances(n)
        assert check_four_segment_step(n).instances_checked == 35 * n
        assert check_phase3_monotone(n).instances_checked == 2 * n * (n - 3)

    def test_decisions_are_shared_values(self):
        # One Decision per kind and target: idle, the two moves with no
        # target (the adversary picks the edge), and a move and a try-move
        # per node.
        n = 12
        seen = {}
        for c in configurations(n, 4):
            for i in occupied_nodes(c):
                try:
                    d = protocol.decide(c, i)
                except protocol.ProtocolError:
                    continue
                seen[id(d)] = d
        assert len(seen) <= 2 * n + 3


def forged_trace(configs):
    """A terminated sequential trace through ``configs``, one robot a step."""
    n = len(configs[0])
    steps = [StepRecord(t, (0,), (), before, after, {}, {})
             for t, (before, after) in enumerate(zip(configs, configs[1:]))]
    return Trace(n, 4, "round-robin", None, configs[0], steps, frozenset(range(n)), True)


class TestMrpBounds:
    def sequential_trace(self, n, seed):
        rng = random.Random(seed)
        return run(sample_towerless(n, 4, rng), SchedulerPolicy("round-robin"), rng=rng)

    @pytest.mark.parametrize("n", [9, 12])
    def test_bounds_hold(self, n):
        trace = self.sequential_trace(n, seed=n)
        report = check_mrp_bounds(trace)
        assert report.passed
        assert report.details["required"] == n - 3

    @pytest.mark.parametrize("configs", [
        list(configurations(5, 4)),  # every shape, the tower of all four included
        [(1, 1, 1, 1, 0, 0, 0, 0, 0), (0, 2, 1, 1, 0, 0, 0, 0, 0), (0, 0, 4, 0, 0, 0, 0, 0, 0),
         (0, 0, 4, 0, 0, 0, 0, 0, 0), (0, 0, 3, 1, 0, 0, 0, 0, 0)],  # too short: violations
    ], ids=["all-n5", "short-n9"])
    def test_report_matches_separate_tower_scans(self, configs):
        # Forged sequential runs: the report equals one built from a tower
        # scan and a has_small_tower scan of the collapsed sequence.
        n, k = len(configs[0]), 4
        trace = forged_trace(configs)
        prefix = mrp(configs)
        small = [c for c in prefix if verify.has_small_tower(c, k)]
        measured = {
            "mrp_length": len(prefix),
            "with_tower": sum(1 for c in prefix if not is_towerless(c)),
            "with_small_tower": len(small),
            "distinguishable_small_tower": len({canonical_form(c) for c in small}),
        }
        bound = n - k + 1
        report = check_mrp_bounds(trace)
        assert report.details == {"n": n, "k": k, "required": bound, **measured}
        assert report.violations == [{"bound": name, "value": value, "required": bound}
                                     for name, value in measured.items() if value < bound]

    def test_rejects_non_sequential(self):
        trace = run((1, 1, 1, 1, 0, 0, 0, 0, 0), SchedulerPolicy("random-subset"), seed=1)
        with pytest.raises(ValueError, match="sequential"):
            check_mrp_bounds(trace)

    def test_rejects_unterminated(self):
        trace = run((1, 1, 1, 1, 0, 0, 0, 0, 0), SchedulerPolicy("round-robin"), seed=0, max_steps=1)
        with pytest.raises(ValueError, match="terminating"):
            check_mrp_bounds(trace)


def with_copied_configurations(trace):
    """``trace`` with every configuration a distinct tuple equal to the one
    it replaces: no two entries share an object."""
    def fresh(c):
        return tuple(list(c))
    steps = [s._replace(before=fresh(s.before), after=fresh(s.after)) for s in trace.steps]
    return dataclasses.replace(trace, initial=fresh(trace.initial), steps=steps)


def invariants_verdict(trace):
    try:
        check_run_invariants(trace)
    except InvariantViolation as exc:
        return str(exc)
    return None


class TestEqualCopies:
    """The monitors test identity only as a shortcut: a trace whose equal
    configurations are distinct objects gets the same results."""

    @pytest.mark.parametrize("trace", [
        run(sample_towerless(12, 4, random.Random(12)), SchedulerPolicy("round-robin"), seed=12),
        forged_trace([(1, 1, 1, 1, 0, 0, 0, 0, 0), (0, 2, 1, 1, 0, 0, 0, 0, 0),
                      (0, 0, 4, 0, 0, 0, 0, 0, 0), (0, 0, 4, 0, 0, 0, 0, 0, 0),
                      (0, 0, 3, 1, 0, 0, 0, 0, 0)]),
        forged_trace([parse_config("1,0,2,1,0,0,0,0,0")] * 3
                     + [parse_config("0,0,1,0,0,2,1,0,0")] * 2),
    ], ids=["round-robin-run", "short-n9", "tower-jump"])
    def test_same_prefix_report_and_verdict(self, trace):
        copy = with_copied_configurations(trace)
        pairs = list(zip(copy.configurations(), trace.configurations()))
        assert all(ours == theirs for ours, theirs in pairs)
        assert len({id(c) for step in copy.steps for c in (step.before, step.after)}
                   | {id(copy.initial)}) == 2 * copy.step_count + 1
        assert mrp(copy.configurations()) == mrp(trace.configurations())
        assert check_mrp_bounds(copy).to_json() == check_mrp_bounds(trace).to_json()
        assert invariants_verdict(copy) == invariants_verdict(trace)


def tower_class_oracle(n, k):
    """Partition count by raw orbit enumeration (no library helpers)."""
    orbits = set()
    for nodes in itertools.combinations_with_replacement(range(n), k):
        c = [0] * n
        for node in nodes:
            c[node] += 1
        if not any(2 <= v < k for v in c):
            continue
        c = tuple(c)
        rev = tuple(c[(n - j) % n] for j in range(n))
        orbits.add(frozenset(
            [c[i:] + c[:i] for i in range(n)] + [rev[i:] + rev[:i] for i in range(n)]
        ))
    return len(orbits)


class TestCountTowerClasses:
    @pytest.mark.parametrize("n,expected", [(4, 2), (5, 2), (12, 6)])
    def test_known_values(self, n, expected):
        assert count_tower_classes(n, 3) == expected

    @pytest.mark.parametrize("n", range(4, 9))
    def test_matches_partition_oracle(self, n):
        assert count_tower_classes(n, 3) == tower_class_oracle(n, 3)

    def test_three_tower_alone_does_not_count(self):
        # k=3 on n=3: [3,0,0] has no tower of fewer than 3 robots
        assert count_tower_classes(3, 3) == 1  # only the [2,1,0] class


class TestRunInvariants:
    def test_clean_run_passes(self):
        rng = random.Random(3)
        trace = run(sample_towerless(9, 4, rng), SchedulerPolicy("random-subset"), rng=rng)
        check_run_invariants(trace)

    def test_synthetic_tower_jump_caught(self):
        rng = random.Random(3)
        trace = run(sample_towerless(9, 4, rng), SchedulerPolicy("random-subset"), rng=rng)
        # Corrupt one step: pretend a robot teleported onto another.
        bad = trace.steps[0].__class__(
            t=0,
            activated=trace.steps[0].activated,
            positions_before=trace.steps[0].positions_before,
            before=trace.initial,
            after=(2, 1, 1, 0, 0, 0, 0, 0, 0),
            coins={},
            adversary_edges={},
        )
        trace.steps[0] = bad
        with pytest.raises(InvariantViolation):
            check_run_invariants(trace)

    def test_invalid_initial_caught(self):
        # Two towers: outside the protocol's domain before any step.
        c = (2, 0, 2, 0, 0, 0, 0, 0, 0)
        trace = Trace(n=9, k=4, policy="scripted", seed=None, initial=c, steps=[],
                      visited=frozenset(), terminated=True)
        with pytest.raises(InvariantViolation, match=r"initial configuration invalid: \(2, 0, 2,"):
            check_run_invariants(trace)


    @pytest.mark.parametrize("before, after", [
        ("1,0,2,1,0,0,0,0,0", "0,0,1,0,0,2,1,0,0"),
        ("1,1,1,1,0,0,0,0,0", "0,0,0,0,1,0,2,1,0"),
        ("1,0,2,1,0,0,0,0,0", "0,1,0,2,1,0,0,0,0"),
    ], ids=["grown-arrow-tower-jumps", "arrow-off-the-segment", "arrow-rotates"])
    def test_forged_step_caught(self, before, after):
        before, after = parse_config(before), parse_config(after)
        step = StepRecord(t=0, activated=(0,), positions_before=(), before=before, after=after,
                          coins={}, adversary_edges={})
        trace = Trace(n=9, k=4, policy="scripted", seed=None, initial=before, steps=[step],
                      visited=frozenset(), terminated=False)
        with pytest.raises(InvariantViolation):
            check_run_invariants(trace)


class TestSuccessorRule:
    @pytest.mark.parametrize("before, allowed, rejected", [
        ("1,0,1,0,0,1,0,1,0", ["0,1,1,0,0,1,0,1,0", "1,1,1,1,0,0,0,0,0"],
         ["2,0,0,0,0,1,0,1,0"]),
        ("1,1,1,1,0,0,0,0,0", ["1,1,1,1,0,0,0,0,0", "1,0,2,1,0,0,0,0,0", "1,2,0,1,0,0,0,0,0"],
         ["1,1,0,1,1,0,0,0,0", "0,0,0,0,1,0,2,1,0"]),
        ("1,0,2,1,0,0,0,0,0", ["1,0,2,1,0,0,0,0,0", "0,0,2,1,0,0,0,0,1"],
         ["0,0,1,0,0,2,1,0,0", "0,1,0,2,1,0,0,0,0", "0,1,2,1,0,0,0,0,0"]),
        ("0,0,2,1,1,0,0,0,0", ["0,0,2,1,1,0,0,0,0"], ["0,0,2,1,0,1,0,0,0"]),
    ], ids=["scatter", "four-segment", "arrow", "final"])
    def test_allowed_successors_by_phase(self, before, allowed, rejected):
        rule = verify.successor_rule(parse_config(before))
        assert all(rule(parse_config(c)) for c in allowed)
        assert not any(rule(parse_config(c)) for c in rejected)

    @pytest.mark.parametrize("n", range(9, 13))
    def test_every_rule_admits_its_own_configuration(self, n):
        # ``_check_successors`` skips the branch where no robot moves, whose
        # successor is the configuration itself: the rule must admit it.
        for c in configurations(n, 4):
            assert verify.successor_rule.__wrapped__(c)(c), c


class TestCampaign:
    def test_small_campaign_terminates_with_coverage(self):
        stats = campaign(9, 40, SchedulerPolicy("random-subset"), seed=42)
        assert stats.terminated_count == 40
        assert stats.full_coverage_count == 40
        assert stats.steps_max <= 100_000
        assert stats.seed == 42

    def test_sequential_campaign_checks_bounds(self):
        stats = campaign(9, 25, SchedulerPolicy("round-robin"), seed=7)
        assert stats.terminated_count == 25

    def test_no_trials_rejected(self):
        with pytest.raises(ValueError, match="trials must be positive"):
            campaign(9, 0, SchedulerPolicy("random-subset"), seed=0)

    def test_zero_budget_counts_nothing(self):
        stats = campaign(9, 1, SchedulerPolicy("random-subset"), seed=0, max_steps=0)
        assert stats.terminated_count == 0
        assert stats.full_coverage_count == 0

    def test_stats_json_round_trip(self):
        stats = campaign(9, 5, SchedulerPolicy("random-subset"), seed=1)
        payload = stats.to_json()
        assert payload["trials"] == 5
        assert payload["policy"] == "random-subset"

    @pytest.mark.parametrize("seed", [0, 42])
    def test_trial_seeds_are_randrange(self, seed):
        master = random.Random(seed)
        expected = [master.randrange(2**63) for _ in range(200)]
        runs = verify.trial_runs(9, 200, SchedulerPolicy("random-subset"), seed)
        assert [trial_seed for trial_seed, _ in runs] == expected

    def test_failed_bounds_name_the_trial_seed(self, monkeypatch):
        # The protocol's runs never fail the bounds, so a stand-in report that
        # fails reaches the raise: on the first sequential run, naming its
        # trial seed.  A run that is not sequential is never checked.
        failing = CheckReport("stand-in", violations=["too short"])
        monkeypatch.setattr(verify, "check_mrp_bounds", lambda trace: failing)
        policy = SchedulerPolicy("round-robin")
        first_seed, trace = next(verify.trial_runs(9, 1, policy, 7))
        assert trace.terminated
        with pytest.raises(InvariantViolation,
                           match=rf"^MRP bounds violated on seed {first_seed}: \['too short'\]$"):
            campaign(9, 3, policy, seed=7)
        assert campaign(9, 3, SchedulerPolicy("random-subset"), seed=7).terminated_count == 3


# ---------------------------------------------------------------------------
# Deliberate protocol mutations (guards against vacuous checkers)
# ---------------------------------------------------------------------------

class TestFaultInjection:
    def test_shortest_hole_mutant_creates_towers(self):
        report = check_no_tower_one_step(9, decide=shortest_hole_mutant)
        assert not report.passed
        assert report.violations

    def test_gap_filler_mutant_towers_only_on_joint_moves(self):
        # Both neighbours of a one-node hole move into it: the tower needs
        # two robots to land together, so a single-robot activation never
        # makes one, and a checker that tests one move at a time misses it.
        report = check_no_tower_one_step(9, decide=gap_filler_mutant)
        assert len(report.violations) == 438
        assert all(sum(v["activation"].values()) >= 2 for v in report.violations)

    @pytest.mark.parametrize("n, instances, violations", [(9, 1755, 1080), (10, 3405, 1760)])
    def test_lander_mutant_towers_on_robots_that_stay(self, n, instances, violations):
        # A robot moves onto an occupied neighbour: the tower needs the robot
        # already there to stay, so a check that leaves a robot's own node
        # out of its landing spots sees only the towers of two movers.
        report = check_no_tower_one_step(n, decide=lander_mutant)
        assert (report.instances_checked, len(report.violations)) == (instances, violations)

    def test_stuck_scatter_mutant_passes_every_one_step_check(self):
        # No step makes a tower or breaks an arrow, so the three one-step
        # checks pass the mutant; check_terminal_shape reports its stuck
        # scatters.
        reports = [check(9, decide=stuck_scatter_mutant) for check in
                   (check_no_tower_one_step, check_four_segment_step, check_phase3_monotone)]
        assert [(r.passed, r.instances_checked) for r in reports] == \
            [(True, 2115), (True, 315), (True, 108)]
        assert not check_terminal_shape(9, decide=stuck_scatter_mutant).passed

    @pytest.mark.parametrize("policy", ["round-robin", "random-subset", "sequential-random"])
    def test_stuck_scatter_mutant_breaks_campaign(self, policy):
        # A run that reaches a {2, 1, 1} scatter terminates there, and the
        # monitor rejects the terminal shape.
        with pytest.raises(InvariantViolation, match="^terminated in non-terminal shape scatter$"):
            campaign(9, 50, SchedulerPolicy(policy), seed=1, decide=stuck_scatter_mutant)

    def test_flipped_tail_mutant_breaks_campaign(self):
        with pytest.raises((InvariantViolation, protocol.ProtocolError)):
            campaign(9, 40, SchedulerPolicy("random-subset"), seed=42,
                     decide=flipped_tail_mutant)

    def test_flipped_tail_mutant_breaks_monotone_check(self):
        report = check_phase3_monotone(9, decide=flipped_tail_mutant)
        assert not report.passed

    def test_idle_tail_mutant_reported_not_raised(self):
        # Every non-final arrow's tail idles: one tail-decision row each.
        report = check_phase3_monotone(9, decide=idle_tail_mutant)
        assert not report.passed
        assert len(report.violations) == 2 * 9 * (9 - 4)
        assert all(v["reason"] == "tail decision" for v in report.violations)

    def test_final_mover_mutant_breaks_termination(self):
        # The final arrow's tail keeps walking: the final arrow is not
        # terminal, one row per final arrow, and nothing else is wrong.
        report = check_phase3_monotone(9, decide=final_mover_mutant)
        assert len(report.violations) == 2 * 9
        for v in report.violations:
            arrow = find_arrow(v["config"])
            assert arrow.size == 9 - 3
            assert v["reason"] == f"node {arrow.tail} moves"

    def test_one_step_violation_rows(self):
        # Each rejected branch is a witness-path row: the activation as a
        # robot count per node, and every activated robot's destination.
        report = check_no_tower_one_step(9, decide=shortest_hole_mutant)
        for v in report.violations:
            assert set(v) == {"before", "after", "activation", "outcomes"}
            assert sorted(o["node"] for o in v["outcomes"]) == \
                sorted(node for node, count in v["activation"].items() for _ in range(count))
            after = list(v["before"])
            for o in v["outcomes"]:
                if o["to"] is not None:
                    after[o["node"]] -= 1
                    after[o["to"]] += 1
            assert tuple(after) == v["after"]
            assert not verify.successor_rule(v["before"])(v["after"])
        row = report.to_json()["violations"][0]
        assert isinstance(row["before"], str) and isinstance(row["after"], str)
