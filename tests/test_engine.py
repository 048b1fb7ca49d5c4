"""Execution semantics: atomic steps, schedulers, adversaries, traces, JSONL."""

import itertools
import json
import random
from collections import Counter

import pytest

import mutants
from ring_explorer import engine, protocol, verify
from ring_explorer.engine import (
    SchedulerError,
    SchedulerPolicy,
    ScriptedAdversary,
    SeededAdversary,
    Simulation,
    StepRecord,
    is_terminal,
    mrp,
    run,
    sample_towerless,
    trace_to_jsonl,
)
from ring_explorer.ring import (as_config, canonical_form, configurations, occupied_nodes,
                                parse_config)


class ScriptedCoins:
    """Coin stub: random() replays scripted values, nothing else is allowed."""

    def __init__(self, values):
        self._values = list(values)

    def random(self):
        return self._values.pop(0)

    def __getattr__(self, name):
        raise AssertionError(f"unexpected rng use: {name}")


class TestStep:
    def test_tail_move(self):
        sim = Simulation((1, 0, 2, 1, 0, 0, 0, 0, 0))
        record = sim.step([0])  # robot 0 sits on node 0, the tail
        assert record.after == (0, 0, 2, 1, 0, 0, 0, 0, 1)

    def test_phase2_swap_is_identity(self):
        sim = Simulation((1, 1, 1, 1, 0, 0, 0, 0, 0), rng=ScriptedCoins([0.0, 0.0]))
        record = sim.step([1, 2])  # both inner robots win their coins
        assert record.after == record.before
        assert record.coins == {1: True, 2: True}

    def test_phase2_single_winner_forms_arrow(self):
        sim = Simulation((1, 1, 1, 1, 0, 0, 0, 0, 0), rng=ScriptedCoins([0.0, 0.9]))
        record = sim.step([1, 2])
        assert record.after == (1, 0, 2, 1, 0, 0, 0, 0, 0)
        assert record.coins == {1: True, 2: False}

    def test_conservation(self):
        rng = random.Random(5)
        for _ in range(300):
            c = sample_towerless(11, 4, rng)
            sim = Simulation(c, rng=rng)
            activation = rng.sample(range(4), rng.randint(1, 4))
            record = sim.step(activation)
            assert sum(record.after) == 4

    def test_empty_activation_rejected(self):
        sim = Simulation((1, 1, 1, 1, 0, 0, 0, 0, 0))
        with pytest.raises(SchedulerError, match="nonemptiness"):
            sim.step([])

    @pytest.mark.parametrize("activation", [[4], [-1], [0, 4], [-1, 3], [2, 9, 1]])
    def test_out_of_range_activation_rejected(self, activation):
        sim = Simulation((1, 1, 1, 1, 0, 0, 0, 0, 0))
        with pytest.raises(ValueError, match="out of range"):
            sim.step(activation)
        assert sim.t == 0 and sim.configuration() == (1, 1, 1, 1, 0, 0, 0, 0, 0)

    def test_activation_order_and_repeats_do_not_matter(self):
        rng = random.Random(8)
        for seed in range(200):
            c = sample_towerless(11, 4, rng)
            ids = rng.sample(range(4), rng.randint(1, 4))
            messy = ids + rng.choices(ids, k=rng.randint(0, 3))
            rng.shuffle(messy)
            records = [Simulation(c, rng=random.Random(seed)).step(activation)
                       for activation in (messy, tuple(sorted(ids)))]
            assert records[0] == records[1]
            assert records[0].activated == tuple(sorted(ids))

    @pytest.mark.parametrize("robot", [1.5, "1"], ids=["float", "str"])
    def test_non_integer_robot_id_rejected(self, robot):
        sim = Simulation((1, 1, 1, 1, 0, 0, 0, 0, 0), rng=random.Random(0))
        with pytest.raises(ValueError, match="robot ids must be integers"):
            sim.step([robot])
        assert sim.t == 0

    def test_bool_robot_id_is_its_int(self):
        c = (1, 0, 2, 1, 0, 0, 0, 0, 0)
        record = Simulation(c, rng=random.Random(0)).step([True])
        assert record == Simulation(c, rng=random.Random(0)).step([1])
        assert [type(r) for r in record.activated] == [int]
        assert json.dumps(record.to_json()["activated"]) == "[1]"

    def test_outside_the_domain_raises_at_construction(self):
        # n = 4 is outside ``decide``'s n > 8 domain: the plan is built whole
        # with the simulation, before any step.
        with pytest.raises(protocol.ProtocolError):
            Simulation((1, 1, 1, 0))

    def test_one_shot_step_helper(self):
        record = Simulation((1, 0, 2, 1, 0, 0, 0, 0, 0), rng=random.Random(0)).step([0])
        assert record.after == (0, 0, 2, 1, 0, 0, 0, 0, 1)
        assert record.positions_before == (0, 2, 2, 3)

    def test_tower_robots_share_decision_but_not_coins(self):
        # Both robots of a 4-segment's inner pair: distinct coins recorded.
        sim = Simulation((1, 1, 1, 1, 0, 0, 0, 0, 0), rng=ScriptedCoins([0.9, 0.9]))
        record = sim.step([1, 2])
        assert record.after == record.before
        assert record.coins == {1: False, 2: False}


SCRIPT = ((0,), (1, 2), (3,), (0, 1, 2, 3), (2,), (1,), (0, 3))
BOOKKEEPING_POLICIES = [
    SchedulerPolicy("round-robin"),
    SchedulerPolicy("sequential-random"),
    SchedulerPolicy("random-subset"),
    SchedulerPolicy("scripted", script=SCRIPT * 30),
]


def counts_of(positions, n):
    return tuple(Counter(positions).get(v, 0) for v in range(n))


class TestIncrementalState:
    """The kept configuration and visited set match a recount at every step."""

    @pytest.mark.parametrize("policy", BOOKKEEPING_POLICIES, ids=lambda p: p.mode)
    def test_step_bookkeeping(self, policy):
        for n in range(9, 14):
            for seed in range(3):
                rng = random.Random(1000 * n + seed)
                c = sample_towerless(n, 4, rng)
                sim = Simulation(c, rng=rng)
                seen = {v for v in range(n) if c[v]}
                assert sim.configuration() == c
                for t in range(150):
                    record = sim.step(policy.activation(t, sim.k, rng))
                    after = sim.configuration()
                    assert after == record.after == counts_of(sim.positions, n)
                    seen |= {v for v in range(n) if after[v]}
                    assert sim.visited == seen

    @pytest.mark.parametrize("policy", BOOKKEEPING_POLICIES, ids=lambda p: p.mode)
    @pytest.mark.parametrize("max_steps", [0, 3, 12, 10**5])
    def test_run_verdict_matches_last_configuration(self, policy, max_steps):
        for n in range(9, 14):
            rng = random.Random(n)
            trace = run(sample_towerless(n, 4, rng), policy, rng=rng, max_steps=max_steps)
            configs = trace.configurations()
            assert trace.terminated == is_terminal(configs[-1])
            assert trace.visited == {v for c in configs for v in range(n) if c[v]}
            limit = min(max_steps, len(policy.script)) if policy.script else max_steps
            if trace.step_count < limit:
                assert trace.terminated  # stopped early only at a terminal configuration

    @pytest.mark.parametrize("policy", BOOKKEEPING_POLICIES[:3], ids=lambda p: p.mode)
    def test_terminal_on_the_last_allowed_step(self, policy):
        for n in range(9, 14):
            full = run(sample_towerless(n, 4, random.Random(n)), policy, seed=n)
            assert full.terminated
            cut = run(sample_towerless(n, 4, random.Random(n)), policy, seed=n,
                      max_steps=full.step_count)
            assert cut.terminated
            assert cut.steps == full.steps


class TestSharedRecords:
    """A step that moves no robot shares the positions of the step before it,
    and the shared objects are never changed after the step that recorded
    them."""

    @staticmethod
    def stepped_run(policy, seed, n=15):
        """``run`` step by step, with each step's movers read off the live
        positions right after the step: ``(trace, movers per step)``."""
        initial = sample_towerless(n, 4, random.Random(seed))
        rng = random.Random(seed)
        sim = Simulation(initial, rng=rng)
        steps, movers = [], []
        while not is_terminal(sim.configuration()):
            before = list(sim.positions)
            steps.append(sim.step(policy.activation(sim.t, sim.k, rng)))
            movers.append([(r, v) for r, v in enumerate(sim.positions) if v != before[r]])
        trace = run(initial, policy, seed=seed)
        assert trace.terminated and trace.steps == steps
        return trace, movers

    @pytest.mark.parametrize("policy", BOOKKEEPING_POLICIES[:3], ids=lambda p: p.mode)
    def test_idle_steps_share_positions(self, policy):
        trace, movers = self.stepped_run(policy, seed=15)
        idle = 0
        for record, following, moved in zip(trace.steps, trace.steps[1:], movers):
            if not moved:
                idle += 1
                assert following.positions_before is record.positions_before
                assert following.before is record.after is record.before
        assert idle > trace.step_count // 4

    @pytest.mark.parametrize("policy", BOOKKEEPING_POLICIES[:3], ids=lambda p: p.mode)
    def test_replayed_movers_give_every_record(self, policy):
        trace, movers = self.stepped_run(policy, seed=15)
        positions = [v for v, m in enumerate(trace.initial) for _ in range(m)]
        for record, moved in zip(trace.steps, movers):
            assert record.positions_before == tuple(positions)
            assert type(record.positions_before) is tuple
            for r, v in moved:
                positions[r] = v
            assert record.after == counts_of(positions, trace.n)

    @pytest.mark.parametrize("policy", BOOKKEEPING_POLICIES[:3], ids=lambda p: p.mode)
    def test_records_are_step_records(self, policy):
        trace = run(sample_towerless(15, 4, random.Random(15)), policy, seed=15)
        for record in trace.steps:
            assert type(record) is StepRecord
            assert record == StepRecord(**record._asdict())


def reference_is_terminal(c, decide):
    for i, m in enumerate(c):
        if m and decide(c, i).moves:
            return False
    return True


def reference_run(initial, policy, *, rng, decide=protocol.decide, adversary=None,
                  max_steps=engine.DEFAULT_MAX_STEPS):
    """``Simulation.step`` and ``run`` without step plans: ``decide`` is asked
    for every activated robot on every step, and the terminal test runs again
    after every step that changes the configuration.  Returns the steps, the
    visited nodes and the verdict."""
    adversary = adversary if adversary is not None else SeededAdversary(rng)
    c = as_config(initial)
    n = len(c)
    positions = [node for node, count in enumerate(c) for _ in range(count)]
    visited = set(occupied_nodes(c))
    steps = []
    terminated = reference_is_terminal(c, decide)
    while not terminated and len(steps) < max_steps:
        t = len(steps)
        activation = policy.activation(t, len(positions), rng)
        if activation is None:
            break
        acts = tuple(sorted(set(activation)))
        before, positions_before = c, tuple(positions)
        coins, adversary_edges, moves = {}, {}, {}
        for r in acts:
            node = positions[r]
            outcomes = engine.decision_outcomes(n, node, decide(before, node))
            targets = outcomes[1:] if outcomes[0] is None else outcomes
            if not targets:
                continue
            if len(targets) < len(outcomes):
                win = rng.random() < 0.5
                coins[r] = win
                if not win:
                    continue
            if len(targets) == 2:
                choice = adversary(r, before, tuple(targets))
                assert choice in targets
                adversary_edges[r] = moves[r] = choice
            else:
                moves[r] = targets[0]
        if moves:
            counts = list(before)
            for r, target in moves.items():
                counts[positions[r]] -= 1
                counts[target] += 1
                positions[r] = target
            c = tuple(counts)
            visited.update(moves.values())
        steps.append(StepRecord(t, acts, positions_before, before, c, coins, adversary_edges))
        if c != before:
            terminated = reference_is_terminal(c, decide)
    return steps, frozenset(visited), terminated


class AskedPolicy:
    """A policy that records every instant it is asked about, so a run that
    raises still shows at which step it stopped."""

    def __init__(self, policy):
        self.policy = policy
        self.mode = policy.mode
        self.asked = []

    def activation(self, t, k, rng):
        self.asked.append(t)
        return self.policy.activation(t, k, rng)


def recorded(decide):
    """``decide`` with a log of every ``(configuration, node)`` it is asked."""
    calls = []

    def logged(c, i):
        calls.append((c, i))
        return decide(c, i)
    return logged, calls


def engine_run(initial, policy, **kwargs):
    trace = run(initial, policy, **kwargs)
    return trace.steps, trace.visited, trace.terminated


def both_runs(initial, policy, seed, decide=protocol.decide, adversary=lambda: None):
    """The engine's and the reference's outcome from the same start, seed and
    a fresh adversary each: ``(steps, visited, terminated)`` or the exception
    raised, with the instants the policy was asked about."""
    outcomes = []
    for go in (engine_run, reference_run):
        asked = AskedPolicy(policy)
        try:
            result = go(initial, asked, rng=random.Random(seed), decide=decide,
                        adversary=adversary())
        except Exception as exc:
            result = (type(exc), str(exc))
        outcomes.append((result, asked.asked))
    return outcomes


ORACLE_POLICIES = [*BOOKKEEPING_POLICIES[:3], SchedulerPolicy("scripted", script=SCRIPT * 40)]


class TestStepPlanOracle:
    """The engine with step plans reproduces the plan-free reference run."""

    @pytest.mark.parametrize("policy", ORACLE_POLICIES, ids=lambda p: p.mode)
    @pytest.mark.parametrize("n", [9, 12, 15])
    def test_seeded_adversary(self, policy, n):
        for seed in range(4):
            initial = sample_towerless(n, 4, random.Random(seed))
            ours, reference = both_runs(initial, policy, seed)
            assert ours == reference
            assert isinstance(ours[0][0], list)  # the run did not raise
            pinned = both_runs(initial, policy, seed,
                               adversary=lambda: SeededAdversary(random.Random(seed + 99)))
            assert pinned[0] == pinned[1]

    @pytest.mark.parametrize("policy", ORACLE_POLICIES, ids=lambda p: p.mode)
    @pytest.mark.parametrize("n", [9, 12, 15])
    def test_scripted_adversary(self, policy, n):
        for seed in range(4):
            initial = sample_towerless(n, 4, random.Random(seed))
            steps = reference_run(initial, policy, rng=random.Random(seed))[0]
            edges = [e for s in steps for _, e in sorted(s.adversary_edges.items())]
            # The full script replays the run; a short one runs out mid-run.
            for script in (edges, edges[:len(edges) // 2]):
                ours, reference = both_runs(initial, policy, seed,
                                            adversary=lambda: ScriptedAdversary(script))
                assert ours == reference
            if edges:
                assert reference[0] == (SchedulerError, "scripted adversary exhausted")

    # Random starts almost never reach a symmetric view.  In the first start
    # every robot tries to move and the adversary picks its edge; in the
    # second, node 6 moves and the adversary picks its edge.
    @pytest.mark.parametrize("policy", ORACLE_POLICIES, ids=lambda p: p.mode)
    @pytest.mark.parametrize("initial", [(1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0),
                                         (1, 1, 1, 0, 0, 0, 1, 0, 0, 0)])
    def test_symmetric_start(self, policy, initial):
        for seed in range(4):
            ours, reference = both_runs(initial, policy, seed)
            assert ours == reference
            steps, _, terminated = ours[0]
            assert terminated
            assert any(s.adversary_edges for s in steps)
            if protocol.decide(initial, 0).kind == protocol.TRY_MOVE:  # a coin goes first
                assert any(s.coins.keys() & s.adversary_edges.keys() for s in steps)

    def test_plans_do_not_leak_between_decide_functions(self):
        initial = sample_towerless(12, 4, random.Random(5))
        policy = SchedulerPolicy("random-subset")
        results = []
        for decide in (protocol.decide, mutants.idle_tail_mutant, mutants.flipped_tail_mutant):
            ours, reference = both_runs(initial, policy, 5, decide=decide)
            assert ours == reference
            results.append(ours[0])
        (steps, _, terminated), (idle_steps, _, idle_terminated), flipped = results
        assert terminated and protocol.phase(steps[-1].after) == "final"
        assert idle_terminated and protocol.phase(idle_steps[-1].after) != "final"
        assert flipped[0] is protocol.ProtocolError  # the flipped tail builds a tower


class TestDecideCalls:
    """With plans, ``decide`` is asked about every occupied node of a
    configuration, in node order, the first time a run reaches it, and never
    again while its plan is kept."""

    @pytest.mark.parametrize("policy", ORACLE_POLICIES, ids=lambda p: p.mode)
    def test_first_asks_in_reference_order(self, policy):
        for n in (9, 12, 15):
            for seed in range(3):
                initial = sample_towerless(n, 4, random.Random(seed))
                ours, ours_calls = recorded(protocol.decide)
                run(initial, policy, rng=random.Random(seed), decide=ours)
                steps = reference_run(initial, policy, rng=random.Random(seed))[0]
                reached = dict.fromkeys([as_config(initial)] + [s.after for s in steps])
                assert ours_calls == [(c, v) for c in reached for v in occupied_nodes(c)]
                # A second run from the same start asks nothing.
                asked = len(ours_calls)
                run(initial, policy, rng=random.Random(seed), decide=ours)
                assert len(ours_calls) == asked

    @pytest.mark.parametrize("policy", ORACLE_POLICIES, ids=lambda p: p.mode)
    def test_raises_at_the_same_step(self, policy):
        def failing_on(k):
            """``decide`` raising on the k-th distinct configuration it sees."""
            order = []

            def decide(c, i):
                if c not in order:
                    order.append(c)
                if order.index(c) == k - 1:
                    raise protocol.ProtocolError(f"configuration {k}: {c}")
                return protocol.decide(c, i)
            return decide

        for seed in range(3):
            initial = sample_towerless(12, 4, random.Random(seed))
            logged, calls = recorded(protocol.decide)
            reference_run(initial, policy, rng=random.Random(seed), decide=logged)
            distinct = len(dict.fromkeys(c for c, _ in calls))
            for k in sorted({1, 2, 3, distinct // 2, distinct}):
                outcomes = []
                for go in (run, reference_run):
                    asked = AskedPolicy(policy)
                    with pytest.raises(protocol.ProtocolError) as raised:
                        go(initial, asked, rng=random.Random(seed), decide=failing_on(k))
                    outcomes.append((str(raised.value), asked.asked))
                assert outcomes[0] == outcomes[1]


    def test_swap_keeps_the_configuration_and_asks_nothing_new(self):
        # Both inner robots of a 4-segment win their coins, three times: the
        # robots swap nodes and the configuration stays the same tuple.
        c = (1, 1, 1, 1, 0, 0, 0, 0, 0)
        policy = SchedulerPolicy("scripted", script=((1, 2),) * 3)
        ours, ours_calls = recorded(protocol.decide)
        trace = run(c, policy, rng=ScriptedCoins([0.0] * 6), decide=ours)
        steps = reference_run(c, policy, rng=ScriptedCoins([0.0] * 6))[0]
        assert trace.steps == steps and not trace.terminated
        for record in trace.steps:
            assert record.after is record.before
            assert record.coins == {1: True, 2: True}
        assert [s.positions_before for s in trace.steps] == [(0, 1, 2, 3), (0, 2, 1, 3),
                                                             (0, 1, 2, 3)]
        # The plan asks every occupied node once; the swaps ask nothing again.
        assert ours_calls == [(c, 0), (c, 1), (c, 2), (c, 3)]


class TestIsTerminal:
    def test_final_arrow_terminal(self):
        assert is_terminal((2, 1, 1, 0, 0, 0, 0, 0, 0))

    def test_four_segment_not_terminal(self):
        assert not is_terminal((1, 1, 1, 1, 0, 0, 0, 0, 0))

    def test_arrow_not_terminal(self):
        assert not is_terminal((1, 0, 2, 1, 0, 0, 0, 0, 0))

    @pytest.mark.parametrize("decide", [protocol.decide, mutants.shortest_hole_mutant,
                                        mutants.flipped_tail_mutant, mutants.idle_tail_mutant,
                                        mutants.gap_filler_mutant, mutants.final_mover_mutant],
                             ids=lambda f: f.__name__)
    def test_matches_all_idle_over_the_domain(self, decide):
        """Same verdict or exception, and the same ``decide`` calls in the same
        order, as the all-idle definition asking every occupied node in node
        order, without stopping at the first that moves."""
        def verdict(terminal, c):
            calls = []
            def logged(c, i):
                calls.append(i)
                return decide(c, i)
            try:
                return terminal(c, logged), calls
            except Exception as exc:
                return type(exc).__name__, calls

        def all_idle(c, logged):
            return all([not logged(c, i).moves for i in occupied_nodes(c)])

        for n in range(9, 13):
            for c in configurations(n, 4):
                assert verdict(is_terminal, c) == verdict(all_idle, c)


class TestRun:
    def test_tail_walk_needs_exactly_five_moves(self):
        trace = run(
            (1, 0, 2, 1, 0, 0, 0, 0, 0),
            SchedulerPolicy("round-robin"),
            seed=7,
            require_towerless=False,
        )
        assert trace.terminated
        moves = [s for s in trace.steps if s.after != s.before]
        assert len(moves) == 5  # n - 4
        assert protocol.phase(trace.configurations()[-1]) == "final"
        assert len(mrp(trace.configurations())) == 6
        # The hole inside the starting arrow is never entered on this walk.
        assert trace.visited == frozenset(range(9)) - {1}

    def test_random_subset_run_terminates_with_coverage(self):
        trace = run((1, 1, 1, 1, 0, 0, 0, 0, 0), SchedulerPolicy("random-subset"), seed=1)
        assert trace.terminated
        assert trace.full_coverage

    def test_max_steps_zero(self):
        trace = run((1, 1, 1, 1, 0, 0, 0, 0, 0), SchedulerPolicy("round-robin"), seed=0, max_steps=0)
        assert trace.step_count == 0
        assert trace.terminated == is_terminal(trace.initial)
        assert not trace.terminated

    @pytest.mark.parametrize("max_steps", [-3, -1, 2.5, "3", None],
                             ids=["minus-3", "minus-1", "float", "str", "none"])
    def test_max_steps_must_be_a_non_negative_integer(self, max_steps):
        with pytest.raises(ValueError, match="max_steps"):
            run((1, 1, 1, 1, 0, 0, 0, 0, 0), SchedulerPolicy("round-robin"), seed=0,
                max_steps=max_steps)
        with pytest.raises(ValueError, match="max_steps"):
            verify.campaign(9, 1, SchedulerPolicy("round-robin"), seed=0, max_steps=max_steps)

    def test_towered_initial_rejected(self):
        with pytest.raises(ValueError, match="towerless"):
            run((1, 0, 2, 1, 0, 0, 0, 0, 0), SchedulerPolicy("round-robin"), seed=0)

    def test_towerless_check_comes_before_decide(self):
        # Two towers are outside ``decide``'s domain; the initial condition
        # still decides first.
        with pytest.raises(ValueError, match="towerless"):
            run((2, 2, 0, 0, 0, 0, 0, 0, 0), SchedulerPolicy("round-robin"), seed=0)

    def test_reproducible_bit_for_bit(self):
        kwargs = dict(seed=123, max_steps=50_000)
        a = run(sample_towerless(10, 4, random.Random(9)), SchedulerPolicy("random-subset"), **kwargs)
        b = run(sample_towerless(10, 4, random.Random(9)), SchedulerPolicy("random-subset"), **kwargs)
        assert trace_to_jsonl(a) == trace_to_jsonl(b)
        assert a.steps == b.steps

    def test_scripted_policy_and_adversary(self):
        # Isolated robot of a 3-segment with equal holes moves where the
        # adversary says.
        c = (1, 1, 1, 0, 0, 0, 1, 0, 0, 0)
        policy = SchedulerPolicy("scripted", script=((3,),))
        trace = run(c, policy, seed=0, adversary=ScriptedAdversary([5]))
        assert trace.steps[0].after == (1, 1, 1, 0, 0, 1, 0, 0, 0, 0)
        assert trace.steps[0].adversary_edges == {3: 5}
        assert not trace.terminated  # script exhausted before terminal

    def test_scripted_edge_must_be_an_option(self):
        # Robot 3 on node 6 may cross to node 5 or node 7 only.
        c = (1, 1, 1, 0, 0, 0, 1, 0, 0, 0)
        policy = SchedulerPolicy("scripted", script=((3,),))
        with pytest.raises(SchedulerError, match=r"scripted edge 4 not among options \(5, 7\)"):
            run(c, policy, seed=0, adversary=ScriptedAdversary([4]))

    def test_adversary_answer_must_be_an_integer(self):
        # A float equal to an incident node is no edge: ValueError, not a
        # TypeError from the count update.
        c = (1, 1, 1, 0, 0, 0, 1, 0, 0, 0)
        policy = SchedulerPolicy("scripted", script=((3,),))
        for answer in (5.0, "5"):
            with pytest.raises(ValueError, match="not an incident edge"):
                run(c, policy, seed=0, adversary=lambda r, before, options: answer)
        with pytest.raises(ValueError, match="must be integers"):
            ScriptedAdversary([5.0])
        with pytest.raises(TypeError):
            ScriptedAdversary(5)

    def test_adversary_bool_recorded_as_int(self):
        # Robot 0 of this snapshot may cross either edge: options (9, 1).
        c = (1, 0, 0, 0, 1, 1, 1, 0, 0, 0)
        policy = SchedulerPolicy("scripted", script=((0,),))
        for adversary in (ScriptedAdversary([True]), lambda r, before, options: True):
            trace = run(c, policy, seed=0, adversary=adversary)
            (edge,) = trace.steps[0].adversary_edges.values()
            assert trace.steps[0].adversary_edges == {0: 1} and type(edge) is int
            assert '"adversary": {"0": 1}' in trace_to_jsonl(trace)[1]  # not ``true``

    def test_scripted_activations_are_normalised(self):
        messy = tuple(tuple(reversed(a)) + a for a in SCRIPT)  # e.g. (2, 1, 1, 2)
        policy = SchedulerPolicy("scripted", script=messy * 30)
        assert policy.script == SCRIPT * 30  # the policy keeps its script normalised
        for seed in range(4):
            initial = sample_towerless(12, 4, random.Random(seed))
            ours = run(initial, policy, seed=seed)
            sorted_script = run(initial, SchedulerPolicy("scripted", script=SCRIPT * 30),
                                seed=seed)
            assert ours.steps and ours.steps == sorted_script.steps
            assert ours.visited == sorted_script.visited
            assert ours.terminated == sorted_script.terminated

    @pytest.mark.parametrize("robot", [1.5, 0.0, "1"], ids=["float", "zero-float", "str"])
    def test_non_integer_scripted_id_rejected_at_construction(self, robot):
        with pytest.raises(ValueError, match="robot ids must be integers"):
            SchedulerPolicy("scripted", script=((0,), (2, robot)))

    def test_bool_scripted_id_is_its_int(self):
        initial = (1, 1, 1, 0, 0, 0, 1, 0, 0, 0)
        ours = run(initial, SchedulerPolicy("scripted", script=((True,), (3,))), seed=0)
        ints = run(initial, SchedulerPolicy("scripted", script=((1,), (3,))), seed=0)
        assert ours.steps == ints.steps
        assert trace_to_jsonl(ours) == trace_to_jsonl(ints)
        assert '"activated": [1]' in trace_to_jsonl(ours)[1]

    @pytest.mark.parametrize("script,error,match", [
        (((0,), ()), SchedulerError, "nonemptiness"),
        (((0,), (1, 4)), ValueError, "out of range"),
        (((2, -1, 2),), ValueError, "out of range"),
    ], ids=["empty", "too-large", "negative"])
    def test_bad_scripted_activation_raises_from_run(self, script, error, match):
        with pytest.raises(error, match=match):
            run((1, 1, 1, 1, 0, 0, 0, 0, 0), SchedulerPolicy("scripted", script=script), seed=0)


class TestPolicies:
    def test_round_robin_is_fair_windowed(self):
        policy = SchedulerPolicy("round-robin")
        rng = random.Random(0)
        for start in range(0, 40, 4):
            window = [policy.activation(t, 4, rng)[0] for t in range(start, start + 4)]
            assert sorted(window) == [0, 1, 2, 3]

    def test_random_subset_nonempty_and_balanced(self):
        policy = SchedulerPolicy("random-subset")
        rng = random.Random(42)
        counts = [0] * 4
        trials = 3000
        for t in range(trials):
            activation = policy.activation(t, 4, rng)
            assert activation
            for r in activation:
                counts[r] += 1
        expected = trials * 8 / 15  # P(robot in a uniform nonempty subset)
        sigma = (trials * (8 / 15) * (7 / 15)) ** 0.5
        for count in counts:
            assert abs(count - expected) < 4 * sigma

    def test_sequential_flags(self):
        assert SchedulerPolicy("round-robin").sequential
        assert SchedulerPolicy("sequential-random").sequential
        assert not SchedulerPolicy("random-subset").sequential
        assert SchedulerPolicy("scripted", script=((0,), (2,))).sequential
        assert not SchedulerPolicy("scripted", script=((0, 1),)).sequential
        # Repeats are dropped: ``run`` activates (0,) and then (1,).
        assert SchedulerPolicy("scripted", script=((0, 0), (1, 1))).sequential

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            SchedulerPolicy("alphabetical")

    def test_policies_that_activate_the_same_robots_are_one_value(self):
        from_lists = SchedulerPolicy("scripted", script=[[1, 0]])
        normalised = SchedulerPolicy("scripted", script=((0, 1),))
        assert from_lists == normalised and hash(from_lists) == hash(normalised)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_random_subset_is_the_mask_bit_decode(self, k):
        policy = SchedulerPolicy("random-subset")
        rng, replay = random.Random(k), random.Random(k)
        for t in range(2000):
            mask = replay.randrange(1, 1 << k)
            assert policy.activation(t, k, rng) == tuple(r for r in range(k) if mask >> r & 1)

    def test_random_subset_of_64_robots(self):
        policy = SchedulerPolicy("random-subset")
        rng, replay = random.Random(64), random.Random(64)
        for t in range(200):
            mask = replay.randrange(1, 1 << 64)
            assert policy.activation(t, 64, rng) == tuple(r for r in range(64) if mask >> r & 1)

    @pytest.mark.parametrize("k", [*range(1, 7), 64])
    def test_sequential_random_is_randrange(self, k):
        policy = SchedulerPolicy("sequential-random")
        rng, replay = random.Random(k), random.Random(k)
        for t in range(2000):
            assert policy.activation(t, k, rng) == (replay.randrange(k),)
        assert rng.getstate() == replay.getstate()

    @pytest.mark.parametrize("mode", ["sequential-random", "random-subset"])
    def test_random_policy_without_robots_raises(self, mode):
        # No robot to draw: the draw raises as ``randrange`` does on an
        # empty range, rather than returning an empty activation.
        with pytest.raises(ValueError):
            SchedulerPolicy(mode).activation(0, 0, random.Random(0))


class TestSeededAdversary:
    def test_picks_are_randrange(self):
        rng, replay = random.Random(5), random.Random(5)
        adversary = SeededAdversary(rng)
        c = (1, 1, 1, 1, 0, 0, 0, 0, 0)
        for t in range(2000):
            options = (t % 9, (t + 2) % 9)
            assert adversary(0, c, options) == options[replay.randrange(2)]
        assert rng.getstate() == replay.getstate()


class TestStepRecord:
    RECORD = StepRecord(3, (0, 2), (0, 2, 2, 3), (1, 0, 2, 1, 0, 0, 0, 0, 0),
                        (0, 0, 2, 1, 0, 0, 0, 0, 1), {2: False}, {0: 8})

    def test_immutable(self):
        for name in StepRecord._fields:
            with pytest.raises(AttributeError):
                setattr(self.RECORD, name, None)

    def test_fields_in_order_all_required(self):
        assert StepRecord._fields == ("t", "activated", "positions_before", "before", "after",
                                      "coins", "adversary_edges")
        assert StepRecord._field_defaults == {}

    def test_to_json(self):
        assert self.RECORD.to_json() == {
            "t": 3, "activated": [0, 2], "coins": {"2": False}, "adversary": {"0": 8},
            "config": "0,0,2,1,0,0,0,0,1",
        }


class TestMrp:
    def test_collapse(self):
        a, b = (1, 1, 1, 1, 0, 0, 0, 0, 0), (1, 0, 2, 1, 0, 0, 0, 0, 0)
        assert mrp([a, a, b, b, a]) == [a, b, a]

    def test_all_identical(self):
        a = (1, 1, 1, 1, 0, 0, 0, 0, 0)
        assert mrp([a] * 7) == [a]

    def test_sequential_terminating_run_length_bound(self):
        for seed in range(5):
            rng = random.Random(seed)
            trace = run(sample_towerless(9, 4, rng), SchedulerPolicy("round-robin"), rng=rng)
            assert trace.terminated
            assert len(mrp(trace.configurations())) >= 6  # n - k + 1


class TestSampleTowerless:
    def test_forced_full_ring(self):
        assert sample_towerless(4, 4, random.Random(0)) == (1, 1, 1, 1)

    def test_always_towerless(self):
        rng = random.Random(7)
        for _ in range(10_000):
            c = sample_towerless(9, 4, rng)
            assert sum(c) == 4 and max(c) == 1

    def test_too_many_robots(self):
        with pytest.raises(ValueError):
            sample_towerless(3, 4, random.Random(0))

    def test_class_frequencies_match_uniform_subsets(self):
        import itertools
        from math import comb

        n, k, draws = 9, 4, 10_000
        class_sizes = {}
        for nodes in itertools.combinations(range(n), k):
            c = tuple(1 if i in nodes else 0 for i in range(n))
            key = canonical_form(c)
            class_sizes[key] = class_sizes.get(key, 0) + 1
        rng = random.Random(2024)
        observed = {key: 0 for key in class_sizes}
        for _ in range(draws):
            observed[canonical_form(sample_towerless(n, k, rng))] += 1
        total = comb(n, k)
        for key, size in class_sizes.items():
            p = size / total
            sigma = (draws * p * (1 - p)) ** 0.5
            assert abs(observed[key] - draws * p) <= 3 * sigma, key


class TestJsonl:
    def test_header_and_step_lines(self):
        trace = run((1, 1, 1, 1, 0, 0, 0, 0, 0), SchedulerPolicy("random-subset"), seed=11)
        lines = trace_to_jsonl(trace)
        header = json.loads(lines[0])
        assert header == {
            "n": 9, "k": 4, "seed": 11, "policy": "random-subset",
            "initial": "1,1,1,1,0,0,0,0,0",
        }
        assert len(lines) == 1 + trace.step_count
        step = json.loads(lines[1])
        assert set(step) == {"t", "activated", "coins", "adversary", "config"}

    def test_round_trip(self):
        trace = run((1, 1, 1, 1, 0, 0, 0, 0, 0), SchedulerPolicy("random-subset"), seed=11)
        header, *steps = map(json.loads, trace_to_jsonl(trace))
        configs = [parse_config(header["initial"])] + [parse_config(s["config"]) for s in steps]
        assert configs == trace.configurations()


def robot_outcomes(c, node):
    """One robot's positive-probability landing spots, read off its decision."""
    d = protocol.decide(c, node)
    edges = [(node - 1) % len(c), (node + 1) % len(c)]
    if d.kind == protocol.IDLE:
        return [None]
    targets = edges if d.target is None else [d.target]
    return targets if d.kind == protocol.MOVE else [None] + targets


def brute_force_branches(c):
    """Every nonempty robot-id subset, every outcome per activated robot;
    robot ids number the robots in node order."""
    robots = [v for v in range(len(c)) if c[v]]
    out = []
    for size in range(1, len(robots) + 1):
        for subset in itertools.combinations(range(len(robots)), size):
            lists = [robot_outcomes(c, robots[r]) for r in subset]
            for resolution in itertools.product(*lists):
                landed = list(robots)
                for r, dest in zip(subset, resolution):
                    if dest is not None:
                        landed[r] = dest
                after = tuple(landed.count(v) for v in range(len(c)))
                moves = tuple((robots[r], dest) for r, dest in zip(subset, resolution))
                out.append((size, moves, after))
    return out


class TestSuccessors:
    def branches(self, c, sequential=False):
        def options(node):
            d = protocol.decide(c, node)
            return [(dest, d) for dest in engine.decision_outcomes(len(c), node, d)]
        for activation, outcomes, after in engine.successors(c, options):
            assert sum(a for _, a in activation) == len(outcomes)
            if sequential and len(outcomes) != 1:
                continue
            yield len(outcomes), tuple((v, dest) for v, dest, _ in outcomes), after

    def test_matches_per_robot_enumeration(self):
        n = 9
        for nodes in itertools.combinations(range(n), 4):
            c = tuple(1 if i in nodes else 0 for i in range(n))
            expected = Counter(brute_force_branches(c))
            assert Counter(self.branches(c)) == expected
            singles = Counter({b: m for b, m in expected.items() if b[0] == 1})
            assert Counter(self.branches(c, sequential=True)) == singles


def sorted_holes(c):
    """The free-node counts between consecutive robots of a towerless ``c``,
    sorted."""
    nodes = occupied_nodes(c)
    n = len(c)
    return sorted((nodes[(j + 1) % len(nodes)] - v - 1) % n for j, v in enumerate(nodes))


class TestFairLivelock:
    """The known fault of the gathering rules at n = 3 (mod 4), pinned as it
    stands: from a hole vector (L-1, L, L, L), the two robots beside the short
    hole each try to move into their longest hole, and a success turns the
    class into a rotation of itself.  A fair scheduler that activates only
    such a robot keeps every run from terminating.  The repair of the
    (L-1, L, L, L) rule must invert this test: under it, this scheduler finds
    no robot to activate, or the run leaves the class."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("initial", ["1,0,1,0,0,1,0,0,1,0,0",
                                         "1,0,0,1,0,0,0,1,0,0,0,1,0,0,0"], ids=["n11", "n15"])
    def test_class_keeping_scheduler_never_terminates(self, initial, seed):
        start = parse_config(initial)
        trap = sorted_holes(start)
        long = trap[-1]
        assert trap == [long - 1, long, long, long]
        sim = Simulation(start, rng=random.Random(seed))
        steps = 2_000
        last = [-1] * sim.k
        longest_wait = 0
        for t in range(steps):
            c = sim.configuration()
            keepers = []
            for r, v in enumerate(sim.positions):
                target = protocol.decide(c, v).target
                if target is None:
                    continue
                after = list(c)
                after[v] -= 1
                after[target] += 1
                if sorted_holes(tuple(after)) == trap:
                    keepers.append(r)
            assert keepers, f"no class-keeping move from {c}"
            r = min(keepers, key=lambda r: last[r])
            longest_wait = max(longest_wait, t - last[r])
            last[r] = t
            sim.step([r])
            assert sorted_holes(sim.configuration()) == trap
            assert not is_terminal(sim.configuration())
        longest_wait = max(longest_wait, *(steps - t for t in last))
        assert min(last) >= 0
        assert longest_wait <= 36
