"""Compute-phase rules: dispatch, the gathering branches, tower formation,
the tail walk, and the towerless rules' dependence on the hole vector's
signature alone."""

import itertools
import pickle
from math import comb

import pytest

from ring_explorer import protocol
from ring_explorer.engine import (ScriptedAdversary, SchedulerPolicy, decision_outcomes,
                                  is_terminal, run, successors)
from ring_explorer.protocol import IDLE, MOVE, TRY_MOVE, ProtocolError, decide
from ring_explorer.ring import configurations, find_arrow, occupied_nodes, segments
from ring_explorer.verify import check_no_tower_one_step, successor_rule

# The rules with no domain check and no identity memo: the anonymity tests
# and the oracle below read the code path ``decide`` runs, outside its domain
# too.
direct_rules = protocol._rules


def direct(c, i):
    return direct_rules(c)[i]


def towerless_configs(n, k=4):
    for nodes in itertools.combinations(range(n), k):
        yield tuple(1 if i in nodes else 0 for i in range(n))


def arrow_configs(n):
    for tower in range(n):
        for orientation in (1, -1):
            for size in range(1, n - 2):
                c = [0] * n
                c[tower] = 2
                c[(tower + orientation) % n] = 1
                c[(tower - orientation * (size + 1)) % n] = 1
                yield tuple(c)


class TestDispatch:
    def test_final_arrow_idles(self):
        c = (2, 1, 1, 0, 0, 0, 0, 0, 0)
        for i in (0, 1, 2):
            assert decide(c, i).kind == IDLE

    def test_arrow_tail_moves(self):
        d = decide((1, 0, 2, 1, 0, 0, 0, 0, 0), 0)
        assert (d.kind, d.target) == (MOVE, 8)

    def test_four_segment_middle_tries(self):
        d = decide((1, 1, 1, 1, 0, 0, 0, 0, 0), 1)
        assert (d.kind, d.target) == (TRY_MOVE, 2)

    def test_out_of_domain(self):
        with pytest.raises(ProtocolError, match="out of protocol domain"):
            decide((1, 1, 1, 1, 0, 0, 0, 0), 0)  # n=8
        with pytest.raises(ProtocolError, match="out of protocol domain"):
            decide((1, 1, 1, 0, 0, 0, 0, 0, 0), 0)  # k=3

    @pytest.mark.parametrize("c,i", [
        ((1, 1, 1, 1, 0, 0, 0, 0), 99),  # n=8, node out of range
        ((1, 1, 1, 0, 0, 0, 0, 0, 0), 5),  # k=3, node unoccupied
    ])
    def test_domain_error_comes_first(self, c, i):
        with pytest.raises(ProtocolError, match="out of protocol domain"):
            decide(c, i)

    def test_unhashable_snapshot(self):
        with pytest.raises(TypeError, match="must be a tuple"):
            decide([1, 1, 1, 1, 0, 0, 0, 0, 0], 1)

    @pytest.mark.parametrize("i", [1.0, "1", None])
    def test_non_integer_node(self, i):
        with pytest.raises(ValueError, match="must be an integer"):
            decide((1, 1, 1, 1, 0, 0, 0, 0, 0), i)

    def test_bool_node_reads_as_its_int(self):
        c = (1, 1, 1, 1, 0, 0, 0, 0, 0)
        assert decide(c, True) == decide(c, 1)
        assert decide(c, False) == decide(c, 0)

    def test_unoccupied_node(self):
        with pytest.raises(ValueError):
            decide((1, 1, 1, 1, 0, 0, 0, 0, 0), 5)

    @pytest.mark.parametrize("i", [-1, 9, -10])
    def test_node_out_of_range(self, i):
        # Node -1 would read the occupied last node through negative indexing.
        with pytest.raises(ValueError, match="out of range"):
            decide((1, 1, 1, 0, 0, 0, 0, 0, 1), i)

    def test_unreachable_tower_shapes_rejected(self):
        for c in [
            (2, 2, 0, 0, 0, 0, 0, 0, 0),
            (2, 1, 0, 0, 0, 0, 0, 0, 1),  # tower flanked on both sides
            (3, 1, 0, 0, 0, 0, 0, 0, 0),
            (4, 0, 0, 0, 0, 0, 0, 0, 0),
        ]:
            with pytest.raises(ProtocolError, match="unsupported configuration"):
                decide(c, 0)


class TestDomainBoundary:
    """Witnesses for the n > 8 in ``decide``: below it, the gathering rules
    run directly let two robots land on one node, a tower outside an arrow."""

    @pytest.mark.parametrize("c,tower,rejected", [
        ((1, 1, 0, 1, 1, 0), (1, 0, 2, 0, 1, 0), 17),  # {2,2}: both longest holes have length 1
        ((1, 0, 1, 0, 1, 0, 1, 0), (1, 0, 1, 0, 0, 2, 0, 0), 62),  # alternating
    ])
    def test_rules_break_below_nine_nodes(self, c, tower, rejected):
        n = len(c)
        rules = direct_rules(c)

        def options(v):
            return [(dest, rules[v]) for dest in decision_outcomes(n, v, rules[v])]

        allowed = successor_rule(c)
        bad = [after for _, _, after in successors(c, options) if not allowed(after)]
        assert protocol.phase(c) == "scatter"
        assert tower in bad and protocol.phase(tower) == "invalid"
        assert len(bad) == rejected
        for i in occupied_nodes(c):
            with pytest.raises(ProtocolError, match="out of protocol domain"):
                decide(c, i)


class TestGathering:
    def test_three_segment_isolated_moves_through_shorter_hole(self):
        c = (1, 1, 1, 0, 0, 1, 0, 0, 0)
        d = decide(c, 5)
        assert (d.kind, d.target) == (MOVE, 4)
        for i in (0, 1, 2):
            assert decide(c, i).kind == IDLE

    def test_three_segment_equal_holes_adversary(self):
        c = (1, 1, 1, 0, 0, 0, 1, 0, 0, 0)  # n=10, both holes length 3
        d = decide(c, 6)
        assert d.kind == MOVE and d.target is None

    def test_unique_pair_closest_isolated_moves(self):
        c = (1, 1, 0, 1, 0, 0, 1, 0, 0)
        d = decide(c, 3)
        assert (d.kind, d.target) == (MOVE, 2)
        assert decide(c, 6).kind == IDLE
        assert decide(c, 0).kind == IDLE
        assert decide(c, 1).kind == IDLE

    def test_unique_pair_tie_both_move(self):
        c = (1, 1, 0, 0, 1, 0, 0, 1, 0, 0)  # n=10: both isolated at hole-distance 2
        d4, d7 = decide(c, 4), decide(c, 7)
        assert (d4.kind, d4.target) == (MOVE, 3)
        assert (d7.kind, d7.target) == (MOVE, 8)

    def test_two_pairs_longest_hole_neighbors_try(self):
        c = (1, 1, 0, 1, 1, 0, 0, 0, 0)
        d = decide(c, 4)
        assert (d.kind, d.target) == (TRY_MOVE, 5)
        d = decide(c, 0)
        assert (d.kind, d.target) == (TRY_MOVE, 8)
        assert decide(c, 1).kind == IDLE
        assert decide(c, 3).kind == IDLE

    def test_four_isolated_all_border_longest(self):
        c = (1, 0, 0, 1, 0, 1, 0, 0, 1, 0)  # n=10, holes 2,1,2,1
        d = decide(c, 0)
        assert (d.kind, d.target) == (TRY_MOVE, 1)
        d = decide(c, 3)
        assert (d.kind, d.target) == (TRY_MOVE, 2)

    def test_four_isolated_all_equal_holes_adversary(self):
        c = (1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0)  # n=12, evenly spaced
        for i in (0, 3, 6, 9):
            d = decide(c, i)
            assert d.kind == TRY_MOVE and d.target is None

    def test_four_isolated_two_longest_asymmetric_uses_smaller_reading(self):
        # n=14, hole lengths 3,3,1,3 around: two robots sit between longest
        # holes yet see asymmetric views; the move follows the smaller reading.
        c = (1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 0, 0)
        d = decide(c, 0)
        assert (d.kind, d.target) == (TRY_MOVE, 1)
        d = decide(c, 4)
        assert (d.kind, d.target) == (TRY_MOVE, 3)
        d = decide(c, 8)
        assert (d.kind, d.target) == (TRY_MOVE, 7)
        d = decide(c, 10)
        assert (d.kind, d.target) == (TRY_MOVE, 11)

    def test_four_isolated_three_border_longest(self):
        c = (1, 0, 0, 1, 0, 0, 1, 0, 1, 0)  # n=10, holes 2,2,1,1
        assert (decide(c, 0).kind, decide(c, 0).target) == (MOVE, 9)
        assert (decide(c, 6).kind, decide(c, 6).target) == (MOVE, 7)
        assert decide(c, 3).kind == IDLE  # borders two longest holes
        assert decide(c, 8).kind == IDLE  # borders none

    def test_four_isolated_two_border_unique_longest(self):
        c = (1, 0, 0, 1, 0, 1, 0, 1, 0)
        assert (decide(c, 0).kind, decide(c, 0).target) == (MOVE, 8)
        assert (decide(c, 3).kind, decide(c, 3).target) == (MOVE, 4)
        assert decide(c, 5).kind == IDLE
        assert decide(c, 7).kind == IDLE


class TestLivelockClass:
    """The known fault of the gathering rules at every n = 3 (mod 4) from 11,
    pinned at the rule level as it stands: in the hole vector (L-1, L, L, L)
    every robot tries to move, and a lone success of either robot beside the
    short hole gives back a rotation of the same vector, so a fair scheduler
    can keep a run in the class forever.  The repair of the (L-1, L, L, L)
    rule (ROADMAP item 2) must invert this test."""

    @pytest.mark.parametrize("n", range(11, 48, 4))
    def test_short_hole_neighbours_keep_the_class(self, n):
        L = (n - 3) // 4
        h = (L - 1, L, L, L)
        movers = protocol._gathering.__wrapped__(h)
        assert sorted(movers) == [0, 1, 2, 3]
        assert all(kind == TRY_MOVE for kind, _ in movers.values())
        rotations = {h[i:] + h[:i] for i in range(4)}
        for j, step in ((0, -1), (1, 1)):  # the two robots beside hole 0
            assert movers[j][1] == step
            into, away = (j, j - 1) if step == 1 else (j - 1, j)
            assert h[into] == L > h[away]
            after = list(h)
            after[into] -= 1
            after[away] += 1
            assert tuple(after) in rotations


class TestTowerFormation:
    def test_middles_try_toward_each_other(self):
        c = (1, 1, 1, 1, 0, 0, 0, 0, 0)
        assert (decide(c, 1).kind, decide(c, 1).target) == (TRY_MOVE, 2)
        assert (decide(c, 2).kind, decide(c, 2).target) == (TRY_MOVE, 1)
        assert decide(c, 0).kind == IDLE
        assert decide(c, 3).kind == IDLE

    def test_wrapping_segment(self):
        c = (1, 1, 0, 0, 0, 0, 0, 1, 1)  # segment 7,8,0,1
        assert (decide(c, 8).kind, decide(c, 8).target) == (TRY_MOVE, 0)
        assert (decide(c, 0).kind, decide(c, 0).target) == (TRY_MOVE, 8)
        assert decide(c, 7).kind == IDLE
        assert decide(c, 1).kind == IDLE

    def test_single_mover_successor_is_primary_arrow(self):
        succ = (1, 0, 2, 1, 0, 0, 0, 0, 0)  # middle at 1 moved onto 2
        a = find_arrow(succ)
        assert a is not None and a.size == 1


class TestTailWalk:
    def test_tail_moves_through_separating_hole(self):
        d = decide((1, 0, 2, 1, 0, 0, 0, 0, 0), 0)
        assert (d.kind, d.target) == (MOVE, 8)
        d = decide((0, 0, 2, 1, 0, 0, 0, 0, 1), 8)
        assert (d.kind, d.target) == (MOVE, 7)

    def test_everyone_else_idles(self):
        c = (1, 0, 2, 1, 0, 0, 0, 0, 0)
        assert decide(c, 2).kind == IDLE
        assert decide(c, 3).kind == IDLE

    def test_exactly_one_mover_on_every_arrow(self):
        for n in (9, 10):
            for c in arrow_configs(n):
                movers = [i for i in range(n) if c[i] and decide(c, i).moves]
                if find_arrow(c).size == n - 3:
                    assert movers == []
                else:
                    assert len(movers) == 1
                    assert c[movers[0]] == 1


def shifted(d, r, n):
    if d.target is None:
        return d
    return protocol.Decision(d.kind, (d.target - r) % n)


def reflected(d, n):
    if d.target is None:
        return d
    return protocol.Decision(d.kind, (-d.target) % n)


class TestAnonymity:
    @pytest.mark.parametrize("n", [9, 10])
    def test_rotation_equivariance(self, n):
        for c in itertools.chain(towerless_configs(n), arrow_configs(n)):
            for i in (i for i in range(n) if c[i]):
                base = direct(c, i)
                for r in (1, 3, n - 1):
                    rotated = c[r:] + c[:r]
                    assert direct(rotated, (i - r) % n) == shifted(base, r, n)

    @pytest.mark.parametrize("n", [9, 10])
    def test_mirror_equivariance(self, n):
        for c in itertools.chain(towerless_configs(n), arrow_configs(n)):
            m = c[:1] + c[:0:-1]  # reversal about node 0
            for i in (i for i in range(n) if c[i]):
                assert direct(m, (-i) % n) == reflected(direct(c, i), n)

    def test_movers_target_free_distinct_nodes(self):
        # In any towerless non-4-segment snapshot every mover heads for a free
        # node and no two movers share a target.
        n = 9
        for c in towerless_configs(n):
            if any(length == 4 for _, length in segments(c)):
                continue
            targets = []
            for i in range(n):
                if not c[i]:
                    continue
                d = decide(c, i)
                if not d.moves:
                    continue
                if d.target is None:
                    continue  # both edges; safety is checked exhaustively in verify
                assert c[d.target] == 0
                targets.append(d.target)
            assert len(targets) == len(set(targets))


class TestDecisionMemos:
    """``decide``'s memos: the map of the last snapshot, kept by identity,
    and the towerless movers, kept per hole vector; the rules run directly
    on the snapshot are the oracle."""

    @pytest.mark.parametrize("n", range(9, 15))
    def test_decide_matches_direct_rules(self, n):
        for c in configurations(n, 4):
            try:
                expected = direct_rules(c)
            except ProtocolError:
                for i in occupied_nodes(c):
                    with pytest.raises(ProtocolError):
                        decide(c, i)
                continue
            assert sorted(expected) == list(occupied_nodes(c))
            for i in occupied_nodes(c):
                assert decide(c, i) == expected[i], (c, i)

    @pytest.mark.parametrize("n", [9, 10, 11, 12, 20])
    def test_gathering_runs_once_per_hole_vector(self, n):
        # Every hole vector of n - 4 free nodes but the four 4-segments:
        # 52, 80, 116, 161 and 965 at n = 9, 10, 11, 12, 20.
        protocol._gathering.cache_clear()
        check_no_tower_one_step(n)
        assert protocol._gathering.cache_info().currsize == comb(n - 1, 3) - 4

    def test_identity_memo_serves_no_stale_answer(self):
        c1 = (0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 1)
        c2 = (1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0)  # k = 3: outside the domain
        copy = tuple(list(c1))
        assert copy == c1 and copy is not c1
        expected = direct_rules(c1)
        assert any(d.target is not None for d in expected.values())
        for v in occupied_nodes(c1):
            assert decide(c1, v) == expected[v]
        for _ in range(2):
            with pytest.raises(ProtocolError):
                decide(c2, 0)
        for c in (copy, c1):
            for v in occupied_nodes(c1):
                assert decide(c, v) == expected[v], (c, v)

    def test_decisions_keep_their_fields(self):
        d = protocol.try_move(3)
        assert protocol.Decision._fields == ("kind", "target")
        assert repr(d) == "Decision(kind='try-move', target=3)"
        assert (d.kind, d.target, d.moves) == (TRY_MOVE, 3, True)
        assert protocol.Decision(IDLE) == protocol.idle() and not protocol.idle().moves


# The start of a custom ``decide`` that returns a move with no target for
# node 0, so the adversary picks its edge, and idles elsewhere.
BARE_MOVE_START = (1, 0, 1, 0, 1, 0, 1, 0, 0, 0)


def bare_move_decide(c, i):
    if c == BARE_MOVE_START and i == 0:
        return protocol.Decision(MOVE)
    return protocol.idle()


class TestDecisionValidation:
    """``Decision`` is the one validation boundary: a malformed decision
    cannot be built, so the engine, the checkers and ``is_terminal`` never
    read one.  A decision is a kind and a target and nothing else; a move
    with no target is the adversary's."""

    @pytest.mark.parametrize("args,error", [
        ((MOVE, 3, True), TypeError), ((TRY_MOVE, 3, True), TypeError),
        ((IDLE, 3), ValueError), ((IDLE, None, True), TypeError),
        (("jump", 3), ValueError), ((None,), ValueError),
    ], ids=["move-both", "try-move-both", "idle-target", "idle-adversary", "unknown-kind",
            "no-kind"])
    def test_malformed_decisions_raise(self, args, error):
        with pytest.raises(error):
            protocol.Decision(*args)

    @pytest.mark.parametrize("kind,factory,outcomes", [
        (MOVE, protocol.move, [9, 1]), (TRY_MOVE, protocol.try_move, [None, 9, 1]),
    ], ids=["move-bare", "try-move-bare"])
    def test_a_bare_move_is_the_adversarys(self, kind, factory, outcomes):
        d = protocol.Decision(kind)
        assert d == factory(None) and d.moves
        assert decision_outcomes(10, 0, d) == outcomes

    def test_replace_is_validated(self):
        with pytest.raises(ValueError):
            protocol.idle()._replace(target=3)
        assert protocol.move(3)._replace(target=4) == protocol.move(4)
        assert protocol.move(3)._replace(target=None) == protocol.move(None)

    def test_factories_build_valid_decisions_that_pickle(self):
        for d in (protocol.idle(), protocol.move(3), protocol.move(None),
                  protocol.try_move(3), protocol.try_move(None)):
            copy = pickle.loads(pickle.dumps(d))
            assert copy == d and type(copy) is protocol.Decision

    def test_bare_move_lets_the_adversary_pick_in_run_is_terminal_and_checker(self):
        trace = run(BARE_MOVE_START, SchedulerPolicy("scripted", script=((0,),)), seed=0,
                    decide=bare_move_decide, adversary=ScriptedAdversary([1]))
        assert trace.steps[0].adversary_edges == {0: 1}
        assert trace.steps[0].after == (0, 1, 1, 0, 1, 0, 1, 0, 0, 0)
        assert not is_terminal(BARE_MOVE_START, decide=bare_move_decide)
        assert check_no_tower_one_step(10, decide=bare_move_decide).passed


def hole_signature(h):
    """Each hole length clamped to at most 2, and each pairwise difference
    clamped to [-2, 2]."""
    return (tuple(min(x, 2) for x in h),
            tuple(max(-2, min(2, a - b)) for a in h for b in h))


def signature_conflicts(rules):
    """How many hole vectors in ``range(10)**4`` (at least one free node)
    get other movers from ``rules`` than the first vector of their
    signature did; and how many signatures there are."""
    first = {}
    conflicts = 0
    for h in itertools.product(range(10), repeat=4):
        if any(h):
            movers = rules(h)
            conflicts += first.setdefault(hole_signature(h), movers) != movers
    return conflicts, len(first)


def near_five_idler(h):
    """A rule that reads a long hole: the isolated robot of a {3,1} idles
    when its near hole has exactly five free nodes."""
    lengths = [x for x in h if x]
    if len(lengths) == 2 and any(h[j] and h[j - 1] for j in range(4)) and min(lengths) == 5:
        return {}
    return protocol._gathering.__wrapped__(h)


class TestSignatureLemma:
    """The towerless rules read the hole vector only through its signature,
    so the signatures seen by n = 24 cover every n.  This checks the rules;
    the no-tower verdict's own dependence on the signature is not checked."""

    def test_gathering_depends_only_on_the_signature(self):
        assert signature_conflicts(protocol._gathering.__wrapped__) == (0, 1094)

    def test_a_rule_reading_a_long_hole_conflicts(self):
        conflicts, _ = signature_conflicts(near_five_idler)
        assert conflicts > 0
