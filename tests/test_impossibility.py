"""Support-level refutation of three-robot protocols on the four-node ring."""

import itertools
import random

import pytest

from ring_explorer import engine
from ring_explorer import impossibility as imp
from ring_explorer.ring import canonical_form


def all_view_pairs_oracle():
    """Raw recount of view classes: every reading pair from every occupied
    node of every 3-robot placement on 4 nodes, using tuple arithmetic only."""
    n, k = 4, 3
    pairs = set()
    for nodes in itertools.combinations_with_replacement(range(n), k):
        c = [0] * n
        for node in nodes:
            c[node] += 1
        for i in set(nodes):
            fwd = tuple(c[(i + j) % n] for j in range(n))
            bwd = tuple(c[(i - j) % n] for j in range(n))
            pairs.add(tuple(sorted((fwd, bwd))))
    return pairs


@pytest.fixture(scope="module")
def classes():
    return imp.enumerate_view_classes()


def class_index(classes, config, node):
    return next(vc.index for vc in classes if vc.view == imp.view_key(config, node))


def named_table(classes, **supports):
    """Build a table from role names anchored at concrete configurations."""
    anchors = {
        "pair_single": ((2, 1, 0, 0), 1),
        "scatter_side": ((1, 1, 1, 0), 0),
        "opposite_single": ((2, 0, 1, 0), 2),
        "scatter_middle": ((1, 1, 1, 0), 1),
        "pair_tower": ((2, 1, 0, 0), 0),
        "opposite_tower": ((2, 0, 1, 0), 0),
        "triple_tower": ((3, 0, 0, 0), 0),
    }
    table = [1] * len(classes)
    for role, mask in supports.items():
        config, node = anchors[role]
        table[class_index(classes, config, node)] = mask
    return tuple(table)


IDLE, FWD, BWD = 1, 2, 4


class TestViewClasses:
    def test_seven_classes(self, classes):
        assert len(classes) == 7
        assert sum(1 for vc in classes if vc.symmetric) == 4
        assert sum(1 for vc in classes if not vc.symmetric) == 3

    def test_matches_raw_oracle(self, classes):
        assert {vc.view for vc in classes} == all_view_pairs_oracle()

    def test_opposite_single_is_symmetric(self, classes):
        idx = class_index(classes, (2, 0, 1, 0), 2)
        assert classes[idx].symmetric
        assert classes[idx].view[0] == (1, 0, 2, 0)

    def test_scatter_side_is_asymmetric(self, classes):
        idx = class_index(classes, (1, 1, 1, 0), 0)
        assert not classes[idx].symmetric


class TestProtocolEnumeration:
    def test_space_size(self, classes):
        assert imp.protocol_space_size(classes) == 7**3 * 3**4 == 27783

    def test_stream_length_and_nonempty_supports(self, classes):
        count = 0
        all_idle_seen = 0
        for table in imp.enumerate_protocols(classes):
            count += 1
            assert all(mask for mask in table)
            if all(mask == 1 for mask in table):
                all_idle_seen += 1
        assert count == 27783
        assert all_idle_seen == 1

    @pytest.mark.parametrize("mode", ["distributed", "sequential"])
    def test_count_chunk_matches_one_by_one(self, classes, mode):
        lo, hi = 27700, 27783
        counts = {imp.BAD_TERMINAL: 0, imp.FORCING: 0, imp.UNREFUTED: 0}
        first = {}
        tables = list(imp.enumerate_protocols(classes))
        for idx in range(lo, hi):
            kind = imp.refute(tables[idx], mode, with_witness=False).kind
            counts[kind] += 1
            first.setdefault(kind, idx)
        assert imp._count_mode(mode, lo, hi) == (counts, first)


class TestRefuteKnownProtocols:
    def test_all_idle_is_bad_terminal(self, classes):
        table = tuple(1 for _ in classes)
        for mode in ("distributed", "sequential"):
            cert = imp.refute(table, mode)
            assert cert.kind == imp.BAD_TERMINAL
            # initial state already terminal with a node unvisited
            assert len(cert.witness["path"]) == 1
            imp.validate_certificate(table, cert, mode)

    def test_hole_chasers_never_terminate(self, classes):
        # Scatter sides walk into the hole forever; nothing else ever moves.
        table = named_table(classes, scatter_side=FWD)
        for mode in ("distributed", "sequential"):
            cert = imp.refute(table, mode)
            assert cert.kind in (imp.FORCING, imp.BAD_TERMINAL)
            imp.validate_certificate(table, cert, mode)
        assert imp.refute(table, "sequential").kind == imp.FORCING

    def test_sequentially_correct_protocol_survives_sequential_only(self, classes):
        # Sides collapse onto the middle; the tower-adjacent single escapes to
        # the one unvisited node; every resulting shape is terminal.
        table = named_table(classes, scatter_side=BWD, pair_single=FWD)
        assert imp.refute(table, "sequential").kind == imp.UNREFUTED
        cert = imp.refute(table, "distributed")
        assert cert.kind == imp.BAD_TERMINAL
        imp.validate_certificate(table, cert, "distributed")

    def test_forcing_witness_structure(self, classes):
        table = named_table(classes, scatter_side=FWD)
        cert = imp.refute(table, "sequential")
        witness = cert.witness
        assert witness["trap_size"] >= 1
        assert witness["cycle"]
        robots = {row["robot"] for row in witness["cycle"]}
        assert robots == {0, 1, 2}


class TestCertificateValidation:
    def test_validation_rejects_forged_support(self, classes):
        table = tuple(1 for _ in classes)
        cert = imp.refute(table, "distributed")
        # Claim a move the all-idle table cannot make.
        forged = imp.Certificate(imp.BAD_TERMINAL, {
            "path": [
                {"config": [1, 1, 1, 0], "visited": [0, 1, 2],
                 "activation": {0: 1}, "outcomes": [{"node": 0, "to": 3}]},
                {"config": [0, 1, 1, 1], "visited": [0, 1, 2, 3],
                 "activation": None, "outcomes": None},
            ],
            "terminal_config": [0, 1, 1, 1],
            "unvisited": [],
        })
        with pytest.raises(ValueError, match="not in support"):
            imp.validate_certificate(table, forged, "distributed")
        imp.validate_certificate(table, cert, "distributed")

    def test_sequential_witnesses_use_singleton_activations(self, classes):
        rng = random.Random(4)
        tables = list(imp.enumerate_protocols(classes))
        for table in rng.sample(tables, 60):
            cert = imp.refute(table, "sequential")
            if cert.kind == imp.BAD_TERMINAL:
                for step in cert.witness["path"][:-1]:
                    assert sum(step["activation"].values()) == 1
            imp.validate_certificate(table, cert, "sequential")

    def test_random_sample_validates_in_both_modes(self, classes):
        rng = random.Random(11)
        tables = list(imp.enumerate_protocols(classes))
        for table in rng.sample(tables, 120):
            for mode in ("distributed", "sequential"):
                cert = imp.refute(table, mode)
                imp.validate_certificate(table, cert, mode)


class TestSymmetryClosure:
    def test_canonicalization_constant_on_orbits(self):
        tb = imp._tables()
        for cid, c in enumerate(tb.configs):
            for mask in range(16):
                canon = tb.canon[(cid, mask)][:2]
                for p in tb.perms:
                    pc = [0] * 4
                    for i in range(4):
                        pc[p[i]] = c[i]
                    pm = sum(1 << p[i] for i in range(4) if mask >> i & 1)
                    moved = tb.canon[(tb.config_id[tuple(pc)], pm)][:2]
                    assert moved == canon

    def test_reachable_states_closed_under_symmetry(self, classes):
        # Stored states are canonical, so any symmetry image of a stored state
        # canonicalizes back to a stored state.
        table = named_table(classes, scatter_side=FWD, scatter_middle=3)
        tb = imp._tables()
        _, parents, _ = imp._search(imp.table_mask(table), "distributed")
        for cid, mask in parents:
            c = tb.configs[cid]
            for p in tb.perms:
                pc = [0] * 4
                for i in range(4):
                    pc[p[i]] = c[i]
                pm = sum(1 << p[i] for i in range(4) if mask >> i & 1)
                image = tb.canon[(tb.config_id[tuple(pc)], pm)][:2]
                assert image in parents


class TestEngineReplay:
    def test_forcing_transition_replays_statistically(self, classes):
        # "Activate one robot until it moves" converges to the claimed
        # successor under the engine with a scripted adversary.
        table = named_table(classes, scatter_side=3)  # {idle, forward}
        cert = imp.refute(table, "sequential")
        assert cert.kind == imp.FORCING
        forced = [row for row in cert.witness["cycle"]
                  if row["kind"] == "force" and "alternative_moves" not in row]
        assert forced
        for row in forced[:4]:
            positions = row["state"]
            config = [0, 0, 0, 0]
            for p in positions:
                config[p] += 1
            node, dest = row["move"]

            def decide(c, i, _table=table):
                return imp.support_decision(_table, c, i)

            sim = engine.Simulation(
                tuple(config), decide, rng=random.Random(0),
                adversary=engine.ScriptedAdversary([dest] * 200),
            )
            robot = sim.positions.index(node)
            for _ in range(200):
                record = sim.step([robot])
                if record.changed:
                    break
            else:
                pytest.fail("forced robot never moved in 200 activations")
            expected = [0, 0, 0, 0]
            for p in positions:
                expected[p] += 1
            expected[node] -= 1
            expected[dest] += 1
            assert record.after == tuple(expected)


class TestBridge:
    def test_support_decision_forms(self, classes):
        c = (1, 1, 1, 0)
        side = class_index(classes, c, 0)
        table = [1] * len(classes)
        table[side] = 3  # {idle, forward}: forward from node 0 is the hole side
        d = imp.support_decision(tuple(table), c, 0)
        assert d.kind == "try-move" and d.target == 3
        table[side] = 6  # both directions: not expressible
        with pytest.raises(ValueError):
            imp.support_decision(tuple(table), c, 0)

    def test_middle_move_is_adversary_choice(self, classes):
        c = (1, 1, 1, 0)
        middle = class_index(classes, c, 1)
        table = [1] * len(classes)
        table[middle] = 2
        d = imp.support_decision(tuple(table), c, 1)
        assert d.kind == "move" and d.adversary
