"""Support-level refutation of three-robot protocols on the four-node ring."""

import copy
import itertools
import json
import random
import re

import pytest

from ring_explorer import engine, protocol
from ring_explorer import impossibility as imp
from ring_explorer.ring import canonical_form, view_of


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


# Every table, at its index in the enumeration.
TABLES = list(imp.enumerate_protocols(imp.enumerate_view_classes()))


def class_index(classes, config, node):
    return next(vc.index for vc in classes if vc.view == tuple(sorted(view_of(config, node))))


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
        masks = set()
        for table in imp.enumerate_protocols(classes):
            count += 1
            assert all(mask for mask in table)
            if all(mask == 1 for mask in table):
                all_idle_seen += 1
            masks.add(imp.table_mask(table))  # the validation boundary accepts it
        assert count == len(masks) == 27783
        assert all_idle_seen == 1

    @pytest.mark.parametrize("mode", ["distributed", "sequential"])
    def test_report_matches_per_table_refute(self, mode):
        # Refuting every table one by one gives the report's weighted counts
        # and the index of each kind's first table.
        counts = {imp.BAD_TERMINAL: 0, imp.FORCING: 0, imp.UNREFUTED: 0}
        first = {}
        for index, table in enumerate(TABLES):
            kind = imp.refute(table, mode, with_witness=False).kind
            counts[kind] += 1
            first.setdefault(kind, index)
        part = imp.theorem2_report(modes=(mode,))["modes"][mode]
        assert (part["bad_terminal"], part["forcing"], part["unrefuted"]) == (
            counts[imp.BAD_TERMINAL], counts[imp.FORCING], counts[imp.UNREFUTED])
        assert {kind: example["protocol_index"]
                for kind, example in part["example_certificates"].items()} == first


def malformed_table(classes, kind):
    """A table that ``enumerate_protocols`` cannot yield."""
    symmetric = next(vc.index for vc in classes if vc.symmetric)
    ones = [1] * len(classes)
    if kind == "all-zero":
        return (0,) * len(classes)
    if kind == "bleeds-into-next-class":
        return (8,) + (1,) * (len(classes) - 1)  # 8 << 0 is class 1's idle bit
    if kind == "one-entry-short":
        return (1,) * (len(classes) - 1)
    if kind == "one-entry-long":
        return (1,) * (len(classes) + 1)
    if kind == "zero-in-last-class":
        ones[-1] = 0
    elif kind == "negative":
        ones[0] = -1
    elif kind == "backward-on-symmetric-class":
        ones[symmetric] = BWD
    return tuple(ones)


MALFORMED = ["all-zero", "bleeds-into-next-class", "one-entry-short", "one-entry-long",
             "zero-in-last-class", "negative", "backward-on-symmetric-class"]


class TestTableValidation:
    @pytest.mark.parametrize("kind", MALFORMED)
    @pytest.mark.parametrize("mode", ["distributed", "sequential"])
    def test_refute_rejects_malformed_table(self, classes, kind, mode):
        # The all-idle table memoises move key 0 first.  Each malformed table
        # with nonnegative entries has move key 0 too, and table_mask still
        # rejects it before the lookup.
        imp.refute(TABLES[0], mode, with_witness=False)
        assert 0 in imp._tables().kinds[mode]
        table = malformed_table(classes, kind)
        if min(table) >= 0:
            raw = 0
            for index, mask in enumerate(table):
                raw |= mask << 3 * index
            assert raw & imp._tables().move_bits == 0
        for with_witness in (False, True):
            with pytest.raises(ValueError, match="view class|mask_choices"):
                imp.refute(table, mode, with_witness=with_witness)

    @pytest.mark.parametrize("kind", MALFORMED)
    def test_validate_certificate_rejects_malformed_table(self, classes, kind):
        cert = imp.Certificate(imp.UNREFUTED)
        with pytest.raises(ValueError, match="view class|mask_choices"):
            imp.validate_certificate(malformed_table(classes, kind), cert, "distributed")

    @pytest.mark.parametrize("entry", [1.0, "1", None], ids=["float", "string", "none"])
    def test_non_integer_entry_rejected(self, entry):
        # Read as integers, 1.0 and "1" would be the idle support; each is
        # malformed, and the message names the entry as it was given.
        table = (entry,) * len(TABLES[0])
        message = f"support {re.escape(repr(entry))} of class 0 is not one of its mask_choices"
        for with_witness in (False, True):
            with pytest.raises(ValueError, match=message):
                imp.refute(table, "distributed", with_witness=with_witness)
        with pytest.raises(ValueError, match=message):
            imp.validate_certificate(table, imp.Certificate(imp.UNREFUTED), "distributed")

    def test_bool_entry_reads_as_its_int(self):
        table = (True,) * len(TABLES[0])
        assert imp.table_mask(table) == imp.table_mask(TABLES[0])
        for mode in ("distributed", "sequential"):
            cert = imp.refute(table, mode)
            assert cert == imp.refute(TABLES[0], mode)
            imp.validate_certificate(table, cert, mode)

    def test_unknown_mode_rejected(self, classes):
        # The all-idle table's certificate validates in distributed mode; in
        # an unknown mode validate_certificate raises what refute raises.
        table = TABLES[0]
        cert = imp.refute(table, "distributed")
        imp.validate_certificate(table, cert, "distributed")
        with pytest.raises(ValueError, match="unknown scheduler mode 'bogus'"):
            imp.refute(table, "bogus")
        with pytest.raises(ValueError, match="unknown scheduler mode 'bogus'"):
            imp.validate_certificate(table, cert, "bogus")


def test_report_validates_each_example_before_printing(monkeypatch):
    # Every example certificate goes through validate_certificate, in the
    # report's order; a certificate that fails it never reaches stdout.
    checked = []
    validate = imp.validate_certificate

    def recording(table, cert, mode):
        validate(table, cert, mode)
        checked.append((mode, cert.kind, cert.witness))

    monkeypatch.setattr(imp, "validate_certificate", recording)
    report = imp.theorem2_report(modes=("sequential",))
    examples = report["modes"]["sequential"]["example_certificates"]
    assert checked == [("sequential", kind, example["witness"])
                       for kind, example in examples.items()]
    assert len(checked) == 3


MOVE_PATTERNS = 4 ** 3 * 2 ** 4  # move parts: 4 per asymmetric class, 2 per symmetric


class TestKindMemo:
    @pytest.mark.parametrize("mode", ["distributed", "sequential"])
    def test_memoised_kind_matches_witnessed_kind(self, classes, mode, monkeypatch):
        # A fresh memo, so the slice both fills it and hits it.
        monkeypatch.setattr(imp, "_TABLES", imp._Tables())
        tables = TABLES[::7]
        for table in tables:
            memoised = imp.refute(table, mode, with_witness=False)
            assert memoised == imp.Certificate(imp.refute(table, mode).kind), table
        assert len(imp._tables().kinds[mode]) < len(tables)

    @pytest.mark.parametrize("mode", ["distributed", "sequential"])
    def test_equal_move_bits_give_equal_certificates(self, classes, mode):
        # The first table of each move key, in enumeration order, is the
        # report's pattern table, and the key's table count is its weight.
        tb = imp._tables()
        first, last, count = {}, {}, {}
        for table in TABLES:
            key = imp.table_mask(table) & tb.move_bits
            first.setdefault(key, table)
            last[key] = table
            count[key] = count.get(key, 0) + 1
        assert len(first) == MOVE_PATTERNS
        patterns = imp._move_patterns(classes)
        assert list(first.values()) == [table for table, _ in patterns]
        assert list(count.values()) == [weight for _, weight in patterns]
        assert sum(weight for _, weight in patterns) == imp.protocol_space_size(classes)
        for key, table in first.items():
            assert imp.refute(table, mode) == imp.refute(last[key], mode), key

    def test_report_fills_one_entry_per_move_pattern(self, monkeypatch):
        # The report refutes each move pattern once per mode; every other
        # refutation it asks for builds an example's witness.
        monkeypatch.setattr(imp, "_TABLES", imp._Tables())
        assert imp._tables().kinds == {"distributed": {}, "sequential": {}}
        certificate = imp._certificate
        refuted = []

        def counting(tb, tm, mode, with_witness):
            refuted.append((mode, with_witness))
            return certificate(tb, tm, mode, with_witness)

        monkeypatch.setattr(imp, "_certificate", counting)
        imp.theorem2_report()
        assert {mode: len(kinds) for mode, kinds in imp._tables().kinds.items()} == {
            "distributed": MOVE_PATTERNS, "sequential": MOVE_PATTERNS}
        assert refuted.count(("distributed", False)) == MOVE_PATTERNS
        assert refuted.count(("sequential", False)) == MOVE_PATTERNS
        assert len(refuted) == 2 * MOVE_PATTERNS + 5

    def test_first_example_indices(self, classes):
        # Each example is the first table of its kind, and its index names
        # the table it describes.
        report = imp.theorem2_report()
        assert {mode: {kind: example["protocol_index"]
                       for kind, example in part["example_certificates"].items()}
                for mode, part in report["modes"].items()} == {
            "distributed": {imp.BAD_TERMINAL: 0, imp.FORCING: 75},
            "sequential": {imp.BAD_TERMINAL: 0, imp.FORCING: 66, imp.UNREFUTED: 5670},
        }
        for part in report["modes"].values():
            for kind, example in part["example_certificates"].items():
                table = TABLES[example["protocol_index"]]
                assert imp.describe_protocol(classes, table) == example["table"]

    def test_sequential_unrefuted_tables_are_six_patterns(self, classes):
        unrefuted = [(table, weight) for table, weight in imp._move_patterns(classes)
                     if imp.refute(table, "sequential", with_witness=False).kind == imp.UNREFUTED]
        assert len(unrefuted) == 6
        assert sum(weight for _, weight in unrefuted) == 40


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

    @pytest.mark.parametrize("forgery, message", [
        ("path-off-start", "does not start at the initial state"),
        ("outcomes-beyond-activation", "do not match the activated robots"),
        ("no-entry-path", "no entry path"),
    ], ids=["path-off-start", "outcomes-beyond-activation", "no-entry-path"])
    def test_forged_certificates_rejected(self, classes, forgery, message):
        # Each forgery replays step by step under its table; only the start,
        # activation and reachability checks can tell it from a real one.
        table = named_table(classes, scatter_side=BWD, pair_single=FWD)
        if forgery == "path-off-start":
            cert = imp.Certificate(imp.BAD_TERMINAL, {"path": [
                {"config": [3, 0, 0, 0], "visited": [0], "activation": None, "outcomes": None},
            ]})
        elif forgery == "outcomes-beyond-activation":
            # One robot activated, both scatter sides move onto the middle.
            cert = imp.Certificate(imp.BAD_TERMINAL, {"path": [
                {"config": [1, 1, 1, 0], "visited": [0, 1, 2], "activation": {1: 1},
                 "outcomes": [{"node": 0, "to": 1}, {"node": 2, "to": 1}]},
                {"config": [0, 3, 0, 0], "visited": [0, 1, 2], "activation": None,
                 "outcomes": None},
            ]})
        else:
            # The named table only ever moves from scatter to pair to opposite
            # shapes, so no forcing cycle replays under it.  This table's only
            # cycle, triple tower <-> pair, is unreachable: the initial state
            # is terminal under it.
            table = named_table(classes, triple_tower=FWD, pair_single=BWD)
            cycle = []
            for robot in range(3):
                out = [0, 0, 0]
                out[robot] = 1
                cycle.append({"state": [0, 0, 0], "kind": "force", "robot": robot,
                              "move": [0, 1]})
                cycle.append({"state": out, "kind": "force", "robot": robot,
                              "move": [1, 0]})
            cert = imp.Certificate(imp.FORCING, {
                "entry_state": [0, 0, 0],
                "entry_config": [3, 0, 0, 0],
                "entry_path": None,
                "trap_states": [row["state"] for row in cycle],
                "cycle": cycle,
            })
        with pytest.raises(ValueError, match=message):
            imp.validate_certificate(table, cert, "sequential")

    @pytest.mark.parametrize("index, mode, kept, message", [
        (370, "sequential", 16, "not closed under forcing actions"),
        (148, "distributed", 12, "entry state is not a trap state"),
    ], ids=["trap-not-closed", "trap-without-entry"])
    def test_cut_down_trap_rejected(self, classes, index, mode, kept, message):
        # A real forcing certificate whose trap keeps only the states its
        # cycle rows and their alternative moves touch: every cycle row still
        # replays, but the trap is no longer closed, or it drops its entry.
        table = TABLES[index]
        witness = imp.refute(table, mode).witness
        touched = set()
        for row in witness["cycle"]:
            state = row["state"]
            touched.add(tuple(state))
            for _, dest in row.get("alternative_moves", ()):
                touched.add(tuple(dest if r == row["robot"] else p for r, p in enumerate(state)))
        assert (witness["trap_size"], len(touched)) == (60, kept)
        cert = imp.Certificate(imp.FORCING, witness | {"trap_states": sorted(touched)})
        with pytest.raises(ValueError, match=message):
            imp.validate_certificate(table, cert, mode)

    def test_unfair_trap_rejected(self, classes):
        # Robot 1 bounces between these two states forever and closes them,
        # but robot 0 is never serviced in them: the trap is unfair.
        table = TABLES[12516]
        witness = imp.refute(table, "distributed").witness
        cert = imp.Certificate(imp.FORCING, witness | {"trap_states": [[0, 0, 1], [0, 1, 1]]})
        with pytest.raises(ValueError, match="does not keep every robot serviceable"):
            imp.validate_certificate(table, cert, "distributed")

    @pytest.mark.parametrize("index, mode, field, value, message", [
        (74, "distributed", "unvisited", [0, 1, 2, 3], "does not match the path's last"),
        (74, "distributed", "terminal_config", [3, 0, 0, 0], "does not match the path's last"),
        (370, "sequential", "trap_size", 1, "trap_size does not match"),
    ], ids=["unvisited", "terminal-config", "trap-size"])
    def test_forged_summary_rejected(self, classes, index, mode, field, value, message):
        # A real certificate whose summary field disagrees with its path or trap.
        table = TABLES[index]
        cert = imp.refute(table, mode)
        assert cert.witness[field] != value
        forged = imp.Certificate(cert.kind, cert.witness | {field: value})
        with pytest.raises(ValueError, match=message):
            imp.validate_certificate(table, forged, mode)

    @pytest.mark.parametrize("index, mode", [(75, "distributed"), (66, "sequential")])
    @pytest.mark.parametrize("field, value, message", [
        ("config", "x", "config does not match the state"),
        ("config", "rotated", "config does not match the state"),
        ("kind", 1.5, "unknown kind 1.5"),
    ], ids=["config-not-a-config", "config-of-another-state", "kind-unknown"])
    def test_forged_cycle_row_rejected(self, classes, index, mode, field, value, message):
        # Each mode's example forcing certificate with the first cycle row's
        # config or kind forged; the row's state, robot and move still replay.
        table = TABLES[index]
        witness = copy.deepcopy(imp.refute(table, mode).witness)
        row = witness["cycle"][0]
        row[field] = row["config"][1:] + row["config"][:1] if value == "rotated" else value
        with pytest.raises(ValueError, match=f"cycle row 0: {message}"):
            imp.validate_certificate(table, imp.Certificate(imp.FORCING, witness), mode)

    @pytest.mark.parametrize("index, mode, kind", [
        (0, "distributed", imp.BAD_TERMINAL),
        (75, "distributed", imp.FORCING),
        (0, "sequential", imp.BAD_TERMINAL),
        (66, "sequential", imp.FORCING),
    ])
    @pytest.mark.parametrize("field, value", [("activation", [0]), ("outcomes", True)],
                             ids=["activation", "outcomes"])
    def test_last_path_row_has_no_step(self, classes, index, mode, kind, field, value):
        # Each example certificate with a path, as the report prints it, with
        # a step forged onto the path's last state: no successor replays it.
        table = TABLES[index]
        cert = imp.refute(table, mode)
        assert cert.kind == kind
        witness = copy.deepcopy(cert.witness)
        path = witness["path" if kind == imp.BAD_TERMINAL else "entry_path"]
        assert (path[-1]["activation"], path[-1]["outcomes"]) == (None, None)
        path[-1][field] = value
        with pytest.raises(ValueError, match="last state has an activation or outcomes"):
            imp.validate_certificate(table, imp.Certificate(kind, witness), mode)

    @pytest.mark.parametrize("forgery", ["stripped", "added"])
    def test_alternative_moves_match_the_support(self, classes, forgery):
        # Table 308's distributed cycle has rows where the mover picks the
        # direction and rows where the support allows one direction only.
        table = TABLES[308]
        witness = copy.deepcopy(imp.refute(table, "distributed").witness)
        rows = witness["cycle"]
        either = [row for row in rows if "alternative_moves" in row]
        single = [row for row in rows if row["kind"] == "force" and row not in either]
        assert either and single
        if forgery == "stripped":
            for row in either:
                del row["alternative_moves"]
        else:
            node, dest = single[0]["move"]
            single[0]["alternative_moves"] = [[node, (2 * node - dest) % 4]]
        with pytest.raises(ValueError, match="alternative moves do not match the support"):
            imp.validate_certificate(table, imp.Certificate(imp.FORCING, witness), "distributed")

    @pytest.mark.parametrize("malformed, message", [
        ("trap-state-off-ring", "is not a state of three robots"),
        ("activation-node-off-ring", "is not a node"),
        ("cycle-state-wrong-length", "is not a state of three robots"),
        ("cycle-robot-out-of-range", "no robot"),
        ("empty-bad-terminal-witness", "malformed certificate: KeyError"),
        ("witness-is-a-list", "malformed certificate: TypeError"),
        ("no-entry-config", "malformed certificate: KeyError"),
        ("path-step-without-activation", "malformed certificate: KeyError"),
    ], ids=["trap-state-off-ring", "activation-node-off-ring", "cycle-state-wrong-length",
            "cycle-robot-out-of-range", "empty-bad-terminal-witness", "witness-is-a-list",
            "no-entry-config", "path-step-without-activation"])
    def test_malformed_certificates_rejected(self, classes, malformed, message):
        # A real forcing certificate with one state, node or robot that does
        # not exist in the three-robot four-ring, or with a field missing or
        # of the wrong type, as a witness read back from JSON may be.
        table = TABLES[370]
        witness = copy.deepcopy(imp.refute(table, "sequential").witness)
        kind = imp.FORCING
        if malformed == "trap-state-off-ring":
            witness["trap_states"].append([5, 0, 0])
        elif malformed == "activation-node-off-ring":
            witness["entry_path"][0]["activation"] = {7: 1}
        elif malformed == "cycle-state-wrong-length":
            # Also declared a trap state, so that trap membership cannot catch it.
            witness["cycle"][0]["state"] = [0, 0, 1, 2]
            witness["trap_states"].append([0, 0, 1, 2])
        elif malformed == "cycle-robot-out-of-range":
            witness["cycle"][0]["robot"] = 5
        elif malformed == "empty-bad-terminal-witness":
            kind, witness = imp.BAD_TERMINAL, {}
        elif malformed == "witness-is-a-list":
            kind, witness = imp.BAD_TERMINAL, [witness]
        elif malformed == "no-entry-config":
            del witness["entry_config"]
        else:
            del witness["entry_path"][0]["activation"]
        with pytest.raises(ValueError, match=message):
            imp.validate_certificate(table, imp.Certificate(kind, witness), "sequential")

    @pytest.mark.parametrize("index, mode, kind", [
        (74, "distributed", imp.BAD_TERMINAL),
        (75, "distributed", imp.FORCING),
        (63, "sequential", imp.BAD_TERMINAL),
        (370, "sequential", imp.FORCING),
    ])
    def test_json_round_trip_validates(self, classes, index, mode, kind):
        # JSON turns the activation's int node keys into strings.
        table = TABLES[index]
        cert = imp.refute(table, mode)
        assert cert.kind == kind
        witness = json.loads(json.dumps(cert.witness))
        path = witness["path" if kind == imp.BAD_TERMINAL else "entry_path"]
        assert all(isinstance(node, str) for step in path[:-1] for node in step["activation"])
        assert len(path) > 1
        imp.validate_certificate(table, imp.Certificate(kind, witness), mode)
        path[0]["activation"] = {"x": 1}
        with pytest.raises(ValueError, match="is not a node"):
            imp.validate_certificate(table, imp.Certificate(kind, witness), mode)

    def test_sequential_witnesses_use_singleton_activations(self, classes):
        rng = random.Random(4)
        for table in rng.sample(TABLES, 60):
            cert = imp.refute(table, "sequential")
            if cert.kind == imp.BAD_TERMINAL:
                for step in cert.witness["path"][:-1]:
                    assert sum(step["activation"].values()) == 1
            imp.validate_certificate(table, cert, "sequential")

    @pytest.mark.parametrize("index, mode, valid", [
        (0, "distributed", False),
        (0, "sequential", False),
        (5670, "distributed", False),
        (5670, "sequential", True),
    ], ids=["all-idle-distributed", "all-idle-sequential", "5670-distributed",
            "5670-sequential"])
    def test_unrefuted_certificate_needs_an_unrefuted_table(self, classes, index, mode, valid):
        # An unrefuted certificate holds only where ``refute`` finds nothing:
        # table 0 (all idle) is bad-terminal in both modes, table 5670 only
        # in distributed mode.
        table = TABLES[index]
        assert (imp.refute(table, mode).kind == imp.UNREFUTED) == valid
        cert = imp.Certificate(imp.UNREFUTED)
        if valid:
            imp.validate_certificate(table, cert, mode)
        else:
            with pytest.raises(ValueError, match="refutable"):
                imp.validate_certificate(table, cert, mode)

    def test_random_sample_validates_in_both_modes(self, classes):
        rng = random.Random(11)
        for table in rng.sample(TABLES, 120):
            for mode in ("distributed", "sequential"):
                cert = imp.refute(table, mode)
                imp.validate_certificate(table, cert, mode)


def dihedral_images(config, mask):
    """The images of a (configuration, visited-mask) state under the eight
    rotations and reflections of the four-ring, node i going to r + s*i."""
    images = set()
    for r in range(4):
        for s in (1, -1):
            p = [(r + s * i) % 4 for i in range(4)]
            pc = [0] * 4
            for i in range(4):
                pc[p[i]] = config[i]
            pm = sum(1 << p[i] for i in range(4) if mask >> i & 1)
            images.add((tuple(pc), pm))
    return images


def kept_branches(tb, mode):
    """Per configuration id, the kept branches ``_Tables`` builds its
    ``allowed`` table from, rebuilt through ``_Tables._undominated``: the
    move-only branches of ``engine.successors``, those with one outcome in
    sequential mode, less the dominated ones."""
    out = []
    for cid, c in enumerate(tb.configs):
        moving = list(engine.successors(c, lambda v, cid=cid: tb.options[(cid, v)][1:]))
        if mode == "sequential":
            moving = [branch for branch in moving if len(branch[1]) == 1]
        out.append(tb._undominated(moving))
    return out


def reachable_states(tb, tm, branches):
    """Every (config id, visited mask) state a plain BFS over concrete states,
    without any quotient, reaches from the initial state under the table,
    over the kept ``branches`` per configuration id."""
    start = (tb.initial_cid, tb.initial_mask)
    reached = {start}
    queue = [start]
    while queue:
        cid, mask = queue.pop()
        for req, succ_cid, succ_occ, _ in branches[cid]:
            succ = (succ_cid >> imp.N, mask | succ_occ)
            if not req & ~tm and succ not in reached:
                reached.add(succ)
                queue.append(succ)
    return reached


class TestSymmetryClosure:
    def test_orbit_key_separates_exactly_the_orbits(self):
        tb = imp._tables()
        orbits = set()
        for cid, c in enumerate(tb.configs):
            for mask in range(16):
                images = dihedral_images(c, mask)
                orbits.add(frozenset(images))
                keys = {tb.orbit[tb.config_id[pc] << imp.N | pm] for pc, pm in images}
                assert keys == {tb.orbit[cid << imp.N | mask]}
        assert len(set(tb.orbit)) == len(orbits)

    @pytest.mark.parametrize("mode", ["distributed", "sequential"])
    def test_search_keeps_one_state_per_orbit(self, classes, mode):
        # A plain BFS over concrete states, without any quotient, reaches the
        # same orbits as the search, which keeps one state of each.
        tb = imp._tables()
        branches = kept_branches(tb, mode)

        def orbit(state):
            cid, mask = state
            return frozenset(dihedral_images(tb.configs[cid], mask))

        complete = 0
        for table in itertools.islice(imp.enumerate_protocols(classes), 0, None, 500):
            tm = imp.table_mask(table)
            bad, parents, _ = imp._search(tm, mode)
            if bad is not None:
                continue  # the search stops at the first bad terminal
            complete += 1
            expanded = {orbit(divmod(state, 1 << imp.N)) for state in parents}
            assert len(expanded) == len(parents)
            assert expanded == {orbit(state) for state in reachable_states(tb, tm, branches)}
        assert complete >= 5


def unpruned_branches(tb, mode):
    """Per configuration id, every branch that moves a robot, in
    ``engine.successors`` order over the full options, idle included, as
    (required element bits, successor config id, combo): the branch list
    before dominated branches are dropped.  Sequential mode keeps the
    branches that activate one robot."""
    out = []
    for cid, c in enumerate(tb.configs):
        rows = []
        for activation, outcomes, succ in engine.successors(
                c, lambda v, cid=cid: tb.options[(cid, v)]):
            if mode == "sequential" and len(outcomes) != 1:
                continue
            if all(dest is None for _, dest, _ in outcomes):
                continue
            req = 0
            for _, _, bit in outcomes:
                req |= bit
            rows.append((req, tb.config_id[succ],
                         (activation, tuple((v, dest) for v, dest, _ in outcomes))))
        out.append(rows)
    return out


def reference_search(tb, tm, branches):
    """``_search`` written out over an unpruned branch list: BFS from the
    initial state, one kept state per symmetry orbit, stopping at the first
    terminal state (no allowed branch) with an unvisited node."""
    full = (1 << imp.N) - 1
    start = tb.initial_cid << imp.N | tb.initial_mask
    parents = {start: None}
    seen = {tb.orbit[start]}
    queue = [start]
    expanded = 0
    for state in queue:
        cid, visited = state >> imp.N, state & full
        expanded |= tb.orbit_sids[cid]
        allowed = [(succ_cid, combo) for req, succ_cid, combo in branches[cid] if not req & ~tm]
        if not allowed and visited != full:
            return state, parents, expanded
        for succ_cid, combo in allowed:
            occupied = sum(1 << v for v, count in enumerate(tb.configs[succ_cid]) if count)
            succ = succ_cid << imp.N | visited | occupied
            if tb.orbit[succ] not in seen:
                seen.add(tb.orbit[succ])
                parents[succ] = (state, combo)
                queue.append(succ)
    return None, parents, expanded


class TestDominatedBranches:
    @pytest.mark.parametrize("mode, kept, total", [("distributed", 280, 696),
                                                   ("sequential", 80, 80)])
    def test_kept_branch_counts(self, mode, kept, total):
        tb = imp._tables()
        assert sum(map(len, unpruned_branches(tb, mode))) == total
        assert sum(map(len, kept_branches(tb, mode))) == kept

    @pytest.mark.parametrize("mode", ["distributed", "sequential"])
    def test_only_dominated_branches_are_dropped(self, mode):
        # The kept branches are the unpruned list in order, less exactly the
        # branches that an earlier kept branch dominates: same successor, and
        # a subset of the required bits.
        tb = imp._tables()
        combos = kept_branches(tb, mode)
        for cid, rows in enumerate(unpruned_branches(tb, mode)):
            kept = []
            for req, succ_cid, combo in rows:
                if not any(k_succ == succ_cid and k_req & ~req == 0 for k_req, k_succ, _ in kept):
                    kept.append((req, succ_cid, combo))
            got = [(req, succ >> imp.N, combo) for req, succ, _, combo in combos[cid]]
            assert got == kept, tb.configs[cid]
            for req, succ, occupied, _ in combos[cid]:
                assert occupied == sum(1 << v for v, n in enumerate(tb.configs[succ >> imp.N]) if n)

    @pytest.mark.parametrize("mode", ["distributed", "sequential"])
    def test_search_matches_unpruned_bfs(self, classes, mode):
        tb = imp._tables()
        branches = unpruned_branches(tb, mode)
        kinds = set()
        for index in range(0, imp.protocol_space_size(classes), 50):
            tm = imp.table_mask(TABLES[index])
            got = imp._search(tm, mode)
            assert got == reference_search(tb, tm, branches), index
            kinds.add(got[0] is None)
        assert kinds == {True, False}


def submasks(mask):
    """Every submask of ``mask``, ``mask`` itself first and 0 last."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


class TestAllowedBranches:
    @pytest.mark.parametrize("mode", ["distributed", "sequential"])
    def test_memo_is_the_kept_combos_filtered_by_the_key(self, mode):
        # The keys are exactly the ones a table can have at a configuration:
        # the submasks of its move bits.  Each entry is the kept branches the
        # key allows, in order; a kept branch needs move bits only, so the key
        # decides it.  An entry is empty exactly when its key is 0, where the
        # table gives the configuration no move.
        tb = imp._Tables()
        for cid, rows in enumerate(kept_branches(tb, mode)):
            moves = tb.config_moves[cid]
            assert all(req & ~moves == 0 for req, _, _, _ in rows), tb.configs[cid]
            entries = tb.allowed[mode][cid]
            assert sorted(entries) == sorted(submasks(moves)), tb.configs[cid]
            for key, branches in entries.items():
                expected = [(succ_cid | succ_occ, combo)
                            for req, succ_cid, succ_occ, combo in rows if req & ~key == 0]
                assert branches == expected, (tb.configs[cid], key)
                assert bool(branches) == bool(key)

    def test_search_does_not_depend_on_table_order(self, classes, monkeypatch):
        # A search reads the table alone: the tables refuted before it, in
        # whatever order, change nothing.
        masks = [imp.table_mask(TABLES[index])
                 for index in range(0, imp.protocol_space_size(classes), 7)]
        shuffled = random.Random(15).sample(masks, len(masks))
        results = []
        for order in (masks, shuffled):
            monkeypatch.setattr(imp, "_TABLES", imp._Tables())
            results.append({(tm, mode): imp._search(tm, mode)
                            for tm in order for mode in ("distributed", "sequential")})
        assert results[0] == results[1]


def forcing_actions(tb, tm, positions):
    """(robot, successor states) of every forcing action of an identity state,
    from the definition: activate one robot until it moves.  An asymmetric
    view's robot picks among its supported moves, so one action holds them
    all; the adversary picks the edge of a symmetric view's move, so each
    edge is an action of its own."""
    cid = tb.config_id[tuple(positions.count(v) for v in range(4))]
    actions = []
    for robot, v in enumerate(positions):
        _, (fwd, fwd_bit), (bwd, bwd_bit) = tb.options[(cid, v)]
        dests = [dest for dest, bit in ((fwd, fwd_bit), (bwd, bwd_bit)) if tm & bit]
        if fwd_bit == bwd_bit:
            groups = [[dest] for dest in dests]
        else:
            groups = [dests] if dests else []
        for group in groups:
            actions.append((robot, {positions[:robot] + (d,) + positions[robot + 1:]
                                    for d in group}))
    return actions


def reference_trap(tb, tm, states):
    """The greatest fair trap inside ``states`` over Python sets, written out
    from its definition: the largest subset in which every state keeps a
    forcing action that stays inside, and from every state the scheduler can
    force a visit to a state where each robot is serviced (idle-only, or
    forced to move without leaving)."""
    actions = {s: forcing_actions(tb, tm, s) for s in states}
    trap = set(states)
    while True:
        before = set(trap)
        while True:  # closure
            closed = {s for s in trap if any(succs <= trap for _, succs in actions[s])}
            if closed == trap:
                break
            trap = closed
        for robot in range(3):  # fairness, one service attractor per robot
            attractor = {s for s in trap
                         if all(r != robot for r, _ in actions[s])
                         or any(r == robot and succs <= trap for r, succs in actions[s])}
            while grow := {s for s in trap - attractor
                           if any(succs <= attractor for _, succs in actions[s])}:
                attractor |= grow
            trap = attractor
        if trap == before:
            return trap


class TestForcingGame:
    @pytest.mark.parametrize("mode", ["distributed", "sequential"])
    def test_refuted_trap_matches_set_fixpoint(self, classes, mode):
        # The game starts from the identity states of every reachable
        # configuration, as the search leaves them.
        tb = imp._tables()
        branches = kept_branches(tb, mode)
        checked = 0
        for index in range(0, imp.protocol_space_size(classes), 250):
            table = TABLES[index]
            cert = imp.refute(table, mode)
            if cert.kind == imp.BAD_TERMINAL:
                continue  # the forcing game is never played
            checked += 1
            tm = imp.table_mask(table)
            reached = {canonical_form(tb.configs[cid]) for cid, _ in reachable_states(tb, tm, branches)}
            states = [s for s in itertools.product(range(4), repeat=3)
                      if canonical_form(tuple(s.count(v) for v in range(4))) in reached]
            trap = {tuple(s) for s in cert.witness["trap_states"]} if cert.witness else set()
            assert trap == reference_trap(tb, tm, states), index
        assert checked >= 40

    def test_fair_trap_matches_set_fixpoint_from_random_states(self, classes):
        # On the reachable states of every table the closure alone already
        # gives the fair trap; from random start sets the fairness step prunes
        # too (in about a quarter of these 448 cases).
        tb = imp._tables()
        rng = random.Random(7)
        for index in range(0, imp.protocol_space_size(classes), 250):
            tm = imp.table_mask(TABLES[index])
            game = imp._Game(tm)
            for _ in range(4):
                start = rng.getrandbits(64) | rng.getrandbits(64)
                trap = imp._fair_trap(game, start)
                states = [s for sid, s in enumerate(tb.idstates) if start >> sid & 1]
                assert ({s for sid, s in enumerate(tb.idstates) if trap >> sid & 1}
                        == reference_trap(tb, tm, states)), index


def unpacked_game(tb):
    """The forcing game per robot, view class and support field, as the
    (plus, minus, both) masks of the states where the field makes the robot's
    forcing action a move to the next node, to the previous node, or either
    way at the mover's choice."""
    game = [[[[0, 0, 0] for _ in range(8)] for _ in tb.classes] for _ in range(3)]
    for sid, positions in enumerate(tb.idstates):
        for r, v in enumerate(positions):
            (_, idle), (fwd, fwd_bit), (bwd, bwd_bit) = tb.options[(tb.idstate_cid[sid], v)]
            shift = idle.bit_length() - 1
            for field, kinds in enumerate(game[r][shift // 3]):
                on = field << shift & (fwd_bit | bwd_bit)
                for dest, bit in ((fwd, fwd_bit), (bwd, bwd_bit)):
                    if on == bit:
                        kinds[0 if dest == (v + 1) % 4 else 1] |= 1 << sid
                if fwd_bit != bwd_bit and on == fwd_bit | bwd_bit:
                    kinds[2] |= 1 << sid
    return game


class TestPackedGame:
    def test_moves_match_the_per_robot_fold(self, classes):
        # The per-robot masks folded over the table's 7 fields (21 lookups
        # per table) give the moves and movers the packed game splits off.
        tb = imp._tables()
        game = unpacked_game(tb)
        for index in range(0, imp.protocol_space_size(classes), 7):
            tm = imp.table_mask(TABLES[index])
            fields = [tm >> 3 * i & 7 for i in range(len(tb.classes))]
            moves = []
            for per_class in game:
                plus = minus = both = 0
                for per_field, field in zip(per_class, fields):
                    p, m, b = per_field[field]
                    plus, minus, both = plus | p, minus | m, both | b
                moves.append((plus, minus, both))
            got = imp._Game(tm)
            assert got.moves == moves, index
            assert got.movers == [plus | minus | both for plus, minus, both in moves], index


def reference_attractor(tb, tm, trap, goal):
    """The attractor levels as sets, from the definition: level 0 is the
    goal, and each next level holds the trap states not yet reached that
    have a forcing action whose outcomes all lie in the levels so far."""
    states = [s for sid, s in enumerate(tb.idstates) if trap >> sid & 1]
    actions = {s: forcing_actions(tb, tm, s) for s in states}
    reached = {s for sid, s in enumerate(tb.idstates) if goal >> sid & 1}
    levels = [set(reached)]
    while new := {s for s in states if s not in reached
                  and any(succs <= reached for _, succs in actions[s])}:
        levels.append(new)
        reached |= new
    return levels


class TestAttractor:
    def test_matches_set_fixpoint(self, classes):
        tb = imp._tables()
        rng = random.Random(10)
        deepest = 0
        for index in rng.sample(range(imp.protocol_space_size(classes)), 30):
            tm = imp.table_mask(TABLES[index])
            game = imp._Game(tm)
            for _ in range(4):
                trap = rng.getrandbits(64) | rng.getrandbits(64)
                for goal in (trap, 0, trap & rng.getrandbits(64) & rng.getrandbits(64),
                             rng.getrandbits(64)):
                    levels = game.attractor(trap, goal)
                    as_sets = [{s for sid, s in enumerate(tb.idstates) if level >> sid & 1}
                               for level in levels]
                    assert as_sets == reference_attractor(tb, tm, trap, goal), index
                    deepest = max(deepest, len(levels))
        assert deepest >= 4

    def test_goal_covering_the_trap_plays_no_round(self, classes):
        # With nothing left to reach, the attractor returns the goal without
        # asking which states the scheduler controls.
        game = imp._Game(imp.table_mask(TABLES[308]))
        game.controlled = None  # any call fails
        trap = (1 << 64) - 1
        assert game.attractor(trap, trap) == [trap]
        assert game.attractor(trap >> 3, trap) == [trap]
        assert game.attractor(0, 0) == [0]


def bridge_decision(table, c, i):
    """One view class's support as an engine decision, for a support with a
    single-decision form: idle-only, or moves in at most one direction."""
    tb = imp._tables()
    (_, idle), (fwd, fwd_bit), (bwd, bwd_bit) = tb.options[(tb.config_id[c], i)]
    tm = imp.table_mask(table)
    if not tm & (fwd_bit | bwd_bit):
        return protocol.idle()
    if fwd_bit == bwd_bit:
        return protocol.try_move_adversary() if tm & idle else protocol.move_adversary()
    assert not (tm & fwd_bit and tm & bwd_bit), "both directions: no single-decision form"
    target = fwd if tm & fwd_bit else bwd
    return protocol.try_move(target) if tm & idle else protocol.move(target)


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
                return bridge_decision(_table, c, i)

            sim = engine.Simulation(
                tuple(config), decide, rng=random.Random(0),
                adversary=engine.ScriptedAdversary([dest] * 200),
            )
            robot = sim.positions.index(node)
            for _ in range(200):
                record = sim.step([robot])
                if record.after != record.before:
                    break
            else:
                pytest.fail("forced robot never moved in 200 activations")
            expected = [0, 0, 0, 0]
            for p in positions:
                expected[p] += 1
            expected[node] -= 1
            expected[dest] += 1
            assert record.after == tuple(expected)
