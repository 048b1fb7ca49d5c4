"""Exhaustive refutation of three-robot exploration on a four-node ring.

Protocols are abstracted to supports: each view-equivalence class maps to the
set of outcomes it assigns strictly positive probability.  Asymmetric views
choose among {idle, forward, backward} (directions relative to the
lexicographically smaller reading); symmetric views choose among {idle, move}
with the traversed edge picked by an adversary.  A protocol table is refuted
by either

* ``bad-terminal``: a terminal state with an unvisited node is reachable with
  positive probability (so exploration can end incomplete), or
* ``forcing-non-termination``: a scheduler can herd the system, with
  probability 1 and while staying fair, inside a set of non-terminal states
  forever (the "activate one robot until it moves" repetition trick).

Distributed mode activates arbitrary nonempty robot sets; sequential mode
activates singletons.  States are (configuration, visited-set) pairs.
Transitions commute with the ring symmetries, so the search expands one
concrete state per symmetry orbit, and every witness path is a concrete run
from the initial state: configuration (1, 1, 1, 0) with nodes 0, 1, 2 visited.
The branches a table allows from a configuration depend only on its move bits
there, so the search reads them from a table built once, one entry per (mode,
configuration, move bits).  The certificate kind, too, is a function of the
table's move bits alone (the idle bit of a support never changes it), so
``refute`` memoises it per (mode, move bits), and ``theorem2_report`` refutes
each of the 4^3 * 2^4 = 1,024 move patterns once per mode, weighted by its
number of tables: 27,783 in all.
The forcing game runs over the N^K identity states (the node of each robot),
every set of them a mask with one bit per identity state, so its fixpoints are
a few integer operations.
A table's game is the OR of one packed int per view class, picked by the
class's support, split into one mask per robot and kind of forcing action.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .engine import successors
from .ring import canonical_form, configurations, occupied_nodes, placement, view_of

N = 4
K = 3
STATES = N ** K  # identity states: the node of each robot
FULL_MASK = (1 << N) - 1

IDLE_BIT = 1
FORWARD_BIT = 2  # "move" for symmetric classes
BACKWARD_BIT = 4

ELEMENT_NAMES = {IDLE_BIT: "idle", FORWARD_BIT: "forward", BACKWARD_BIT: "backward"}
SYMMETRIC_ELEMENT_NAMES = {IDLE_BIT: "idle", FORWARD_BIT: "move"}

BAD_TERMINAL = "bad-terminal"
FORCING = "forcing-non-termination"
UNREFUTED = "unrefuted"


@dataclass(frozen=True)
class ViewClass:
    index: int
    view: tuple[tuple[int, ...], tuple[int, ...]]
    symmetric: bool

    @property
    def mask_choices(self) -> tuple[int, ...]:
        return (1, 2, 3) if self.symmetric else (1, 2, 3, 4, 5, 6, 7)


@dataclass
class Certificate:
    kind: str
    witness: Optional[dict] = None


ProtocolTable = tuple[int, ...]


def enumerate_view_classes() -> list[ViewClass]:
    """All views seen from occupied nodes across every three-robot
    configuration of the four-ring, deduplicated as unordered direction
    pairs."""
    keys = {tuple(sorted(view_of(c, i))) for c in configurations(N, K) for i in occupied_nodes(c)}
    return [ViewClass(index=index, view=key, symmetric=key[0] == key[1])
            for index, key in enumerate(sorted(keys))]


def protocol_space_size(classes: list[ViewClass]) -> int:
    return math.prod(len(vc.mask_choices) for vc in classes)


def enumerate_protocols(classes: list[ViewClass]) -> Iterator[ProtocolTable]:
    """Every assignment of a nonempty support to every view class."""
    return itertools.product(*(vc.mask_choices for vc in classes))


def describe_protocol(classes: list[ViewClass], table: ProtocolTable) -> dict:
    out = {}
    for vc, mask in zip(classes, table):
        names = SYMMETRIC_ELEMENT_NAMES if vc.symmetric else ELEMENT_NAMES
        out[f"class{vc.index}"] = {
            "symmetric": vc.symmetric,
            "support": [name for bit, name in names.items() if mask & bit],
        }
    return out


def table_mask(table: ProtocolTable) -> int:
    """The table's supports as one int, class i's in bits 3i to 3i + 2.  The
    one validation boundary for tables: raises ValueError unless the table
    is one ``enumerate_protocols`` yields, with one entry per view class and
    each entry one of its class's ``mask_choices`` (so never 0).  A bool
    reads as its int; a float, a string or None is malformed."""
    choices = _tables().choice_bits
    if len(table) != len(choices):
        raise ValueError(f"table has {len(table)} supports, not one per view class "
                         f"({len(choices)})")
    tm = 0
    for index, entry in enumerate(table):
        try:
            mask = entry if type(entry) is int else operator.index(entry)
        except TypeError:
            mask = -1
        if mask < 0 or not choices[index] >> mask & 1:
            raise ValueError(f"support {entry!r} of class {index} is not one of its mask_choices")
        tm |= mask << (3 * index)
    return tm


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


# ---------------------------------------------------------------------------
# Precomputed transition structure (lazy, protocol-independent)
# ---------------------------------------------------------------------------

class _Tables:
    """The table-independent transition structure of three robots on the
    four-ring: view classes, configurations, each robot's options, the first
    branch to each successor that a table's move bits allow at each
    configuration (``allowed``, per mode), the symmetry orbits, and the
    forcing game packed per view class and support field (``game``), plus the
    memo of certificate kinds per mode and move bits (``kinds``).
    ``_tables``, this class under ``functools.cache``, builds them once per
    process."""

    def __init__(self) -> None:
        self.classes = enumerate_view_classes()
        class_by_view = {vc.view: vc.index for vc in self.classes}
        # Per class, bit m set for each support m in its mask_choices.
        self.choice_bits = [sum(1 << mask for mask in vc.mask_choices) for vc in self.classes]

        self.configs = list(configurations(N, K))
        self.config_id = {c: cid for cid, c in enumerate(self.configs)}
        self.canonical_cid = [self.config_id[canonical_form(c)] for c in self.configs]
        self.occ_mask = [sum(1 << v for v in occupied_nodes(c)) for c in self.configs]

        # What one robot on node v of config cid may do, with the element bit
        # that allows it: idle, then the forward and backward moves, forward
        # under the view's smaller reading (an anonymous robot's one
        # tie-break).  A symmetric view moves to v-1 or v+1 under its one
        # "move" bit.  ``config_moves[cid]`` gathers the element bits that
        # move a robot of config cid, and ``move_bits`` those of every config.
        self.options: dict[tuple[int, int], tuple[tuple[Optional[int], int], ...]] = {}
        self.config_moves = [0] * len(self.configs)
        for cid, c in enumerate(self.configs):
            for v in occupied_nodes(c):
                forward, backward = view_of(c, v)
                base = 3 * class_by_view[tuple(sorted((forward, backward)))]
                direction = (forward < backward) - (forward > backward)
                step = direction or -1
                back = BACKWARD_BIT if direction else FORWARD_BIT
                self.options[(cid, v)] = ((None, IDLE_BIT << base),
                                          ((v + step) % N, FORWARD_BIT << base),
                                          ((v - step) % N, back << base))
                self.config_moves[cid] |= (FORWARD_BIT | back) << base
        self.move_bits = functools.reduce(operator.or_, self.config_moves)

        # Per mode, the certificate kind of each table's move bits
        # ``tm & move_bits``, filled by ``refute``.  Exact: ``_search`` reads
        # the table only as ``tm & config_moves[cid]``; ``game[i][f]`` is
        # built from ``f << shift & (fwd_bit | bwd_bit)``, so it equals
        # ``game[i][f & 6]``; and ``_fair_trap`` reads only the game and
        # ``expanded``.  Bounded by construction: one entry per move pattern,
        # 4 per asymmetric class and 2 per symmetric one, 4^3 * 2^4 = 1,024
        # per mode.
        self.kinds: dict[str, dict[int, str]] = {"distributed": {}, "sequential": {}}

        # Per mode, config and submask ``key`` of its move bits, the branches
        # a table with ``tm & config_moves[cid] == key`` allows, as (successor
        # config id << N | successor occupied-node mask, combo), combo =
        # ((node, robots activated there), ...), ((node, dest), ...).  Each
        # config's branches are enumerated once, over move options only: a
        # branch with an idle robot reaches what its movers alone reach, or
        # its own state.  Each entry keeps the first allowed branch to each
        # successor, in ``successors`` order: the visited set grows by the
        # successor's occupied nodes alone, so a later branch reaches the
        # state ``_search`` has already seen.  Sequential mode allows the
        # branches that activate one robot.
        self.allowed: dict[str, list[dict[int, list]]] = {"distributed": [], "sequential": []}
        for cid, c in enumerate(self.configs):
            branches = []
            for activation, outcomes, succ in successors(c, lambda v: self.options[(cid, v)][1:]):
                succ_cid = self.config_id[succ]
                branches.append((functools.reduce(operator.or_, (bit for _, _, bit in outcomes)),
                                 len(outcomes) == 1, succ_cid << N | self.occ_mask[succ_cid],
                                 (activation, tuple((v, dest) for v, dest, _ in outcomes))))
            keys = [0]
            for bit in _bits(self.config_moves[cid]):
                keys += [key | 1 << bit for key in keys]
            for mode, entries in self.allowed.items():
                entry = {}
                for key in keys:
                    first: dict[int, tuple] = {}
                    for req, single, succ, combo in branches:
                        if req & ~key == 0 and (single or mode == "distributed"):
                            first.setdefault(succ, combo)
                    entry[key] = list(first.items())
                entries.append(entry)

        # Orbit number of every state ``cid << N | visited`` under the ring
        # symmetries: configuration and visited set are read node by node and
        # canonicalised together.
        keys = [canonical_form(tuple(2 * c[v] + (mask >> v & 1) for v in range(N)))
                for c in self.configs for mask in range(1 << N)]
        numbers: dict[tuple[int, ...], int] = {}
        self.orbit = [numbers.setdefault(key, len(numbers)) for key in keys]

        # Identity states: the node of each robot, for the forcing game.
        self.idstates: list[tuple[int, ...]] = list(itertools.product(range(N), repeat=K))
        self.idstate_id = {s: i for i, s in enumerate(self.idstates)}
        self.idstate_cid = [self.config_id[placement(N, s)] for s in self.idstates]
        # Per config, the mask of identity states whose configuration lies in
        # its symmetry orbit: the game states a search that expands it reaches.
        self.orbit_sids = [sum(1 << sid for sid, scid in enumerate(self.idstate_cid)
                               if self.canonical_cid[scid] == self.canonical_cid[cid])
                           for cid in range(len(self.configs))]
        # The forcing game per view class and 3-bit support field of that
        # class, packed in one int: bits STATES * (3r + j) onward hold the
        # states where the field makes robot r's forcing action a move of kind
        # j: to the next node (j = 0), to the previous node (j = 1; a symmetric
        # view has both), or either way at the mover's choice (j = 2).
        self.game = [[0] * 8 for _ in self.classes]
        for sid, positions in enumerate(self.idstates):
            for r, v in enumerate(positions):
                (_, idle), (fwd, fwd_bit), (bwd, bwd_bit) = self.options[(self.idstate_cid[sid], v)]
                shift = idle.bit_length() - 1
                per_field = self.game[shift // 3]
                at = sid + STATES * 3 * r  # sid's bit in robot r's kind-0 word
                for field in range(8):
                    on = field << shift & (fwd_bit | bwd_bit)
                    for dest, bit in ((fwd, fwd_bit), (bwd, bwd_bit)):
                        if on == bit:
                            per_field[field] |= 1 << at + (0 if dest == (v + 1) % N else STATES)
                    if fwd_bit != bwd_bit and on == fwd_bit | bwd_bit:
                        per_field[field] |= 1 << at + 2 * STATES
        # Per robot: its digit's weight in sid, and the states with it on the
        # last and on the first node, where a one-node move wraps around the
        # ring; ``_Game.forced`` shifts state masks by these.
        self.digits = [(N ** (K - 1 - r),
                        sum(1 << sid for sid, s in enumerate(self.idstates) if s[r] == N - 1),
                        sum(1 << sid for sid, s in enumerate(self.idstates) if s[r] == 0))
                       for r in range(K)]

        self.initial_cid = self.config_id[(1, 1, 1, 0)]
        self.initial_mask = 0b0111


_tables = functools.cache(_Tables)


# ---------------------------------------------------------------------------
# Reachability / bad terminals
# ---------------------------------------------------------------------------

def _search(tm: int, mode: str):
    """BFS over states ``cid << N | visited`` from the initial state along
    every positive-probability transition the table allows, expanding the
    first state reached in each symmetry orbit.  The branches a state may
    take are read from ``_Tables.allowed``; a state with none is terminal.

    Returns (bad_state, parents, expanded): bad_state is the first terminal
    state found with incomplete coverage (None when absent), parents maps the
    one state kept per reached orbit to its (predecessor, combo), or to None
    for the initial state, and expanded is the mask of identity states whose
    configuration shares an orbit with a popped state's.
    """
    tb = _tables()
    memo = tb.allowed[mode]
    config_moves, orbit_sids, orbit = tb.config_moves, tb.orbit_sids, tb.orbit
    start = tb.initial_cid << N | tb.initial_mask
    parents: dict[int, Optional[tuple]] = {start: None}
    seen = 1 << orbit[start]
    queue = [start]
    expanded = 0
    for state in queue:
        cid = state >> N
        expanded |= orbit_sids[cid]
        branches = memo[cid][tm & config_moves[cid]]
        visited = state & FULL_MASK
        if not branches:
            if visited != FULL_MASK:
                return state, parents, expanded
            continue
        for succ_base, combo in branches:
            succ = succ_base | visited
            bit = 1 << orbit[succ]
            if not seen & bit:
                seen |= bit
                parents[succ] = (state, combo)
                queue.append(succ)
    return None, parents, expanded


def _path_witness(state: int, parents: dict) -> list[dict]:
    """The stored positive-probability path to ``state`` as one concrete
    computation from the initial state."""
    tb = _tables()

    def row(state: int, combo: Optional[tuple]) -> dict:
        activation, outcomes = combo or (None, None)
        return {
            "config": list(tb.configs[state >> N]),
            "visited": _bits(state & FULL_MASK),
            "activation": activation and dict(activation),
            "outcomes": outcomes and [{"node": v, "to": dest} for v, dest in outcomes],
        }

    steps = [row(state, None)]
    while parents[state] is not None:
        state, combo = parents[state]
        steps.append(row(state, combo))
    steps.reverse()
    return steps


# ---------------------------------------------------------------------------
# Forcing traps
# ---------------------------------------------------------------------------

_WORD = (1 << STATES) - 1  # one bit per identity state


class _Game:
    """The forcing game of one table, every set of identity states a mask
    with one bit per identity state.  The OR of ``_Tables.game`` over the
    table's view-class fields holds all robots' masks, split off here: per
    robot, ``moves`` holds the states where its forcing action moves to the
    next node, to the previous node, or either way at the mover's choice, and
    ``movers`` their union: outside it the robot's support is idle-only."""

    def __init__(self, tm: int) -> None:
        tb = _tables()
        packed = 0
        for i, per_field in enumerate(tb.game):
            packed |= per_field[tm >> 3 * i & 7]
        words = [packed >> STATES * j & _WORD for j in range(3 * K)]
        self.moves = [tuple(words[3 * r:3 * r + 3]) for r in range(K)]
        self.movers = [plus | minus | both for plus, minus, both in self.moves]
        self.digits = tb.digits

    def forced(self, robot: int, target: int) -> int:
        """States where forcing ``robot`` to move surely lands in ``target``."""
        plus, minus, both = self.moves[robot]
        w, last, first = self.digits[robot]
        up = target >> w & ~last | target << (N - 1) * w & last
        down = target << w & ~first | target >> (N - 1) * w & first
        return plus & up | minus & down | both & up & down

    def controlled(self, target: int) -> int:
        """States with a forcing action whose outcomes all lie in ``target``."""
        out = 0
        for robot in range(K):
            out |= self.forced(robot, target)
        return out

    def service_states(self, trap: int, robot: int) -> int:
        """Trap states where activating ``robot`` services it: its support
        is idle-only, or it can be forced to move without leaving the trap."""
        return trap & (~self.movers[robot] | self.forced(robot, trap))

    def attractor(self, trap: int, goal: int) -> list[int]:
        """Trap states from which the scheduler forces a visit to ``goal``, as
        level masks: level i needs at most i forcing actions.  Once every
        trap state is reached no level can follow, so ``controlled`` is not
        called."""
        levels = [goal]
        reached = goal
        while (rest := trap & ~reached) and (new := rest & self.controlled(reached)):
            levels.append(new)
            reached |= new
        return levels

    def choice(self, sid: int, robot: int, target: int) -> list[tuple[int, int]]:
        """The moves of the first forcing action of ``robot`` in state ``sid``,
        forward under the smaller reading first, whose outcomes all lie in
        ``target``; there must be one.  A second move is the mover's option."""
        tb = _tables()
        v = tb.idstates[sid][robot]
        w = tb.digits[robot][0]
        _, (fwd, _), (bwd, _) = tb.options[(tb.idstate_cid[sid], v)]
        plus, minus, _ = (mask >> sid & 1 for mask in self.moves[robot])
        for dest in (fwd, bwd):
            if (plus if dest == (v + 1) % N else minus) and target >> sid + (dest - v) * w & 1:
                return [(v, dest)]
        return [(v, fwd), (v, bwd)]


def _fair_trap(game: _Game, expanded: int) -> int:
    """Largest set of identity states where a fair scheduler can keep the
    system forever: every state keeps a forcing action whose outcomes all stay
    inside, and every robot can always be steered to a state where it is
    serviceable (idle-support activation or being the forced mover).

    On the reachable states of all 27,783 tables, in both modes, the
    fairness step removes no state that the closure keeps; it stays for
    soundness.  In nearly every round each trap state already services each
    robot, so every attractor stops at once and the round costs one
    ``service_states`` call per robot."""
    trap = expanded
    while True:
        # Closure: each state needs an action staying inside the trap.
        while (closed := trap & game.controlled(trap)) != trap:
            trap = closed
        # Fairness: every robot's service states must stay force-reachable.
        fair = trap
        for robot in range(K):
            fair = sum(game.attractor(fair, game.service_states(fair, robot)))
        if fair == trap:
            return trap
        trap = fair


def _strategy_cycle(game: _Game, trap: int, entry: int) -> list[dict]:
    """Walk the servicing strategy from the entry state until a controller
    state repeats; the repeated segment services every robot and is the
    reported witness cycle."""
    tb = _tables()
    levels = [game.attractor(trap, game.service_states(trap, q)) for q in range(K)]
    seen: dict[tuple[int, int], int] = {}
    emitted: list[dict] = []
    sid, q = entry, 0
    for _ in range(20000):
        key = (sid, q)
        if key in seen:
            return emitted[seen[key]:]
        seen[key] = len(emitted)
        row = {
            "state": list(tb.idstates[sid]),
            "config": list(tb.configs[tb.idstate_cid[sid]]),
            "kind": "activate-idle",
            "robot": q,
        }
        emitted.append(row)
        if not game.movers[q] >> sid & 1:
            q = (q + 1) % K
            continue
        if game.forced(q, trap) >> sid & 1:
            robot, target, q = q, trap, (q + 1) % K
        else:  # step down the attractor of q's service states
            rank = next(i for i, level in enumerate(levels[q]) if level >> sid & 1)
            target = sum(levels[q][:rank])
            robot = next(r for r in range(K) if game.forced(r, target) >> sid & 1)
        moves = game.choice(sid, robot, target)
        row.update(kind="force", robot=robot, move=list(moves[0]))
        if moves[1:]:
            row["alternative_moves"] = [list(moves[1])]
        sid += (moves[0][1] - moves[0][0]) * tb.digits[robot][0]
    raise RuntimeError("strategy walk failed to cycle")


# ---------------------------------------------------------------------------
# Refutation
# ---------------------------------------------------------------------------

def _check_mode(mode: str) -> None:
    if mode not in ("distributed", "sequential"):
        raise ValueError(f"unknown scheduler mode {mode!r}")


def refute(table: ProtocolTable, mode: str = "distributed",
           with_witness: bool = True) -> Certificate:
    """Certificate for one protocol table under the given scheduler mode.

    The kind is a function of the table's move bits, so without a witness
    it is looked up per (mode, move bits) and computed only on a miss.  A
    witness is always built afresh: witness dicts are mutable and never
    shared."""
    _check_mode(mode)
    tb = _tables()
    tm = table_mask(table)
    if with_witness:
        return _certificate(tb, tm, mode, with_witness=True)
    kinds = tb.kinds[mode]
    key = tm & tb.move_bits
    kind = kinds.get(key)
    if kind is None:
        kind = kinds[key] = _certificate(tb, tm, mode, with_witness=False).kind
    return Certificate(kind)


def _certificate(tb: _Tables, tm: int, mode: str, with_witness: bool) -> Certificate:
    bad, parents, expanded = _search(tm, mode)
    if bad is not None:
        witness = None
        if with_witness:
            witness = {
                "path": _path_witness(bad, parents),
                "terminal_config": list(tb.configs[bad >> N]),
                "unvisited": _bits(FULL_MASK & ~bad),
            }
        return Certificate(BAD_TERMINAL, witness)
    game = _Game(tm)
    trap = _fair_trap(game, expanded)
    if trap:
        witness = None
        if with_witness:
            entry = (trap & -trap).bit_length() - 1
            entry_cid = tb.idstate_cid[entry]
            entry_state = next(state for state in parents
                               if tb.canonical_cid[state >> N] == tb.canonical_cid[entry_cid])
            witness = {
                "entry_state": list(tb.idstates[entry]),
                "entry_config": list(tb.configs[entry_cid]),
                "entry_path": _path_witness(entry_state, parents),
                "trap_size": trap.bit_count(),
                "trap_states": [list(tb.idstates[sid]) for sid in _bits(trap)],
                "cycle": _strategy_cycle(game, trap, entry),
            }
        return Certificate(FORCING, witness)
    return Certificate(UNREFUTED, None)


# ---------------------------------------------------------------------------
# Certificate validation (independent replay)
# ---------------------------------------------------------------------------

def _outcome_bit(tb: _Tables, cid: int, node: int, dest: Optional[int]) -> int:
    for option, bit in tb.options.get((cid, node), ()):
        if option == dest:
            return bit
    raise ValueError(f"{dest} is not an outcome of a robot on node {node}")


def _sid(tb: _Tables, state: list) -> int:
    try:
        return tb.idstate_id[tuple(state)]
    except (KeyError, TypeError):
        raise ValueError(f"{state!r} is not a state of three robots on the four-ring") from None


def _node(key) -> int:
    if str(key) not in [str(v) for v in range(N)]:
        raise ValueError(f"{key!r} is not a node of the four-ring")
    return int(key)


def validate_certificate(table: ProtocolTable, cert: Certificate, mode: str) -> None:
    """Replay a certificate against the table; raises ValueError on any step
    whose outcome the table does not actually allow, on malformed states,
    on a malformed table, and on an unknown mode, as ``refute`` does.  An
    unrefuted certificate has nothing to replay, so it holds only when
    ``refute`` finds no refutation either.  Activation nodes may be strings,
    as a JSON round trip leaves them; a witness with a missing field or a
    field of the wrong type is malformed, and raises ValueError too."""
    _check_mode(mode)
    tm = table_mask(table)
    try:
        _replay(_tables(), table, tm, cert, mode)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed certificate: {exc!r}") from None


def _replay(tb: _Tables, table: ProtocolTable, tm: int, cert: Certificate, mode: str) -> None:
    if cert.kind == UNREFUTED:
        if refute(table, mode, with_witness=False).kind != UNREFUTED:
            raise ValueError("table is refutable: the unrefuted certificate is false")
        return
    if cert.witness is None:
        raise ValueError("certificate has no witness to validate")
    if cert.kind == BAD_TERMINAL:
        _validate_path(tb, tm, cert.witness["path"], mode)
        last = cert.witness["path"][-1]  # a replayed state: its config is valid
        if tb.config_moves[tb.config_id[tuple(last["config"])]] & tm:
            raise ValueError("claimed terminal state is not terminal")
        unvisited = sorted(set(range(N)) - set(last["visited"]))
        if not unvisited:
            raise ValueError("claimed bad terminal has full coverage")
        summary = [cert.witness.get("terminal_config"), cert.witness.get("unvisited")]
        if summary != [last["config"], unvisited]:
            raise ValueError("terminal_config or unvisited does not match the path's last state")
        return
    if cert.kind == FORCING:
        path = cert.witness.get("entry_path")
        if path is None:
            raise ValueError("forcing certificate has no entry path")
        _validate_path(tb, tm, path, mode)
        reached = tuple(path[-1]["config"])
        entry = tuple(cert.witness["entry_config"])
        if canonical_form(reached) != canonical_form(entry):
            raise ValueError("entry path does not reach the trap entry class")
        trap = sum({1 << _sid(tb, state) for state in cert.witness["trap_states"]})
        entry_sid = _sid(tb, cert.witness["entry_state"])
        if not trap >> entry_sid & 1 or tb.configs[tb.idstate_cid[entry_sid]] != entry:
            raise ValueError("entry state is not a trap state of the entry configuration")
        _validate_trap(tm, trap)
        _validate_cycle(tb, tm, cert.witness["cycle"], trap)
        if cert.witness.get("trap_size") != trap.bit_count():
            raise ValueError("trap_size does not match the number of trap states")
        return
    raise ValueError(f"unknown certificate kind {cert.kind!r}")


def _validate_path(tb: _Tables, tm: int, path: list[dict], mode: str) -> None:
    initial = [list(tb.configs[tb.initial_cid]), _bits(tb.initial_mask)]
    if not path or [list(path[0]["config"]), list(path[0]["visited"])] != initial:
        raise ValueError("path does not start at the initial state")
    if (path[-1]["activation"], path[-1]["outcomes"]) != (None, None):
        raise ValueError("path's last state has an activation or outcomes")
    for j, step in enumerate(path[:-1]):
        config = list(step["config"])  # a replayed config, by the start and successor checks
        cid = tb.config_id[tuple(config)]
        activation = {_node(key): count for key, count in step["activation"].items()}
        activated = sum(activation.values())
        if activated < 1:
            raise ValueError(f"step {j}: empty activation")
        if mode == "sequential" and activated != 1:
            raise ValueError(f"step {j}: non-singleton activation in sequential mode")
        for node, count in activation.items():
            if count > config[node]:
                raise ValueError(f"step {j}: activates more robots than node {node} holds")
        if Counter(outcome["node"] for outcome in step["outcomes"]) != Counter(activation):
            raise ValueError(f"step {j}: outcomes do not match the activated robots")
        for outcome in step["outcomes"]:
            node, dest = outcome["node"], outcome["to"]
            bit = _outcome_bit(tb, cid, node, dest)
            if not tm & bit:
                raise ValueError(f"step {j}: outcome {node}->{dest} not in support")
            if dest is not None:
                config[node] -= 1
                config[dest] += 1
        if config != path[j + 1]["config"]:
            raise ValueError(f"step {j}: successor mismatch")
        expected_visited = set(step["visited"]) | {i for i in range(N) if config[i]}
        if expected_visited != set(path[j + 1]["visited"]):
            raise ValueError(f"step {j}: visited-set mismatch")


def _validate_trap(tm: int, trap: int) -> None:
    # The conditions ``_fair_trap`` establishes, checked on the declared trap.
    game = _Game(tm)
    if trap & game.controlled(trap) != trap:
        raise ValueError("declared trap is not closed under forcing actions")
    if any(sum(game.attractor(trap, game.service_states(trap, q))) != trap for q in range(K)):
        raise ValueError("declared trap does not keep every robot serviceable")


def _validate_cycle(tb: _Tables, tm: int, cycle: list[dict], trap: int) -> None:
    if not cycle:
        raise ValueError("empty forcing cycle")
    serviced = set()
    for j, row in enumerate(cycle):
        sid = _sid(tb, row["state"])
        if not trap >> sid & 1:
            raise ValueError(f"cycle row {j}: state not in declared trap")
        positions, cid = tb.idstates[sid], tb.idstate_cid[sid]
        if row["config"] != list(tb.configs[cid]):
            raise ValueError(f"cycle row {j}: config does not match the state")
        if row["kind"] not in ("activate-idle", "force"):
            raise ValueError(f"cycle row {j}: unknown kind {row['kind']!r}")
        if tb.config_moves[cid] & tm == 0:
            raise ValueError(f"cycle row {j}: trap state is terminal")
        robot = row["robot"]
        if robot not in range(K):
            raise ValueError(f"cycle row {j}: no robot {robot!r}")
        nxt = tuple(cycle[(j + 1) % len(cycle)]["state"])
        if row["kind"] == "activate-idle":
            _, (_, fwd_bit), (_, bwd_bit) = tb.options[(cid, positions[robot])]
            if tm & (fwd_bit | bwd_bit):
                raise ValueError(f"cycle row {j}: robot {robot} is not idle-only")
            if nxt != positions:
                raise ValueError(f"cycle row {j}: idle activation changed the state")
            serviced.add(robot)
            continue
        node, dest = row["move"]
        if positions[robot] != node:
            raise ValueError(f"cycle row {j}: robot {robot} is not on node {node}")
        bit = _outcome_bit(tb, cid, node, dest)
        if not tm & bit:
            raise ValueError(f"cycle row {j}: forced move not in support")
        moved = list(positions)
        moved[robot] = dest
        if tuple(moved) != nxt:
            raise ValueError(f"cycle row {j}: successor mismatch")
        # An asymmetric view with both directions in the support: the mover picks.
        _, (fwd, fwd_bit), (bwd, bwd_bit) = tb.options[(cid, node)]
        either_way = fwd_bit != bwd_bit and tm & fwd_bit and tm & bwd_bit
        others = [[node, bwd if dest == fwd else fwd]] if either_way else []
        if [list(move) for move in row.get("alternative_moves", ())] != others:
            raise ValueError(f"cycle row {j}: alternative moves do not match the support")
        for _, alt_dest in others:
            alt = list(positions)
            alt[robot] = alt_dest
            if not trap >> _sid(tb, alt) & 1:
                raise ValueError(f"cycle row {j}: alternative branch leaves the trap")
        serviced.add(robot)
    if serviced != set(range(K)):
        raise ValueError(f"cycle services only robots {sorted(serviced)}")


# ---------------------------------------------------------------------------
# Full enumeration report
# ---------------------------------------------------------------------------

def _move_patterns(classes: list[ViewClass]) -> list[tuple[ProtocolTable, int]]:
    """Each move pattern's first table, in table order, with its weight: the
    number of tables with its move bits.  Adding the idle bit to a support
    that moves keeps its move bits, so each such entry doubles the weight."""
    firsts = [[mask for mask in vc.mask_choices if mask == IDLE_BIT or not mask & IDLE_BIT]
              for vc in classes]
    return [(table, 2 ** sum(mask != IDLE_BIT for mask in table))
            for table in itertools.product(*firsts)]


def theorem2_report(modes: Iterable[str] = ("distributed", "sequential")) -> dict:
    """Refute every support-level protocol in each scheduler mode and report
    certificate-kind counts with one example certificate per kind, each
    checked with ``validate_certificate`` before it is reported.  A table's
    kind is a function of its move bits, so each move pattern is refuted once,
    through its first table, and counts for every table that shares its move
    bits: 1,024 refutations per mode, in one process."""
    classes = _tables().classes
    total = protocol_space_size(classes)
    asym = sum(1 for vc in classes if not vc.symmetric)
    sym = len(classes) - asym
    report = {
        "n": N,
        "k": K,
        "view_classes": {"asymmetric": asym, "symmetric": sym},
        "total": total,
        "modes": {},
    }
    patterns = _move_patterns(classes)
    for mode in modes:
        counts = {BAD_TERMINAL: 0, FORCING: 0, UNREFUTED: 0}
        first: dict[str, ProtocolTable] = {}
        for table, weight in patterns:
            kind = refute(table, mode, with_witness=False).kind
            counts[kind] += weight
            first.setdefault(kind, table)  # patterns are in table order
        examples = {}
        for kind, table in sorted(first.items()):
            cert = refute(table, mode, with_witness=True)
            validate_certificate(table, cert, mode)
            # Its index in ``enumerate_protocols``: mixed radix, last class fastest.
            index = 0
            for vc, mask in zip(classes, table):
                index = index * len(vc.mask_choices) + vc.mask_choices.index(mask)
            examples[kind] = {
                "protocol_index": index,
                "table": describe_protocol(classes, table),
                "witness": cert.witness,
            }
        report["modes"][mode] = {
            "mode": mode,
            "total": total,
            "bad_terminal": counts[BAD_TERMINAL],
            "forcing": counts[FORCING],
            "unrefuted": counts[UNREFUTED],
            "example_certificates": examples,
        }
    return report
