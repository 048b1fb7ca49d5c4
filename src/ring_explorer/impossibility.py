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
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from . import protocol as robot_protocol
from .engine import successors
from .ring import (as_config, canonical_direction, canonical_form, configurations,
                   occupied_nodes, view_of)

N = 4
K = 3
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


def view_key(c, i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    v = view_of(c, i)
    return v.as_pair()


def enumerate_view_classes(n: int = N, k: int = K) -> list[ViewClass]:
    """All views seen from occupied nodes across every k-robot configuration,
    deduplicated as unordered direction pairs."""
    keys = {view_key(c, i) for c in configurations(n, k) for i in occupied_nodes(c)}
    return [ViewClass(index=index, view=key, symmetric=key[0] == key[1])
            for index, key in enumerate(sorted(keys))]


def protocol_space_size(classes: list[ViewClass]) -> int:
    size = 1
    for vc in classes:
        size *= len(vc.mask_choices)
    return size


def enumerate_protocols(classes: list[ViewClass]) -> Iterator[ProtocolTable]:
    """Every assignment of a nonempty support to every view class."""
    for masks in itertools.product(*(vc.mask_choices for vc in classes)):
        yield masks


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
    tm = 0
    for index, mask in enumerate(table):
        tm |= mask << (3 * index)
    return tm


def _nodes(mask: int) -> list[int]:
    return [i for i in range(N) if mask >> i & 1]


# ---------------------------------------------------------------------------
# Precomputed transition structure (lazy, protocol-independent)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Combo:
    """One fully resolved positive-probability branch of one activation."""

    req: int                       # element bits that must all be in the table
    succ_cid: int
    succ_occ: int                  # visited-mask contribution of the successor
    activation: tuple[tuple[int, int], ...]   # (node, robots activated there)
    outcomes: tuple[tuple[int, Optional[int]], ...]  # (node, destination|None)


@dataclass(frozen=True)
class _Action:
    """Forcing action: activate one robot until it moves.

    ``succs`` has two entries when both directions of an asymmetric view are
    in the support (the mover picks; the scheduler must handle both), one
    entry otherwise (symmetric moves are steered by the adversary).  The
    action is valid in a table holding every ``pos`` bit and no ``neg`` bit.
    """

    robot: int
    pos: int
    neg: int
    move: tuple[int, int]
    succs: tuple[int, ...]
    alternatives: tuple[tuple[int, int], ...]


class _Tables:
    def __init__(self) -> None:
        self.classes = enumerate_view_classes()
        class_by_view = {vc.view: vc.index for vc in self.classes}

        self.configs = list(configurations(N, K))
        self.config_id = {c: cid for cid, c in enumerate(self.configs)}
        self.canonical_cid = [self.config_id[canonical_form(c)] for c in self.configs]
        self.occ_mask = [sum(1 << v for v in occupied_nodes(c)) for c in self.configs]

        # What one robot on node v of config cid may do, with the element bit
        # that allows it: idle, then the forward and backward moves under
        # canonical_direction.  A symmetric view moves to v-1 or v+1 under its
        # one "move" bit.
        self.options: dict[tuple[int, int], tuple[tuple[Optional[int], int], ...]] = {}
        for cid, c in enumerate(self.configs):
            for v in occupied_nodes(c):
                base = 3 * class_by_view[view_key(c, v)]
                direction = canonical_direction(c, v)
                step = direction or -1
                back = BACKWARD_BIT if direction else FORWARD_BIT
                self.options[(cid, v)] = ((None, IDLE_BIT << base),
                                          ((v + step) % N, FORWARD_BIT << base),
                                          ((v - step) % N, back << base))

        # Element bits that move a robot: per (config, node) and per config.
        self.node_moves = {key: opts[1][1] | opts[2][1] for key, opts in self.options.items()}
        self.config_moves = [0] * len(self.configs)
        for (cid, _), bits in self.node_moves.items():
            self.config_moves[cid] |= bits

        self.combos = {
            mode: [self._combos_for(cid, mode == "sequential") for cid in range(len(self.configs))]
            for mode in ("distributed", "sequential")
        }

        # Orbit key of every (configuration, visited) state under the ring
        # symmetries: both are read node by node and canonicalised together.
        self.orbit = {
            (cid, mask): canonical_form(tuple(2 * c[v] + (mask >> v & 1) for v in range(N)))
            for cid, c in enumerate(self.configs) for mask in range(1 << N)
        }

        # Identity states: the node of each robot, for the forcing game.
        self.idstates: list[tuple[int, ...]] = list(itertools.product(range(N), repeat=K))
        self.idstate_id = {s: i for i, s in enumerate(self.idstates)}
        self.idstate_cid = [self.config_id[tuple(s.count(v) for v in range(N))]
                            for s in self.idstates]
        self.actions = [self._actions_for(sid) for sid in range(len(self.idstates))]

        self.initial_cid = self.config_id[(1, 1, 1, 0)]
        self.initial_mask = 0b0111

    def _combos_for(self, cid: int, sequential: bool) -> list[_Combo]:
        combos: list[_Combo] = []
        branches = successors(self.configs[cid], lambda v: self.options[(cid, v)], sequential)
        for activation, outcomes, succ in branches:
            if all(dest is None for _, dest, _ in outcomes):
                continue  # no-op branch, irrelevant for reachability
            req = 0
            for _, _, bit in outcomes:
                req |= bit
            succ_cid = self.config_id[succ]
            combos.append(_Combo(req, succ_cid, self.occ_mask[succ_cid], activation,
                                 tuple((v, dest) for v, dest, _ in outcomes)))
        return combos

    def _actions_for(self, sid: int) -> list[_Action]:
        """Per robot: one action per move option, with the node's other move
        bits excluded; then, when the two moves have distinct bits, the action
        whose support holds both and whose mover picks the direction."""
        positions = self.idstates[sid]
        cid = self.idstate_cid[sid]
        actions: list[_Action] = []
        for r, v in enumerate(positions):
            def moved(dest: int) -> int:
                return self.idstate_id[positions[:r] + (dest,) + positions[r + 1:]]

            _, (fwd, fwd_bit), (bwd, bwd_bit) = self.options[(cid, v)]
            moves = fwd_bit | bwd_bit
            for dest, bit in ((fwd, fwd_bit), (bwd, bwd_bit)):
                actions.append(_Action(r, bit, moves & ~bit, (v, dest), (moved(dest),), ()))
            if fwd_bit != bwd_bit:
                actions.append(_Action(r, moves, 0, (v, fwd), (moved(fwd), moved(bwd)),
                                       ((v, bwd),)))
        return actions


_TABLES: Optional[_Tables] = None


def _tables() -> _Tables:
    global _TABLES
    if _TABLES is None:
        _TABLES = _Tables()
    return _TABLES


# ---------------------------------------------------------------------------
# Reachability / bad terminals
# ---------------------------------------------------------------------------

def _search(tm: int, mode: str):
    """BFS over (configuration, visited) states from the initial state along
    every positive-probability transition the table allows, expanding the
    first state reached in each symmetry orbit.

    Returns (bad_state, parents, expanded): bad_state is the first terminal
    state found with incomplete coverage (None when absent), parents maps the
    one state kept per reached orbit to its (predecessor, combo), or to None
    for the initial state, and expanded holds the canonical config ids of
    every popped state.
    """
    tb = _tables()
    combos = tb.combos[mode]
    orbit = tb.orbit
    start = (tb.initial_cid, tb.initial_mask)
    parents: dict[tuple[int, int], Optional[tuple]] = {start: None}
    seen = {orbit[start]}
    queue = deque([start])
    expanded: set[int] = set()
    while queue:
        state = queue.popleft()
        cid, mask = state
        expanded.add(tb.canonical_cid[cid])
        if tb.config_moves[cid] & tm == 0:
            if mask != FULL_MASK:
                return state, parents, expanded
            continue
        for combo in combos[cid]:
            if combo.req & ~tm:
                continue
            succ = (combo.succ_cid, mask | combo.succ_occ)
            key = orbit[succ]
            if key not in seen:
                seen.add(key)
                parents[succ] = (state, combo)
                queue.append(succ)
    return None, parents, expanded


def _path_witness(state: tuple[int, int], parents: dict) -> list[dict]:
    """The stored positive-probability path to ``state`` as one concrete
    computation from the initial state."""
    tb = _tables()

    def row(state: tuple[int, int], combo: Optional[_Combo]) -> dict:
        cid, mask = state
        return {
            "config": list(tb.configs[cid]),
            "visited": _nodes(mask),
            "activation": None if combo is None else dict(combo.activation),
            "outcomes": None if combo is None else
            [{"node": v, "to": dest} for v, dest in combo.outcomes],
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

class _Game:
    """The forcing game of one table over identity states: the actions valid
    under the table in each state, and the robots with at least one of them.
    A robot without one has an idle-only support."""

    def __init__(self, tm: int) -> None:
        self.actions = [[a for a in actions if not a.pos & ~tm and not a.neg & tm]
                        for actions in _tables().actions]
        self.movers = [{a.robot for a in actions} for actions in self.actions]

    def service_states(self, trap: set[int], robot: int) -> set[int]:
        """Trap states where activating ``robot`` services it: its support
        is idle-only, or it can be forced to move without leaving the trap."""
        return {sid for sid in trap
                if robot not in self.movers[sid]
                or any(a.robot == robot and all(x in trap for x in a.succs)
                       for a in self.actions[sid])}

    def attractor(self, trap: set[int], goal: set[int]) -> dict[int, int]:
        """Trap states from which the scheduler forces a visit to ``goal``,
        each mapped to the number of forcing actions it needs at most."""
        rank = dict.fromkeys(goal, 0)
        level = 0
        while True:
            level += 1
            new = [sid for sid in trap - rank.keys()
                   if any(all(x in rank for x in a.succs) for a in self.actions[sid])]
            if not new:
                return rank
            rank.update(dict.fromkeys(new, level))


def _fair_trap(game: _Game, expanded: set[int]) -> set[int]:
    """Largest set of identity states where a fair scheduler can keep the
    system forever: every state keeps a forcing action whose outcomes all stay
    inside, and every robot can always be steered to a state where it is
    serviceable (idle-support activation or being the forced mover)."""
    tb = _tables()
    trap = {sid for sid, cid in enumerate(tb.idstate_cid)
            if tb.canonical_cid[cid] in expanded and game.actions[sid]}
    while True:
        changed = False
        # Closure: each state needs an action staying inside the trap.
        pruning = True
        while pruning:
            pruning = False
            for sid in list(trap):
                if not any(all(x in trap for x in a.succs) for a in game.actions[sid]):
                    trap.discard(sid)
                    pruning = changed = True
        if not trap:
            return trap
        # Fairness: every robot's service states must stay force-reachable.
        for robot in range(K):
            shrunk = set(game.attractor(trap, game.service_states(trap, robot)))
            if shrunk != trap:
                trap = shrunk
                changed = True
        if not changed:
            return trap


def _strategy_cycle(game: _Game, trap: set[int], entry: int) -> list[dict]:
    """Walk the servicing strategy from the entry state until a controller
    state repeats; the repeated segment services every robot and is the
    reported witness cycle."""
    tb = _tables()
    ranks = [game.attractor(trap, game.service_states(trap, q)) for q in range(K)]

    def emit(sid: int, action: Optional[_Action], robot: int, kind: str) -> dict:
        row = {
            "state": list(tb.idstates[sid]),
            "config": list(tb.configs[tb.idstate_cid[sid]]),
            "kind": kind,
            "robot": robot,
        }
        if action is not None:
            row["move"] = list(action.move)
            if action.alternatives:
                row["alternative_moves"] = [list(m) for m in action.alternatives]
        return row

    seen: dict[tuple[int, int], int] = {}
    emitted: list[dict] = []
    sid, q = entry, 0
    for _ in range(20000):
        key = (sid, q)
        if key in seen:
            return emitted[seen[key]:]
        seen[key] = len(emitted)
        if q not in game.movers[sid]:
            emitted.append(emit(sid, None, q, "activate-idle"))
            q = (q + 1) % K
            continue
        direct = next((a for a in game.actions[sid]
                       if a.robot == q and all(x in trap for x in a.succs)), None)
        if direct is not None:
            emitted.append(emit(sid, direct, q, "force"))
            sid = direct.succs[0]
            q = (q + 1) % K
            continue
        rank = ranks[q]
        step = next(a for a in game.actions[sid]
                    if all(x in rank and rank[x] < rank[sid] for x in a.succs))
        emitted.append(emit(sid, step, step.robot, "force"))
        sid = step.succs[0]
    raise RuntimeError("strategy walk failed to cycle")


# ---------------------------------------------------------------------------
# Refutation
# ---------------------------------------------------------------------------

def refute(table: ProtocolTable, mode: str = "distributed",
           with_witness: bool = True) -> Certificate:
    """Certificate for one protocol table under the given scheduler mode."""
    if mode not in ("distributed", "sequential"):
        raise ValueError(f"unknown scheduler mode {mode!r}")
    tb = _tables()
    tm = table_mask(table)
    bad, parents, expanded = _search(tm, mode)
    if bad is not None:
        witness = None
        if with_witness:
            cid, mask = bad
            witness = {
                "path": _path_witness(bad, parents),
                "terminal_config": list(tb.configs[cid]),
                "unvisited": _nodes(FULL_MASK & ~mask),
            }
        return Certificate(BAD_TERMINAL, witness)
    game = _Game(tm)
    trap = _fair_trap(game, expanded)
    if trap:
        witness = None
        if with_witness:
            entry = min(trap)
            entry_cid = tb.idstate_cid[entry]
            entry_state = next(state for state in parents
                               if tb.canonical_cid[state[0]] == tb.canonical_cid[entry_cid])
            witness = {
                "entry_state": list(tb.idstates[entry]),
                "entry_config": list(tb.configs[entry_cid]),
                "entry_path": _path_witness(entry_state, parents),
                "trap_size": len(trap),
                "trap_states": [list(tb.idstates[sid]) for sid in sorted(trap)],
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


def validate_certificate(table: ProtocolTable, cert: Certificate, mode: str) -> None:
    """Replay a certificate against the table; raises ValueError on any step
    whose outcome the table does not actually allow."""
    tb = _tables()
    tm = table_mask(table)
    if cert.kind == UNREFUTED:
        return
    if cert.witness is None:
        raise ValueError("certificate has no witness to validate")
    if cert.kind == BAD_TERMINAL:
        _validate_path(tb, tm, cert.witness["path"], mode)
        last = cert.witness["path"][-1]
        cid = tb.config_id[tuple(last["config"])]
        if tb.config_moves[cid] & tm:
            raise ValueError("claimed terminal state is not terminal")
        if len(last["visited"]) == N:
            raise ValueError("claimed bad terminal has full coverage")
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
        trap = {tuple(s) for s in cert.witness["trap_states"]}
        entry_state = tuple(cert.witness["entry_state"])
        if entry_state not in trap or tuple(entry_state.count(v) for v in range(N)) != entry:
            raise ValueError("entry state is not a trap state of the entry configuration")
        _validate_trap(tb, tm, trap)
        _validate_cycle(tb, tm, cert.witness["cycle"], trap)
        return
    raise ValueError(f"unknown certificate kind {cert.kind!r}")


def _validate_path(tb: _Tables, tm: int, path: list[dict], mode: str) -> None:
    initial = [list(tb.configs[tb.initial_cid]), _nodes(tb.initial_mask)]
    if not path or [list(path[0]["config"]), list(path[0]["visited"])] != initial:
        raise ValueError("path does not start at the initial state")
    for j, step in enumerate(path[:-1]):
        config = list(step["config"])
        cid = tb.config_id[tuple(config)]
        activated = sum(step["activation"].values())
        if activated < 1:
            raise ValueError(f"step {j}: empty activation")
        if mode == "sequential" and activated != 1:
            raise ValueError(f"step {j}: non-singleton activation in sequential mode")
        for node, count in step["activation"].items():
            if count > config[node]:
                raise ValueError(f"step {j}: activates more robots than node {node} holds")
        if Counter(outcome["node"] for outcome in step["outcomes"]) != Counter(step["activation"]):
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


def _validate_trap(tb: _Tables, tm: int, trap: set) -> None:
    # The conditions ``_fair_trap`` establishes, checked on the declared trap.
    game, sids = _Game(tm), {tb.idstate_id[s] for s in trap}
    if not all(any(all(x in sids for x in a.succs) for a in game.actions[sid]) for sid in sids):
        raise ValueError("declared trap is not closed under forcing actions")
    if any(game.attractor(sids, game.service_states(sids, q)).keys() != sids for q in range(K)):
        raise ValueError("declared trap does not keep every robot serviceable")


def _validate_cycle(tb: _Tables, tm: int, cycle: list[dict], trap: set) -> None:
    if not cycle:
        raise ValueError("empty forcing cycle")
    serviced = set()
    for j, row in enumerate(cycle):
        positions = tuple(row["state"])
        if positions not in trap:
            raise ValueError(f"cycle row {j}: state not in declared trap")
        cid = tb.idstate_cid[tb.idstate_id[positions]]
        if tb.config_moves[cid] & tm == 0:
            raise ValueError(f"cycle row {j}: trap state is terminal")
        robot = row["robot"]
        nxt = tuple(cycle[(j + 1) % len(cycle)]["state"])
        if row["kind"] == "activate-idle":
            if tm & tb.node_moves[(cid, positions[robot])]:
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
        for alt_node, alt_dest in row.get("alternative_moves", ()):
            alt = list(positions)
            alt[robot] = alt_dest
            if tuple(alt) not in trap:
                raise ValueError(f"cycle row {j}: alternative branch leaves the trap")
        serviced.add(robot)
    if serviced != set(range(K)):
        raise ValueError(f"cycle services only robots {sorted(serviced)}")


# ---------------------------------------------------------------------------
# Engine bridge (for statistical replay of forcing transitions)
# ---------------------------------------------------------------------------

def support_decision(table: ProtocolTable, c, i: int) -> robot_protocol.Decision:
    """Express one view class's support as an engine decision, when possible.

    Supports containing both directions of an asymmetric view have no
    single-decision equivalent and raise ValueError, as do an unoccupied node
    and a configuration other than three robots on four nodes.
    """
    tb = _tables()
    tm = table_mask(table)
    options = tb.options.get((tb.config_id.get(as_config(c)), i))
    if options is None:
        raise ValueError(f"node {i} is not occupied in a three-robot four-ring configuration")
    (_, idle), (fwd, fwd_bit), (bwd, bwd_bit) = options
    if not tm & (fwd_bit | bwd_bit):
        return robot_protocol.idle()
    if fwd_bit == bwd_bit:
        return robot_protocol.try_move_adversary() if tm & idle else robot_protocol.move_adversary()
    if tm & fwd_bit and tm & bwd_bit:
        raise ValueError("support with both directions has no single-decision form")
    target = fwd if tm & fwd_bit else bwd
    return robot_protocol.try_move(target) if tm & idle else robot_protocol.move(target)


# ---------------------------------------------------------------------------
# Full enumeration report
# ---------------------------------------------------------------------------

def _count_mode(mode: str, lo: int, hi: int) -> tuple[dict, dict]:
    classes = _tables().classes
    counts = {BAD_TERMINAL: 0, FORCING: 0, UNREFUTED: 0}
    first: dict[str, int] = {}
    for idx, table in enumerate(itertools.islice(enumerate_protocols(classes), lo, hi), lo):
        cert = refute(table, mode, with_witness=False)
        counts[cert.kind] += 1
        first.setdefault(cert.kind, idx)
    return counts, first


def theorem2_report(modes: Iterable[str] = ("distributed", "sequential"),
                    jobs: int = 1) -> dict:
    """Refute every support-level protocol in each scheduler mode and report
    certificate-kind counts with one example certificate per kind."""
    tb = _tables()
    classes = tb.classes
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
    chunk = -(-total // jobs)
    for mode in modes:
        ranges = [(mode, lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
        if jobs == 1:
            parts = list(itertools.starmap(_count_mode, ranges))
        else:
            import multiprocessing

            with multiprocessing.Pool(jobs) as pool:
                parts = pool.starmap(_count_mode, ranges)
        counts = {BAD_TERMINAL: 0, FORCING: 0, UNREFUTED: 0}
        first: dict[str, int] = {}
        for part_counts, part_first in parts:  # in table order
            for kind, value in part_counts.items():
                counts[kind] += value
            for kind, idx in part_first.items():
                first.setdefault(kind, idx)
        examples = {}
        for kind, idx in sorted(first.items()):
            table = next(itertools.islice(enumerate_protocols(classes), idx, None))
            cert = refute(table, mode, with_witness=True)
            examples[kind] = {
                "protocol_index": idx,
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
