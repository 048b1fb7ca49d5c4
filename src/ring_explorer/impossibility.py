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
activates singletons.  States are (configuration, visited-set) pairs
quotiented by the joint action of the ring symmetries.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Iterator, Optional

from . import protocol as robot_protocol
from .engine import successors
from .ring import as_config, canonical_direction, canonical_form, view_of

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
    keys = set()
    for nodes in itertools.combinations_with_replacement(range(n), k):
        c = [0] * n
        for node in nodes:
            c[node] += 1
        for i in set(nodes):
            keys.add(view_key(tuple(c), i))
    classes = []
    for index, key in enumerate(sorted(keys)):
        classes.append(ViewClass(index=index, view=key, symmetric=key[0] == key[1]))
    return classes


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
    entry otherwise (symmetric moves are steered by the adversary).
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
        self.class_by_view = {vc.view: vc.index for vc in self.classes}

        self.configs: list[tuple[int, ...]] = []
        self.config_id: dict[tuple[int, ...], int] = {}
        for nodes in itertools.combinations_with_replacement(range(N), K):
            c = [0] * N
            for node in nodes:
                c[node] += 1
            c = tuple(c)
            self.config_id[c] = len(self.configs)
            self.configs.append(c)

        # Per (config, node): view class, and the concrete forward/backward
        # edges under the lexicographic orientation rule.
        self.node_class: dict[tuple[int, int], int] = {}
        self.node_edges: dict[tuple[int, int], tuple[int, int]] = {}
        for cid, c in enumerate(self.configs):
            for v in range(N):
                if c[v] == 0:
                    continue
                idx = self.class_by_view[view_key(c, v)]
                self.node_class[(cid, v)] = idx
                direction = canonical_direction(c, v)
                if direction is None:
                    self.node_edges[(cid, v)] = ((v - 1) % N, (v + 1) % N)
                else:
                    self.node_edges[(cid, v)] = ((v + direction) % N, (v - direction) % N)

        # Element bits a configuration's occupied nodes could move with.
        self.movebits: list[int] = []
        for cid, c in enumerate(self.configs):
            bits = 0
            for v in range(N):
                if c[v]:
                    idx = self.node_class[(cid, v)]
                    width = 1 if self.classes[idx].symmetric else 2
                    bits |= ((FORWARD_BIT | (BACKWARD_BIT if width == 2 else 0))) << (3 * idx)
            self.movebits.append(bits)

        self.occ_mask = [
            sum(1 << v for v in range(N) if c[v]) for c in self.configs
        ]

        self.combos = {
            "distributed": [self._combos_for(cid, sequential=False) for cid in range(len(self.configs))],
            "sequential": [self._combos_for(cid, sequential=True) for cid in range(len(self.configs))],
        }

        self.perms = self._dihedral_perms()
        self.canon: dict[tuple[int, int], tuple[int, int, tuple[int, ...]]] = {}
        for cid in range(len(self.configs)):
            for mask in range(1 << N):
                self.canon[(cid, mask)] = self._canonicalize(cid, mask)

        self.canonical_cid = [
            self.config_id[canonical_form(c)] for c in self.configs
        ]

        self.idstates: list[tuple[int, ...]] = list(itertools.product(range(N), repeat=K))
        self.idstate_id = {s: i for i, s in enumerate(self.idstates)}
        self.idstate_cid = [self._cid_of_positions(s) for s in self.idstates]
        self.actions: list[list[_Action]] = [self._actions_for(s) for s in self.idstates]

        self.initial_cid = self.config_id[(1, 1, 1, 0)]
        self.initial_mask = 0b0111

    # -- helpers ------------------------------------------------------------

    def _cid_of_positions(self, positions: tuple[int, ...]) -> int:
        c = [0] * N
        for p in positions:
            c[p] += 1
        return self.config_id[tuple(c)]

    def _node_options(self, cid: int, v: int) -> list[tuple[Optional[int], int]]:
        idx = self.node_class[(cid, v)]
        base = 3 * idx
        fwd, bwd = self.node_edges[(cid, v)]
        options: list[tuple[Optional[int], int]] = [(None, IDLE_BIT << base)]
        if self.classes[idx].symmetric:
            options.append(((v - 1) % N, FORWARD_BIT << base))
            options.append(((v + 1) % N, FORWARD_BIT << base))
        else:
            options.append((fwd, FORWARD_BIT << base))
            options.append((bwd, BACKWARD_BIT << base))
        return options

    def _combos_for(self, cid: int, sequential: bool) -> list[_Combo]:
        combos: list[_Combo] = []
        options = partial(self._node_options, cid)
        for activation, outcomes, succ in successors(self.configs[cid], options, sequential):
            if all(dest is None for _, dest, _ in outcomes):
                continue  # no-op branch, irrelevant for reachability
            req = 0
            for _, _, bit in outcomes:
                req |= bit
            succ_cid = self.config_id[succ]
            combos.append(_Combo(req, succ_cid, self.occ_mask[succ_cid], activation,
                                 tuple((v, dest) for v, dest, _ in outcomes)))
        return combos

    @staticmethod
    def _dihedral_perms() -> list[tuple[int, ...]]:
        perms = []
        for r in range(N):
            perms.append(tuple((i + r) % N for i in range(N)))
        for r in range(N):
            perms.append(tuple((r - i) % N for i in range(N)))
        return perms

    def _canonicalize(self, cid: int, mask: int) -> tuple[int, int, tuple[int, ...]]:
        c = self.configs[cid]
        best = None
        best_perm = None
        for p in self.perms:
            cc = [0] * N
            for i in range(N):
                cc[p[i]] = c[i]
            mm = 0
            for i in range(N):
                if mask >> i & 1:
                    mm |= 1 << p[i]
            cand = (tuple(cc), mm)
            if best is None or cand < best:
                best, best_perm = cand, p
        return self.config_id[best[0]], best[1], best_perm

    def _actions_for(self, positions: tuple[int, ...]) -> list[_Action]:
        cid = self._cid_of_positions(positions)
        actions: list[_Action] = []
        for r in range(K):
            v = positions[r]
            idx = self.node_class[(cid, v)]
            base = 3 * idx

            def moved(dest: int) -> int:
                succ = list(positions)
                succ[r] = dest
                return self.idstate_id[tuple(succ)]

            if self.classes[idx].symmetric:
                for dest in ((v - 1) % N, (v + 1) % N):
                    actions.append(_Action(r, FORWARD_BIT << base, 0, (v, dest),
                                           (moved(dest),), ()))
            else:
                fwd, bwd = self.node_edges[(cid, v)]
                actions.append(_Action(r, FORWARD_BIT << base, BACKWARD_BIT << base,
                                       (v, fwd), (moved(fwd),), ()))
                actions.append(_Action(r, BACKWARD_BIT << base, FORWARD_BIT << base,
                                       (v, bwd), (moved(bwd),), ()))
                actions.append(_Action(r, (FORWARD_BIT | BACKWARD_BIT) << base, 0,
                                       (v, fwd), (moved(fwd), moved(bwd)),
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
    """BFS over canonical (configuration, visited) states along every
    positive-probability transition the table allows.

    Returns (bad_state, parents, popped_configs): bad_state is the first
    terminal state found with incomplete coverage (None when absent).
    """
    tb = _tables()
    combos = tb.combos[mode]
    start_cid, start_mask, _ = tb.canon[(tb.initial_cid, tb.initial_mask)]
    start = (start_cid, start_mask)
    parents: dict[tuple[int, int], Optional[tuple]] = {start: None}
    queue = deque([start])
    popped: set[int] = set()
    while queue:
        state = queue.popleft()
        cid, mask = state
        popped.add(cid)
        if tb.movebits[cid] & tm == 0:
            if mask != FULL_MASK:
                return state, parents, popped
            continue
        for combo in combos[cid]:
            if combo.req & ~tm:
                continue
            succ_cid, succ_mask, perm = tb.canon[(combo.succ_cid, mask | combo.succ_occ)]
            succ = (succ_cid, succ_mask)
            if succ not in parents:
                parents[succ] = (state, combo, perm)
                queue.append(succ)
    return None, parents, popped


def _compose(g: tuple[int, ...], h: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(g[h[i]] for i in range(N))


def _invert(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * N
    for i in range(N):
        out[p[i]] = i
    return tuple(out)


def _path_witness(state: tuple[int, int], parents: dict) -> list[dict]:
    """Rebuild the positive-probability path as one concrete computation.

    Stored states are canonical representatives, so each stored transition is
    known only up to a ring symmetry; composing those symmetries re-labels
    every step into the frame of the first configuration.
    """
    tb = _tables()
    chain = []
    cur = state
    while parents[cur] is not None:
        prev, combo, perm = parents[cur]
        chain.append((prev, combo, perm))
        cur = prev
    chain.reverse()
    g = tuple(range(N))
    steps = []
    config = list(tb.configs[cur[0]])
    mask = cur[1]
    for prev, combo, perm in chain:
        activation = {g[v]: a for v, a in combo.activation}
        outcomes = [(g[v], None if dest is None else g[dest]) for v, dest in combo.outcomes]
        steps.append({
            "config": list(config),
            "visited": sorted(i for i in range(N) if mask >> i & 1),
            "activation": activation,
            "outcomes": [{"node": v, "to": dest} for v, dest in outcomes],
        })
        for v, dest in outcomes:
            if dest is not None:
                config[v] -= 1
                config[dest] += 1
        mask |= sum(1 << i for i in range(N) if config[i])
        g = _compose(g, _invert(perm))
    steps.append({
        "config": list(config),
        "visited": sorted(i for i in range(N) if mask >> i & 1),
        "activation": None,
        "outcomes": None,
    })
    return steps


# ---------------------------------------------------------------------------
# Forcing traps
# ---------------------------------------------------------------------------

def _valid_actions(tb: _Tables, tm: int, sid: int) -> list[_Action]:
    return [a for a in tb.actions[sid]
            if (a.pos & ~tm) == 0 and (a.neg & tm) == 0]


def _idle_only(tb: _Tables, tm: int, sid: int, robot: int) -> bool:
    positions = tb.idstates[sid]
    cid = tb.idstate_cid[sid]
    idx = tb.node_class[(cid, positions[robot])]
    width = FORWARD_BIT | (0 if tb.classes[idx].symmetric else BACKWARD_BIT)
    return tm & (width << (3 * idx)) == 0


def _attractor(tb: _Tables, tm: int, trap: set[int], goal: set[int]) -> set[int]:
    reach = set(goal)
    frontier = True
    while frontier:
        frontier = False
        for sid in trap - reach:
            for a in _valid_actions(tb, tm, sid):
                if all(x in reach for x in a.succs):
                    reach.add(sid)
                    frontier = True
                    break
    return reach


def _service_states(tb: _Tables, tm: int, trap: set[int], robot: int) -> set[int]:
    out = set()
    for sid in trap:
        if _idle_only(tb, tm, sid, robot):
            out.add(sid)
            continue
        for a in _valid_actions(tb, tm, sid):
            if a.robot == robot and all(x in trap for x in a.succs):
                out.add(sid)
                break
    return out


def _fair_trap(tm: int, reachable_cids: set[int]) -> set[int]:
    """Largest set of identity states where a fair scheduler can keep the
    system forever: every state keeps a forcing action whose outcomes all stay
    inside, and every robot can always be steered to a state where it is
    serviceable (idle-support activation or being the forced mover)."""
    tb = _tables()
    trap = {
        sid for sid, cid in enumerate(tb.idstate_cid)
        if tb.canonical_cid[cid] in reachable_cids and tb.movebits[cid] & tm
    }
    while True:
        changed = False
        # Closure: each state needs an action staying inside the trap.
        pruning = True
        while pruning:
            pruning = False
            for sid in list(trap):
                if not any(all(x in trap for x in a.succs)
                           for a in _valid_actions(tb, tm, sid)):
                    trap.discard(sid)
                    pruning = changed = True
        if not trap:
            return trap
        # Fairness: every robot's service states must stay force-reachable.
        for robot in range(K):
            service = _service_states(tb, tm, trap, robot)
            shrunk = _attractor(tb, tm, trap, service)
            if shrunk != trap:
                trap = shrunk
                changed = True
        if not changed:
            return trap


def _service_ranks(tb: _Tables, tm: int, trap: set[int], robot: int) -> dict[int, int]:
    service = _service_states(tb, tm, trap, robot)
    rank = {sid: 0 for sid in service}
    level = 0
    grew = True
    while grew:
        grew = False
        level += 1
        for sid in trap:
            if sid in rank:
                continue
            for a in _valid_actions(tb, tm, sid):
                if all(x in rank and rank[x] < level for x in a.succs):
                    rank[sid] = level
                    grew = True
                    break
    return rank


def _strategy_cycle(tm: int, trap: set[int], entry: int) -> list[dict]:
    """Walk the servicing strategy from the entry state until a controller
    state repeats; the repeated segment services every robot and is the
    reported witness cycle."""
    tb = _tables()
    ranks = [_service_ranks(tb, tm, trap, q) for q in range(K)]

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
        if _idle_only(tb, tm, sid, q):
            emitted.append(emit(sid, None, q, "activate-idle"))
            q = (q + 1) % K
            continue
        direct = next((a for a in _valid_actions(tb, tm, sid)
                       if a.robot == q and all(x in trap for x in a.succs)), None)
        if direct is not None:
            emitted.append(emit(sid, direct, q, "force"))
            sid = direct.succs[0]
            q = (q + 1) % K
            continue
        rank = ranks[q]
        step = next(a for a in _valid_actions(tb, tm, sid)
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
    bad, parents, popped = _search(tm, mode)
    if bad is not None:
        witness = None
        if with_witness:
            cid, mask = bad
            witness = {
                "path": _path_witness(bad, parents),
                "terminal_config": list(tb.configs[cid]),
                "unvisited": sorted(i for i in range(N) if not mask >> i & 1),
            }
        return Certificate(BAD_TERMINAL, witness)
    trap = _fair_trap(tm, popped)
    if trap:
        witness = None
        if with_witness:
            entry = min(trap)
            entry_canon = canonical_form(tb.configs[tb.idstate_cid[entry]])
            entry_state = next(
                (state for state in parents if tb.configs[state[0]] == entry_canon), None)
            witness = {
                "entry_state": list(tb.idstates[entry]),
                "entry_config": list(tb.configs[tb.idstate_cid[entry]]),
                "entry_path": None if entry_state is None else _path_witness(entry_state, parents),
                "trap_size": len(trap),
                "trap_states": [list(tb.idstates[sid]) for sid in sorted(trap)],
                "cycle": _strategy_cycle(tm, trap, entry),
            }
        return Certificate(FORCING, witness)
    return Certificate(UNREFUTED, None)


# ---------------------------------------------------------------------------
# Certificate validation (independent replay)
# ---------------------------------------------------------------------------

def _outcome_bit(tb: _Tables, cid: int, node: int, dest: Optional[int]) -> int:
    idx = tb.node_class[(cid, node)]
    base = 3 * idx
    if dest is None:
        return IDLE_BIT << base
    if tb.classes[idx].symmetric:
        if dest not in ((node - 1) % N, (node + 1) % N):
            raise ValueError(f"{dest} is not adjacent to {node}")
        return FORWARD_BIT << base
    fwd, bwd = tb.node_edges[(cid, node)]
    if dest == fwd:
        return FORWARD_BIT << base
    if dest == bwd:
        return BACKWARD_BIT << base
    raise ValueError(f"{dest} is not adjacent to {node}")


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
        if tb.movebits[cid] & tm:
            raise ValueError("claimed terminal state is not terminal")
        if len(last["visited"]) == N:
            raise ValueError("claimed bad terminal has full coverage")
        return
    if cert.kind == FORCING:
        if cert.witness["entry_path"] is not None:
            _validate_path(tb, tm, cert.witness["entry_path"], mode)
            reached = tuple(cert.witness["entry_path"][-1]["config"])
            entry = tuple(cert.witness["entry_config"])
            if canonical_form(reached) != canonical_form(entry):
                raise ValueError("entry path does not reach the trap entry class")
        trap = {tuple(s) for s in cert.witness["trap_states"]}
        _validate_cycle(tb, tm, cert.witness["cycle"], trap)
        return
    raise ValueError(f"unknown certificate kind {cert.kind!r}")


def _validate_path(tb: _Tables, tm: int, path: list[dict], mode: str) -> None:
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


def _validate_cycle(tb: _Tables, tm: int, cycle: list[dict], trap: set) -> None:
    if not cycle:
        raise ValueError("empty forcing cycle")
    serviced = set()
    for j, row in enumerate(cycle):
        positions = tuple(row["state"])
        if positions not in trap:
            raise ValueError(f"cycle row {j}: state not in declared trap")
        cid = tb.idstate_cid[tb.idstate_id[positions]]
        if tb.movebits[cid] & tm == 0:
            raise ValueError(f"cycle row {j}: trap state is terminal")
        robot = row["robot"]
        nxt = tuple(cycle[(j + 1) % len(cycle)]["state"])
        if row["kind"] == "activate-idle":
            if not _idle_only(tb, tm, tb.idstate_id[positions], robot):
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
    single-decision equivalent and raise ValueError.
    """
    tb = _tables()
    c = as_config(c)
    idx = tb.class_by_view[view_key(c, i)]
    mask = table[idx]
    if tb.classes[idx].symmetric:
        return {
            1: robot_protocol.idle(),
            2: robot_protocol.move_adversary(),
            3: robot_protocol.try_move_adversary(),
        }[mask]
    direction = canonical_direction(c, i)
    fwd = (i + direction) % len(c)
    bwd = (i - direction) % len(c)
    if mask == 1:
        return robot_protocol.idle()
    if mask == 2:
        return robot_protocol.move(fwd)
    if mask == 3:
        return robot_protocol.try_move(fwd)
    if mask == 4:
        return robot_protocol.move(bwd)
    if mask == 5:
        return robot_protocol.try_move(bwd)
    raise ValueError("support with both directions has no single-decision form")


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


def _count_mode_job(args: tuple[str, int, int]) -> tuple[dict, dict]:
    return _count_mode(*args)


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
    for mode in modes:
        if jobs > 1:
            import multiprocessing

            chunk = (total + jobs - 1) // jobs
            ranges = [(mode, i * chunk, min((i + 1) * chunk, total)) for i in range(jobs)]
            with multiprocessing.Pool(jobs) as pool:
                parts = pool.map(_count_mode_job, ranges)
            counts = {BAD_TERMINAL: 0, FORCING: 0, UNREFUTED: 0}
            first: dict[str, int] = {}
            for part_counts, part_first in parts:
                for kind, value in part_counts.items():
                    counts[kind] += value
                for kind, idx in part_first.items():
                    if kind not in first or idx < first[kind]:
                        first[kind] = idx
        else:
            counts, first = _count_mode(mode, 0, total)
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
