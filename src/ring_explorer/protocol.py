"""Compute-phase rules for four robots exploring a ring of more than eight nodes.

``decide`` maps a snapshot and an occupied node to the decision every robot on
that node takes: stay idle, move across a specific edge, or try to move (a
fair coin decides whether the move happens).  When the deciding robot's view
is symmetric its two edges are interchangeable and the traversed edge is
picked by an adversary; decisions carry that as an explicit flag.

The protocol drives the system through three regimes: gather the four robots
into a single block of adjacent nodes, collapse the block's middle into a
two-robot tower (forming an arrow), then walk the arrow tail around the ring
until it reaches the node next to the head.  The first two regimes are one
rule, on the four hole lengths alone: the free runs between consecutive
robots.

Robots are anonymous, so the rules give the same answer, rotated, on every
rotation of a snapshot.  Each regime's rule decides for every robot of a
snapshot in one pass, and runs once per rotation class: on its
representative, the least rotation that starts at an occupied node.  A
bounded memo keeps each representative's decisions, which are mapped back to
the snapshot's nodes once per snapshot, after the domain check; ``decide``
reads one node's answer from that map, and remembers the map of the last
snapshot object it was asked about.  Equal decisions are one shared
``Decision`` value.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from typing import NamedTuple, Optional

from .ring import Configuration, find_arrow, has_tower, occupied_nodes, segments

IDLE = "idle"
MOVE = "move"
TRY_MOVE = "try-move"


class ProtocolError(Exception):
    """The snapshot is outside the protocol's domain."""


class Decision(NamedTuple):
    """A robot's compute-phase output.

    ``target`` is the neighbor node to move to; it is None for idle decisions
    and for moves whose edge is adversary-chosen (``adversary=True``).
    """

    kind: str
    target: Optional[int] = None
    adversary: bool = False

    @property
    def moves(self) -> bool:
        return self.kind != IDLE


@lru_cache(maxsize=None)
def idle() -> Decision:
    return Decision(IDLE)


@lru_cache(maxsize=None)
def move(target: int) -> Decision:
    return Decision(MOVE, target)


@lru_cache(maxsize=None)
def move_adversary() -> Decision:
    return Decision(MOVE, None, adversary=True)


@lru_cache(maxsize=None)
def try_move(target: int) -> Decision:
    return Decision(TRY_MOVE, target)


@lru_cache(maxsize=None)
def try_move_adversary() -> Decision:
    return Decision(TRY_MOVE, None, adversary=True)


def has_four_segment(c: Configuration) -> bool:
    return any(s.length == 4 for s in segments(c))


def phase(c: Configuration) -> str:
    """The protocol regime a snapshot is in.

    ``"final"`` (the terminal arrow), ``"arrow"`` (any other arrow),
    ``"four-segment"`` (towerless, four adjacent robots), ``"scatter"`` (any
    other towerless snapshot), or ``"invalid"`` (a tower outside an arrow).
    """
    arrow = find_arrow(c)
    if arrow is not None:
        return "final" if arrow.size == len(c) - 3 else "arrow"
    if has_tower(c):
        return "invalid"
    return "four-segment" if has_four_segment(c) else "scatter"


def decide(c: Configuration, i: int) -> Decision:
    """The decision of the robots on occupied node ``i`` of snapshot ``c``.

    A snapshot outside the domain (not four robots, or n <= 8) raises
    ProtocolError before a node outside ``0..n-1`` or an unoccupied ``i``
    raises ValueError.  Nothing is cached per (snapshot, node): the answer
    is read from the map ``_decisions`` builds once per snapshot.  Callers
    ask about one snapshot's nodes back to back, so the last snapshot's map
    is kept, tested by identity: snapshots are immutable tuples.
    """
    global _last, _last_decisions
    if c is not _last:
        _last_decisions = _decisions(c)  # raises before the memo moves
        _last = c
    decisions = _last_decisions
    if i in decisions:
        return decisions[i]
    n = len(c)
    if not 0 <= i < n:
        raise ValueError(f"node index {i} out of range for n={n}")
    raise ValueError(f"node {i} is not occupied")


_last: Optional[Configuration] = None
_last_decisions: dict[int, Decision] = {}


def _decisions(c: Configuration) -> dict[int, Decision]:
    """Every occupied node's decision: the rules of ``c``'s representative,
    the least of its rotations that start at an occupied node (the same
    tuple for every rotation of ``c``), with each node and target moved back
    by the shift to it.  A snapshot outside the domain raises ProtocolError."""
    n = len(c)
    if n <= 8 or sum(c) != 4:
        raise ProtocolError(f"out of protocol domain: need k=4 and n>8, got k={sum(c)}, n={n}")
    cc = c + c
    rep = None
    for r in compress(range(n), c):
        rotation = cc[r:r + n]
        if rep is None or rotation < rep:
            rep, shift = rotation, r
    rules = _rules(rep)
    if not shift:
        return rules
    out = {}
    for v, d in rules.items():
        if d.target is not None:
            d = (move if d.kind == MOVE else try_move)((d.target + shift) % n)
        out[(v + shift) % n] = d
    return out


@lru_cache(maxsize=1 << 14)
def _rules(c: Configuration) -> dict[int, Decision]:
    """Every occupied node's decision, by the snapshot's phase.

    Final arrow: everyone idles (terminal).  An arrow goes to the tail walk.
    A towerless snapshot goes to the gathering rules, which read only its
    four hole lengths; their movers are mapped back to nodes here.  Every
    robot no rule names idles.  A tower outside an arrow is rejected: those
    snapshots are unreachable.  Kept for the representatives ``_decisions``
    asks about, one per rotation class; ``_rules.__wrapped__`` is the rules
    with no memo.
    """
    kind = phase(c)
    if kind == "invalid":
        raise ProtocolError("unsupported configuration: tower without an arrow")
    out = dict.fromkeys(occupied_nodes(c), idle())
    if kind == "arrow":
        out.update(_tail_walk(c))
    elif kind != "final":
        n = len(c)
        p = tuple(out)
        h = tuple((p[(j + 1) % 4] - p[j] - 1) % n for j in range(4))
        for j, (how, step) in _gathering(h).items():
            if step:
                out[p[j]] = (move if how == MOVE else try_move)((p[j] + step) % n)
            else:
                out[p[j]] = move_adversary() if how == MOVE else try_move_adversary()
    return out


# ---------------------------------------------------------------------------
# Gathering (towerless)
# ---------------------------------------------------------------------------

def _gathering(h: tuple[int, int, int, int]) -> dict[int, tuple[str, int]]:
    """Towerless rules on the cyclic hole vector; returns the movers.

    Robot j sits between hole j-1 and hole j, where ``h[j]`` counts the free
    nodes from robot j to robot j+1.  A mover is ``j: (kind, step)``: step +1
    enters hole j, -1 enters hole j-1, 0 lets the adversary pick.  By segment
    lengths (a segment per nonzero hole):

    {4}: the two inner robots each try to move onto the other; a lone success
    forms the two-robot tower, a double success is a swap.
    {3,1}: the isolated robot heads for the block through its shorter hole.
    {2,1,1}: the isolated robot(s) nearest the pair close in on it.
    {2,2}, and {1,1,1,1} when every robot borders a longest hole: the robots
    bordering a longest hole try to cross it; one that borders two heads for
    the smaller reading of its view, or lets the adversary pick when its view
    is symmetric.
    Any other {1,1,1,1}: a robot that borders exactly one longest hole moves
    away from it, so that simultaneous moves never land two robots on one node.
    """
    gaps = [j for j in range(4) if h[j]]
    if len(gaps) == 1:  # robots g+1, g+2, g+3, g in a row
        g = gaps[0]
        return {(g + 2) % 4: (TRY_MOVE, 1), (g + 3) % 4: (TRY_MOVE, -1)}
    if len(gaps) == 3:  # the pair is robots z, z+1
        z = h.index(0)
        # Robot z+2 reaches the pair back through hole z+1, z+3 on through hole z+3.
        routes = {(z + 2) % 4: (h[z - 3], -1), (z + 3) % 4: (h[z - 1], 1)}
        near = min(h[z - 3], h[z - 1])
        return {r: (MOVE, step) for r, (hole, step) in routes.items() if hole == near}
    if len(gaps) == 2 and gaps[1] - gaps[0] != 2:  # adjacent holes: {3,1}
        iso = next(j for j in gaps if h[j - 1])
        ahead, behind = h[iso], h[iso - 1]
        return {iso: (MOVE, (ahead < behind) - (ahead > behind))}
    lmax = max(h)
    bordering = [j for j in range(4) if lmax in (h[j], h[j - 1])]
    if len(gaps) == 4 and len(bordering) < 4:
        return {j: (MOVE, 1 if h[j] < lmax else -1) for j in bordering if h[j] != h[j - 1]}
    return {j: (TRY_MOVE, _smaller_reading(h, j)) for j in bordering}


def _smaller_reading(h: tuple[int, int, int, int], j: int) -> int:
    """The direction (+1/-1) in which robot j's view reads lexicographically
    smaller, or 0 when the view is symmetric.  A reading alternates robots
    and free runs, so a longer first free run sorts first: the larger tuple
    of hole lengths is the smaller reading.  A robot bordering one longest
    hole reads smaller toward it."""
    forward = h[j:] + h[:j]
    backward = (h[j - 1], h[j - 2], h[j - 3], h[j - 4])
    return (forward > backward) - (forward < backward)


# ---------------------------------------------------------------------------
# Tail walk (non-final arrow)
# ---------------------------------------------------------------------------

def _tail_walk(c: Configuration) -> dict[int, Decision]:
    """Only the arrow tail moves: one step into the hole that separates it
    from the head, growing the arrow by one.  Fully deterministic."""
    arrow = find_arrow(c)
    return {arrow.tail: move((arrow.tail - arrow.orientation) % len(c))}
