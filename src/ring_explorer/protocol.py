"""Compute-phase rules for four robots exploring a ring of more than eight nodes.

``decide`` maps a snapshot and an occupied node to the decision every robot on
that node takes: stay idle, move across a specific edge, or try to move (a
fair coin decides whether the move happens).  When the deciding robot's view
is symmetric its two edges are interchangeable and the traversed edge is
picked by an adversary; such a decision moves with no target.

The protocol drives the system through three regimes: gather the four robots
into a single block of adjacent nodes, collapse the block's middle into a
two-robot tower (forming an arrow), then walk the arrow tail around the ring
until it reaches the node next to the head.  The first two regimes are one
rule, on the four hole lengths alone: the free runs between consecutive
robots.

Robots are anonymous and oblivious: each decides from its own snapshot, and
a rotation of the snapshot only rotates its hole vector.  So every snapshot
is decided directly from its occupied nodes, for every robot in one pass,
after the domain check; a bounded memo keeps the towerless movers per hole
vector.  ``decide`` reads one node's answer from that map, and remembers the
map of the last snapshot object it was asked about.  Equal decisions are one
shared ``Decision`` value.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import NamedTuple, Optional

from .ring import Configuration, find_arrow, is_towerless, occupied_nodes, segments

IDLE = "idle"
MOVE = "move"
TRY_MOVE = "try-move"


class ProtocolError(Exception):
    """The snapshot is outside the protocol's domain."""


class _DecisionFields(NamedTuple):
    kind: str
    target: Optional[int] = None


class Decision(_DecisionFields):
    """A robot's compute-phase output.

    ``target`` is the neighbor node to move to.  It is None for idle
    decisions, and for a move whose edge the adversary picks: a robot with a
    symmetric view names no edge.  This is the one validation boundary for
    decisions: the kind must be ``IDLE``, ``MOVE`` or ``TRY_MOVE`` and an
    idle decision has no target; anything else raises ValueError here,
    ``_make`` and ``_replace`` included.  The factories below are memoised,
    so the protocol pays the check once per distinct decision; ``move(None)``
    and ``try_move(None)`` are the adversary's moves.
    """

    __slots__ = ()

    def __new__(cls, kind: str, target: Optional[int] = None):
        if kind == IDLE:
            if target is not None:
                raise ValueError(f"an idle decision has no target, got {target=}")
        elif kind not in (MOVE, TRY_MOVE):
            raise ValueError(f"unknown decision kind {kind!r}")
        return super().__new__(cls, kind, target)

    @classmethod
    def _make(cls, iterable) -> "Decision":
        return cls(*iterable)

    @property
    def moves(self) -> bool:
        return self.kind != IDLE


@lru_cache(maxsize=None)
def idle() -> Decision:
    return Decision(IDLE)


@lru_cache(maxsize=None)
def move(target: Optional[int]) -> Decision:
    return Decision(MOVE, target)


@lru_cache(maxsize=None)
def try_move(target: Optional[int]) -> Decision:
    return Decision(TRY_MOVE, target)


def has_four_segment(c: Configuration) -> bool:
    return any(length == 4 for _, length in segments(c))


def phase(c: Configuration) -> str:
    """The protocol regime a snapshot is in.

    ``"final"`` (the terminal arrow), ``"arrow"`` (any other arrow),
    ``"four-segment"`` (towerless, four adjacent robots), ``"scatter"`` (any
    other towerless snapshot), or ``"invalid"`` (a tower outside an arrow).
    """
    arrow = find_arrow(c)
    if arrow is not None:
        return "final" if arrow.size == len(c) - 3 else "arrow"
    if not is_towerless(c):
        return "invalid"
    return "four-segment" if has_four_segment(c) else "scatter"


def decide(c: Configuration, i: int) -> Decision:
    """The decision of the robots on occupied node ``i`` of snapshot ``c``.

    A snapshot that is not a tuple raises TypeError.  A snapshot outside the
    domain (not four robots, or n <= 8) raises ProtocolError before a node
    that is not an integer, outside ``0..n-1`` or unoccupied raises
    ValueError; a bool counts as its int.  Nothing is cached per (snapshot,
    node): the answer is read from the map ``_rules`` builds once per
    snapshot.  Callers ask about one snapshot's nodes back to back, so the
    last snapshot's map is kept, tested by identity: snapshots are immutable
    tuples.
    """
    global _last, _last_decisions
    if c is not _last:
        if not isinstance(c, tuple):
            raise TypeError(f"a snapshot must be a tuple, got {type(c).__name__}")
        n = len(c)
        if n <= 8 or sum(c) != 4:
            raise ProtocolError(f"out of protocol domain: need k=4 and n>8, got k={sum(c)}, n={n}")
        _last_decisions = _rules(c)  # raises before the memo moves
        _last = c
    if type(i) is not int:
        try:
            i = operator.index(i)
        except TypeError:
            raise ValueError(f"node must be an integer, got {i!r}") from None
    decisions = _last_decisions
    if i in decisions:
        return decisions[i]
    n = len(c)
    if not 0 <= i < n:
        raise ValueError(f"node index {i} out of range for n={n}")
    raise ValueError(f"node {i} is not occupied")


_last: Optional[Configuration] = None
_last_decisions: dict[int, Decision] = {}


def _rules(c: Configuration) -> dict[int, Decision]:
    """Every occupied node's decision, read from the occupied nodes ``p``.

    A towerless snapshot goes to the gathering rules, which read only its
    four hole lengths; their movers are mapped back to nodes here.  On an
    arrow only the tail moves, one step into the hole that separates it from
    the head, unless the arrow is final (terminal).  Every robot no rule
    names idles.  A tower outside an arrow is rejected: those snapshots are
    unreachable.  Neither k nor n is checked here: ``decide`` checks the domain.
    """
    n = len(c)
    p = occupied_nodes(c)
    out = dict.fromkeys(p, idle())
    if len(p) == 4:
        a, b, d, e = p
        for j, (how, step) in _gathering((b - a - 1, d - b - 1, e - d - 1, n - 1 + a - e)).items():
            out[p[j]] = (move if how == MOVE else try_move)((p[j] + step) % n if step else None)
        return out
    arrow = find_arrow(c)
    if arrow is None:
        raise ProtocolError("unsupported configuration: tower without an arrow")
    if arrow.size != n - 3:
        out[arrow.tail] = move((arrow.tail - arrow.orientation) % n)
    return out


# ---------------------------------------------------------------------------
# Gathering (towerless)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1 << 14)
def _gathering(h: tuple[int, int, int, int]) -> dict[int, tuple[str, int]]:
    """Towerless rules on the cyclic hole vector; returns the movers, as a
    memoised dict that callers share and must not mutate.

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

