"""Compute-phase rules for four robots exploring a ring of more than eight nodes.

``decide`` maps a snapshot and an occupied node to the decision every robot on
that node takes: stay idle, move across a specific edge, or try to move (a
fair coin decides whether the move happens).  When the deciding robot's view
is symmetric its two edges are interchangeable and the traversed edge is
picked by an adversary; decisions carry that as an explicit flag.

The protocol drives the system through three regimes: gather the four robots
into a single block of adjacent nodes, collapse the block's middle into a
two-robot tower (forming an arrow), then walk the arrow tail around the ring
until it reaches the node next to the head.

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

from .ring import (
    Configuration,
    Hole,
    canonical_direction,
    find_arrow,
    has_tower,
    holes,
    occupied_nodes,
    segments,
)

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

    Final arrow: everyone idles (terminal).  A 4-segment goes to the tower
    formation rule, an arrow to the tail walk, a scatter to the gathering
    rules; each rule names its movers, and every other robot idles.  A tower
    outside an arrow is rejected: those snapshots are unreachable.  Kept for
    the representatives ``_decisions`` asks about, one per rotation class;
    ``_rules.__wrapped__`` is the rules with no memo.
    """
    kind = phase(c)
    if kind == "invalid":
        raise ProtocolError("unsupported configuration: tower without an arrow")
    out = dict.fromkeys(occupied_nodes(c), idle())
    if kind == "four-segment":
        out.update(_tower_formation(c))
    elif kind == "arrow":
        out.update(_tail_walk(c))
    elif kind == "scatter":
        out.update(_gathering(c))
    return out


# ---------------------------------------------------------------------------
# Gathering (towerless, no 4-segment)
# ---------------------------------------------------------------------------

def _holes_by_neighbor(hole_list: tuple[Hole, ...]) -> dict[int, list[Hole]]:
    out: dict[int, list[Hole]] = {}
    for h in hole_list:
        for v in h.neighbors:
            out.setdefault(v, []).append(h)
    return out


def _gathering(c: Configuration) -> dict[int, Decision]:
    """Gathering rules, by segment-length multiset; returns the movers.

    {3,1}: the isolated robot heads for the block through its shorter hole.
    {2,1,1}: the isolated robot(s) nearest the pair close in on it.
    {2,2}: the robots bordering a longest hole try to cross it.
    {1,1,1,1}: movers are picked from how many robots border a longest hole
    (all four / exactly three / exactly two), so that simultaneous moves can
    never land two robots on one node.
    """
    n = len(c)
    segs = segments(c)
    hls = holes(c)
    lengths = sorted(s.length for s in segs)
    by_neighbor = _holes_by_neighbor(hls)

    if lengths == [1, 3]:
        iso = next(s.start for s in segs if s.length == 1)
        near, far = sorted(by_neighbor[iso], key=lambda h: h.length)
        if near.length == far.length:
            # Both routes to the block are equally long; the view is symmetric.
            return {iso: move_adversary()}
        return {iso: move(near.entry_from(iso))}

    if lengths == [1, 1, 2]:
        pair = next(s for s in segs if s.length == 2)
        pair_nodes = set(pair.nodes(n))
        # Each isolated robot touches exactly one hole bordering the pair.
        link = {
            s.start: next(h for h in by_neighbor[s.start]
                          if (set(h.neighbors) - {s.start}) & pair_nodes)
            for s in segs if s.length == 1
        }
        best = min(h.length for h in link.values())
        return {r: move(h.entry_from(r)) for r, h in link.items() if h.length == best}

    lmax = max(h.length for h in hls)
    touching = {r: [h for h in hs if h.length == lmax] for r, hs in by_neighbor.items()}
    bordering = [r for r, hs in touching.items() if hs]

    if lengths == [2, 2]:
        return {r: try_move(touching[r][0].entry_from(r)) for r in bordering}

    # Four isolated robots.
    if len(bordering) == 4:
        out = {}
        for r, mine in touching.items():
            if len(mine) == 1:
                out[r] = try_move(mine[0].entry_from(r))
                continue
            direction = canonical_direction(c, r)
            out[r] = try_move_adversary() if direction is None else try_move((r + direction) % n)
        return out

    if len(bordering) == 3:
        return {r: move(min(by_neighbor[r], key=lambda h: h.length).entry_from(r))
                for r in bordering if len(touching[r]) == 1}

    # Exactly two robots border the unique longest hole.
    return {r: move(next(h for h in by_neighbor[r] if h.length != lmax).entry_from(r))
            for r in bordering}


# ---------------------------------------------------------------------------
# Tower formation (4-segment)
# ---------------------------------------------------------------------------

def _tower_formation(c: Configuration) -> dict[int, Decision]:
    """The two inner robots of the 4-segment each try to move onto the other;
    a lone success forms the two-robot tower, a double success is a swap."""
    n = len(c)
    start = next(s.start for s in segments(c) if s.length == 4)
    first, second = (start + 1) % n, (start + 2) % n
    return {first: try_move(second), second: try_move(first)}


# ---------------------------------------------------------------------------
# Tail walk (non-final arrow)
# ---------------------------------------------------------------------------

def _tail_walk(c: Configuration) -> dict[int, Decision]:
    """Only the arrow tail moves: one step into the hole that separates it
    from the head, growing the arrow by one.  Fully deterministic."""
    arrow = find_arrow(c)
    return {arrow.tail: move((arrow.tail - arrow.orientation) % len(c))}
