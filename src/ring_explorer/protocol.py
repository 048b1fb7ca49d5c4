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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .ring import (
    Configuration,
    Hole,
    canonical_direction,
    find_arrow,
    has_tower,
    holes,
    segments,
)

IDLE = "idle"
MOVE = "move"
TRY_MOVE = "try-move"


class ProtocolError(Exception):
    """The snapshot is outside the protocol's domain."""


@dataclass(frozen=True)
class Decision:
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


def idle() -> Decision:
    return Decision(IDLE)


def move(target: int) -> Decision:
    return Decision(MOVE, target)


def move_adversary() -> Decision:
    return Decision(MOVE, None, adversary=True)


def try_move(target: int) -> Decision:
    return Decision(TRY_MOVE, target)


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


@lru_cache(maxsize=1 << 16)
def decide(c: Configuration, i: int) -> Decision:
    """Top-level dispatch on the snapshot's phase.

    Final arrow: everyone idles (terminal).  A 4-segment goes to the tower
    formation rule, an arrow to the tail walk, a scatter to the gathering
    rules.  A tower outside an arrow is rejected: those snapshots are
    unreachable.
    """
    n = len(c)
    if n <= 8 or sum(c) != 4:
        raise ProtocolError(f"out of protocol domain: need k=4 and n>8, got k={sum(c)}, n={n}")
    if c[i] < 1:
        raise ValueError(f"node {i} is not occupied")
    kind = phase(c)
    if kind == "final":
        return idle()
    if kind == "four-segment":
        return _phase2_decide(c, i)
    if kind == "arrow":
        return _phase3_decide(c, i)
    if kind == "invalid":
        raise ProtocolError("unsupported configuration: tower without an arrow")
    return _phase1_decide(c, i)


# ---------------------------------------------------------------------------
# Gathering (towerless, no 4-segment)
# ---------------------------------------------------------------------------

def _holes_by_neighbor(hole_list: tuple[Hole, ...]) -> dict[int, list[Hole]]:
    out: dict[int, list[Hole]] = {}
    for h in hole_list:
        for v in h.neighbors:
            out.setdefault(v, []).append(h)
    return out


def _phase1_decide(c: Configuration, i: int) -> Decision:
    """Gathering rules, by segment-length multiset.

    {3,1}: the isolated robot heads for the block through its shorter hole.
    {2,1,1}: the isolated robot(s) nearest the pair close in on it.
    {2,2}: the robots bordering a longest hole try to cross it.
    {1,1,1,1}: movers are picked from how many robots border a longest hole
    (all four / exactly three / exactly two), so that simultaneous moves can
    never land two robots on one node.
    """
    segs = segments(c)
    hls = holes(c)
    lengths = sorted(s.length for s in segs)
    by_neighbor = _holes_by_neighbor(hls)

    if lengths == [1, 3]:
        iso = next(s.start for s in segs if s.length == 1)
        if i != iso:
            return idle()
        near, far = sorted(by_neighbor[i], key=lambda h: h.length)
        if near.length == far.length:
            # Both routes to the block are equally long; the view is symmetric.
            return move_adversary()
        return move(near.entry_from(i))

    if lengths == [1, 1, 2]:
        pair = next(s for s in segs if s.length == 2)
        pair_nodes = set(pair.nodes(len(c)))
        # Each isolated robot touches exactly one hole bordering the pair.
        link: dict[int, Hole] = {}
        for s in segs:
            if s.length != 1:
                continue
            link[s.start] = next(
                h for h in by_neighbor[s.start]
                if (set(h.neighbors) - {s.start}) & pair_nodes
            )
        best = min(link[r].length for r in link)
        if i in link and link[i].length == best:
            return move(link[i].entry_from(i))
        return idle()

    if lengths == [2, 2]:
        lmax = max(h.length for h in hls)
        mine = [h for h in by_neighbor.get(i, []) if h.length == lmax]
        if not mine:
            return idle()
        return try_move(mine[0].entry_from(i))

    # Four isolated robots.
    lmax = max(h.length for h in hls)
    touching = {s.start: [h for h in by_neighbor[s.start] if h.length == lmax] for s in segs}
    bordering = [r for r, hs in touching.items() if hs]

    if len(bordering) == 4:
        mine = touching[i]
        if len(mine) == 1:
            return try_move(mine[0].entry_from(i))
        direction = canonical_direction(c, i)
        if direction is None:
            return try_move_adversary()
        return try_move((i + direction) % len(c))

    if len(bordering) == 3:
        if i in touching and len(touching[i]) == 1:
            shorter = min(by_neighbor[i], key=lambda h: h.length)
            return move(shorter.entry_from(i))
        return idle()

    # Exactly two robots border the unique longest hole.
    if i in touching and touching[i]:
        other = next(h for h in by_neighbor[i] if h.length != lmax)
        return move(other.entry_from(i))
    return idle()


# ---------------------------------------------------------------------------
# Tower formation (4-segment)
# ---------------------------------------------------------------------------

def _phase2_decide(c: Configuration, i: int) -> Decision:
    """The two inner robots of the 4-segment each try to move onto the other;
    a lone success forms the two-robot tower, a double success is a swap."""
    n = len(c)
    seg = next(s for s in segments(c) if s.length == 4)
    inner = ((seg.start + 1) % n, (seg.start + 2) % n)
    if i == inner[0]:
        return try_move(inner[1])
    if i == inner[1]:
        return try_move(inner[0])
    return idle()


# ---------------------------------------------------------------------------
# Tail walk (non-final arrow)
# ---------------------------------------------------------------------------

def _phase3_decide(c: Configuration, i: int) -> Decision:
    """Only the arrow tail moves: one step into the hole that separates it
    from the head, growing the arrow by one.  Fully deterministic."""
    arrow = find_arrow(c)
    if i == arrow.tail:
        return move((arrow.tail - arrow.orientation) % len(c))
    return idle()
