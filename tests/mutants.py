"""Deliberate protocol mutations shared by the checker and acceptance tests,
to show that the checks catch a faulty protocol."""

from ring_explorer import protocol
from ring_explorer.ring import find_arrow, holes, is_towerless, segments


def shortest_hole_mutant(c, i):
    """Gathering fault: with four isolated robots, everyone dives into its
    shortest neighboring hole (possibly of length 1)."""
    if is_towerless(c) and sorted(s.length for s in segments(c)) == [1, 1, 1, 1]:
        if c[i]:
            mine = [h for h in holes(c) if i in h.neighbors]
            shortest = min(mine, key=lambda h: h.length)
            return protocol.try_move(shortest.entry_from(i))
    return protocol.decide(c, i)


def gap_filler_mutant(c, i):
    """Gathering fault: in a scatter, a robot next to a one-node hole moves
    into it.  One robot alone never makes a tower this way; both neighbours
    of the hole landing in the same step do."""
    if protocol.phase(c) == "scatter" and c[i]:
        gaps = [h for h in holes(c) if h.length == 1 and i in h.neighbors]
        if gaps:
            return protocol.move(gaps[0].entry_from(i))
    return protocol.decide(c, i)


def flipped_tail_mutant(c, i):
    """Tail-walk fault: the tail steps toward the tower instead of away."""
    arrow = find_arrow(c)
    if arrow is not None and arrow.size < len(c) - 3 and i == arrow.tail:
        return protocol.move((arrow.tail + arrow.orientation) % len(c))
    return protocol.decide(c, i)


def idle_tail_mutant(c, i):
    """Tail-walk fault: the tail of a non-final arrow idles, so it never grows."""
    arrow = find_arrow(c)
    if arrow is not None and arrow.size < len(c) - 3 and i == arrow.tail:
        return protocol.idle()
    return protocol.decide(c, i)


def final_mover_mutant(c, i):
    """Termination fault: the final arrow's tail keeps walking, so the
    arrow that should end the run is not terminal."""
    arrow = find_arrow(c)
    if arrow is not None and arrow.size == len(c) - 3 and i == arrow.tail:
        return protocol.move((arrow.tail - arrow.orientation) % len(c))
    return protocol.decide(c, i)
