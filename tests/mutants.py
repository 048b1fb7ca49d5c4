"""Deliberate protocol mutations shared by the checker and acceptance tests,
to show that the checks catch a faulty protocol."""

from ring_explorer import protocol
from ring_explorer.ring import find_arrow, is_towerless, segments


def _free_runs(c, i):
    """The free runs on either side of occupied node ``i``, as ``(length,
    step)`` with ``step`` the move into the run, found by walking to the
    nearest occupied node each way.  They come in ring order from the first
    occupied node, so the run behind ``i`` comes first unless the robot
    behind has the larger index; ties go to the first."""
    n = len(c)

    def walk(step):
        j = 1
        while not c[(i + step * j) % n]:
            j += 1
        return j

    ahead, behind = walk(1), walk(-1)
    runs = [(behind - 1, -1), (ahead - 1, 1)]
    return runs if (i - behind) % n < i else runs[::-1]


def shortest_hole_mutant(c, i):
    """Gathering fault: with four isolated robots, everyone dives into its
    shortest neighboring hole (possibly of length 1)."""
    if is_towerless(c) and sorted(length for _, length in segments(c)) == [1, 1, 1, 1]:
        if c[i]:
            _, step = min(_free_runs(c, i), key=lambda run: run[0])
            return protocol.try_move((i + step) % len(c))
    return protocol.decide(c, i)


def stuck_scatter_mutant(c, i):
    """Termination fault: in a scatter of one 2-segment and two lone robots,
    every robot idles, so a run that reaches one stops there.  No step
    makes a tower, so every one-step check passes."""
    if c[i] and protocol.phase(c) == "scatter":
        if sorted(length for _, length in segments(c)) == [1, 1, 2]:
            return protocol.idle()
    return protocol.decide(c, i)


def gap_filler_mutant(c, i):
    """Gathering fault: in a scatter, a robot next to a one-node hole moves
    into it.  One robot alone never makes a tower this way; both neighbours
    of the hole landing in the same step do."""
    if protocol.phase(c) == "scatter" and c[i]:
        gaps = [step for length, step in _free_runs(c, i) if length == 1]
        if gaps:
            return protocol.move((i + gaps[0]) % len(c))
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


def lander_mutant(c, i):
    """Gathering fault: in a scatter, a robot with an occupied neighbour
    moves onto it, the node ahead first.  The tower forms on a robot that
    stays put, so a check must count a robot's own node among its landing
    spots to see it."""
    if c[i] and protocol.phase(c) == "scatter":
        n = len(c)
        for step in (1, -1):
            if c[(i + step) % n]:
                return protocol.move((i + step) % n)
    return protocol.decide(c, i)
