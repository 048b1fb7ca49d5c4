"""Value-level model of robot configurations on an anonymous, unoriented ring.

A configuration is a ``Configuration``: the tuple of robot multiplicities per
node.  Node indices are bookkeeping only: two configurations are the same
situation whenever one is a rotation of the other or of its reversal, and
every externally meaningful comparison goes through ``canonical_form``.

Input from outside the package is validated once, by ``as_config`` (any
sequence of integers) or ``parse_config`` (the comma-separated text form).
Every other function here takes a ``Configuration`` tuple as it is and does
not re-check it.  ``canonical_form``, ``segments`` and ``find_arrow`` are
cached on that tuple.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, compress
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

Configuration = tuple[int, ...]

_CACHE_SIZE = 1 << 16


def as_config(values: Sequence[int] | Iterable[int]) -> Configuration:
    """Normalize any multiplicity sequence into a validated tuple.  Every
    value must be an integer: a float or a string is rejected, not cut."""
    values = iter(values)  # outside the try: a non-iterable stays a TypeError
    try:
        c = tuple(map(operator.index, values))
    except TypeError as exc:
        raise ValueError(f"multiplicities must be integers: {exc}") from None
    if len(c) < 3:
        raise ValueError("configuration needs at least 3 nodes")
    if any(v < 0 for v in c):
        raise ValueError("multiplicities must be non-negative")
    return c


def parse_config(text: str) -> Configuration:
    """Parse the comma-separated text form, e.g. ``"1,0,2,1,0,0,0,0,0"``."""
    return as_config(int(part) for part in text.split(","))


def format_config(c: Sequence[int]) -> str:
    return ",".join(str(v) for v in c)


def configurations(n: int, k: int) -> Iterator[Configuration]:
    """Every configuration of k robots on n nodes, in the order
    ``combinations_with_replacement`` lists their node multisets."""
    for nodes in combinations_with_replacement(range(n), k):
        c = [0] * n
        for node in nodes:
            c[node] += 1
        yield tuple(c)


def occupied_nodes(c: Configuration) -> tuple[int, ...]:
    return tuple(compress(range(len(c)), c))


def is_towerless(c: Configuration) -> bool:
    return max(c) <= 1


# ---------------------------------------------------------------------------
# Symmetries
# ---------------------------------------------------------------------------

def rotate(c: Configuration, i: int) -> Configuration:
    """Rotation: node j of the result reads node j+i of the input."""
    n = len(c)
    i %= n
    return c[i:] + c[:i]


def mirror(c: Configuration) -> Configuration:
    """Reversal about node 0; an involution."""
    n = len(c)
    return tuple(c[(n - j) % n] for j in range(n))


@lru_cache(maxsize=_CACHE_SIZE)
def canonical_form(c: Configuration) -> Configuration:
    """Lexicographically smallest rotation of c or of its mirror.

    Equal canonical forms characterize indistinguishability, so this is the
    representative to key sets and maps by.
    """
    n = len(c)
    m = mirror(c)
    return min(min(rotate(c, i) for i in range(n)), min(rotate(m, i) for i in range(n)))


# ---------------------------------------------------------------------------
# Views
# ---------------------------------------------------------------------------

def view_of(c: Configuration, i: int) -> tuple[Configuration, Configuration]:
    """The two multiplicity sequences read from node i, ``(forward,
    backward)``; an anonymous robot sees them as the sorted pair."""
    n = len(c)
    if not 0 <= i < n:
        raise ValueError(f"node index {i} out of range for n={n}")
    forward = tuple(c[(i + j) % n] for j in range(n))
    backward = tuple(c[(i - j) % n] for j in range(n))
    return forward, backward


def canonical_direction(c: Configuration, i: int) -> Optional[int]:
    """Direction (+1/-1) whose reading from node i is lexicographically smaller.

    None when the view is symmetric.  Because the rule only looks at the view,
    it is invariant under rotation and flips sign under reflection, which makes
    it a legitimate tie-breaker for anonymous robots.
    """
    forward, backward = view_of(c, i)
    if forward == backward:
        return None
    return 1 if forward < backward else -1


# ---------------------------------------------------------------------------
# Segments, arrows
# ---------------------------------------------------------------------------

class Segment(NamedTuple):
    """Maximal run of occupied nodes: covers start, start+1, ..., length nodes."""

    start: int
    length: int


@lru_cache(maxsize=_CACHE_SIZE)
def segments(c: Configuration) -> tuple[Segment, ...]:
    """All maximal occupied runs, in ring order from the first free node."""
    if not any(c):
        return ()
    if 0 not in c:
        raise ValueError("no free node")
    n = len(c)
    anchor = c.index(0)
    out = []
    start = None
    for j in range(anchor + 1, anchor + n + 1):  # ends on the free anchor
        if c[j % n]:
            if start is None:
                start = j
        elif start is not None:
            out.append(Segment(start % n, j - start))
            start = None
    return tuple(out)


@dataclass(frozen=True)
class Arrow:
    """One robot (tail), a run of free nodes, a two-robot tower, one robot (head).

    ``size`` counts the free nodes between tail and tower; ``orientation`` is
    the index step that walks the path tail -> frees -> tower -> head.
    """

    tail: int
    head: int
    tower: int
    size: int
    orientation: int


@lru_cache(maxsize=_CACHE_SIZE)
def find_arrow(c: Configuration) -> Optional[Arrow]:
    """The unique arrow of the configuration, or None.

    Three occupied nodes hold 1, 1 and 2 robots.  The tower's next occupied
    node in one direction is the head, with no free node between; the next
    in the other direction is the tail, with at least one free node between.
    """
    p = occupied_nodes(c)
    if len(p) != 3 or sum(c) != 4:
        return None
    n = len(c)
    tower = c.index(2)
    t = p.index(tower)
    before, after = p[t - 1], p[(t + 1) % 3]
    ahead, behind = (after - tower - 1) % n, (tower - before - 1) % n
    if not ahead and behind:
        return Arrow(tail=before, head=after, tower=tower, size=behind, orientation=1)
    if not behind and ahead:
        return Arrow(tail=after, head=before, tower=tower, size=ahead, orientation=-1)
    return None
