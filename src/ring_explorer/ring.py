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
from itertools import combinations_with_replacement
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
    return tuple(i for i, v in enumerate(c) if v > 0)


def is_towerless(c: Configuration) -> bool:
    return max(c) <= 1


def has_tower(c: Configuration) -> bool:
    return max(c) >= 2


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

@dataclass(frozen=True)
class View:
    """The two multiplicity sequences read from a node, one per direction."""

    forward: Configuration
    backward: Configuration

    @property
    def symmetric(self) -> bool:
        return self.forward == self.backward

    def as_pair(self) -> tuple[Configuration, Configuration]:
        """Unordered form: the sorted pair, what an anonymous robot sees."""
        return tuple(sorted((self.forward, self.backward)))  # type: ignore[return-value]


def view_of(c: Configuration, i: int) -> View:
    n = len(c)
    if not 0 <= i < n:
        raise ValueError(f"node index {i} out of range for n={n}")
    forward = tuple(c[(i + j) % n] for j in range(n))
    backward = tuple(c[(i - j) % n] for j in range(n))
    return View(forward, backward)


def canonical_direction(c: Configuration, i: int) -> Optional[int]:
    """Direction (+1/-1) whose reading from node i is lexicographically smaller.

    None when the view is symmetric.  Because the rule only looks at the view,
    it is invariant under rotation and flips sign under reflection, which makes
    it a legitimate tie-breaker for anonymous robots.
    """
    v = view_of(c, i)
    if v.symmetric:
        return None
    return 1 if v.forward < v.backward else -1


# ---------------------------------------------------------------------------
# Segments, holes, arrows
# ---------------------------------------------------------------------------

class Segment(NamedTuple):
    """Maximal run of occupied nodes: covers start, start+1, ..., length nodes."""

    start: int
    length: int

    def nodes(self, n: int) -> tuple[int, ...]:
        return tuple((self.start + j) % n for j in range(self.length))


class Hole(NamedTuple):
    """Maximal run of free nodes, with its end nodes and occupied neighbors."""

    start: int
    length: int
    extremities: tuple[int, int]
    neighbors: tuple[int, int]

    def entry_from(self, node: int) -> int:
        """First hole node seen from an adjacent occupied node."""
        if node == self.neighbors[0]:
            return self.extremities[0]
        if node == self.neighbors[1]:
            return self.extremities[1]
        raise ValueError(f"node {node} is not a neighbor of this hole")


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


def holes(c: Configuration) -> tuple[Hole, ...]:
    """All maximal free runs, in ring order from the first occupied node; each
    carries its end nodes and occupied neighbors.  Read off ``segments``: the
    holes are the gaps between consecutive segments."""
    if not any(c):
        raise ValueError("no occupied node")
    if 0 not in c:
        return ()
    n = len(c)
    segs = segments(c)
    if c[0]:  # node 0's segment comes last in ``segs``, and its gap first here
        segs = segs[-1:] + segs[:-1]
    out = []
    for seg, nxt in zip(segs, segs[1:] + segs[:1]):
        start = (seg.start + seg.length) % n
        length = (nxt.start - start) % n
        out.append(Hole(start, length, (start, (nxt.start - 1) % n), ((start - 1) % n, nxt.start)))
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

    Requires exactly one node of multiplicity 2 adjacent to a single robot
    (the head), with at least one free node between the tower and the other
    single robot (the tail).
    """
    if sorted(v for v in c if v > 0) != [1, 1, 2]:
        return None
    n = len(c)
    tower = next(i for i, v in enumerate(c) if v == 2)
    for orientation in (1, -1):
        head = (tower + orientation) % n
        if c[head] != 1:
            continue
        size = 0
        j = (tower - orientation) % n
        while c[j] == 0:
            size += 1
            j = (j - orientation) % n
        if size >= 1 and c[j] == 1:
            return Arrow(tail=j, head=head, tower=tower, size=size, orientation=orientation)
    return None
