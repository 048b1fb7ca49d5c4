"""Configuration model: symmetries, views, segments, arrows."""

import itertools
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ring_explorer import ring
from ring_explorer.protocol import phase
from ring_explorer.ring import (
    Arrow,
    canonical_direction,
    canonical_form,
    find_arrow,
    mirror,
    rotate,
    segments,
    view_of,
)

configs = st.lists(st.integers(min_value=0, max_value=3), min_size=3, max_size=12).map(tuple)


def indistinguishable(a, b):
    """Indistinguishability as the package keys it: equal canonical forms."""
    return canonical_form(a) == canonical_form(b)


def orbit(c):
    n = len(c)
    m = mirror(c)
    return {rotate(c, i) for i in range(n)} | {rotate(m, i) for i in range(n)}


class TestAsConfig:
    @pytest.mark.parametrize("values", [[1.9, 1, 1, 1, 0, 0, 0, 0, 0.7],
                                        [" 1", 1, 1, 1, 0, 0, 0, 0, 0]],
                             ids=["float", "string"])
    def test_non_integers_rejected(self, values):
        with pytest.raises(ValueError, match="must be integers"):
            ring.as_config(values)

    def test_integers_kept(self):
        assert ring.as_config([True, 1, 0]) == (1, 1, 0)
        assert ring.parse_config(" 1,0, 2") == (1, 0, 2)


class TestRotateMirror:
    def test_rotate_identity(self):
        assert rotate((1, 1, 1, 0), 0) == (1, 1, 1, 0)

    def test_rotate_shift(self):
        assert rotate((2, 1, 0, 0), 1) == (1, 0, 0, 2)

    def test_mirror_examples(self):
        assert mirror((1, 1, 1, 0)) == (1, 0, 1, 1)
        assert mirror((2, 0, 1, 0)) == (2, 0, 1, 0)  # palindromic fixed point

    @given(configs)
    def test_full_rotation_is_identity(self, c):
        n = len(c)
        out = c
        for _ in range(n):
            out = rotate(out, 1)
        assert out == c

    @given(configs, st.integers(min_value=0, max_value=30))
    def test_rotate_composition(self, c, i):
        n = len(c)
        assert rotate(rotate(c, i), n - i % n) == c

    @given(configs)
    def test_mirror_involution(self, c):
        assert mirror(mirror(c)) == c

    def test_rotate_is_bijection_small(self):
        for n in range(3, 17):
            c = tuple(range(n))
            seen = {rotate(c, i) for i in range(n)}
            assert len(seen) == n


class TestIndistinguishable:
    def test_rotation(self):
        assert indistinguishable((1, 1, 1, 0), (0, 1, 1, 1))

    def test_mirror_rotation(self):
        assert indistinguishable((2, 1, 0, 0), (2, 0, 0, 1))

    def test_distinguishable(self):
        assert not indistinguishable((2, 1, 0, 0), (2, 0, 1, 0))

    def test_equivalence_relation_exhaustive(self):
        # reflexive/symmetric/transitive over all towerless n=6, k<=3 configs
        universe = [c for c in itertools.product((0, 1), repeat=6) if sum(c) <= 3]
        for a in universe:
            assert indistinguishable(a, a)
        import random

        rng = random.Random(0)
        for _ in range(300):
            a, b, c = rng.choice(universe), rng.choice(universe), rng.choice(universe)
            assert indistinguishable(a, b) == indistinguishable(b, a)
            if indistinguishable(a, b) and indistinguishable(b, c):
                assert indistinguishable(a, c)


class TestCanonicalForm:
    def test_same_class_same_form(self):
        assert canonical_form((0, 1, 1, 1)) == canonical_form((1, 1, 1, 0))

    @given(configs)
    def test_member_of_class(self, c):
        assert canonical_form(c) in orbit(c)

    def test_class_count_matches_partition_oracle(self):
        # Brute-force partition of all towerless n=9, k=4 configurations into
        # orbits, computed with raw tuple arithmetic only.
        n, k = 9, 4
        all_configs = set()
        for nodes in itertools.combinations(range(n), k):
            all_configs.add(tuple(1 if i in nodes else 0 for i in range(n)))
        orbits = set()
        for c in all_configs:
            rev = tuple(c[(n - j) % n] for j in range(n))
            members = frozenset(
                [c[i:] + c[:i] for i in range(n)] + [rev[i:] + rev[:i] for i in range(n)]
            )
            orbits.add(members)
        assert len({canonical_form(c) for c in all_configs}) == len(orbits)
        assert len(all_configs) == comb(n, k)


class TestView:
    def test_symmetric_view(self):
        assert view_of((2, 0, 1, 0), 0) == ((2, 0, 1, 0), (2, 0, 1, 0))

    def test_asymmetric_view(self):
        assert view_of((2, 1, 0, 0), 1) == ((1, 0, 0, 2), (1, 2, 0, 0))

    @given(configs, st.integers(min_value=0, max_value=11))
    def test_starts_at_observer(self, c, i):
        i %= len(c)
        forward, backward = view_of(c, i)
        assert forward[0] == c[i] == backward[0]

    def test_symmetric_iff_reflection_fixed(self):
        # exhaustive over all 0/1 configurations up to n=10
        for n in range(3, 11):
            for c in itertools.product((0, 1), repeat=n):
                for i in range(n):
                    reflected = tuple(c[(2 * i - j) % n] for j in range(n))
                    forward, backward = view_of(c, i)
                    assert (forward == backward) == (reflected == c)

    def test_canonical_direction(self):
        assert canonical_direction((1, 1, 1, 0), 0) == -1  # toward the hole
        assert canonical_direction((1, 1, 1, 0), 2) == 1
        assert canonical_direction((1, 1, 1, 0), 1) is None  # symmetric


class TestSegmentsHoles:
    def test_hand_scan(self):
        c = (1, 1, 1, 0, 0, 1, 0, 0, 0)
        segs = {(s.start, s.length) for s in segments(c)}
        assert segs == {(0, 3), (5, 1)}

    def test_alternation(self):
        c = (1, 0, 1, 0)
        assert sorted(s.length for s in segments(c)) == [1, 1]

    def test_all_free(self):
        assert segments((0, 0, 0, 0)) == ()

    def test_all_occupied(self):
        with pytest.raises(ValueError, match="no free node"):
            segments((1, 1, 1, 1))

    def test_match_per_node_scan_exhaustive(self):
        for n in range(3, 11):
            for k in range(5):
                for c in ring.configurations(n, k):
                    assert run_scan_result(segments, c) == per_node_runs(c)


def per_node_runs(c):
    """Oracle for ``segments``: a run starts at each occupied node whose
    predecessor is free and is walked node by node; runs are listed in ring
    order from the first free node."""
    n = len(c)
    if not any(c):
        return ()
    if all(c):
        return ("ValueError", "no free node")
    anchor = c.index(0)
    runs = []
    for offset in range(1, n + 1):
        start = (anchor + offset) % n
        if c[start] and not c[start - 1]:
            length = 1
            while c[(start + length) % n]:
                length += 1
            runs.append((start, length))
    return tuple(runs)


def run_scan_result(f, c):
    try:
        return tuple(tuple(run) for run in f(c))
    except ValueError as exc:
        return ("ValueError", str(exc))


def arrow_oracle(c):
    """Scan every (start, direction, length >= 4) path candidate."""
    n = len(c)
    found = set()
    for start in range(n):
        for d in (1, -1):
            for length in range(4, n + 1):
                path = [(start + j * d) % n for j in range(length)]
                if len(set(path)) != length:
                    continue
                tail, head, tower = path[0], path[-1], path[-2]
                if (
                    c[tail] == 1
                    and c[head] == 1
                    and c[tower] == 2
                    and all(c[m] == 0 for m in path[1:-2])
                ):
                    found.add((tail, head, tower, length - 3, d))
    return found


def arrow_walk(c):
    """Oracle for ``find_arrow``: from the one 2-tower, try each neighbor as
    the head and walk the other way over free nodes to the tail."""
    if sorted(v for v in c if v > 0) != [1, 1, 2]:
        return None
    n = len(c)
    tower = c.index(2)
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


class TestArrow:
    def test_primary_arrow(self):
        a = find_arrow((2, 1, 0, 0, 1, 0))
        assert a == Arrow(tail=4, head=1, tower=0, size=1, orientation=1)

    def test_size_two_arrow(self):
        a = find_arrow((2, 1, 0, 1, 0, 0))
        assert (a.tail, a.head, a.tower, a.size) == (3, 1, 0, 2)

    def test_no_tower_no_arrow(self):
        assert find_arrow((1, 1, 1, 1, 0, 0, 0, 0, 0)) is None

    def test_flanked_tower_is_not_an_arrow(self):
        assert find_arrow((2, 1, 0, 0, 0, 0, 0, 0, 1)) is None
        assert find_arrow((1, 2, 1, 0, 0, 0, 0, 0, 0)) is None

    def test_final(self):
        assert phase((2, 1, 1, 0, 0, 0)) == "final"
        assert phase((2, 1, 1, 0, 0, 0, 0, 0, 0)) == "final"
        assert phase((1, 0, 2, 1, 0, 0, 0, 0, 0)) != "final"
        assert phase((1, 1, 1, 1, 0, 0, 0, 0, 0)) != "final"

    def test_matches_path_scan_oracle_exhaustive(self):
        # every 4-robot configuration with one 2-tower and two singles
        for n in range(9, 13):
            for tower in range(n):
                rest = [i for i in range(n) if i != tower]
                for singles in itertools.combinations(rest, 2):
                    c = [0] * n
                    c[tower] = 2
                    for s in singles:
                        c[s] = 1
                    c = tuple(c)
                    expected = arrow_oracle(c)
                    assert len(expected) <= 1
                    got = find_arrow(c)
                    if expected:
                        tail, head, tw, size, d = next(iter(expected))
                        assert got is not None
                        assert (got.tail, got.head, got.tower, got.size, got.orientation) == (
                            tail, head, tw, size, d,
                        )
                    else:
                        assert got is None

    def test_matches_node_walk_exhaustive(self):
        # every configuration of 0..6 robots on 3..12 nodes; the uncached
        # function, so the sweep leaves the memo alone
        for n in range(3, 13):
            for k in range(7):
                for c in ring.configurations(n, k):
                    assert find_arrow.__wrapped__(c) == arrow_walk(c), c
