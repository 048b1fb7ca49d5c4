"""Atomic look-compute-move execution with seeded schedulers and adversaries.

A step activates a set of robots; all of them compute on the same snapshot,
coins resolve try-moves independently per robot, an adversary callback picks
edges for symmetric-view movers, and all resulting moves land simultaneously.
Robots are anonymous to the protocol but the engine keeps per-robot positions
so that schedulers can be fair to individual robots and traces are replayable.

Each step yields a ``StepRecord``: an immutable named tuple whose seven fields
(``t``, ``activated``, ``positions_before``, ``before``, ``after``, ``coins``,
``adversary_edges``) are all required.  ``Simulation.step`` is the validating
entry: it takes integer robot ids in any order, repeats allowed, and sorts
them.  ``SchedulerPolicy.activation`` already returns sorted ids without
repeats, so ``run`` hands them to the step unchanged.  ``Simulation.positions``
is one immutable tuple, replaced only by a step where some robot moves, and
each record's ``positions_before`` is that tuple itself.  So a step that moves
no robot allocates nothing but its record and the record's two dicts: the
next step gets the same ``positions_before``, and the configuration keeps its
tuple (``after is before``) and its step plan.  The monitors in ``verify`` and
``mrp`` test that identity before they compare values.

Robots are oblivious, so ``decide`` must be a pure function of (configuration,
node).  That purity also lets the engine memoise, per ``decide``, each
configuration's step plan: where the robots of each occupied node may land,
whether a coin decides, and whether the configuration is terminal.  The memo
is bounded and shared by every run in the process, so a campaign's trials
reuse the plans of the configurations they revisit.  A plan is built whole
the first time a run reaches its configuration: ``decide`` is asked about
every occupied node, in node order, and not again while the plan is kept.
So ``Simulation(c)`` raises ``ProtocolError`` at construction when ``c`` is
outside ``decide``'s domain.

``successors`` is the same one-step relation for the checkers: every
positive-probability branch of one activation, read off two products (the
activated robot count per occupied node, then each node's outcome
multiset), with no randomness and no memo.
"""

from __future__ import annotations

import itertools
import json
import operator
import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from . import protocol as default_protocol
from .ring import Configuration, as_config, format_config, is_towerless, occupied_nodes

DecideFn = Callable[[Configuration, int], "default_protocol.Decision"]
Adversary = Callable[[int, Configuration, tuple[int, int]], int]
# One robot's positive-probability outcomes at a node: (destination or None, label).
OptionsFn = Callable[[int], list[tuple[Optional[int], object]]]
# (activation, outcomes, successor); see ``successors``.
Branch = tuple[tuple[tuple[int, int], ...], tuple[tuple[int, Optional[int], object], ...],
               Configuration]

DEFAULT_MAX_STEPS = 10**6


class SchedulerError(Exception):
    pass


# ---------------------------------------------------------------------------
# Adversaries
# ---------------------------------------------------------------------------

class SeededAdversary:
    """Resolves symmetric-view edge choices uniformly from a seeded RNG."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def __call__(self, robot: int, config: Configuration, options: tuple[int, int]) -> int:
        return options[self.rng.randrange(2)]


class ScriptedAdversary:
    """Replays a fixed sequence of edge choices; raises when exhausted.  The
    choices are read once, by ``_integers``."""

    def __init__(self, choices: Iterable[int]):
        self._choices = _integers(choices, "scripted edges")
        self._next = 0

    def __call__(self, robot: int, config: Configuration, options: tuple[int, int]) -> int:
        if self._next >= len(self._choices):
            raise SchedulerError("scripted adversary exhausted")
        choice = self._choices[self._next]
        self._next += 1
        if choice not in options:
            raise SchedulerError(f"scripted edge {choice} not among options {options}")
        return choice


# ---------------------------------------------------------------------------
# Scheduler policies
# ---------------------------------------------------------------------------

ROUND_ROBIN = "round-robin"
SEQUENTIAL_RANDOM = "sequential-random"
RANDOM_SUBSET = "random-subset"
SCRIPTED = "scripted"

POLICY_NAMES = (ROUND_ROBIN, SEQUENTIAL_RANDOM, RANDOM_SUBSET, SCRIPTED)


@dataclass(frozen=True)
class SchedulerPolicy:
    """Activation rule.  The built-in infinite modes are fair: round-robin by
    construction, the random modes with probability 1.  Scripted runs end when
    the script does and only promise non-empty activations."""

    mode: str
    script: tuple[tuple[int, ...], ...] = ()
    # ``_robot_ids`` of each script entry, read once: a bad id raises here.
    _activations: tuple[tuple[int, ...], ...] = field(default=(), init=False, repr=False,
                                                      compare=False)

    def __post_init__(self) -> None:
        if self.mode not in POLICY_NAMES:
            raise ValueError(f"unknown scheduler mode {self.mode!r}")
        object.__setattr__(self, "_activations", tuple(map(_robot_ids, self.script)))

    @property
    def sequential(self) -> bool:
        if self.mode in (ROUND_ROBIN, SEQUENTIAL_RANDOM):
            return True
        if self.mode == SCRIPTED:
            return all(len(a) == 1 for a in self._activations)
        return False

    def activation(self, t: int, k: int, rng: random.Random) -> Optional[tuple[int, ...]]:
        """Robot ids to activate at instant t, sorted and without repeats
        (``run`` steps with them as given); None when a script runs out."""
        if self.mode == ROUND_ROBIN:
            return (t % k,)
        if self.mode == SEQUENTIAL_RANDOM:
            return (rng.randrange(k),)
        if self.mode == RANDOM_SUBSET:
            return _mask_robots(rng.randrange(1, 1 << k))
        if t >= len(self._activations):
            return None
        return self._activations[t]


def _integers(values: Iterable[int], what: str) -> list[int]:
    """``values``, each read with ``operator.index``: a bool becomes its int,
    and a float or a string raises ValueError."""
    values = iter(values)  # outside the try: a non-iterable stays a TypeError
    try:
        return list(map(operator.index, values))
    except TypeError as exc:
        raise ValueError(f"{what} must be integers: {exc}") from None


def _robot_ids(activation: Iterable[int]) -> tuple[int, ...]:
    """An activation's robot ids, read by ``_integers``, sorted and without
    repeats."""
    return tuple(sorted(set(_integers(activation, "robot ids"))))


@lru_cache(maxsize=1 << 8)
def _mask_robots(mask: int) -> tuple[int, ...]:
    """Robot ids whose bits are set in ``mask``, ascending.  Memoised per
    mask, so a large robot count never builds a table of all its subsets."""
    return tuple(r for r in range(mask.bit_length()) if mask >> r & 1)


# ---------------------------------------------------------------------------
# Step records and traces
# ---------------------------------------------------------------------------

class StepRecord(NamedTuple):
    """One atomic step, fully resolved: who was activated, where everyone
    stood, every coin toss, and every adversary edge choice."""

    t: int
    activated: tuple[int, ...]
    positions_before: tuple[int, ...]
    before: Configuration
    after: Configuration
    coins: dict[int, bool]
    adversary_edges: dict[int, int]

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "activated": list(self.activated),
            "coins": {str(r): v for r, v in sorted(self.coins.items())},
            "adversary": {str(r): v for r, v in sorted(self.adversary_edges.items())},
            "config": format_config(self.after),
        }


# ``StepRecord(...)`` runs the named tuple's Python-level ``__new__``; building
# each step's record with ``tuple.__new__`` costs under half as much.
_new_record = tuple.__new__


@dataclass
class Trace:
    n: int
    k: int
    policy: str
    seed: Optional[int]
    initial: Configuration
    steps: list[StepRecord]
    visited: frozenset[int]
    terminated: bool

    @property
    def step_count(self) -> int:
        return len(self.steps)

    @property
    def full_coverage(self) -> bool:
        return len(self.visited) == self.n

    def configurations(self) -> list[Configuration]:
        return [self.initial] + [s.after for s in self.steps]

    def header(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "seed": self.seed,
            "policy": self.policy,
            "initial": format_config(self.initial),
        }


def trace_to_jsonl(trace: Trace) -> list[str]:
    """Header line then one line per step."""
    lines = [json.dumps(trace.header())]
    lines.extend(json.dumps(s.to_json()) for s in trace.steps)
    return lines


# ---------------------------------------------------------------------------
# Successor relation
# ---------------------------------------------------------------------------

def decision_outcomes(n: int, node: int, d: "default_protocol.Decision") -> list[Optional[int]]:
    """Every positive-probability landing spot of one robot on ``node`` that
    decided ``d``: None (it stays: idle, or a lost coin), then each node it
    may move to (its target, or both neighbours when an adversary picks)."""
    if d.kind == default_protocol.IDLE:
        return [None]
    targets = [(node - 1) % n, (node + 1) % n] if d.adversary else [d.target]
    return targets if d.kind == default_protocol.MOVE else [None] + targets


def successors(c: Configuration, options: OptionsFn) -> Iterator[Branch]:
    """Every positive-probability branch of one activation from ``c``.

    Robots on one node are anonymous, so an activation is a robot count per
    occupied node and the outcomes at a node form a multiset over
    ``options(node)``.  Yields ``(activation, outcomes, successor)``:
    ``((node, count), ...)`` in node order, one ``(node, destination or
    None, label)`` per activated robot, and the configuration after every
    move lands.  Two products give the order, which certificate search
    depends on: the activation counts, first occupied node slowest and the
    empty activation skipped; then per activation the nodes' outcome
    multisets, again first node slowest.  The branches of a sequential
    scheduler, which activates one robot, are those with one outcome.
    """
    nodes = [(v, m, options(v)) for v, m in enumerate(c) if m]
    counts = itertools.product(*(range(m + 1) for _, m, _ in nodes))
    next(counts)  # the empty activation
    for active in counts:
        activation = tuple((v, a) for (v, _, _), a in zip(nodes, active) if a)
        picks = [itertools.combinations_with_replacement(choices, a)
                 for (_, _, choices), a in zip(nodes, active) if a]
        for pick in itertools.product(*picks):
            outcomes = tuple((v, dest, label) for (v, _), robots in zip(activation, pick)
                             for dest, label in robots)
            succ = list(c)
            for v, dest, _ in outcomes:
                if dest is not None:
                    succ[v] -= 1
                    succ[dest] += 1
            yield activation, outcomes, tuple(succ)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

class _StepPlan(NamedTuple):
    """What one step may do from a configuration under ``decide``: for each
    occupied node, the nodes its robots may land on and whether a coin can
    keep them in place (``spots[node]``, from ``decision_outcomes``; None
    for an empty node), and whether no robot can move (``terminal``)."""

    spots: tuple[Optional[tuple[tuple[int, ...], bool]], ...]
    terminal: bool


@lru_cache(maxsize=1 << 10)
def _spot(targets: tuple[int, ...], stay: bool) -> tuple[tuple[int, ...], bool]:
    """One ``spots`` entry, interned: equal entries of all plans are one
    object.  The protocol's robots land only on their node's neighbours, so
    a ring size has a few distinct entries per node; the memo's bound covers
    any other ``decide``."""
    return targets, stay


@lru_cache(maxsize=1 << 13)
def _step_plan(decide: DecideFn, c: Configuration) -> _StepPlan:
    """The plan of ``c`` under ``decide``, built whole: ``decide`` is asked
    about every occupied node, in node order.  Kept across steps, runs and
    trials: robots are oblivious, so every visit to ``c`` moves by the same
    rules.  Bounded: the least recently used plans go first."""
    n = len(c)
    spots: list[Optional[tuple[tuple[int, ...], bool]]] = [None] * n
    for v, m in enumerate(c):
        if m:
            outcomes = decision_outcomes(n, v, decide(c, v))
            stay = outcomes[0] is None
            spots[v] = _spot(tuple(outcomes[1:] if stay else outcomes), stay)
    return _StepPlan(tuple(spots), not any(spot and spot[0] for spot in spots))


class Simulation:
    """Mutable run state: per-robot positions (one tuple, replaced only by a
    step where some robot moves), the configuration they form, the visited
    nodes, all updated from each step's moves, and the step plan of the
    current configuration."""

    def __init__(
        self,
        initial: Sequence[int],
        decide: DecideFn = default_protocol.decide,
        rng: Optional[random.Random] = None,
        adversary: Optional[Adversary] = None,
    ):
        c = as_config(initial)
        self.n = len(c)
        self.decide = decide
        self.rng = rng if rng is not None else random.Random()
        self.adversary = adversary if adversary is not None else SeededAdversary(self.rng)
        self.positions: tuple[int, ...] = tuple(
            node for node, count in enumerate(c) for _ in range(count))
        self.k = len(self.positions)
        self._config = c
        self._plan = _step_plan(decide, c)
        self.visited: set[int] = set(occupied_nodes(c))
        self.t = 0

    def configuration(self) -> Configuration:
        return self._config

    def step(self, activated: Iterable[int]) -> StepRecord:
        """One step activating the robots in ``activated``, in any order and
        with repeats allowed: the validating entry.  Raises SchedulerError
        for an empty activation and ValueError for an id that is not an
        integer or lies outside ``0..k-1``; a bool is read as its int."""
        return self._apply(_robot_ids(activated))

    def _apply(self, acts: tuple[int, ...]) -> StepRecord:
        """The step itself, for a normalised activation: sorted robot ids
        without repeats, as ``step`` and every ``SchedulerPolicy`` give."""
        if not acts:
            raise SchedulerError("scheduler violated nonemptiness")
        if acts[0] < 0 or acts[-1] >= self.k:
            raise ValueError(f"robot id out of range in activation {acts}")
        before = self._config
        positions = self.positions  # the record's ``positions_before``: never mutated
        coins: dict[int, bool] = {}
        adversary_edges: dict[int, int] = {}
        movers: Optional[list[tuple[int, int]]] = None
        spots = self._plan.spots
        for r in acts:
            targets, stay = spots[positions[r]]
            if not targets:
                continue
            if stay:  # staying put is possible: a fair coin decides
                win = self.rng.random() < 0.5
                coins[r] = win
                if not win:
                    continue
            if len(targets) == 2:  # either edge: the adversary picks
                answer = self.adversary(r, before, targets)
                try:  # read as an integer: a bool is recorded as its int
                    target = operator.index(answer)
                except TypeError:
                    target = None
                if target not in targets:
                    raise ValueError(f"adversary returned {answer!r}, not an incident edge")
                adversary_edges[r] = target
            else:
                target = targets[0]
            if movers is None:
                movers = [(r, target)]
            else:
                movers.append((r, target))
        after = before
        if movers:
            # Only the movers' nodes change, and every node occupied before
            # the step is already visited: apply the movers' deltas alone.
            counts = list(before)
            moved = list(positions)
            visit = self.visited.add
            for r, target in movers:
                counts[positions[r]] -= 1
                counts[target] += 1
                moved[r] = target
                visit(target)
            self.positions = tuple(moved)
            succ = tuple(counts)
            if succ != before:  # moves that cancel, as in a swap, keep ``before``
                after = self._config = succ
                self._plan = _step_plan(self.decide, after)
        record = _new_record(StepRecord,
                             (self.t, acts, positions, before, after, coins, adversary_edges))
        self.t += 1
        return record


def is_terminal(c: Configuration, decide: DecideFn = default_protocol.decide) -> bool:
    """No robot moves with positive probability: no occupied node's decision
    has a landing spot.  ``run`` reads the same step plan."""
    return _step_plan(decide, c).terminal


def run(
    initial: Sequence[int],
    policy: SchedulerPolicy,
    *,
    seed: Optional[int] = None,
    rng: Optional[random.Random] = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    decide: DecideFn = default_protocol.decide,
    adversary: Optional[Adversary] = None,
    require_towerless: bool = True,
) -> Trace:
    """Iterate steps until terminal or max_steps.

    ``decide`` must be a pure function of (configuration, node): each
    configuration's step plan, its terminal verdict included, is built once
    per ``decide`` when a run first reaches it and reused by every later
    step and run that reaches it.  ``policy.activation`` must return robot
    ids sorted and without repeats, as every ``SchedulerPolicy`` does:
    ``run`` steps with them unchanged, keeping only the nonempty and range
    checks of ``Simulation.step``.  ``require_towerless`` enforces the
    problem's initial condition, before ``decide`` is asked anything; pass
    False to replay from a mid-run snapshot such as an arrow.  ``max_steps``
    must be a non-negative integer (ValueError otherwise; a bool is read as
    its int).
    """
    try:
        limit = operator.index(max_steps)
    except TypeError:
        limit = -1
    if limit < 0:
        raise ValueError(f"max_steps must be a non-negative integer, not {max_steps!r}")
    c = as_config(initial)
    if require_towerless and not is_towerless(c):
        raise ValueError("initial configuration must be towerless")
    if rng is None:
        rng = random.Random(seed)
    sim = Simulation(c, decide, rng, adversary)
    steps: list[StepRecord] = []
    activation, apply, append, k = policy.activation, sim._apply, steps.append, sim.k
    while not sim._plan.terminal and sim.t < limit:
        acts = activation(sim.t, k, rng)
        if acts is None:
            break
        append(apply(acts))
    return Trace(
        n=sim.n,
        k=k,
        policy=policy.mode,
        seed=seed,
        initial=c,
        steps=steps,
        visited=frozenset(sim.visited),
        terminated=sim._plan.terminal,
    )


def mrp(configs: Iterable[Configuration]) -> list[Configuration]:
    """Minimal relevant prefix: the configuration sequence with consecutive
    duplicates collapsed.  A run repeats a configuration as the same object
    (``after is before``), so identity is tested before equality."""
    out: list[Configuration] = []
    last = None
    for c in configs:
        if c is not last and c != last:
            out.append(c)
            last = c
    return out


def sample_towerless(n: int, k: int, rng: random.Random) -> Configuration:
    """Uniform draw over the C(n, k) towerless configurations."""
    if k > n:
        raise ValueError(f"cannot place {k} robots on {n} nodes without a tower")
    nodes = rng.sample(range(n), k)
    c = [0] * n
    for node in nodes:
        c[node] = 1
    return tuple(c)
