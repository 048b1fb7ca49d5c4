"""Atomic look-compute-move execution with seeded schedulers and adversaries.

A step activates a set of robots; all of them compute on the same snapshot,
coins resolve try-moves independently per robot, an adversary callback picks
edges for symmetric-view movers, and all resulting moves land simultaneously.
Robots are anonymous to the protocol but the engine keeps per-robot positions
so that schedulers can be fair to individual robots and traces are replayable.

Each step yields a ``StepRecord``: an immutable named tuple whose seven fields
(``t``, ``activated``, ``positions_before``, ``before``, ``after``, ``coins``,
``adversary_edges``) are all required.  ``Simulation.step`` is the validating
entry: it takes robot ids in any order, repeats allowed, and sorts them.
``SchedulerPolicy.activation`` already returns sorted ids without repeats, so
``run`` hands them to the step unchanged.  A step that leaves the
configuration as it was keeps the same tuple, ``after is before``, and
``run`` re-reads the terminal verdict only after a step that changed it.

Robots are oblivious, so ``decide`` must be a pure function of (configuration,
node).  That purity also lets the engine memoise, per ``decide``, each
configuration's step plan: where the robots of each occupied node may land,
whether a coin decides, and whether the configuration is terminal.  The memo
is bounded and shared by every run in the process, so a campaign's trials
reuse the plans of the configurations they revisit.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from . import protocol as default_protocol
from .ring import Configuration, as_config, format_config, has_tower, occupied_nodes

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
    """Replays a fixed sequence of edge choices; raises when exhausted."""

    def __init__(self, choices: Iterable[int]):
        self._choices = list(choices)
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

    def __post_init__(self) -> None:
        if self.mode not in POLICY_NAMES:
            raise ValueError(f"unknown scheduler mode {self.mode!r}")

    @property
    def sequential(self) -> bool:
        if self.mode in (ROUND_ROBIN, SEQUENTIAL_RANDOM):
            return True
        if self.mode == SCRIPTED:
            return all(len(set(a)) == 1 for a in self.script)
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
        if t >= len(self.script):
            return None
        return tuple(sorted(set(self.script[t])))


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

    @property
    def changed(self) -> bool:
        return self.before != self.after

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "activated": list(self.activated),
            "coins": {str(r): v for r, v in sorted(self.coins.items())},
            "adversary": {str(r): v for r, v in sorted(self.adversary_edges.items())},
            "config": format_config(self.after),
        }


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
    move lands.  Activation counts are enumerated per node in node order,
    then each node's outcome multiset; certificate search order depends on
    this.  The branches of a sequential scheduler, which activates one
    robot, are those with one outcome.
    """
    # Every activation in enumeration order, with the rows of its nodes: a row
    # lists the outcome multisets of that many robots on one node, each as
    # (its outcomes, its moves as (node, destination) pairs).
    activations: list[tuple[tuple, tuple]] = [((), ())]
    for v, m in enumerate(c):
        if not m:
            continue
        choices = options(v)
        rows = [[(tuple((v, dest, label) for dest, label in pick),
                  tuple((v, dest) for dest, _ in pick if dest is not None))
                 for pick in itertools.combinations_with_replacement(choices, a)]
                for a in range(m + 1)]
        activations = [(activation + ((v, a),), picked + (rows[a],)) if a
                       else (activation, picked)
                       for activation, picked in activations for a in range(m + 1)]
    for activation, picked in activations[1:]:  # the first is the empty one
        branches = [((), ())]
        for row in picked:
            branches = [(outcomes + more, moves + more_moves)
                        for outcomes, moves in branches for more, more_moves in row]
        for outcomes, moves in branches:
            succ = c
            if moves:
                counts = list(c)
                for v, dest in moves:
                    counts[v] -= 1
                    counts[dest] += 1
                succ = tuple(counts)
            yield activation, outcomes, succ


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

class _StepPlan:
    """What one step may do from configuration ``c`` under ``decide``: for
    each occupied node, the nodes its robots may land on and whether a coin
    can keep them in place (``spots[node]``, from ``decision_outcomes``), and
    whether ``c`` is terminal.  Filled lazily: ``decide`` is asked about a
    node only when a step or the terminal test first needs it, and nothing
    is stored for a node whose ``decide`` raised."""

    __slots__ = ("decide", "c", "spots", "_terminal")

    def __init__(self, decide: DecideFn, c: Configuration):
        self.decide = decide
        self.c = c
        self.spots: list[Optional[tuple[tuple[int, ...], bool]]] = [None] * len(c)
        self._terminal: Optional[bool] = None

    def fill(self, node: int) -> tuple[tuple[int, ...], bool]:
        entry = self.spots[node] = _landing(len(self.c), node, self.decide(self.c, node))
        return entry

    def terminal(self) -> bool:
        """No robot can move: no occupied node has a landing spot.  Nodes are
        asked in node order, up to the first that can move."""
        if self._terminal is None:
            spots = self.spots
            terminal = True
            for v, m in enumerate(self.c):
                if m and (spots[v] or self.fill(v))[0]:
                    terminal = False
                    break
            self._terminal = terminal
        return self._terminal


@lru_cache(maxsize=1 << 10)
def _landing(n: int, node: int, d: "default_protocol.Decision") -> tuple[tuple[int, ...], bool]:
    """The nodes a robot on ``node`` that decided ``d`` may land on, and
    whether it may also stay (a coin decides when it may do both).  Shared
    by every plan whose node decided ``d``."""
    outcomes = decision_outcomes(n, node, d)
    stay = outcomes[0] is None
    return tuple(outcomes[1:] if stay else outcomes), stay


@lru_cache(maxsize=1 << 13)
def _step_plan(decide: DecideFn, c: Configuration) -> _StepPlan:
    """The plan of ``c`` under ``decide``, kept across steps, runs and
    trials: robots are oblivious, so every visit to ``c`` moves by the same
    rules.  Bounded: the least recently used plans go first."""
    return _StepPlan(decide, c)


class Simulation:
    """Mutable run state: per-robot positions, the configuration they form,
    the visited nodes, all updated from each step's moves, and the step plan
    of the current configuration."""

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
        self.positions: list[int] = []
        for node, count in enumerate(c):
            self.positions.extend([node] * count)
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
        for an empty activation and ValueError for an id outside
        ``0..k-1``."""
        return self._apply(tuple(sorted(set(activated))))

    def _apply(self, acts: tuple[int, ...]) -> StepRecord:
        """The step itself, for a normalised activation: sorted robot ids
        without repeats, as ``step`` and every ``SchedulerPolicy`` give."""
        if not acts:
            raise SchedulerError("scheduler violated nonemptiness")
        if acts[0] < 0 or acts[-1] >= self.k:
            raise ValueError(f"robot id out of range in activation {acts}")
        before = self._config
        positions = self.positions
        positions_before = tuple(positions)
        coins: dict[int, bool] = {}
        adversary_edges: dict[int, int] = {}
        movers: Optional[list[tuple[int, int]]] = None
        plan = self._plan
        spots = plan.spots
        for r in acts:
            node = positions[r]
            targets, stay = spots[node] or plan.fill(node)
            if not targets:
                continue
            if stay:  # staying put is possible: a fair coin decides
                win = self.rng.random() < 0.5
                coins[r] = win
                if not win:
                    continue
            if len(targets) == 2:  # either edge: the adversary picks
                target = self.adversary(r, before, targets)
                if target not in targets:
                    raise ValueError(f"adversary returned {target}, not an incident edge")
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
            visit = self.visited.add
            for r, target in movers:
                counts[positions[r]] -= 1
                counts[target] += 1
                positions[r] = target
                visit(target)
            succ = tuple(counts)
            if succ != before:  # moves that cancel, as in a swap, keep ``before``
                after = self._config = succ
                self._plan = _step_plan(self.decide, after)
        record = StepRecord(self.t, acts, positions_before, before, after, coins, adversary_edges)
        self.t += 1
        return record


def is_terminal(c: Configuration, decide: DecideFn = default_protocol.decide) -> bool:
    """No robot moves with positive probability: no occupied node's decision
    has a landing spot.  ``run`` reads the same step plan."""
    return _step_plan(decide, c).terminal()


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
    configuration's step plan, its terminal verdict included, is worked out
    once per ``decide`` and reused by every later step and run that reaches
    it.  ``policy.activation`` must return robot ids sorted and without
    repeats, as every ``SchedulerPolicy`` does: ``run`` steps with them
    unchanged, keeping only the nonempty and range checks of
    ``Simulation.step``.  ``require_towerless`` enforces the problem's
    initial condition; pass False to replay from a mid-run snapshot such as
    an arrow.
    """
    if rng is None:
        rng = random.Random(seed)
    sim = Simulation(initial, decide, rng, adversary)
    c = sim.configuration()
    if require_towerless and has_tower(c):
        raise ValueError("initial configuration must be towerless")
    steps: list[StepRecord] = []
    activation, apply, append, k = policy.activation, sim._apply, steps.append, sim.k
    terminated = sim._plan.terminal()
    while not terminated and sim.t < max_steps:
        acts = activation(sim.t, k, rng)
        if acts is None:
            break
        record = apply(acts)
        append(record)
        # The plan changes only with the configuration, and an unchanged
        # plan keeps the verdict it already has.
        if record.after is not record.before:
            terminated = sim._plan.terminal()
    return Trace(
        n=sim.n,
        k=sim.k,
        policy=policy.mode,
        seed=seed,
        initial=c,
        steps=steps,
        visited=frozenset(sim.visited),
        terminated=terminated,
    )


def mrp(configs: Iterable[Configuration]) -> list[Configuration]:
    """Minimal relevant prefix: the configuration sequence with consecutive
    duplicates collapsed."""
    out: list[Configuration] = []
    for c in configs:
        if not out or out[-1] != c:
            out.append(c)
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
