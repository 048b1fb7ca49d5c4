"""Determinism pinned across versions: recorded outputs, asserted as literals.

The other determinism tests compare two runs of the same code.  These compare
against values recorded from an earlier version, so a change to the engine that
alters the RNG draw order, a step record or a trace field fails here, and so
does a change to the protocol's decisions or to the order in which
``engine.successors`` yields its branches (the refuter's certificate search
depends on that order).
"""

import hashlib
import json

import pytest

from ring_explorer import engine, impossibility, protocol, verify
from ring_explorer.cli import main
from ring_explorer.engine import SchedulerPolicy
from ring_explorer.ring import configurations, format_config, occupied_nodes

CAMPAIGN_11_60_SEED_5 = {
    "round-robin": {
        "n": 11, "trials": 60, "terminated_count": 60, "full_coverage_count": 60,
        "steps_min": 26, "steps_median": 41.0, "steps_mean": 42.13333333333333,
        "steps_max": 66, "seed": 5, "policy": "round-robin", "max_steps": 100000,
    },
    "sequential-random": {
        "n": 11, "trials": 60, "terminated_count": 60, "full_coverage_count": 60,
        "steps_min": 16, "steps_median": 49.0, "steps_mean": 48.833333333333336,
        "steps_max": 78, "seed": 5, "policy": "sequential-random", "max_steps": 100000,
    },
    "random-subset": {
        "n": 11, "trials": 60, "terminated_count": 60, "full_coverage_count": 60,
        "steps_min": 14, "steps_median": 22.5, "steps_mean": 23.05,
        "steps_max": 33, "seed": 5, "policy": "random-subset", "max_steps": 100000,
    },
}

# SHA-256 of the stdout of ``simulate --n 13 --seed <seed> --policy <policy>
# --max-steps 1000``.
SIMULATE_N13_SHA256 = {
    ("round-robin", 1): "de390ade172a940c4f66c1626a69edd9ac22b81716b0669ff0a68a473fffeb1f",
    ("round-robin", 2): "15fe3be91f0c5785141bd0bbbf8ff6aa22538cadfa3578590ea931cf406b1291",
    ("round-robin", 3): "5fb708fcfb5fa00c614628dc18dcdff24c0b57ae1f18ccc1a0dbd0cfc8e00b26",
    ("sequential-random", 1): "f34335ce78a620e0dc08d2a8b33f177d5c39922b080021df5ef9db7fff37041d",
    ("sequential-random", 2): "87574a2240acde19abaa1244189e6a562998bc3278e121d8c2a44f1e2b0badb3",
    ("sequential-random", 3): "7ba6c462e396b85bf1ac1592b2af0b746c80b69a8ce62489a60f48b3ea4ee5a9",
    ("random-subset", 1): "b05beb0169339194e354ac043f92c1546669dd503b3915c9a8ecec2b68510510",
    ("random-subset", 2): "7cd41cd01f787068c5c92bbc63e58b072bffde16d4e63d6e8476248c095c6661",
    ("random-subset", 3): "bafe8d5ad0ffa3ae318d036fc685f8d1a122cbc85175d763003a670d34742f75",
}


@pytest.mark.parametrize("policy", sorted(CAMPAIGN_11_60_SEED_5))
def test_campaign_stats_pinned(policy):
    stats = verify.campaign(11, 60, SchedulerPolicy(policy), seed=5)
    assert json.dumps(stats.to_json()) == json.dumps(CAMPAIGN_11_60_SEED_5[policy])


@pytest.mark.parametrize("policy,seed", sorted(SIMULATE_N13_SHA256))
def test_simulate_stdout_pinned(capsys, policy, seed):
    # The runs end within 85 stdout lines; the step limit makes a protocol
    # that stops terminating fail here quickly instead of after 10**6 steps.
    code = main(["simulate", "--n", "13", "--seed", str(seed), "--policy", policy,
                 "--max-steps", "1000"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SIMULATE_N13_SHA256[(policy, seed)]


# SHA-256 over ``decide(c, i)`` for every 4-robot configuration of n = 9..12
# and every occupied node: one line per pair, with the decision's
# ``kind,target,adversary`` or the class name of the exception it raises.
DECISION_TABLE_9_TO_12_SHA256 = "db36cee66a838d8c3a1e66f59442cd4d64fc7f628ac9b6a3502e1fadfab89426"

# SHA-256 over the ordered branch lists of ``engine.successors``, labels
# included (a protocol label as ``(kind, target, adversary)``).
SUCCESSORS_SHA256 = {
    # Every three-robot four-ring configuration with the refuter's option
    # table, distributed then sequential.
    "refuter": "0ea97795a979b470dc295a59a1d0923f71e6dce312acedb283ba03458735dcbc",
    # The same with move options only, as ``impossibility._Tables`` calls it.
    "refuter-moves": "343d4f8b997159d34ba8716fd5b1bc93168e43c69766f0888128eae60b01667e",
    # Every n = 9 configuration in the protocol's domain (towerless,
    # 4-segment, arrow), distributed then sequential.
    "protocol-9": "fc9d4d0b00097c47a975d6bdb798da72dc8edc045dc44812702470997d90b2b7",
    # The same with move outcomes only: an idle robot has no options.
    "protocol-9-moves": "2ac27d5f02b8766b230635ac913422e195c08e9d9a03494733bfeb637031cb9b",
}


def test_decision_table_pinned():
    digest = hashlib.sha256()
    for n in range(9, 13):
        for c in configurations(n, 4):
            for i in occupied_nodes(c):
                try:
                    d = protocol.decide(c, i)
                    row = f"{d.kind},{d.target},{d.adversary}"
                except Exception as exc:
                    row = type(exc).__name__
                digest.update(f"{format_config(c)}@{i}:{row}\n".encode())
    assert digest.hexdigest() == DECISION_TABLE_9_TO_12_SHA256


def _branches_sha256(cases) -> str:
    digest = hashlib.sha256()
    for c, options, sequential in cases:
        for activation, outcomes, succ in engine.successors(c, options):
            if sequential and len(outcomes) != 1:
                continue
            rows = tuple((v, dest, label if isinstance(label, int)
                          else (label.kind, label.target, label.adversary))
                         for v, dest, label in outcomes)
            digest.update(f"{activation}{rows}{succ}\n".encode())
    return digest.hexdigest()


def _refuter_cases():
    tables = impossibility._tables()
    return [(c, lambda v, cid=cid: tables.options[(cid, v)], sequential)
            for sequential in (False, True) for cid, c in enumerate(tables.configs)]


def _refuter_move_cases():
    # The call ``_Tables`` makes: move options only, no idle outcome.
    tables = impossibility._tables()
    return [(c, lambda v, cid=cid: tables.options[(cid, v)][1:], sequential)
            for sequential in (False, True) for cid, c in enumerate(tables.configs)]


def _protocol_cases():
    return [(c, verify._protocol_options(c, protocol.decide), sequential)
            for sequential in (False, True)
            for c in configurations(9, 4) if protocol.phase(c) != "invalid"]


def _protocol_move_cases():
    # Move outcomes only: an idle robot has no options at all, so some
    # activations have no branch.
    def moves_only(options):
        return lambda v: [(dest, d) for dest, d in options(v) if dest is not None]
    return [(c, moves_only(verify._protocol_options(c, protocol.decide)), sequential)
            for sequential in (False, True)
            for c in configurations(9, 4) if protocol.phase(c) != "invalid"]


SUCCESSOR_CASES = {"refuter": _refuter_cases, "refuter-moves": _refuter_move_cases,
                   "protocol-9": _protocol_cases, "protocol-9-moves": _protocol_move_cases}


@pytest.mark.parametrize("name", sorted(SUCCESSOR_CASES))
def test_successor_order_pinned(name):
    assert _branches_sha256(SUCCESSOR_CASES[name]()) == SUCCESSORS_SHA256[name]


# SHA-256 of the stdout of ``verify --n 12 --traces 5 --seed 3``.
VERIFY_N12_SHA256 = "fbdbf1c85cb3eb85418546b97c4e896f529407d308575aec141670ecc351ff1f"


def test_verify_stdout_pinned(capsys):
    code = main(["verify", "--n", "12", "--traces", "5", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_N12_SHA256


# SHA-256 of the stdout of ``verify --n 20 --traces 25 --seed 0``, the size
# the benchmark runs: shifts of up to 19 nodes between a snapshot and its
# representative rotation only occur at large n.
VERIFY_N20_SHA256 = "9549a476dfb3ba76bc544006dcf03edf418076267bbc263d89092e2cf6d531ad"


def test_verify_n20_stdout_pinned(capsys):
    code = main(["verify", "--n", "20", "--traces", "25", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_N20_SHA256


# SHA-256 over every trial and step of ``trial_runs(15, 500, policy, 42)``,
# the size of the benchmark's campaign: per trial, the trial seed, initial
# configuration, verdict and sorted visited nodes, then every step record as
# a plain tuple.  So a change to the engine's bookkeeping that alters any
# field of any record, or the RNG draw order, fails here.
TRIAL_RUNS_15_500_SEED_42_SHA256 = {
    "round-robin": "44d81fa2a0a81f8d95fbedb7ce1b998603786386e9382b651f8752f7a5d9fdea",
    "sequential-random": "6b5f3547ba4b32f67ef1077b652dc452d2b6ce0cfd54ebbe7b341ade079bd4aa",
    "random-subset": "aebb25a9b74d9f7d307c89000149e6cf4b3d380ce2637b93bf8881a654561a2e",
}


@pytest.mark.parametrize("policy", sorted(TRIAL_RUNS_15_500_SEED_42_SHA256))
def test_trial_run_steps_pinned(policy):
    digest = hashlib.sha256()
    for seed, trace in verify.trial_runs(15, 500, SchedulerPolicy(policy), 42):
        digest.update(repr((seed, trace.initial, trace.terminated,
                            sorted(trace.visited))).encode())
        for step in trace.steps:
            digest.update(repr(tuple(step)).encode())
    assert digest.hexdigest() == TRIAL_RUNS_15_500_SEED_42_SHA256[policy]


# SHA-256 of the stdout of ``campaign --n 15 --trials 500 --seed 42 --policy
# <policy>``, the command the README shows and the benchmark runs.
CAMPAIGN_N15_SHA256 = {
    "round-robin": "dd9adc7d0077eac084e030248bc3e21d0c75064a6481f7c13c6c6a28553677fa",
    "random-subset": "7407439a6808ea1b895d0c13f642b74e14100d12ddece3de39404e8e131f90db",
}


@pytest.mark.parametrize("policy", sorted(CAMPAIGN_N15_SHA256))
def test_campaign_stdout_pinned(capsys, policy):
    code = main(["campaign", "--n", "15", "--trials", "500", "--seed", "42", "--policy", policy])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CAMPAIGN_N15_SHA256[policy]
