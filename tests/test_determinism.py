"""Determinism pinned across versions: recorded outputs, asserted as literals.

The other determinism tests compare two runs of the same code.  These compare
against values recorded from an earlier version, so a change to the engine that
alters the RNG draw order, a step record or a trace field fails here.
"""

import hashlib
import json

import pytest

from ring_explorer import verify
from ring_explorer.cli import main
from ring_explorer.engine import SchedulerPolicy

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

# SHA-256 of the stdout of ``simulate --n 13 --seed <seed> --policy <policy>``.
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
    code = main(["simulate", "--n", "13", "--seed", str(seed), "--policy", policy])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SIMULATE_N13_SHA256[(policy, seed)]
