"""Simulator and mechanical verifier for ring exploration by oblivious robots."""

from .engine import (
    SchedulerPolicy,
    ScriptedAdversary,
    SeededAdversary,
    Simulation,
    StepRecord,
    Trace,
    is_terminal,
    mrp,
    run,
    sample_towerless,
    trace_to_jsonl,
)
from .protocol import Decision, ProtocolError, decide
from .ring import (
    Arrow,
    Configuration,
    Segment,
    View,
    canonical_form,
    find_arrow,
    mirror,
    parse_config,
    rotate,
    segments,
    view_of,
)
from .verify import (
    CampaignStats,
    CheckReport,
    InvariantViolation,
    campaign,
    check_four_segment_step,
    check_mrp_bounds,
    check_no_tower_one_step,
    check_phase3_monotone,
    count_tower_classes,
)

__version__ = "0.1.0"
