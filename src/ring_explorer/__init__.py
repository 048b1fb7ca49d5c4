"""Simulator and mechanical verifier for ring exploration by oblivious robots."""

from .engine import SchedulerPolicy, ScriptedAdversary, Simulation, is_terminal, run, sample_towerless
from .protocol import decide
from .verify import campaign, check_no_tower_one_step

__version__ = "0.1.0"
