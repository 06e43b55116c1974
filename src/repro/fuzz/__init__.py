"""repro.fuzz — seeded differential fuzzing with shrinking.

The loop grammar (:mod:`.gen`) is shared with the Hypothesis property
tests; the campaign (:mod:`.campaign`) probes generated loops through
checker + simulator + interpreter across a config matrix, shrinks
findings (:mod:`.shrink`) and saves them as replayable JSON artifacts
(:mod:`.artifact`).
"""

from .artifact import load_artifact, save_artifact
from .campaign import (
    DEFAULT_MATRIX,
    Finding,
    FuzzCell,
    FuzzResult,
    probe_loop,
    replay_artifact,
    run_campaign,
)
from .gen import Draw, RandomDraw, build_loop, mutate_loop
from .shrink import loop_size, shrink_loop

__all__ = [
    "DEFAULT_MATRIX",
    "Draw",
    "Finding",
    "FuzzCell",
    "FuzzResult",
    "RandomDraw",
    "build_loop",
    "mutate_loop",
    "load_artifact",
    "loop_size",
    "probe_loop",
    "replay_artifact",
    "run_campaign",
    "save_artifact",
    "shrink_loop",
]
