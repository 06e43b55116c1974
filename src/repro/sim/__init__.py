"""Cycle-level multi-core simulator with hardware queues (paper §II/§V).

Substitution for the Mambo BG/Q simulator: deterministic in-order cores,
per-core LRU caches, shared functional memory, and the paper's
enqueue/dequeue instructions with parameterised queue depth and transfer
latency.  The core's slice loop does each instruction's memory, cache
and queue work in place (:mod:`repro.sim.core`).
"""

from .core import Core, CoreStats, SimError
from .machine import (
    BlockedTransfer,
    BudgetExceeded,
    DeadlockError,
    Machine,
    MachineFailure,
    MachineParams,
    PartialStats,
    QueueStat,
    SimResult,
)
from .memory import MemoryFault, SharedMemory
from .queues import HwQueue
from .race import Race, RaceDetector

__all__ = [
    "BlockedTransfer", "BudgetExceeded", "Core", "CoreStats", "DeadlockError",
    "HwQueue", "Machine", "MachineFailure", "MachineParams", "MemoryFault",
    "PartialStats", "QueueStat", "Race", "RaceDetector", "SharedMemory",
    "SimError", "SimResult",
]
