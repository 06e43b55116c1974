"""Cycle-level multi-core simulator with hardware queues (paper §II/§V).

Substitution for the Mambo BG/Q simulator: deterministic in-order cores,
per-core LRU caches, shared functional memory, and the paper's
enqueue/dequeue instructions with parameterised queue depth and transfer
latency.
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
from .memory import CoreCache, MemoryFault, SharedMemory
from .queues import HwQueue
from .race import Race, RaceDetector
from .trace import TraceEvent, TraceRecorder

__all__ = [
    "BlockedTransfer", "BudgetExceeded", "Core", "CoreCache", "CoreStats",
    "DeadlockError",
    "HwQueue", "Machine", "MachineFailure", "MachineParams", "MemoryFault",
    "PartialStats", "QueueStat", "Race", "RaceDetector", "SharedMemory",
    "SimError", "SimResult", "TraceEvent", "TraceRecorder",
]
