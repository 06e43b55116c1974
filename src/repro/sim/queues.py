"""Hardware core-to-core queues (paper §II, Fig 3, Fig 11).

Timing semantics reproduced exactly:

* an ``enqueue`` completing at time ``T_A`` makes its value *accessible*
  to the consumer at ``T_A + transfer_latency`` (Fig 11);
* a ``dequeue`` issued earlier stalls until that point; a dequeue issued
  later proceeds immediately;
* the queue holds at most ``depth`` values; the ``m``-th enqueue cannot
  complete before the ``(m - depth)``-th dequeue has freed a slot;
* FIFO order, single producer, single consumer (one queue per ordered
  core pair and value class).

The simulator processes cores as independent timelines (conservative
dataflow replay), so the queue records the full enqueue/dequeue history
with timestamps; "not yet processed" and "stalls in simulated time" are
distinct notions (see :mod:`repro.sim.machine`).

:class:`HwQueue` is that history and nothing more: the cores test its
blockers, read its head and slot times, and dequeue and enqueue on it
in place (:meth:`repro.sim.core.Core.run_slice`).  Only a queue with a
fault injector admits its transfers through :meth:`HwQueue.push`, so
the injector sees every one of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa.instructions import QueueId


@dataclass
class HwQueue:
    qid: QueueId
    depth: int
    transfer_latency: int

    values: list = field(default_factory=list)        # by entry index
    ready_times: list = field(default_factory=list)   # enq completion + latency
    deq_times: list = field(default_factory=list)     # dequeue completion times
    n_enq: int = 0
    n_deq: int = 0
    max_outstanding: int = 0
    #: simulated cycles producers stalled on a full queue / consumers
    #: stalled on an empty or in-flight one (accumulated by the cores;
    #: the adaptive runtime's per-queue pressure/starvation signal).
    stall_full: float = 0.0
    stall_empty: float = 0.0
    #: optional FaultInjector (see :mod:`repro.faults`) consulted on
    #: every admitted transfer; None in normal operation.
    injector: object | None = None

    def push(self, value, ready_time: float) -> bool:
        """Admit a transfer through the fault injector; returns False if
        it was dropped in flight (the producer has already paid for the
        enqueue and is unaware, exactly like lost hardware flits)."""
        assert self.n_enq - self.depth < self.n_deq, "push on full queue"
        if self.injector is not None:
            value, ready_time, dropped = self.injector.on_enqueue(
                self.qid, self.n_enq, value, ready_time
            )
            if dropped:
                return False
        self.values.append(value)
        self.ready_times.append(ready_time)
        self.n_enq += 1
        self.max_outstanding = max(self.max_outstanding, self.n_enq - self.n_deq)
        return True

    # -- runtime reconfiguration ------------------------------------------
    def grow(self, new_depth: int) -> bool:
        """Raise the capacity to ``new_depth`` (monotone: never shrinks).

        Value-safe by construction — FIFO contents are depth-independent
        — and deadlock-safe: capacity wait-for edges can only relax.
        The new capacity applies to every not-yet-admitted enqueue; in
        simulated time the grow takes effect at the blocked producer's
        retry.  Shrinking mid-run is forbidden (it could strand an
        admitted transfer); the adaptive runtime shrinks only at epoch
        boundaries, behind a full static re-check.
        """
        if new_depth <= self.depth:
            return False
        self.depth = new_depth
        return True

    # -- end-of-run checks ------------------------------------------------
    @property
    def outstanding(self) -> int:
        return self.n_enq - self.n_deq

    def __repr__(self) -> str:
        return (
            f"HwQueue({self.qid!r}, enq={self.n_enq}, deq={self.n_deq}, "
            f"depth={self.depth})"
        )


def occupancy_histogram(ready_times, deq_times) -> dict[int, float]:
    """Exact time-weighted occupancy distribution of one queue.

    Maps occupancy level -> simulated cycles the queue spent at that
    level (empty intervals excluded), from its enqueue-visibility and
    dequeue-completion times; ``repro profile``'s queue-pressure
    histograms are built from it.  Both lists are already in time order
    unless a fault plan jittered a transfer (one producer, one consumer,
    each on its own monotone clock), so the sorts are linear and the two
    are merged in one pass; at equal times a dequeue goes first.
    """
    ups, downs = sorted(ready_times), sorted(deq_times)
    n_up, n_down = len(ups), len(downs)
    hist: dict[int, float] = {}
    occ = i = j = 0
    last: float | None = None
    while i < n_up or j < n_down:
        if j < n_down and (i == n_up or downs[j] <= ups[i]):
            t, d = downs[j], -1
            j += 1
        else:
            t, d = ups[i], 1
            i += 1
        if last is not None and t > last and occ > 0:
            hist[occ] = hist.get(occ, 0.0) + (t - last)
        occ += d
        last = t
    return hist
