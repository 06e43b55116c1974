"""Unit tests for the hardware queue model (§II, Fig 11).

The cores test a queue's blockers, read its head and slot times, and
dequeue and enqueue on it in place, so the timing and capacity rules
are checked through two-core machine runs; the occupancy histogram
through :class:`~repro.sim.QueueStat`, which builds it on first read.
"""

import signal

import pytest

from repro.analysis.cost import default_latencies
from repro.ir.types import VClass
from repro.isa import Function, Imm, Instr, Program, QueueId
from repro.sim import (
    DeadlockError, HwQueue, Machine, MachineParams, QueueStat, SharedMemory,
)

Q = QueueId(0, 1, VClass.GPR)
LAT = default_latencies()


def _q(depth=4, lat=5):
    return HwQueue(Q, depth=depth, transfer_latency=lat)


def _run(producer, consumer, depth=4, lat=5, controller=None):
    """A machine of core 0 running ``producer`` and core 1 ``consumer``
    (each then halts), run to its end; returns the machine and result."""
    m = Machine(
        [Program("core0", [Function("main", producer + [Instr(op="halt")])]),
         Program("core1", [Function("main", consumer + [Instr(op="halt")])])],
        SharedMemory({}),
        MachineParams(queue_depth=depth, queue_latency=lat),
        controller=controller,
    )
    return m, m.run()


def _pad(n):
    """``n`` movs: ``n * LAT.mov`` cycles of local work."""
    return [Instr(op="mov", dst="pad", a=Imm(0))] * n


def _enq(v):
    return Instr(op="enq", queue=Q, a=Imm(v))


def _deq(dst):
    return Instr(op="deq", queue=Q, dst=dst)


class TestFig11Timing:
    def test_value_ready_after_transfer_latency(self):
        m, _ = _run(_pad(100) + [_enq(42)], [_deq("w")])
        # the enqueue completes at 100 + enqueue cost
        t_a = 100 * LAT.mov + LAT.enqueue
        assert m.queues[Q].ready_times == [t_a + 5]

    def test_early_dequeue_must_wait(self):
        """Fig 11 core 2: dequeue issued before T_A + latency stalls."""
        m, _ = _run(_pad(100) + [_enq(1)], _pad(90) + [_deq("w")])
        ready = 100 * LAT.mov + LAT.enqueue + 5
        assert m.queues[Q].deq_times == [ready + LAT.dequeue]
        assert m.cores[1].stats.queue_stall == ready - 90 * LAT.mov

    def test_late_dequeue_proceeds_immediately(self):
        """Fig 11 core 3: dequeue after T_A + latency does not stall."""
        m, _ = _run(_pad(100) + [_enq(1)], _pad(200) + [_deq("w")])
        assert m.queues[Q].deq_times == [200 * LAT.mov + LAT.dequeue]
        assert m.cores[1].stats.queue_stall == 0.0


class TestCapacity:
    def test_blocks_at_depth(self):
        with pytest.raises(DeadlockError) as ei:
            _run([_enq(1), _enq(2), _enq(3)], [], depth=2)
        (b,) = ei.value.blocked
        assert (b.core, b.kind, b.index) == (0, "slot", 0)  # waits for deq #0

    def test_slot_freed_by_dequeue(self):
        m, _ = _run([_enq(1), _enq(2), _enq(3)],
                    _pad(50) + [_deq("a"), _deq("b"), _deq("c")], depth=2)
        q = m.queues[Q]
        # the third enqueue waited for the first dequeue's completion
        assert q.deq_times[0] == 50 * LAT.mov + LAT.dequeue
        assert q.ready_times[2] == q.deq_times[0] + LAT.enqueue + 5
        assert m.cores[0].stats.stall_full == q.deq_times[0] - 2 * LAT.enqueue
        assert q.max_outstanding == 2

    def test_push_on_full_asserts(self):
        q = _q(depth=1)
        q.push(1, 10)
        with pytest.raises(AssertionError):
            q.push(2, 11)


class TestFifo:
    def test_order_preserved(self):
        m, _ = _run([_enq(k * 10) for k in range(4)],
                    [_deq(f"r{k}") for k in range(4)])
        assert [m.cores[1].regs[f"r{k}"] for k in range(4)] == [0, 10, 20, 30]

    def test_empty_blocks(self):
        with pytest.raises(DeadlockError) as ei:
            _run([], [_deq("a")])
        assert [(b.kind, b.index) for b in ei.value.blocked] == [("entry", 0)]
        with pytest.raises(DeadlockError) as ei:
            _run([_enq(1)], [_deq("a"), _deq("b")])
        assert [(b.kind, b.index) for b in ei.value.blocked] == [("entry", 1)]

    def test_outstanding_and_highwater(self):
        with pytest.raises(RuntimeError, match="3 left"):
            _run([_enq(k) for k in range(5)], [_deq("a"), _deq("b")], depth=8)
        q = _q(depth=8)
        for k in range(5):
            q.push(k, k)
        assert q.outstanding == 5 and q.max_outstanding == 5

    def test_pop_empty_asserts(self):
        """A dequeue on an empty queue never reads it: the consumer
        waits, and nothing was dequeued."""
        m = Machine(
            [Program("core1", [Function("main", [_deq("w"),
                                                 Instr(op="halt")])])],
            SharedMemory({}),
        )
        with pytest.raises(DeadlockError):
            m.run()
        q = m.queues[Q]
        assert (q.n_deq, q.deq_times) == (0, [])
        assert "w" not in m.cores[0].regs and m.cores[0].pc == 0


class TestReconfiguration:
    """Runtime depth growth (adaptive runtime's live rescue path)."""

    def test_grow_frees_blocked_slot(self):
        # the consumer waits on a second queue the producer fills only
        # after its third enqueue: at depth 2 that is a capacity deadlock
        # until a grow admits the third value
        q2 = QueueId(0, 1, VClass.FPR)

        grown = []

        class Rescue:
            def on_round(self, machine):
                pass

            def on_stuck(self, machine):
                b = machine.cores[0].blocked
                assert (b.kind, b.index) == ("slot", 0)  # full: deq #0
                grown.append(machine.queues[Q].grow(4))
                return grown[-1]

        m, _ = _run([_enq(1), _enq(2), _enq(3),
                     Instr(op="enq", queue=q2, a=Imm(0.5))],
                    [Instr(op="deq", queue=q2, dst="go"),
                     _deq("a"), _deq("b"), _deq("c")],
                    depth=2, controller=Rescue())
        assert grown == [True]
        assert [m.cores[1].regs[r] for r in "abc"] == [1, 2, 3]
        assert m.queues[Q].depth == 4

    def test_rescue_that_frees_no_core_is_a_deadlock(self):
        """A controller that claims a rescue but changes nothing gets one
        more round, not an endless loop of them."""
        calls = []

        class Liar:
            def on_round(self, machine):
                pass

            def on_stuck(self, machine):
                calls.append(1)
                return True

        def hang(signum, frame):
            raise TimeoutError(f"no deadlock after {len(calls)} rescues")

        old = signal.signal(signal.SIGALRM, hang)
        signal.alarm(10)
        try:
            with pytest.raises(DeadlockError) as ei:
                _run([], [_deq("a")], controller=Liar())
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
        assert len(calls) == 1
        (b,) = ei.value.blocked
        assert (b.core, b.kind, b.index) == (1, "entry", 0)

    def test_grow_never_shrinks(self):
        q = _q(depth=4)
        assert not q.grow(4) and not q.grow(2)
        assert q.depth == 4


def _hist(ready_times, deq_times):
    return QueueStat(Q, len(deq_times), 0, ready_times=ready_times,
                     deq_times=deq_times).occupancy_hist


class TestOccupancyHistogram:
    def test_time_weighted_levels(self):
        # two entries visible at t=0 and t=10, drained at t=20 and t=30:
        # occupancy 1 over [0,10) and [20,30), occupancy 2 over [10,20)
        assert _hist([0.0, 10.0], [20.0, 30.0]) == {1: 20.0, 2: 10.0}

    def test_empty_intervals_excluded(self):
        assert _hist([0.0, 100.0], [5.0, 105.0]) == {1: 10.0}

    def test_jittered_transfers_out_of_order(self):
        # a fault plan's jitter can make a later transfer visible first;
        # at equal times a dequeue counts before an enqueue
        assert _hist([30.0, 0.0, 10.0], [10.0, 40.0, 50.0]) == {
            1: 40.0, 2: 10.0}
        assert _hist([], []) == {}

    def test_replay_runahead_is_not_occupancy(self):
        # producer processed far ahead in replay order (peak outstanding
        # at capacity) while simulated-time occupancy never exceeds 1:
        # the honest pressure signal is the histogram, not the peak
        _, res = _run([_enq(k) for k in range(4)],
                      [_deq(f"r{k}") for k in range(4)], depth=4, lat=0)
        (qs,) = res.queue_stats
        assert qs.max_outstanding == 4
        assert set(qs.occupancy_hist) == {1}

    def test_stall_clocks_start_at_zero(self):
        q = _q()
        assert q.stall_full == 0.0 and q.stall_empty == 0.0
