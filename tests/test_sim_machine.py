"""Unit tests for memory model, core execution and the machine loop,
using hand-assembled programs."""

import numpy as np
import pytest

from repro.analysis.cost import default_latencies
from repro.ir.types import VClass
from repro.isa import Function, Imm, Instr, Program, QueueId
from repro.sim import (
    CoreCache,
    DeadlockError,
    Machine,
    MachineParams,
    MemoryFault,
    SharedMemory,
    SimError,
)


def _mem(**arrays):
    return SharedMemory({k: np.asarray(v) for k, v in arrays.items()})


def _prog(name, instrs):
    return Program(name, [Function("main", instrs)])


def run1(instrs, mem=None, params=None, preload=None):
    m = Machine(
        [_prog("core0", instrs)],
        mem or _mem(),
        params,
        preload_regs={0: preload or {}},
    )
    res = m.run()
    return m, res


class TestSharedMemory:
    def test_load_store_roundtrip(self):
        mem = _mem(a=np.zeros(4))
        mem.store("a", 2, 7.5)
        assert mem.load("a", 2) == 7.5
        assert isinstance(mem.load("a", 2), float)

    def test_int_arrays_yield_ints(self):
        mem = _mem(n=np.zeros(4, dtype=np.int64))
        mem.store("n", 0, 9)
        assert isinstance(mem.load("n", 0), int)

    def test_bounds_checked(self):
        mem = _mem(a=np.zeros(4))
        with pytest.raises(MemoryFault):
            mem.load("a", 4)
        with pytest.raises(MemoryFault):
            mem.store("a", -1, 0.0)


class TestCoreCache:
    def test_miss_then_hit(self):
        lat = default_latencies()
        c = CoreCache(cache_lines=16, line_elems=8)
        assert c.access("a", 0, lat) == lat.load_miss
        assert c.access("a", 0, lat) == lat.load_hit

    def test_spatial_locality(self):
        lat = default_latencies()
        c = CoreCache(cache_lines=16, line_elems=8)
        c.access("a", 0, lat)
        assert c.access("a", 7, lat) == lat.load_hit  # same line
        assert c.access("a", 8, lat) == lat.load_miss  # next line

    def test_lru_eviction(self):
        lat = default_latencies()
        c = CoreCache(cache_lines=2, line_elems=1)
        c.access("a", 0, lat)
        c.access("a", 1, lat)
        c.access("a", 2, lat)  # evicts line 0
        assert c.access("a", 0, lat) == lat.load_miss

    def test_distinct_arrays_distinct_lines(self):
        lat = default_latencies()
        c = CoreCache(cache_lines=16, line_elems=8)
        c.access("a", 0, lat)
        assert c.access("b", 0, lat) == lat.load_miss


class TestSingleCore:
    def test_arith_and_halt(self):
        _, res = run1(
            [
                Instr(op="mov", dst="x", a=Imm(3.0)),
                Instr(op="bin", fn="mul", dst="y", a="x", b=Imm(4.0), is_float=True),
                Instr(op="halt"),
            ]
        )
        assert res.cycles > 0

    def test_branching_loop(self):
        # sum 0..4 into r
        instrs = [
            Instr(op="mov", dst="i", a=Imm(0)),
            Instr(op="mov", dst="r", a=Imm(0)),
            Instr(op="lab", label="top"),
            Instr(op="bin", fn="lt", dst="c", a="i", b=Imm(5)),
            Instr(op="fjp", a="c", label="end"),
            Instr(op="bin", fn="add", dst="r", a="r", b="i"),
            Instr(op="bin", fn="add", dst="i", a="i", b=Imm(1)),
            Instr(op="jp", label="top"),
            Instr(op="lab", label="end"),
            Instr(op="halt"),
        ]
        m, res = run1(instrs)
        assert m.cores[0].regs["r"] == 10

    def test_load_store(self):
        mem = _mem(a=np.array([1.0, 2.0, 3.0]), o=np.zeros(3))
        instrs = [
            Instr(op="load", dst="v", a=Imm(1), array="a"),
            Instr(op="store", a=Imm(0), b="v", array="o"),
            Instr(op="halt"),
        ]
        m, res = run1(instrs, mem=mem)
        assert res.arrays["o"][0] == 2.0

    def test_select(self):
        _, res = run1(
            [
                Instr(op="mov", dst="c", a=Imm(0)),
                Instr(op="select", dst="v", a=Imm(1.0), b=Imm(2.0), c="c"),
                Instr(op="halt"),
            ]
        )

    def test_undefined_register_raises(self):
        with pytest.raises(SimError):
            run1([Instr(op="bin", fn="add", dst="x", a="ghost", b=Imm(1)),
                  Instr(op="halt")])

    def test_fall_off_end_raises(self):
        with pytest.raises(SimError):
            run1([Instr(op="mov", dst="x", a=Imm(1))])


class TestTwoCoreQueues:
    def _pair(self, lat=5, depth=20, producer_extra=(), consumer_extra=()):
        q = QueueId(0, 1, VClass.GPR)
        p0 = _prog(
            "core0",
            [
                *producer_extra,
                Instr(op="mov", dst="v", a=Imm(99)),
                Instr(op="enq", queue=q, a="v"),
                Instr(op="halt"),
            ],
        )
        p1 = _prog(
            "core1",
            [
                *consumer_extra,
                Instr(op="deq", queue=q, dst="w"),
                Instr(op="halt"),
            ],
        )
        m = Machine(
            [p0, p1], _mem(),
            MachineParams(queue_latency=lat, queue_depth=depth),
        )
        return m, m.run()

    def test_value_transferred(self):
        m, _ = self._pair()
        assert m.cores[1].regs["w"] == 99

    def test_transfer_latency_observed(self):
        m5, _ = self._pair(lat=5)
        m50, _ = self._pair(lat=50)
        assert m50.cores[1].time > m5.cores[1].time + 40

    def test_unbalanced_comm_detected(self):
        q = QueueId(0, 1, VClass.GPR)
        p0 = _prog("core0", [
            Instr(op="enq", queue=q, a=Imm(1)),
            Instr(op="enq", queue=q, a=Imm(2)),
            Instr(op="halt"),
        ])
        p1 = _prog("core1", [
            Instr(op="deq", queue=q, dst="w"),
            Instr(op="halt"),
        ])
        m = Machine([p0, p1], _mem())
        with pytest.raises(SimError, match="unbalanced"):
            m.run()

    def test_deadlock_detected(self):
        qa = QueueId(0, 1, VClass.GPR)
        qb = QueueId(1, 0, VClass.GPR)
        p0 = _prog("core0", [
            Instr(op="deq", queue=qb, dst="x"),
            Instr(op="enq", queue=qa, a="x"),
            Instr(op="halt"),
        ])
        p1 = _prog("core1", [
            Instr(op="deq", queue=qa, dst="y"),
            Instr(op="enq", queue=qb, a="y"),
            Instr(op="halt"),
        ])
        m = Machine([p0, p1], _mem())
        with pytest.raises(DeadlockError):
            m.run()

    def test_full_queue_blocks_then_drains(self):
        q = QueueId(0, 1, VClass.GPR)
        sends = []
        for k in range(6):
            sends.append(Instr(op="enq", queue=q, a=Imm(k)))
        recvs = []
        for k in range(6):
            recvs.append(Instr(op="deq", queue=q, dst=f"r{k}"))
        m = Machine(
            [_prog("c0", sends + [Instr(op="halt")]),
             _prog("c1", recvs + [Instr(op="halt")])],
            _mem(),
            MachineParams(queue_depth=2),
        )
        m.run()
        assert [m.cores[1].regs[f"r{k}"] for k in range(6)] == list(range(6))
        stats = m.queues[q]
        assert stats.max_outstanding <= 2

    def test_driver_dispatch_callr_ret(self):
        q = QueueId(0, 1, VClass.GPR)
        drv = Function("driver", [
            Instr(op="lab", label="top"),
            Instr(op="deq", queue=q, dst="fn"),
            Instr(op="bin", fn="eq", dst="stop", a="fn", b=Imm(-1)),
            Instr(op="tjp", a="stop", label="done"),
            Instr(op="callr", a="fn"),
            Instr(op="jp", label="top"),
            Instr(op="lab", label="done"),
            Instr(op="halt"),
        ])
        worker = Function("F1", [
            Instr(op="mov", dst="ran", a=Imm(1)),
            Instr(op="ret"),
        ])
        p1 = Program("core1", [drv, worker])
        p0 = _prog("core0", [
            Instr(op="enq", queue=q, a=Imm(1)),   # call F1
            Instr(op="enq", queue=q, a=Imm(-1)),  # stop
            Instr(op="halt"),
        ])
        m = Machine([p0, p1], _mem())
        m.run()
        assert m.cores[1].regs["ran"] == 1


class TestPerQueueDepths:
    """MachineParams.queue_depths: per-queue capacity overrides keyed
    like the checker diagnostics ((src, dst, vclass) -> depth)."""

    def _pair_progs(self, n_sends=6):
        q = QueueId(0, 1, VClass.GPR)
        p0 = _prog("core0", [
            Instr(op="mov", dst="v", a=Imm(3)),
            *[Instr(op="enq", queue=q, a="v") for _ in range(n_sends)],
            Instr(op="halt"),
        ])
        p1 = _prog("core1", [
            *[Instr(op="deq", queue=q, dst=f"w{i}") for i in range(n_sends)],
            Instr(op="halt"),
        ])
        return [p0, p1]

    def test_override_applied_to_named_queue(self):
        m = Machine(
            self._pair_progs(), _mem(),
            MachineParams(queue_depth=20,
                          queue_depths=(((0, 1, "gpr"), 3),)),
        )
        res = m.run()
        qs = res.queue_stats[0]
        assert qs.depth == 3
        assert qs.max_outstanding <= 3  # capacity actually enforced

    def test_unnamed_queues_keep_base_depth(self):
        m = Machine(
            self._pair_progs(), _mem(),
            MachineParams(queue_depth=7,
                          queue_depths=(((5, 6, "fpr"), 3),)),
        )
        res = m.run()
        assert res.queue_stats[0].depth == 7

    def test_controller_round_hook_called(self):
        # consumer first in program order, so round 1 leaves it
        # replay-blocked and the scheduler takes a second round
        rounds = []

        class Probe:
            def on_round(self, machine):
                rounds.append(len(machine.queues))

            def on_stuck(self, machine):
                return False

        q = QueueId(1, 0, VClass.GPR)
        consumer = _prog("core0", [
            Instr(op="deq", queue=q, dst="w"),
            Instr(op="halt"),
        ])
        producer = _prog("core1", [
            Instr(op="mov", dst="v", a=Imm(3)),
            Instr(op="enq", queue=q, a="v"),
            Instr(op="halt"),
        ])
        m = Machine([consumer, producer], _mem(), MachineParams(),
                    controller=Probe())
        m.run()
        assert rounds and all(n == 1 for n in rounds)


class TestWatchdog:
    def test_instruction_budget(self):
        instrs = [
            Instr(op="lab", label="top"),
            Instr(op="mov", dst="x", a=Imm(1)),
            Instr(op="jp", label="top"),
        ]
        from repro.sim import BudgetExceeded

        m = Machine(
            [_prog("c0", instrs)], _mem(),
            MachineParams(max_instrs=10_000, slice_budget=1000),
        )
        with pytest.raises(BudgetExceeded):
            m.run()


class TestPartialStats:
    """Machine failures carry a progress snapshot (ISSUE-2)."""

    def test_budget_exceeded_carries_partial(self):
        from repro.sim import BudgetExceeded, MachineFailure

        instrs = [
            Instr(op="lab", label="top"),
            Instr(op="mov", dst="x", a=Imm(1)),
            Instr(op="jp", label="top"),
        ]
        m = Machine(
            [_prog("c0", instrs)], _mem(),
            MachineParams(max_instrs=5_000, slice_budget=500),
        )
        with pytest.raises(BudgetExceeded) as ei:
            m.run()
        assert isinstance(ei.value, MachineFailure)
        p = ei.value.partial
        assert p is not None
        assert p.total_instrs >= 5_000
        assert len(p.core_times) == 1 and p.core_times[0] > 0
        assert p.core_instrs[0] > 0 and not p.core_halted[0]
        assert "instrs" in p.format() and "c0:" in p.format()

    def test_deadlock_carries_partial(self):
        qa = QueueId(0, 1, VClass.GPR)
        qb = QueueId(1, 0, VClass.GPR)
        p0 = _prog("core0", [
            Instr(op="deq", queue=qb, dst="x"),
            Instr(op="enq", queue=qa, a="x"),
            Instr(op="halt"),
        ])
        p1 = _prog("core1", [
            Instr(op="deq", queue=qa, dst="y"),
            Instr(op="enq", queue=qb, a="y"),
            Instr(op="halt"),
        ])
        m = Machine([p0, p1], _mem())
        with pytest.raises(DeadlockError) as ei:
            m.run()
        p = ei.value.partial
        assert p is not None
        assert len(p.core_times) == 2 and len(p.core_instrs) == 2
        assert not any(p.core_halted)

    def test_drain_error_carries_partial(self):
        q = QueueId(0, 1, VClass.GPR)
        p0 = _prog("core0", [
            Instr(op="enq", queue=q, a=Imm(1)),
            Instr(op="enq", queue=q, a=Imm(2)),
            Instr(op="halt"),
        ])
        p1 = _prog("core1", [
            Instr(op="deq", queue=q, dst="w"),
            Instr(op="halt"),
        ])
        m = Machine([p0, p1], _mem())
        with pytest.raises(SimError) as ei:
            m.run()
        p = getattr(ei.value, "partial", None)
        assert p is not None and len(p.queue_stats) >= 1


class TestFailureMessages:
    """The exact diagnostics of each simulator failure.  They name the
    function and instruction index (labels included) where it happened,
    so any bookkeeping of ``fn``/``pc`` that drifts shows up here."""

    def _raises(self, exc, programs, mem=None, params=None):
        m = Machine(programs, mem or _mem(), params)
        with pytest.raises(exc) as ei:
            m.run()
        return ei.value

    def test_undefined_register_names_register_and_site(self):
        err = self._raises(SimError, [_prog("core0", [
            Instr(op="mov", dst="x", a=Imm(1)),
            Instr(op="lab", label="top"),
            Instr(op="bin", fn="add", dst="y", a="ghost", b="x"),
            Instr(op="halt"),
        ])])
        assert str(err) == (
            "core 0: read of undefined register 'ghost' at main:2 "
            "(bin add y <- ghost x)"
        )

    def test_undefined_select_operand_is_the_selected_one(self):
        err = self._raises(SimError, [_prog("core0", [
            Instr(op="mov", dst="c", a=Imm(0)),
            Instr(op="select", dst="v", a="ghost_a", b="ghost_b", c="c"),
            Instr(op="halt"),
        ])])
        assert str(err) == (
            "core 0: read of undefined register 'ghost_b' at main:1 "
            "(select v <- ghost_a ghost_b c)"
        )

    def test_undefined_register_in_called_function(self):
        callee = Function("F1", [
            Instr(op="lab", label="entry"),
            Instr(op="store", a=Imm(0), b="ghost", array="o"),
            Instr(op="ret"),
        ])
        main = Function("main", [
            Instr(op="callr", a=Imm(1)),
            Instr(op="halt"),
        ])
        err = self._raises(SimError, [Program("core0", [main, callee])],
                           _mem(o=np.zeros(2)))
        assert str(err) == (
            "core 0: read of undefined register 'ghost' at F1:1 "
            "(store #0 ghost [o])"
        )

    def test_fall_off_end_names_function(self):
        err = self._raises(SimError, [_prog("core0", [
            Instr(op="mov", dst="x", a=Imm(1)),
            Instr(op="lab", label="end"),
        ])])
        assert str(err) == "core 0: fell off end of main"
        callee = Function("F1", [Instr(op="mov", dst="x", a=Imm(1))])
        main = Function("main", [Instr(op="callr", a=Imm(1)),
                                 Instr(op="halt")])
        err = self._raises(SimError, [Program("core0", [main, callee])])
        assert str(err) == "core 0: fell off end of F1"

    def test_callr_bad_index(self):
        err = self._raises(SimError, [_prog("core0", [
            Instr(op="mov", dst="f", a=Imm(5)),
            Instr(op="callr", a="f"),
            Instr(op="halt"),
        ])])
        assert str(err) == "core 0: bad function index 5"

    def test_ret_on_empty_stack(self):
        err = self._raises(SimError, [_prog("core0", [Instr(op="ret")])])
        assert str(err) == "core 0: ret with empty stack"

    def test_out_of_bounds_load_and_store(self):
        err = self._raises(MemoryFault, [_prog("core0", [
            Instr(op="mov", dst="i", a=Imm(4)),
            Instr(op="load", dst="v", a="i", array="a"),
            Instr(op="halt"),
        ])], _mem(a=np.zeros(4)))
        assert str(err) == "load a[4] out of bounds (len 4)"
        err = self._raises(MemoryFault, [_prog("core0", [
            Instr(op="store", a=Imm(-1), b=Imm(2.0), array="o"),
            Instr(op="halt"),
        ])], _mem(o=np.zeros(3)))
        assert str(err) == "store o[-1] out of bounds (len 3)"

    def test_deadlock_names_blocked_instructions(self):
        from repro.sim import BlockedTransfer

        qa = QueueId(0, 1, VClass.GPR)
        qb = QueueId(1, 0, VClass.GPR)
        p0 = _prog("core0", [
            Instr(op="mov", dst="v", a=Imm(7)),
            Instr(op="lab", label="send"),
            Instr(op="enq", queue=qa, a=Imm(1)),
            Instr(op="enq", queue=qa, a="v"),   # queue full: slot wait
            Instr(op="halt"),
        ])
        p1 = _prog("core1", [
            Instr(op="lab", label="recv"),
            Instr(op="deq", queue=qb, dst="y"),  # never sent: entry wait
            Instr(op="halt"),
        ])
        err = self._raises(DeadlockError, [p0, p1],
                           params=MachineParams(queue_depth=1))
        assert err.blocked == (
            BlockedTransfer(core=0, kind="slot", queue=(0, 1, "gpr"),
                            index=0, tag="v"),
            BlockedTransfer(core=1, kind="entry", queue=(1, 0, "gpr"),
                            index=0, tag="y"),
        )
        lines = str(err).splitlines()
        assert lines[:3] == [
            "deadlock: no core can make progress",
            "  core 0: waiting slot#0 of Q0->1.gpr since 2 at "
            "main:3 enq v Q0->1.gpr",
            "  core 1: waiting entry#0 of Q1->0.gpr since 0 at "
            "main:1 deq y <- Q1->0.gpr",
        ]
        assert sorted(lines[3:]) == [
            "  Q0->1.gpr: enq=1 deq=0 depth=1",
            "  Q1->0.gpr: enq=0 deq=0 depth=1",
        ]
