"""Unit tests for ISA data structures and assembly-time validation."""

import pytest

from repro.ir.types import VClass
from repro.isa import Function, Imm, Instr, Program, QueueId

from .conftest import build_demo_loop


class TestInstr:
    def test_unknown_opcode_rejected(self):
        with pytest.raises(ValueError):
            Instr(op="frobnicate")

    def test_repr_readable(self):
        ins = Instr(op="bin", fn="add", dst="x", a="y", b=Imm(1))
        text = repr(ins)
        assert "add" in text and "x" in text and "#1" in text

    def test_queue_repr(self):
        q = QueueId(0, 3, VClass.FPR)
        assert "0->3" in repr(q) and "fpr" in repr(q)

    def test_imm_hashable_frozen(self):
        assert Imm(1) == Imm(1)
        with pytest.raises(Exception):
            Imm(1).value = 2


class TestFunction:
    def test_labels_collected(self):
        f = Function("f", [
            Instr(op="lab", label="a"),
            Instr(op="jp", label="a"),
        ])
        assert f.labels == {"a": 0}

    def test_duplicate_label_rejected(self):
        with pytest.raises(ValueError):
            Function("f", [
                Instr(op="lab", label="a"),
                Instr(op="lab", label="a"),
            ])

    def test_undefined_label_rejected(self):
        with pytest.raises(ValueError):
            Function("f", [Instr(op="jp", label="nowhere")])

    def test_len(self):
        f = Function("f", [Instr(op="halt")])
        assert len(f) == 1


class TestProgram:
    def _prog(self):
        return Program("p", [
            Function("main", [Instr(op="halt")]),
            Function("aux", [Instr(op="ret")]),
        ])

    def test_fn_index(self):
        p = self._prog()
        assert p.fn_index("aux") == 1
        with pytest.raises(KeyError):
            p.fn_index("missing")

    def test_n_instrs(self):
        assert self._prog().n_instrs == 2

    def test_dump_contains_functions(self):
        d = self._prog().dump()
        assert "fn[0] main" in d and "fn[1] aux" in d


class TestDeterminism:
    def test_lowering_is_deterministic(self, demo_loop):
        from repro import memo
        from repro.runtime import compile_loop

        k1 = compile_loop(demo_loop, 4)
        memo.clear()
        k2 = compile_loop(demo_loop, 4)
        # an independently built copy of the loop lowers the same way
        k3 = compile_loop(build_demo_loop(), 4)
        assert k1 is not k2 and k1 is not k3  # no memo self-comparison
        assert len(k1.programs) == len(k2.programs) == len(k3.programs)
        for p1, p2, p3 in zip(k1.programs, k2.programs, k3.programs):
            d1 = p1.dump()
            assert d1 == p2.dump()
            assert d1 == p3.dump()

    def test_simulation_is_deterministic(self, demo_loop):
        from repro.runtime import compile_loop, execute_kernel
        from repro.workload import random_workload

        kern = compile_loop(demo_loop, 4)
        wl = random_workload(demo_loop, trip=20, seed=7, scalars={"s": 0.0})
        a = execute_kernel(kern, wl)
        b = execute_kernel(kern, wl)
        assert a.cycles == b.cycles
        assert a.total_instrs == b.total_instrs
        assert a.scalars == b.scalars
