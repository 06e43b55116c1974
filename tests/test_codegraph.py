"""Unit tests for code-graph construction (§III-B)."""

from repro.compiler import build_code_graph
from repro.ir import F64, I64, LoopBuilder, VarRef, normalize


def _graph(loop, h=2):
    return build_code_graph(normalize(loop, max_height=h))


class TestValueEdges:
    def test_def_use_edge_exists(self):
        b = LoopBuilder("k")
        x = b.array("x", F64)
        o = b.array("o", F64)
        t = b.let("t", x[b.index] + 1.0)
        b.store(o, b.index, t * 2.0)
        g = _graph(b.build())
        val = [e for e in g.edges if e.kind == "value" and e.var == "t"]
        assert len(val) == 1
        assert val[0].producer.writes == "t"

    def test_multiple_uses_multiple_edges(self):
        b = LoopBuilder("k")
        x = b.array("x", F64)
        o = b.array("o", F64)
        p = b.array("p", F64)
        t = b.let("t", x[b.index] + 1.0)
        b.store(o, b.index, t * 2.0)
        b.store(p, b.index, t * 3.0)
        g = _graph(b.build())
        assert len([e for e in g.edges if e.var == "t"]) == 2


class TestIntraEdges:
    def test_cross_fiber_tree_edge(self):
        b = LoopBuilder("fig4")
        p1 = b.param("p1", I64)
        p2 = b.param("p2", I64)
        a = b.array("a", I64)
        o = b.array("o", I64)
        b.let("t", (p2 % 7) + a[b.index] * (p1 % 13))
        b.store(o, b.index, 0)
        g = build_code_graph(normalize(b.build(), max_height=8))
        intra = [e for e in g.edges if e.kind == "intra"]
        # fiber {C} -> fiber {A} and fiber {D,B} -> fiber {A}
        assert len(intra) == 2


class TestMemEdges:
    def test_store_load_same_index(self):
        b = LoopBuilder("k")
        a = b.array("a", F64)
        o = b.array("o", F64)
        b.store(a, b.index, 1.5)
        b.store(o, b.index, a[b.index] * 2.0)
        g = _graph(b.build())
        mem = [e for e in g.edges if e.kind == "mem"]
        assert len(mem) == 1
        assert mem[0].producer.kind == "store"

    def test_war_edge_direction(self):
        """Load before store to the same slot: edge orders load first."""
        b = LoopBuilder("k")
        a = b.array("a", F64)
        o = b.array("o", F64)
        b.store(o, b.index, a[b.index] * 2.0)  # read a[i]
        b.store(a, b.index, 0.0)               # then overwrite it
        g = _graph(b.build())
        mem = [e for e in g.edges if e.kind == "mem"]
        assert len(mem) == 1
        assert mem[0].producer.rank < mem[0].consumer.rank
        assert mem[0].consumer.kind == "store"

    def test_carried_conflict_cohesion(self):
        b = LoopBuilder("k")
        a = b.array("a", F64)
        b.store(a, b.index + 1, a[b.index] * 0.5)
        g = _graph(b.build())
        assert g.cohesion, "shifted store/load must cohere"

    def test_disjoint_arrays_no_edge(self):
        b = LoopBuilder("k")
        a = b.array("a", F64)
        c = b.array("c", F64)
        b.store(a, b.index, 1.0)
        b.store(c, b.index, 2.0)
        g = _graph(b.build())
        assert not [e for e in g.edges if e.kind == "mem"]


class TestCtrlEdges:
    def test_guarded_fibers_depend_on_cond(self, branchy_loop):
        g = _graph(branchy_loop)
        ctrl = [e for e in g.edges if e.kind == "ctrl"]
        assert ctrl
        for e in ctrl:
            assert e.var.startswith("__c")
            assert e.producer.writes == e.var


class TestCohesion:
    def test_accumulator_cohesion(self):
        """When the reduction read and write land in different fibers,
        a cohesion group ties them together."""
        b = LoopBuilder("red")
        x = b.array("x", F64)
        s = b.accumulator("s", F64)
        # force the read of s into a different fiber than the write:
        # t uses s; s's new value comes from a separate chain.
        t = b.let("t", s * 2.0 + x[b.index])
        b.set(s, x[b.index] * 0.5 + t)
        g = _graph(b.build())
        fs = g.fiberset
        groups = [grp for grp in g.cohesion if len(grp) > 1]
        s_def_fiber = None
        for st in fs.body.stmts:
            if st.target == "s":
                s_def_fiber = fs.fiber_of(fs.root_op[st.sid]).fid
        assert any(s_def_fiber in grp for grp in groups)


class TestStats:
    def test_data_deps_counts_cross_fiber_only(self, demo_loop):
        g = _graph(demo_loop)
        assert 0 < g.n_data_deps <= len(g.edges)
