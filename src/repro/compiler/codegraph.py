"""Code-graph construction (paper §III-B).

"Once fibers have been identified, a graph (called the code graph) is
built.  Each node in this code graph represents a fiber.  Edges between
nodes represent data and control dependences between code sections that
correspond to node fibers.  These dependences are determined from
information gathered in our compiler framework, including use-def
analysis, aliasing information, and dependence vectors."

Edge kinds:

* ``intra``  — a fiber consumes the value produced by another fiber of
  the *same* statement (tree edges across fiber boundaries, Fig 4);
* ``value``  — scalar def-use between statements (reaching defs);
* ``mem``    — same-iteration memory ordering (store→load / store→store);
* ``ctrl``   — a statement is guarded by a condition computed elsewhere.

Loop-carried dependences (reduction temporaries, cross-iteration memory
conflicts) cannot be expressed as per-iteration queue transfers; the
fibers involved are recorded as *cohesion groups* which the merge pass
unions up-front, keeping them on a single core (where ordinary
sequential execution of iterations preserves their order).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..analysis.alias import ConflictKind, classify_conflict
from ..analysis.reachdefs import reaching_defs
from ..ir.nodes import Load, VarRef
from ..ir.stmts import FlatBody
from ..ir.types import DType, VClass
from .fibers import Fiber, FiberSet, Op, consumed_leaves, extract_fibers, interior_operands


@dataclass(eq=False)
class DepEdge:
    """A dependence between two ops (and hence between their fibers)."""

    kind: str                 # intra | value | mem | ctrl
    producer: Op
    consumer: Op
    var: Optional[str]        # register name transferred (None for mem)
    dtype: Optional[DType]    # dtype of the transferred value

    @property
    def vclass(self) -> VClass:
        if self.kind == "mem":
            return VClass.GPR  # synchronisation token
        return self.dtype.vclass

    def __repr__(self) -> str:
        return (
            f"DepEdge({self.kind}, S{self.producer.sid}->S{self.consumer.sid}"
            f", {self.var})"
        )


@dataclass
class CodeGraph:
    fiberset: FiberSet
    edges: list[DepEdge] = field(default_factory=list)
    #: groups of fiber ids that must end up in the same partition.
    cohesion: list[set[int]] = field(default_factory=list)

    @property
    def fibers(self) -> list[Fiber]:
        return self.fiberset.fibers

    @property
    def n_data_deps(self) -> int:
        """Table III "Data Deps": data dependences between initial
        fibers (intra/value/mem edges crossing fiber boundaries)."""
        fs = self.fiberset
        n = 0
        for e in self.edges:
            if e.kind == "ctrl":
                continue
            if fs.fiber_of(e.producer) is not fs.fiber_of(e.consumer):
                n += 1
        return n


def build_code_graph(body: FlatBody) -> CodeGraph:
    """Extract fibers and assemble the dependence graph."""
    fs = extract_fibers(body)
    graph = CodeGraph(fiberset=fs)
    _add_intra_edges(graph)
    _add_value_edges(graph, body)
    _add_mem_edges(graph, body)
    _add_ctrl_edges(graph, body)
    _add_carried_cohesion(graph, body)
    return graph


# ----------------------------------------------------------------------
# Edge builders
# ----------------------------------------------------------------------

def _add_intra_edges(graph: CodeGraph) -> None:
    fs = graph.fiberset
    for op in fs.ops:
        for child in interior_operands(op):
            prod = fs.op_of_node[(op.sid, child.nid)]
            if fs.fiber_of(prod) is fs.fiber_of(op):
                continue
            graph.edges.append(
                DepEdge(
                    kind="intra",
                    producer=prod,
                    consumer=op,
                    var=prod.value_name,
                    dtype=child.dtype,
                )
            )


def _ops_by_sid(fs: FiberSet) -> dict[int, list[Op]]:
    index: dict[int, list[Op]] = {}
    for op in fs.ops:
        index.setdefault(op.sid, []).append(op)
    return index


def _consumers_of_var(stmt_ops: list[Op], var: str) -> list[Op]:
    """Ops of one statement that read scalar ``var`` as a leaf
    (directly, through a Load index, or via the store index)."""
    out: list[Op] = []
    for op in stmt_ops:
        for leaf in consumed_leaves(op):
            if isinstance(leaf, VarRef) and leaf.name == var:
                out.append(op)
                break
            if isinstance(leaf, Load) and isinstance(leaf.index, VarRef) \
                    and leaf.index.name == var:
                out.append(op)
                break
    return out


def _add_value_edges(graph: CodeGraph, body: FlatBody) -> None:
    fs = graph.fiberset
    by_sid = _ops_by_sid(fs)
    for use in reaching_defs(body):
        consumers = _consumers_of_var(by_sid.get(use.sid, []), use.var)
        for def_sid in use.defs:
            prod = fs.root_op[def_sid]
            dtype = body.stmt(def_sid).dtype
            for cons in consumers:
                graph.edges.append(
                    DepEdge(
                        kind="value",
                        producer=prod,
                        consumer=cons,
                        var=use.var,
                        dtype=dtype,
                    )
                )


@dataclass(frozen=True)
class _Access:
    op_id: int       # index into fs.ops
    is_store: bool
    array_name: str


def _add_mem_edges(graph: CodeGraph, body: FlatBody) -> None:
    fs = graph.fiberset
    loop_index = body.index

    # collect (op, is_store, array, index_expr) for all memory accesses
    accesses: list[tuple[Op, bool, object, object]] = []
    for op in fs.ops:
        if op.kind == "store":
            accesses.append((op, True, op.stmt.array, op.stmt.index))
        for leaf in consumed_leaves(op):
            if isinstance(leaf, Load):
                accesses.append((op, False, leaf.array, leaf.index))

    for ai in range(len(accesses)):
        op_a, st_a, arr_a, idx_a = accesses[ai]
        for bi in range(ai + 1, len(accesses)):
            op_b, st_b, arr_b, idx_b = accesses[bi]
            if not (st_a or st_b):
                continue  # load-load never conflicts
            kind = classify_conflict(arr_a, idx_a, arr_b, idx_b, loop_index)
            if kind is ConflictKind.NONE:
                continue
            same_stmt = op_a.sid == op_b.sid
            first, second = (op_a, op_b) if op_a.rank < op_b.rank else (op_b, op_a)
            # within one statement, same-iteration order is implied by
            # the tree structure — but *cross-iteration* conflicts
            # (e.g. ``a[i+1] = a[i] * 0.5``) still force cohesion below.
            if same_stmt and kind is ConflictKind.SAME_ITER:
                continue
            if not same_stmt and kind in (ConflictKind.SAME_ITER, ConflictKind.BOTH):
                graph.edges.append(
                    DepEdge(
                        kind="mem", producer=first, consumer=second,
                        var=None, dtype=None,
                    )
                )
            if kind in (ConflictKind.CARRIED, ConflictKind.BOTH):
                graph.cohesion.append(
                    {fs.fiber_of(op_a).fid, fs.fiber_of(op_b).fid}
                )


def _add_ctrl_edges(graph: CodeGraph, body: FlatBody) -> None:
    fs = graph.fiberset
    cond_def: dict[str, int] = {
        s.target: s.sid for s in body.stmts if s.kind == "cond"
    }
    by_sid = _ops_by_sid(fs)
    for st in body.stmts:
        for cond_name, _ in st.pred:
            def_sid = cond_def[cond_name]
            prod = fs.root_op[def_sid]
            dtype = body.stmt(def_sid).dtype
            seen: set[int] = set()
            for op in by_sid.get(st.sid, []):
                fib = fs.fiber_of(op)
                if fib.fid in seen:
                    continue
                seen.add(fib.fid)
                graph.edges.append(
                    DepEdge(
                        kind="ctrl",
                        producer=prod,
                        consumer=op,
                        var=cond_name,
                        dtype=dtype,
                    )
                )


def _add_carried_cohesion(graph: CodeGraph, body: FlatBody) -> None:
    """Fibers touching a loop-carried temporary must co-reside."""
    fs = graph.fiberset
    by_sid = _ops_by_sid(fs)
    for var in sorted(body.carried):
        group: set[int] = set()
        for st in body.stmts:
            if st.target == var:
                group.add(fs.fiber_of(fs.root_op[st.sid]).fid)
            for op in by_sid.get(st.sid, []):
                for leaf in consumed_leaves(op):
                    if isinstance(leaf, VarRef) and leaf.name == var:
                        group.add(fs.fiber_of(op).fid)
                    elif (
                        isinstance(leaf, Load)
                        and isinstance(leaf.index, VarRef)
                        and leaf.index.name == var
                    ):
                        group.add(fs.fiber_of(op).fid)
        if len(group) > 1:
            graph.cohesion.append(group)
