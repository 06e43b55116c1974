"""Static queue-protocol verification over lowered programs.

Four checks per hardware queue ``(src, dst, VClass)``:

1. **FIFO order agreement** — the producer's enqueue sequence and the
   consumer's dequeue sequence name the same values in the same order,
   per region (pre-loop dispatch, loop body, post-loop copy-out) and
   per replicated conditional arm.  Pairing is *guard-exact*: the
   §III-E discipline replicates the producer's predicate chain at the
   consumer, so the k-th enqueue under guard ``P`` must meet the k-th
   dequeue under the same ``P``.  This is stricter than semantic
   equivalence (a compiler that split one unconditional transfer into
   two complementary guarded ones would be rejected) but exactly
   matches what the lowerer can emit — and a mismatch is always a
   protocol bug for this artifact class.
2. **Count matching** — enq/deq totals balance on every control-flow
   path: each guard group must pair off completely, including §III-F
   copy-out and the §III-G dispatch/STOP/done-token protocol.
3. **Deadlock freedom** — a blocking wait-for graph is built over the
   pre region, one copy of the loop body and the post region, with
   three edge families: program order within a core, FIFO pairing (the
   m-th dequeue waits for the m-th enqueue), and capacity (the m-th
   enqueue waits for the (m-depth)-th dequeue).  A cycle is reported
   with the exact transfer sequence.  The model lets every guarded
   transfer fire ("all-fire"), which is conservative in the right
   direction: the compiler's rank-ordered comm schedule is acyclic even
   all-fire (see compiler/schedule.py constraint 4).
4. **Well-formedness** — every register read on a core is covered by an
   earlier definition (preload, dequeue, or compute) whose guard
   chains cover the read's guard chain; a read whose only later
   definition is a dequeue is the classic *use-before-deque* bug.

The checks read only the artifact (the per-core ``Program`` list); the
``CommPlan`` when available is cross-checked against the extracted
body transfers as a fifth, cheaper consistency check.

**One body copy is exact.**  The scan runs only when pairing is clean,
so in every region of every queue the enqueues equal the dequeues.
Unroll the body ``K`` times and label each node with its copy: ``pre``,
body iteration *i*, or ``post``, in that order.

* The m-th enqueue and the m-th dequeue of a queue sit in the same copy.
* Program-order edges never go back a copy.
* A capacity edge ``deq[m-d] -> enq[m]`` starts at a dequeue that comes
  before ``deq[m]`` on the consumer core, so it never goes back a copy
  either.

So every cycle lies inside one copy.  Every body copy also has the same
internal edges: the capacity edge into the r-th transfer of a copy
stays inside that copy exactly when ``r >= d``, whatever the copy's
index.  A cycle therefore exists for some ``K`` exactly when one exists
at ``K = 1``, and the scan builds only ``pre``, one body copy and
``post``.

**Monotone in depth.**  At depth ``d' > d`` the capacity edge
``deq[m-d'] -> enq[m]`` is a path of the depth-``d`` graph: the
consumer's program order leads from ``deq[m-d']`` to ``deq[m-d]``,
whose capacity edge enters ``enq[m]``.  So a program verified at depth
``d`` is verified at every deeper depth, and the same holds queue by
queue for per-queue depths.  ``tests/test_check.py`` holds both facts
as properties against the ``K``-unrolled graph; no code path relies on
the second.

**Depth-free work once per kernel.**  Only the capacity edges read a
queue depth.  :func:`check_kernel` runs everything else — extraction,
ownership, pairing and counts, well-formedness, the ``CommPlan``
cross-check and the depth-free part of the wait-for graph — once per
kernel and placement, keeps it on the kernel, and adds the capacity
edges and scans on every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.types import VClass
from ..isa.instructions import Imm, QueueId
from ..isa.program import Program
from .extract import REGIONS, CoreSummary, GInstr, summarize_all

__all__ = [
    "CATEGORIES",
    "Diagnostic",
    "CheckReport",
    "ProtocolError",
    "check_programs",
    "check_kernel",
]

#: diagnostic categories, in rough severity order
CATEGORIES = (
    "malformed-program",
    "count-mismatch",
    "fifo-mismatch",
    "conditional-mismatch",
    "plan-mismatch",
    "use-before-deque",
    "undefined-register",
    "deadlock-cycle",
)


def _qkey(q: QueueId) -> tuple:
    return (q.src, q.dst, q.vclass.value)


@dataclass(frozen=True)
class Diagnostic:
    """One protocol violation, attributable to a queue and category."""

    category: str
    message: str
    queue: tuple | None = None       # (src, dst, vclass) or None
    cycle: tuple = ()                # deadlock cycle: transfer descriptors
    cycle_queues: tuple = ()         # queue keys along the cycle, in order

    def format(self) -> str:
        q = f" {self.queue}" if self.queue else ""
        out = f"[{self.category}]{q} {self.message}"
        if self.cycle:
            out += "\n    cycle: " + " -> ".join(self.cycle)
        return out


@dataclass
class CheckReport:
    """Outcome of one static verification."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    n_cores: int = 0
    n_queues: int = 0
    n_body_transfers: int = 0
    queue_depth: int = 0

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    @property
    def categories(self) -> list[str]:
        seen: list[str] = []
        for d in self.diagnostics:
            if d.category not in seen:
                seen.append(d.category)
        return seen

    def describe(self) -> str:
        if self.ok:
            return (
                f"protocol OK: {self.n_queues} queue(s), "
                f"{self.n_body_transfers} transfer(s)/iteration verified "
                f"at depth {self.queue_depth}"
            )
        head = (
            f"protocol REJECTED: {len(self.diagnostics)} diagnostic(s) "
            f"[{', '.join(self.categories)}]"
        )
        return "\n".join([head] + ["  " + d.format() for d in self.diagnostics])


class ProtocolError(RuntimeError):
    """Raised by the mandatory pipeline stage on checker rejection."""

    def __init__(self, report: CheckReport):
        super().__init__(report.describe())
        self.report = report


# ----------------------------------------------------------------------
# Guard-chain helpers
# ----------------------------------------------------------------------

def _compatible(p: frozenset, q: frozenset) -> bool:
    """Two guard chains can hold simultaneously (no opposite literal)."""
    return not any((c, not w) in q for c, w in p)


def _fmt_pred(pred) -> str:
    if not pred:
        return "(always)"
    lits = sorted(pred) if isinstance(pred, frozenset) else list(pred)
    return "if " + " & ".join(f"{c}={'1' if w else '0'}" for c, w in lits)


def _fmt_tag(g: GInstr) -> str:
    if g.tag is not None:
        return g.tag
    ins = g.instr
    if ins.op == "enq" and isinstance(ins.a, Imm):
        return f"#{ins.a.value}"
    return "?"


def _covers(read_pred: frozenset, def_preds: list[frozenset],
            _depth: int = 0) -> bool:
    """Does some definition dominate every completion of ``read_pred``?

    True when a def guard is a subset of the read guard, or when the
    defs split on a condition (if/else arms) and each refinement of the
    read guard is covered.  Bounded by the number of distinct
    conditions, which is tiny.
    """
    for p in def_preds:
        if p <= read_pred:
            return True
    if _depth > 8:
        return False
    read_vars = {c for c, _ in read_pred}
    for p in def_preds:
        for c, _ in p:
            if c not in read_vars:
                t = read_pred | {(c, True)}
                f = read_pred | {(c, False)}
                return (_covers(t, def_preds, _depth + 1)
                        and _covers(f, def_preds, _depth + 1))
    return False


# ----------------------------------------------------------------------
# Checks 1 + 2: FIFO / count pairing per queue, per region
# ----------------------------------------------------------------------

def _pair_region(
    q: QueueId,
    region: str,
    enqs: list[GInstr],
    deqs: list[GInstr],
    diags: list[Diagnostic],
    check_tags: bool = True,
) -> list[tuple[GInstr, GInstr]]:
    key = _qkey(q)
    groups_e: dict[frozenset, list[GInstr]] = {}
    groups_d: dict[frozenset, list[GInstr]] = {}
    order: list[frozenset] = []
    for g in enqs:
        if g.pred_key not in groups_e and g.pred_key not in order:
            order.append(g.pred_key)
        groups_e.setdefault(g.pred_key, []).append(g)
    for g in deqs:
        if g.pred_key not in groups_d and g.pred_key not in order:
            order.append(g.pred_key)
        groups_d.setdefault(g.pred_key, []).append(g)

    pairs: list[tuple[GInstr, GInstr]] = []
    left_e: list[GInstr] = []
    left_d: list[GInstr] = []
    for pk in order:
        le = groups_e.get(pk, [])
        ld = groups_d.get(pk, [])
        n = min(len(le), len(ld))
        for i in range(n):
            pairs.append((le[i], ld[i]))
        left_e.extend(le[n:])
        left_d.extend(ld[n:])

    # Leftovers whose value tag exists on the other side under a
    # different guard chain: inconsistently replicated conditional.
    for e in list(left_e):
        match = next(
            (d for d in left_d
             if e.tag is not None and d.tag == e.tag), None
        )
        if match is not None:
            left_e.remove(e)
            left_d.remove(match)
            diags.append(Diagnostic(
                category="conditional-mismatch",
                queue=key,
                message=(
                    f"{region}: transfer {e.tag!r} is enqueued on core "
                    f"{q.src} {_fmt_pred(e.pred)} but dequeued on core "
                    f"{q.dst} {_fmt_pred(match.pred)} — replicated "
                    "condition arms disagree"
                ),
            ))
    for e in left_e:
        diags.append(Diagnostic(
            category="count-mismatch",
            queue=key,
            message=(
                f"{region}: core {q.src} enqueues {_fmt_tag(e)} "
                f"{_fmt_pred(e.pred)} with no matching dequeue on core "
                f"{q.dst}"
            ),
        ))
    for d in left_d:
        diags.append(Diagnostic(
            category="count-mismatch",
            queue=key,
            message=(
                f"{region}: core {q.dst} dequeues into {_fmt_tag(d)} "
                f"{_fmt_pred(d.pred)} with no matching enqueue on core "
                f"{q.src}"
            ),
        ))

    # Check 1a: paired slots must name the same value.  Exempted for
    # CTL dispatch channels (check_tags=False): the producer names the
    # placement register (``__fib<s>``), the consumer its private
    # ``__fn`` — differing by design, FIFO/count/deadlock still checked.
    for k, (e, d) in enumerate(pairs):
        if not check_tags:
            break
        if e.tag is not None and d.tag is not None and e.tag != d.tag:
            diags.append(Diagnostic(
                category="fifo-mismatch",
                queue=key,
                message=(
                    f"{region}: slot {k} {_fmt_pred(e.pred)} carries "
                    f"{e.tag!r} at the producer but the consumer reads "
                    f"it into {d.tag!r}"
                ),
            ))
    # Check 1b: guard-compatible pairs must agree on relative order.
    for i in range(len(pairs)):
        ei, di = pairs[i]
        for j in range(i + 1, len(pairs)):
            ej, dj = pairs[j]
            if not _compatible(ei.pred_key, ej.pred_key):
                continue
            if (ei.pos < ej.pos) != (di.pos < dj.pos):
                diags.append(Diagnostic(
                    category="fifo-mismatch",
                    queue=key,
                    message=(
                        f"{region}: transfers {_fmt_tag(ei)} and "
                        f"{_fmt_tag(ej)} are enqueued and dequeued in "
                        "opposite orders"
                    ),
                ))
    return pairs


# ----------------------------------------------------------------------
# Check 3: wait-for graph under finite capacity
# ----------------------------------------------------------------------

class _WaitGraph:
    """Check 3's wait-for graph over ``pre``, one body copy and
    ``post``, without its capacity edges, the only part that reads a
    queue depth.

    Nodes are ints in per-core chain order; ``nodes[n]`` keeps the
    core and instruction of node ``n`` (its region is its copy), and
    nothing is formatted until a cycle is found.  ``succ[n]`` holds
    the program-order successor first, then the FIFO edge of an
    enqueue.  Queues are indexed by their position in ``keys``.
    """

    def __init__(self, summaries: list[CoreSummary],
                 queues: list[QueueId]):
        index = {q: i for i, q in enumerate(queues)}
        self.keys = [_qkey(q) for q in queues]
        self.nodes: list[tuple[int, GInstr]] = []
        self.queue_of: list[int] = []
        self.enqs: list[list[int]] = [[] for _ in queues]
        self.deqs: list[list[int]] = [[] for _ in queues]
        succ: list[list[int]] = []
        for s in summaries:
            qops = s.queue_ops
            prev = -1
            for region in REGIONS:
                for g in qops:
                    if g.region != region:
                        continue
                    nid = len(self.nodes)
                    qi = index[g.queue]
                    self.nodes.append((s.core, g))
                    self.queue_of.append(qi)
                    succ.append([])
                    if g.instr.op == "enq":
                        self.enqs[qi].append(nid)
                    else:
                        self.deqs[qi].append(nid)
                    if prev >= 0:
                        succ[prev].append(nid)
                    prev = nid
        for es, ds in zip(self.enqs, self.deqs):
            for e, d in zip(es, ds):
                succ[e].append(d)          # dequeue waits on enqueue
        self.succ = [tuple(x) for x in succ]

    def scan(self, queue_depth: int, overrides: dict[tuple, int],
             diags: list[Diagnostic]) -> None:
        """Add the capacity edges at these depths and report one cycle."""
        succ = list(self.succ)
        for key, es, ds in zip(self.keys, self.enqs, self.deqs):
            depth = overrides.get(key, queue_depth)
            # below one slot, every enqueue blocks as it does at zero
            for deq, enq in zip(ds, es[max(depth, 0):]):
                succ[deq] = succ[deq] + (enq,)   # slot waits on dequeue
        cycle = _find_cycle(succ)
        if cycle is not None:
            first = self.keys[self.queue_of[cycle[0]]]
            diags.append(self._diagnostic(
                cycle, overrides.get(first, queue_depth)
            ))

    def _diagnostic(self, cycle: list[int], depth: int) -> Diagnostic:
        lits: dict[tuple, bool] = {}
        conflict = False
        for n in cycle:
            g = self.nodes[n][1]
            for c, w in g.pred:
                if lits.setdefault((g.region, c), w) != w:
                    conflict = True
        note = (
            " (note: the cycle's guards conflict; it may be unreachable "
            "dynamically, but the schedule still violates the rank-order "
            "discipline)" if conflict else ""
        )
        return Diagnostic(
            category="deadlock-cycle",
            queue=self.keys[self.queue_of[cycle[0]]],
            message=(
                f"cyclic blocking at queue depth {depth} over "
                f"{len(cycle)} transfer(s){note}"
            ),
            cycle=tuple(
                f"core{core}:{g.instr.op} {g.queue!r}[{_fmt_tag(g)}] "
                f"@{g.region}"
                for core, g in (self.nodes[n] for n in cycle)
            ),
            cycle_queues=tuple(self.keys[self.queue_of[n]] for n in cycle),
        )


def _find_cycle(succ: list[list[int]]) -> list[int] | None:
    """Iterative DFS; returns one cycle (node list) or None."""
    n = len(succ)
    color = [0] * n  # 0 white, 1 on stack, 2 done
    parent = [-1] * n
    for root in range(n):
        if color[root] != 0:
            continue
        stack: list[tuple[int, int]] = [(root, 0)]
        color[root] = 1
        while stack:
            node, ei = stack[-1]
            if ei < len(succ[node]):
                stack[-1] = (node, ei + 1)
                nxt = succ[node][ei]
                if color[nxt] == 0:
                    color[nxt] = 1
                    parent[nxt] = node
                    stack.append((nxt, 0))
                elif color[nxt] == 1:
                    cycle = [node]
                    cur = node
                    while cur != nxt:
                        cur = parent[cur]
                        cycle.append(cur)
                    cycle.reverse()
                    return cycle
            else:
                color[node] = 2
                stack.pop()
    return None


# ----------------------------------------------------------------------
# Check 4: definition-before-use on each core
# ----------------------------------------------------------------------

_READS = {
    "bin": ("a", "b"),
    "un": ("a",),
    "call": ("a", "b", "c"),
    "select": ("a", "b", "c"),
    "mov": ("a",),
    "load": ("a",),
    "store": ("a", "b"),
    "enq": ("a",),
    "fjp": ("a",),
    "tjp": ("a",),
    "callr": ("a",),
}

_WRITES = frozenset({"bin", "un", "call", "select", "mov", "load", "deq"})


def _reads_of(g: GInstr) -> list[str]:
    ins = g.instr
    out = []
    for f in _READS.get(ins.op, ()):
        v = getattr(ins, f)
        if isinstance(v, str):
            out.append(v)
    return out


def _check_wellformed(
    s: CoreSummary,
    preload: set[str],
    diags: list[Diagnostic],
) -> None:
    defs: dict[str, list[frozenset]] = {r: [frozenset()] for r in preload}
    later_defs: dict[str, list[GInstr]] = {}
    for g in s.ops:
        if g.instr.op in _WRITES and g.instr.dst is not None:
            later_defs.setdefault(g.instr.dst, []).append(g)

    flagged: set[str] = set()
    for g in s.ops:
        for reg in _reads_of(g):
            if reg in flagged:
                continue
            have = defs.get(reg, [])
            if have and _covers(g.pred_key, have):
                continue
            flagged.add(reg)
            later = [d for d in later_defs.get(reg, []) if d.pos > g.pos]
            deq_later = next(
                (d for d in later if d.instr.op == "deq"), None
            )
            if deq_later is not None:
                diags.append(Diagnostic(
                    category="use-before-deque",
                    queue=_qkey(deq_later.queue),
                    message=(
                        f"core {s.core}: {g.region} reads {reg!r} "
                        f"({g.instr!r}) before it is dequeued from "
                        f"{deq_later.queue!r}"
                    ),
                ))
            else:
                diags.append(Diagnostic(
                    category="undefined-register",
                    message=(
                        f"core {s.core}: {g.region} reads {reg!r} "
                        f"({g.instr!r}) which is never defined before use"
                    ),
                ))
        if g.instr.op in _WRITES and g.instr.dst is not None:
            defs.setdefault(g.instr.dst, []).append(g.pred_key)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _DepthFreePass:
    """What checking a set of programs derives without a queue depth:
    the report's counts, the diagnostics of every check but 3, and
    check 3's wait-for graph without capacity edges (``None`` when the
    pairing was rejected, since the graph presumes a clean one)."""

    n_cores: int
    n_queues: int
    n_body_transfers: int
    diagnostics: tuple[Diagnostic, ...]
    graph: _WaitGraph | None

    def report(self, queue_depth: int,
               queue_depths: dict[tuple, int] | None) -> CheckReport:
        """A fresh report at these depths: the depth-free diagnostics,
        then the deadlock scan's."""
        report = CheckReport(
            diagnostics=list(self.diagnostics),
            n_cores=self.n_cores,
            n_queues=self.n_queues,
            n_body_transfers=self.n_body_transfers,
            queue_depth=queue_depth,
        )
        if self.graph is not None:
            self.graph.scan(queue_depth, queue_depths or {},
                            report.diagnostics)
        return report


def check_programs(
    programs: list[Program],
    *,
    queue_depth: int = 20,
    preload: dict[int, set[str]] | None = None,
    plan=None,
    placement: dict[int, int] | None = None,
    dispatch: dict[int, int] | None = None,
    queue_depths: dict[tuple, int] | None = None,
) -> CheckReport:
    """Verify the queue protocol of a set of per-core programs.

    ``preload`` maps core id to the register names the loader
    initializes (the primary's scalar parameters); ``plan`` is an
    optional :class:`~repro.compiler.comm.CommPlan` cross-checked
    against the extracted body transfers.

    Stealing-mode artifacts add three inputs: ``placement`` maps core id
    -> fiber pid (data queues are *fiber*-keyed, so ownership and
    pairing resolve through it; CTL dispatch queues stay core-keyed),
    ``dispatch`` maps driver core -> function-table index (what the
    preloaded ``__fib<core>`` register will hold), and ``queue_depths``
    maps ``(src, dst, vclass)`` keys to per-queue capacity overrides —
    the deadlock scan then models exactly the depths the adaptive
    runtime configured.

    Runs the depth-free pass and one deadlock scan; :func:`check_kernel`
    keeps the pass and repeats only the scan.
    """
    return _depth_free_pass(
        programs, preload=preload, plan=plan, placement=placement,
        dispatch=dispatch,
    ).report(queue_depth, queue_depths)


def _depth_free_pass(
    programs: list[Program],
    *,
    preload: dict[int, set[str]] | None,
    plan,
    placement: dict[int, int] | None,
    dispatch: dict[int, int] | None,
) -> _DepthFreePass:
    """Every check but the deadlock scan, and the scan's graph."""
    diags: list[Diagnostic] = []
    summaries = summarize_all(programs, dispatch=dispatch)
    for s in summaries:
        for p in s.problems:
            diags.append(Diagnostic(
                category="malformed-program",
                message=f"core {s.core}: {p}",
            ))

    # fiber pid -> executing core (identity without a placement; the
    # primary is pinned so pid 0 always resolves to core 0).
    core_of = {fiber: core for core, fiber in (placement or {}).items()}

    def _core_for(pid: int, vclass: VClass) -> int:
        if vclass is VClass.CTL:
            return pid  # CTL channels are keyed by core, not fiber
        return core_of.get(pid, pid)

    # Queue inventory + single-producer/single-consumer ownership.
    queues: list[QueueId] = []
    for s in summaries:
        for g in s.queue_ops:
            q = g.queue
            if q is None:
                diags.append(Diagnostic(
                    category="malformed-program",
                    message=f"core {s.core}: queue op without a queue: "
                            f"{g.instr!r}",
                ))
                continue
            if q not in queues:
                queues.append(q)
            pid = q.src if g.instr.op == "enq" else q.dst
            owner = _core_for(pid, q.vclass)
            if owner != s.core:
                diags.append(Diagnostic(
                    category="malformed-program",
                    queue=_qkey(q),
                    message=(
                        f"core {s.core} executes {g.instr.op} on {q!r}, "
                        f"which belongs to core {owner}"
                    ),
                ))
    queues.sort(key=lambda q: (q.src, q.dst, q.vclass.value))

    pairing_clean = not diags
    n_body_transfers = 0
    for q in queues:
        src_core = _core_for(q.src, q.vclass)
        dst_core = _core_for(q.dst, q.vclass)
        if not (0 <= src_core < len(summaries)
                and 0 <= dst_core < len(summaries)):
            diags.append(Diagnostic(
                category="malformed-program",
                queue=_qkey(q),
                message=f"queue {q!r} references a core that does not exist",
            ))
            pairing_clean = False
            continue
        enqs = summaries[src_core].queue_ops_of(q, "enq")
        deqs = summaries[dst_core].queue_ops_of(q, "deq")
        before = len(diags)
        for region in REGIONS:
            pairs = _pair_region(
                q, region,
                [g for g in enqs if g.region == region],
                [g for g in deqs if g.region == region],
                diags,
                check_tags=q.vclass is not VClass.CTL,
            )
            if region == "body":
                n_body_transfers += len(pairs)
        if len(diags) > before:
            pairing_clean = False

    if plan is not None:
        _cross_check_plan(plan, summaries, diags)

    for s in summaries:
        _check_wellformed(s, (preload or {}).get(s.core, set()), diags)

    return _DepthFreePass(
        n_cores=len(programs),
        n_queues=len(queues),
        n_body_transfers=n_body_transfers,
        diagnostics=tuple(diags),
        # The wait-for graph presumes a validated pairing; skip it when
        # the cheaper checks already rejected the artifact.
        graph=_WaitGraph(summaries, queues) if pairing_clean else None,
    )


def _cross_check_plan(plan, summaries: list[CoreSummary],
                      diags: list[Diagnostic]) -> None:
    """CommPlan vs artifact: the loop body must carry exactly the
    planned transfers, queue by queue, guard multiset included."""
    from collections import Counter

    planned: dict[tuple, Counter] = {}
    for t in plan.transfers:
        key = (t.src_pid, t.dst_pid, t.vclass.value)
        planned.setdefault(key, Counter())[frozenset(t.pred)] += 1
    actual: dict[tuple, Counter] = {}
    for s in summaries:
        for g in s.queue_ops:
            if g.region != "body" or g.instr.op != "enq":
                continue
            key = _qkey(g.queue)
            actual.setdefault(key, Counter())[g.pred_key] += 1
    for key in sorted(set(planned) | set(actual)):
        p = planned.get(key, Counter())
        a = actual.get(key, Counter())
        if p != a:
            diags.append(Diagnostic(
                category="plan-mismatch",
                queue=key,
                message=(
                    f"CommPlan plans {sum(p.values())} transfer(s)/iter "
                    f"but the lowered body enqueues {sum(a.values())} "
                    "(or their guards differ)"
                ),
            ))


def check_kernel(kernel, *, queue_depth: int = 20,
                 placement: dict[int, int] | None = None,
                 queue_depths: dict[tuple, int] | None = None) -> CheckReport:
    """Verify a :class:`~repro.isa.lower.LoweredKernel` end to end.

    For a stealing-mode kernel the checker models the exact dynamic
    configuration: ``placement`` (core -> fiber, identity by default) is
    validated for bijectivity and resolved into the dispatch indices the
    loader will preload; ``queue_depths`` carries any self-tuned
    per-queue capacities (same ``(src, dst, vclass)`` keys as
    :class:`~repro.sim.machine.MachineParams.queue_depths`).

    The depth-free pass runs once per kernel and placement and is kept
    on the kernel (``LoweredKernel.check_passes``); every call then
    runs only the deadlock scan at its depths and returns a fresh
    report.  Kernels are read-only after compile, so the pass stays
    valid.  The placement is validated on every call, before the
    lookup.
    """
    if kernel.dispatch_regs:
        placement = placement or kernel.identity_placement()
        kernel.dispatch_preload(placement)  # validates bijectivity, loudly
        key = tuple(sorted(placement.items()))
    elif placement is not None and any(
        placement.get(s, s) != s for s in range(kernel.n_cores)
    ):
        raise ValueError(
            "static-mode kernel cannot be checked under a non-identity "
            "placement; compile with runtime_mode='stealing'"
        )
    else:
        key = None
    passes = kernel.check_passes
    found = passes.get(key)
    if found is None:
        # two threads may race here; both compute the same pass
        found = passes.setdefault(key, _kernel_pass(kernel, placement))
    return found.report(queue_depth, queue_depths)


def _kernel_pass(kernel, placement: dict[int, int] | None) -> _DepthFreePass:
    """The depth-free pass of ``kernel`` under a validated placement."""
    preload_regs = {p.name for p in kernel.plan.loop.params}
    dispatch = None
    if kernel.dispatch_regs:
        dispatch = {
            s: kernel.fiber_table[placement.get(s, s)]
            for s in kernel.dispatch_regs
        }
        preload_regs |= set(kernel.dispatch_regs.values())
    return _depth_free_pass(
        kernel.programs,
        preload={0: preload_regs},
        plan=kernel.plan.comm,
        placement=placement if kernel.dispatch_regs else None,
        dispatch=dispatch,
    )
