"""Code-graph merging down to one node per hardware core (paper §III-B).

"The graph is transformed by merging a pair of nodes at each step,
until the total number of nodes is equal to the number of hardware
cores available for execution. ... Each step of the graph
transformation chooses one or more pairs of nodes to merge based on a
set of heuristics.  Multiple individual heuristics are weighted and
combined to compute an affinity value for each node pair.  The node
pair with the greatest affinity is merged, and then affinities are
recomputed for the next merge step."

Implemented heuristics (weights in :class:`~repro.compiler.config.MergeWeights`):

1. more dependence edges between the pair → higher affinity;
2. smaller combined static compute time → higher affinity (the estimate
   uses fixed op latencies + profile-fed memory latencies);
3. greater source-code proximity (statement line numbers) → higher
   affinity.

Variants:

* **multi-pair merge** — choose several disjoint best pairs per step
  (faster compilation for large fiber counts);
* **throughput heuristic** — "constrains partitioning to allow only
  unidirectional dependences between any two nodes in the final graph",
  implemented exactly as described: "looking for cycles at each step in
  the graph transformation.  If any cycles are found, then all nodes
  that are part of the same cycle are merged together."  The cycles are
  the strongly connected components of more than one node
  (:func:`cycle_groups`, Tarjan's algorithm).

Correctness pre-step: *cohesion groups* (loop-carried dependences,
see :mod:`repro.compiler.codegraph`) are unioned before any heuristic
merging.

Selection: each step merges the live pair with the greatest affinity,
ties going to the smaller first node id, then the smaller second.  The
multi-pair merge walks the live pairs in that same order and takes each
pair whose two nodes are both still unmerged in the step.

Representation: the merge state is dense, indexed by node position
(initial node ids in ascending order).  An n×n affinity matrix holds
the live pairs in its upper triangle, with ``-inf`` on and below the
diagonal and in the row and column of every absorbed node.  An n×n
matrix counts directed dependence edges between nodes; a pair's
undirected count is the sum of its two directions.  Cost and line-span
vectors complete it, so memory is O(n²) in the number of initial
nodes.  A merge folds the absorbed node into the survivor (the smaller
id) and recomputes the survivor's row and column with one vectorised
evaluation of the affinity of nodes a and b::

    w_dep·dep/(1+dep) + w_time·1/(1+(c_a+c_b)/mean_cost) + w_prox·1/(1+max(0,gap))

less 100 when ``c_a+c_b`` exceeds the size cap.  The evaluation is
elementwise float64 in exactly that operation order, so a score is the
same bit for bit however many pairs are scored at once.  One argmax
over the matrix then picks the next pair.

Work: a call can count its own deterministic work into a
:class:`MergeWork` — the selection rounds, the pair affinities computed
(n² at the start and n for each merge) and the live pairs the
selection looked at (all of them, every round).  The multi-pair variant
saves rounds and therefore selection; it computes the same affinities,
one row per merge, as the single-pair merge does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.cost import CostModel
from .codegraph import CodeGraph
from .config import CompilerConfig
from .fibers import Fiber, Op, consumed_leaves


@dataclass
class Partition:
    """A final code-graph node: the set of fibers one core executes."""

    pid: int
    fids: frozenset[int]
    ops: list[Op]            # rank-ordered ops of all member fibers
    cost: float              # static compute-time estimate
    n_compute_ops: int       # Table III "load balance" numerator input

    def __repr__(self) -> str:
        return f"Partition(p{self.pid}, {len(self.fids)} fibers, {self.n_compute_ops} ops)"


@dataclass
class MergeWork:
    """Deterministic work of :func:`merge_partitions` calls."""

    #: selection rounds (each picks one pair, or several disjoint ones)
    rounds: int = 0
    #: pair affinities computed
    affinity_evals: int = 0
    #: live pairs examined by selection, summed over the rounds
    pairs_examined: int = 0


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if ra > rb:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return ra


def cycle_groups(dep: np.ndarray) -> list[list[int]]:
    """The strongly connected components of more than one node in the
    digraph with an edge ``i -> j`` wherever ``dep[i, j]`` is nonzero:
    each as a sorted list of node positions, the lists in sorted order.

    Tarjan's algorithm, iterative.  The edge lists come from one
    ``np.nonzero``, which yields them grouped by source in row order.
    """
    n = len(dep)
    src, dst = np.nonzero(dep)
    # node v's successors are succ[first[v]:first[v + 1]]
    first = np.searchsorted(src, np.arange(n + 1)).tolist()
    succ = dst.tolist()
    index = [-1] * n   # discovery order; -1 until visited
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    groups: list[list[int]] = []
    visited = 0
    for root in range(n):
        if index[root] >= 0 or first[root] == first[root + 1]:
            continue  # seen, or no out-edge: on no cycle it can start
        index[root] = low[root] = visited
        visited += 1
        stack.append(root)
        on_stack[root] = True
        path = [(root, first[root])]  # (node, its next edge to follow)
        while path:
            v, e = path[-1]
            end = first[v + 1]
            while e < end:
                w = succ[e]
                e += 1
                if index[w] < 0:
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:  # every edge of v followed
                path.pop()
                if path and low[v] < low[path[-1][0]]:
                    low[path[-1][0]] = low[v]
                if low[v] == index[v]:
                    group = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        group.append(w)
                        if w == v:
                            break
                    if len(group) > 1:
                        groups.append(sorted(group))
                continue
            path[-1] = (v, e)  # descend into the unvisited w
            index[w] = low[w] = visited
            visited += 1
            stack.append(w)
            on_stack[w] = True
            path.append((w, first[w]))
    groups.sort()
    return groups


def _fiber_cost(fiber: Fiber, cost: CostModel) -> float:
    total = 0.0
    for op in fiber.ops:
        if op.kind == "expr":
            total += cost.op_cost(op.node)
        elif op.kind == "store":
            total += cost.lat.store
        else:  # move
            total += cost.lat.mov
        for leaf in consumed_leaves(op):
            total += cost.leaf_cost(leaf)
    return total


def merge_partitions(
    graph: CodeGraph,
    n_parts: int,
    config: CompilerConfig | None = None,
    work: MergeWork | None = None,
) -> list[Partition]:
    """Merge the code graph down to at most ``n_parts`` partitions.

    Returns partitions ordered deterministically (by earliest op rank);
    partition 0 is the one the primary core runs inline (§III-G).  If
    the graph has fewer independent nodes than cores (tiny loop bodies,
    or heavy cohesion), fewer partitions are returned.  The call adds
    its counts to ``work`` when one is given.
    """
    config = config or CompilerConfig()
    work = work if work is not None else MergeWork()
    fibers = graph.fibers
    if not fibers:
        raise ValueError("empty code graph")
    weights = config.weights

    # -- initial nodes: fibers unioned by cohesion ---------------------
    uf = _UnionFind(len(fibers))
    for group in graph.cohesion:
        members = sorted(group)
        for other in members[1:]:
            uf.union(members[0], other)

    # a node's position is the rank of its union-find root (its smallest
    # fid); fibers are in fid order, so each node's fiber list is too,
    # and so is the order its cost is summed in.
    roots, node_of = np.unique(
        [uf.find(f.fid) for f in fibers], return_inverse=True
    )
    n = len(roots)
    node_fibers: list[list[Fiber]] = [[] for _ in range(n)]
    for f in fibers:
        node_fibers[node_of[f.fid]].append(f)
    fids = [{f.fid for f in m} for m in node_fibers]
    node_costs = [sum(_fiber_cost(f, config.cost) for f in m) for m in node_fibers]
    lo = np.array([min(f.line for f in m) for m in node_fibers])
    hi = np.array([max(f.line for f in m) for m in node_fibers])

    # directed dependence-edge counts between nodes; a pair's undirected
    # count (the dependence heuristic) is the sum of its two directions.
    fs = graph.fiberset
    src = node_of[[fs.fiber_of(e.producer).fid for e in graph.edges]]
    dst = node_of[[fs.fiber_of(e.consumer).fid for e in graph.edges]]
    dep = np.bincount(src * n + dst, minlength=n * n).reshape(n, n)
    np.fill_diagonal(dep, 0)

    total_cost = sum(node_costs)
    mean_cost = max(1e-9, total_cost / max(1, n))
    # soft size cap: merging beyond an even per-core share is strongly
    # discouraged (the balancing intent behind the §III-B "smaller
    # compute time" heuristic — concurrency is maximised when no node
    # hogs the work).
    cap = 1.15 * total_cost / max(1, n_parts)
    cost = np.array(node_costs)
    alive = np.ones(n, dtype=bool)

    def affinity(rows: int | slice) -> np.ndarray:
        """Affinity of node ``rows`` (or of each node in a slice) with
        every node; ``-inf`` against dead nodes."""
        edges = dep[rows] + dep.T[rows]
        both = cost[rows, None] + cost
        gap = np.maximum(lo[rows, None], lo) - np.minimum(hi[rows, None], hi)
        score = (
            weights.dep_edges * (edges / (1.0 + edges))
            + weights.small_time * (1.0 / (1.0 + both / mean_cost))
            + weights.proximity * (1.0 / (1.0 + np.maximum(gap, 0)))
        )
        score[both > cap] -= 100.0
        score[..., ~alive] = -np.inf
        work.affinity_evals += score.size
        return score

    # live pairs (i < j) in the upper triangle; -inf everywhere else
    aff = affinity(slice(None))
    aff[np.tri(n, dtype=bool)] = -np.inf

    def absorb(i: int, j: int) -> None:
        """Merge node ``j`` into node ``i`` (``i < j``)."""
        fids[i] |= fids[j]
        cost[i] += cost[j]
        lo[i] = min(lo[i], lo[j])
        hi[i] = max(hi[i], hi[j])
        dep[i] += dep[j]
        dep[:, i] += dep[:, j]
        dep[i, i] = 0
        dep[j] = 0
        dep[:, j] = 0
        alive[j] = False
        aff[j] = -np.inf
        aff[:, j] = -np.inf
        row = affinity(i)
        aff[i, i + 1:] = row[i + 1:]
        aff[:i, i] = row[:i]

    def merge_cycles() -> None:
        """Throughput heuristic: collapse every directed cycle."""
        while groups := cycle_groups(dep):
            for first, *rest in groups:
                for j in rest:
                    absorb(first, j)

    if config.throughput_heuristic:
        merge_cycles()

    while (n_live := int(np.count_nonzero(alive))) > n_parts:
        # every live pair (i < j) has a finite affinity
        work.rounds += 1
        work.pairs_examined += n_live * (n_live - 1) // 2
        if config.multi_pair_merge:
            # disjoint pairs, best first (ties: smallest i, then j); no
            # more than half the live nodes can pair up at once
            budget = min(n_live - n_parts, n_live // 2)
            live = np.flatnonzero(aff > -np.inf)
            order = live[np.argsort(-aff.flat[live], kind="stable")]
            picked: list[tuple[int, int]] = []
            used: set[int] = set()
            for k in order.tolist():
                i, j = divmod(k, n)
                if i in used or j in used:
                    continue
                picked.append((i, j))
                used.update((i, j))
                if len(picked) == budget:
                    break
        else:
            # the row-major argmax breaks ties by smallest i, then j
            k = int(aff.argmax())
            picked = [divmod(k, n)] if aff.flat[k] > -np.inf else []
        if not picked:
            break
        for i, j in picked:
            absorb(i, j)
        if config.throughput_heuristic:
            merge_cycles()

    # -- materialise partitions ----------------------------------------
    live_nodes = np.flatnonzero(alive).tolist()
    fid_final = {fid: i for i in live_nodes for fid in fids[i]}
    groups: dict[int, list[Op]] = {i: [] for i in live_nodes}
    for op in fs.ops:
        groups[fid_final[fs.fiber_of(op).fid]].append(op)

    ordered = sorted(
        groups.items(), key=lambda kv: min(op.rank for op in kv[1])
    )
    partitions: list[Partition] = []
    for pid, (i, ops) in enumerate(ordered):
        ops_sorted = sorted(ops, key=lambda o: o.rank)
        partitions.append(
            Partition(
                pid=pid,
                fids=frozenset(fids[i]),
                ops=ops_sorted,
                cost=float(cost[i]),
                n_compute_ops=sum(1 for o in ops_sorted if o.kind == "expr"),
            )
        )
    return partitions


def load_balance_ratio(partitions: list[Partition]) -> float:
    """Table III "Load Balance": largest / smallest compute-op count."""
    counts = [max(1, p.n_compute_ops) for p in partitions]
    return max(counts) / min(counts)
