"""Unit tests for code-graph merging (§III-B) and refinement."""

import hashlib
import json
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import (
    CompilerConfig,
    build_code_graph,
    load_balance_ratio,
    merge_partitions,
    parallelize,
)
from repro.compiler.config import MergeWeights
from repro.compiler.merge import MergeWork, cycle_groups
from repro.fuzz.gen import RandomDraw, build_loop
from repro.ir import F64, LoopBuilder, normalize
from repro.kernels import corpus_kernels, get_kernel

#: sha256 over every partition of the battery in
#: ``test_partitions_match_golden``; re-record it only for a change that
#: means to move a partition.
PARTITION_DIGEST = (
    "1ed4534cb20b101ee2ccdeef73c0c76b9b8ec6e8c0f4e2994ed12eff6a78089d"
)


def _graph(loop, h=2):
    return build_code_graph(normalize(loop, max_height=h))


class TestBasics:
    def test_reaches_requested_count(self, demo_loop):
        g = _graph(demo_loop)
        for n in (1, 2, 3, 4):
            parts = merge_partitions(g, n)
            assert len(parts) <= n
            assert len(parts) >= 1

    def test_partitions_cover_all_ops(self, demo_loop):
        g = _graph(demo_loop)
        parts = merge_partitions(g, 4)
        ids = [id(op) for p in parts for op in p.ops]
        assert sorted(ids) == sorted(id(op) for op in g.fiberset.ops)
        assert len(set(ids)) == len(ids)

    def test_fibers_never_split(self, demo_loop):
        g = _graph(demo_loop)
        parts = merge_partitions(g, 4)
        for fiber in g.fibers:
            homes = {
                p.pid
                for p in parts
                for op in fiber.ops
                if id(op) in {id(o) for o in p.ops}
            }
            assert len(homes) == 1

    def test_cohesion_respected(self, demo_loop):
        g = _graph(demo_loop)
        parts = merge_partitions(g, 4)
        fid_home = {}
        for p in parts:
            for fid in p.fids:
                fid_home[fid] = p.pid
        for group in g.cohesion:
            assert len({fid_home[f] for f in group}) == 1

    def test_deterministic(self, demo_loop):
        g1 = _graph(demo_loop)
        g2 = _graph(demo_loop)
        p1 = merge_partitions(g1, 4)
        p2 = merge_partitions(g2, 4)
        assert [sorted(p.fids) for p in p1] == [sorted(p.fids) for p in p2]

    def test_partition_zero_has_earliest_op(self, demo_loop):
        g = _graph(demo_loop)
        parts = merge_partitions(g, 3)
        firsts = [min(op.rank for op in p.ops) for p in parts]
        assert firsts == sorted(firsts)

    def test_empty_graph_rejected(self):
        from repro.compiler.codegraph import CodeGraph
        from repro.compiler.fibers import FiberSet
        from repro.ir import LoopBuilder

        b = LoopBuilder("empty")
        o = b.array("o", F64)
        b.store(o, b.index, 1.0)
        g = _graph(b.build())
        g.fiberset.fibers.clear()
        with pytest.raises(ValueError):
            merge_partitions(g, 2)


class TestThroughputHeuristic:
    def test_acyclic_partitions(self):
        g = _graph(get_kernel("lammps-2").loop())
        parts = merge_partitions(
            g, 4, CompilerConfig(throughput_heuristic=True)
        )
        # build the partition-level digraph and assert it is a DAG
        fs = g.fiberset
        home = {}
        for p in parts:
            for op in p.ops:
                home[id(op)] = p.pid
        dg = nx.DiGraph()
        dg.add_nodes_from(p.pid for p in parts)
        for e in g.edges:
            a, b = home[id(e.producer)], home[id(e.consumer)]
            if a != b:
                dg.add_edge(a, b)
        assert nx.is_directed_acyclic_graph(dg)

    def test_unconstrained_may_cycle(self):
        """Sanity: the default merge is allowed to produce cyclic
        partition graphs (the paper found forbidding them costs 11%)."""
        # not an assertion on every kernel; just check the API runs
        g = _graph(get_kernel("lammps-2").loop())
        parts = merge_partitions(g, 4, CompilerConfig())
        assert len(parts) >= 2


@st.composite
def dep_matrices(draw):
    """A dependence-count matrix as the merge keeps one: up to 50 nodes,
    integer edge counts, a zero diagonal; nodes no edge touches stay
    isolated.  The edges close a few short cycles, then join random
    pairs, so components chain into one another and sometimes fuse."""
    n = draw(st.integers(0, 50))
    dep = np.zeros((n, n), dtype=np.int64)
    if n:
        node = st.integers(0, n - 1)
        edges = []
        for ring in draw(st.lists(st.lists(node, min_size=2, max_size=5), max_size=8)):
            edges += zip(ring, ring[1:] + ring[:1])
        edges += draw(st.lists(st.tuples(node, node), max_size=2 * n))
        for i, j in edges:
            if i != j:
                dep[i, j] = draw(st.integers(1, 9))
    return dep


class TestCycleGroups:
    """``cycle_groups`` against networkx, the reference it replaced."""

    @staticmethod
    def _networkx(dep):
        g = nx.DiGraph()
        g.add_nodes_from(range(len(dep)))
        g.add_edges_from(np.argwhere(dep).tolist())
        return sorted(
            sorted(c) for c in nx.strongly_connected_components(g) if len(c) > 1
        )

    @settings(max_examples=300, deadline=None)
    @given(dep_matrices())
    def test_matches_networkx(self, dep):
        assert cycle_groups(dep) == self._networkx(dep)

    def test_long_cycle_and_chain(self):
        # deeper than Python's recursion limit: one 1500-node cycle
        # and a chain feeding it
        n = 1500
        dep = np.zeros((n + 5, n + 5), dtype=np.int8)
        dep[np.arange(n), (np.arange(n) + 1) % n] = 1
        dep[n:n + 4, n + 1:n + 5] = np.eye(4, dtype=np.int8)
        dep[n + 4, 0] = 2
        assert cycle_groups(dep) == [list(range(n))] == self._networkx(dep)


class TestMergeWork:
    @staticmethod
    def _six_fibers():
        """Six independent stores: six fibers, no edges, no cohesion."""
        b = LoopBuilder("six", trip="n")
        x = b.array("x", F64)
        for k in range(6):
            b.store(b.array(f"o{k}", F64), b.index, x[b.index] * float(k + 2))
        return b.build()

    @pytest.mark.parametrize("multi, counts", [
        # 6 -> 5 -> 4 -> 3 -> 2: pairs examined C(6,2)+C(5,2)+C(4,2)+C(3,2)
        (False, dict(rounds=4, affinity_evals=60, pairs_examined=34)),
        # 6 -> 3 (three disjoint pairs) -> 2: C(6,2)+C(3,2)
        (True, dict(rounds=2, affinity_evals=60, pairs_examined=18)),
    ])
    def test_counts_on_a_hand_built_graph(self, multi, counts):
        """Affinities: the 6x6 start plus one row of 6 for each of the
        four merges, whichever variant picks them."""
        loop = self._six_fibers()
        g = _graph(loop)
        assert (len(g.fibers), g.cohesion, len(g.edges)) == (6, [], 0)
        cfg = CompilerConfig(multi_pair_merge=multi)
        work = MergeWork()
        assert len(merge_partitions(g, 2, cfg, work)) == 2
        assert work == MergeWork(**counts)
        stats = parallelize(loop, 2, cfg).stats
        assert (stats.merge_rounds, stats.merge_affinity_evals,
                stats.merge_pairs_examined) == (
            counts["rounds"], counts["affinity_evals"],
            counts["pairs_examined"])


class TestMultiPair:
    def test_same_partition_count(self):
        g = _graph(get_kernel("irs-1").loop())
        single = merge_partitions(g, 4, CompilerConfig())
        multi = merge_partitions(g, 4, CompilerConfig(multi_pair_merge=True))
        assert len(single) == len(multi) == 4

    def test_covers_all_ops(self):
        g = _graph(get_kernel("irs-4").loop())
        multi = merge_partitions(g, 4, CompilerConfig(multi_pair_merge=True))
        total = sum(len(p.ops) for p in multi)
        assert total == len(g.fiberset.ops)


class TestLoadBalance:
    def test_ratio_at_least_one(self, demo_loop):
        g = _graph(demo_loop)
        parts = merge_partitions(g, 4)
        assert load_balance_ratio(parts) >= 1.0

    def test_single_partition_ratio_one(self, demo_loop):
        g = _graph(demo_loop)
        parts = merge_partitions(g, 1)
        assert load_balance_ratio(parts) == 1.0


class TestWeights:
    def test_weights_change_outcome(self):
        loop = get_kernel("irs-4").loop()
        g1 = _graph(loop)
        g2 = _graph(loop)
        a = merge_partitions(
            g1, 4, CompilerConfig(weights=MergeWeights(1.0, 0.6, 0.3))
        )
        b = merge_partitions(
            g2, 4, CompilerConfig(weights=MergeWeights(0.0, 0.0, 1.0))
        )
        sig_a = sorted(sorted(p.fids) for p in a)
        sig_b = sorted(sorted(p.fids) for p in b)
        assert sig_a != sig_b


class TestSelection:
    def test_partitions_match_golden(self):
        """Every partition of 888 merges, bit for bit: the 51 corpus
        loops and 60 random loops under four configs at 2 and 4 cores."""
        configs = [
            ("default", CompilerConfig()),
            ("multi", CompilerConfig(multi_pair_merge=True)),
            ("throughput", CompilerConfig(throughput_heuristic=True)),
            ("prox-only", CompilerConfig(weights=MergeWeights(0.0, 0.0, 1.0))),
        ]
        loops = [
            (k.name, k.loop())
            for k in sorted(corpus_kernels(), key=lambda k: k.name)
        ]
        loops += [
            (f"fuzz-{i}", build_loop(RandomDraw(random.Random(i))))
            for i in range(60)
        ]
        digest = hashlib.sha256()
        for name, loop in loops:
            g = _graph(loop)
            for label, config in configs:
                for cores in (2, 4):
                    parts = [
                        [p.pid, sorted(p.fids), repr(p.cost), p.n_compute_ops,
                         [op.rank for op in p.ops]]
                        for p in merge_partitions(g, cores, config)
                    ]
                    digest.update(
                        json.dumps([name, label, cores, parts]).encode()
                    )
        assert digest.hexdigest() == PARTITION_DIGEST

    @pytest.mark.parametrize("multi_pair", [False, True])
    def test_ties_go_to_smallest_ids(self, multi_pair):
        """Identical independent statements on consecutive lines: under
        proximity-only weights every adjacent pair ties, and the first
        merge joins the two smallest node ids."""
        b = LoopBuilder("ties")
        a = b.array("a", F64)
        for k in range(5):
            b.store(b.array(f"o{k}", F64), b.index, a[b.index] * 2.0)
        g = _graph(b.build())
        assert len(g.fibers) == 5 and not g.edges and not g.cohesion
        parts = merge_partitions(g, 4, CompilerConfig(
            weights=MergeWeights(0.0, 0.0, 1.0), multi_pair_merge=multi_pair,
        ))
        assert [sorted(p.fids) for p in parts] == [[0, 1], [2], [3], [4]]
