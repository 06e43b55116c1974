"""repro.serve: result tiers, coalescing, admission, protocol, daemon."""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.common import clear_cache
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.serve.admission import (
    AdmissionQueue,
    QueueFull,
    RateLimited,
    RateLimiter,
    TokenBucket,
)
from repro.serve.client import ServeClient, TCPClient
from repro.serve.loadgen import LoadgenConfig, population, run_loadgen, zipf_cdf
from repro.serve.protocol import BadRequest, parse_request
from repro.serve.server import start_server
from repro.serve.service import ServeConfig, ServeService
from repro.serve.singleflight import Singleflight
from repro.serve.stats import percentile, percentiles
from repro.store.disk import ResultStore


def run(coro):
    return asyncio.run(coro)


def make_service(tmp_path, **kw) -> ServeService:
    kw.setdefault("store_root", tmp_path / "store")
    return ServeService(ServeConfig(**kw), registry=MetricsRegistry())


def counter(svc: ServeService, name: str) -> float:
    return svc.registry.value(name)


def run_records(root) -> int:
    store = ResultStore(root)
    return store.stats().run_records


def start_daemon(tmp_path, *args: str):
    """``repro serve --port 0`` over ``tmp_path/store`` as a subprocess;
    returns the process, its bound ``(host, port)`` and the lines it
    printed before it bound (``--resume``'s)."""
    import repro

    env = dict(
        os.environ, REPRO_CACHE_DIR=str(tmp_path / "store"),
        PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]),
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    printed = []
    line = proc.stdout.readline()
    while line and not line.startswith("serving on"):
        printed.append(line.rstrip("\n"))
        line = proc.stdout.readline()
    assert line.startswith("serving on"), printed
    host, port = line.split()[-1].rsplit(":", 1)
    return proc, (host, int(port)), printed


def call(f, req: dict) -> dict:
    """One NDJSON request/reply over a socket file opened ``rw``."""
    f.write(json.dumps(req) + "\n")
    f.flush()
    return json.loads(f.readline())


def children(pid: int) -> list[int]:
    """The child processes of ``pid``'s main thread, which forks the
    pool from its event loop."""
    text = Path(f"/proc/{pid}/task/{pid}/children").read_text()
    return [int(child) for child in text.split()]


def alive(pid: int) -> bool:
    """True while ``pid`` runs; a zombie awaiting its reaper is dead."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


linux_only = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="reads /proc and relies on prctl(PR_SET_PDEATHSIG)",
)


# -- rate limiting --------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestTokenBucket:
    def test_burst_then_deny_then_refill(self):
        clock = FakeClock()
        b = TokenBucket(rate=1.0, burst=2.0, clock=clock)
        assert b.try_take() and b.try_take()
        assert not b.try_take()
        clock.t = 1.0
        assert b.try_take()
        assert not b.try_take()

    def test_rate_zero_is_unlimited(self):
        b = TokenBucket(rate=0.0)
        assert all(b.try_take() for _ in range(1000))

    def test_limiter_is_per_client(self):
        clock = FakeClock()
        lim = RateLimiter(rate=1.0, burst=1.0, clock=clock)
        lim.check("a")
        with pytest.raises(RateLimited):
            lim.check("a")
        lim.check("b")  # separate bucket


# -- admission queue ------------------------------------------------------

class TestAdmissionQueue:
    def test_priority_order(self):
        async def main():
            q = AdmissionQueue(max_concurrency=1)
            order = []

            async def job(tag, pri):
                await q.acquire(pri)
                order.append(tag)
                q.release()

            await q.acquire(0)  # occupy the only slot
            tasks = [
                asyncio.ensure_future(job("low", 20)),
                asyncio.ensure_future(job("mid", 10)),
                asyncio.ensure_future(job("high", 1)),
            ]
            for _ in range(5):
                await asyncio.sleep(0)  # let all three enqueue
            assert q.depth == 3
            q.release()
            await asyncio.gather(*tasks)
            assert order == ["high", "mid", "low"]

        run(main())

    def test_fifo_within_priority(self):
        async def main():
            q = AdmissionQueue(max_concurrency=1)
            order = []

            async def job(tag):
                await q.acquire(10)
                order.append(tag)
                q.release()

            await q.acquire(0)
            tasks = [asyncio.ensure_future(job(i)) for i in range(4)]
            for _ in range(5):
                await asyncio.sleep(0)
            q.release()
            await asyncio.gather(*tasks)
            assert order == [0, 1, 2, 3]

        run(main())

    def test_queue_full(self):
        async def main():
            q = AdmissionQueue(max_concurrency=1, max_queue=1)
            await q.acquire(0)
            waiter = asyncio.ensure_future(q.acquire(5))
            await asyncio.sleep(0)
            with pytest.raises(QueueFull):
                await q.acquire(5)
            q.release()
            await waiter
            q.release()

        run(main())

    def test_concurrency_bound(self):
        async def main():
            q = AdmissionQueue(max_concurrency=2)
            peak = 0
            active = 0

            async def job():
                nonlocal peak, active
                await q.acquire()
                active += 1
                peak = max(peak, active)
                await asyncio.sleep(0.001)
                active -= 1
                q.release()

            await asyncio.gather(*(job() for _ in range(10)))
            assert peak == 2

        run(main())


# -- singleflight ---------------------------------------------------------

class TestSingleflight:
    def test_coalesces_identical_keys(self):
        async def main():
            reg = MetricsRegistry()
            sf = Singleflight(reg)
            calls = 0
            gate = asyncio.Event()

            async def factory():
                nonlocal calls
                calls += 1
                await gate.wait()
                return "result"

            tasks = [asyncio.ensure_future(sf.do("k", factory)) for _ in range(5)]
            await asyncio.sleep(0)
            assert len(sf) == 1
            gate.set()
            results = await asyncio.gather(*tasks)
            assert results == ["result"] * 5
            assert calls == 1
            assert reg.value("cache.coalesced") == 4
            assert len(sf) == 0  # table cleaned up

        run(main())

    def test_distinct_keys_do_not_coalesce(self):
        async def main():
            reg = MetricsRegistry()
            sf = Singleflight(reg)

            async def factory(v):
                await asyncio.sleep(0)
                return v

            results = await asyncio.gather(
                sf.do("a", lambda: factory(1)), sf.do("b", lambda: factory(2))
            )
            assert results == [1, 2]
            assert reg.value("cache.coalesced") == 0

        run(main())

    def test_exception_shared_and_cleared(self):
        async def main():
            sf = Singleflight(MetricsRegistry())
            gate = asyncio.Event()

            async def boom():
                await gate.wait()
                raise ValueError("shared failure")

            tasks = [asyncio.ensure_future(sf.do("k", boom)) for _ in range(3)]
            await asyncio.sleep(0)
            gate.set()
            results = await asyncio.gather(*tasks, return_exceptions=True)
            assert all(isinstance(r, ValueError) for r in results)
            assert len(sf) == 0  # a failed flight must not wedge the key

        run(main())


# -- protocol -------------------------------------------------------------

class TestProtocol:
    def test_minimal_run_request(self):
        req = parse_request({"op": "run", "kernel": "lammps-1"})
        assert req.cores == 4 and req.trip == 64 and req.client == "anon"

    def test_unknown_op(self):
        with pytest.raises(BadRequest, match="unknown op"):
            parse_request({"op": "explode"})

    def test_missing_kernel(self):
        with pytest.raises(BadRequest, match="requires 'kernel'"):
            parse_request({"op": "run"})

    def test_bad_trip(self):
        with pytest.raises(BadRequest, match="'trip'"):
            parse_request({"op": "run", "kernel": "k", "trip": -1})
        with pytest.raises(BadRequest, match="'trip'"):
            parse_request({"op": "run", "kernel": "k", "trip": "many"})

    def test_sweep_requires_lists(self):
        with pytest.raises(BadRequest, match="'kernels'"):
            parse_request({"op": "sweep"})
        with pytest.raises(BadRequest, match="'cores'"):
            parse_request({"op": "sweep", "kernels": ["a"], "cores": [0]})

    def test_bad_timeout(self):
        with pytest.raises(BadRequest, match="'timeout'"):
            parse_request({"op": "run", "kernel": "k", "timeout": 0})

    def test_non_object(self):
        with pytest.raises(BadRequest):
            parse_request([1, 2, 3])


# -- stats helpers --------------------------------------------------------

class TestPercentiles:
    def test_nearest_rank(self):
        vals = sorted(float(v) for v in range(1, 101))
        assert percentile(vals, 50) == 50.0
        assert percentile(vals, 99) == 99.0
        assert percentile(vals, 100) == 100.0

    def test_empty(self):
        assert percentiles([], (50, 95, 99)) == [0.0, 0.0, 0.0]


# -- service: caching and coalescing --------------------------------------

class TestServiceCaching:
    def test_l1_then_l2_tiers(self, tmp_path):
        async def main():
            svc = make_service(tmp_path)
            cli = ServeClient(svc)
            clear_cache()
            r1 = await cli.request("run", kernel="sphot-1", cores=2, trip=8)
            assert r1["ok"] and r1["cached"] is None
            r2 = await cli.request("run", kernel="sphot-1", cores=2, trip=8)
            assert r2["cached"] == "l1"
            assert r2["result"] == r1["result"]
            await svc.aclose()

            # A fresh daemon over the same store: L2 hit, then L1.  The
            # L1 is the process's run memo, and a second daemon is a
            # second process.
            clear_cache()
            svc2 = make_service(tmp_path)
            cli2 = ServeClient(svc2)
            r3 = await cli2.request("run", kernel="sphot-1", cores=2, trip=8)
            assert r3["cached"] == "l2"
            assert r3["result"] == r1["result"]
            r4 = await cli2.request("run", kernel="sphot-1", cores=2, trip=8)
            assert r4["cached"] == "l1"
            assert svc2.registry.value("cache.l2_hit") == 1
            assert svc2.registry.value("cache.l1_hit") == 1
            await svc2.aclose()

        run(main())

    def test_coalescing_50_identical_requests(self, tmp_path):
        """The satellite contract: 50 concurrent identical requests make
        exactly one store write and one compile on the bus."""
        async def main():
            svc = make_service(tmp_path)
            log = EventLog()
            svc.bus.subscribe(log)
            cli = ServeClient(svc)
            clear_cache()
            responses = await asyncio.gather(*(
                cli.request("run", kernel="irs-3", cores=2, trip=8)
                for _ in range(50)
            ))
            assert all(r["ok"] for r in responses)
            payloads = [json.dumps(r["result"], sort_keys=True) for r in responses]
            assert len(set(payloads)) == 1  # everyone got the same result

            assert counter(svc, "serve.computed") == 1
            assert counter(svc, "cache.coalesced") == 49
            # exactly one parallel-run record hit the disk
            assert run_records(tmp_path / "store") == 1
            # exactly one compile/simulate happened on the bus
            task_events = [e for e in log.events if e.kind == "task"]
            assert len(task_events) == 1 and task_events[0].value == "ok"
            await svc.aclose()

        run(main())

    def test_mixed_key_storm_no_bleed(self, tmp_path):
        """Concurrent storms over distinct keys never cross results."""
        async def main():
            svc = make_service(tmp_path)
            cli = ServeClient(svc)
            clear_cache()
            kernels = ["lammps-1", "irs-1", "sphot-1", "umt2k-1", "amg-t2"]
            reqs = [(k, i) for k in kernels for i in range(10)]
            responses = await asyncio.gather(*(
                cli.request("run", kernel=k, cores=2, trip=8) for k, _ in reqs
            ))
            by_kernel: dict[str, set] = {}
            for (k, _), r in zip(reqs, responses):
                assert r["ok"], r
                assert r["result"]["kernel"] == k  # no cross-key bleed
                by_kernel.setdefault(k, set()).add(
                    json.dumps(r["result"], sort_keys=True)
                )
            for k, payloads in by_kernel.items():
                assert len(payloads) == 1, f"{k} saw divergent results"
            assert counter(svc, "serve.computed") == len(kernels)
            assert run_records(tmp_path / "store") == len(kernels)
            await svc.aclose()

        run(main())

    def test_sweep_op(self, tmp_path):
        async def main():
            svc = make_service(tmp_path)
            cli = ServeClient(svc)
            clear_cache()
            r = await cli.request(
                "sweep", kernels=["lammps-1", "sphot-1"], cores=[2, 4], trip=8
            )
            assert r["ok"] and r["result"]["cells"] == 4
            assert all(row["correct"] or row["deadlocked"]
                       for row in r["result"]["rows"])
            # all four cells are now cached; a repeat sweep is pure L1
            r2 = await cli.request(
                "sweep", kernels=["lammps-1", "sphot-1"], cores=[2, 4], trip=8
            )
            assert r2["cached"] == "l1"
            await svc.aclose()

        run(main())


# -- service: admission, failure boundary, endpoints ----------------------

class TestServiceBoundary:
    @pytest.mark.parametrize("op", ["compile", "trace"])
    def test_retired_ops_are_bad_requests(self, tmp_path, op):
        async def main():
            svc = make_service(tmp_path)
            cli = ServeClient(svc)
            r = await cli.request(op, kernel="sphot-1", cores=2, trip=8)
            assert not r["ok"] and r["error"]["kind"] == "bad-request"
            for known in ("run", "sweep", "metrics", "health"):
                assert f"'{known}'" in r["error"]["message"]
            assert counter(svc, "serve.computed") == 0
            await svc.aclose()

        run(main())

    def test_unknown_kernel_is_bad_request(self, tmp_path):
        async def main():
            svc = make_service(tmp_path)
            cli = ServeClient(svc)
            r = await cli.request("run", kernel="not-a-kernel")
            assert not r["ok"] and r["error"]["kind"] == "bad-request"
            # daemon still healthy afterwards
            h = await cli.request("health")
            assert h["result"]["status"] == "ok"
            await svc.aclose()

        run(main())

    def test_rate_limit_rejects_structured(self, tmp_path):
        async def main():
            svc = make_service(tmp_path, rate=1.0, burst=1.0)
            cli = ServeClient(svc, client_id="hog")
            r1 = await cli.request("run", kernel="sphot-1", cores=2, trip=8)
            assert r1["ok"]
            r2 = await cli.request("run", kernel="sphot-1", cores=2, trip=8)
            assert not r2["ok"] and r2["error"]["kind"] == "rate-limited"
            # a different client has its own bucket
            other = ServeClient(svc, client_id="polite")
            r3 = await other.request("run", kernel="sphot-1", cores=2, trip=8)
            assert r3["ok"]
            await svc.aclose()

        run(main())

    def test_timeout_returns_structured_error_and_cache_still_fills(
        self, tmp_path, monkeypatch
    ):
        import repro.pool as pool_mod
        from repro.experiments.common import ExpConfig, KernelRun

        def slow_compute(kernel, cfg, store, obs=None):
            import time as _t

            _t.sleep(0.3)
            # a run that never passed through run_kernel, as from a
            # pool worker: only the daemon's own memo fill serves it
            return KernelRun(kernel=kernel, config=ExpConfig(**cfg),
                             seq_cycles=300.0, par_cycles=200.0,
                             correct=True, deadlocked=False, stats=None)

        async def main():
            svc = make_service(tmp_path)
            monkeypatch.setattr(pool_mod, "compute_run", slow_compute)
            cli = ServeClient(svc)
            r = await cli.request(
                "run", kernel="sphot-1", cores=2, trip=8, timeout=0.05
            )
            assert not r["ok"] and r["error"]["kind"] == "timeout"
            h = await cli.request("health")  # daemon alive
            assert h["result"]["status"] == "ok"
            # the abandoned compute keeps running and fills the cache
            await asyncio.sleep(0.4)
            r2 = await cli.request("run", kernel="sphot-1", cores=2, trip=8)
            assert r2["ok"] and r2["cached"] == "l1"
            assert r2["result"]["speedup"] == 1.5
            assert counter(svc, "serve.computed") == 1
            await svc.aclose()

        run(main())

    def test_compute_failure_is_classified(self, tmp_path, monkeypatch):
        import repro.pool as pool_mod

        def broken(kernel, cfg, store, obs=None):
            raise ValueError("synthetic compile explosion")

        async def main():
            svc = make_service(tmp_path)
            monkeypatch.setattr(pool_mod, "compute_run", broken)
            cli = ServeClient(svc)
            r = await cli.request("run", kernel="sphot-1", cores=2, trip=8)
            assert not r["ok"]
            assert r["error"]["kind"] == "compile-error"
            assert "synthetic compile explosion" in r["error"]["message"]
            assert r["error"]["provenance"]["exception"] == "ValueError"
            assert counter(svc, "serve.failures.compile-error") >= 1
            h = await cli.request("health")
            assert h["result"]["status"] == "ok"
            await svc.aclose()

        run(main())

    def test_metrics_endpoint(self, tmp_path):
        async def main():
            svc = make_service(tmp_path)
            cli = ServeClient(svc)
            clear_cache()
            await cli.request("run", kernel="sphot-1", cores=2, trip=8)
            await cli.request("run", kernel="sphot-1", cores=2, trip=8)
            m = (await cli.request("metrics"))["result"]
            assert m["counters"]["serve.requests"]["value"] == 3
            assert m["counters"]["cache.l1_hit"]["value"] == 1
            assert m["counters"]["cache.miss"]["value"] == 1
            assert m["latency_ms"]["count"] == 2  # metrics op not yet recorded
            assert m["store"]["run_records"] == 1
            assert m["uptime_s"] >= 0.0
            await svc.aclose()

        run(main())

    def test_in_process_bus_carries_host_events_only(self, tmp_path):
        # the in-process lane computes on the service's own bus, and the
        # metrics fold host events only: the simulator must build none
        # of its per-cycle events for it
        from collections import Counter

        from repro.obs.events import WALL_KINDS

        async def main():
            svc = make_service(tmp_path)
            kinds = []
            svc.bus.subscribe(lambda ev: kinds.append(ev.kind))
            cli = ServeClient(svc)
            clear_cache()
            resp = await cli.request("run", kernel="lammps-1", cores=4, trip=16)
            m = (await cli.request("metrics"))["result"]
            await svc.aclose()
            return resp, kinds, m["counters"]

        resp, kinds, counters = run(main())
        assert resp["ok"] and counters["serve.computed"]["value"] == 1
        assert kinds and set(kinds) <= WALL_KINDS
        folded = {name.removeprefix("obs.events."): c["value"]
                  for name, c in counters.items()
                  if name.startswith("obs.events.")}
        assert folded == Counter(kinds)

    def test_metrics_report_stage_memos(self, tmp_path):
        # one kernel at two core counts, same seed: the second cell
        # reuses the first one's interpreter oracle ...
        async def main():
            svc = make_service(tmp_path)
            cli = ServeClient(svc)
            for cores in (2, 4):
                resp = await cli.request("run", kernel="sphot-1", cores=cores,
                                         trip=8, seed=3)
                assert resp["ok"] and resp["result"]["correct"]
            m = (await cli.request("metrics"))["result"]
            assert set(m["memo"]) == {"compile", "codegraph", "partitions",
                                      "oracle", "store_key", "runs", "seq"}
            # ... and every compile after the first one's code graph
            assert m["memo"]["codegraph"]["entries"] == 1
            assert m["memo"]["oracle"]["hits"] >= 1
            assert m["memo"]["oracle"]["entries"] == 1
            # every computed cell lives in the run memo, serve's L1
            assert m["memo"]["runs"]["entries"] == \
                m["counters"]["serve.computed"]["value"] == 2
            assert "specialize" not in m
            await svc.aclose()

        run(main())

    def test_pool_workers_report_their_counters(self, tmp_path):
        # the cell's compile, guard and task events and the workers'
        # memo and store counters reach metrics from other processes
        async def main():
            svc = make_service(tmp_path, workers=2)
            cli = ServeClient(svc)
            clear_cache()
            for cores in (2, 4):
                resp = await cli.request("run", kernel="sphot-1", cores=cores,
                                         trip=8, seed=3)
                assert resp["ok"] and resp["result"]["correct"]
            m = (await cli.request("metrics"))["result"]
            await svc.aclose()
            return m

        m = run(main())
        computed = m["counters"]["serve.computed"]["value"]
        assert computed == 2
        assert m["counters"]["compiler.pass.merge.calls"]["value"] >= 1
        assert m["counters"]["task.ok"]["value"] == computed
        workers = m["workers"]
        assert workers["pids"] and os.getpid() not in workers["pids"]
        # each computed cell makes exactly one oracle lookup
        oracle = workers["memo"]["oracle"]
        assert oracle["hits"] + oracle["misses"] == computed
        assert workers["store"]["writes"] >= computed
        assert m["memo"]["oracle"]["hits"] + m["memo"]["oracle"]["misses"] == 0
        assert m["memo"]["runs"]["entries"] == computed

    def test_pool_counters_forget_a_replaced_pools_memos(self):
        from repro.pool import PoolCounters, WorkerReply

        def reply(pid: int, hits: int, misses: int) -> WorkerReply:
            # each reply is the worker's running total
            oracle = {"hits": hits, "misses": misses, "entries": misses}
            return WorkerReply(run=None, pid=pid, memo={"oracle": oracle},
                               store=(0, misses, misses), events=[])

        counters = PoolCounters()
        counters.add(reply(11, 0, 1))
        counters.add(reply(11, 1, 1))
        counters.add(reply(12, 0, 1))
        counters.retire()  # the pool broke and was dropped
        counters.add(reply(21, 0, 1))
        snap = counters.snapshot()
        assert snap["pids"] == [21]
        assert snap["memo"]["oracle"] == {"hits": 1, "misses": 3, "entries": 1}
        assert snap["store"] == {"hits": 0, "misses": 3, "writes": 3}

    def test_one_compute_width_for_admission_and_executor(self):
        # admission never lets in more cells than the executor runs
        assert ServeConfig(workers=8, max_concurrency=4).compute_width == 4
        assert ServeConfig(workers=2, max_concurrency=4).compute_width == 2
        assert ServeConfig(workers=0, max_concurrency=4).compute_width == 1

    def test_compute_follows_the_executor_built(self, tmp_path, monkeypatch):
        # with no process pool to be had, the first compute already runs
        # on the in-process lane: on the service's bus and store
        import multiprocessing
        from concurrent.futures import ThreadPoolExecutor

        def no_fork(method=None):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)

        async def main():
            svc = make_service(tmp_path, workers=2)
            log = EventLog()
            svc.bus.subscribe(log)
            cli = ServeClient(svc)
            clear_cache()
            r = await cli.request("run", kernel="sphot-1", cores=2, trip=8)
            assert r["ok"] and r["result"]["correct"]
            assert isinstance(svc._executor, ThreadPoolExecutor)
            assert [e.value for e in log.by_kind("task")] == ["ok"]
            assert svc.store.stats().writes >= 1
            await svc.aclose()

        run(main())


# -- TCP daemon -----------------------------------------------------------

def _fd_links(pid: int) -> list[str]:
    """Where each of ``pid``'s file descriptors above 2 points; one
    closed while listed is left out."""
    links = []
    for fd in Path(f"/proc/{pid}/fd").iterdir():
        if int(fd.name) > 2:
            try:
                links.append(os.readlink(fd))
            except FileNotFoundError:
                pass
    return links


class TestTCPServer:
    def test_round_trip_and_bad_lines(self, tmp_path):
        async def main():
            svc = make_service(tmp_path)
            server = await start_server(svc, port=0)
            port = server.sockets[0].getsockname()[1]
            cli = await TCPClient.connect(port=port, client_id="t1")
            clear_cache()

            r = await cli.request("run", kernel="sphot-1", cores=2, trip=8)
            assert r["ok"] and r["result"]["correct"]

            # pipelined identical requests over one connection coalesce
            rs = await asyncio.gather(*(
                cli.request("run", kernel="irs-1", cores=2, trip=8)
                for _ in range(10)
            ))
            assert all(x["ok"] for x in rs)
            assert svc.registry.value("serve.computed") == 2

            # a garbage line gets a structured error, not a dropped conn
            cli._writer.write(b"this is not json\n")
            await cli._writer.drain()
            await asyncio.sleep(0.05)
            h = await cli.request("health")
            assert h["result"]["status"] == "ok"
            assert svc.registry.value("serve.unhandled") == 0

            await cli.close()
            server.close()
            await server.wait_closed()
            await svc.aclose()

        run(main())

    def test_sigterm_with_an_idle_connection_exits_quietly(self, tmp_path):
        proc, addr, _ = start_daemon(tmp_path)
        try:
            with socket.create_connection(addr):
                time.sleep(0.3)  # the daemon accepts; nothing is sent
                proc.send_signal(signal.SIGTERM)
                out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        assert "serve: drained, exiting" in out
        assert "Traceback" not in err, err

    @linux_only
    def test_default_daemon_computes_in_workers_and_drains(self, tmp_path):
        """``repro serve`` without ``--workers`` computes outside its own
        process, answers what the in-process lane answers, and a SIGTERM
        after a compute still drains cleanly and takes the workers."""
        from repro.store.journal import find_journals, load_journal

        cells = [("sphot-1", 2), ("lammps-1", 4), ("irs-3", 2), ("umt2k-1", 4)]
        reqs = [{"op": "run", "id": i, "kernel": k, "cores": c, "trip": 8}
                for i, (k, c) in enumerate(cells)]
        proc, addr, _ = start_daemon(tmp_path)
        try:
            with socket.create_connection(addr) as sock, \
                    sock.makefile("rw") as f:
                replies = [call(f, req) for req in reqs]
                m = call(f, {"op": "metrics"})["result"]
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        assert "serve: drained, exiting" in out
        assert "Traceback" not in err, err

        assert all(r["ok"] and r["cached"] is None for r in replies), replies
        pids = m["workers"]["pids"]
        assert pids and proc.pid not in pids
        assert m["counters"]["serve.computed"]["value"] == len(cells)
        assert not [pid for pid in pids if alive(pid)]
        (journal,) = find_journals(tmp_path / "store")
        assert load_journal(journal).complete

        async def in_process():
            clear_cache()
            svc = make_service(tmp_path / "inproc")
            cli = ServeClient(svc)
            out = [await cli.request(**{k: v for k, v in req.items()
                                        if k != "id"})
                   for req in reqs]
            await svc.aclose()
            return out

        for daemon, local in zip(replies, run(in_process())):
            assert local["ok"] and daemon["result"] == local["result"]

    @linux_only
    def test_connecting_during_a_drain_is_refused(self, tmp_path):
        """The pool worker keeps none of the daemon's sockets, so once a
        SIGTERM closed the listener, a new connection is refused while
        the drain still waits for an in-flight sweep."""
        kernels = ["sphot-1", "lammps-1", "irs-3", "umt2k-1", "lammps-2",
                   "sphot-2", "irs-1", "umt2k-2"]
        proc, addr, _ = start_daemon(tmp_path, "--workers", "1")
        try:
            with socket.create_connection(addr) as sock, \
                    sock.makefile("rw") as f:
                f.write(json.dumps({"op": "sweep", "kernels": kernels,
                                    "cores": [2], "trip": 2048}) + "\n")
                f.flush()
                with socket.create_connection(addr) as probe, \
                        probe.makefile("rw") as g:
                    deadline = time.monotonic() + 30.0
                    while not call(g, {"op": "health"})["result"]["active"]:
                        assert time.monotonic() < deadline, "sweep never ran"
                        time.sleep(0.01)
                # the worker forked with the listener and both
                # connections open in the daemon, and drops them in its
                # initializer, which may still be running when the
                # first cell shows as active
                (worker,) = children(proc.pid)
                deadline = time.monotonic() + 5.0
                while True:
                    held = _fd_links(worker)
                    if time.monotonic() > deadline or not [
                            link for link in held
                            if link.startswith("socket:")]:
                        break
                    time.sleep(0.01)
                assert not [link for link in held
                            if link.startswith("socket:")], held
                proc.send_signal(signal.SIGTERM)
                refused = False
                deadline = time.monotonic() + 5.0
                while not refused and time.monotonic() < deadline:
                    try:
                        socket.create_connection(addr, timeout=1.0).close()
                        time.sleep(0.01)
                    except ConnectionRefusedError:
                        refused = True
                in_flight = not select.select([sock], [], [], 0)[0]
                reply = json.loads(f.readline())
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert refused and in_flight
        assert reply["ok"] and reply["result"]["cells"] == len(kernels)
        assert proc.returncode == 0, err
        assert "serve: drained, exiting" in out

    @linux_only
    def test_killed_daemon_takes_its_workers(self, tmp_path):
        """A SIGKILLed daemon leaves no pool worker behind."""
        proc, addr, _ = start_daemon(tmp_path, "--workers", "2")
        try:
            with socket.create_connection(addr) as sock, \
                    sock.makefile("rw") as f:
                r = call(f, {"op": "run", "kernel": "sphot-1", "cores": 2,
                             "trip": 8})
                assert r["ok"], r
                reported = call(f, {"op": "metrics"})["result"]["workers"]["pids"]
            pids = children(proc.pid)
            assert len(pids) == 2 and reported and set(reported) <= set(pids)
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        deadline = time.monotonic() + 5.0
        while [pid for pid in pids if alive(pid)] and time.monotonic() < deadline:
            time.sleep(0.05)
        left = [pid for pid in pids if alive(pid)]
        for pid in left:  # do not leak them into the rest of the suite
            os.kill(pid, signal.SIGKILL)
        # a leaked worker would hold the daemon's pipes open: no reading
        proc.stdout.close()
        proc.stderr.close()
        assert not left, f"pool workers {left} outlived the daemon"


# -- loadgen --------------------------------------------------------------

class TestLoadgen:
    def test_zipf_cdf_monotone_normalised(self):
        cdf = zipf_cdf(10, 1.2)
        assert cdf == sorted(cdf) and cdf[-1] == 1.0
        assert cdf[0] > 1.0 / 10  # head heavier than uniform

    def test_population_deterministic(self):
        cfg = LoadgenConfig(seed=3, kernels=("a", "b"), cores=(2, 4))
        assert population(cfg) == population(cfg)
        assert len(population(cfg)) == 4

    def test_small_campaign_in_process(self):
        clear_cache()
        cfg = LoadgenConfig(
            requests=40, clients=4, seed=1, trip=8,
            kernels=("sphot-1", "lammps-1", "irs-1"), cores=(2,),
        )
        report = run_loadgen(cfg)
        assert report["phases"]["cold"]["requests"] == 40
        assert report["phases"]["cold"]["errors"] == 0
        assert report["phases"]["warm"]["errors"] == 0
        # the coalescing invariant: every unique cell computed exactly once
        assert report["computed"] == report["unique_cells_drawn"]
        assert report["run_records"] == report["unique_cells_drawn"]
        assert report["unhandled"] == 0
        assert report["phases"]["warm"]["hit_rate"] > 0.9

    def test_chaos_campaign_keeps_durability_invariants(self):
        clear_cache()
        cfg = LoadgenConfig(
            requests=24, clients=4, seed=2, trip=8,
            kernels=("sphot-1",), cores=(2,), chaos="store-enospc",
        )
        report = run_loadgen(cfg)
        assert report["config"]["chaos"] == "store-enospc"
        # every acked compute is durable; chaos may leave cells uncomputed
        # but can never compute one twice or lose a durable write
        assert report["computed"] == report["run_records"]
        assert report["computed"] <= report["unique_cells_drawn"]
        assert report["unhandled"] == 0

    def test_chaos_requires_owned_service(self):
        cfg = LoadgenConfig(requests=1, clients=1, chaos="compute-crash")
        with pytest.raises(ValueError, match="chaos"):
            run_loadgen(cfg, host="127.0.0.1", port=1)


# -- crash safety / resilience wiring (PR 7) -------------------------------

class TestServeResilience:
    def _flaky_compute(self, svc, crashes: int):
        """Patch the service's compute-fn factory: the first ``crashes``
        dispatches raise BrokenProcessPool from inside the executor —
        the exact failure shape of a SIGKILLed pool worker."""
        from concurrent.futures.process import BrokenProcessPool

        orig = svc._compute_fn
        state = {"n": 0}

        def flaky(kernel, cfg):
            fn = orig(kernel, cfg)
            state["n"] += 1
            if state["n"] <= crashes:
                def boom():
                    raise BrokenProcessPool("injected worker crash")
                return boom
            return fn

        svc._compute_fn = flaky
        return state

    def test_a_queued_cell_leaves_the_busy_worker_alone(
        self, tmp_path, monkeypatch
    ):
        """With one worker, a short-timeout cell waits in admission
        behind a slow one, not in the pool: its deadline starts when it
        computes, so the watchdog never finds it stuck and never kills
        the worker that runs the slow cell."""
        import repro.pool as pool_mod
        from repro.experiments.common import ExpConfig, KernelRun

        def compute(kernel, cfg, store, obs=None):
            time.sleep(1.5 if cfg["seed"] == 1 else 0.0)
            return KernelRun(kernel=kernel, config=ExpConfig(**cfg),
                             seq_cycles=300.0, par_cycles=200.0,
                             correct=True, deadlocked=False, stats=None)

        # the pool forks on its first compute, so the worker runs this
        monkeypatch.setattr(pool_mod, "compute_run", compute)

        async def main():
            svc = make_service(tmp_path, workers=1, task_grace=0.2,
                               watchdog_interval=0.02)
            svc.start_watchdog()
            cli = ServeClient(svc)
            slow = asyncio.ensure_future(cli.request(
                "run", kernel="sphot-1", cores=2, trip=8, seed=1))
            await asyncio.sleep(0.2)
            quick = await cli.request("run", kernel="sphot-1", cores=2,
                                      trip=8, seed=2, timeout=0.2)
            assert quick["error"]["kind"] == "timeout"
            assert (await slow)["ok"]
            # the queued cell computes after it; asking again joins it
            again = await cli.request("run", kernel="sphot-1", cores=2,
                                      trip=8, seed=2)
            assert again["ok"]
            m = (await cli.request("metrics"))["result"]
            await svc.aclose()
            return m

        m = run(main())
        assert m["counters"]["serve.computed"]["value"] == 2
        assert "serve.supervisor.stuck" not in m["counters"]
        assert m["counters"]["serve.restarts"]["value"] == 0
        assert len(m["workers"]["pids"]) == 1

    def test_broken_pool_lazy_rebuild(self, tmp_path):
        """One crashed worker fails its request with a structured error,
        charges the restart budget, and the next request computes fine
        on a rebuilt executor."""
        async def main():
            svc = make_service(tmp_path, restart_backoff=0.0)
            self._flaky_compute(svc, crashes=1)
            cli = ServeClient(svc)
            clear_cache()

            r1 = await cli.request("run", kernel="sphot-1", cores=2, trip=8)
            assert not r1["ok"]
            assert svc.supervisor.restarts == 1

            r2 = await cli.request("run", kernel="sphot-1", cores=2, trip=8)
            assert r2["ok"] and r2["result"]["correct"]
            assert svc.supervisor.restarts == 1  # no further rebuilds
            h = await cli.request("health")
            assert h["result"]["status"] == "ok"
            await svc.aclose()

        run(main())

    def test_restart_budget_exhaustion_sheds_compute(self, tmp_path):
        async def main():
            svc = make_service(tmp_path, max_restarts=0, restart_backoff=0.0)
            self._flaky_compute(svc, crashes=99)
            cli = ServeClient(svc)
            clear_cache()

            r1 = await cli.request("run", kernel="sphot-1", cores=2, trip=8)
            assert not r1["ok"]
            assert svc.supervisor.exhausted

            # a *different* cell is shed up front: no compute is burned
            r2 = await cli.request("run", kernel="sphot-1", cores=3, trip=8)
            assert not r2["ok"] and r2["error"]["kind"] == "overloaded"
            h = await cli.request("health")
            assert h["result"]["status"] == "degraded"
            await svc.aclose()

        run(main())

    def test_breaker_sheds_repeatedly_failing_key(self, tmp_path):
        async def main():
            svc = make_service(tmp_path, breaker_threshold=1,
                               breaker_cooldown=3600.0)
            calls = {"n": 0}

            def always_bad(kernel, cfg):
                def boom():
                    calls["n"] += 1
                    raise ValueError("deterministically broken cell")
                return boom

            svc._compute_fn = always_bad
            cli = ServeClient(svc)

            r1 = await cli.request("run", kernel="sphot-1", cores=2, trip=8)
            assert not r1["ok"] and calls["n"] == 1
            r2 = await cli.request("run", kernel="sphot-1", cores=2, trip=8)
            assert not r2["ok"] and r2["error"]["kind"] == "overloaded"
            assert calls["n"] == 1  # shed before dispatch, not recomputed
            assert svc.breaker.open_keys == 1
            await svc.aclose()

        run(main())

    def test_draining_rejects_new_compute_serves_health(self, tmp_path):
        async def main():
            svc = make_service(tmp_path)
            cli = ServeClient(svc)
            svc.drain.begin()

            r = await cli.request("run", kernel="sphot-1", cores=2, trip=8)
            assert not r["ok"] and r["error"]["kind"] == "draining"
            h = await cli.request("health")
            assert h["result"]["status"] == "draining"

            rep = await svc.drain_and_close()
            assert rep.clean and rep.abandoned == 0

        run(main())


class TestServeJournal:
    def test_compute_is_journaled_and_closes_complete(self, tmp_path):
        from repro.store.journal import load_journal

        async def scenario():
            svc = make_service(tmp_path)
            cli = ServeClient(svc)
            clear_cache()
            r = await cli.request("run", kernel="sphot-1", cores=2, trip=8)
            assert r["ok"]
            jpath = svc.journal.path
            await svc.aclose()
            return jpath

        jpath = run(scenario())
        state = load_journal(jpath)
        assert state.complete
        assert len(state.intents) == 1
        assert set(state.done) == set(state.intents)
        key = next(iter(state.intents))
        assert ResultStore(tmp_path / "store").get_run(key) is not None

    def test_failed_compute_is_acked_failed(self, tmp_path):
        """A structured failure response is an ack: the journal closes
        complete (status=failed), so resume owes nothing."""
        from repro.store.journal import load_journal

        async def scenario():
            svc = make_service(tmp_path)

            def bad(kernel, cfg):
                def boom():
                    raise ValueError("broken")
                return boom

            svc._compute_fn = bad
            cli = ServeClient(svc)
            r = await cli.request("run", kernel="sphot-1", cores=2, trip=8)
            assert not r["ok"]
            jpath = svc.journal.path
            await svc.aclose()
            return jpath

        state = load_journal(run(scenario()))
        assert state.complete
        assert list(state.done.values()) == ["failed"]

    def test_no_journal_config(self, tmp_path):
        async def scenario():
            svc = make_service(tmp_path, journal=False)
            assert svc.journal is None
            cli = ServeClient(svc)
            clear_cache()
            r = await cli.request("run", kernel="sphot-1", cores=2, trip=8)
            assert r["ok"]
            await svc.aclose()

        run(scenario())
        journals = tmp_path / "store" / "journals"
        assert not journals.is_dir() or not list(journals.iterdir())

    def test_resume_loop_recomputes_missing_cells(self, tmp_path):
        """``repro serve --resume``'s loop takes a crashed daemon's
        journal by its intents, once."""
        from dataclasses import asdict

        from repro.experiments.common import ExpConfig, store_key_for
        from repro.kernels import get_kernel
        from repro.store.journal import SweepJournal, new_journal_path
        from repro.store.sweep import resume_journals

        store = ResultStore(tmp_path / "store")
        cfg = ExpConfig(n_cores=2, trip=8)
        key = store_key_for(get_kernel("sphot-1"), cfg)
        path = new_journal_path(store.root, prefix="serve")
        j = SweepJournal(path, fsync=False)
        j.open_campaign({"mode": "serve"})
        j.record_intent(key, "sphot-1", asdict(cfg))
        j.close(complete=False)  # the crash breadcrumb

        clear_cache()
        lines = []
        rc, reports = resume_journals(store, workers=0, say=lines.append)
        assert rc == 0 and lines == [
            f"resume {path}: 1 cell(s), 1 journaled intent(s), "
            "0 already durable, 1 re-dispatched"]
        assert store.get_run(key) is not None
        # idempotent: the journal was marked complete by the first pass
        rc, reports = resume_journals(store, workers=0, say=lines.append)
        assert rc == 0 and reports == []
        assert lines[-1].endswith("nothing to resume")

    def test_an_l1_hit_is_durable_in_its_own_store(self, tmp_path):
        """Two services over two stores in one process share the run
        memo: the second answers from L1, and its store still gets the
        record."""
        async def scenario():
            tiers = []
            for name in ("a", "b"):
                svc = make_service(tmp_path / name)
                r = await ServeClient(svc).request(
                    "run", kernel="sphot-1", cores=2, trip=8)
                assert r["ok"], r
                tiers.append(r["cached"])
                await svc.aclose()
            return tiers

        assert run(scenario()) == [None, "l1"]
        for name in ("a", "b"):
            assert run_records(tmp_path / name / "store") == 1
