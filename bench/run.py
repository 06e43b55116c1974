#!/usr/bin/env python3
"""End-to-end benchmark of the compile -> simulate -> verify -> store path.

    python3 bench/run.py --workload suite-cold --seed 0 --seconds 25 --trace 0
    PYTHONPATH=src python bench/run.py --seed 0 [--trace] [--out F] [--quick]

Without ``--workload`` every workload runs in turn.  Every repetition
runs in a fresh process, repetitions continue while another one fits in
``--seconds``, and each timed metric is the median over repetitions.
Times are reported at a reference host speed, read by a probe process
beside the measured one (see ``HostSpeed``), so that the drift of a
shared host does not read as a regression.
Every output is checked: each cell must be bit-exact to the interpreter
oracle, the repetitions must agree, and the outputs must match the
digests in ``bench/expected.json`` where one is recorded.

The last line printed is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json``, or with ``--trace 1`` its per-layer metrics, taken
from repetitions run with the layer tracer of ``bench/trace.py``.  The
exit code is 0 only when every check passed, and 2 when the program
under test is missing.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import itertools
import json
import math
import os
import random
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
EXPECTED = BENCH / "expected.json"

sys.path.insert(0, str(BENCH))

from trace import layer_metrics  # noqa: E402
from worker import cell_failed, sha256, sim_summary  # noqa: E402

#: a run must end within 180 s; leave room to report and clean up.
RUN_LIMIT_S = 165.0
#: speed-probe sample time of the reference host at rest (2-vCPU x86-64
#: VM, CPython 3.11); times are reported as if measured at that speed.
REF_SAMPLE_S = 100e-6
#: set-up time is the median of at least this many set-ups per run.
MIN_SETUPS = 3
#: serve-zipf: closed-loop clients, the zipf exponent of
#: ``repro serve``'s load generator, and the seed of the request draws.
CLIENTS = 2
ZIPF_S = 1.1
PLAN_SEED = 0
#: ``--seed`` is taken modulo this, so that any integer picks valid
#: workload seeds: ``repro serve`` accepts seeds in [-2**31, 2**31] and
#: the workload generator only non-negative ones.
DATA_SEEDS = 2**24
SERVE_METRICS = ("serve.p50_ms", "serve.server_p99_ms", "serve.compute_p50_ms",
                 "serve.transport_p50_ms", "serve.l1_hits", "serve.l2_hits",
                 "serve.computed", "serve.coalesced", "serve.hit_ratio")


@dataclass(frozen=True)
class Size:
    """How much work one repetition does."""

    trip: int = 64                  # suites and serve requests
    grid_trip: int = 512
    requests: int = 1500
    seed_offsets: int = 8
    kernels: tuple[str, ...] = ()   # empty: the 18 Table-I kernels


FULL = Size()
#: one kernel per application, because Table II needs every application.
QUICK = Size(trip=8, grid_trip=8, requests=40,
             kernels=("lammps-1", "irs-2", "umt2k-2", "sphot-1"))


class RepFailed(Exception):
    """A repetition crashed, hung or exited non-zero."""


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (0 of no values)."""
    vals = sorted(values)
    return vals[max(0, math.ceil(q / 100 * len(vals)) - 1)] if vals else 0.0


def beta_cdf(x: float, a: float, b: float) -> float:
    """The regularized incomplete beta function I_x(a, b), by its
    continued fraction (modified Lentz's method)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1) / (a + b + 2):
        return 1.0 - beta_cdf(1.0 - x, b, a)   # where the fraction converges
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    f = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            f *= c * d
        if abs(c * d - 1.0) < 1e-14:
            break
    return front * f


def hd_percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile (0 of no
    values): the mean of all order statistics, weighted by a beta
    distribution centred on the rank of ``q``.  A tail can hold a few
    populations one after another (on serve-zipf the rank of p99 falls
    where the computes of the slowest kernel end), and a nearest-rank
    percentile there jumps between them from run to run; this estimate
    moves smoothly, spreading its weight over the ranks within a few
    standard errors of ``q``."""
    vals = sorted(values)
    n = len(vals)
    if not n:
        return 0.0
    p = q / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum((hi - lo) * v for lo, hi, v in zip(cdf, cdf[1:], vals))


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class Run:
    """Scratch space, deadline and settings of one workload's run."""

    def __init__(self, size: Size, seed: int) -> None:
        self.size, self.seed = size, seed % DATA_SEEDS
        OUT.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.problems: list[str] = []
        self.checked: list[dict] = []   # untimed repetitions whose outputs count
        self._n = itertools.count()

    def path(self, stem: str) -> Path:
        return self.work / f"{stem}-{next(self._n)}"

    def remaining(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def env(self, store: Path) -> dict:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        tmp = self.work / "tmp"
        tmp.mkdir(exist_ok=True)
        env.update(PYTHONPATH=str(ROOT / "src"), REPRO_CACHE_DIR=str(store),
                   TMPDIR=str(tmp))
        return env

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


@contextlib.contextmanager
def spawned(cmd: list[str], env: dict, **popen):
    """Start a child process that is killed and reaped if the block
    raises, so that no child outlives the benchmark."""
    proc = subprocess.Popen(cmd, env=env, **popen)
    try:
        yield proc
    except BaseException:
        if proc.returncode is None:
            os.kill(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
        raise


def _reap(proc: subprocess.Popen, timeout: float) -> tuple[int, float]:
    """Wait for ``proc``, killing it after ``timeout`` seconds; returns
    its exit code and peak RSS in MB."""
    # os.kill, not proc.kill: Popen.kill polls, and could reap the child
    # that os.wait4 is about to reap.
    timer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024


class HostSpeed:
    """The samples of ``worker.SpeedProbe``, each as a speed relative to
    the reference host."""

    def __init__(self, samples: list) -> None:
        self.times = [t for t, _ in samples]
        self.prefix = list(itertools.accumulate(
            (REF_SAMPLE_S / dt for _, dt in samples), initial=0.0))

    def scale(self, t0: float, t1: float, default: float = 1.0) -> float:
        """Mean relative speed over ``[t0, t1]``: the factor that takes a
        time spent then to the reference host (the work done is the
        integral of speed over time); ``default`` when no sample fell in
        the interval."""
        i = bisect.bisect_left(self.times, t0)
        j = bisect.bisect_right(self.times, t1)
        if j == i:
            return default
        return (self.prefix[j] - self.prefix[i]) / (j - i)


@contextlib.contextmanager
def speed_probe(run: Run):
    """Run ``worker.SpeedProbe`` in a process of its own for the length
    of the block; the list it yields holds the samples once the block
    has ended."""
    out = run.path("speed").with_suffix(".json")
    samples: list = []
    cmd = [sys.executable, str(BENCH / "worker.py"), "probe", "--out", str(out)]
    with spawned(cmd, None) as proc:
        try:
            yield samples
        finally:
            os.kill(proc.pid, signal.SIGTERM)
            code, _ = _reap(proc, 10.0)
    if code != 0:
        raise RepFailed(f"speed probe exited {code}")
    samples.extend(json.loads(out.read_text()))


def timings(rep: dict, speed: HostSpeed) -> dict:
    """A repetition's wall, set-up and per-operation times at the
    reference host speed, each scaled by the samples of its own
    interval, plus the raw wall and set-up times."""
    t_spawn, t_ready, t_start, t_end = (rep[k] for k in (
        "t_spawn", "t_ready", "t_start", "t_end"))
    scale = speed.scale(t_start, t_end)
    return {
        "wall_s": (t_end - t_start) * scale,
        "setup_s": (t_ready - t_spawn) * speed.scale(t_spawn, t_ready, scale),
        "lat_ms": [(t1 - t0) * 1e3 * speed.scale(t0, t1, scale)
                   for t0, t1 in rep["ops"]],
        "raw_wall_s": t_end - t_start,
        "raw_setup_s": t_ready - t_spawn,
        "host_speed": scale,
    }


def _tail(log: Path) -> str:
    return log.read_text(errors="replace")[-2000:] if log.exists() else ""


# -- suite and grid workloads: bench/worker.py repetitions -------------


def worker_rep(run: Run, args: list[str], store: Path, trace: bool,
               setup_only: bool = False) -> dict:
    out = run.path("rep").with_suffix(".json")
    log = out.with_suffix(".log")
    cmd = [sys.executable, str(BENCH / "worker.py"), *args, "--out", str(out)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if run.size.kernels:
        cmd += ["--kernels", ",".join(run.size.kernels)]
    t_spawn = time.monotonic()
    with open(log, "wb") as fh, spawned(cmd, run.env(store), stdout=fh,
                                        stderr=subprocess.STDOUT) as proc:
        code, rss = _reap(proc, run.remaining())
    if code != 0:
        raise RepFailed(f"{args[0]} worker exited {code}:\n{_tail(log)}")
    rep = json.loads(out.read_text())
    rep.update(t_spawn=t_spawn, t_ready=rep["t_start"], rss_mb=rss)
    return rep


def _suite_args(run: Run) -> list[str]:
    return ["suite", "--trip", str(run.size.trip)]


def _populate(run: Run) -> Path:
    """Fill a store with one untimed cold suite, for the warm replays."""
    store = run.path("store")
    run.checked.append(worker_rep(run, _suite_args(run), store, False))
    return store


def _cold_rep(run: Run, _state, trace: bool, setup_only: bool = False) -> dict:
    return worker_rep(run, _suite_args(run), run.path("store"), trace, setup_only)


def _warm_rep(run: Run, store: Path, trace: bool, setup_only: bool = False) -> dict:
    return worker_rep(run, _suite_args(run), store, trace, setup_only)


def _grid_rep(run: Run, _state, trace: bool, setup_only: bool = False) -> dict:
    args = ["grid", "--trip", str(run.size.grid_trip), "--seed", str(run.seed)]
    return worker_rep(run, args, run.path("store"), trace, setup_only)


# -- serve workload: a repro serve daemon and closed-loop TCP clients --


def serve_plan(run: Run) -> list[dict]:
    """The request sequence, in the traffic model of ``repro serve``'s
    load generator: zipf demand over cells whose rank order is shuffled,
    so that a few hot cells dominate.  The cells are Table I x {2, 4}
    cores x ``seed_offsets`` workload seeds.  The draws use a fixed
    seed, so every benchmark seed requests the same cells in the same
    order and computes as many of them; ``--seed`` S picks the workload
    data, seeds ``(S mod DATA_SEEDS) * seed_offsets`` onwards."""
    from repro.serve.loadgen import LoadgenConfig, draw_sequence, population, zipf_cdf

    n = run.size.seed_offsets
    cells = [(kernel, cores, offset)
             for kernel, cores in population(LoadgenConfig(kernels=run.size.kernels))
             for offset in range(n)]
    rng = random.Random(PLAN_SEED)
    rng.shuffle(cells)
    draws = draw_sequence(cells, zipf_cdf(len(cells), ZIPF_S), rng, run.size.requests)
    return [{"op": "run", "id": i, "kernel": kernel, "cores": cores,
             "trip": run.size.trip, "seed": run.seed * n + offset}
            for i, (kernel, cores, offset) in enumerate(draws)]


def _call(f, req: dict) -> dict | None:
    f.write(json.dumps(req).encode() + b"\n")
    f.flush()
    line = f.readline()
    return json.loads(line) if line else None


def _request(addr, req: dict, timeout: float) -> dict | None:
    with socket.create_connection(addr, timeout=timeout) as sock, \
            sock.makefile("rwb") as f:
        return _call(f, req)


def closed_loop(addr, plan: list[dict], timeout: float) -> list:
    """``CLIENTS`` connections, each sending its next request only after
    the reply to the previous one; returns ``(sent, received, response)``
    per request, ``None`` where the connection failed."""
    replies: list = [None] * len(plan)

    def client(i: int) -> None:
        try:
            with socket.create_connection(addr, timeout=timeout) as sock, \
                    sock.makefile("rwb") as f:
                for req in plan[i::CLIENTS]:
                    t = time.monotonic()
                    resp = _call(f, req)
                    replies[req["id"]] = (t, time.monotonic(), resp)
        except (OSError, ValueError):
            pass  # the requests left unanswered count as failed

    threads = [threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return replies


def _read_port(proc: subprocess.Popen, timeout: float) -> int:
    deadline = time.monotonic() + timeout
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        while sel.select(max(0.0, deadline - time.monotonic())):
            line = proc.stdout.readline()
            if not line:
                break
            if line.startswith(b"serving on "):
                return int(line.rsplit(b":", 1)[1])
    raise RepFailed("serve daemon did not start listening")


def serve_rep(run: Run, plan: list[dict], trace: bool,
              setup_only: bool = False) -> dict:
    store = run.path("store")
    log = run.path("daemon").with_suffix(".log")
    out = run.path("daemon").with_suffix(".json")
    cmd = [sys.executable, str(BENCH / "worker.py"), "daemon", "--out", str(out),
           *(["--trace"] if trace else []), "--",
           "serve", "--port", "0", "--max-concurrency", str(CLIENTS),
           "--store-dir", str(store)]
    t_spawn = time.monotonic()
    with open(log, "wb") as fh, spawned(cmd, run.env(store),
                                        stdout=subprocess.PIPE, stderr=fh) as proc:
        try:
            addr = ("127.0.0.1", _read_port(proc, run.remaining()))
            health = _request(addr, {"op": "health"}, run.remaining())
            if not health or not health.get("ok"):
                raise RepFailed(f"serve daemon unhealthy: {health}")
            t_ready = t_start = t_end = time.monotonic()
            if not setup_only:
                replies = closed_loop(addr, plan, run.remaining())
                t_end = time.monotonic()
                snap = _request(addr, {"op": "metrics"}, run.remaining())
        except OSError as exc:
            raise RepFailed(f"serve daemon unreachable: {exc}") from exc
        finally:
            os.kill(proc.pid, signal.SIGTERM)  # graceful drain, then exit 0
            code, rss = _reap(proc, min(30.0, run.remaining()))
            proc.stdout.close()
    if code != 0:
        raise RepFailed(f"serve daemon exited {code}:\n{_tail(log)}")
    if setup_only:
        return {"t_spawn": t_spawn, "t_ready": t_ready, "t_start": t_start,
                "t_end": t_end, "ops": []}
    daemon = json.loads(out.read_text())

    failed, cells, ops, lat, elapsed, computed_ms, transport = 0, {}, [], [], [], [], []
    for req, reply in zip(plan, replies):
        resp = reply and reply[2]
        if not resp or not resp.get("ok"):
            failed += 1
            continue
        p = resp["result"]
        cell = (p["kernel"], p["config"]["n_cores"], p["config"]["seed"],
                p["seq_cycles"], p["par_cycles"], p["correct"], p["failure"])
        failed += cell[:3] != (req["kernel"], req["cores"], req["seed"])
        failed += cell_failed(p["correct"], p["deadlocked"], p["resolved_by"])
        cells[cell] = p["speedup"]
        ops.append(reply[:2])
        lat.append((reply[1] - reply[0]) * 1e3)
        elapsed.append(resp["elapsed_ms"])
        transport.append(lat[-1] - resp["elapsed_ms"])
        if resp["cached"] is None:
            computed_ms.append(resp["elapsed_ms"])
    if len({c[:3] for c in cells}) != len(cells):
        failed += 1  # one cell, two different answers
    gmean, err = sim_summary((k, c, s) for (k, c, *_), s in cells.items())

    counters = (snap or {}).get("result", {}).get("counters", {})

    def counter(name: str) -> float:
        return counters.get(name, {}).get("value", 0.0)

    hits = counter("cache.l1_hit") + counter("cache.l2_hit")
    serve = {
        "serve.p50_ms": percentile(lat, 50),
        "serve.server_p99_ms": percentile(elapsed, 99),
        "serve.compute_p50_ms": percentile(computed_ms, 50),
        "serve.transport_p50_ms": percentile(transport, 50),
        "serve.l1_hits": counter("cache.l1_hit"),
        "serve.l2_hits": counter("cache.l2_hit"),
        "serve.computed": counter("serve.computed"),
        "serve.coalesced": counter("cache.coalesced"),
        "serve.hit_ratio": hits / len(plan),
    }
    return {
        "t_spawn": t_spawn, "t_ready": t_ready, "t_start": t_start,
        "t_end": t_end, "ops": ops, "rss_mb": rss,
        "attempted": len(plan), "failed": failed,
        "digest": sha256(json.dumps(sorted(cells, key=repr))),
        "gmean": gmean, "paper_err": err, "serve": serve,
        "trace": daemon["trace"],
    }


#: workloads whose inputs do not depend on the seed (one expected digest).
SEED_FREE = ("suite-cold", "suite-warm")
#: name -> (prepare(run) -> state, rep(run, state, trace, setup_only) -> dict)
WORKLOADS = {
    "suite-cold": (lambda run: None, _cold_rep),
    "suite-warm": (_populate, _warm_rep),
    "grid-t512": (lambda run: None, _grid_rep),
    "serve-zipf": (serve_plan, serve_rep),
}


# -- measuring, checking and reporting ---------------------------------


def measure(run: Run, name: str, seconds: float,
            trace: bool) -> tuple[list, list, list]:
    """Repeat the workload while another repetition fits in ``seconds``
    (at least once).  With ``trace``, each repetition is an untraced and
    traced pair, and the pairs get twice the time.  Returns the untraced
    and traced repetitions and the set-up times, topped up to
    ``MIN_SETUPS`` by runs that stop where the timed phase would start."""
    prepare, rep = WORKLOADS[name]
    untraced: list[dict] = []
    traced: list[dict] = []
    extra_setups: list[dict] = []
    try:
        with speed_probe(run) as samples:
            state = prepare(run)
            budget = seconds * (2 if trace else 1)
            t0 = time.monotonic()
            while True:
                t = time.monotonic()
                untraced.append(rep(run, state, False))
                if trace:
                    traced.append(rep(run, state, True))
                took = time.monotonic() - t
                now = time.monotonic()
                if now - t0 + took > budget or now + took > run.deadline:
                    break
            while not trace and len(untraced) + len(extra_setups) < MIN_SETUPS:
                extra_setups.append(rep(run, state, False, True))
    except RepFailed as exc:
        run.problems.append(str(exc))
        return [], [], []
    speed = HostSpeed(samples)
    for r in untraced + traced + extra_setups:
        r.update(timings(r, speed))
    return untraced, traced, [r["setup_s"] for r in untraced + extra_setups]


def check(run: Run, name: str, reps: list[dict]) -> None:
    """Record a problem for every output check that fails."""
    digests = {r["digest"] for r in reps}
    if len(digests) > 1:
        run.problems.append(f"outputs differ between repetitions: {sorted(digests)}")
    if len({(r["gmean"], r["paper_err"]) for r in reps}) > 1:
        run.problems.append("simulated speedups differ between repetitions")
    if run.size != FULL:
        return
    recorded = json.loads(EXPECTED.read_text()).get(name, {})
    want = recorded.get("any", recorded.get(str(run.seed)))
    if want is not None and digests - {want}:
        parts = {eid: d[:12] for r in reps for eid, d in r.get("parts", {}).items()}
        run.problems.append(
            f"output digest {sorted(digests)} != expected {want}; parts {parts}")


def e2e_metrics(reps: list[dict], setups: list[float]) -> dict[str, float]:
    med = statistics.median
    return {
        "wall_s": med(r["wall_s"] for r in reps),
        "setup_s": med(setups),
        "peak_rss_mb": med(r["rss_mb"] for r in reps),
        "p99_ms": hd_percentile([x for r in reps for x in r["lat_ms"]], 99),
        "sim_speedup_gmean": reps[0]["gmean"],
        "paper_err_c4": reps[0]["paper_err"],
    }


def per_layer_metrics(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    per_rep = []
    for r in traced:
        values = layer_metrics(r["trace"], r["t_start"], r["t_end"])
        values.update(r.get("serve") or dict.fromkeys(SERVE_METRICS, 0.0))
        per_rep.append(values)
    out = {k: statistics.median(v[k] for v in per_rep) for k in per_rep[0]}
    out["trace.overhead"] = (statistics.median(r["wall_s"] for r in traced)
                             / statistics.median(r["wall_s"] for r in untraced) - 1)
    return out


def write_trace(name: str, seed: int, traced: list[dict]) -> None:
    doc = {
        "workload": name, "seed": seed,
        "fields": ["id", "name", "start", "end", "parent", "thread"],
        "reps": [{"t_start": r["t_start"], "t_end": r["t_end"],
                  "spans": r["trace"]["spans"]} for r in traced],
    }
    (OUT / f"trace-{name}.json").write_text(json.dumps(doc))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: Size, spec: dict) -> tuple[dict, list[dict]]:
    """Measure one workload; returns its result object and the raw
    numbers of each repetition."""
    run = Run(size, seed)
    try:
        untraced, traced, setups = measure(run, name, seconds, trace)
    finally:
        run.close()
    reps = run.checked + untraced + traced
    if reps:
        check(run, name, reps)
    attempted = sum(r["attempted"] for r in reps) + len(run.problems)
    failed = sum(r["failed"] for r in reps) + len(run.problems)
    if not untraced or (trace and not traced):
        values: dict[str, float] = {}
    elif trace:
        values = per_layer_metrics(traced, untraced)
        write_trace(name, seed, traced)
    else:
        values = e2e_metrics(untraced, setups)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    for problem in run.problems:
        print(f"{name}: FAILED: {problem}", file=sys.stderr)
    print(f"{name}: seed {seed} (data seed {run.seed}), {len(untraced)} untraced and {len(traced)} "
          f"traced repetition(s), {len(setups)} set-ups, {attempted} operations, "
          f"{failed} failed, {sum(len(r['lat_ms']) for r in untraced)} latency samples")
    if untraced:
        med = statistics.median
        print(f"  host speed x{med(r['host_speed'] for r in untraced):.3f} of the "
              f"reference; as measured: wall "
              f"{med(r['raw_wall_s'] for r in untraced):.4g} s, set-up "
              f"{med(r['raw_setup_s'] for r in untraced):.4g} s")
    for metric, unit in units.items():
        if metric in values:
            print(f"  {metric:34s} {values[metric]:14.6g} {unit}")
    result = {
        "correct": failed == 0 and bool(values),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": u}
                    for m, u in units.items() if m in values},
    }
    keys = ("wall_s", "raw_wall_s", "setup_s", "raw_setup_s", "host_speed", "rss_mb")
    repetitions = [{"traced": is_traced, "p99_ms": hd_percentile(r["lat_ms"], 99),
                    **{k: r[k] for k in keys}}
                   for is_traced, group in ((False, untraced), (True, traced))
                   for r in group]
    return result, repetitions


def record(name: str, seed: int, seconds: float) -> str:
    """Measure once and store the output digest in bench/expected.json."""
    run = Run(FULL, seed)
    try:
        untraced, _, _ = measure(run, name, seconds, False)
    finally:
        run.close()
    if run.problems or not untraced or any(r["failed"] for r in untraced):
        raise SystemExit(f"{name}: cannot record: {run.problems or 'failed cells'}")
    doc = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    key = "any" if name in SEED_FREE else str(run.seed)
    doc.setdefault(name, {})[key] = untraced[0]["digest"]
    EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return untraced[0]["digest"]


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)  # unwinds, so children are reaped


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: the program under test is missing ({ROOT / 'src' / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names,
                    help="run one workload (default: all of them)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="measuring time per workload")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="report per-layer metrics instead")
    ap.add_argument("--out", help="also write the results to this JSON file")
    ap.add_argument("--quick", action="store_true",
                    help="tiny inputs (trip 8, 4 kernels, 40 requests)")
    ap.add_argument("--record", action="store_true",
                    help="store the output digest of this seed in bench/expected.json")
    args = ap.parse_args(argv)
    if args.record and args.quick:
        ap.error("--record stores digests of the full size; drop --quick")
    signal.signal(signal.SIGTERM, _terminate)
    size = QUICK if args.quick else FULL
    todo = [args.workload] if args.workload else names

    if args.record:
        for name in todo:
            print(name, record(name, args.seed, args.seconds))
        return 0

    results, repetitions = {}, {}
    for name in todo:
        results[name], repetitions[name] = run_workload(
            name, args.seed, args.seconds, bool(args.trace), size, spec)
    if args.out:
        Path(args.out).write_text(json.dumps({
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "quick": args.quick, "workloads": results, "repetitions": repetitions}))
    if args.workload:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{m}": v for name, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
