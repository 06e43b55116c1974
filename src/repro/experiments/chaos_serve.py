"""E12 — chaos-serve campaign (crash-safety extension).

E11 injects faults into the *simulated machine*; E12 injects them into
the *serving infrastructure around it* — worker processes, the daemon
process itself, the network transport, the disk under the store — and
proves the crash-safety invariants of the PR-7 resilience layer:

* **no lost ack** — every request acknowledged ``ok`` has a durable
  record in the content-addressed store, even when workers crash or
  the disk throws ENOSPC/EIO around it;
* **no duplicate compute** — resuming after a ``kill -9`` re-dispatches
  only cells missing from the store; cells that were durable at the
  kill are never recomputed, and a second resume performs zero
  computes (idempotence);
* **bounded recovery** — the kill-and-resume cycle completes inside an
  explicit deadline, and the resumed store is bit-identical to an
  uninterrupted control run;
* **no unstructured failure** — every response under chaos is a
  structured ok/error line; nothing escapes the service's failure
  boundary (``serve.unhandled`` stays zero).

Five scenarios, each independently seeded and deterministic where the
OS allows (the daemon-kill point depends on scheduling, but the
*invariants* hold for any kill point — that is the point)::

    worker-crash    seeded BrokenProcessPool injection mid-compute
    executor-break  SIGKILL real pool workers; next request rebuilds
    daemon-kill     SIGKILL a journaled sweep; resume; compare stores
    net-chaos       garbage/torn NDJSON, reset, slow-loris vs a good client
    disk-full       seeded ENOSPC/EIO on store writes

``repro chaos-serve`` runs the campaign from the CLI; the chaos-smoke
CI job runs the subprocess kill-and-resume variant against the real
``repro sweep``/``repro serve`` entry points.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..faults.serve import ServeFaultPlan
from ..obs.metrics import MetricsRegistry

#: small cells so a scenario completes in seconds: every compute is a
#: full compile+simulate+verify, which is exactly what must survive.
DEFAULT_KERNELS = ("sphot-1", "lammps-1")
DEFAULT_TRIP = 8

SCENARIOS = (
    "worker-crash",
    "executor-break",
    "daemon-kill",
    "net-chaos",
    "disk-full",
)

#: recovery-time bound for the kill-and-resume cycle (generous: CI
#: machines are slow; the point is "bounded", not "fast").
RECOVERY_DEADLINE_S = 120.0


@dataclass
class ScenarioResult:
    """One scenario's outcome: counts plus the invariant verdicts."""

    name: str
    requests: int = 0
    ok: int = 0
    errors: dict[str, int] = field(default_factory=dict)
    injected: dict[str, int] = field(default_factory=dict)
    lost_acks: int = 0
    duplicate_computes: int = 0
    recovery_s: float = 0.0
    unhandled: int = 0
    violations: list[str] = field(default_factory=list)
    skipped: str = ""      # non-empty reason when the scenario cannot run
    notes: str = ""

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass
class ChaosServeResult:
    scenarios: list[ScenarioResult]

    @property
    def violations(self) -> list[str]:
        out = []
        for s in self.scenarios:
            out.extend(f"{s.name}: {v}" for v in s.violations)
        return out

    @property
    def ok(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _mk_service(root: str | Path, **overrides: Any):
    from ..serve.service import ServeConfig, ServeService

    kw: dict[str, Any] = dict(
        store_root=str(root), workers=0, watchdog_interval=0.0,
        breaker_threshold=1000,      # scenarios assert shedding explicitly
        max_restarts=1000, restart_backoff=0.001,
    )
    kw.update(overrides)
    return ServeService(ServeConfig(**kw), registry=MetricsRegistry())


def _cells(kernels: tuple[str, ...], n: int, seed: int) -> list[dict]:
    """``n`` distinct run-request bodies (distinct seeds → distinct
    content keys → every request is a fresh compute)."""
    out = []
    for i in range(n):
        out.append({
            "kernel": kernels[i % len(kernels)],
            "cores": 2,
            "trip": DEFAULT_TRIP,
            "seed": seed + i,
        })
    return out


def _cell_store_key(body: dict) -> str:
    from ..experiments.common import ExpConfig, store_key_for
    from ..kernels import get_kernel

    cfg = ExpConfig(
        n_cores=body["cores"], trip=body["trip"], seed=body["seed"],
    )
    return store_key_for(get_kernel(body["kernel"]), cfg)


async def _fire(service: Any, bodies: list[dict], result: ScenarioResult,
                timeout: float = 60.0) -> list[tuple[dict, dict]]:
    """Issue one run request per body through the in-proc client;
    every response must be structured (a raised exception is an
    unhandled-boundary violation)."""
    from ..serve.client import ServeClient

    client = ServeClient(service, client_id="chaos")
    pairs: list[tuple[dict, dict]] = []
    try:
        for body in bodies:
            result.requests += 1
            try:
                resp = await client.request(
                    "run", timeout=timeout, **body
                )
            except Exception as exc:
                result.unhandled += 1
                result.violations.append(
                    f"request escaped the failure boundary: "
                    f"{type(exc).__name__}: {exc}"
                )
                continue
            if resp.get("ok"):
                result.ok += 1
            else:
                kind = resp.get("error", {}).get("kind", "unknown")
                result.errors[kind] = result.errors.get(kind, 0) + 1
            pairs.append((body, resp))
    finally:
        await client.close()
    return pairs


def _check_acks_durable(store: Any, pairs: list[tuple[dict, dict]],
                        result: ScenarioResult) -> None:
    """No lost ack: every ok'd cell must have a durable store record."""
    for body, resp in pairs:
        if not resp.get("ok"):
            continue
        key = _cell_store_key(body)
        if store.get_run(key) is None:
            result.lost_acks += 1
            result.violations.append(
                f"acked cell {body['kernel']}/seed={body['seed']} has no "
                f"durable record ({key[:12]}…)"
            )


# ---------------------------------------------------------------------------
# scenario: worker-crash (seeded process-level faults, in-proc)
# ---------------------------------------------------------------------------

async def _scn_worker_crash(root: Path, seed: int, n: int) -> ScenarioResult:
    result = ScenarioResult(name="worker-crash")
    plan = ServeFaultPlan(seed=seed, crash_prob=0.4)
    service = _mk_service(root, fault_plan=plan)
    try:
        pairs = await _fire(service, _cells(DEFAULT_KERNELS, n, seed), result)
        result.injected = service.faults.summary()
        _check_acks_durable(service.store, pairs, result)
        # crashes must surface as structured compute errors, not acks
        crash_count = result.injected.get("compute-crash", 0)
        if crash_count == 0:
            result.notes = "plan never fired (seed produced no crashes)"
        if result.ok + sum(result.errors.values()) != result.requests:
            result.violations.append("response accounting does not add up")
        restarts = service.supervisor.restarts
        result.notes = (result.notes + f"; restarts={restarts}").lstrip("; ")
    finally:
        await service.aclose()

    # resume proof: a fresh service replays the journal; cells acked ok
    # are durable and must not be recomputed.
    svc2 = _mk_service(root)
    try:
        rep = await svc2.resume_incomplete()
        recomputable = rep["cells"] - rep["durable"]
        if rep["recomputed"] > recomputable:
            result.duplicate_computes = rep["recomputed"] - recomputable
            result.violations.append(
                f"resume recomputed {rep['recomputed']} cells but only "
                f"{recomputable} were missing"
            )
        rep2 = await svc2.resume_incomplete()
        if rep2["recomputed"] != 0:
            result.violations.append(
                f"second resume recomputed {rep2['recomputed']} cells "
                "(idempotence broken)"
            )
    finally:
        await svc2.aclose()
    return result


# ---------------------------------------------------------------------------
# scenario: executor-break (SIGKILL real pool workers)
# ---------------------------------------------------------------------------

async def _scn_executor_break(root: Path, seed: int) -> ScenarioResult:
    from ..pool import kill_workers

    result = ScenarioResult(name="executor-break")
    service = _mk_service(root, workers=2)
    try:
        bodies = _cells(DEFAULT_KERNELS, 3, seed + 10_000)
        # 1) warm the pool with a real compute
        pairs = await _fire(service, bodies[:1], result)
        # 2) SIGKILL every worker; the next compute hits the broken
        #    pool and must come back as a structured error while the
        #    service rebuilds lazily.
        killed = kill_workers(service._executor)
        if not killed:
            result.skipped = "process pool unavailable in this environment"
            return result
        result.injected["worker-kill"] = killed
        pairs += await _fire(service, bodies[1:2], result)
        broke = pairs[-1][1]
        if broke.get("ok"):
            # the OS may reap + replace fast enough that the pool
            # survives; that is a pass for the invariant (structured
            # response either way), note it for the report.
            result.notes = "pool absorbed the kill without breaking"
        elif service.supervisor.restarts < 1:
            result.violations.append(
                "pool broke but the supervisor recorded no restart"
            )
        # 3) after the (tiny) backoff the rebuilt pool must serve again
        await asyncio.sleep(0.05)
        pairs += await _fire(service, bodies[2:], result)
        final = pairs[-1][1]
        if not final.get("ok"):
            result.violations.append(
                "request after pool rebuild failed: "
                f"{final.get('error', {}).get('kind')}"
            )
        _check_acks_durable(service.store, pairs, result)
    finally:
        await service.aclose()
    return result


# ---------------------------------------------------------------------------
# scenario: daemon-kill (SIGKILL a journaled sweep, resume, compare)
# ---------------------------------------------------------------------------

def _sweep_child(root: str, journal_path: str, kernels: tuple[str, ...],
                 cores: tuple[int, ...], trip: int, seed: int) -> None:
    """Child process body: a serial journaled sweep (the victim)."""
    from ..experiments.common import ExpConfig, clear_cache
    from ..kernels import get_kernel
    from ..store.disk import ResultStore
    from ..store.sweep import run_grid

    # a forked child inherits the parent's in-process run memo; clear
    # it so every cell is a *real* compute the SIGKILL can interrupt.
    clear_cache()
    specs = [get_kernel(k) for k in kernels]
    cfgs = [ExpConfig(n_cores=c, trip=trip, seed=seed) for c in cores]
    run_grid(specs, cfgs, workers=0, store=ResultStore(root),
             journal=journal_path)


def _count_done_lines(path: str | Path) -> int:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return sum(1 for line in fh if '"done"' in line)
    except OSError:
        return 0


def _scn_daemon_kill(tmp: Path, seed: int) -> ScenarioResult:
    from ..experiments.common import ExpConfig
    from ..kernels import get_kernel
    from ..store.disk import ResultStore
    from ..store.journal import load_journal, new_journal_path
    from ..store.sweep import resume_grid, run_grid

    from ..experiments.common import clear_cache

    result = ScenarioResult(name="daemon-kill")
    kernels, cores, trip = DEFAULT_KERNELS, (2, 3), DEFAULT_TRIP
    specs = [get_kernel(k) for k in kernels]
    cfgs = [ExpConfig(n_cores=c, trip=trip, seed=seed) for c in cores]

    # control: the same sweep, uninterrupted, in its own store.  The
    # in-process run memo is cleared around every stage so control,
    # victim, and resume each compute independently — the bit-identical
    # comparison then tests determinism, not memo sharing.
    clear_cache()
    control_root = tmp / "control"
    control_store = ResultStore(control_root)
    run_grid(specs, cfgs, workers=0, store=control_store)
    clear_cache()

    # victim: journaled sweep in a child; SIGKILL once progress shows
    victim_root = tmp / "victim"
    victim_store = ResultStore(victim_root)
    journal_path = new_journal_path(victim_root)
    ctx = multiprocessing.get_context()
    child = ctx.Process(
        target=_sweep_child,
        args=(str(victim_root), str(journal_path), kernels, cores, trip, seed),
    )
    child.start()
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline and child.is_alive():
        if _count_done_lines(journal_path) >= 1:
            break
        time.sleep(0.02)
    killed_mid_sweep = child.is_alive()
    if killed_mid_sweep:
        os.kill(child.pid, signal.SIGKILL)
    child.join(timeout=30.0)
    if not killed_mid_sweep:
        result.notes = "sweep finished before the kill landed"
    result.injected["daemon-kill"] = 1 if killed_mid_sweep else 0

    durable_at_kill = sum(
        1 for key in load_journal(journal_path).intents
        if victim_store.get_run(key) is not None
    )

    # resume: re-dispatch only the missing cells, bounded in time
    clear_cache()
    t0 = time.monotonic()
    _, rep = resume_grid(journal_path, workers=0, store=victim_store)
    result.recovery_s = time.monotonic() - t0
    result.requests = rep.cells
    result.ok = rep.cells
    if rep.recomputed != rep.cells - rep.completed:
        result.violations.append(
            f"resume recomputed {rep.recomputed}, expected "
            f"{rep.cells - rep.completed} missing cells"
        )
    if rep.completed < durable_at_kill:
        result.duplicate_computes = durable_at_kill - rep.completed
        result.violations.append(
            f"{result.duplicate_computes} cell(s) durable at the kill "
            "were recomputed"
        )
    if result.recovery_s > RECOVERY_DEADLINE_S:
        result.violations.append(
            f"recovery took {result.recovery_s:.1f}s "
            f"(bound {RECOVERY_DEADLINE_S:g}s)"
        )

    # the resumed store must be bit-identical to the control store
    for spec in specs:
        for cfg in cfgs:
            from ..experiments.common import store_key_for

            key = store_key_for(spec, cfg)
            a = control_store.get(key)
            b = victim_store.get(key)
            if b is None:
                result.violations.append(
                    f"cell {spec.name}@{cfg.n_cores} missing after resume"
                )
            elif a != b:
                result.violations.append(
                    f"cell {spec.name}@{cfg.n_cores} differs from the "
                    "uninterrupted control run"
                )

    # idempotence: a second resume performs zero computes
    _, rep2 = resume_grid(journal_path, workers=0, store=victim_store)
    if rep2.recomputed != 0:
        result.violations.append(
            f"second resume recomputed {rep2.recomputed} cells "
            "(idempotence broken)"
        )
    return result


# ---------------------------------------------------------------------------
# scenario: net-chaos (misbehaving clients vs a good one)
# ---------------------------------------------------------------------------

async def _scn_net_chaos(root: Path, seed: int) -> ScenarioResult:
    from ..serve.client import TCPClient
    from ..serve.server import start_server

    result = ScenarioResult(name="net-chaos")
    service = _mk_service(root)
    server = await start_server(service, host="127.0.0.1", port=0)
    host, port = server.sockets[0].getsockname()[:2]
    injected = result.injected
    try:
        # slow-loris: opens, dribbles bytes, never completes a line —
        # held open across the whole scenario.
        loris_r, loris_w = await asyncio.open_connection(host, port)
        loris_w.write(b'{"op": "he')
        await loris_w.drain()
        injected["slow-loris"] = 1

        # garbage line: must get a structured bad-json error back
        r, w = await asyncio.open_connection(host, port)
        w.write(b"this is not json\n")
        await w.drain()
        line = await asyncio.wait_for(r.readline(), 10.0)
        import json as _json

        resp = _json.loads(line)
        if resp.get("ok") or resp.get("error", {}).get("kind") != "bad-json":
            result.violations.append(f"garbage line got {resp!r}")
        injected["garbage-line"] = 1
        w.close()

        # torn line + abrupt close mid-request
        r2, w2 = await asyncio.open_connection(host, port)
        w2.write(b'{"op": "run", "kernel": "sph')
        await w2.drain()
        w2.close()
        injected["torn-line"] = 1

        # connection reset right after a valid request (client never
        # reads the response; the daemon must tolerate the dead socket)
        r3, w3 = await asyncio.open_connection(host, port)
        w3.write(
            b'{"op": "run", "kernel": "sphot-1", "cores": 2, "trip": 8}\n'
        )
        await w3.drain()
        w3.transport.abort()
        injected["reset-mid-response"] = 1

        # the good client must stay fully served throughout
        good = await TCPClient.connect(host, port, client_id="good")
        try:
            for i, body in enumerate(_cells(DEFAULT_KERNELS, 4, seed)):
                result.requests += 1
                resp = await good.request("run", timeout=60.0, **body)
                if resp.get("ok"):
                    result.ok += 1
                else:
                    kind = resp.get("error", {}).get("kind", "unknown")
                    result.errors[kind] = result.errors.get(kind, 0) + 1
                    result.violations.append(
                        f"good client request {i} failed under net chaos: "
                        f"{kind}"
                    )
            health = await good.request("health")
            if not health.get("ok"):
                result.violations.append("health check failed under net chaos")
        finally:
            await good.close()

        loris_w.close()
        # give abandoned handler tasks a beat to finish their writes
        await asyncio.sleep(0.05)
        result.unhandled = int(service.registry.value("serve.unhandled"))
        if result.unhandled:
            result.violations.append(
                f"serve.unhandled = {result.unhandled} (must be 0)"
            )
    finally:
        server.close()
        await server.wait_closed()
        await service.aclose()
    return result


# ---------------------------------------------------------------------------
# scenario: disk-full (ENOSPC/EIO on store writes)
# ---------------------------------------------------------------------------

async def _scn_disk_full(root: Path, seed: int, n: int) -> ScenarioResult:
    result = ScenarioResult(name="disk-full")
    plan = ServeFaultPlan(seed=seed, enospc_prob=0.25, eio_prob=0.15)
    service = _mk_service(root, fault_plan=plan)
    try:
        pairs = await _fire(service, _cells(DEFAULT_KERNELS, n, seed + 500), result)
        result.injected = service.faults.summary()
        _check_acks_durable(service.store, pairs, result)
        # disk faults must be *classified* — the structured store-error
        # kind, or nothing at all (when the roll spared the write).
        hit = result.injected.get("store-enospc", 0) + result.injected.get(
            "store-eio", 0
        )
        store_errors = result.errors.get("store-error", 0)
        if hit and not store_errors:
            result.violations.append(
                f"{hit} disk fault(s) injected but no store-error response"
            )
        unknown = set(result.errors) - {"store-error"}
        if unknown:
            result.violations.append(
                f"unexpected error kinds under disk faults: {sorted(unknown)}"
            )
    finally:
        await service.aclose()

    # every failed write left no ack, so resume owes nothing durable
    svc2 = _mk_service(root)
    try:
        rep = await svc2.resume_incomplete()
        if rep["recomputed"] > rep["cells"] - rep["durable"]:
            result.violations.append("resume recomputed a durable cell")
    finally:
        await svc2.aclose()
    return result


# ---------------------------------------------------------------------------
# campaign driver
# ---------------------------------------------------------------------------

def run(
    seed: int = 12,
    scenarios: tuple[str, ...] = SCENARIOS,
    requests: int = 10,
    tmpdir: str | Path | None = None,
) -> ChaosServeResult:
    """Run the chaos-serve campaign; each scenario gets a fresh store
    under ``tmpdir`` (a private temp directory by default)."""
    import shutil
    import tempfile

    from ..experiments.common import clear_cache

    for name in scenarios:
        if name not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {name!r}; known: {list(SCENARIOS)}"
            )
    owned = tmpdir is None
    base = Path(tmpdir) if tmpdir is not None else Path(
        tempfile.mkdtemp(prefix="repro-chaos-serve-")
    )
    results: list[ScenarioResult] = []
    try:
        for name in scenarios:
            root = base / name.replace("-", "_")
            root.mkdir(parents=True, exist_ok=True)
            # a scenario stands for a fresh daemon process: its L1 (the
            # run memo) starts empty like its store, so every ack it
            # serves was made durable in that store.
            clear_cache()
            if name == "worker-crash":
                results.append(asyncio.run(
                    _scn_worker_crash(root, seed, requests)
                ))
            elif name == "executor-break":
                results.append(asyncio.run(_scn_executor_break(root, seed)))
            elif name == "daemon-kill":
                results.append(_scn_daemon_kill(root, seed))
            elif name == "net-chaos":
                results.append(asyncio.run(_scn_net_chaos(root, seed)))
            elif name == "disk-full":
                results.append(asyncio.run(
                    _scn_disk_full(root, seed, requests)
                ))
    finally:
        if owned:
            shutil.rmtree(base, ignore_errors=True)
    return ChaosServeResult(scenarios=results)


def format_result(res: ChaosServeResult) -> str:
    lines = [
        "E12 — chaos-serve campaign: crash safety under process/disk/"
        "network faults",
        f"{'scenario':15s} {'req':>4s} {'ok':>4s} {'err':>4s} "
        f"{'inj':>4s} {'lost':>5s} {'dup':>4s} {'rec_s':>6s} verdict",
    ]
    for s in res.scenarios:
        if s.skipped:
            lines.append(f"{s.name:15s} {'-':>4s} {'-':>4s} {'-':>4s} "
                         f"{'-':>4s} {'-':>5s} {'-':>4s} {'-':>6s} "
                         f"skipped ({s.skipped})")
            continue
        verdict = "PASS" if s.passed else "FAIL"
        lines.append(
            f"{s.name:15s} {s.requests:4d} {s.ok:4d} "
            f"{sum(s.errors.values()):4d} {sum(s.injected.values()):4d} "
            f"{s.lost_acks:5d} {s.duplicate_computes:4d} "
            f"{s.recovery_s:6.2f} {verdict}"
            + (f"  [{s.notes}]" if s.notes else "")
        )
        for v in s.violations:
            lines.append(f"    VIOLATION: {v}")
        if s.errors:
            err = ", ".join(f"{k}={v}" for k, v in sorted(s.errors.items()))
            lines.append(f"    errors: {err}")
    lines.append("")
    lines.append(
        "invariants: no lost acks, no duplicate computes after resume, "
        "bounded recovery, structured failures only"
    )
    lines.append(
        f"result: {'ALL INVARIANTS HOLD' if res.ok else 'VIOLATIONS FOUND'}"
        f" ({len(res.violations)} violation(s))"
    )
    return "\n".join(lines)
