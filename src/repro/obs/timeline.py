"""Timelines of an event log: Perfetto JSON and the Fig-11 ASCII view.

:func:`chrome_trace` converts an observability event log into the
Chrome trace-event JSON format (the ``traceEvents`` array flavour),
viewable at https://ui.perfetto.dev or ``chrome://tracing``.  Track
layout:

* **pid 1 — "simulated cores"**: one thread per core.  Bulk
  fetch/retire spans (``ph: "X"``), stall spans named by reason, and
  instant markers for every enqueue/dequeue/halt.  Timestamps are
  simulated cycles rendered as microseconds (1 cycle = 1 µs).
* **pid 2 — "hardware queues"**: one thread per queue carrying an
  occupancy counter track (``ph: "C"``) reconstructed by sorting that
  queue's transfer events into simulated-time order.
* **pid 3 — "compiler"**: one thread per pipeline pass with its
  wall-clock spans (rebased so the first host event starts at 0).
* **pid 4 — "harness"**: guard decisions and sweep-task lifecycle.

For a terminal, :func:`ascii_timeline` draws the paper's Fig 11 from
the same events (one row per queue, enqueues and dequeues placed by
simulated time) and :func:`comm_summary` totals each core's transfers
and transfer stalls.  Both read the enq/deq/halt subset of whatever log
they are given; subscribe an :class:`~repro.obs.events.EventLog` to the
run's ``obs=`` bus to get one.
"""

from __future__ import annotations

import json

from .events import SIM_KINDS, Event

PID_CORES = 1
PID_QUEUES = 2
PID_COMPILER = 3
PID_HARNESS = 4

_PROCESS_NAMES = {
    PID_CORES: "simulated cores",
    PID_QUEUES: "hardware queues",
    PID_COMPILER: "compiler",
    PID_HARNESS: "harness",
}


def _meta(pid: int, tid: int, key: str, name: str) -> dict:
    return {
        "ph": "M", "ts": 0, "pid": pid, "tid": tid,
        "name": key, "args": {"name": name},
    }


def _queue_key(queue) -> tuple:
    return (
        getattr(queue, "src", 0),
        getattr(queue, "dst", 0),
        getattr(getattr(queue, "vclass", None), "value", str(queue)),
    )


def chrome_trace(events, *, sort: bool = True) -> dict:
    """Build the Chrome trace-event document for ``events`` (an
    iterable of :class:`~repro.obs.events.Event`)."""
    events = list(events)
    out: list[dict] = []

    cores = sorted({e.core for e in events if e.core is not None})
    queues = sorted(
        {e.queue for e in events
         if e.queue is not None and e.kind in ("enq", "deq")},
        key=_queue_key,
    )
    passes: list[str] = []
    for e in events:
        if e.kind == "pass" and e.name not in passes:
            passes.append(e.name)

    # wall-clock events are rebased so the earliest starts at ts=0.
    wall_ts = [e.ts for e in events if e.kind not in SIM_KINDS]
    wall_base = min(wall_ts) if wall_ts else 0.0

    for pid, name in _PROCESS_NAMES.items():
        out.append(_meta(pid, 0, "process_name", name))
    for cid in cores:
        out.append(_meta(PID_CORES, cid, "thread_name", f"core {cid}"))
    for i, q in enumerate(queues):
        out.append(_meta(PID_QUEUES, i, "thread_name", f"{q!r}"))
    for i, p in enumerate(passes):
        out.append(_meta(PID_COMPILER, i, "thread_name", f"pass {p}"))
    out.append(_meta(PID_HARNESS, 0, "thread_name", "guard"))
    out.append(_meta(PID_HARNESS, 1, "thread_name", "tasks"))

    qindex = {q: i for i, q in enumerate(queues)}
    pindex = {p: i for i, p in enumerate(passes)}
    occupancy: dict[object, list[tuple[float, int]]] = {q: [] for q in queues}

    for e in events:
        if e.kind == "retire":
            out.append({
                "ph": "X", "ts": e.ts, "dur": e.dur,
                "pid": PID_CORES, "tid": e.core, "name": "run",
                "args": {"instrs": e.value},
            })
        elif e.kind == "stall":
            out.append({
                "ph": "X", "ts": e.ts, "dur": e.dur,
                "pid": PID_CORES, "tid": e.core, "name": f"stall:{e.name}",
                "args": {"queue": repr(e.queue), "cycles": e.dur},
            })
        elif e.kind in ("enq", "deq"):
            out.append({
                "ph": "i", "s": "t", "ts": e.ts,
                "pid": PID_CORES, "tid": e.core,
                "name": f"{e.kind} {e.queue!r}",
                "args": {"value": repr(e.value), "stall": e.stall},
            })
            if e.queue in occupancy:
                occupancy[e.queue].append((e.ts, 1 if e.kind == "enq" else -1))
        elif e.kind == "halt":
            out.append({
                "ph": "i", "s": "t", "ts": e.ts,
                "pid": PID_CORES, "tid": e.core, "name": "halt", "args": {},
            })
        elif e.kind == "pass":
            out.append({
                "ph": "X", "ts": (e.ts - wall_base) * 1e6,
                "dur": e.dur * 1e6,
                "pid": PID_COMPILER, "tid": pindex[e.name], "name": e.name,
                "args": {"seconds": e.dur},
            })
        elif e.kind == "guard":
            out.append({
                "ph": "i", "s": "p", "ts": (e.ts - wall_base) * 1e6,
                "pid": PID_HARNESS, "tid": 0, "name": f"guard:{e.name}",
                "args": {"detail": repr(e.value)},
            })
        elif e.kind == "task":
            out.append({
                "ph": "X", "ts": (e.ts - wall_base) * 1e6,
                "dur": e.dur * 1e6,
                "pid": PID_HARNESS, "tid": 1,
                "name": f"{e.name} [{e.value}]",
                "args": {"status": str(e.value)},
            })

    for q, trans in occupancy.items():
        trans.sort(key=lambda t: t[0])
        occ = 0
        for ts, delta in trans:
            occ += delta
            out.append({
                "ph": "C", "ts": ts, "pid": PID_QUEUES, "tid": qindex[q],
                "name": "occupancy", "args": {"outstanding": occ},
            })

    if sort:
        out.sort(key=lambda d: (d["pid"], d["tid"], d["ts"]))
    return {"traceEvents": out, "displayTimeUnit": "ns"}


def _comm_events(events) -> list[Event]:
    return [e for e in events if e.kind in ("enq", "deq", "halt")]


def ascii_timeline(events, width: int = 72) -> str:
    """ASCII timeline: one row per queue, '>' enqueues, '<' dequeues
    placed proportionally to simulated time."""
    comm = _comm_events(events)
    if not comm:
        return "(no events)"
    end = max(max(e.ts for e in comm), 1.0)
    rows: dict[object, list[str]] = {}
    for e in sorted((e for e in comm if e.queue is not None),
                    key=lambda e: _queue_key(e.queue)):
        row = rows.setdefault(e.queue, ["."] * width)
        pos = min(width - 1, int(e.ts / end * (width - 1)))
        mark = ">" if e.kind == "enq" else "<"
        row[pos] = mark if row[pos] == "." else "*"
    lines = [f"timeline 0 .. {end:.0f} cycles"]
    for q, row in rows.items():
        label = f"{q.src}->{q.dst}.{q.vclass.value:3s}"
        lines.append(f"  {label:12s} |{''.join(row)}|")
    lines.append("  ('>' enqueue, '<' dequeue, '*' both)")
    return "\n".join(lines)


def comm_summary(events, dropped: int = 0) -> str:
    """Per-core enqueue/dequeue counts and the cycles those transfers
    stalled; ``dropped`` (an :class:`~repro.obs.events.EventLog`'s) is
    reported, never hidden."""
    per_core: dict[int, list] = {}
    for e in _comm_events(events):
        n = per_core.setdefault(e.core, [0, 0, 0.0])
        if e.kind == "enq":
            n[0] += 1
        elif e.kind == "deq":
            n[1] += 1
        n[2] += e.stall
    lines = ["trace summary:"]
    for c in sorted(per_core):
        n_enq, n_deq, stall = per_core[c]
        lines.append(
            f"  core {c}: {n_enq} enq, {n_deq} deq, {stall:.0f} stall cycles"
        )
    if dropped:
        lines.append(
            f"  WARNING: {dropped} event(s) dropped past the event log's cap"
        )
    return "\n".join(lines)


def validate_chrome_trace(doc) -> list[str]:
    """Structural validation of a trace document; returns a list of
    problems (empty = loads in Perfetto)."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    evs = doc.get("traceEvents")
    if not isinstance(evs, list):
        return ["traceEvents is missing or not a list"]
    if not evs:
        problems.append("traceEvents is empty")
    for i, e in enumerate(evs):
        if not isinstance(e, dict):
            problems.append(f"event {i} is not an object")
            continue
        for key in ("ph", "ts", "pid", "tid"):
            if key not in e:
                problems.append(f"event {i} missing {key!r}")
        ph = e.get("ph")
        if ph in ("X", "C", "i", "M") and "name" not in e:
            problems.append(f"event {i} ({ph}) missing 'name'")
        if ph == "X" and "dur" not in e:
            problems.append(f"event {i} (X) missing 'dur'")
    return problems


def write_chrome_trace(path, events_or_doc) -> dict:
    """Write a trace to ``path``; accepts a raw event iterable or a
    pre-built document.  Returns the document written."""
    if isinstance(events_or_doc, dict):
        doc = events_or_doc
    else:
        doc = chrome_trace(events_or_doc)
    problems = validate_chrome_trace(doc)
    if problems:
        raise ValueError(
            "refusing to write a malformed trace: " + "; ".join(problems[:5])
        )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return doc
