"""Layer tracer: wall-clock spans around each layer's public functions.

The tracer is installed from outside the program.  Each target function
is replaced, by object identity, in every loaded ``repro.*`` module
namespace, so ``from x import f`` aliases (``common.run_loop``,
``pipeline.merge_partitions``, the package-level
``repro.compiler.merge_partitions``) record spans too.  Class methods
(``Machine.run``, ``ResultStore.get_*``/``put_*``,
``KernelSpec.loop``/``workload``) are replaced on the class.  Modules are
taken from ``sys.modules`` because some package attributes shadow their
submodule (``repro.ir.normalize`` is the function, not the module).

Spans are ``(id, name, start, end, parent_id, thread)`` tuples kept in
memory; :func:`layer_metrics` turns them into per-layer calls, self time
and share of the traced wall time.  A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time

#: (layer, module, attribute) — ``Class.method`` names a method.  A
#: layer may have several targets; their spans share the layer's name.
TARGETS = (
    ("interp.run_loop", "repro.interp.interpreter", "run_loop"),
    ("kernels.loop", "repro.kernels.base", "KernelSpec.loop"),
    ("kernels.workload", "repro.kernels.base", "KernelSpec.workload"),
    ("compiler.parallelize", "repro.compiler.pipeline", "parallelize"),
    ("compiler.normalize", "repro.ir.normalize", "normalize"),
    ("compiler.codegraph", "repro.compiler.codegraph", "build_code_graph"),
    ("compiler.merge", "repro.compiler.merge", "merge_partitions"),
    ("compiler.refine", "repro.compiler.refine", "refine_partitions"),
    ("compiler.comm", "repro.compiler.comm", "plan_communication"),
    ("compiler.schedule", "repro.compiler.schedule", "schedule_all"),
    ("isa.lower_plan", "repro.isa.lower", "lower_plan"),
    ("check.check_kernel", "repro.check.verifier", "check_kernel"),
    ("sim.run", "repro.sim.machine", "Machine.run"),
    ("verify", "repro.verify", "verify_result"),
    ("experiments.run_kernel", "repro.experiments.common", "run_kernel"),
    ("store.keys", "repro.store.keys", "kernel_run_key"),
    ("store.keys.ir_text", "repro.store.keys", "ir_text"),
    ("store.keys.digest", "repro.store.keys", "stable_digest"),
    ("store.get", "repro.store.disk", "ResultStore.get_run"),
    ("store.get", "repro.store.disk", "ResultStore.get_seq"),
    ("store.get", "repro.store.disk", "ResultStore.get_src"),
    ("store.put", "repro.store.disk", "ResultStore.put_run"),
    ("store.put", "repro.store.disk", "ResultStore.put_seq"),
    ("store.put", "repro.store.disk", "ResultStore.put_src"),
)

#: (layer, ancestor layer, split name): a call a layer makes on another
#: layer's behalf is reported apart — normalization done to digest a
#: store key, and the autotuner's profile simulations inside a compile.
ON_BEHALF = (
    ("compiler.normalize", "store.keys", "compiler.normalize.in_keys"),
    ("sim.run", "compiler.parallelize", "sim.run.in_compile"),
)

#: every span name the tracer can record, in report order.
LAYERS = tuple(dict.fromkeys(
    [layer for layer, _, _ in TARGETS] + [split for _, _, split in ON_BEHALF]
))


def preload() -> None:
    """Import every target module, so traced and untraced runs load the
    same code before their timed phase."""
    for _, module, _ in TARGETS:
        importlib.import_module(module)


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    *cls, name = attr.split(".")
    if cls:
        owner = getattr(owner, cls[0])
        return owner, name, owner.__dict__[name]
    return None, name, getattr(owner, name)


def replace_everywhere(original, replacement):
    """Rebind every ``repro.*`` module attribute that *is* ``original``;
    returns a function that puts ``original`` back."""
    hits = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)
                hits.append((mod, name))

    def undo() -> None:
        for mod, name in hits:
            setattr(mod, name, original)

    return undo


class Tracer:
    """Records one span per call into a traced layer (thread-safe)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters = {"sim.instrs": 0, "sim.cycles": 0.0,
                         "store.hits": 0, "store.misses": 0}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list = []

    def _hook(self, layer: str):
        if layer == "sim.run":
            def on_sim(result) -> None:
                with self._lock:
                    self.counters["sim.instrs"] += result.total_instrs
                    self.counters["sim.cycles"] += result.cycles
            return on_sim
        if layer == "store.get":
            def on_get(result) -> None:
                with self._lock:
                    self.counters["store.misses" if result is None
                                  else "store.hits"] += 1
            return on_get
        return None

    def _wrap(self, layer: str, fn):
        splits = [(anc, split) for lyr, anc, split in ON_BEHALF if lyr == layer]
        hook = self._hook(layer)
        spans, ids, local, clock = self.spans, self._ids, self._local, time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            name = layer
            for anc, split in splits:
                if any(n == anc for _, n in stack):
                    name = split
                    break
            sid = next(ids)
            parent = stack[-1][0] if stack else None
            stack.append((sid, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent,
                              threading.get_ident()))
            if hook is not None:
                hook(result)
            return result

        return traced

    def install(self) -> None:
        preload()
        for layer, module, attr in TARGETS:
            cls, name, original = _resolve(module, attr)
            wrapper = self._wrap(layer, original)
            if cls is not None:
                setattr(cls, name, wrapper)
                self._undo.append(functools.partial(setattr, cls, name, original))
            else:
                self._undo.append(replace_everywhere(original, wrapper))

    def uninstall(self) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    def dump(self) -> dict:
        return {"spans": list(self.spans), "counters": dict(self.counters)}


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(trace: dict, t0: float, t1: float) -> dict[str, float]:
    """Per-layer calls, self time and share of ``[t0, t1]``, plus the
    simulator and store counters and the unattributed share."""
    spans = trace["spans"]
    wall = max(t1 - t0, 1e-9)
    child_time: dict = {}
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    for sid, name, start, end, _, _ in spans:
        calls[name] += 1
        self_s[name] += (end - start) - child_time.get(sid, 0.0)
    out: dict[str, float] = {}
    for name in LAYERS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.share"] = self_s[name] / wall
    counters = trace["counters"]
    sim_s = self_s["sim.run"] + self_s["sim.run.in_compile"]
    out["sim.instrs"] = counters["sim.instrs"]
    out["sim.cycles"] = counters["sim.cycles"]
    out["sim.minstr_per_s"] = counters["sim.instrs"] / sim_s / 1e6 if sim_s else 0.0
    gets = counters["store.hits"] + counters["store.misses"]
    out["store.hit_ratio"] = counters["store.hits"] / gets if gets else 0.0
    roots = [(max(s, t0), min(e, t1)) for _, _, s, e, p, _ in spans
             if p is None and e > t0 and s < t1]
    out["trace.unattributed.share"] = max(0.0, 1.0 - _covered(roots) / wall)
    return out
