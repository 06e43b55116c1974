"""Seeded differential fuzzing campaign (``repro fuzz``).

Each trial draws one loop from the shared grammar (:mod:`.gen`) and
probes it through every cell of a configuration matrix (cores × queue
depth × speculation).  A probe runs three oracles side by side:

* the **static checker** (:mod:`repro.check`) over the lowered kernel,
* the **simulator** at the cell's machine parameters,
* the **reference interpreter** as ground truth,

and reduces the comparison to a *signature* string: ``"ok"`` when all
agree the kernel is fine, else e.g. ``"both:count-mismatch:deadlock"``
(checker and sim both reject), ``"dynamic-only:verify-mismatch"``
(miscompile the checker missed) or ``"static-only:fifo-mismatch"``
(checker rejected what ran fine — a checker bug).  Anything other than
``"ok"`` is a finding: it is delta-debug shrunk to a minimal loop with
the same signature and saved as a replayable JSON artifact.

``--inject`` arms a deterministic protocol-bug mutation
(:mod:`repro.check.mutate`) after compilation, turning the campaign
into an end-to-end audit that checker, simulator and shrinker agree on
*known* miscompiles.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..compiler.config import CompilerConfig
from ..check import check_kernel, mutate_kernel
from ..interp import run_loop
from ..ir.codec import decode_loop, encode_loop
from ..ir.stmts import Loop
from ..sim import MachineFailure, MachineParams, MemoryFault, SimError
from ..verify import verify_result
from ..workload import random_workload
from .artifact import save_artifact
from .gen import RandomDraw, build_loop, mutate_loop
from .shrink import loop_size, shrink_loop

__all__ = [
    "FuzzCell",
    "DEFAULT_MATRIX",
    "Finding",
    "FuzzResult",
    "probe_loop",
    "run_campaign",
    "replay_artifact",
]


@dataclass(frozen=True)
class FuzzCell:
    """One configuration cell of the campaign matrix."""

    n_cores: int
    queue_depth: int
    speculation: bool

    def label(self) -> str:
        return (
            f"c{self.n_cores}d{self.queue_depth}"
            f"{'s' if self.speculation else ''}"
        )


#: default matrix: baseline, wide, shallow queues, speculation
DEFAULT_MATRIX: tuple[FuzzCell, ...] = (
    FuzzCell(2, 20, False),
    FuzzCell(4, 20, False),
    FuzzCell(4, 4, False),
    FuzzCell(4, 20, True),
)

#: per-probe instruction budget — generated loops are tiny, so a
#: runaway is a finding, not a workload.
PROBE_MAX_INSTRS = 2_000_000


@dataclass
class Finding:
    """One non-``ok`` probe outcome, after shrinking."""

    trial: int
    seed: int
    cell: FuzzCell
    signature: str
    loop: Loop
    original_size: int
    shrunk_size: int
    shrink_probes: int
    artifact: Path | None = None

    def describe(self) -> str:
        saved = f" -> {self.artifact}" if self.artifact else ""
        return (
            f"trial {self.trial} [{self.cell.label()}] {self.signature}: "
            f"{self.original_size} -> {self.shrunk_size} stmt(s) "
            f"({self.shrink_probes} probes){saved}"
        )


@dataclass
class FuzzResult:
    seed: int
    trials: int = 0
    probes: int = 0
    findings: list[Finding] = field(default_factory=list)
    elapsed: float = 0.0

    def describe(self) -> str:
        lines = [
            f"fuzz seed={self.seed}: {self.trials} trial(s), "
            f"{self.probes} probe(s), {len(self.findings)} finding(s) "
            f"in {self.elapsed:.1f}s"
        ]
        lines += ["  " + f.describe() for f in self.findings]
        return "\n".join(lines)


def probe_loop(
    loop: Loop,
    cell: FuzzCell,
    *,
    trip: int = 16,
    inject: str | None = None,
    workload_seed: int = 1,
) -> str:
    """Differential probe of one loop in one cell; returns a signature.

    This is the one compile → simulate → verify path that stays outside
    :func:`repro.runtime.guard.guarded_run`, on purpose: the probe must
    simulate an artifact the checker *rejected*, because that is how it
    tells a checker false positive (``static-only``) from a miscompile
    the model missed (``dynamic-only``).  The guard never runs a
    rejected artifact, and the probe names its findings by the raw
    exception, not by a served fallback.
    """
    from ..runtime.exec import compile_loop, execute_kernel
    from ..runtime.guard import classify_failure

    # Canonicalize through the loop codec first: node identity is
    # computation identity in this IR, and generated loops share leaf
    # nodes (a DAG), which the JSON tree encoding cannot represent.
    # Probing the canonical tree form everywhere — campaign, shrinker
    # and replay alike — makes every saved signature replay-exact.
    loop = decode_loop(encode_loop(loop))
    workload = random_workload(loop, trip=trip, seed=workload_seed)
    ref = run_loop(loop, workload)
    try:
        kernel = compile_loop(
            loop, cell.n_cores,
            CompilerConfig(speculation=cell.speculation),
            check=False,
        )
    except Exception as exc:
        return f"compile-error:{type(exc).__name__}"
    if inject is not None:
        kernel = mutate_kernel(kernel, inject)
        if kernel is None:
            return "ok"  # no applicable mutation site: nothing to test

    report = check_kernel(kernel, queue_depth=cell.queue_depth)

    params = MachineParams(
        queue_depth=cell.queue_depth,
        max_instrs=PROBE_MAX_INSTRS,
    )
    sim_exc: BaseException | None = None
    result = None
    try:
        result = execute_kernel(kernel, workload, params)
    except (MachineFailure, SimError, MemoryFault) as exc:
        sim_exc = exc

    if sim_exc is not None:
        dynamic = classify_failure(sim_exc).value
    elif not verify_result(ref, result):
        dynamic = "verify-mismatch"
    else:
        dynamic = None

    if report.ok and dynamic is None:
        return "ok"
    if not report.ok and dynamic is not None:
        return f"both:{report.categories[0]}:{dynamic}"
    if not report.ok:
        # checker rejected, simulation + verification were clean:
        # checker/sim disagreement (a checker false positive)
        return f"static-only:{report.categories[0]}"
    # checker said safe, dynamics failed: a miscompile the model missed
    return f"dynamic-only:{dynamic}"


def _probe_finite(loop: Loop, trip: int) -> bool:
    """True when the reference interpreter stays finite on the probe
    workload.  NaN never compares equal, so a loop that legitimately
    computes NaN/inf would read as a verify mismatch — a false finding
    — and must be filtered before probing."""
    import math

    import numpy as np

    try:
        ref = run_loop(loop, random_workload(loop, trip=trip, seed=1))
    except Exception:
        return False
    for arr in ref.arrays.values():
        if arr.dtype.kind == "f" and not np.isfinite(arr).all():
            return False
    for v in ref.scalars.values():
        if isinstance(v, float) and not math.isfinite(v):
            return False
    return True


def _corpus_bases(corpus: str) -> list[Loop]:
    """Base loops for a mutation corpus (empty for pure generation)."""
    if corpus == "gen":
        return []
    if corpus == "frontend":
        from ..kernels import frontend_kernels

        specs = frontend_kernels()
        if not specs:
            raise ValueError(
                "fuzz corpus 'frontend' selected but no frontend kernels "
                "are registered (add files under examples/ingest/ or run "
                "`repro ingest`)"
            )
        return [spec.loop() for spec in specs]
    raise ValueError(f"unknown fuzz corpus {corpus!r} (expected gen|frontend)")


def run_campaign(
    seed: int = 0,
    *,
    trials: int | None = None,
    max_seconds: float | None = None,
    trip: int = 16,
    cells: tuple[FuzzCell, ...] = DEFAULT_MATRIX,
    inject: str | None = None,
    out_dir: str | Path | None = None,
    metrics=None,
    shrink: bool = True,
    max_shrink_probes: int = 400,
    corpus: str = "gen",
    log=None,
) -> FuzzResult:
    """Run the campaign until the trial or time budget is exhausted.

    ``metrics`` (a :class:`repro.obs.metrics.MetricsRegistry`) receives
    ``fuzz.trials`` / ``fuzz.probes`` / ``fuzz.findings`` /
    ``fuzz.shrink_probes`` counters.  The trial stream is a pure
    function of ``seed``: trial ``t`` draws from
    ``random.Random(f"{seed}:{t}")``, so any finding replays from its
    ``(seed, trial)`` pair alone.

    ``corpus`` selects where trial programs come from: ``"gen"`` draws
    fresh loops from the shared grammar; ``"frontend"`` picks a
    frontend-ingested kernel and applies small structure-preserving
    mutations (:func:`repro.fuzz.mutate_loop`), so the campaign probes
    real-loop-shaped programs rather than only grammar-shaped ones.
    """
    if trials is None and max_seconds is None:
        trials = 25
    bases = _corpus_bases(corpus)
    start = time.monotonic()
    out = FuzzResult(seed=seed)
    t = 0
    while True:
        if trials is not None and t >= trials:
            break
        if max_seconds is not None and time.monotonic() - start >= max_seconds:
            break
        draw = RandomDraw(random.Random(f"{seed}:{t}"))
        if bases:
            base = draw.sampled_from(bases)
            loop = mutate_loop(draw, base, name=f"fuzz{seed}_{t}")
            if not _probe_finite(loop, trip):
                # a const mutation went non-finite: fall back to the
                # value-preserving swap-only variant of the same base
                loop = mutate_loop(
                    draw, base, name=f"fuzz{seed}_{t}", allow_const=False
                )
        else:
            loop = build_loop(draw, name=f"fuzz{seed}_{t}")
        out.trials += 1
        if metrics is not None:
            metrics.counter("fuzz.trials").inc()
        for cell in cells:
            sig = probe_loop(loop, cell, trip=trip, inject=inject)
            out.probes += 1
            if metrics is not None:
                metrics.counter("fuzz.probes").inc()
            if sig == "ok":
                continue
            if metrics is not None:
                metrics.counter("fuzz.findings").inc()
            shrunk, spent = loop, 0
            if shrink:
                shrunk, spent = shrink_loop(
                    loop,
                    lambda cand: probe_loop(cand, cell, trip=trip,
                                            inject=inject),
                    max_probes=max_shrink_probes,
                )
                if metrics is not None:
                    metrics.counter("fuzz.shrink_probes").inc(spent)
            finding = Finding(
                trial=t, seed=seed, cell=cell, signature=sig,
                loop=shrunk,
                original_size=loop_size(loop),
                shrunk_size=loop_size(shrunk),
                shrink_probes=spent,
            )
            if out_dir is not None:
                finding.artifact = save_artifact(
                    Path(out_dir) / f"repro-{seed}-{t}-{cell.label()}.json",
                    shrunk,
                    signature=sig, seed=seed, trial=t, trip=trip,
                    n_cores=cell.n_cores,
                    queue_depth=cell.queue_depth,
                    speculation=cell.speculation,
                    inject=inject,
                )
            out.findings.append(finding)
            if log is not None:
                log(finding.describe())
        t += 1
    out.elapsed = time.monotonic() - start
    return out


def replay_artifact(path: str | Path, *, trip: int | None = None) -> tuple[str, str]:
    """Re-probe a saved artifact; returns ``(expected, observed)``
    signatures — equal when the repro still reproduces."""
    from .artifact import load_artifact

    payload = load_artifact(path)
    cfg = payload["config"]
    cell = FuzzCell(
        n_cores=cfg["n_cores"],
        queue_depth=cfg["queue_depth"],
        speculation=cfg["speculation"],
    )
    observed = probe_loop(
        payload["loop"], cell,
        trip=trip if trip is not None else payload["trip"],
        inject=cfg.get("inject"),
    )
    return payload["signature"], observed
