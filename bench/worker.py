"""One repetition of a benchmark workload, in a fresh process.

    python bench/worker.py suite --trip 64 --out R.json [--trace] [--kernels a,b]
    python bench/worker.py suite --out R.json --setup-only
    python bench/worker.py grid --trip 512 --seed S --out R.json [--trace]
    python bench/worker.py daemon --out T.json -- serve --port 0 ...
    python bench/worker.py probe --out S.json

``suite`` runs experiments E2-E10 and ``grid`` runs the Table-I x
{2, 4} grid through ``run_table1_grid``; both write the interval of the
timed phase and of every cell, the digest of their outputs and, with
``--trace``, the layer spans to the ``--out`` file.  ``--setup-only``
stops where the timed phase would start.  ``daemon`` runs ``repro``
(the serve daemon) and, with ``--trace``, writes the spans when it
exits.  ``probe`` samples the host's speed beside the measured process
until it gets SIGTERM (see ``SpeedProbe``).  ``bench/run.py`` starts
the others with ``PYTHONPATH`` and ``REPRO_CACHE_DIR`` set and reads
their peak RSS with ``os.wait4``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from trace import Tracer, preload, replace_everywhere  # noqa: E402

#: the experiments the suite workloads run.  E1 is static, E11 and E13
#: bypass the store, and E12 forks worker pools and sleeps on deadlines.
SUITE = ("E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cell_failed(correct: bool, deadlocked: bool, resolved_by: str | None) -> bool:
    """A cell is failed when it served no bit-exact output: its parallel
    run was not verified against the interpreter, it did not deadlock (a
    deadlock is an output), and no rung of the guard's ladder served a
    verified or sequential result instead (``resolved_by`` is set only
    on adaptive cells, by the rung that served)."""
    return not correct and not deadlocked and resolved_by is None


def sim_summary(cells) -> tuple[float, float]:
    """``(geomean speedup, mean |4-core speedup - paper|)`` over
    ``(kernel, cores, speedup)`` cells; deadlocked (0x) cells are left
    out of the geomean."""
    from repro.experiments.fig12_speedup import PAPER_SPEEDUP_4

    cells = list(cells)
    logs = [math.log(s) for _, _, s in cells if s > 0]
    errs = [abs(s - PAPER_SPEEDUP_4[k]) for k, c, s in cells if c == 4]
    return (math.exp(sum(logs) / len(logs)) if logs else 0.0,
            sum(errs) / len(errs) if errs else 0.0)


class CellProbe:
    """Records the interval of every ``run_kernel`` call and counts wrong
    answers."""

    def __init__(self) -> None:
        self.ops: list[tuple[float, float]] = []
        self.failed = 0

    def install(self) -> None:
        from repro.experiments import common

        original = common.run_kernel

        def probed(*args, **kwargs):
            t = time.monotonic()
            run = original(*args, **kwargs)
            self.ops.append((t, time.monotonic()))
            self.failed += cell_failed(run.correct, run.deadlocked, run.resolved_by)
            return run

        self.uninstall = replace_everywhere(original, probed)


class SpeedProbe:
    """Samples how fast the host runs the measured processes: every
    ``PERIOD`` seconds, the thread CPU time of a fixed piece of
    pure-Python work, on a CPU where one of them is running.

    The probe is a process of its own, so nothing the program under test
    does to its own interpreter (a profiling hook, a slower build) slows
    the probe and is divided out, and no timer interrupts the program.
    It follows the measured processes from CPU to CPU because the speed
    of a shared host drifts per CPU: over a minute on a shared 2-vCPU
    VM, a probe on the CPU a busy process ran on tracked that process's
    speed to within 4%, and a probe on the other CPU only to within 20%.
    The measured processes are the parent's other children: the
    workload processes and the serve daemon.  (The serve clients are
    threads of the parent, ``bench/run.py``, and use about 1% of the
    daemon's CPU time.)  ``bench/run.py`` multiplies each time by the
    mean relative speed the samples give over the same interval, which
    takes out the drift (tens of percent over minutes)."""

    PERIOD = 0.01

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []   # (when, seconds)
        self.stopped = False
        self.parent, self.me = os.getppid(), os.getpid()
        self.turn = 0

    def _running_cpus(self) -> list[int]:
        """The CPUs on which a thread of a measured process is running
        or waiting to run, from ``/proc``."""
        try:
            children = Path(f"/proc/{self.parent}/task/{self.parent}/children").read_text()
        except OSError:
            return []
        cpus = set()
        for pid in map(int, children.split()):
            if pid == self.me:
                continue
            try:
                threads = os.listdir(f"/proc/{pid}/task")
            except OSError:
                continue  # the process has ended
            for tid in threads:
                try:
                    stat = Path(f"/proc/{pid}/task/{tid}/stat").read_text()
                except OSError:
                    continue  # the thread has ended
                # fields after "(comm)": state is field 3, processor 39
                fields = stat.rpartition(")")[2].split()
                if len(fields) > 36 and fields[0] == "R":
                    cpus.add(int(fields[36]))
        return sorted(cpus)

    def _follow(self) -> None:
        """Move to a CPU a measured thread runs on, taking turns when
        they run on several."""
        cpus = self._running_cpus()
        if cpus:
            self.turn += 1
            with contextlib.suppress(OSError):
                os.sched_setaffinity(0, {cpus[self.turn % len(cpus)]})

    @staticmethod
    def _work() -> float:
        acc: dict = {}
        s = 0.0
        for i in range(400):
            k = i % 17
            acc[k] = acc.get(k, 0.0) + math.sqrt(i + 1.0)
            s += len(str(i))
        return s

    def _stop(self, _signum, _frame) -> None:
        self.stopped = True

    def run(self) -> None:
        """Sample until SIGTERM."""
        signal.signal(signal.SIGTERM, self._stop)
        while not self.stopped:
            self._follow()
            # CPU time, not wall time: a sample the scheduler interrupts
            # does not read as a slow host.
            t, cpu = time.monotonic(), time.thread_time()
            self._work()
            dt = time.thread_time() - cpu
            if dt > 0:  # a VM's thread clock has been seen to read 0
                self.samples.append((t, dt))
            time.sleep(self.PERIOD)


def restrict_kernels(names: list[str]) -> None:
    """Shrink the Table-I kernel list to ``names`` (the quick size)."""
    from repro.kernels import base

    original = base.table1_kernels
    replace_everywhere(
        original, lambda: [s for s in original() if s.name in names])


def _suite(trip: int) -> dict:
    """Run the suite; returns the digest of each experiment's output."""
    from repro.experiments import REGISTRY

    parts = {}
    for eid in SUITE:
        mod = REGISTRY[eid][0]
        res = mod.run(trip=trip)
        if eid == "E9":
            # compile_speedup is a wall-clock ratio; the rest is exact
            text = json.dumps({"rows": res.rows, "avg_single": res.avg_single,
                               "avg_multi": res.avg_multi}, sort_keys=True)
        else:
            text = mod.format_result(res)
        parts[eid] = sha256(text)
    return parts


def _grid(trip: int, seed: int) -> list:
    """Table I x {2, 4}: memo hits after a suite, the work itself for
    the grid workload."""
    from repro.experiments.common import ExpConfig, run_table1_grid

    cfgs = [ExpConfig(n_cores=c, trip=trip, seed=seed) for c in (2, 4)]
    grid = run_table1_grid(cfgs)
    return [(r.kernel, cfg.n_cores, cfg.seed, r.seq_cycles, r.par_cycles,
             r.correct, r.failure, r.speedup)
            for cfg in cfgs for r in grid[cfg]]


def _rep(args) -> dict:
    import repro.experiments  # noqa: F401  (the timed phase starts warm)

    preload()
    if args.kernels:
        restrict_kernels(args.kernels.split(","))
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    probe = CellProbe()
    probe.install()
    parts: dict = {}
    t_start = time.monotonic()
    if args.setup_only:
        return {"t_start": t_start, "t_end": t_start, "ops": []}
    if args.what == "suite":
        parts = _suite(args.trip)
    else:
        cells = _grid(args.trip, args.seed)
    t_end = time.monotonic()
    probe.uninstall()
    if tracer is not None:
        tracer.uninstall()
    if args.what == "suite":
        cells = _grid(args.trip, 0)  # read back from the memo, untimed
    gmean, err = sim_summary((k, c, s) for k, c, _, _, _, _, _, s in cells)
    outputs = sorted(parts.items()) if parts else sorted(c[:7] for c in cells)
    return {
        "t_start": t_start,
        "t_end": t_end,
        "ops": probe.ops,
        "attempted": len(probe.ops),
        "failed": probe.failed,
        "parts": parts,
        "digest": sha256(json.dumps(outputs)),
        "gmean": gmean,
        "paper_err": err,
        "trace": tracer.dump() if tracer is not None else None,
    }


def _daemon(args, repro_argv: list[str]) -> int:
    """Run ``repro`` (the serve daemon); on exit write, with
    ``--trace``, the spans."""
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    from repro.cli import main

    try:
        return main(repro_argv)
    finally:
        if tracer is not None:
            tracer.uninstall()
        Path(args.out).write_text(json.dumps({
            "trace": tracer.dump() if tracer is not None else None}))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    cut = argv.index("--") if "--" in argv else len(argv)
    argv, repro_argv = argv[:cut], argv[cut + 1:]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("what", choices=("suite", "grid", "daemon", "probe"))
    ap.add_argument("--out", required=True)
    ap.add_argument("--trip", type=int, default=64)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--kernels", default="")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if args.what == "probe":
        speed = SpeedProbe()
        speed.run()
        Path(args.out).write_text(json.dumps(speed.samples))
        return 0
    if args.what == "daemon":
        return _daemon(args, repro_argv)
    Path(args.out).write_text(json.dumps(_rep(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
