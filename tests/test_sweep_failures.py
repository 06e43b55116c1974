"""Pool-failure paths of the sweep engine (ISSUE-2 satellite).

A fake executor lets the tests script exact failure sequences —
timeouts, transient crashes, deterministic errors — without paying for
real worker processes, and asserts the retry / quarantine /
serial-fallback discipline cell by cell."""

import concurrent.futures
import logging
import os
import random
import signal
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest

import repro.pool as pool
import repro.store.sweep as sweep
from repro.experiments.common import ExpConfig, clear_cache
from repro.kernels import get_kernel
from repro.sim import DeadlockError, MemoryFault, SimError
from repro.store import ResultStore, run_grid
from repro.store.sweep import BACKOFF_CAP, _backoff_delay, _is_retryable

from .test_serve import alive, children

TRIP = 12


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_cache()
    yield
    clear_cache()


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


@pytest.fixture
def no_sleep(monkeypatch):
    """Replace the backoff sleep with a recorder."""
    delays: list[float] = []
    monkeypatch.setattr(sweep.time, "sleep", delays.append)
    return delays


class _FakeFuture:
    def __init__(self, fn):
        self._fn = fn

    def result(self, timeout=None):
        return self._fn()


class _FakeExecutor:
    """Quacks like the worker pool's executor but runs a scripted
    behaviour in-process; ``compute`` runs the real worker entry."""

    def __init__(self, script):
        self._script = script

    def submit(self, fn, kernel, config, *args):
        compute = partial(fn, kernel, config, *args)
        return _FakeFuture(lambda: self._script(kernel, config, compute))

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def _install_fake_pool(monkeypatch, script):
    monkeypatch.setattr(pool, "make_executor",
                        lambda *a, **k: _FakeExecutor(script))


def _grid(store, **kw):
    specs = [get_kernel("umt2k-1"), get_kernel("lammps-1")]
    cfg = ExpConfig(n_cores=2, trip=TRIP)
    grid = run_grid(specs, [cfg], workers=2, store=store, **kw)
    assert len(grid) == 2
    assert all(r.correct and not r.fallback for r in grid.values())
    return grid


class TestClassification:
    def test_sim_failures_are_permanent(self):
        assert not _is_retryable(DeadlockError("dead"))
        assert not _is_retryable(SimError("bad dispatch"))
        assert not _is_retryable(MemoryFault("oob"))

    def test_config_errors_are_permanent(self):
        assert not _is_retryable(ValueError("bad config"))
        assert not _is_retryable(AssertionError("invariant"))

    def test_infrastructure_errors_are_transient(self):
        assert _is_retryable(OSError("broken pipe"))
        assert _is_retryable(MemoryError())
        assert _is_retryable(RuntimeError("pool hiccup"))


class TestBackoff:
    def test_exponential_with_cap_and_jitter(self):
        rng = random.Random(0)
        for attempt in range(12):
            full = min(BACKOFF_CAP, sweep.BACKOFF_BASE * 2 ** attempt)
            d = _backoff_delay(attempt, rng)
            assert 0.5 * full <= d <= full
        assert _backoff_delay(50, rng) <= BACKOFF_CAP


class TestPoolFailures:
    def test_timeouts_fall_back_to_serial(self, monkeypatch, store, no_sleep):
        calls = []

        def script(kernel, config, compute):
            calls.append(kernel)
            raise concurrent.futures.TimeoutError()

        _install_fake_pool(monkeypatch, script)
        _grid(store, timeout=0.01, retries=1)
        # 2 cells x (1 try + 1 retry) in the pool, then serial rescue
        assert len(calls) == 4
        assert len(no_sleep) == 1 and no_sleep[0] > 0

    def test_permanent_error_quarantined_without_retry(
            self, monkeypatch, store, no_sleep):
        calls = []

        def script(kernel, config, compute):
            calls.append(kernel)
            raise ValueError("deterministically broken")

        _install_fake_pool(monkeypatch, script)
        _grid(store, retries=3)
        # quarantined on first failure: one pool try per cell, no backoff
        assert len(calls) == 2
        assert no_sleep == []

    def test_transient_error_exhausts_retries_then_serial(
            self, monkeypatch, store, no_sleep):
        calls = []

        def script(kernel, config, compute):
            calls.append(kernel)
            raise OSError("flaky infrastructure")

        _install_fake_pool(monkeypatch, script)
        _grid(store, retries=2)
        assert len(calls) == 6  # 2 cells x 3 pool attempts
        assert len(no_sleep) == 2  # backoff between each retry round

    def test_transient_error_recovers_in_pool(self, monkeypatch, store,
                                              no_sleep):
        seen: dict[str, int] = {}

        def script(kernel, config, compute):
            seen[kernel] = seen.get(kernel, 0) + 1
            if seen[kernel] == 1:
                raise OSError("first try lost")
            return compute()

        _install_fake_pool(monkeypatch, script)
        _grid(store, retries=1)
        assert all(n == 2 for n in seen.values())

    def test_pool_broken_while_fed_runs_serially(self, monkeypatch, store,
                                                 no_sleep):
        # a worker died before the second cell was handed out, so its
        # submit raises: the round stops and both cells run serially
        from concurrent.futures.process import BrokenProcessPool

        class BreaksWhileFed(_FakeExecutor):
            fed = 0

            def submit(self, fn, *args):
                self.fed += 1
                if self.fed > 1:
                    raise BrokenProcessPool("a worker died")
                return super().submit(fn, *args)

        monkeypatch.setattr(pool, "make_executor",
                            lambda *a, **k: BreaksWhileFed(None))
        _grid(store, retries=1)
        assert no_sleep == []

    def test_mixed_failures_one_round(self, monkeypatch, store, no_sleep):
        # umt2k-1 times out (transient), lammps-1 hits a ValueError
        # (permanent): only the timeout earns a second pool round
        calls = []

        def script(kernel, config, compute):
            calls.append(kernel)
            if kernel == "lammps-1":
                raise ValueError("bad cell")
            raise concurrent.futures.TimeoutError()

        _install_fake_pool(monkeypatch, script)
        _grid(store, timeout=0.01, retries=1)
        assert calls.count("lammps-1") == 1
        assert calls.count("umt2k-1") == 2


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_timed_out_round_kills_its_worker(monkeypatch, store, tmp_path):
    """A cell that overruns its timeout is retried on a fresh pool, and
    the worker still running it is killed, not left to finish."""
    import repro.experiments.common as common

    run = common.run_kernel

    def slow_once(spec, config, **kwargs):
        mark = tmp_path / spec.name
        if spec.name == "umt2k-1" and not mark.exists():
            mark.write_text(str(os.getpid()))
            time.sleep(30)
        return run(spec, config, **kwargs)

    # the pool forks on its first submit, so its workers run this
    monkeypatch.setattr(common, "run_kernel", slow_once)
    _grid(store, timeout=1.0, retries=1)
    assert not alive(int((tmp_path / "umt2k-1").read_text()))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="forks a pool")
def test_dead_worker_breaks_its_round(monkeypatch, store, tmp_path, caplog):
    """A worker that dies mid-cell breaks the pool, which stops its
    other workers: the cell running beside it fails with
    ``BrokenProcessPool`` too, in every round, and both cells end in
    the serial fallback.  Nothing hangs, though no timeout is set."""
    import repro.experiments.common as common

    run = common.run_kernel
    parent = os.getpid()
    serial = []
    running = tmp_path / "lammps-1 running"

    def dies_in_worker(spec, config, **kwargs):
        if os.getpid() == parent:
            serial.append(spec.name)
        elif spec.name == "umt2k-1":
            # die only once the other cell runs, so both were handed out
            for _ in range(3000):
                if running.exists():
                    running.unlink()
                    break
                time.sleep(0.01)
            os._exit(3)
        else:
            running.touch()
            time.sleep(30)  # still running when the pool breaks
        return run(spec, config, **kwargs)

    # the pool forks on its first submit, so its workers run this
    monkeypatch.setattr(common, "run_kernel", dies_in_worker)
    with caplog.at_level(logging.WARNING, logger=sweep.__name__):
        _grid(store, retries=1)
    assert sorted(serial) == ["lammps-1", "umt2k-1"]
    broken = [r.getMessage() for r in caplog.records
              if "BrokenProcessPool" in r.getMessage()]
    assert [sum(k in m for m in broken) for k in ("umt2k-1", "lammps-1")] == [2, 2]


#: a sweep whose every cell sleeps 30 s in its worker, after leaving
#: the worker's pid in the directory named by argv[2]
_SLEEPY_SWEEP = """
import os, sys, time
import repro.experiments.common as common
from repro.experiments.common import ExpConfig
from repro.kernels import get_kernel
from repro.store import ResultStore, run_grid

def sleepy(*args, **kwargs):
    open(os.path.join(sys.argv[2], str(os.getpid())), "w").close()
    time.sleep(30)

common.run_kernel = sleepy
run_grid([get_kernel("umt2k-1"), get_kernel("lammps-1")],
         [ExpConfig(n_cores=2, trip=12)], workers=2,
         store=ResultStore(sys.argv[1]))
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="reads /proc and relies on prctl(PR_SET_PDEATHSIG)",
)
def test_killed_sweep_takes_its_workers(tmp_path):
    """A SIGKILLed sweep leaves no pool worker behind, not even one in
    the middle of a cell."""
    import repro

    busy = tmp_path / "busy"
    busy.mkdir()
    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-c", _SLEEPY_SWEEP, str(tmp_path / "store"),
         str(busy)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
    )
    try:
        deadline = time.monotonic() + 60.0
        while (len(list(busy.iterdir())) < 2 and proc.poll() is None
               and time.monotonic() < deadline):
            time.sleep(0.05)
        pids = sorted(int(p.name) for p in busy.iterdir())
        assert len(pids) == 2 and set(pids) <= set(children(proc.pid)), pids
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    deadline = time.monotonic() + 2.0
    while [pid for pid in pids if alive(pid)] and time.monotonic() < deadline:
        time.sleep(0.05)
    left = [pid for pid in pids if alive(pid)]
    for pid in left:  # do not leak them into the rest of the suite
        os.kill(pid, signal.SIGKILL)
    assert not left, f"pool workers {left} outlived the sweep"
