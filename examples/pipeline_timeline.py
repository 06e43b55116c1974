#!/usr/bin/env python
"""Visualize the fine-grained pipeline: queue traffic over time.

Runs a kernel with an event log on its observability bus and renders a
Fig 11-style ASCII timeline of every hardware queue, plus a per-core
communication summary — showing how the partitions overlap in steady
state.
"""

from repro import compile_loop, execute_kernel
from repro.kernels import get_kernel
from repro.obs import EventBus, EventLog
from repro.obs.timeline import ascii_timeline, comm_summary


def main():
    spec = get_kernel("umt2k-4")
    kern = compile_loop(spec.loop(), 4)
    bus, log = EventBus(), EventLog()
    bus.subscribe(log)
    res = execute_kernel(kern, spec.workload(trip=10), obs=bus)
    print(f"kernel {spec.name}, 4 cores, 10 iterations, "
          f"{res.cycles:.0f} cycles\n")
    print(comm_summary(log.events, dropped=log.dropped))
    print()
    print(ascii_timeline(log.events, width=72))


if __name__ == "__main__":
    main()
