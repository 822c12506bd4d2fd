#!/usr/bin/env python3
"""Print the set-up time of one workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Times ``import chiral_qfim`` (with numpy) through building the workload's
inputs and preparing its input states, up to where the first timed
operation would start.  Prints that time and the slowdown of this
interpreter against the reference machine speed, from a pure-Python loop
timed before and after (numpy is part of what is timed, so the loop uses
none).  perfbench/run.py takes the median of several probes as ``setup_s``.
"""

import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNEL_RUNS = 5
# loop time on a 2-vCPU 2.1 GHz Xeon virtual machine in a quiet period
REFERENCE_S = 0.00096


def _loop() -> float:
    t0 = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    return time.perf_counter() - t0


def main(argv) -> int:
    workload, seed = argv[0], int(argv[1])
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    loops = [_loop() for _ in range(KERNEL_RUNS)]
    start = time.perf_counter()
    from perfbench import workloads

    workloads.WORKLOADS[workload](seed)
    elapsed = time.perf_counter() - start
    loops += [_loop() for _ in range(KERNEL_RUNS)]
    print(repr(elapsed), repr(statistics.median(loops) / REFERENCE_S))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
