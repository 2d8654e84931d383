"""Machine-speed probe, served from a process of its own.

    python3 perfbench/speedprobe.py

Reads one line per request on stdin and answers each with the median
CPU seconds of PROBE_RUNS calls of calibrate().  run.py starts it once
per run and asks between jobs, so the probe shares the machine with the
benchmark but nothing of the benchmarked process: not its heap, its
threads, its import state or any hook the package installs.  It exits
when stdin closes.
"""

import gc
import statistics
import sys
from time import thread_time

PROBE_RUNS = 3


def calibrate():
    """CPU seconds for a fixed loop of dict, tuple, int and complex operations.

    The exact layers spend their time on dicts keyed by exponent tuples,
    the numeric ones on complex floats.
    """
    t0 = thread_time()
    acc = {}
    for a in range(60):
        for b in range(60):
            k = (a + b, a - b)
            acc[k] = acc.get(k, 0) + a * b
    z, c = 0j, complex(-0.4, 0.6)
    for _ in range(1500):
        z = z * z + c
        z = z / (1.0 + abs(z))
    return thread_time() - t0


def main():
    gc.disable()
    for _ in range(5):
        calibrate()
    for _ in sys.stdin:
        probe = statistics.median(calibrate() for _ in range(PROBE_RUNS))
        sys.stdout.write(f"{probe!r}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
