"""A fixed loop that measures the machine's momentary speed.

On a shared machine the speed of a CPU swings by tens of percent over
seconds to minutes, depending on what runs on its hyperthread sibling.
Timing this fixed pure-Python loop next to a measurement captures that
swing; ``at_reference_speed`` turns a wall time into seconds at a fixed
reference speed.  The loop does not use the program, and it is timed only
while the program is idle (between ops, or while ``run.py`` holds it
frozen), so the program's own load never enters the divisor and a change to
the program moves the scaled time as it moves the raw one.
"""

import math
import time

CALIB_ITERATIONS = 8000
CALIB_REFERENCE_S = 1.5e-3


def calibrate() -> float:
    """CPU seconds the reference loop takes now: the faster of two runs.

    Thread CPU time, not wall time, so that a sample taken while other
    processes keep every CPU busy measures the CPU's speed, not the wait for
    a CPU.
    """
    best = math.inf
    for _ in range(2):
        t0 = time.thread_time()
        z, acc = 0.3 + 0.4j, 0j
        for i in range(CALIB_ITERATIONS):
            acc += z * z / (1.0 + i * z)
        best = min(best, time.thread_time() - t0)
    return best


def at_reference_speed(wall_s: float, calib_s: float) -> float:
    return wall_s * CALIB_REFERENCE_S / calib_s
