"""Host speed, for scaling the benchmark's times.

On a shared host the same pure-Python work runs up to a quarter slower
or faster from one minute to the next, and that drift is wider than any
change a benchmark should catch.  `sample()` times a fixed pure-Python
loop that uses no `stimkb` code; runs take one sample before and after
each set-up and one after each op, outside the timed regions.  `scale()`
turns the median of a phase's samples into the factor that converts a
time measured in that phase into the time it would have taken on a host
where the loop takes `REF_SECONDS`: on a host half as fast the loop takes
twice as long and the factor is 1/2.
"""

import statistics
import time

# The reference host is one on which `_loop` takes this long.  On the
# x86_64 host with 2 vCPUs and Python 3.11 that recorded the baseline, the
# median of a run's samples moved between about 18 and 30 ms.
REF_SECONDS = 0.02
LOOP = 240_000


def _loop():
    s = 0
    for i in range(LOOP):
        s += i * i % 7
    return s


def sample():
    """Wall seconds of one run of the fixed loop."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def scale(samples):
    """Factor from times measured beside `samples` to reference seconds."""
    return REF_SECONDS / statistics.median(samples)
