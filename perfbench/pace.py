"""Host pace: how fast this process runs right now, from a fixed reference loop.

The benchmark runs on a few cores of a shared host, where other tenants slow
every instruction of this process (CPU time too) by up to about 2x, in spells
from milliseconds to tens of seconds: on a 2-vCPU Intel Xeon virtual machine
the same benchmark round timed twice differed by up to 40%. A short probe of
a fixed pure-Python loop, run just before and just after each timed step,
measures the pace the step ran at; dividing by it gives the step's time at
the reference pace, which is what the end-to-end metrics report.

The loop does what `stratal` does most: Fraction arithmetic, tuple building
and dict stores. It uses nothing from `stratal`, so no change to the program
can change the reference.
"""

import time
from fractions import Fraction

# seconds per pass of `_reference_pass` on an uncontended Intel Xeon core
# (Python 3.11); scaled times are in seconds at this pace
REFERENCE_PASS_S = 250e-6
PROBE_S = 0.05


def _reference_pass():
    total, table = Fraction(0), {}
    for i in range(1, 100):
        total += Fraction(i % 7 + 1, i)
        table[(i, i % 5)] = tuple(range(i % 9))
    return total


def probe(seconds=PROBE_S):
    """Seconds per reference pass, averaged over about `seconds`."""
    passes, start = 0, time.perf_counter()
    while True:
        _reference_pass()
        passes += 1
        now = time.perf_counter()
        if now - start >= seconds:
            return (now - start) / passes


def at_reference(elapsed, before, after):
    """`elapsed` seconds measured between probes `before` and `after`, scaled
    to the reference pace."""
    return elapsed * REFERENCE_PASS_S * 2 / (before + after)
