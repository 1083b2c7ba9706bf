"""Host-speed probe: a fixed piece of standard-library work, timed between operations.

The benchmark runs on a shared host whose speed drifts with other tenants'
load, by 20-40% over minutes, and slows every suite of a workload alike.
So each time in the benchmark's end-to-end metrics is scaled to a host on
which the probe takes ``REFERENCE_S``: ``t * REFERENCE_S / probe_s``, with
``probe_s`` measured next to ``t``.  In five 30-second verify-battery runs on
a two-vCPU host during a noisy spell, the spread of the median operation
time (interquartile range over median) was 0.19 unscaled and 0.08 scaled.
The raw times are kept beside the scaled ones in the results file.

The probe imports nothing from the program, so no change to the program
changes what it measures.  It mixes the work the workloads do: Fraction
arithmetic, tuple-keyed dicts, and conversions of multi-kilodigit integers
to and from decimal text.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# The probe's time on an unloaded host of the kind the benchmark was tuned
# on; it fixes only the scale of the reported times.
REFERENCE_S = 0.015


def _work() -> int:
    total = Fraction(0)
    seen = {}
    for i in range(1, 700):
        term = Fraction(3 ** (i % 60), 2 ** (i % 70) + i)
        total = total * Fraction(1, 3) + term
        seen[(i, i % 7)] = term < total
    text = str(7 ** 3000)
    return len(seen) + int(text) % 97


def probe() -> float:
    """Seconds the probe work takes now, with the garbage collector held off.

    The collector is paused so that objects the program left behind cannot
    slow the probe and make the program look faster.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, probe_s: float) -> float:
    """``seconds`` as it would read on a host where the probe takes REFERENCE_S."""
    return seconds * REFERENCE_S / probe_s
