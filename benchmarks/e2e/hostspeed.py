"""How fast the host runs right now, to take its drift out of wall times.

The benchmark was sized on a shared 2-core container whose speed drifts:
for seconds to minutes at a time every instruction takes up to 1.7 times
longer, user and system time alike, so the same op on the same input read
up to 40% slower from one run to the next.  :func:`probe` times a fixed
pure-Python task that uses no ``repro`` code, next to the work being
measured.  :func:`normalized` rescales a wall time to a host on which the
probe takes :data:`REFERENCE_S`: a change to ``repro`` moves it as it
moves the wall time, while a slow host period moves the probe too and
cancels out.

This module imports nothing from ``repro``, so set-up timing can load it
before the import it measures.
"""

from __future__ import annotations

import gc
import time

#: Seconds :func:`probe` takes on the sizing host (Intel Xeon, Python
#: 3.11) in its fast state.  A normalized time reads in seconds of that
#: host; on another host only the scale changes.
REFERENCE_S = 0.0014


def probe() -> float:
    """Seconds one fixed task of dict, set, list, string and big-integer
    work takes now, with the garbage collector held off so the caller's
    heap does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(3000):
            table[(i * 7919) % 3001] = [i, str(i)]
        bits = 0
        for key in table:
            bits |= 1 << (key % 600)
        {key for key in table if key & 1}
        sorted(table.items())
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def normalized(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while :func:`probe` took ``probe_s``, rescaled
    to the reference host."""
    return seconds * REFERENCE_S / probe_s
