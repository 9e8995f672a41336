"""Scaling measured times to a reference machine speed.

On a shared machine the speed at which this process runs Python drifts
by half or more over minutes, as other tenants load the cores and caches
it shares.  The drift is the same for any interpreter-bound work, so the
benchmark times a fixed probe, shaped like the library's own work (small
frozen objects and ``math`` calls, numpy row slices), next to every op.
Each op's time is then scaled by ``REFERENCE_S / probe time`` around it:
the figure the op would have taken at the speed where the probe takes
exactly ``REFERENCE_S``.

The probe runs no library code, with the garbage collector off, and the
benchmark drops each op's result before the next probe, so the objects a
library call leaves behind are not walked by the probe.  Heap and cache
state still carry over, so a library change can move the probe a little;
the summary prints the unscaled figures next to the scaled ones, so a
reader can see when the two disagree.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

#: Probe time that defines the reference speed.
REFERENCE_S = 0.005

#: Probes on each side of an op that set its scale (a rolling median).
HALF_WINDOW = 4

_GRID = np.linspace(0.0, 1.0, 600)


@dataclass(frozen=True)
class _Point:
    x: float
    y: float
    r: float


def probe() -> float:
    """Seconds taken by the fixed reference work, once, with the garbage
    collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(1500):
            p = _Point(math.cos(i * 0.01), math.sin(i * 0.01) + 2.0, 1.0)
            acc += math.sqrt(math.hypot(p.x - 0.5, p.y)) * p.y
        for i in range(0, _GRID.size, 4):
            d = _GRID[i:] - _GRID[i]
            acc += float((0.5 * d - np.log1p(d)).min())
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scales(probes: list[float]) -> list[float]:
    """Scale factor for each op from the probes taken between ops.

    ``probes[k]`` ran just before op k and ``probes[-1]`` after the last
    op, so op k lies between probes k and k + 1; its factor comes from the
    median of the probes within ``HALF_WINDOW`` places of that gap.
    """
    out = []
    for k in range(len(probes) - 1):
        window = probes[max(0, k + 1 - HALF_WINDOW): k + 1 + HALF_WINDOW]
        out.append(REFERENCE_S / statistics.median(window))
    return out
