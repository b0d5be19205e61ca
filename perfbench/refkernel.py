"""The reference kernel: a fixed piece of work that gauges the host's speed.

The benchmark runs it between the program's units. It uses nothing of
focalpipe, so a change to the program leaves its time alone, while other
tenants of the host slow it down as they slow the program. It mixes the
two kinds of work the program does: pure-Python box arithmetic, as in
`evalkit` and `fuse`, and numpy array passes, as in `mixture`.
"""

from __future__ import annotations

import time

import numpy as np

BOXES = [(i % 97 * 1.5, i % 89 * 1.25, i % 97 * 1.5 + 20.0, i % 89 * 1.25 + 15.0)
         for i in range(120)]
POINTS = np.random.default_rng(0).normal(size=(600, 2))


def kernel() -> float:
    total = 0.0
    for a in BOXES:
        for b in BOXES[:40]:
            iw = min(a[2], b[2]) - max(a[0], b[0])
            ih = min(a[3], b[3]) - max(a[1], b[1])
            if iw > 0 and ih > 0:
                total += iw * ih / ((a[2] - a[0]) * (a[3] - a[1])
                                    + (b[2] - b[0]) * (b[3] - b[1]) - iw * ih)
    for _ in range(6):
        d = POINTS[:, None, :] - POINTS[None, :40, :]
        total += float(np.exp(-(d * d).sum(-1)).sum())
    return total


def sample(seconds: float, out: list[float]) -> None:
    """Time the kernel back to back for at least `seconds`, appending to `out`."""
    end = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        out.append(t1 - t0)
        if t1 >= end:
            return
