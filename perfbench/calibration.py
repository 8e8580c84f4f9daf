"""A fixed reference kernel that measures how fast the machine is right now.

On a shared virtual machine the same code runs 10-40% slower from one
minute to the next, and a run's medians move with it.  The benchmark runs
this kernel right before and right after every timed call and scales the
call's seconds by ``REFERENCE_S`` over the kernel's mean time, so a
reported time reads as seconds on a machine that runs the kernel in
``REFERENCE_S``.  The kernel is benchmark code with a fixed input: a
change to the program cannot change its time, only the machine can.

It mixes the kinds of work the miner does: dict updates keyed by small
tuples (table building and threshold scans), lag comparisons with
``flatnonzero``/``bincount`` (the lag-sweep and residue kernels), an FFT
(the spectral stage) and a sort.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: the kernel's median time on the 2-vCPU virtual machine the bounds were
#: set on; it only fixes the scale of the reported seconds.
REFERENCE_S = 0.065

_CODES = np.random.default_rng(0).integers(0, 8, 1 << 20)


def kernel_seconds() -> float:
    """Seconds one pass of the reference kernel takes right now."""
    start = perf_counter()
    table: dict[tuple[int, int], int] = {}
    for i in range(60_000):
        key = (i % 250, i & 7)
        table[key] = table.get(key, 0) + 1
    for lag in (7, 24, 60):
        matches = np.flatnonzero(_CODES[:-lag] == _CODES[lag:])
        np.bincount(matches % lag, minlength=lag)
    np.fft.rfft(_CODES.astype(np.float64))
    np.sort(_CODES)
    return perf_counter() - start


def scaled(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, at reference speed."""
    return seconds * REFERENCE_S / kernel_s
