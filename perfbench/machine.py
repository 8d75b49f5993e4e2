"""How fast the shared machine runs right now, from a fixed reference kernel.

On a machine shared with other tenants the same operation can take 50 %
longer for minutes at a time, and process CPU time slows with it.  The
benchmark therefore times a fixed kernel just before and just after every
operation and reports the operation's time rescaled to the kernel's
reference time ``REF_S``:

    scaled = wall * 2 * REF_S / (kernel_before + kernel_after)

The kernel never calls the program.  It mixes what distobs spends its time
on: small numpy products in a Python loop, a medium eigenvalue problem and
plain Python arithmetic.
"""

import time

import numpy as np

# Median kernel time on the reference machine (README.md, "Measurement
# settings"), so scaled times read as seconds at that machine's usual speed.
REF_S = 0.018


def kernel():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((8, 8))
    v = np.ones(8)
    for _ in range(500):
        v = M @ v
        v = v / np.linalg.norm(v)
    np.linalg.eigvals(rng.standard_normal((160, 160)))
    s = 0
    for i in range(25000):
        s += i * i
    return s


def seconds():
    """Wall time of one kernel run, now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scale(before, after):
    """Factor turning a wall time measured between two kernel timings into
    seconds at the reference speed."""
    return 2.0 * REF_S / (before + after)
