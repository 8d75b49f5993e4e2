"""One set-up of a workload, timed in a fresh interpreter.

Imports ``distobs`` and builds every input of the workload, then prints the
seconds that took.  ``run.py`` starts several of these and reports their
median as ``setup_s``.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>
"""

import os
import sys
import time

t0 = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import distobs  # noqa: E402,F401
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), sys.argv[3])
print(repr(time.perf_counter() - t0))
