"""Puts the benchmark's modules and the package source on ``sys.path``.

Run from the root of the checkout:

    python3 -m pytest perfbench/tests -q
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

# The seed the README's reference figures use, and the one for confirming a
# claim on inputs the change was not tuned on.
DEFAULT_SEED = 1
CONFIRM_SEED = 2
