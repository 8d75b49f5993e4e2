"""Design and simulate time per node as the network grows.

Prints a markdown table of medians over ``REPEATS`` generated instances at
N of about 100, 200 and 400 for both schemes (static graph, K=100), so that
a module whose cost grows faster than N shows as a trend:

    python3 perfbench/scaling.py --seed 1
"""

import argparse
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import threads  # noqa: E402,F401  (before numpy, as in run.py)
import distobs  # noqa: E402
import family  # noqa: E402

SIZES = ((100, 30), (200, 40), (400, 50))   # (N, max_depth)
K = 100
REPEATS = 3


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    print("| N | scheme | design s | design ms/node | simulate s | "
          "simulate us/node-step |")
    print("|---|---|---|---|---|---|")
    for N, depth in SIZES:
        for scheme, design_fn in (("c1", distobs.design_condition1),
                                  ("c2", distobs.design_condition2)):
            d_times, s_times = [], []
            for r in range(REPEATS):
                inst = family.make_instance((args.seed, r), N, N // 10, depth)
                p = distobs.Plant(inst.A, inst.C)
                g = distobs.Digraph(N, frozenset(inst.edges))
                t0 = time.perf_counter()
                design = design_fn(p, g)
                t1 = time.perf_counter()
                distobs.simulate(p, design, inst.x0, K=K)
                t2 = time.perf_counter()
                d_times.append(t1 - t0)
                s_times.append(t2 - t1)
            d, s = statistics.median(d_times), statistics.median(s_times)
            print(f"| {N} | {scheme} | {d:.3f} | {1e3 * d / N:.2f} | {s:.3f} | "
                  f"{1e6 * s / (N * K):.1f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
