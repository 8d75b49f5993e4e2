"""Benchmark of the distobs package, run from the root of a source checkout.

    python3 perfbench/run.py --workload scheme1-static --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from ``--seed``, then repeats whole passes over
them until ``--seconds`` have passed, checking every output (see
``README.md`` in this directory).  With ``--trace 0`` it reports the
end-to-end metrics of ``BENCHMARK.json`` (medians over passes, rescaled to
the reference machine speed by ``machine.py``); with
``--trace 1`` it alternates traced and untraced passes and reports the
per-layer metrics (medians over traced passes) and the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; run outputs go to
``perfbench/out/``.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

import threads  # noqa: F401  (before numpy, here and in every child)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 11
IMPORT_REPEATS = 3
TIMES = ("check_s", "design_s", "simulate_s")


def load_spec():
    """``BENCHMARK.json``: the workload names and the metrics to report."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _children(argv, repeats):
    """Medians of the float each of ``repeats`` fresh processes prints:
    rescaled to the reference speed (see machine.py), and raw."""
    import machine

    scaled, raw = [], []
    before = machine.seconds()
    for _ in range(repeats):
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                              cwd=ROOT, check=True)
        value = float(proc.stdout.strip().splitlines()[-1])
        after = machine.seconds()
        scaled.append(value * machine.scale(before, after))
        raw.append(value)
        before = after
    return statistics.median(scaled), statistics.median(raw)


def setup_seconds(workload, seed, workdir):
    """Median set-up time: import distobs and build every input, each time in
    a fresh interpreter."""
    probe = os.path.join(HERE, "setup_probe.py")
    try:
        return _children(
            [sys.executable, probe, workload, str(seed), workdir + "-setup"],
            SETUP_REPEATS)
    finally:
        shutil.rmtree(workdir + "-setup", ignore_errors=True)


def import_seconds():
    """Median time of ``import distobs.cli`` in a fresh interpreter (raw)."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import distobs.cli; "
            "print(repr(time.perf_counter() - t))")
    return _children([sys.executable, "-c", code, SRC], IMPORT_REPEATS)[1]


def peak_rss_mib(workload):
    """Peak resident memory of this process, or on ``cli-cold`` of its
    largest child.  Read it before any child of the benchmark's own (the
    set-up probes, the import timings) has run."""
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_untraced(one_pass, seconds):
    """Passes until ``seconds`` have gone; each time is the median over
    passes, rescaled to the reference speed (and raw, for the record)."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(one_pass())
    metrics = {}
    for key in TIMES:
        metrics[key] = statistics.median(p.seconds[key] for p in passes)
        metrics[f"{key}.raw"] = statistics.median(p.raw_seconds[key] for p in passes)
    return passes, metrics, None


def run_traced(one_pass, seconds):
    """A warm-up pass, then traced and untraced passes in turn; per-layer
    metrics are medians over the traced ones."""
    from tracer import Tracer, layer_metrics

    start = time.perf_counter()
    passes = [one_pass()]
    traced_walls, plain_walls, layers, spans = [], [], [], []
    while not traced_walls or time.perf_counter() - start < seconds:
        tracer = Tracer().install()
        t0 = time.perf_counter()
        try:
            passes.append(one_pass())
        finally:
            traced_walls.append(time.perf_counter() - t0)
            tracer.uninstall()
        layers.append(layer_metrics(tracer.spans))
        spans.append(tracer.spans)
        t0 = time.perf_counter()
        passes.append(one_pass())
        plain_walls.append(time.perf_counter() - t0)
    metrics = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0)
    return passes, metrics, spans


def main(argv=None):
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "distobs", "__init__.py")):
        print(f"perfbench: no distobs source tree under {SRC}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = os.path.join(OUT, f"{tag}-p{os.getpid()}")
    sys.path[:0] = [HERE, SRC]
    import workloads

    try:
        cases = workloads.build(args.workload, args.seed, workdir)
        one_pass = workloads.make_pass(
            args.workload, cases, inprocess=bool(args.trace))
        runner = run_traced if args.trace else run_untraced
        passes, measured, spans = runner(one_pass, args.seconds)
    finally:
        workloads.clean(workdir)
    measured["peak_rss_mib"] = peak_rss_mib(args.workload)
    measured["setup_s"], measured["setup_s.raw"] = setup_seconds(
        args.workload, args.seed, workdir)
    if args.trace:
        measured["cli.import_s"] = (import_seconds()
                                    if args.workload == "cli-cold" else 0.0)

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes, "
          f"{attempted} operations attempted, {len(failures)} failed")
    for (label, reason), count in sorted(Counter(failures).items()):
        known = " (known fault)" if workloads.known_fault(label, reason) else ""
        print(f"  FAILED x{count}{known}: {label}: {reason}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted}
    result = {
        "correct": all(workloads.known_fault(*f) for f in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as f:
        json.dump({**result, "all_metrics": measured,
                   "passes": [{"seconds": p.seconds, "raw_seconds": p.raw_seconds,
                               "ops": p.op_seconds,
                               "attempted": p.attempted,
                               "failures": p.failures} for p in passes]},
                  f, indent=1)
    if spans is not None:
        with open(os.path.join(OUT, f"spans-{tag}.json"), "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "size"],
                       "passes": spans}, f)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
