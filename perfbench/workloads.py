"""The benchmark's workloads: inputs built from a seed, and one pass of
operations over them.

A pass runs the same operations on the same inputs every time, so every
pass of every run attempts the same number of operations.  Each operation is
timed into one of ``check_s``, ``design_s`` or ``simulate_s`` and then
checked by :mod:`checks`; the checks are not timed.

The program is reached only through attribute lookups at call time
(``distobs.simulate(...)``, ``distobs.cli.main(...)``) so that the tracer's
wrappers see every call.
"""

import io
import json
import os
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import checks
import family
import machine

import distobs
import distobs.cli

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUNDLED_DIR = os.path.join(SRC, "distobs", "scenarios")
BUNDLED = ("fig3.json", "illustrative.json", "remark1.json", "sec8.json",
           "sec8_switching.json")
# Verdict of Remark 1 in the paper: the network is collectively detectable
# but no single node detects the repeated eigenvalue.
KNOWN_VERDICTS = {"remark1.json": (True, False)}
# The one operation kept although it fails today: illustrative.json run for
# 2000 steps overflows, exits 0, prints nan errors and writes a bare NaN
# into --summary.  It passes with exit 0, finite errors and a strictly valid
# summary, or with exit 4 (numerical failure).  Only that fault is excused:
# any other way of failing makes the run incorrect (see known_fault).
OVERFLOW_RUN = "simulate illustrative K=2000"
OVERFLOW_FAULT = "summary is not strict JSON (non-standard JSON token NaN)"
OVERFLOW_K = 2000

# Workload parameters.  "instances" is the number of generated plant/graph
# pairs in one pass; all are built from --seed.
# "max_depth" bounds every node's hop distance from each sensing node (see
# family.make_instance), so each horizon K leaves room for the relay delay,
# the tail's decay and, under switching, links missing for up to T steps.
STATIC = {"n_nodes": 400, "n_relay": 40, "max_depth": 50, "instances": 3,
          "K": 100}
SWITCHING = {"n_nodes": 100, "n_relay": 10, "max_depth": 30, "K": 150, "T": 4,
             "drop": 0.5, "max_parents": 2}
CLI_GEN = {"n_nodes": 100, "n_relay": 10, "max_depth": 30, "K": 150}


class Pass:
    """Timings and failures of one pass over a workload.

    ``seconds`` holds each metric's time rescaled to the reference machine
    speed (see :mod:`machine`), ``raw_seconds`` the wall time."""

    def __init__(self):
        self.seconds = {"check_s": 0.0, "design_s": 0.0, "simulate_s": 0.0}
        self.raw_seconds = dict(self.seconds)
        self.op_seconds = {}        # operation label -> (metric, raw seconds)
        self.attempted = 0
        self.failures = []          # (operation label, reason)
        self._machine = machine.seconds()

    def run(self, metric, label, fn, verify):
        """Time ``fn()`` into ``metric``, then check its result with
        ``verify`` (a list of failed-check names).  A raising operation is a
        failed one and yields ``None``."""
        self.attempted += 1
        before = self._machine
        t0 = time.perf_counter()
        try:
            out, error = fn(), None
        except Exception as exc:  # any error of the program fails this op only
            out, error = None, exc
        wall = time.perf_counter() - t0
        self._machine = machine.seconds()
        self.seconds[metric] += wall * machine.scale(before, self._machine)
        self.raw_seconds[metric] += wall
        self.op_seconds[label] = (metric, wall)
        if error is not None:
            self.failures.append((label, f"raised {type(error).__name__}: {error}"))
            return None
        try:
            bad = verify(out)
        except Exception as exc:  # an output the checks cannot even read
            bad = [f"output unreadable ({type(exc).__name__}: {exc})"]
        if bad:
            self.failures.append((label, "; ".join(bad)))
        return out

    def skip(self, label, reason):
        self.attempted += 1
        self.failures.append((label, reason))


# ---------------------------------------------------------------------------
# generated instances


class Case:
    """A generated instance with the program inputs made from it."""

    def __init__(self, inst, signal_seed=None):
        self.inst = inst
        self.plant = distobs.Plant(inst.A, inst.C)
        self.graph = distobs.Digraph(inst.n_nodes, frozenset(inst.edges))
        self.signal_seed = signal_seed      # scheme -> switching signal seed


def _designer(scheme):
    return distobs.design_condition1 if scheme == "c1" else distobs.design_condition2


def _design_check(scheme, case):
    if scheme == "c1":
        return lambda d: checks.condition1_design(d, case.inst)
    return lambda d: checks.condition2_design(d, case.inst)


def _simulate(case, design, K, signal=None):
    tr = distobs.simulate(case.plant, design, case.inst.x0, K=K, signal=signal)
    return tr, distobs.convergence_metrics(tr)


def _trace_check(case, K, sim):
    tr, metrics = sim
    n_nodes = case.inst.n_nodes
    return (checks.trace(tr, case.inst.A, case.inst.x0, K, n_nodes)
            + checks.convergence(metrics, n_nodes))


def _generate(seed, spec):
    return family.make_instance(seed, spec["n_nodes"], spec["n_relay"],
                                spec["max_depth"])


def build_static(seed):
    return [Case(_generate((seed, k), STATIC)) for k in range(STATIC["instances"])]


def static_pass(ps, cases, scheme):
    K = STATIC["K"]
    for k, case in enumerate(cases):
        tag = f"{scheme} instance {k}"
        ps.run("check_s", f"check {tag}",
               lambda: distobs.feasibility_report(case.plant, case.graph),
               lambda rep: checks.feasibility(rep, case.inst))
        design = ps.run("design_s", f"design {tag}",
                        lambda: _designer(scheme)(case.plant, case.graph),
                        _design_check(scheme, case))
        if design is None:
            ps.skip(f"simulate {tag}", "no design to simulate")
            continue
        ps.run("simulate_s", f"simulate {tag}",
               lambda: _simulate(case, design, K),
               lambda sim: _trace_check(case, K, sim))


def build_switching(seed):
    return [Case(_generate((seed, 0), SWITCHING),
                 signal_seed={"c1": 2 * seed, "c2": 2 * seed + 1})]


def switching_pass(ps, cases):
    (case,) = cases
    K, T, mp = SWITCHING["K"], SWITCHING["T"], SWITCHING["max_parents"]
    ps.run("check_s", "check switching instance",
           lambda: distobs.feasibility_report(case.plant, case.graph),
           lambda rep: checks.feasibility(rep, case.inst))
    for scheme in ("c1", "c2"):
        tag = f"{scheme} switching instance"
        design = ps.run("design_s", f"design {tag}",
                        lambda: _designer(scheme)(case.plant, case.graph,
                                                  max_parents=mp),
                        _design_check(scheme, case))
        if design is None:
            ps.skip(f"simulate {tag}", "no design to simulate")
            continue

        def run(design=design, scheme=scheme):
            pm = distobs.dag_parent_map(design)
            sig = distobs.make_assumption2_signal(
                pm, case.graph, T, K, SWITCHING["drop"], case.signal_seed[scheme])
            ok = distobs.validate_assumption2(sig, pm)
            return pm, sig, ok, _simulate(case, design, K, sig)

        def verify(out):
            pm, sig, ok, sim = out
            bad = [] if ok else ["validate_assumption2 rejects the generated signal"]
            bad += checks.window_coverage(sig, pm, case.inst.edges, T, K)
            if tuple(sim[0].mode_indices[:K]) != tuple(sig.schedule[:K]):
                bad.append("trace modes differ from the signal's schedule")
            return bad + _trace_check(case, K, sim)

        ps.run("simulate_s", f"simulate {tag}", run, verify)


# ---------------------------------------------------------------------------
# CLI cold starts


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def cli_subprocess(argv):
    """Run ``python -m distobs.cli argv`` as a fresh process; exit code."""
    proc = subprocess.run([sys.executable, "-m", "distobs.cli", *argv],
                          env=cli_env(), cwd=ROOT, capture_output=True,
                          timeout=150)
    return proc.returncode


def cli_inprocess(argv):
    """Call ``distobs.cli.main(argv)`` in this process; exit code."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return distobs.cli.main(argv)


class CliCase:
    """Scenario files for the CLI: the bundled ones, one generated static
    scenario and the long illustrative run, written into ``workdir``."""

    def __init__(self, seed, workdir):
        os.makedirs(workdir, exist_ok=True)
        self.workdir = workdir
        self.inst = _generate((seed, 0), CLI_GEN)
        self.gen = os.path.join(workdir, "generated.json")
        scenario = {
            "format_version": 1,
            "plant": {"A": self.inst.A.tolist(),
                      "C": [c.tolist() for c in self.inst.C]},
            "graph": {"n_nodes": self.inst.n_nodes,
                      "edges": [list(e) for e in self.inst.edges]},
            "simulation": {"x0": self.inst.x0.tolist(), "K": CLI_GEN["K"]},
        }
        with open(self.gen, "w") as f:
            json.dump(scenario, f)
        with open(os.path.join(BUNDLED_DIR, "illustrative.json")) as f:
            long_run = json.load(f)
        long_run["simulation"]["K"] = OVERFLOW_K
        self.long_run = os.path.join(workdir, "illustrative_k2000.json")
        with open(self.long_run, "w") as f:
            json.dump(long_run, f)

    def path(self, name):
        return os.path.join(self.workdir, name)


def build_cli(seed, workdir):
    return [CliCase(seed, workdir)]


def _expected(scn_json, name):
    verdicts = checks.pbh_verdicts(scn_json)
    known = KNOWN_VERDICTS.get(name)
    if known is not None and known != verdicts:
        raise AssertionError(f"{name}: independent PBH verdicts {verdicts} "
                             f"contradict the paper's {known}")
    return verdicts


def cli_reference(case):
    """In-process Scheme-1 design and trace of the generated scenario, the
    reference a CLI trace from a saved bank must equal bit for bit."""
    c = Case(case.inst)
    design = distobs.design_condition1(c.plant, c.graph)
    tr = distobs.simulate(c.plant, design, case.inst.x0, K=CLI_GEN["K"])
    return np.asarray(tr.x), np.asarray(tr.xhat)


def cli_runs(case):
    """``(label, scenario path, scenario, (cond1, cond2), scheme, extra
    args)`` for every scenario of a pass.  Verdicts come from the PBH test in
    :mod:`checks` (and the oracle for the generated scenario); a scenario
    whose scheme is ``auto`` expects Scheme 2 exactly when condition 2
    holds."""
    runs = []
    for name in BUNDLED:
        path = os.path.join(BUNDLED_DIR, name)
        with open(path) as f:
            scn = json.load(f)
        cond1, cond2 = _expected(scn, name)
        scheme = (scn.get("options") or {}).get("scheme", "auto")
        if scheme == "auto":
            scheme = "c2" if cond2 else "c1"
        runs.append((name[:-5], path, scn, (cond1, cond2), scheme, []))
    with open(case.gen) as f:
        gen = json.load(f)
    for scheme in ("c1", "c2"):
        runs.append((f"generated-{scheme}", case.gen, gen, (True, True), scheme,
                     ["--scheme", scheme]))
    return runs


def cli_pass(ps, case, runs, cli, reference):
    def exit_is(code, more=lambda: []):
        return lambda rc: ([f"exit code {rc}, documented {code}"]
                           if rc != code else more())

    checked = set()
    for label, path, scn, (c1, c2), _, _ in runs:
        if path in checked:
            continue
        checked.add(path)
        out = case.path(f"{label}.check.json")
        inst = case.inst if path == case.gen else None
        ps.run("check_s", f"check {label}",
               lambda: cli(["check", path, "--out", out]),
               exit_is(0 if c1 else 2, lambda: checks.check_report(
                   checks.strict_json(out), c1, c2, inst)))
    for label, path, scn, _, scheme, extra in runs:
        bank = case.path(f"{label}.bank.json")

        def bank_ok(bank=bank, scheme=scheme):
            b = checks.strict_json(bank)
            if b.get("kind") != "distobs-bank" or b.get("scheme") != scheme:
                return [f"bank is not a {scheme} distobs-bank"]
            return []
        ps.run("design_s", f"design {label}",
               lambda: cli(["design", path, *extra, "--out", bank]),
               exit_is(0, bank_ok))
    for label, path, scn, _, _, _ in runs:
        bank, csv_path = case.path(f"{label}.bank.json"), case.path(f"{label}.csv")
        summ = case.path(f"{label}.summary.json")
        sim = scn["simulation"]
        A = np.array(scn["plant"]["A"], dtype=float)
        x0 = np.array(sim["x0"], dtype=float)
        N = len(scn["plant"]["C"])

        def sim_ok(label=label, A=A, x0=x0, K=sim["K"], N=N, csv_path=csv_path,
                   summ=summ, switching=sim.get("switching") is not None):
            bad, x, xhat = checks.trace_csv(
                csv_path, A, x0, K, N, switching=switching,
                exact_by=2 if label == "illustrative" else None)
            bad += checks.summary(summ, K, N)
            if label == "generated-c1" and x is not None and not (
                    np.array_equal(x, reference[0])
                    and np.array_equal(xhat, reference[1])):
                bad.append("trace from the saved bank differs from the "
                           "in-process design's trace")
            return bad
        ps.run("simulate_s", f"simulate {label}",
               lambda: cli(["simulate", path, bank, "--out", csv_path,
                            "--summary", summ]),
               exit_is(0, sim_ok))
    summ = case.path("illustrative_k2000.summary.json")

    def overflow_ok(rc):
        if rc == 4:
            return []
        if rc != 0:
            return [f"exit code {rc}, documented 0 or 4"]
        try:
            s = checks.strict_json(summ)
        except ValueError as exc:
            return [f"summary is not strict JSON ({exc})"]
        if not all(np.isfinite(node["final_rel_error"]) for node in s["nodes"]):
            return ["summary reports a non-finite error with exit code 0"]
        return []
    ps.run("simulate_s", OVERFLOW_RUN,
           lambda: cli(["simulate", case.long_run, case.path("illustrative.bank.json"),
                        "--out", case.path("illustrative_k2000.csv"),
                        "--summary", summ]),
           overflow_ok)


# ---------------------------------------------------------------------------
# entry points used by run.py and setup_probe.py


def known_fault(label, reason):
    """Whether a failure is the documented overflow fault of OVERFLOW_RUN:
    exit code 0 and a bare NaN in its summary."""
    return label == OVERFLOW_RUN and reason == OVERFLOW_FAULT


def build(name, seed, workdir):
    """Every input of workload ``name``, made from ``seed``."""
    if name in ("scheme1-static", "scheme2-static"):
        return build_static(seed)
    if name == "switching":
        return build_switching(seed)
    if name == "cli-cold":
        return build_cli(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


def make_pass(name, cases, inprocess=False):
    """A function running one pass of workload ``name`` and returning its
    :class:`Pass`."""
    if name == "cli-cold":
        (case,) = cases
        runs, reference = cli_runs(case), cli_reference(case)
        cli = cli_inprocess if inprocess else cli_subprocess

        def one():
            ps = Pass()
            cli_pass(ps, case, runs, cli, reference)
            return ps
        return one
    scheme = {"scheme1-static": "c1", "scheme2-static": "c2"}.get(name)

    def one():
        ps = Pass()
        if scheme is None:
            switching_pass(ps, cases)
        else:
            static_pass(ps, cases, scheme)
        return ps
    return one


def clean(workdir):
    shutil.rmtree(workdir, ignore_errors=True)
