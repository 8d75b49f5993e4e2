"""The benchmark's correctness gate, run on one small generated instance.

``perfbench/checks.py`` judges the program's output apart from it: against
the planted oracle of ``perfbench/family.py``, or against numpy recomputed
from the inputs.  It reads the Scheme-1 decomposition and every Scheme-2
split's ``node`` and detectable classes, so a change to those fails here
rather than first in a benchmark run.  Both files are loaded read-only, as
``test_public_names`` loads the tracer.
"""

import importlib.util
from pathlib import Path

import pytest

from distobs import (
    Digraph,
    Plant,
    convergence_metrics,
    design_condition1,
    design_condition2,
    feasibility_report,
    simulate,
)

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
K = 80


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load("checks")
family = _load("family")


@pytest.fixture(scope="module")
def case():
    # 24 nodes, 4 of them relay-only, every node within 12 hops of a sensor
    inst = family.make_instance((7, 0), 24, 4, 12)
    return (inst, Plant(inst.A, inst.C),
            Digraph(inst.n_nodes, frozenset(inst.edges)))


def test_feasibility_passes_the_benchmark_check(case):
    inst, p, g = case
    assert checks.feasibility(feasibility_report(p, g), inst) == []


@pytest.mark.parametrize("scheme", ["c1", "c2"])
def test_design_and_run_pass_the_benchmark_checks(case, scheme):
    inst, p, g = case
    if scheme == "c1":
        design = design_condition1(p, g)
        bad = checks.condition1_design(design, inst)
    else:
        design = design_condition2(p, g)
        bad = checks.condition2_design(design, inst)
    tr = simulate(p, design, inst.x0, K=K)
    bad += checks.trace(tr, inst.A, inst.x0, K, inst.n_nodes)
    bad += checks.convergence(convergence_metrics(tr), inst.n_nodes)
    assert bad == []
