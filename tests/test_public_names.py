"""Every public name resolves: the package's and each submodule's
``__all__``, and every function the benchmark tracer wraps.  Deleting or
renaming a public name fails here rather than first in a traced benchmark
run.  The package's names are its modules' ``__all__``, loaded on first
use; every public callable that takes a node id, an order, a count or a
window refuses a boolean and a fraction, and the package holds no
``assert`` statement."""

import ast
import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import distobs
from distobs import (
    Digraph,
    InvalidSignal,
    Plant,
    ShapeError,
    SwitchingSignal,
    dag_parent_map,
    design_condition1,
    eig_consensus_weights,
    make_assumption2_signal,
    multisensor_decompose,
    simulate,
    spanning_dag,
    subgraph,
    validate_assumption2,
)
from conftest import fresh_run, loaded_after

MODULES = ["distobs"] + [
    f"distobs.{m.name}" for m in pkgutil.iter_modules(distobs.__path__)
]
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
PACKAGE = Path(distobs.__file__).resolve().parent


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [attr for attr in getattr(mod, "__all__", ())
               if not hasattr(mod, attr)]
    assert missing == []


def test_package_names_are_the_modules_names():
    # the seven modules whose ``__all__`` the package republishes whole
    modules = [distobs.decomp, distobs.netgraph, distobs.conditions,
               distobs.synth_c1, distobs.synth_c2, distobs.simkit,
               distobs.errors]
    expected = ["numkit", "ToleranceConfig"] + [
        name for mod in modules for name in mod.__all__]
    assert len(set(distobs.__all__)) == len(distobs.__all__)
    assert distobs.__all__ == expected
    assert distobs.ToleranceConfig is distobs.numkit.ToleranceConfig
    for mod in modules:
        for name in mod.__all__:
            assert getattr(distobs, name) is getattr(mod, name), name


LIBRARY = {"conditions", "decomp", "errors", "netgraph", "numkit", "simkit",
           "synth_c1", "synth_c2"}


@pytest.mark.parametrize("code, loaded", [
    ("import distobs", set()),
    # a submodule name loads that submodule and what it imports, no more
    ("import distobs; distobs.numkit", {"numkit", "errors"}),
    ("from distobs import netgraph", {"netgraph", "errors"}),
    # any other public name loads every module
    ("import distobs; distobs.Plant", LIBRARY),
    ("import distobs; distobs.__all__", LIBRARY),
])
def test_package_loads_modules_on_first_use(code, loaded):
    assert loaded_after(code) == loaded


def test_cold_package_lists_and_star_imports_its_names():
    out = fresh_run(
        "import distobs\n"
        "listed = dir(distobs)\n"
        "star = {}\n"
        "exec('from distobs import *', star)\n"
        "del star['__builtins__']\n"
        "print(set(distobs.__all__) <= set(listed),"
        " sorted(star) == sorted(distobs.__all__),"
        " all(star[k] is getattr(distobs, k) for k in star))")
    assert out.split() == ["True", "True", "True"]


def test_package_refuses_unknown_names():
    for name in ("no_such_name", "_private", "__wrapped__"):
        assert not hasattr(distobs, name)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        distobs.no_such_name


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for mod, attr in tracer.TARGETS:
        owner = importlib.import_module(f"distobs.{mod}")
        if "." in attr:
            # a method target is taken from its class's own namespace
            cls_name, meth = attr.split(".")
            ok = meth in vars(getattr(owner, cls_name, object))
        else:
            ok = callable(getattr(owner, attr, None))
        if not ok:
            missing.append((mod, attr))
    assert missing == []


def test_package_has_no_assert_statements():
    # ``python -O`` strips them, so the package checks by explicit raises
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


PLANT = Plant(np.array([[1.2, 1.0], [0.0, 0.9]]),
              (np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), np.zeros((0, 2))))
GRAPH = Digraph(3, {(1, 2), (2, 3), (3, 1)})
DESIGN = design_condition1(PLANT, GRAPH)
PARENTS = dag_parent_map(DESIGN)
SIGNAL = make_assumption2_signal(PARENTS, GRAPH, 2, 6, 0.5, 1)

# each public callable taking an integer argument, called with ``v`` there
INTEGER_ARGUMENTS = {
    "Digraph(n_nodes)": (lambda v: Digraph(v, set()), ValueError),
    "spanning_dag(roots)": (lambda v: spanning_dag(GRAPH, {v}, 1), ValueError),
    "spanning_dag(max_parents)": (
        lambda v: spanning_dag(GRAPH, {1}, v), ValueError),
    "subgraph(keep)": (lambda v: subgraph(GRAPH, [v, 2]), ValueError),
    "eig_consensus_weights(roots)": (
        lambda v: eig_consensus_weights(GRAPH, [v], 1.2), ValueError),
    "multisensor_decompose(order)": (
        lambda v: multisensor_decompose(PLANT, order=(v, 2, 3)), ShapeError),
    "design_condition1(order)": (
        lambda v: design_condition1(PLANT, GRAPH, order=(v, 2, 3)),
        ValueError),
    "simulate(K)": (lambda v: simulate(PLANT, DESIGN, [1.0, 0.0], K=v),
                    ValueError),
    "make_assumption2_signal(T)": (
        lambda v: make_assumption2_signal(PARENTS, GRAPH, v, 6, 0.5, 1),
        ValueError),
    "make_assumption2_signal(K)": (
        lambda v: make_assumption2_signal(PARENTS, GRAPH, 2, v, 0.5, 1),
        ValueError),
    "validate_assumption2(T)": (
        lambda v: validate_assumption2(SIGNAL, PARENTS, T=v), ValueError),
    "SwitchingSignal(window_T)": (
        lambda v: SwitchingSignal(SIGNAL.modes, SIGNAL.schedule, v),
        ValueError),
    "SwitchingSignal(schedule)": (
        lambda v: SwitchingSignal(SIGNAL.modes, (0, v), 2), InvalidSignal),
    "SwitchingSignal.edges_at(k)": (lambda v: SIGNAL.edges_at(v),
                                    InvalidSignal),
}


@pytest.mark.parametrize("value", [True, 1.5])
@pytest.mark.parametrize("call", INTEGER_ARGUMENTS)
def test_integer_arguments_refuse_booleans_and_fractions(call, value):
    run, error = INTEGER_ARGUMENTS[call]
    # each message quotes the refused value
    with pytest.raises(error, match=re.escape(repr(value))):
        run(value)
