import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from distobs import numkit as nk
from distobs import (
    Digraph,
    Plant,
    check_condition1,
    check_condition2,
    detectable_set,
    feasibility_report,
)
from conftest import random_strong_graph, structured_plant

SPLIT_PLANT = Plant(
    np.diag([2.0, 2.0]),
    (np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), np.eye(2)),
)
SPLIT_GRAPH = Digraph(3, {(1, 2), (2, 1)})


def test_detectable_set_literal():
    A = np.diag([2.0, 0.5])
    # stable classes are always detectable; the unstable one needs the
    # rank test to pass
    assert detectable_set(A, np.array([[1.0, 0.0]])) == (0, 1)
    assert detectable_set(A, np.eye(2)) == (0, 1)
    assert detectable_set(A, np.zeros((0, 2))) == (1,)
    assert detectable_set(A, np.array([[0.0, 1.0]])) == (1,)


def test_split_sensor_collective_vs_per_eigenvalue():
    v1 = check_condition1(SPLIT_PLANT, SPLIT_GRAPH)
    v2 = check_condition2(SPLIT_PLANT, SPLIT_GRAPH)
    assert v1.ok is True
    assert v2.ok is False
    bad = v2.failing_components()[0]
    assert bad.component == (1, 2)
    assert list(bad.failing) == [2.0]
    # the isolated full-measurement node is fine on its own
    ok3 = [c for c in v2.components if c.component == (3,)][0]
    assert ok3.ok and ok3.roots == {0: (3,)}


def test_condition1_failure_diagnoses_component():
    # unstable mode visible to nobody
    p = Plant(np.diag([3.0]), (np.zeros((0, 1)), np.zeros((0, 1))))
    g = Digraph(2, {(1, 2), (2, 1)})
    v = check_condition1(p, g)
    assert not v.ok
    assert v.failing_components()[0].failing == (3.0,)


def test_stable_plant_passes_both():
    p = Plant(np.diag([0.5, -0.25]), (np.zeros((0, 2)), np.zeros((0, 2))))
    g = Digraph(2, {(1, 2)})
    assert check_condition1(p, g).ok
    assert check_condition2(p, g).ok


def test_feasibility_report_fields():
    rep = feasibility_report(SPLIT_PLANT, SPLIT_GRAPH)
    assert rep.cond1.ok and not rep.cond2.ok
    assert rep.unstable == (0,)
    assert rep.root_sets == {0: (3,)}
    assert rep.per_node_detectable == ((), (), (0,))
    assert rep.source_comps == [(1, 2), (3,)] or \
        list(rep.source_comps) == [(1, 2), (3,)]


def test_near_real_pair_needs_coverage_once():
    # eigenvalues 1.5 +- 7.5e-8 i form one real class of dimension 2
    d = 7.5e-8
    p = Plant(np.array([[1.5, d], [-d, 1.5]]),
              (np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])))
    rep = feasibility_report(p, Digraph(2, {(1, 2), (2, 1)}))
    assert [(c.rep, c.dim) for c in rep.classes] == [(1.5, 2)]
    assert rep.unstable == (0,)
    assert rep.root_sets == {0: (1, 2)}


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_per_eigenvalue_implies_collective(seed):
    rng = np.random.default_rng(seed)
    p, _ = structured_plant(rng, unobs_radius=1.2)
    g = random_strong_graph(rng, p.n_nodes)
    rep = feasibility_report(p, g)
    if rep.cond2.ok:
        assert rep.cond1.ok
    # the standalone readers agree with the report's single table
    assert check_condition1(p, g) == rep.cond1
    assert check_condition2(p, g) == rep.cond2
    assert rep.per_node_detectable == tuple(
        detectable_set(p.A, C_i) for C_i in p.C
    )
    for comp1, comp2 in zip(rep.cond1.components, rep.cond2.components):
        assert comp1.component == comp2.component
        if comp2.ok:
            assert comp1.ok


def test_feasibility_report_makes_each_rank_decision_once(monkeypatch):
    # two unstable classes; source components (1, 2) and (4,); node 3 hears
    # node 2 only, so it is tested on its own outputs but leads no component
    p = Plant(
        np.diag([2.0, 1.5, 0.5]),
        (np.array([[1.0, 0.0, 0.0]]), np.array([[0.0, 1.0, 0.0]]),
         np.eye(3), np.array([[1.0, 1.0, 0.0]])),
    )
    g = Digraph(4, {(1, 2), (2, 1), (2, 3)})
    calls = {"eigen_info": 0, "pbh_rank_ok": 0}
    for name in calls:
        def counted(*args, _orig=getattr(nk, name), _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(nk, name, counted)
    rep = feasibility_report(p, g)
    N, U, S = p.n_nodes, len(rep.unstable), len(rep.source_comps)
    assert (N, U, S) == (4, 2, 2)
    assert calls == {"eigen_info": 1, "pbh_rank_ok": N * U + S * U}
    assert rep.cond1.ok and rep.cond2.ok
    assert rep.root_sets == {0: (1, 3, 4), 1: (2, 3, 4)}
