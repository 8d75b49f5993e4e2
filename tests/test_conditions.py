import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from distobs import conditions
from distobs import numkit as nk
from distobs import (
    Digraph,
    Plant,
    check_condition1,
    check_condition2,
    detectable_set,
    feasibility_report,
    jordan_system,
)
from conftest import random_orthogonal, random_strong_graph, structured_plant

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
    calls = {}
    for owner, name in ((nk, "eigen_info"), (conditions, "_class_basis"),
                        (nk, "obs_canon_decomp"), (nk, "pbh_rank_ok")):
        calls[name] = 0

        def counted(*args, _orig=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    rep = feasibility_report(p, g)
    N, U, S = p.n_nodes, len(rep.unstable), len(rep.source_comps)
    assert (N, U, S) == (4, 2, 2)
    # one basis per class needing a decision, one class-block staircase per
    # (output, class) and (component, class)
    assert calls == {"eigen_info": 1, "_class_basis": U,
                     "obs_canon_decomp": N * U + S * U, "pbh_rank_ok": 0}
    assert rep.cond1.ok and rep.cond2.ok
    assert rep.root_sets == {0: (1, 3, 4), 1: (2, 3, 4)}


@pytest.mark.parametrize("seed", range(3))
def test_defective_complex_pair_is_one_invariant_class(seed):
    # a rotation block repeated with a Jordan coupling, under a random
    # basis: one class of two conjugate pairs, whose lower members the
    # factor loop skips
    rng = np.random.default_rng(seed)
    c, s = np.cos(0.7), np.sin(0.7)
    R = 1.2 * np.array([[c, -s], [s, c]])
    Q = random_orthogonal(rng, 4)
    A = Q @ np.block([[R, np.eye(2)], [np.zeros((2, 2)), R]]) @ Q.T
    (cls,) = nk.eigen_info(A).classes
    assert (cls.dim, cls.complex_pair) == (4, True)
    assert sum(w.imag < 0 for w in cls.members) == 2
    norm_A = np.linalg.norm(A, 2)
    V, block = conditions._class_basis(A, cls, nk.DEFAULT_TOL, norm_A)
    assert V.shape == (4, 4)
    assert np.abs(V.T @ V - np.eye(4)).max() < 1e-12
    assert np.linalg.norm(A @ V - V @ block) < 1e-13 * norm_A
    jsys = jordan_system(Plant(A, (np.eye(4), np.zeros((0, 4)))))
    assert [k.dim for k in jsys.classes] == [4]
    assert np.linalg.norm(A @ jsys.T - jsys.T @ jsys.classes[0].block) \
        < 1e-13 * norm_A
