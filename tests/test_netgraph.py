import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from distobs import (
    Digraph,
    source_components,
    spanning_dag,
    strong_components,
    subgraph,
)
from distobs.errors import NotSpanning


def test_digraph_basics():
    g = Digraph(3, {(1, 2), (2, 1), (2, 3), (3, 3)})
    assert g.nodes == (1, 2, 3)
    assert (3, 3) not in g.edges  # self-loop dropped
    assert g.in_neighbors(1) == (2,)
    assert g.out_neighbors(2) == (1, 3)
    assert g.closed_in_neighborhood(3) == (2, 3)
    assert g.closed_in_neighborhood(1) == (1, 2)


def test_digraph_rejects_out_of_range():
    with pytest.raises(ValueError):
        Digraph(2, {(1, 3)})
    with pytest.raises(ValueError):
        Digraph(-1)


def test_strong_components_chain():
    # {1,2} cycle feeding {3,4} cycle: emitted sinks-first
    g = Digraph(4, {(1, 2), (2, 1), (2, 3), (3, 4), (4, 3)})
    comps = strong_components(g)
    assert set(map(tuple, comps)) == {(1, 2), (3, 4)}
    assert comps.index((3, 4)) < comps.index((1, 2))


def test_strong_components_singletons():
    g = Digraph(3, {(1, 2), (2, 3)})
    comps = strong_components(g)
    assert sorted(comps) == [(1,), (2,), (3,)]


def test_source_components_literal():
    g = Digraph(3, {(1, 2), (2, 1)})
    assert source_components(g) == [(1, 2), (3,)]
    ring = Digraph(3, {(1, 2), (2, 3), (3, 1)})
    assert source_components(ring) == [(1, 2, 3)]


def test_bfs_tree_and_forest():
    g = Digraph(4, {(1, 2), (2, 3), (1, 3), (3, 4)})
    tree = spanning_dag(g, {1}, 1)
    assert tree.roots == (1,)
    assert tree.parents(2) == (1,)
    assert tree.parents(3) in ((1,), (2,))
    assert tree.parents(4) == (3,)
    # parents precede children in topological order
    order = {v: k for k, v in enumerate(tree.topo_order)}
    for v in (2, 3, 4):
        assert order[tree.parents(v)[0]] < order[v]
    # the static weights put 1 on each non-root's parent
    assert tree.weights == {v: {tree.parents(v)[0]: 1.0} for v in (2, 3, 4)}
    assert tree.relay_nodes == (2, 3, 4)


def test_spanning_forest_unreachable():
    g = Digraph(3, {(1, 2)})
    with pytest.raises(NotSpanning):
        spanning_dag(g, {1}, 1)
    forest = spanning_dag(g, {3, 1}, 1)
    assert forest.roots == (1, 3)
    assert forest.parents(2) == (1,)
    assert forest.parents(1) == ()
    assert forest.parents(3) == ()
    assert forest.weights == {2: {1: 1.0}}
    assert forest.relay_nodes == (2,)


def test_spanning_dag_multi_parent():
    g = Digraph(4, {(1, 2), (1, 3), (2, 4), (3, 4), (2, 3)})
    dag = spanning_dag(g, {1}, 2)
    assert dag.parents(4) == (2, 3)
    assert len(dag.parents(3)) <= 2
    # extra parents are fallbacks; the static weights use the first
    assert dag.weights[4] == {2: 1.0}
    order = {v: k for k, v in enumerate(dag.topo_order)}
    for v in (2, 3, 4):
        for p in dag.parents(v):
            assert order[p] < order[v]


def test_subgraph_relabels():
    g = Digraph(4, {(2, 4), (4, 2), (1, 2)})
    h, ids = subgraph(g, {2, 4})
    assert ids == (2, 4)
    assert h.n_nodes == 2
    assert h.edges == frozenset({(1, 2), (2, 1)})


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_strong_components_partition(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    m = int(rng.integers(0, 2 * n + 1))
    edges = set()
    for _ in range(m):
        j, i = rng.integers(1, n + 1, size=2)
        edges.add((int(j), int(i)))
    g = Digraph(n, edges)
    comps = strong_components(g)
    flat = [v for comp in comps for v in comp]
    assert sorted(flat) == list(g.nodes)
    for comp in comps:
        assert list(comp) == sorted(comp)
    # source components receive no edge from outside themselves
    for comp in source_components(g):
        members = set(comp)
        for (j, i) in g.edges:
            assert not (i in members and j not in members)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_spanning_structures_on_strong_graphs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    perm = list(rng.permutation(np.arange(1, n + 1)))
    edges = {(int(perm[k]), int(perm[(k + 1) % n])) for k in range(n)}
    for _ in range(int(rng.integers(0, n + 1))):
        j, i = rng.integers(1, n + 1, size=2)
        if j != i:
            edges.add((int(j), int(i)))
    g = Digraph(n, edges)
    root = int(rng.integers(1, n + 1))
    for mp in (1, 2):
        s = spanning_dag(g, {root}, mp)
        order = {v: k for k, v in enumerate(s.topo_order)}
        assert sorted(s.topo_order) == list(g.nodes)
        for v in g.nodes:
            ps = s.parents(v)
            if v == root:
                assert ps == ()
                continue
            assert 1 <= len(ps) <= mp
            for p in ps:
                assert (p, v) in g.edges
                assert order[p] < order[v]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_spanning_dag_first_parents_form_the_forest(seed):
    # the Scheme-1 design builds its consensus trees from the first parent
    # of each node in the multi-parent DAG instead of a second search
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    m = int(rng.integers(0, 3 * n + 1))
    g = Digraph(n, {(int(j), int(i))
                    for j, i in rng.integers(1, n + 1, size=(m, 2))})
    n_roots = int(rng.integers(1, min(n, 3) + 1))
    roots = {int(v) for v in
             rng.choice(np.arange(1, n + 1), n_roots, replace=False)}
    k = int(rng.integers(2, 5))
    try:
        forest = spanning_dag(g, roots, 1)
    except NotSpanning as exc:
        with pytest.raises(NotSpanning) as again:
            spanning_dag(g, roots, k)
        assert again.value.unreachable == exc.unreachable
        return
    dag = spanning_dag(g, roots, k)
    assert dag.topo_order == forest.topo_order
    assert dag.roots == forest.roots == tuple(sorted(roots))
    assert {v: ps[:1] for v, ps in dag.parent_sets.items()} == \
        forest.parent_sets
    assert dag.weights == forest.weights
