import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_graph as ref
from distobs import (
    Digraph,
    SpanningStructure,
    dag_parent_map,
    design_condition1,
    design_condition2,
    make_assumption2_signal,
    netgraph,
    simulate,
    source_components,
    spanning_dag,
    strong_components,
    subgraph,
)
from distobs.errors import NotSpanning
from conftest import relay_instance


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
    for n in (3.0, True):
        with pytest.raises(ValueError, match=re.escape(
                f"n_nodes must be an integer, got {n!r}")):
            Digraph(n, set())


@pytest.mark.parametrize("edge", [
    (1.7, 2.2), (True, 3), (1, np.bool_(False)), (2.0, 1), ("1", 2),
    (np.float64(1.0), 3),
])
def test_digraph_rejects_non_integer_ids(edge):
    with pytest.raises(ValueError, match=re.escape(
            f"edge {edge!r} has a node id that is not an integer")):
        Digraph(3, [(1, 2), edge])


def test_digraph_accepts_numpy_integer_ids():
    g = Digraph(np.int64(3), {(np.int64(1), np.int32(2)), (np.uint8(3), 1)})
    assert g.edges == {(1, 2), (3, 1)}
    assert all(type(v) is int for e in g.edges for v in e)
    assert spanning_dag(g, {3}, np.int64(1)).relay_nodes == (1, 2)
    with pytest.raises(ValueError, match=re.escape(
            "edge (1, 2, 3) is not an ordered pair")):
        Digraph(3, [(1, 2, 3)])


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


ROUTE_FROM_1 = "the route from [1]"


@pytest.mark.parametrize("args, message", [
    # a parent off the route
    (((1,), {2: (3,)}, (1, 2), {2: {1: 1.0}}),
     f"node 2 has parent 3, which covers nothing for {ROUTE_FROM_1}"),
    # a weight row for a node off the route
    (((1,), {2: (1,)}, (1, 2), {2: {1: 1.0}, 5: {7: 1.0}}),
     f"node 5 carries consensus weights on {ROUTE_FROM_1} but is not on it"),
    # a node listed twice
    (((1,), {2: (1,)}, (1, 1, 2), {2: {1: 1.0}}),
     f"node 1 appears twice in the topological order of {ROUTE_FROM_1}"),
    (((1,), {2: (1,), 3: (2,)}, (1, 3, 2), {2: {1: 1.0}, 3: {1: 1.0}}),
     f"node 3 has parent 2, which does not come before it on {ROUTE_FROM_1}"),
    (((1,), {1: (2,), 2: (1,)}, (1, 2), {2: {1: 1.0}}),
     f"node 1 is a root for {ROUTE_FROM_1} and must not have parents on it"),
    (((1,), {2: (1,), 5: (1,)}, (1, 2), {2: {1: 1.0}}),
     f"node 5 has parents on {ROUTE_FROM_1} but is not on it"),
    (((1,), {3: (1,)}, (1, 2, 3), {2: {1: 1.0}, 3: {1: 1.0}}),
     f"node 2 has no parents on {ROUTE_FROM_1}"),
    (((1,), {2: ()}, (1, 2), {2: {1: 1.0}}),
     f"node 2 has no parents on {ROUTE_FROM_1}"),
    (((3,), {2: (1,)}, (1, 2), {2: {1: 1.0}}),
     "root 3 is not on the route from [3]"),
    # node ids that are not integers are not cast to ones that are
    (((1,), {2: (1,)}, (1, 2), {2: {1.2: 1.0}}),
     f"node id 1.2 on {ROUTE_FROM_1} is not an integer"),
    (((1,), {2: (1.0,)}, (1, 2), {2: {1: 1.0}}),
     f"node id 1.0 on {ROUTE_FROM_1} is not an integer"),
    (((1,), {2: (1,)}, (1, True), {2: {1: 1.0}}),
     f"node id True on {ROUTE_FROM_1} is not an integer"),
    (((1.5,), {2: (1,)}, (1, 2), {2: {1: 1.0}}),
     "root 1.5 is not an integer"),
    # numpy ids name the route in plain ints
    (((np.int64(1),), {2: (np.int64(3),)}, (1, 2), {2: {1: 1.0}}),
     f"node 2 has parent 3, which covers nothing for {ROUTE_FROM_1}"),
])
def test_spanning_structure_rejects_broken_invariants(args, message):
    with pytest.raises(ValueError) as exc:
        SpanningStructure(*args)
    assert str(exc.value) == message


def test_spanning_structure_keeps_given_dicts_and_orders_its_rows():
    parents = {3: (2,), 2: (1,)}
    weights = {1: {}, 3: {1: 0.5, 2: 0.5}, 2: {1: 1.0}}
    route = SpanningStructure((1,), parents, (1, 2, 3), weights)
    assert route.parent_sets is parents and route.weights is weights
    assert route.relay_nodes == (2, 3)
    child, parent, weight = route.arcs()
    assert (child.tolist(), parent.tolist(), weight.tolist()) == \
        ([2, 3, 3], [1, 1, 2], [1.0, 0.5, 0.5])
    child, parent, weight = route.arcs(parent_sets=True)
    assert (child.tolist(), parent.tolist(), weight) == ([2, 3], [1, 2], None)


def test_spanning_dag_builds_its_dicts_when_read():
    g = Digraph(4, {(1, 2), (1, 3), (2, 4), (3, 4), (2, 3)})
    route = spanning_dag(g, {1}, 2)
    assert not {"parent_sets", "weights"} & vars(route).keys()
    assert route.relay_nodes == (2, 3, 4)
    assert route.parent_sets == {2: (1,), 3: (1, 2), 4: (2, 3)}
    assert route.weights == {2: {1: 1.0}, 3: {1: 1.0}, 4: {2: 1.0}}
    assert route.parent_sets is route.parent_sets


def _random_graph(rng, n, spanning):
    """A random digraph on ``n`` nodes; under ``spanning`` a cycle through
    every node makes each root reach everything."""
    m = int(rng.integers(0, 3 * n + 1))
    edges = {(int(j), int(i)) for j, i in rng.integers(1, n + 1, size=(m, 2))}
    if spanning:
        perm = rng.permutation(np.arange(1, n + 1)).tolist()
        edges |= set(zip(perm, perm[1:] + perm[:1]))
    return Digraph(n, edges)


def _items(route_dicts):
    """A dict of rows with its order and its rows' order spelled out."""
    return [(k, list(v.items()) if isinstance(v, dict) else v)
            for k, v in route_dicts.items()]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
def test_graph_kernels_match_the_dict_reference(seed, spanning):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 401))
    g = _random_graph(rng, n, spanning)
    assert strong_components(g) == ref.strong_components(g)
    assert source_components(g) == ref.source_components(g)
    pred, succ = ref.adjacency(g)
    for v in rng.choice(np.arange(1, n + 1), min(n, 20), replace=False):
        assert g.in_neighbors(v) == pred[v]
        assert g.out_neighbors(v) == succ[v]
    keep = {int(v) for v in rng.integers(1, n + 1, size=n // 2 + 1)}
    h, ids = subgraph(g, keep)
    assert (h.n_nodes, h.edges, ids) == ref.subgraph(g, keep)
    roots = {int(v) for v in rng.choice(np.arange(1, n + 1),
                                        int(rng.integers(1, min(n, 4) + 1)),
                                        replace=False)}
    max_parents = int(rng.integers(1, 4))
    try:
        want = ref.spanning_dag(g, roots, max_parents)
    except NotSpanning as exc:
        with pytest.raises(NotSpanning) as got:
            spanning_dag(g, roots, max_parents)
        assert got.value.unreachable == exc.unreachable
        assert str(got.value) == str(exc)
        return
    route = spanning_dag(g, roots, max_parents)
    assert (route.roots, route.topo_order) == (want[0], want[2])
    assert _items(route.parent_sets) == _items(want[1])
    assert _items(route.weights) == _items(want[3])


def test_designs_and_runs_read_route_rows_only(monkeypatch):
    # a 400-node network: no dict view of any route is built, no route is
    # validated and no node's in-neighbors are read, while both schemes
    # design and simulate, static and switched; the routes spanning_dag
    # builds are valid by construction
    p, g = relay_instance(1, n_nodes=400, n_relay=40, extra=200)
    counts = {"dict rows": 0, "check": 0, "in_neighbors": 0}
    of, check = netgraph._Rows.of.__func__, netgraph._check_route
    in_neighbors = Digraph.in_neighbors

    def counted_of(cls, rows, weighted):
        counts["dict rows"] += 1
        return of(cls, rows, weighted)

    def counted_check(*args):
        counts["check"] += 1
        return check(*args)

    def counted_in_neighbors(g, i):
        counts["in_neighbors"] += 1
        return in_neighbors(g, i)

    monkeypatch.setattr(netgraph._Rows, "of", classmethod(counted_of))
    monkeypatch.setattr(netgraph, "_check_route", counted_check)
    monkeypatch.setattr(Digraph, "in_neighbors", counted_in_neighbors)
    # synth_c1 holds its own reference for Scheme-1 user weights
    monkeypatch.setattr("distobs.synth_c1._check_route", counted_check)
    x0 = np.random.default_rng(0).standard_normal(p.n)
    routes = []
    for max_parents in (1, 2):
        for design in (design_condition1(p, g, max_parents=max_parents),
                       design_condition2(p, g, max_parents=max_parents)):
            signal = None
            if max_parents == 2:
                signal = make_assumption2_signal(dag_parent_map(design), g,
                                                 4, 30, 0.5, 7)
            simulate(p, design, x0, K=30, signal=signal)
            routes += list(design.class_weights.values()) if hasattr(
                design, "class_weights") else [design.relay] + [
                r for c in design.components for r in c.bank.weights.values()]
    assert len(routes) > 4
    assert counts == {"dict rows": 0, "check": 0, "in_neighbors": 0}
    for route in routes:
        assert not {"parent_sets", "weights"} & vars(route).keys()


def _mutate(rng, roots, parents, order, weights, n):
    """One random edit of a valid route's parts, valid or not."""
    relay = [v for v in order if v not in roots and weights.get(v)
             and parents.get(v)]
    if not relay:
        return
    i = relay[int(rng.integers(len(relay)))]
    later = order[order.index(i) + 1:] or [n + 3]
    kind = int(rng.integers(14))
    if kind == 0:
        del weights[i]
    elif kind == 1:
        row = weights[i]
        row[list(row)[-1]] = [-0.5, float("nan"), float("inf")][
            int(rng.integers(3))]
    elif kind == 2:
        weights[i] = {l: 0.5 * w for l, w in weights[i].items()}
    elif kind == 3:
        weights[i][n + 5] = 0.0
    elif kind == 4:  # a zero weight on a later node is allowed
        weights[i] = {**weights[i], later[0]: 0.0}
    elif kind == 5:  # a nonzero one is not
        weights[i] = {**{p: 0.5 * w for p, w in weights[i].items()},
                      later[0]: 0.5}
    elif kind == 6:
        weights[roots[0]] = {} if rng.integers(2) else {order[-1]: 1.0}
    elif kind == 7:
        weights[n + 2] = {roots[0]: 1.0}
    elif kind == 8:
        order.insert(int(rng.integers(len(order) + 1)),
                     order[int(rng.integers(len(order)))])
    elif kind == 9:
        del parents[i]
    elif kind == 10:
        parents[i] = parents[i] + (later[0],)
    elif kind == 11:
        parents[roots[0]] = (i,)
    elif kind == 12:
        parents[n + 4] = (roots[0],)
    else:
        roots.append(n + 6)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6))
def test_route_validation_matches_the_row_by_row_reference(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    g = _random_graph(rng, n, True)
    k = int(rng.integers(1, min(n - 1, 3) + 1))
    base = spanning_dag(g, rng.choice(np.arange(1, n + 1), k, replace=False),
                        int(rng.integers(1, 4)))
    roots, order = list(base.roots), list(base.topo_order)
    parents = dict(base.parent_sets)
    weights = {}
    for i, ps in parents.items():  # random rows over each parent set
        w = rng.random(len(ps)) + 0.1
        weights[i] = dict(zip(ps, (w / w.sum()).tolist()))
    for _ in range(int(rng.integers(0, 3))):
        _mutate(rng, roots, parents, order, weights, n)
    # any dict order is accepted
    for d in (parents, weights):
        keys = list(d)
        rng.shuffle(keys)
        shuffled = {key: d[key] for key in keys}
        d.clear()
        d.update(shuffled)
    args = (tuple(roots), parents, tuple(order), weights)
    try:
        ref.check_route(*args)
    except ValueError as want:
        with pytest.raises(ValueError) as got:
            SpanningStructure(*args)
        assert str(got.value) == str(want)
        return
    route = SpanningStructure(*args)
    relay = [v for v in order if v not in roots]
    assert route.relay_nodes == tuple(relay)
    child, parent, weight = route.arcs()
    assert list(zip(child.tolist(), parent.tolist(), weight.tolist())) == [
        (v, l, w) for v in relay for l, w in weights[v].items()]
    child, parent, _ = route.arcs(parent_sets=True)
    assert list(zip(child.tolist(), parent.tolist())) == [
        (v, l) for v in relay for l in parents[v]]


CYCLE3 = Digraph(3, {(1, 2), (2, 3), (3, 1)})


@pytest.mark.parametrize("roots, max_parents, match", [
    ({0, 2}, 1, r"^root 0 is outside 1\.\.3$"),
    ({2, 4}, 1, r"^root 4 is outside 1\.\.3$"),
    ((), 1, "^at least one root is required$"),
    ((1,), 0, "^max_parents must be >= 1, got 0$"),
    ((1,), 1.5, "^max_parents must be an integer, got 1.5$"),
    ((1,), True, "^max_parents must be an integer, got True$"),
])
def test_spanning_dag_refuses_bad_arguments(roots, max_parents, match):
    with pytest.raises(ValueError, match=match):
        spanning_dag(CYCLE3, roots, max_parents)


@pytest.mark.parametrize("v", [0, 4])
def test_subgraph_refuses_nodes_outside_the_graph(v):
    with pytest.raises(ValueError, match=rf"^node {v} is outside 1\.\.3$"):
        subgraph(CYCLE3, {1, v})
