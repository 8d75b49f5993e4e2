from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from distobs import (
    Digraph,
    Plant,
    assemble_c2_bank,
    check_condition1,
    check_condition2,
    design_condition1,
    design_condition2,
    detectable_set,
    eig_consensus_weights,
    feasibility_report,
    jordan_grouped,
    jordan_system,
    local_observer,
    node_local_split,
    simulate,
    source_components,
    spanning_dag,
)
from distobs import conditions, decomp, synth_c2
from distobs.synth_c2 import C2NodeObserver
from distobs import numkit as nk
from distobs.conditions import (
    ComponentCheck,
    ConditionVerdict,
    FeasibilityReport,
    _RankTable,
)
from distobs.errors import (
    Condition2Infeasible,
    DistobsError,
    IllConditionedJordan,
    NotDetectable,
    NumericalError,
    ShapeError,
)
from distobs.netgraph import SpanningStructure
from conftest import random_strong_graph, relay_instance, structured_plant
import reference_bank

SCALAR_PLANT = Plant(
    np.array([[1.5]]),
    (np.array([[1.0]]), np.zeros((0, 1)), np.zeros((0, 1))),
)
SCALAR_GRAPH = Digraph(3, {(1, 2), (1, 3), (2, 1)})


def test_local_observer_scalar_deadbeat():
    jsys = jordan_system(SCALAR_PLANT)
    sp = jsys.per_node[0]
    assert sp.det_dim == 1
    L = local_observer(sp)
    np.testing.assert_allclose(L, [[1.5]], atol=1e-9)


def test_local_observer_zero_output():
    jsys = jordan_system(SCALAR_PLANT)
    sp = jsys.per_node[1]
    assert sp.det_dim == 0
    L = local_observer(sp)
    assert L.shape == (sp.det_dim + sp.aug_dim, 0)


def test_local_observer_rejects_bad_given():
    jsys = jordan_system(SCALAR_PLANT)
    sp = jsys.per_node[0]
    with pytest.raises(NotDetectable):
        local_observer(sp, given=np.array([[0.0]]))
    with pytest.raises(ShapeError):
        local_observer(sp, given=np.zeros((2, 2)))


def test_eig_consensus_weights_relay_tree():
    cw = eig_consensus_weights(SCALAR_GRAPH, (1,), 1.5)
    assert isinstance(cw, SpanningStructure)
    assert cw.roots == (1,)
    assert cw.weights[2] == {1: 1.0}
    assert cw.weights[3] == {1: 1.0}
    order = {v: k for k, v in enumerate(cw.topo_order)}
    for i, row in cw.weights.items():
        for parent in row:
            assert order[parent] < order[i]


def test_eig_consensus_weights_everywhere_and_nowhere():
    g = Digraph(2, {(1, 2), (2, 1)})
    cw = eig_consensus_weights(g, (1, 2), 2.0)
    assert cw.weights == {}
    with pytest.raises(Condition2Infeasible) as exc:
        eig_consensus_weights(g, (), 2.0)
    assert exc.value.eigenvalue == 2.0


def test_eig_consensus_weights_unreachable():
    g = Digraph(3, {(1, 2)})
    with pytest.raises(Condition2Infeasible) as exc:
        eig_consensus_weights(g, (1,), 2.0)
    assert "3" in str(exc.value)


def test_design_condition2_scalar_relay():
    bank = design_condition2(SCALAR_PLANT, SCALAR_GRAPH)
    assert bank.observer_dims() == (1, 1, 1)
    rec1 = bank.nodes[0]
    np.testing.assert_allclose(rec1.gain, [[1.5]], atol=1e-9)
    assert rec1.relayed == ()
    for rec in bank.nodes[1:]:
        assert len(rec.relayed) == 1
    assert set(bank.class_weights) == {0}
    assert bank.class_weights[0].roots == (1,)


def test_design_condition2_infeasible_names_eigenvalue():
    p = Plant(
        np.diag([2.0, 2.0]),
        (np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), np.eye(2)),
    )
    g = Digraph(3, {(1, 2), (2, 1)})
    with pytest.raises(Condition2Infeasible) as exc:
        design_condition2(p, g)
    assert exc.value.eigenvalue == 2.0
    assert "{1, 2}" in str(exc.value)


def test_design_condition2_full_coverage_no_exchange():
    # both nodes see everything: no consensus classes at all
    p = Plant(np.diag([2.0, 0.5]), (np.eye(2), np.eye(2)))
    g = Digraph(2, {(1, 2)})
    bank = design_condition2(p, g)
    assert bank.class_weights == {} or all(
        not cw.weights for cw in bank.class_weights.values())
    for rec in bank.nodes:
        assert rec.relayed == ()


def test_assemble_c2_bank_validates_gain_shape():
    jsys = jordan_system(SCALAR_PLANT)
    cw = eig_consensus_weights(SCALAR_GRAPH, (1,), 1.5)
    gains = [np.array([[1.5]]), np.zeros((0, 0)), np.zeros((0, 0))]
    bank = assemble_c2_bank(jsys, gains, {0: cw}, SCALAR_GRAPH)
    assert bank.observer_dims() == (1, 1, 1)
    bad = [np.zeros((2, 1)), np.zeros((0, 0)), np.zeros((0, 0))]
    with pytest.raises(ShapeError):
        assemble_c2_bank(jsys, bad, {0: cw}, SCALAR_GRAPH)


def test_assemble_c2_bank_relays_exactly_the_undetectable_classes():
    jsys = jordan_system(SCALAR_PLANT)
    gains = [np.array([[1.5]]), np.zeros((0, 0)), np.zeros((0, 0))]
    # node 2 cannot detect the class and no route carries it
    with pytest.raises(ValueError, match=r"^node 2 cannot detect eigenvalue "
                       r"classes \[0\] but its relay routes carry \[\]"):
        assemble_c2_bank(jsys, gains, {}, SCALAR_GRAPH)
    # node 1 detects the class, yet a route rooted at node 2 relays it
    cw = eig_consensus_weights(SCALAR_GRAPH, (2,), 1.5)
    with pytest.raises(ValueError, match=r"^node 1 cannot detect eigenvalue "
                       r"classes \[\] but its relay routes carry \[0\]"):
        assemble_c2_bank(jsys, gains, {0: cw}, SCALAR_GRAPH)


def test_design_condition2_mixed_stable_classes():
    # unstable class covered by node 1; stable class invisible to node 2:
    # the observers still assemble and certify locally
    p = Plant(
        np.diag([1.2, 0.4]),
        (np.eye(2), np.array([[1.0, 0.0]])),
    )
    g = Digraph(2, {(1, 2), (2, 1)})
    bank = design_condition2(p, g)
    dims = bank.observer_dims()
    assert len(dims) == 2
    for rec in bank.nodes:
        n_s = rec.split.det_dim + rec.split.aug_dim
        if n_s and rec.gain.size:
            pass  # gain validated Schur-stable during synthesis


LINE_GRAPH = Digraph(3, {(1, 2), (2, 3)})


def _constructed(weights, roots, topo_order):
    parent_sets = {v: (v - 1,) for v in topo_order if v not in roots}
    return SpanningStructure(roots, parent_sets, topo_order, weights)


def _replaced(weights, roots, topo_order):
    # the path a caller's own weights take
    route = spanning_dag(LINE_GRAPH, roots, 1)
    assert route.topo_order == topo_order
    return replace(route, weights=weights)


# the one route type validates its weights however it is built
ROUTE_BUILDS = pytest.mark.parametrize(
    "make", [_constructed, _replaced], ids=["constructed", "replaced"],
)


@ROUTE_BUILDS
@pytest.mark.parametrize("weights", [
    {2: {1: 1.0}, 3: {2: 1.0}},
    {2: {1: 1.0}, 3: {1: 0.25, 2: 0.75}},
    # a zero weight on a later node closes no cycle
    {2: {1: 1.0, 3: 0.0}, 3: {2: 1.0}},
])
def test_relay_weights_accept_valid_rows(make, weights):
    cw = make(weights, (1,), (1, 2, 3))
    assert cw.weights == weights


@ROUTE_BUILDS
@pytest.mark.parametrize("weights, match", [
    ({2: {1: 1.0}, 3: {1: 1.5, 2: -0.5}}, "negative weight -0.5 on edge 2->3"),
    ({2: {1: 1.0}, 3: {1: 0.5, 2: 0.25}}, "weights of node 3 sum to 0.75"),
    ({1: {2: 1.0}, 2: {1: 1.0}, 3: {2: 1.0}}, "node 1 is a root"),
    ({2: {3: 1.0}, 3: {1: 1.0}}, "strictly lower triangular"),
    ({2: {2: 1.0}, 3: {1: 1.0}}, "strictly lower triangular"),
    ({2: {1: 1.0}, 3: {4: 1.0}}, "node 3 weights 4, which covers nothing"),
    ({2: {1: 1.0}}, "node 3 has no consensus weights"),
    ({2: {1: 1.0}, 3: {2: float("nan")}}, "non-finite weight nan on edge 2->3"),
    ({2: {1: float("inf")}, 3: {2: 1.0}}, "non-finite weight inf on edge 1->2"),
])
def test_relay_weights_reject_invalid_rows(make, weights, match):
    with pytest.raises(ValueError, match=match):
        make(weights, (1,), (1, 2, 3))


# ---------------------------------------------------------------------------
# nodes with identical output matrices share their node-local results


def _per_node_reference(p, g, tol=nk.DEFAULT_TOL):
    """Every node-local result made for each node on its own: splits, gains
    and a feasibility report built from one ``detectable_set`` per node."""
    info = nk.eigen_info(p.A, tol)
    local = tuple(detectable_set(p.A, C_i, tol) for C_i in p.C)
    T, classes = jordan_grouped(p.A, tol)
    table = _RankTable(p.A, tol)
    splits = [node_local_split(T, classes, i, C_i, local[i - 1],
                               table.splits(i, C_i, range(len(classes))))
              for i, C_i in enumerate(p.C, 1)]
    gains = [local_observer(sp, tol=tol) for sp in splits]
    unstable = info.unstable_classes(tol)
    comps = tuple(source_components(g))
    checks = []
    for comp in comps:
        roots = {k: tuple(i for i in comp if k in local[i - 1])
                 for k in unstable}
        roots = {k: r for k, r in roots.items() if r}
        failing = tuple(info.classes[k].rep for k in unstable
                        if k not in roots)
        checks.append(ComponentCheck(comp, not failing, failing, roots))
    report = FeasibilityReport(
        classes=info.classes,
        unstable=unstable,
        per_node_detectable=local,
        root_sets={k: tuple(i for i in range(1, p.n_nodes + 1)
                            if k in local[i - 1]) for k in unstable},
        source_comps=comps,
        cond1=check_condition1(p, g, tol),
        cond2=ConditionVerdict(all(c.ok for c in checks), tuple(checks)),
        table=table,
    )
    return splits, gains, report


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _assert_same_split(a, b):
    assert (a.node, a.detectable, a.undetectable, a.det_dim, a.aug_dim,
            a.obs_dim) == (b.node, b.detectable, b.undetectable, b.det_dim,
                           b.aug_dim, b.obs_dim)
    for name in ("perm", "inner_split", "local_dynamics", "local_output",
                 "obs_basis", "relayed_output"):
        assert _same_bits(getattr(a, name), getattr(b, name)), name


def _with_shared_outputs(p, rng):
    """``p`` plus three sensorless nodes, two exact copies of one nonzero
    output matrix and one copy perturbed by one ulp, in shuffled order.
    Returns the plant and the node ids of (original, ulp copy)."""
    n = p.n
    k = next(i for i, C_i in enumerate(p.C) if C_i.shape[0])
    ulp = p.C[k].copy()
    ulp[0, 0] = np.nextafter(ulp[0, 0], np.inf)
    Cs = list(p.C) + [np.zeros((0, n))] * 3 + [p.C[k].copy()] * 2 + [ulp]
    perm = rng.permutation(len(Cs))
    where = {int(old): new for new, old in enumerate(perm, 1)}
    return (Plant(p.A, tuple(Cs[j] for j in perm)),
            (where[k], where[len(Cs) - 1]))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_shared_outputs_match_per_node_reference(seed):
    rng = np.random.default_rng(seed)
    base, _ = structured_plant(rng)
    p, (orig, ulp) = _with_shared_outputs(base, rng)
    g = random_strong_graph(rng, p.n_nodes)
    # exact grouping: the ulp copy shares nothing with the original
    assert p._output_rep[ulp - 1] == ulp != p._output_rep[orig - 1]
    assert len(set(p._output_rep)) < p.n_nodes
    splits, gains, ref = _per_node_reference(p, g)
    assert repr(feasibility_report(p, g)) == repr(ref)
    jsys = jordan_system(p)
    for got, want in zip(jsys.per_node, splits):
        _assert_same_split(got, want)
    if not ref.cond2.ok:
        return
    bank = design_condition2(p, g)
    assert repr(bank.report) == repr(ref)
    for rec, sp, L in zip(bank.nodes, splits, gains):
        _assert_same_split(rec.split, sp)
        assert _same_bits(rec.gain, L)
    # static weights take the first parent of the multi-parent DAG
    bank = design_condition2(p, g, max_parents=2)
    for k, cw in bank.class_weights.items():
        ref_cw = eig_consensus_weights(g, cw.roots, bank.jsys.classes[k].rep)
        assert (cw.weights, cw.topo_order) == (ref_cw.weights,
                                               ref_cw.topo_order)


def test_output_grouping_is_exact():
    z = np.zeros((1, 2))
    p = Plant(np.eye(2), (z, np.zeros((0, 2)), -z, z.copy(),
                          np.zeros((0, 2)), np.array([[0.0, 5e-324]])))
    assert p._output_rep == (1, 2, 3, 1, 2, 6)


def test_node_local_work_is_done_once_per_distinct_output(monkeypatch):
    # nodes 1 and 2 share an output, node 3 has its own and nodes 4..12
    # measure nothing: D = 3 distinct output matrices
    n_nodes = 12
    C = ((np.array([[1.0, 0.0, 0.0]]),) * 2 + (np.array([[0.0, 1.0, 0.0]]),)
         + (np.zeros((0, 3)),) * 9)
    p = Plant(np.diag([2.0, 1.5, 0.5]), C)
    edges = ({(1, 2), (2, 3), (3, 1)} | {(v, v + 1) for v in range(3, n_nodes)}
             | {(v, v + 2) for v in range(3, n_nodes - 1)})
    g = Digraph(n_nodes, edges)
    D = 3
    calls = {}

    def count(owner, name):
        calls[name] = 0

        def counted(*args, _orig=getattr(owner, name), **kwargs):
            calls[name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    numeric = ("pbh_rank_ok", "eigen_info", "_class_basis", "obs_canon_decomp")
    for name in numeric:
        count(conditions if name == "_class_basis" else nk, name)

    def made():
        got = tuple(calls[name] for name in numeric)
        for name in numeric:
            calls[name] = 0
        return got

    rep = feasibility_report(p, g)
    U, S, K = len(rep.unstable), len(rep.source_comps), len(rep.classes)
    assert (U, S, K) == (2, 1, 3)
    # one basis per unstable class, one staircase per (output, class) and
    # (component, class)
    assert made() == (0, 1, U, D * U + S * U)
    assert rep.per_node_detectable == ((0, 2), (0, 2), (1, 2)) + ((2,),) * 9

    # a split makes no rank decision: it is assembled from the table's
    # staircases, which the splits complete with the stable class
    count(decomp, "node_local_split")
    jsys = jordan_system(p, report=rep)
    assert calls["node_local_split"] == D
    assert made() == (0, 0, K - U, D * (K - U))
    assert [sp.node for sp in jsys.per_node] == list(range(1, n_nodes + 1))
    assert tuple(sp.detectable for sp in jsys.per_node) == \
        rep.per_node_detectable
    # without a report: one eigen-pass, every basis and every staircase of
    # each distinct output
    jordan_system(p)
    assert made() == (0, 1, K, D * K)

    count(synth_c2, "local_observer")
    count(synth_c2, "spanning_dag")
    bank = design_condition2(p, g, max_parents=2)
    # the local gains reuse the splits' staircases
    assert made() == (0, 1, K, D * K + S * U)
    assert calls["local_observer"] == D
    # one layering per relayed class: its route keeps every DAG parent for
    # the switching fallback, and the static weights take the first
    assert calls["spanning_dag"] == len(bank.class_weights) == 2
    for route in bank.class_weights.values():
        assert route.weights == {i: {ps[0]: 1.0}
                                 for i, ps in route.parent_sets.items()}
        assert max(len(ps) for ps in route.parent_sets.values()) == 2


SHARED_PLANT = Plant(
    np.diag([2.0, 0.5]),
    (np.zeros((0, 2)), np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]])),
)
SHARED_GRAPH = Digraph(3, {(1, 2), (2, 3), (3, 1)})


def test_shared_output_failure_names_lowest_node(monkeypatch):
    # a placement that leaves the unstable mode in place fails the group's
    # first synthesized gain, which is node 2's
    monkeypatch.setattr(nk, "place_observer_gain",
                        lambda A, C, tol=None: np.zeros(C.T.shape))
    with pytest.raises(NotDetectable, match="^node 2: local error"):
        design_condition2(SHARED_PLANT, SHARED_GRAPH)
    # a given gain is validated on its own node only
    with pytest.raises(NotDetectable, match="^node 3: local error"):
        design_condition2(SHARED_PLANT, SHARED_GRAPH,
                          gains={2: np.array([[2.0], [0.0]])})


def test_shared_output_given_gain_stays_with_its_node():
    base = design_condition2(SHARED_PLANT, SHARED_GRAPH)
    own = np.array([[1.9], [0.0]])
    bank = design_condition2(SHARED_PLANT, SHARED_GRAPH, gains={2: own})
    assert _same_bits(bank.nodes[1].gain, own)
    assert _same_bits(bank.nodes[2].gain, base.nodes[2].gain)
    with pytest.raises(NotDetectable, match="^node 2: local error"):
        design_condition2(SHARED_PLANT, SHARED_GRAPH,
                          gains={2: np.array([[0.0], [0.0]])})


# ---------------------------------------------------------------------------
# the bank is assembled once per output group


def _sensed_network(n_nodes, seed):
    """Three unstable modes, each seen by one sensing node, every other node
    blind, on a strongly connected graph: four output groups, as in the
    benchmark's Scheme-2 instances."""
    rng = np.random.default_rng(seed)
    C = [np.zeros((0, 4))] * n_nodes
    for k, i in enumerate(rng.choice(n_nodes, 3, replace=False)):
        C[i] = np.eye(4)[[k]]
    g = random_strong_graph(rng, n_nodes, extra=n_nodes)
    return Plant(np.diag([1.5, 1.2, -1.1, 0.5]), tuple(C)), g


BANK_CASES = pytest.mark.parametrize("make", [
    lambda: relay_instance(1),
    lambda: relay_instance(3),
    lambda: relay_instance(2, n_nodes=400, n_relay=40),
    lambda: _sensed_network(400, 0),
], ids=["relay-1", "relay-3", "relay-400", "sensed-400"])


@BANK_CASES
@pytest.mark.parametrize("own", [False, True], ids=["shared", "per-node"])
def test_grouped_assembly_matches_per_node_reference(make, own):
    p, g = make()
    bank = design_condition2(p, g, max_parents=2)
    gains = [rec.gain for rec in bank.nodes]
    if own:
        # one gain object per node, every other one a nested list to convert
        gains = [L.tolist() if i % 2 and L.size else L.copy()
                 for i, L in enumerate(gains)]
    got = assemble_c2_bank(bank.jsys, gains, bank.class_weights, g).nodes
    want = reference_bank.assemble_c2_records(bank.jsys, gains,
                                              bank.class_weights)
    assert len(got) == len(want) == p.n_nodes
    for a, b in zip(got, want):
        assert type(a) is C2NodeObserver
        assert (a.node, a.relayed, a.state_dim) == (b.node, b.relayed,
                                                    b.state_dim)
        assert a.split is b.split
        assert _same_bits(a.gain, b.gain)
    assert [rec.node for rec in bank.nodes] == list(range(1, p.n_nodes + 1))


def _first_error(assemble):
    with pytest.raises((DistobsError, ValueError)) as exc:
        assemble()
    return type(exc.value), str(exc.value)


# (node with a bad gain, node whose routes miss a class) as positions among
# the blind nodes; -1 puts the bad gain on the first sensing node instead
@pytest.mark.parametrize("bad_gain, bad_route", [
    (3, 7), (7, 3), (5, 5), (-1, 2), (2, None), (None, 4),
])
def test_grouped_assembly_raises_the_per_node_first_error(bad_gain,
                                                          bad_route):
    p, g = _sensed_network(40, 1)
    bank = design_condition2(p, g)
    blind = [i for i in range(1, 41) if not p.C[i - 1].shape[0]]
    sensing = [i for i in range(1, 41) if p.C[i - 1].shape[0]]
    gains = [rec.gain for rec in bank.nodes]
    routes = dict(bank.class_weights)
    bad = []
    if bad_gain is not None:
        i = sensing[0] if bad_gain < 0 else blind[bad_gain]
        gains[i - 1] = np.zeros((gains[i - 1].shape[0] + 1, 1))
        bad.append(i)
    if bad_route is not None:
        # making a blind node a root of a class takes it off that route
        k, route = next(iter(routes.items()))
        routes[k] = spanning_dag(g, set(route.roots) | {blind[bad_route]}, 1)
        bad.append(blind[bad_route])
    got = _first_error(
        lambda: assemble_c2_bank(bank.jsys, gains, routes, g))
    want = _first_error(lambda: reference_bank.assemble_c2_records(
        bank.jsys, gains, routes))
    assert got == want
    assert got[1].startswith((f"gain of node {min(bad)} ",
                              f"node {min(bad)} "))


def test_classes_out_of_order_match_no_routes():
    # node 2's routes carry classes 0 and 1, which its split lists as 1, 0
    p = Plant(np.diag([1.5, 1.2]),
              (np.eye(2), np.zeros((0, 2)), np.zeros((0, 2))))
    bank = design_condition2(p, SCALAR_GRAPH)
    split = bank.jsys.per_node[1]
    assert split.undetectable == (0, 1)
    jsys = replace(bank.jsys, per_node=(
        bank.jsys.per_node[0], replace(split, undetectable=(1, 0)),
        bank.jsys.per_node[2]))
    gains = [rec.gain for rec in bank.nodes]
    got = _first_error(lambda: assemble_c2_bank(
        jsys, gains, bank.class_weights, SCALAR_GRAPH))
    assert got == _first_error(lambda: reference_bank.assemble_c2_records(
        jsys, gains, bank.class_weights))
    assert got[1].startswith("node 2 cannot detect eigenvalue classes [1, 0] "
                             "but its relay routes carry [0, 1]")


def test_state_dimension_invariant_is_an_explicit_raise():
    # a split that claims node 1 detects nothing yet relays nothing leaves
    # the scalar plant's state unaccounted for
    jsys = jordan_system(SCALAR_PLANT)
    broken = replace(jsys.per_node[0], det_dim=0)
    jsys = replace(jsys, per_node=(broken,) + jsys.per_node[1:])
    cw = eig_consensus_weights(SCALAR_GRAPH, (1,), 1.5)
    gains = [np.zeros((0, 1)), np.zeros((0, 0)), np.zeros((0, 0))]
    with pytest.raises(ShapeError, match=r"^node 1 has 0 observer states, "
                       r"not n \+ aug_dim = 1"):
        assemble_c2_bank(jsys, gains, {0: cw}, SCALAR_GRAPH)
    with pytest.raises(AssertionError):
        reference_bank.assemble_c2_records(jsys, gains, {0: cw})


def test_gains_are_validated_once_per_gain_and_group(monkeypatch):
    p, g = _sensed_network(400, 2)
    bank = design_condition2(p, g)
    assert len(set(p._output_rep)) == 4
    names = []

    def counted(M, name="matrix", *args, _orig=nk.as_matrix, **kwargs):
        names.append(name)
        return _orig(M, name, *args, **kwargs)

    monkeypatch.setattr(nk, "as_matrix", counted)
    shared = [rec.gain for rec in bank.nodes]
    assemble_c2_bank(bank.jsys, shared, bank.class_weights, g)
    first = sorted(dict.fromkeys(p._output_rep))
    assert names == [f"gain of node {i}" for i in first]
    names.clear()
    assemble_c2_bank(bank.jsys, [L.copy() for L in shared],
                     bank.class_weights, g)
    assert len(names) == 400


def test_assemble_c2_bank_refuses_wrong_counts_and_foreign_nodes():
    jsys = jordan_system(SCALAR_PLANT)
    cw = eig_consensus_weights(SCALAR_GRAPH, (1,), 1.5)
    gains = [np.array([[1.5]]), np.zeros((0, 0)), np.zeros((0, 0))]
    for wrong in (gains[:2], gains + gains[:1]):
        with pytest.raises(ShapeError,
                           match=f"^need 3 gains, got {len(wrong)}$"):
            assemble_c2_bank(jsys, wrong, {0: cw}, SCALAR_GRAPH)
    # routes of a larger network name nodes the plant does not have
    big = Digraph(4, {(1, 2), (1, 3), (2, 1), (3, 4), (4, 1)})
    zero = SpanningStructure((0,), {v: (0,) for v in (1, 2, 3)}, (0, 1, 2, 3),
                             {v: {0: 1.0} for v in (1, 2, 3)})
    for route, v in ((eig_consensus_weights(big, (1,), 1.5), 4),
                     (eig_consensus_weights(big, (4,), 1.5), 4), (zero, 0)):
        with pytest.raises(ShapeError, match=f"^the route of eigenvalue "
                           f"class 0 names node {v}, outside the plant's "
                           r"nodes 1\.\.3$"):
            assemble_c2_bank(jsys, gains, {0: route}, SCALAR_GRAPH)


@pytest.mark.parametrize("n_graph", [2, 4])
def test_plant_and_graph_must_have_the_same_nodes(n_graph):
    p = Plant(np.diag([1.5, 0.5, 1.2]),
              (np.eye(3), np.zeros((0, 3)), np.zeros((0, 3))))
    g = Digraph(n_graph, {(v, v + 1) for v in range(1, n_graph)})
    match = f"^the plant has 3 nodes but the graph has {n_graph}$"
    for run in (feasibility_report, check_condition1, check_condition2,
                design_condition1, design_condition2):
        with pytest.raises(ShapeError, match=match):
            run(p, g)
    # nor does a report made on a graph of the right size let it through
    rep = feasibility_report(p, Digraph(3, {(1, 2), (2, 3)}))
    with pytest.raises(ShapeError, match=match):
        design_condition2(p, g, report=rep)


@pytest.mark.parametrize("given", [
    {}, {1: 0}, {2: 0}, {1: 0, 2: 0}, {4: 0, 12: 0},
    {v: 0 for v in range(4, 13)}, {3: 0, 5: None},
])
def test_gain_loop_works_per_group_in_node_order(monkeypatch, given):
    # nodes 1 and 2 share an output, node 3 has its own and nodes 4..12
    # measure nothing
    C = ((np.array([[1.0, 0.0, 0.0]]),) * 2 + (np.array([[0.0, 1.0, 0.0]]),)
         + (np.zeros((0, 3)),) * 9)
    p = Plant(np.diag([2.0, 1.5, 0.5]), C)
    g = Digraph(12, {(v, v % 12 + 1) for v in range(1, 13)})
    base = design_condition2(p, g)
    # each given gain is a fresh copy of the one the design would make
    gains = {i: None if v is None else base.nodes[i - 1].gain.copy()
             for i, v in given.items()}
    calls = []

    def logged(split, given=None, tol=None, _orig=synth_c2.local_observer):
        calls.append((split.node, given is not None))
        return _orig(split, given=given, tol=tol)

    monkeypatch.setattr(synth_c2, "local_observer", logged)
    bank = design_condition2(p, g, gains=gains)
    assert calls == reference_bank.gain_calls(p, gains)
    for rec, ref in zip(bank.nodes, base.nodes):
        assert _same_bits(rec.gain, ref.gain)
        if gains.get(rec.node) is not None:
            assert rec.gain is not ref.gain
    assert len(bank.class_weights) == len(base.class_weights)


@pytest.mark.parametrize("unknown", [0, 4])
def test_gains_for_unknown_nodes_are_refused(unknown):
    own = np.array([[1.9], [0.0]])
    with pytest.raises(ValueError, match=r"^gains given for unknown nodes "
                       rf"\[{unknown}\]$"):
        design_condition2(SHARED_PLANT, SHARED_GRAPH,
                          gains={unknown: own, 2: own})
    # a given gain of the wrong shape is refused first, at its node
    with pytest.raises(ShapeError, match="^given gain must have 2 rows, got 1$"):
        design_condition2(SHARED_PLANT, SHARED_GRAPH,
                          gains={unknown: own, 3: np.zeros((1, 1))})


# ---------------------------------------------------------------------------
# the splits and the relay routes rest on one rank decision


def test_split_follows_the_table_when_coordinates_disagree():
    # node 1 sees the unstable mode at 1e-6: undetectable in plant
    # coordinates, detectable in Jordan coordinates.  The split takes the
    # table's decision, so node 1 relays the class from node 2.
    p = Plant(np.array([[1.5, 1e4], [0.0, 0.5]]),
              (np.array([[1e-6, 1.0]]), np.array([[1.0, 0.0]])))
    g = Digraph(2, {(1, 2), (2, 1)})
    rep = feasibility_report(p, g)
    assert rep.per_node_detectable == ((1,), (0, 1))
    assert rep.root_sets == {0: (2,)}
    bank = design_condition2(p, g)
    assert tuple(sp.detectable for sp in bank.jsys.per_node) == \
        rep.per_node_detectable
    assert bank.class_weights[0].parent_sets == {1: (2,)}
    assert bank.nodes[0].relayed == ((0, bank.jsys.class_slice(0)),)
    tr = simulate(p, bank, [1.0, -1.0], K=10)
    assert (tr.rel_err[:, -1] < 1e-12).all()


def test_blind_node_detects_nothing():
    # eigenvalues 1.5 +- 4e-8 i form one real class of dimension 2; node 2
    # measures nothing, so it detects nothing and relays the class
    d = 4e-8
    p = Plant(np.array([[1.5, d], [-d, 1.5]]),
              (np.array([[1.0, 0.0]]), np.zeros((0, 2))))
    g = Digraph(2, {(1, 2), (2, 1)})
    rep = feasibility_report(p, g)
    assert [(c.rep, c.dim) for c in rep.classes] == [(1.5, 2)]
    assert rep.root_sets == {0: (1,)}
    assert rep.per_node_detectable[1] == ()
    bank = design_condition2(p, g)
    assert bank.nodes[1].relayed == ((0, bank.jsys.class_slice(0)),)
    assert bank.class_weights[0].parent_sets == {2: (1,)}
    # node 1 sees the second direction through the 4e-8 coupling only, so
    # its deadbeat gain is large (5.6e7) and rounding stays near 1e-11
    assert np.linalg.norm(bank.nodes[0].gain, 2) < 1e8
    tr = simulate(p, bank, [1.0, -1.0], K=40)
    assert (tr.rel_err[:, -1] < 1e-9).all()


def _near_cutoff_plant(rng):
    """One real unstable eigenvalue with eigenvector ``v``; every output
    row is a random unit vector orthogonal to ``v`` plus ``10^U(-12, -3)``
    times ``v``, so each row's rank test sits near the cutoff."""
    n, N = int(rng.integers(2, 6)), int(rng.integers(2, 5))
    V = rng.standard_normal((n, n))
    while np.linalg.cond(V) > 50:
        V = rng.standard_normal((n, n))
    lam = np.concatenate([[rng.choice([-1, 1]) * rng.uniform(1.1, 2.0)],
                          rng.uniform(-0.9, 0.9, n - 1)])
    v = V[:, 0] / np.linalg.norm(V[:, 0])
    C = []
    for _ in range(N):
        rows = rng.standard_normal((int(rng.integers(1, 3)), n))
        rows -= np.outer(rows @ v, v)
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        C.append(rows + np.outer(10 ** rng.uniform(-12, -3, len(rows)), v))
    return Plant(V @ np.diag(lam) @ np.linalg.inv(V), tuple(C))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
# draws whose splits kept a relayed residual that their own local-pair split
# then lost, so the design failed where the table's coverage held
@example(567)
@example(598)
@example(816)
@example(1806)
def test_splits_equal_the_table_near_the_cutoff(seed):
    p = _near_cutoff_plant(np.random.default_rng(seed))
    g = Digraph(p.n_nodes, {(j, i) for i in range(1, p.n_nodes + 1)
                            for j in range(1, p.n_nodes + 1) if i != j})
    try:
        rep = feasibility_report(p, g)
    except NumericalError as exc:
        # the table refuses its own decisions when a component's stacked
        # decision misses a class one of its nodes detects
        assert "rank decisions are inconsistent" in str(exc)
        return
    except IllConditionedJordan:
        return
    for report in (None, rep):
        jsys = jordan_system(p, report=report)
        assert tuple(sp.detectable for sp in jsys.per_node) == \
            rep.per_node_detectable
    # the design builds exactly when the table's coverage holds
    if rep.cond2.ok:
        bank = design_condition2(p, g, report=rep)
        assert tuple(sp.detectable for sp in bank.jsys.per_node) == \
            rep.per_node_detectable
        # a mode the staircase keeps is placed however weakly it is seen:
        # its gain is the inverse of the placement freedom, which the
        # staircase's cutoff keeps near rank_tol (the largest gain over
        # draws 0-5,999 is 1.0e10)
        assert max(np.linalg.norm(rec.gain, 2) for rec in bank.nodes
                   if rec.gain.size) <= 100 / nk.DEFAULT_TOL.rank_tol
    else:
        with pytest.raises(Condition2Infeasible):
            design_condition2(p, g, report=rep)
