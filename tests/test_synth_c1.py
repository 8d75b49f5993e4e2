import sys
from dataclasses import replace

import numpy as np
import pytest

from distobs import (
    Digraph,
    Plant,
    assemble_compact_bank,
    certify_stability,
    design_condition1,
    design_gains,
    multisensor_decompose,
    simulate,
)
from distobs import netgraph
from distobs import numkit as nk
from distobs.errors import NotDetectable, NumericalError, ShapeError
from distobs.netgraph import spanning_dag
from conftest import (
    bundled_c1_design,
    random_strong_graph,
    relay_instance,
    structured_plant,
)

WORKED_PLANT = Plant(
    np.array([[1.0, 0.0, 0.0], [2.0, 2.0, 0.0], [-5.0, 0.0, 2.0]]),
    (
        np.array([[4.0, 4.0, 1.0]]),
        np.array([[11.0, 13.0, 3.0], [16.0, 18.0, 4.0]]),
        np.zeros((1, 3)),
    ),
)
WORKED_GRAPH = Digraph(3, {(1, 2), (2, 1), (2, 3)})


def _two_node_design():
    p = Plant(WORKED_PLANT.A, WORKED_PLANT.C[:2])
    g = Digraph(2, {(1, 2), (2, 1)})
    return p, g


def test_design_gains_deadbeat():
    p, _ = _two_node_design()
    d = multisensor_decompose(p)
    gains = design_gains(d)
    assert len(gains) == len(d.o)
    for j, L in enumerate(gains, 1):
        if d.o[j - 1] == 0:
            assert L.shape[0] == 0
            continue
        src = d.source_node(j)
        M = d.A_sub(j) - L @ d.C_block(src, j)
        assert nk.spectral_radius(M) < 1e-6


def test_design_gains_given_must_stabilize():
    p, _ = _two_node_design()
    d = multisensor_decompose(p)
    bad = {1: 100.0 * np.ones((d.o[0], p.C[d.source_node(1) - 1].shape[0]))}
    with pytest.raises(Exception) as exc:
        design_gains(d, given=bad)
    assert "spectral radius" in str(exc.value)


def test_design_names_the_component_of_a_failed_gain_placement(monkeypatch):
    def fail(A, C, tol=None):
        raise NumericalError("pole assignment failed")

    monkeypatch.setattr(nk, "place_observer_gain", fail)
    with pytest.raises(NumericalError, match=r"^component \{1, 2\}: gain "
                       r"synthesis for sub-state 1 failed: pole assignment "
                       r"failed$"):
        design_condition1(WORKED_PLANT, WORKED_GRAPH)


def _substate_routes(d, g):
    """Each nonempty sub-state's relay route with its static weights."""
    return {
        j: spanning_dag(g, {d.source_node(j)}, 1)
        for j in range(1, len(d.o) + 1) if d.o[j - 1]
    }


def _line_route(weights):
    """The route of the line 1 -> 2 -> 3 rooted at node 1, given
    ``weights`` in place of its static ones."""
    return replace(spanning_dag(Digraph(3, {(1, 2), (2, 3)}), {1}, 1),
                   weights=weights)


def test_consensus_weights_structure():
    g = Digraph(3, {(1, 2), (2, 3), (1, 3)})
    w = spanning_dag(g, {1}, 1)
    assert w.roots == (1,)
    for i, row in w.weights.items():
        assert i != 1
        total = sum(row.values())
        assert total == pytest.approx(1.0)
        for parent in row:
            assert (parent, i) in g.edges
    # follower block is strictly lower triangular in topological order,
    # hence nilpotent
    order = {v: k for k, v in enumerate(w.topo_order)}
    for i, row in w.weights.items():
        for parent in row:
            assert order[parent] < order[i]


def test_consensus_weights_validation():
    with pytest.raises(Exception):
        _line_route({2: {1: 0.5}, 3: {2: 1.0}})
    with pytest.raises(Exception):
        _line_route({1: {2: 1.0}, 2: {1: 1.0}, 3: {2: 1.0}})
    ok = _line_route({2: {1: 1.0}, 3: {2: 1.0}})
    assert ok.weights[2][1] == 1.0


def test_compact_bank_consistency_identity():
    # with every estimate equal to the true state, one bank step reproduces
    # the plant map exactly: the observer is unbiased by construction
    p, g = _two_node_design()
    d = multisensor_decompose(p)
    gains = design_gains(d)
    weights = _substate_routes(d, g)
    bank = assemble_compact_bank(d, gains, weights, g)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(p.n)
    for i in range(1, 3):
        v = bank.N_mat @ x
        for l, Gil in bank.G[i - 1].items():
            v = v + Gil @ x
        np.testing.assert_allclose(v, p.A @ x, atol=1e-9)


def test_certify_stability_worked_example():
    p, g = _two_node_design()
    d = multisensor_decompose(p)
    gains = design_gains(d)
    weights = _substate_routes(d, g)
    rep = certify_stability(d, gains, weights)
    assert rep.ok
    for cert in rep.certificates:
        assert cert.rho < 1e-6
    assert rep.rho_unobs == 0.0


def _composite_rho(d, gains, cw, j):
    """Spectral radius of sub-state ``j``'s full composite error matrix: the
    source's closed loop stacked over the followers' consensus copies
    (``kron(W21, A_jj)``, ``kron(W22, A_jj)``, the follower rows in
    ``topo_order`` against the source column and the other followers), as
    assembled before the certificate was reduced to the closed loop alone."""
    oj = d.o[j - 1]
    Ajj = d.A_sub(j)
    Acl = Ajj - gains[j - 1] @ d.C_block(d.source_node(j), j)
    (source,) = cw.roots
    followers = [v for v in cw.topo_order if v != source]
    col = {v: k for k, v in enumerate(followers)}
    m = len(followers)
    W21 = np.zeros((m, 1))
    W22 = np.zeros((m, m))
    for r, i in enumerate(followers):
        for l, w in cw.weights[i].items():
            if l == source:
                W21[r, 0] += w
            else:
                W22[r, col[l]] += w
    M = np.zeros(((m + 1) * oj, (m + 1) * oj))
    M[:oj, :oj] = Acl
    M[oj:, :oj] = np.kron(W21, Ajj)
    M[oj:, oj:] = np.kron(W22, Ajj)
    return nk.spectral_radius(M)


def _assert_certificate_matches_reference(d, gains, weights):
    tol = nk.DEFAULT_TOL
    rep = certify_stability(d, gains, weights, tol)
    ref_ok = nk.spectral_radius(d.A_unobs) <= 1.0 - tol.schur_margin
    nonempty = [j for j, oj in enumerate(d.o, 1) if oj]
    assert [c.substate for c in rep.certificates] == nonempty
    for cert in rep.certificates:
        j = cert.substate
        Acl = d.A_sub(j) - gains[j - 1] @ d.C_block(d.source_node(j), j)
        assert cert.rho == nk.spectral_radius(Acl)
        np.testing.assert_array_equal(cert.M, Acl)
        ref_ok &= _composite_rho(d, gains, weights[j], j) <= \
            1.0 - tol.schur_margin
    assert rep.ok == ref_ok
    return rep


def test_certificate_matches_composite_reference():
    design = design_condition1(WORKED_PLANT, WORKED_GRAPH)
    cases = [design.components[0]]
    rng = np.random.default_rng(20261018)
    for _ in range(24):
        p, _ = structured_plant(rng)
        design = design_condition1(p, random_strong_graph(rng, p.n_nodes))
        cases.extend(design.components)
    verdicts = set()
    for comp in cases:
        bank = comp.bank
        d = bank.decomposition
        _assert_certificate_matches_reference(d, bank.gains, bank.weights)
        # without correction each closed loop is A_jj itself, drawn with
        # spectral radius in [0.3, 1.1]: both verdicts occur
        idle = tuple(np.zeros_like(L) for L in bank.gains)
        rep = _assert_certificate_matches_reference(d, idle, bank.weights)
        verdicts.add(rep.ok)
    assert verdicts == {True, False}


def test_certify_stability_rejects_destabilizing_gain():
    # design_gains would refuse this gain; certify it directly
    p, g = _two_node_design()
    d = multisensor_decompose(p)
    gains = list(design_gains(d))
    assert gains[0].shape == (2, 1)
    gains[0] = np.array([[50.0], [50.0]])
    weights = _substate_routes(d, g)
    rep = _assert_certificate_matches_reference(d, gains, weights)
    assert not rep.ok
    assert rep.certificates[0].substate == 1
    assert rep.certificates[0].rho > 1.0


def test_consensus_weights_reject_follower_cycle():
    with pytest.raises(ValueError, match="strictly lower triangular"):
        _line_route({2: {3: 1.0}, 3: {2: 1.0}})


def test_design_condition1_rejects_weight_on_non_edge():
    # node 3 hears node 2 only; a weight on parent 1 could never be applied,
    # and node 3's error would stall while the certificate passed
    g = Digraph(3, {(1, 2), (2, 1), (2, 3), (3, 1), (3, 2)})
    bad = {1: {2: {1: 1.0}, 3: {1: 1.0}}}
    with pytest.raises(ValueError,
                       match="node 3 weights 1, which is not an in-neighbor"):
        design_condition1(WORKED_PLANT, g, weights=bad)
    good = {1: {2: {1: 1.0}, 3: {2: 1.0}}}
    design = design_condition1(WORKED_PLANT, g, weights=good)
    assert design.components[0].stability.ok
    tr = simulate(WORKED_PLANT, design, np.array([1.0, -1.0, 0.5]), K=200)
    assert np.all(tr.rel_err[:, -1] < 1e-9)


def test_design_condition1_full_network():
    design = design_condition1(WORKED_PLANT, WORKED_GRAPH)
    assert len(design.components) == 1
    comp = design.components[0]
    assert comp.nodes == (1, 2)
    assert comp.stability.ok
    assert design.relay is not None
    assert design.relay.relay_nodes == (3,)
    assert design.relay.roots == (1, 2)
    assert design.relay.parents(3) == (2,)
    assert design.relay.weights == {3: {2: 1.0}}
    assert design.component_of(1) == design.component_of(2)
    assert design.component_of(3) is None


def test_design_condition1_rejects_undetectable():
    p = Plant(np.diag([3.0]), (np.zeros((0, 1)), np.zeros((0, 1))))
    g = Digraph(2, {(1, 2), (2, 1)})
    with pytest.raises(NotDetectable) as exc:
        design_condition1(p, g)
    assert "{1, 2}" in str(exc.value)
    assert "3" in str(exc.value)


def test_design_condition1_order_override():
    design = design_condition1(WORKED_PLANT, WORKED_GRAPH, order=(2, 1, 3))
    d = design.components[0].bank.decomposition
    # node 2 processed first now claims its sub-state at step 1
    assert d.source_node(1) == 2
    with pytest.raises(ValueError):
        design_condition1(WORKED_PLANT, WORKED_GRAPH, order=(1, 2))
    with pytest.raises(ValueError):
        design_condition1(WORKED_PLANT, WORKED_GRAPH, order=(1, 2, 2))
    with pytest.raises(ValueError, match=r"^order must list every node id "
                       r"exactly once, got \(1\.5, 2, 3\)$"):
        design_condition1(WORKED_PLANT, WORKED_GRAPH, order=(1.5, 2, 3))


def test_design_condition1_weights_override():
    w = {1: {2: {1: 1.0}}, 2: {1: {2: 1.0}}}
    design = design_condition1(WORKED_PLANT, WORKED_GRAPH, weights=w)
    assert design.components[0].stability.ok
    bad = {1: {2: {1: 0.25}}}
    with pytest.raises(Exception):
        design_condition1(WORKED_PLANT, WORKED_GRAPH, weights=bad)
    outside = {1: {3: {1: 1.0}}}
    with pytest.raises(ValueError):
        design_condition1(WORKED_PLANT, WORKED_GRAPH, weights=outside)


@pytest.mark.parametrize("override", ["gains", "weights"])
def test_design_condition1_rejects_overrides_for_non_sources(override):
    # node 3 measures nothing, so it sources an empty sub-state
    given = {"gains": {3: np.zeros((0, 1))},
             "weights": {3: {2: {1: 1.0}}}}[override]
    with pytest.raises(ValueError, match=(
        f"^{override} given for node 3, which sources no nonempty "
        "sub-state$"
    )):
        design_condition1(WORKED_PLANT, WORKED_GRAPH, **{override: given})


# nodes 2 and 3 form the only source component (local ids 1 and 2) and
# each sources one sub-state; node 1 relays
GLOBAL_ID_PLANT = Plant(np.diag([2.0, 3.0]), (
    np.zeros((0, 2)), np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])))
GLOBAL_ID_GRAPH = Digraph(3, {(2, 3), (3, 2), (2, 1)})


@pytest.mark.parametrize("weights, message", [
    ({2: {3: {2: 0.5}}}, "weights of node 3 sum to 0.5, not 1"),
    ({2: {}}, "node 3 has no consensus weights for the route from [2]"),
    ({3: {2: {3: 0.5}}}, "weights of node 2 sum to 0.5, not 1"),
])
def test_design_condition1_weight_errors_name_global_ids(weights, message):
    with pytest.raises(ValueError) as exc:
        design_condition1(GLOBAL_ID_PLANT, GLOBAL_ID_GRAPH, weights=weights)
    assert str(exc.value) == message


@pytest.mark.parametrize("w", [float("nan"), float("inf")])
def test_design_condition1_rejects_non_finite_weight(w):
    with pytest.raises(ValueError, match="non-finite weight"):
        design_condition1(WORKED_PLANT, WORKED_GRAPH,
                          weights={1: {2: {1: w}}})


def test_design_condition1_given_gain_failure_is_numerical():
    bad_gains = {1: np.array([[50.0], [50.0]])}
    with pytest.raises(NumericalError):
        design_condition1(WORKED_PLANT, WORKED_GRAPH, gains=bad_gains)


def test_multiple_source_components():
    p = Plant(
        np.diag([2.0, 2.0]),
        (np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), np.eye(2)),
    )
    g = Digraph(3, {(1, 2), (2, 1)})
    design = design_condition1(p, g)
    assert len(design.components) == 2
    assert design.relay is None
    assert {tuple(c.nodes) for c in design.components} == {(1, 2), (3,)}
    for comp in design.components:
        assert comp.stability.ok


def _eager_G(bank):
    """Every ``G_il`` assembled up front for each node's closed
    in-neighborhood, as the bank once stored them: ``T @ M`` with ``M``'s
    row block ``j`` equal to ``w_ilj A_jj T^{-1}[j, :]``."""
    d, g = bank.decomposition, bank.graph
    n, T, Tinv = d.n, d.T, d.T_inv
    rows = {
        j: d.A_sub(j) @ Tinv[d.block_slice(j), :]
        for j, oj in enumerate(d.o, 1) if oj
    }
    slu = d.unobs_slice
    tail = d.A_unobs @ Tinv[slu, :]
    G = []
    for i in g.nodes:
        pos = d.step_of_node[i]
        gi = {}
        for l in g.closed_in_neighborhood(i):
            M = np.zeros((n, n))
            for j, Rj in rows.items():
                if j == pos:
                    w = float(l == i)
                else:
                    w = bank.weights[j].weights[i].get(l, 0.0)
                if w:
                    M[d.block_slice(j), :] = w * Rj
            if l == i and d.u_dim:
                M[slu, :] = tail
            gi[l] = T @ M
        G.append(gi)
    return G


def test_lazy_G_matches_eager_assembly():
    designs = [design_condition1(WORKED_PLANT, WORKED_GRAPH),
               bundled_c1_design("sec8.json")[1]]
    designs += [
        design_condition1(*relay_instance(seed, n_relay=n_relay),
                          max_parents=mp)
        for seed, n_relay, mp in ((21, 20, 1), (22, 20, 2), (23, 116, 1))
    ]
    for design in designs:
        for comp in design.components:
            assert "G" not in vars(comp.bank)
            ref = _eager_G(comp.bank)
            assert [list(gi) for gi in comp.bank.G] == [list(gi) for gi in ref]
            for gi, gr in zip(comp.bank.G, ref):
                for l in gi:
                    assert gi[l].shape == gr[l].shape
                    assert gi[l].tobytes() == gr[l].tobytes()
            assert comp.bank.G is comp.bank.G


def _count_calls(monkeypatch, fn):
    """Count the calls of ``fn`` made through any ``distobs`` module."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "distobs" or name.startswith("distobs."):
            for key, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, key, counted)
    return calls


@pytest.mark.parametrize("max_parents", [1, 2])
def test_design_builds_no_dense_neighbor_matrices(monkeypatch, max_parents):
    p, g = relay_instance(24)
    comps = _count_calls(monkeypatch, netgraph.source_components)
    dags = _count_calls(monkeypatch, netgraph.spanning_dag)
    design = design_condition1(p, g, max_parents=max_parents)
    assert len(comps) == 1
    nonempty = sum(oj > 0 for comp in design.components
                   for oj in comp.decomposition.o)
    assert len(dags) == nonempty + (design.relay is not None)
    simulate(p, design, np.ones(p.n), K=5)
    for comp in design.components:
        assert "G" not in vars(comp.bank)


@pytest.mark.parametrize("seed", [41, 42])
def test_compact_gains_equal_the_full_product(seed):
    # a 360-node core plus 40 relays, as the benchmark's networks: nearly
    # every core node has an empty sub-state, whose zero TH_i is no longer
    # formed as a product; every TH_i keeps the bytes of T[:, pos] @ L
    p, g = relay_instance(seed, n_nodes=400, n_relay=40)
    (comp,) = design_condition1(p, g).components
    d, bank = comp.decomposition, comp.bank
    assert sum(oj == 0 for oj in d.o) >= len(d.o) - 8
    for i in comp.graph.nodes:
        pos = d.step_of_node[i]
        ref = d.T[:, d.block_slice(pos)] @ bank.gains[pos - 1]
        assert bank.TH[i - 1].shape == ref.shape
        assert bank.TH[i - 1].tobytes() == ref.tobytes()


def test_assemble_compact_bank_needs_one_gain_per_node():
    p, g = _two_node_design()
    bank = design_condition1(p, g).components[0].bank
    for wrong in (bank.gains[:1], bank.gains + bank.gains[:1]):
        with pytest.raises(ShapeError,
                           match=f"^need 2 gains, got {len(wrong)}$"):
            assemble_compact_bank(bank.decomposition, wrong, bank.weights, g)


def test_given_transform_needs_one_component_and_its_block_sizes():
    # two nodes that hear no one are two source components
    p = Plant(np.array([[2.0]]), (np.eye(1), np.eye(1)))
    with pytest.raises(ShapeError, match="^a given transform requires "
                       "exactly one source component, found 2$"):
        design_condition1(p, Digraph(2), transform=np.eye(1),
                          transform_o=(1, 0))
    p, g = _two_node_design()
    for transform_o in (None, (3,), (2, 1, 0)):
        with pytest.raises(ShapeError, match="^a given transform needs one "
                           "block dimension per component node$"):
            design_condition1(p, g, transform=np.eye(3),
                              transform_o=transform_o)
