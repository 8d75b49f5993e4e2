import numpy as np
import pytest

from distobs import (
    Digraph,
    Plant,
    assemble_c2_bank,
    design_condition2,
    eig_consensus_weights,
    jordan_system,
    local_observer,
)
from distobs import numkit as nk
from distobs.errors import Condition2Infeasible, NotDetectable, ShapeError
from distobs.synth_c1 import ConsensusWeights
from distobs.synth_c2 import ClassWeights

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


def _consensus_weights(weights, roots, topo_order):
    (source,) = roots
    return ConsensusWeights(source=source, weights=weights,
                            topo_order=topo_order)


def _class_weights(weights, roots, topo_order):
    return ClassWeights(0, 2.0, roots, weights, topo_order)


BOTH_WEIGHT_KINDS = pytest.mark.parametrize(
    "make", [_consensus_weights, _class_weights],
    ids=["ConsensusWeights", "ClassWeights"],
)


@BOTH_WEIGHT_KINDS
@pytest.mark.parametrize("weights", [
    {2: {1: 1.0}, 3: {2: 1.0}},
    {2: {1: 1.0}, 3: {1: 0.25, 2: 0.75}},
    # a zero weight on a later node closes no cycle
    {2: {1: 1.0, 3: 0.0}, 3: {2: 1.0}},
])
def test_relay_weights_accept_valid_rows(make, weights):
    cw = make(weights, (1,), (1, 2, 3))
    assert cw.weights == weights


@BOTH_WEIGHT_KINDS
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
