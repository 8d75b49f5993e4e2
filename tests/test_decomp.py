import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from distobs import (
    Plant,
    ToleranceConfig,
    apply_given_transformation,
    decomposition_from_transform,
    design_condition1,
    detectable_set,
    jordan_grouped,
    jordan_system,
    local_observer,
    multisensor_decompose,
    node_local_split,
)
from distobs import numkit as nk
from distobs.conditions import _RankTable
from distobs.errors import (
    IllConditionedJordan,
    InvalidTransform,
    NotDetectable,
    ShapeError,
)
from distobs.netgraph import Digraph
from conftest import krylov_observable, structured_plant

STAIR_A = np.array([
    [1.0, 2.0, -2.0, -15.0],
    [0.0, 2.0, 4.0, -16.0],
    [0.0, 0.0, 3.0, -3.0],
    [0.0, 0.0, 0.0, 0.0],
])
STAIR_C = (
    np.array([[7.0, -14.0, 35.0, 14.0]]),
    np.array([[0.0, 2.0, -8.0, -4.0]]),
    np.array([[0.0, 0.0, 5.0, -5.0]]),
)


def test_plant_validation():
    with pytest.raises(ShapeError):
        Plant(np.zeros((2, 3)), (np.zeros((1, 2)),))
    with pytest.raises(ShapeError):
        Plant(np.eye(2), (np.zeros((1, 3)),))
    with pytest.raises(ShapeError, match="a plant needs at least one state"):
        Plant(np.zeros((0, 0)), (np.zeros((0, 0)),))
    p = Plant(np.eye(2), (np.zeros((0, 2)), np.eye(2)))
    assert p.n == 2 and p.n_nodes == 2


def test_multisensor_decompose_staircase():
    p = Plant(STAIR_A, STAIR_C)
    d = multisensor_decompose(p)
    assert d.o == (1, 1, 1)
    assert d.u_dim == 1
    # round trip and block structure
    np.testing.assert_allclose(
        d.T @ d.Abar @ np.linalg.inv(d.T), p.A, atol=1e-8)
    for j in range(1, 4):
        sl = d.block_slice(j)
        assert sl.stop - sl.start == 1
        # each sub-state pair is observable from its source node's output
        src = d.source_node(j)
        assert krylov_observable(d.A_sub(j), d.C_block(src, j))
    # later blocks are invisible to earlier sensors
    for i in range(1, 4):
        pos = d.step_of_node[i]
        for j in range(pos + 1, 4):
            np.testing.assert_allclose(d.C_block(i, j), 0.0, atol=1e-9)
        np.testing.assert_allclose(
            d.Cbar[i - 1][:, d.unobs_slice], 0.0, atol=1e-9)


def test_single_sensor_observes_whole_state_at_n16():
    # node 1 of the cycle 1 -> 2 -> 3 -> 1 senses one random row of a random
    # 16-state plant; nodes 2 and 3 sense nothing.  The pair is observable,
    # so node 1's sub-state is the whole state and the structural gate passes.
    for seed in range(20):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((16, 16))
        blind = np.zeros((0, 16))
        p = Plant(A, (rng.standard_normal((1, 16)), blind, blind))
        d = multisensor_decompose(p)
        assert d.o == (16, 0, 0) and d.u_dim == 0


def test_multisensor_order_invariance_of_totals():
    p = Plant(STAIR_A, STAIR_C)
    base = multisensor_decompose(p)
    for order in ((2, 3, 1), (3, 1, 2), (3, 2, 1)):
        d = multisensor_decompose(p, order=order)
        assert sum(d.o) == sum(base.o)
        assert d.u_dim == base.u_dim
        np.testing.assert_allclose(
            sorted(np.linalg.eigvals(d.A_unobs).real), [0.0], atol=1e-8)


def test_apply_given_transformation_literal():
    p = Plant(np.array([[2.0, 1.0], [0.0, 0.5]]),
              (np.array([[1.0, 0.0]]),))
    T = np.array([[1.0, 1.0], [0.0, 1.0]])
    Abar, Cbars = apply_given_transformation(p, T)
    np.testing.assert_allclose(Abar, np.linalg.solve(T, p.A @ T))
    np.testing.assert_allclose(Cbars[0], p.C[0] @ T)


def test_apply_given_transformation_rejects_singular():
    p = Plant(np.eye(2), (np.eye(2),))
    with pytest.raises(InvalidTransform):
        apply_given_transformation(p, np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_decomposition_from_transform_cleans_structure():
    # an exact transform carrying printed-precision dust in the structural
    # zero positions: cleaning snaps those to exactly zero
    p = Plant(STAIR_A, STAIR_C)
    ref = multisensor_decompose(p)
    T = ref.T + 1e-4 * np.eye(4)
    d = decomposition_from_transform(p, T, ref.o, order=ref.order,
                                     structure_tol=1e-2)
    for i in range(1, 4):
        pos = d.step_of_node[i]
        for j in range(pos + 1, 4):
            assert np.all(d.C_block(i, j) == 0.0)
    # but a grossly wrong transform is refused
    with pytest.raises(InvalidTransform):
        decomposition_from_transform(
            p, np.eye(4), (1, 1, 1), structure_tol=1e-6)


# Diagonal plant with a planted block structure under T = I: slots 1-3 hold
# one coordinate each (node 4 measures nothing), the last coordinate is the
# tail.  Coordinates 0 and 2 share the eigenvalue 2.
GATE_C = (
    np.array([[1.0, 0.0, 0.0, 0.0]]),
    np.array([[0.0, 1.0, 0.0, 0.0]]),
    np.array([[0.0, 1.0, 1.0, 0.0]]),
    np.zeros((0, 4)),
)


def _shear(r, c, t):
    T = np.eye(4)
    T[r, c] = t
    return T


def test_structural_gate_names_upper_block():
    # T^-1 A T = A + t (a_0 - a_2) E_02: only block (1,3) breaks
    p = Plant(np.diag([2.0, 3.0, 5.0, 0.5]), GATE_C)
    with pytest.raises(InvalidTransform, match=(
        r"^transformed dynamics are not block lower triangular: "
        r"block \(1,3\) has magnitude 1\.5 \(threshold 5e-06\)$"
    )):
        decomposition_from_transform(p, _shear(0, 2, 0.5), (1, 1, 1, 0))


def test_structural_gate_names_node_output():
    # a_0 = a_2 leaves Abar untouched; only node 1's output picks up 0.5 on
    # coordinate 2, which lies in block 3
    p = Plant(np.diag([2.0, 3.0, 2.0, 0.5]), GATE_C)
    with pytest.raises(InvalidTransform, match=(
        r"^node 1's transformed output is nonzero on block 3, beyond its own "
        r"step 1$"
    )):
        decomposition_from_transform(p, _shear(0, 2, 0.5), (1, 1, 1, 0))


def test_structural_gate_zeroes_dust_exactly():
    p = Plant(np.diag([2.0, 3.0, 5.0, 0.5]), GATE_C)
    T = _shear(0, 2, 1e-9)
    raw_A, raw_C = apply_given_transformation(p, T)
    assert raw_A[0, 2] != 0.0 and raw_C[0][0, 2] != 0.0
    d = decomposition_from_transform(p, T, (1, 1, 1, 0))
    assert d.Abar[0, 2] == 0.0 and d.Cbar[0][0, 2] == 0.0
    assert np.all(np.triu(d.Abar, 1) == 0.0)
    for i in range(1, 4):
        assert np.all(d.Cbar[i - 1][:, i:] == 0.0)
    np.testing.assert_allclose(np.tril(d.Abar), np.tril(raw_A),
                               rtol=0, atol=1e-12)
    np.testing.assert_array_equal(d.T_inv, np.linalg.inv(T))


def test_observability_gate_guards_given_transforms_only(monkeypatch):
    p = Plant(np.diag([2.0, 3.0, 5.0, 0.5]), GATE_C)
    with pytest.raises(InvalidTransform, match=(
        r"^sub-state 1 \(node 1\) is not observable from its source node's "
        r"outputs under the given block sizes$"
    )):
        decomposition_from_transform(p, np.eye(4), (2, 1, 0, 0))
    calls = []

    def counted(*args, _orig=nk.obs_canon_decomp, **kwargs):
        calls.append(1)
        return _orig(*args, **kwargs)
    monkeypatch.setattr(nk, "obs_canon_decomp", counted)
    # a given transform: one staircase per nonempty sub-state
    decomposition_from_transform(p, np.eye(4), (1, 1, 1, 0))
    assert len(calls) == 3
    # a computed one: one per sensor step, and none again on the sub-states
    # those steps split off as observable
    p = Plant(STAIR_A, STAIR_C)
    calls.clear()
    assert multisensor_decompose(p).o == (1, 1, 1)
    assert len(calls) == 3
    calls.clear()
    design_condition1(p, Digraph(3, {(1, 2), (2, 3), (3, 1)}))
    # plus the collective check: one staircase per unstable class block on
    # the one source component's stacked outputs
    U = len(nk.eigen_info(p.A).unstable_classes())
    assert U == 3
    assert len(calls) == 3 + U


def test_decomposition_from_transform_dimension_checks():
    p = Plant(STAIR_A, STAIR_C)
    with pytest.raises(ShapeError):
        decomposition_from_transform(p, np.eye(4), (1, 1))
    with pytest.raises(ShapeError):
        decomposition_from_transform(p, np.eye(4), (2, 2, 2))


def test_jordan_grouped_diagonalizable():
    A = np.diag([2.0, 2.0, 0.5])
    T, classes = jordan_grouped(A)
    assert [c.dim for c in classes] == [2, 1]
    assert classes[0].rep == 2.0 and classes[1].rep == 0.5
    np.testing.assert_allclose(
        np.linalg.solve(T, A @ T),
        np.diag([2.0, 2.0, 0.5]), atol=1e-9)


def test_jordan_grouped_defective_and_complex():
    A = np.array([[2.0, 1.0], [0.0, 2.0]])
    T, classes = jordan_grouped(A)
    assert classes[0].dim == 2
    np.testing.assert_allclose(
        np.linalg.solve(T, A @ T), [[2.0, 1.0], [0.0, 2.0]], atol=1e-8)

    R = 1.3 * np.array([[np.cos(0.7), -np.sin(0.7)],
                        [np.sin(0.7), np.cos(0.7)]])
    T, classes = jordan_grouped(R)
    assert classes[0].complex_pair and classes[0].dim == 2
    assert abs(classes[0].rep) == pytest.approx(1.3)


def test_jordan_grouped_uncertifiable():
    # two eigenvalues the clustering keeps apart but the rank cutoff of each
    # class's polynomial cannot, against a third that sets the factors'
    # scale: the kernel takes both directions
    A = np.diag([2.0, 2.0 + 1e-9, 10.0])
    fine = ToleranceConfig(eig_cluster_tol=1e-10)
    with pytest.raises(IllConditionedJordan) as exc:
        jordan_grouped(A, fine)
    assert abs(exc.value.eigenvalue - 2.0) < 1e-6
    assert "kernel of its polynomial has dimension 2, not its multiplicity 1" \
        in str(exc.value)
    # alone, the pair's own distance sets the scale, and each class separates
    T, classes = jordan_grouped(A[:2, :2], fine)
    assert [c.dim for c in classes] == [1, 1]
    np.testing.assert_allclose(np.abs(T), [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)
    # clustered as one class, its first factor annihilates it
    T, classes = jordan_grouped(A)
    assert [c.dim for c in classes] == [1, 2]
    np.testing.assert_allclose(classes[0].block, [[10.0]], atol=1e-14)
    np.testing.assert_allclose(classes[1].block, 2 * np.eye(2), atol=1e-8)
    np.testing.assert_allclose(T.T @ T, np.eye(3), atol=1e-14)


def _planted_classes(rng):
    """``(A, planted)``: a real ``n x n`` matrix, n in 8..16, under a random
    basis, with a repeated diagonalizable eigenvalue, a 2x2 defective block,
    a complex pair and simple real eigenvalues; ``planted`` lists each
    class as ``(eigenvalue, real dimension)``."""
    n = int(rng.integers(8, 17))
    vals = rng.permutation(np.linspace(-2.0, 2.0, 17))
    m = int(rng.integers(2, 4))
    r, th = rng.uniform(0.3, 1.8), rng.uniform(0.3, 2.8)
    a, b = r * np.cos(th), r * np.sin(th)
    blocks = [vals[0] * np.eye(m), np.array([[vals[1], 1.0], [0.0, vals[1]]]),
              np.array([[a, b], [-b, a]])]
    planted = [(complex(vals[0]), m), (complex(vals[1]), 2),
               (complex(a, b), 2)]
    for v in vals[2:n - m - 2]:
        blocks.append(np.array([[v]]))
        planted.append((complex(v), 1))
    J0 = np.zeros((n, n))
    at = 0
    for blk in blocks:
        J0[at:at + len(blk), at:at + len(blk)] = blk
        at += len(blk)
    Q1, Q2 = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    V = Q1 @ np.diag(rng.uniform(0.5, 2.0, n)) @ Q2
    return V @ J0 @ np.linalg.inv(V), planted


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_class_bases_of_planted_classes(seed):
    A, planted = _planted_classes(np.random.default_rng(seed))
    # rounding splits the defective pair's eigenvalues by about
    # 2 sqrt(eps ||A|| cond(V)), up to 1e-7 here; the default clustering
    # tolerance would split that class along the real axis on 2 of draws
    # 0-4,999 (2453 and 2457)
    T, classes = jordan_grouped(A, ToleranceConfig(eig_cluster_tol=1e-6))
    key = [(round(lam.real, 6), round(abs(lam.imag), 6), dim)
           for lam, dim in planted]
    assert sorted(key) == sorted(
        (round(c.rep.real, 6), round(abs(c.rep.imag), 6), c.dim)
        for c in classes)
    J = np.zeros_like(A)
    at = 0
    for c in classes:
        V = T[:, at:at + c.dim]
        J[at:at + c.dim, at:at + c.dim] = c.block
        at += c.dim
        # one orthonormal basis per class, its block at the class's
        # eigenvalues (a defective pair scatters like sqrt(eps))
        assert np.linalg.norm(V.T @ V - np.eye(c.dim), 2) <= 1e-13
        for mu in np.linalg.eigvals(c.block):
            assert min(abs(mu - c.rep), abs(mu - c.rep.conjugate())) <= 1e-6
    assert np.linalg.norm(A @ T - T @ J, 2) <= 1e-12 * np.linalg.norm(A, 2)


@pytest.mark.parametrize("seed", [2586, 3997])
def test_class_bases_of_near_real_defective_pairs(seed):
    # the defective pair's eigenvalues come out as a conjugate pair whose
    # halves are within eig_cluster_tol of the axis but more than
    # eig_cluster_tol apart: one real class of dimension 2 all the same
    A, planted = _planted_classes(np.random.default_rng(seed))
    T, classes = jordan_grouped(A)
    assert sorted((round(lam.real, 6), round(abs(lam.imag), 6), dim)
                  for lam, dim in planted) == sorted(
        (round(c.rep.real, 6), round(abs(c.rep.imag), 6), c.dim)
        for c in classes)


def test_node_local_split_two_sensor_plant():
    A = np.diag([2.0, 2.0])
    T, classes = jordan_grouped(A)
    table = _RankTable(A, nk.DEFAULT_TOL)
    # node seeing only the first coordinate cannot detect the double mode;
    # the direction it does see augments its local pair
    C1 = np.array([[1.0, 0.0]])
    assert detectable_set(A, C1) == ()
    sp = node_local_split(T, classes, 1, C1, (), table.splits(1, C1, (0,)))
    assert sp.undetectable == (0,)
    assert (sp.det_dim, sp.aug_dim, sp.obs_dim) == (0, 1, 1)
    # a node with full measurements detects it
    assert detectable_set(A, np.eye(2)) == (0,)
    sp3 = node_local_split(T, classes, 3, np.eye(2), (0,),
                           table.splits(3, np.eye(2), (0,)))
    assert sp3.detectable == (0,)
    assert sp3.det_dim == 2
    assert sp3.aug_dim == 0
    assert sp3.obs_dim == 2
    # the split takes the caller's decision without testing it again; a
    # local pair that cannot carry it fails at the gain
    sp = node_local_split(T, classes, 1, C1, (0,), table.splits(1, C1, (0,)))
    assert (sp.det_dim, sp.obs_dim) == (2, 1)
    with pytest.raises(NotDetectable, match="^node 1: local error dynamics "
                       "have spectral radius 2"):
        local_observer(sp)


def test_jordan_system_assembles_per_node():
    p = Plant(np.diag([2.0, 2.0]),
              (np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), np.eye(2)))
    jsys = jordan_system(p)
    assert len(jsys.per_node) == 3
    assert jsys.class_slice(0) == slice(0, 2)
    np.testing.assert_allclose(jsys.T @ jsys.T_inv, np.eye(2), atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_decomposition_planted_oracle(seed):
    rng = np.random.default_rng(seed)
    p, oracle = structured_plant(rng)
    d = multisensor_decompose(p)
    n = oracle["n"]
    assert sum(d.o) + d.u_dim == n
    assert d.u_dim == oracle["u_dim"]
    normA = np.linalg.norm(p.A) or 1.0
    assert np.linalg.norm(
        d.T @ d.Abar @ np.linalg.inv(d.T) - p.A) <= 1e-7 * normA
    if d.u_dim:
        got = sorted(
            (complex(v) for v in np.linalg.eigvals(d.A_unobs)),
            key=lambda z: (z.real, z.imag))
        for a, b in zip(got, oracle["unobs_spectrum"]):
            assert abs(a - b) < 1e-6
