import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from distobs import numkit as nk
from distobs.decomp import multisensor_decompose
from distobs.errors import (
    InvalidMatrix,
    NotObservable,
    NumericalError,
    ShapeError,
)
from conftest import (
    krylov_observable,
    observability_matrix,
    random_orthogonal,
    structured_plant,
)


def test_tolerance_defaults():
    tol = nk.DEFAULT_TOL
    assert tol.rank_tol == 1e-9
    assert tol.eig_cluster_tol == 1e-7
    assert tol.schur_margin == 1e-6


def test_as_matrix_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        nk.as_matrix(np.zeros((2, 3)), "M", rows=3)
    with pytest.raises(ShapeError):
        nk.as_matrix(np.zeros((2, 3)), "M", cols=2)
    with pytest.raises(InvalidMatrix):
        nk.as_matrix(np.array([[np.nan, 0.0]]), "M")
    with pytest.raises(InvalidMatrix, match="^M is not a real matrix: "):
        nk.as_matrix("abc", "M")
    with pytest.raises(InvalidMatrix, match="^M must be 2-D, got ndim=3$"):
        nk.as_matrix(np.zeros((2, 2, 2)), "M")
    with pytest.raises(ShapeError):
        nk.as_square(np.zeros((2, 3)), "M")


def test_matrix_rank_literal():
    M = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert nk.matrix_rank(M) == 1
    assert nk.matrix_rank(np.eye(3)) == 3
    assert nk.matrix_rank(np.zeros((2, 2))) == 0
    # the cutoff is relative: a tiny matrix is full rank on its own scale
    assert nk.matrix_rank(1e-12 * np.eye(2)) == 2


def test_matrix_rank_edge_shapes():
    with pytest.raises(InvalidMatrix, match="^rank input must be 2-D, got ndim=3$"):
        nk.matrix_rank(np.zeros((2, 2, 2)))
    assert nk.matrix_rank(np.zeros((0, 3))) == 0


def test_observability_matrix_literal():
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    C = np.array([[1.0, 0.0]])
    O = observability_matrix(A, C)
    assert O.shape == (2, 2)
    np.testing.assert_allclose(O, [[1.0, 0.0], [1.0, 1.0]])
    assert nk.is_observable(A, C)
    assert not nk.is_observable(A.T, C)


def test_obs_canon_decomp_structure():
    # diagonal plant seen only in its first two coordinates
    A = np.diag([2.0, 3.0, 0.5])
    C = np.array([[1.0, 1.0, 0.0]])
    T, k = nk.obs_canon_decomp(A, C)
    assert k == 2
    np.testing.assert_allclose(T @ T.T, np.eye(3), atol=1e-12)
    Ab = T.T @ A @ T
    Cb = C @ T
    np.testing.assert_allclose(Ab[:k, k:], 0.0, atol=1e-9)
    np.testing.assert_allclose(Cb[:, k:], 0.0, atol=1e-9)
    assert krylov_observable(Ab[:k, :k], Cb[:, :k])
    # unobservable block carries the unseen eigenvalue
    np.testing.assert_allclose(np.linalg.eigvals(Ab[k:, k:]), [0.5])


def test_obs_canon_decomp_edge_cases():
    T, k = nk.obs_canon_decomp(np.zeros((0, 0)), np.zeros((0, 0)))
    assert k == 0 and T.shape == (0, 0)
    T, k = nk.obs_canon_decomp(np.eye(2), np.zeros((0, 2)))
    assert k == 0
    np.testing.assert_allclose(T, np.eye(2))


def _pbh_observable(A, C):
    """Reference: ``[A - lam I; C]`` keeps full column rank at every
    eigenvalue of ``A``, relative to ``max(||A||_2, ||C||_2)``."""
    n = len(A)
    scale = max(np.linalg.norm(A, 2), np.linalg.norm(C, 2))
    return all(
        np.linalg.svd(np.vstack([A - lam * np.eye(n), C]),
                      compute_uv=False)[-1] > 1e-9 * scale
        for lam in np.linalg.eigvals(A)
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
@example(seed=3559)
def test_obs_canon_decomp_planted_block_large_n(seed):
    # a k-dimensional observable block planted under a random orthogonal
    # basis at n = 8..16, where the Krylov stack's rows span 1e10 and more
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 17))
    k = int(rng.integers(1, n + 1))
    r = int(rng.integers(1, 3))
    Abar = rng.standard_normal((n, n))
    Abar[:k, k:] = 0.0
    Cbar = np.zeros((r, n))
    Cbar[:, :k] = rng.standard_normal((r, k))
    Q = random_orthogonal(rng, n)
    A, C = Q @ Abar @ Q.T, Cbar @ Q.T
    T, n_obs = nk.obs_canon_decomp(A, C)
    assert n_obs == k
    np.testing.assert_allclose(T.T @ T, np.eye(n), atol=1e-12)
    # each staircase step carries the rounding of the steps before it, more
    # so when the planted block is weakly observable: over 20,000 draws the
    # upper block had median 4e-16, 99.9th percentile 1.5e-12 and maximum
    # 9.4e-12 of ||A||_2 (seed 3559), while the Krylov split misses by 1e-9
    # and more.  The bound is about 10x the largest observed.
    upper = np.abs((T.T @ A @ T)[:k, k:]).max(initial=0.0)
    assert upper <= 1e-10 * np.linalg.norm(A, 2)
    tail = np.abs((C @ T)[:, k:]).max(initial=0.0)
    assert tail <= 1e-12 * np.linalg.norm(C, 2)
    # a random pair of the same size, against the PBH reference
    A, C = rng.standard_normal((n, n)), rng.standard_normal((r, n))
    assert (nk.obs_canon_decomp(A, C)[1] == n) == _pbh_observable(A, C)


def test_pbh_literals():
    A = np.diag([2.0, 0.5])
    C = np.array([[1.0, 0.0]])
    assert nk.pbh_rank_ok(A, C, 0.5) is False
    assert nk.pbh_rank_ok(A, C, 2.0) is True


def test_eigen_info_clusters_and_pairs():
    A = np.array([[0.0, -1.0], [1.0, 0.0]])  # eigenvalues +-i, one fused pair
    info = nk.eigen_info(A)
    assert len(info.classes) == 1
    cls = info.classes[0]
    assert cls.complex_pair and cls.dim == 2
    assert cls.rep.imag > 0
    assert sum(c.dim for c in info.classes) == 2

    B = np.diag([2.0, 2.0, 0.5])
    info = nk.eigen_info(B)
    assert sorted(c.dim for c in info.classes) == [1, 2]
    assert {complex(r) for r in (c.rep for c in info.classes)} == {2.0, 0.5}
    assert info.unstable_classes() == tuple(
        k for k, c in enumerate(info.classes) if abs(c.rep) >= 1.0 - 1e-7
    )


def test_eigen_info_boundary_margin():
    # a mode numerically on the unit circle counts as needing coverage
    A = np.array([[1.0 - 1e-9]])
    info = nk.eigen_info(A)
    assert info.unstable_classes() == (0,)
    B = np.array([[1.0 - 1e-3]])
    assert nk.eigen_info(B).unstable_classes() == ()


def test_eigen_info_near_real_pair_is_one_class():
    # eigenvalues 1.5 +- 7.5e-8 i: 1.5e-7 apart, so a clustering of the raw
    # spectrum splits them, yet neither half is off the axis by more than
    # eig_cluster_tol
    d = 7.5e-8
    info = nk.eigen_info(np.array([[1.5, d], [-d, 1.5]]))
    assert [(c.rep, c.dim, c.complex_pair) for c in info.classes] == [
        (1.5 + 0j, 2, False)]
    assert info.unstable_classes() == (0,)


def _fused_classes(A, tol=nk.DEFAULT_TOL):
    """Reference clustering: cluster the raw spectrum, flatten near-real
    clusters onto the axis, then fuse each complex cluster with the first
    cluster near its mirror.  ``(rep, dim, complex_pair)`` per class in
    :func:`numkit.eigen_info`'s order."""
    w = np.linalg.eigvals(A)
    t = tol.eig_cluster_tol
    raw, left = [], set(range(len(w)))
    while left:  # transitive closure of |w_i - w_j| <= t, by lowest index
        grp, todo = set(), [min(left)]
        while todo:
            i = todo.pop()
            if i not in grp:
                grp.add(i)
                todo += [j for j in left if abs(w[i] - w[j]) <= t]
        left -= grp
        idx = sorted(grp)
        rep = complex(np.mean(w[idx]))
        raw.append((complex(rep.real, 0.0) if abs(rep.imag) <= t else rep,
                    len(idx)))
    classes, used = [], set()
    for a, (rep, dim) in enumerate(raw):
        if a in used:
            continue
        used.add(a)
        if rep.imag == 0.0:
            classes.append((rep, dim, False))
            continue
        b = next(b for b in range(a + 1, len(raw)) if b not in used
                 and abs(raw[b][0] - rep.conjugate()) <= 2 * t)
        used.add(b)
        classes.append((rep if rep.imag > 0 else rep.conjugate(),
                        dim + raw[b][1], True))
    return sorted(classes, key=lambda c: (-abs(c[0]), -c[0].real, c[0].imag))


def _random_spectrum(rng):
    """A real matrix of order 1..16 under a random basis, with repeated
    real eigenvalues and complex pairs, diagonal and defective; rounded
    values make exact repeats across blocks likely."""
    n = int(rng.integers(1, 17))
    blocks, left = [], n
    while left:
        kind = int(rng.integers(0, 4)) if left > 1 else 0
        v = round(float(rng.uniform(-2.0, 2.0)), int(rng.integers(1, 3)))
        if kind == 0:
            m = int(rng.integers(1, min(left, 3) + 1))
            blocks.append(v * np.eye(m))
        elif kind == 1:
            blocks.append(np.array([[v, 1.0], [0.0, v]]))
        else:
            a, b = v / 1.4, round(float(rng.uniform(0.05, 1.5)), 1)
            R = np.array([[a, b], [-b, a]])
            if kind == 3 and left >= 4:
                R = np.kron(np.eye(2), R) + np.kron(
                    [[0.0, float(rng.integers(0, 2))], [0.0, 0.0]], np.eye(2))
            blocks.append(R)
        left -= len(blocks[-1])
    J = np.zeros((n, n))
    at = 0
    for blk in blocks:
        J[at:at + len(blk), at:at + len(blk)] = blk
        at += len(blk)
    V = rng.standard_normal((n, n))
    return V @ J @ np.linalg.inv(V)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6))
def test_eigen_info_matches_fused_reference(seed):
    A = _random_spectrum(np.random.default_rng(seed))
    ref = _fused_classes(A)
    got = [(c.rep, c.dim, c.complex_pair) for c in nk.eigen_info(A).classes]
    assert sum(dim for _, dim, _ in got) == A.shape[0]
    # the reference can split a near-real pair into two classes at one
    # representative; everywhere else the two agree bit for bit
    if len({rep for rep, _, _ in ref}) == len(ref):
        assert got == ref


def test_spectral_radius():
    assert nk.spectral_radius(np.zeros((0, 0))) == 0.0
    assert nk.spectral_radius(np.diag([0.5, -2.0])) == pytest.approx(2.0)


def test_place_observer_gain_deadbeat():
    A = np.array([[1.0, 1.0], [0.0, 2.0]])
    C = np.array([[1.0, 0.0]])
    L = nk.place_observer_gain(A, C)
    assert L.shape == (2, 1)
    assert nk.spectral_radius(A - L @ C) < 1e-7


def test_place_observer_gain_of_an_empty_state():
    L = nk.place_observer_gain(np.zeros((0, 0)), np.zeros((1, 0)))
    assert L.shape == (0, 1)


def test_place_observer_gain_rejects_unobservable():
    A = np.diag([2.0, 3.0])
    C = np.array([[1.0, 0.0]])
    with pytest.raises(NotObservable):
        nk.place_observer_gain(A, C)
    with pytest.raises(NotObservable, match="with no outputs"):
        nk.place_observer_gain(A, np.zeros((0, 2)))


def test_place_observer_gain_refuses_a_gain_off_the_origin(monkeypatch):
    A = np.array([[1.0, 1.0], [0.0, 2.0]])
    C = np.array([[1.0, 0.0]])
    # this gain puts both eigenvalues of A - L C at 0.1 instead of 0
    L = np.array([[2.8], [3.61]])
    np.testing.assert_allclose(np.linalg.eigvals(A - L @ C), 0.1, atol=1e-6)
    monkeypatch.setattr(nk, "_single_output_gain", lambda A, c: L)
    with pytest.raises(NumericalError, match="pole assignment failed"):
        nk.place_observer_gain(A, C)


def test_place_observer_gain_refuses_a_two_output_gain_off_the_origin(
        monkeypatch):
    A = np.array([[1.0, 1.0], [0.0, 2.0]])
    C = np.eye(2)
    # the second output gets no gain, so A - L C is the one-output loop
    # with both eigenvalues at 0.1
    L = np.array([[2.8, 0.0], [3.61, 0.0]])
    np.testing.assert_allclose(np.linalg.eigvals(A - L @ C), 0.1, atol=1e-6)
    monkeypatch.setattr(nk, "_deadbeat_feedback", lambda A, B, tol: L.T)
    with pytest.raises(NumericalError, match="pole assignment failed"):
        nk.place_observer_gain(A, C)


def _deflation_gain(A, c):
    """Deadbeat gain of ``(A, c)`` by rank-one deflation, the routine that
    places pairs with more than one output."""
    return nk._deadbeat_feedback(A.T.copy(), c.reshape(-1, 1), nk.DEFAULT_TOL).T


def _assert_deflation_gain(A, c):
    L = nk._single_output_gain(A, c)
    ref = _deflation_gain(A, c)
    assert np.linalg.norm(L - ref) <= 1e-10 * np.linalg.norm(ref)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10**6))
def test_single_output_gain_is_the_deflation_gain(n, seed):
    # the deadbeat gain of an observable single-output pair is unique
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    c = rng.standard_normal(n)
    if nk.is_observable(A, c[None]):
        _assert_deflation_gain(A, c)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_single_output_gain_is_the_deflation_gain_on_scheme1_blocks(seed):
    p, _ = structured_plant(np.random.default_rng(seed))
    d = multisensor_decompose(p)
    for j, oj in enumerate(d.o, 1):
        if oj:
            C = d.C_block(d.source_node(j), j)
            assert C.shape[0] == 1
            _assert_deflation_gain(d.A_sub(j), C[0])


def _refused(place):
    try:
        L = place()
    except NotObservable:
        return True
    assert np.isfinite(L).all()
    return False


@pytest.mark.parametrize("rotate", [False, True])
@pytest.mark.parametrize("lam, first_refused", [
    ((0.5, 2.0), 13),
    ((2.0, 3.0), 12),
    ((0.5, -1.0, 2.0), 12),
    ((0.5, -1.0, 2.0, 1.5), 12),
    ((0.0, 2.0), 13),
    ((1.0, 1.0, 1.0), 13),
    # the weakly observed mode is at 0 already, so it is never refused
    ((2.0, 0.0), 17),
])
def test_single_output_refusals_are_the_deflation_refusals(lam, first_refused,
                                                           rotate):
    # the output sees the last state only through a coupling of 10^-u
    n = len(lam)
    Q = random_orthogonal(np.random.default_rng(n), n)
    verdicts = []
    for u in range(1, 17):
        A = np.diag(lam) + np.diag(np.ones(n - 1), 1)
        A[n - 2, n - 1] = 10.0 ** -u
        c = np.eye(n)[0]
        if rotate:
            A, c = Q @ A @ Q.T, Q @ c
        refused = _refused(lambda: nk._single_output_gain(A, c))
        assert refused == _refused(lambda: _deflation_gain(A, c))
        verdicts.append(refused)
    assert verdicts == [u >= first_refused for u in range(1, 17)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_single_output_refusals_are_the_deflation_refusals_at_the_floor(n):
    # scaling the output row by a scales the gain by 1/a: sweep its norm
    # over a decade around the refusal floor, where deflation's verdict
    # rests on each flag direction's part of the gain, not on its norm
    for seed in range(3):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n))
        c = rng.standard_normal(n)
        size = np.linalg.norm(nk._single_output_gain(A, c)) * nk._NULL_FLOOR
        verdicts = set()
        for x in np.linspace(-0.5, 0.5, 101):
            ca = size * 10 ** x * c
            refused = _refused(lambda: nk._single_output_gain(A, ca))
            assert refused == _refused(lambda: _deflation_gain(A, ca))
            verdicts.add(refused)
        assert verdicts == {False, True}


def test_single_output_gain_places_the_blind_node_pair():
    # the second state is seen through the 4e-8 coupling only
    d = 4e-8
    L = nk.place_observer_gain(np.array([[1.5, d], [-d, 1.5]]),
                               np.array([[1.0, 0.0]]))
    # the first entry is trace(A) exactly: a nilpotent loop has zero trace
    assert L[0, 0] == 3.0
    np.testing.assert_allclose(L[1, 0], 2.25 / d - d, rtol=1e-15)


@pytest.mark.parametrize("n, coupling", [(12, 1e-30), (3, 1e-200), (2, 1e-310)])
def test_single_output_gain_past_the_float_range_is_refused(n, coupling):
    # the product of the couplings underflows and the gain overflows; no
    # floating-point warning escapes (warnings fail the suite)
    A = np.diag(np.linspace(1.0, 2.0, n)) + np.diag(np.full(n - 1, coupling), 1)
    with pytest.raises(NotObservable):
        nk.place_observer_gain(A, np.eye(n)[:1])


def test_single_output_gain_scales_with_the_plant():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((8, 8)) / 3
    c = rng.standard_normal(8)
    L = nk._single_output_gain(A, c)
    # scaling by a power of two is exact: the product of the scaled pair's
    # couplings underflows, yet its gain is the scaled gain bit for bit
    s = 2.0 ** -200
    assert np.array_equal(nk._single_output_gain(s * A, c), s * L)
    nk.place_observer_gain(s * A, c[None])
    # an output row whose squared norm overflows
    assert np.array_equal(nk._single_output_gain(A, 2.0 ** 600 * c),
                          L / 2.0 ** 600)
    # scaled up, the gain passes deflation's refusal bound, as the
    # product of the couplings passes the float range
    with pytest.raises(NotObservable):
        nk.place_observer_gain(2.0 ** 200 * A, c[None])
    with pytest.raises(NotObservable):
        _deflation_gain(2.0 ** 200 * A, c)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_obs_canon_decomp_properties(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    r = int(rng.integers(0, 3))
    A = rng.standard_normal((n, n))
    C = rng.standard_normal((r, n))
    T, k = nk.obs_canon_decomp(A, C)
    np.testing.assert_allclose(T @ T.T, np.eye(n), atol=1e-10)
    assert k == nk.matrix_rank(observability_matrix(A, C)) if r else k == 0
    Ab = T.T @ A @ T
    Cb = C @ T
    scale = max(np.abs(A).max(), 1.0)
    np.testing.assert_allclose(Ab[:k, k:], 0.0, atol=1e-7 * scale)
    np.testing.assert_allclose(Cb[:, k:], 0.0, atol=1e-7 * max(
        np.abs(C).max() if C.size else 1.0, 1.0))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
@example(seed=257)
@example(seed=25880)
def test_deadbeat_placement_random_observable(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    A = rng.standard_normal((n, n))
    C = rng.standard_normal((1, n))
    if not nk.is_observable(A, C):
        return
    L = nk.place_observer_gain(A, C)
    M = A - L @ C
    # rounding alone moves the eigenvalues of a nilpotent n x n matrix by up
    # to about (eps * ||M||)**(1/n), so a fixed bound cannot hold: seed 257
    # has ||M|| = 1.5e4 and the float matrix itself has radius 9.1e-3.  The
    # bound is the per-pole tolerance place_observer_gain documents; a gain
    # placed at 0.1 instead of 0 exceeds it.
    eps = np.finfo(float).eps
    bound = max(nk.DEFAULT_TOL.schur_margin,
                (1e4 * eps * max(1.0, np.linalg.norm(M, 2))) ** (1.0 / n))
    assert nk.spectral_radius(M) < bound
