"""Tolerance-aware numerical primitives and the plant model shared by every
other module.

:class:`Plant` holds the plant map and every node's output matrix.
Everything else here is deliberately small: SVD-based rank decisions, the
observability split behind all canonical decompositions (an orthogonal
staircase), eigenvalue clustering on the conjugate-folded spectrum, and
deadbeat observer gains by rank-one deflation on the dual pair.  All
tolerances flow through :class:`ToleranceConfig` so a single knob set governs
rank, clustering, and stability-margin decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidMatrix, NotObservable, NumericalError, ShapeError

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical tolerances used across the toolkit.

    Attributes
    ----------
    rank_tol : float
        Relative singular-value cutoff for rank decisions: singular values
        below ``rank_tol * max(sigma_max, scale)`` are treated as zero.
    eig_cluster_tol : float
        Absolute distance below which computed eigenvalues are treated as one
        repeated eigenvalue; also the margin that widens the "needs root
        coverage" boundary to ``|lambda| >= 1 - eig_cluster_tol``.
    schur_margin : float
        Stability margin: a spectral radius counts as stable only when it is
        at most ``1 - schur_margin``.
    """

    rank_tol: float = 1e-9
    eig_cluster_tol: float = 1e-7
    schur_margin: float = 1e-6


DEFAULT_TOL = ToleranceConfig()


def as_matrix(M, name="matrix", rows=None, cols=None):
    """Coerce to a finite float 2-D array, checking shape when requested.

    Raises
    ------
    InvalidMatrix
        If the input is not interpretable as a real 2-D array with finite
        entries.
    ShapeError
        If ``rows``/``cols`` are given and do not match.
    """
    try:
        A = np.asarray(M, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidMatrix(f"{name} is not a real matrix: {exc}") from None
    if A.ndim != 2:
        raise InvalidMatrix(f"{name} must be 2-D, got ndim={A.ndim}")
    if A.size and not np.isfinite(A).all():
        raise InvalidMatrix(f"{name} contains NaN or Inf entries")
    if rows is not None and A.shape[0] != rows:
        raise ShapeError(f"{name} must have {rows} rows, got {A.shape[0]}")
    if cols is not None and A.shape[1] != cols:
        raise ShapeError(f"{name} must have {cols} columns, got {A.shape[1]}")
    return A


def as_square(M, name="matrix"):
    """Coerce to a finite square float matrix."""
    A = as_matrix(M, name)
    if A.shape[0] != A.shape[1]:
        raise ShapeError(f"{name} must be square, got {A.shape[0]}x{A.shape[1]}")
    return A


@dataclass(frozen=True, eq=False)
class Plant:
    """Autonomous LTI plant ``x[k+1] = A x[k]`` with per-node outputs.

    ``C[i-1]`` is node i's output matrix ``y_i = C_i x`` (row count may be 0
    for a node that measures nothing).

    Everything a node computes alone depends only on its ``C_i``, so nodes
    are grouped by identical output matrix (see ``_output_rep``).
    """

    A: np.ndarray
    C: tuple

    def __post_init__(self):
        A = as_square(self.A, "A")
        if not A.shape[0]:
            raise ShapeError("a plant needs at least one state")
        if not self.C:
            raise ShapeError("a plant needs at least one output matrix")
        Cs = tuple(
            as_matrix(Ci, f"C_{i}", cols=A.shape[0])
            for i, Ci in enumerate(self.C, 1)
        )
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "C", Cs)

    @cached_property
    def _output_rep(self):
        """``_output_rep[i-1]`` is the lowest node id whose ``C`` has node
        i's shape and the same bytes.  The match is exact: matrices one ulp
        apart, or ``-0.0`` against ``0.0``, stay apart."""
        first = {}
        return tuple(first.setdefault((Ci.shape, Ci.tobytes()), i)
                     for i, Ci in enumerate(self.C, 1))

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def n_nodes(self):
        return len(self.C)

    def stacked_output(self, nodes=None):
        """Row-stack of C_i over ``nodes`` (default: all), in ascending order."""
        nodes = sorted(nodes) if nodes is not None else range(1, self.n_nodes + 1)
        rows = [self.C[i - 1] for i in nodes]
        return np.vstack(rows) if rows else np.zeros((0, self.n))


def matrix_rank(M, tol=None):
    """Numerical rank via SVD with a relative cutoff.

    Parameters
    ----------
    M : array_like
        Matrix to rank (real or complex).
    tol : ToleranceConfig, optional
        Source of the relative cutoff ``rank_tol``.
    """
    tol = tol or DEFAULT_TOL
    M = np.asarray(M)
    if M.ndim != 2:
        raise InvalidMatrix(f"rank input must be 2-D, got ndim={M.ndim}")
    if 0 in M.shape:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.count_nonzero(s > tol.rank_tol * float(s[0])))


def is_observable(A, C, tol=None):
    """True iff the observability split of ``(A, C)`` leaves no unobservable
    part (see :func:`obs_canon_decomp`)."""
    A = as_square(A, "A")
    return obs_canon_decomp(A, C, tol)[1] == A.shape[0]


def obs_canon_decomp(A, C, tol=None, scale=None):
    """Orthogonal split of ``(A, C)`` into observable and unobservable parts.

    Returns an orthogonal ``T`` and the observable dimension ``n_obs`` such
    that, with ``z = T.T @ x`` and blocks of sizes ``(n_obs, n - n_obs)``::

        T.T @ A @ T = [[A_o, 0 ],      C @ T = [C_o, 0]
                       [ * , A_u]]

    ``(A_o, C_o)`` is observable.  The leading columns of ``T`` are an
    orthogonal staircase (Paige, IEEE TAC 1981): a block Arnoldi on
    ``(A.T, C.T)`` that starts from ``C.T``, multiplies each new block by
    ``A.T``, orthogonalizes it twice against the basis so far and keeps the
    directions whose singular values exceed
    ``rank_tol * max(||A||_2, ||C||_2)``.  Their span is the smallest
    ``A.T``-invariant subspace holding the rows of ``C`` — invariance is what
    zeroes the upper-right block.  The trailing columns complete the basis
    and span the unobservable subspace.  Unlike a rank decision on
    ``[C; CA; ...; C A^(n-1)]``, whose rows grow like ``||A||^(n-1)``, every
    block is ranked on the scale of ``A`` and ``C``.  A caller splitting a
    block of a larger pair passes that pair's norm bound as ``scale``, which
    replaces the block's own.
    """
    A = as_square(A, "A")
    n = A.shape[0]
    C = as_matrix(C, "C", cols=n)
    if n == 0:
        return np.zeros((0, 0)), 0
    if C.shape[0] == 0:
        return np.eye(n), 0
    tol = tol or DEFAULT_TOL
    if scale is None:
        scale = max(np.linalg.svd(M, compute_uv=False)[0] for M in (A, C))
    cutoff = tol.rank_tol * float(scale)
    T = np.empty((n, n))
    k = 0  # T[:, :k] holds the observable directions found so far
    W = C.T
    while k < n:
        if k:
            for _ in range(2):
                W = W - T[:, :k] @ (T[:, :k].T @ W)
        U, s, _ = np.linalg.svd(W, full_matrices=False)
        # never more directions than are left, whatever rank_tol is
        new = min(int(np.count_nonzero(s > cutoff)), n - k)
        if not new:
            break
        T[:, k:k + new] = U[:, :new]
        W = A.T @ U[:, :new]
        k += new
    if not k:
        return np.eye(n), 0
    if k < n:
        T[:, k:] = np.linalg.qr(T[:, :k], mode="complete")[0][:, k:]
    return T, k


def pbh_rank_ok(A, C, lam, tol=None):
    """Rank test: does ``[A - lam*I; C]`` have full column rank?

    No verdict reads it: ranked against its own largest singular value at
    a cluster representative, this stack can call a class detectable from a
    node with no outputs, so :func:`distobs.conditions.detectable_set`
    decides on each class block instead.  The benchmark's tracer still
    counts its calls.
    """
    A = as_square(A, "A")
    n = A.shape[0]
    C = as_matrix(C, "C", cols=n)
    stacked = np.vstack([A - complex(lam) * np.eye(n), C.astype(complex)])
    return matrix_rank(stacked, tol) == n


@dataclass(frozen=True)
class EigenClass:
    """One clustered eigenvalue class of a real matrix.

    ``rep`` is the cluster representative (imaginary part >= 0); for a
    conjugate pair, ``dim`` counts both halves, so ``sum(dim) == n`` over all
    classes.  ``members`` holds the class's ``dim`` computed eigenvalues,
    closed under conjugation, from which its basis is built.  ``block``,
    attached by :mod:`distobs.decomp`, is the class's real block in an
    orthonormal basis of its invariant subspace.  Neither takes part in
    comparisons.
    """

    rep: complex
    dim: int
    complex_pair: bool
    members: np.ndarray = field(default=None, compare=False, repr=False)
    block: np.ndarray = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class EigenInfo:
    """Clustered spectrum of a real square matrix."""

    classes: tuple

    def unstable_classes(self, tol=None):
        """Classes needing root coverage: ``|lambda| >= 1 - eig_cluster_tol``.

        The margin is deliberately conservative — a mode numerically on the
        unit circle is treated as unstable rather than silently trusted to
        decay.
        """
        tol = tol or DEFAULT_TOL
        return tuple(
            k for k, cls in enumerate(self.classes)
            if abs(cls.rep) >= 1.0 - tol.eig_cluster_tol
        )


def _cluster_indices(vals, tol_abs):
    """Union indices of ``vals`` whose pairwise distance is <= tol_abs."""
    m = len(vals)
    parent = list(range(m))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(m):
        for j in range(i + 1, m):
            if abs(vals[i] - vals[j]) <= tol_abs:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def eigen_info(A, tol=None):
    """Cluster the spectrum of a real matrix into distinct-eigenvalue classes.

    The spectrum is folded into the closed upper half plane, so a conjugate
    pair lands on one point, and folded eigenvalues within
    ``eig_cluster_tol`` of each other (transitively) form one class.  A
    class whose mean imaginary part exceeds ``eig_cluster_tol`` is a
    conjugate pair, represented by the mean of its upper halves; any other
    class is real, represented by its mean real part.  Classes are ordered
    by descending ``|lambda|``, ties by descending real part, then ascending
    imaginary part.
    """
    tol = tol or DEFAULT_TOL
    A = as_square(A, "A")
    w = np.linalg.eigvals(A)
    classes = []
    for idx in _cluster_indices(list(w.real + 1j * np.abs(w.imag)),
                                tol.eig_cluster_tol):
        wk = w[idx]
        if np.mean(np.abs(wk.imag)) > tol.eig_cluster_tol:
            classes.append(EigenClass(complex(np.mean(wk[wk.imag > 0])),
                                      len(idx), True, wk))
        else:
            classes.append(EigenClass(complex(np.mean(wk).real, 0.0),
                                      len(idx), False, wk))
    classes.sort(key=lambda c: (-abs(c.rep), -c.rep.real, c.rep.imag))
    return EigenInfo(tuple(classes))


def spectral_radius(M):
    """``max |eig(M)|``; 0 for an empty matrix."""
    M = as_square(M, "M")
    if M.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def _null_direction(M, x_dim, tol):
    """Pick the null-space element of ``M`` with the largest leading-block part.

    Returns ``(x, w)`` splitting the chosen null vector at ``x_dim``.  Raises
    ``NotObservable`` when every null vector has a leading block at rounding
    level — that is exactly the uncontrollability certificate for the zero
    pole being placed.  A weakly observed mode is placed: the observability
    split made that rank decision, and the achieved spectrum is verified.
    Its gain grows as the inverse of the freedom found here.
    """
    _, s, Vt = np.linalg.svd(M)
    cutoff = tol.rank_tol * (float(s[0]) if s.size else 0.0)
    rank = int(np.count_nonzero(s > cutoff))
    # columns span the null space; M = [A | B] has more columns than rows
    Z = Vt[rank:].T
    Zx = Z[:x_dim, :]
    U2, s2, Vt2 = np.linalg.svd(Zx)
    if s2.size == 0 or s2[0] <= 1e3 * _EPS:
        raise NotObservable(
            "mode cannot be moved by output injection (pair not observable)"
        )
    z = Z @ Vt2.T[:, 0]
    return z[:x_dim], z[x_dim:]


def _deadbeat_feedback(A, B, tol):
    """Gain K with ``A - B K`` nilpotent, by rank-one deflation.

    One zero pole at a time: a null direction of ``[A | B]`` gives a
    closed-loop eigenvector ``x`` at 0, the rank-one gain ``-w x^T / x^T x``
    pins it, an orthogonal basis rotates ``x`` out, and the deflated system
    is placed the same way.  Works for any number of inputs ``B``.
    """
    m = A.shape[0]
    r = B.shape[1]
    if m == 0:
        return np.zeros((r, 0))
    x, w = _null_direction(np.hstack([A, B]), m, tol)
    K1 = -np.outer(w, x) / float(x @ x)
    X = (x / np.linalg.norm(x)).reshape(m, 1)
    Q = np.linalg.qr(np.hstack([X, np.eye(m)]))[0][:, :m]  # Q[:, 0] spans x
    Acl = Q.T @ (A - B @ K1) @ Q
    Bq = Q.T @ B
    K2 = _deadbeat_feedback(Acl[1:, 1:], Bq[1:, :], tol)
    return K1 + np.hstack([np.zeros((r, 1)), K2]) @ Q.T


def place_observer_gain(A, C, tol=None):
    """Deadbeat output-injection gain: ``A - L C`` nilpotent.

    The gain is placed on the dual pair ``(A.T, C.T)`` by rank-one deflation
    (see :func:`_deadbeat_feedback`), for any number of outputs, and drives
    the observer error to zero in at most ``n`` steps.  The achieved
    spectrum is verified: rounding scatters the eigenvalues of an ``n``-fold
    zero like ``eps**(1/n)``, so every eigenvalue of ``A - L C`` must lie
    within ``max(schur_margin, (1e4 * eps * max(1, ||A - L C||_2)) ** (1/n))``
    of the origin.

    Raises
    ------
    NotObservable
        When some mode cannot be moved (pair not observable).
    NumericalError
        When the achieved spectrum fails the verification.
    """
    tol = tol or DEFAULT_TOL
    A = as_square(A, "A")
    n = A.shape[0]
    C = as_matrix(C, "C", cols=n)
    if C.shape[0] == 0:
        raise NotObservable("cannot place observer poles with no outputs")
    L = _deadbeat_feedback(A.T.copy(), C.T.copy(), tol).T
    _verify_assignment(A - L @ C, tol)
    return L


def _verify_assignment(Acl, tol):
    n = Acl.shape[0]
    if n == 0:
        return
    scale = max(1.0, float(np.linalg.norm(Acl, 2)))
    bound = max(tol.schur_margin, (1e4 * _EPS * scale) ** (1.0 / n))
    achieved = np.linalg.eigvals(Acl)
    worst = int(np.argmax(np.abs(achieved)))
    if abs(achieved[worst]) > bound:
        raise NumericalError(
            f"pole assignment failed: requested 0, achieved "
            f"{achieved[worst]:.6g} (tolerance {bound:.2e})"
        )
