"""Plant model and the two system-level transformations.

Two roads lead from a plant observed by many sensors to coordinates an
observer can use:

* :func:`multisensor_decompose` — sequential observability splits, one sensor
  at a time, each step decomposing the still-unobservable residual of the
  previous steps.  Produces an orthogonal change of basis under which the
  dynamics are block lower triangular with one "sub-state" block per sensor
  (possibly empty) plus a collectively unobservable tail block.
* :func:`jordan_grouped` + :func:`node_local_split` — a real Jordan basis
  grouped by distinct eigenvalues, then a per-node reordering into the classes
  that node can estimate from its own outputs versus the classes it must
  receive from the network.  Which classes a node detects is the feasibility
  table's decision (:func:`~distobs.conditions.detectable_set`); the split
  does not test it again.

:func:`apply_given_transformation` applies an externally supplied basis change
verbatim, and :func:`decomposition_from_transform` additionally validates and
packages it with declared block sizes — useful for reproducing designs whose
transform is given in print at limited precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import numkit as nk
from .conditions import detectable_set
from .errors import (
    IllConditionedJordan,
    InvalidTransform,
    NumericalError,
    ShapeError,
)

__all__ = [
    "Plant",
    "MultiSensorDecomposition",
    "JordanClass",
    "JordanSystem",
    "NodeSplit",
    "multisensor_decompose",
    "apply_given_transformation",
    "decomposition_from_transform",
    "jordan_grouped",
    "jordan_system",
    "node_local_split",
]

_COND_LIMIT = 1e12
_JORDAN_COND_LIMIT = 1e10


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
        A = nk.as_square(self.A, "A")
        if not self.C:
            raise ShapeError("a plant needs at least one output matrix")
        Cs = tuple(
            nk.as_matrix(Ci, f"C_{i}", cols=A.shape[0])
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


def _block_diag(*blocks):
    blocks = [np.atleast_2d(np.asarray(b, dtype=float)) for b in blocks]
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = np.zeros((rows, cols))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def _slices(dims):
    out = []
    at = 0
    for d in dims:
        out.append(slice(at, at + d))
        at += d
    return out


@dataclass(frozen=True, eq=False)
class MultiSensorDecomposition:
    """Result of the sequential per-sensor observability decomposition.

    With ``z = T^{-1} x``, the transformed dynamics ``Abar`` are block lower
    triangular over ``N + 1`` slots: one sub-state block per decomposition
    step (``o[j-1]`` states newly observable at step j, sourced by node
    ``order[j-1]``; zero-dimensional slots are kept) plus the collectively
    unobservable tail of dimension ``u_dim``.  ``Cbar[i-1] = C_i T`` carries
    node i's outputs in the new basis; its blocks beyond node i's own step are
    structurally zero.  ``T_inv`` is the inverse of ``T`` that produced
    ``Abar``, and ``slots`` holds the ``N + 1`` index ranges, both computed
    once.
    """

    T: np.ndarray
    T_inv: np.ndarray
    o: tuple
    u_dim: int
    order: tuple
    Abar: np.ndarray
    Cbar: tuple
    cond_T: float
    step_of_node: dict = field(repr=False)
    slots: tuple = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "slots", tuple(_slices((*self.o, self.u_dim))))

    @property
    def n(self):
        return self.Abar.shape[0]

    @property
    def n_blocks(self):
        """Number of block slots: one per sensor step plus the unobservable tail."""
        return len(self.o) + 1

    def block_slice(self, j):
        """Index range of sub-state ``j`` (1-based step position)."""
        return self.slots[j - 1]

    @property
    def unobs_slice(self):
        return self.slots[-1]

    def source_node(self, j):
        """Node whose sensor step produced sub-state ``j``."""
        return self.order[j - 1]

    def A_sub(self, j, l=None):
        """Block ``Abar[sub-state j, sub-state l]`` (default diagonal, l=j)."""
        l = j if l is None else l
        return self.Abar[self.block_slice(j), self.block_slice(l)]

    @property
    def A_unobs(self):
        """Dynamics of the collectively unobservable tail."""
        return self.Abar[self.unobs_slice, self.unobs_slice]

    def A_coupling(self, j):
        """How sub-state ``j`` drives the unobservable tail."""
        return self.Abar[self.unobs_slice, self.block_slice(j)]

    def C_block(self, i, j):
        """Node ``i``'s output block on sub-state ``j``."""
        return self.Cbar[i - 1][:, self.block_slice(j)]


def _zero_structural(p, T, o, u_dim, order, tol, structure_tol, exc):
    """Transform, verify the block-triangular pattern, and zero the dust.

    The strictly-upper blocks of ``Abar`` and each node's output blocks beyond
    its own step are zero in exact arithmetic; here they only have to be small
    (below ``structure_tol`` relative to the parent matrix), after which they
    are set to exactly zero so downstream block algebra sees clean structure.
    A violation names the block holding the largest offending entry.
    """
    try:
        Tinv = np.linalg.inv(T)
    except np.linalg.LinAlgError:
        raise InvalidTransform("transform is singular") from None
    Abar = Tinv @ p.A @ T
    Cbar = [Ci @ T for Ci in p.C]
    dims = (*o, u_dim)
    sl = _slices(dims)
    # sid[r] is the 0-based slot of coordinate r: N sub-states, then the tail.
    sid = np.repeat(np.arange(len(dims)), dims)
    upper = sid[:, None] < sid[None, :]
    a_thresh = structure_tol * max(1.0, float(np.linalg.norm(p.A, 2)))
    mag = np.where(upper, np.abs(Abar), 0.0)
    if mag.size:
        r, c = np.unravel_index(np.argmax(mag), mag.shape)
        if mag[r, c] > a_thresh:
            raise exc(
                f"transformed dynamics are not block lower triangular: "
                f"block ({sid[r] + 1},{sid[c] + 1}) has magnitude "
                f"{mag[r, c]:.3g} (threshold {a_thresh:.3g})"
            )
    Abar[upper] = 0.0
    pos = {node: k + 1 for k, node in enumerate(order)}
    for i, (Ci, Cb) in enumerate(zip(p.C, Cbar), 1):
        if not Ci.shape[0]:
            continue
        c_thresh = structure_tol * max(1.0, float(np.linalg.norm(Ci, 2)))
        beyond = sid >= pos[i]
        mag = np.abs(Cb[:, beyond])
        if mag.size and mag.max() > c_thresh:
            c = np.flatnonzero(beyond)[np.argmax(mag) % mag.shape[1]]
            raise exc(
                f"node {i}'s transformed output is nonzero on block "
                f"{sid[c] + 1}, beyond its own step {pos[i]}"
            )
        Cb[:, beyond] = 0.0
    # Each nonempty diagonal block must be observable from its source node.
    for j, oj in enumerate(o, 1):
        if oj == 0:
            continue
        node = order[j - 1]
        Ajj = Abar[sl[j - 1], sl[j - 1]]
        Cjj = Cbar[node - 1][:, sl[j - 1]]
        if not nk.is_observable(Ajj, Cjj, tol):
            raise exc(
                f"sub-state {j} (node {node}) is not observable from its "
                "source node's outputs under the given block sizes"
            )
    return MultiSensorDecomposition(
        T=T,
        T_inv=Tinv,
        o=tuple(o),
        u_dim=int(u_dim),
        order=tuple(order),
        Abar=Abar,
        Cbar=tuple(Cbar),
        cond_T=float(np.linalg.cond(T)),
        step_of_node=pos,
    )


def _check_order(order, N):
    order = tuple(int(v) for v in order)
    if sorted(order) != list(range(1, N + 1)):
        raise ShapeError(f"order must be a permutation of 1..{N}, got {order}")
    return order


def multisensor_decompose(p, order=None, tol=None):
    """Sequential observability decomposition over all sensors.

    Processes sensors in ``order`` (default: node id order).  Step j splits
    the residual still unobservable to the previous steps against sensor
    ``order[j-1]``'s outputs, so the accumulated orthogonal ``T`` drives the
    plant to the block-lower-triangular form described by
    :class:`MultiSensorDecomposition`.  A sensor whose outputs add no new
    observable directions contributes an empty (0-dimensional) sub-state.

    The rank decision of each step is anchored to ``max(||A||_2, ||C_i||_2)``
    of the whole plant and that sensor, so residual blocks made of pure
    round-off dust are classified as unobservable rather than ranked on their
    own noise.
    """
    tol = tol or nk.DEFAULT_TOL
    n = p.n
    order = _check_order(order if order is not None else range(1, p.n_nodes + 1),
                         p.n_nodes)
    norm_A = float(np.linalg.norm(p.A, 2))
    T_acc = np.eye(n)
    o = []
    m = n  # dimension of the still-undecomposed residual
    for step, node in enumerate(order, 1):
        Ci = p.C[node - 1]
        if m == 0 or Ci.shape[0] == 0:
            o.append(0)
            continue
        try:
            T_res = T_acc[:, n - m:]
            scale = max(norm_A, float(np.linalg.norm(Ci, 2)))
            Tb, k = nk.obs_canon_decomp(T_res.T @ p.A @ T_res, Ci @ T_res,
                                        tol, scale=scale)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"decomposition step {step} (node {node}) failed: {exc}"
            ) from None
        T_acc = T_acc @ _block_diag(np.eye(n - m), Tb)
        o.append(k)
        m -= k
    return _zero_structural(p, T_acc, o, m, order, tol,
                            structure_tol=1e-8, exc=NumericalError)


def _check_transform(p, T):
    """Reject a transform of the wrong order or with ``cond(T)`` at the limit."""
    if T.shape[0] != p.n:
        raise ShapeError(f"T must be {p.n}x{p.n}, got {T.shape[0]}x{T.shape[1]}")
    cond = np.linalg.cond(T) if p.n else 1.0
    if cond >= _COND_LIMIT:
        raise InvalidTransform(
            f"transform condition number {cond:.3g} exceeds {_COND_LIMIT:.0e}"
        )


def apply_given_transformation(p, T):
    """Raw change of basis: returns ``(T^{-1} A T, [C_i T, ...])``.

    No structural cleanup is applied — this reproduces exactly what the
    supplied transform produces, dust and all.
    """
    T = nk.as_square(T, "T")
    _check_transform(p, T)
    Abar = np.linalg.solve(T, p.A @ T)
    return Abar, [Ci @ T for Ci in p.C]


def decomposition_from_transform(p, T, o, u_dim=None, order=None, tol=None,
                                 structure_tol=1e-6):
    """Package an externally supplied transform as a full decomposition.

    ``o`` declares the per-step sub-state dimensions (``u_dim`` defaults to
    the remainder).  The block-triangular pattern is verified within
    ``structure_tol`` (relative to the parent matrix norms) and the structural
    entries are then zeroed — a transform printed to a few decimals carries
    dust in exactly those positions.
    """
    T = nk.as_square(T, "T")
    o = tuple(int(v) for v in o)
    if len(o) != p.n_nodes:
        raise ShapeError(f"need one sub-state dimension per node, got {len(o)}")
    if min(o, default=0) < 0:
        raise ShapeError("sub-state dimensions must be nonnegative")
    if u_dim is None:
        u_dim = p.n - sum(o)
    if u_dim < 0 or sum(o) + u_dim != p.n:
        raise ShapeError(
            f"block dimensions {o} + unobservable {u_dim} do not sum to {p.n}"
        )
    _check_transform(p, T)
    order = _check_order(order if order is not None else range(1, p.n_nodes + 1),
                         p.n_nodes)
    return _zero_structural(p, T, o, u_dim, order, tol or nk.DEFAULT_TOL,
                            structure_tol=structure_tol, exc=InvalidTransform)


@dataclass(frozen=True, eq=False)
class JordanClass:
    """One distinct-eigenvalue class of the grouped real Jordan form.

    ``block`` is the class's real canonical block: for a real eigenvalue, the
    usual Jordan structure with unit superdiagonal; for a fused conjugate
    pair, 2x2 rotation-scaling blocks chained by identity couplings.  ``dim``
    is the real dimension (both halves of a pair counted).
    """

    rep: complex
    dim: int
    block: np.ndarray
    complex_pair: bool

    @property
    def magnitude(self):
        return abs(self.rep)


def _orth_basis(M, cutoff=1e-10):
    """Orthonormal basis of the column space of ``M`` (possibly 0 columns)."""
    if M.shape[1] == 0:
        return M
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    return U[:, s > cutoff * (s[0] if s.size else 1.0)]


def _jordan_chains(A, lam, alg, tol):
    """Generalized-eigenvector chains of ``A`` at ``lam``.

    Returns a list of chains, each ordered from eigenvector up to chain top,
    covering an ``alg``-dimensional invariant subspace.  All rank decisions
    that disagree with the clustered multiplicities raise
    :class:`IllConditionedJordan` — a dubious canonical form is worse than no
    canonical form.
    """
    n = A.shape[0]
    complex_mode = abs(complex(lam).imag) > 0
    dt = complex if complex_mode else float
    B = A.astype(dt) - complex(lam) * np.eye(n, dtype=dt)
    if not complex_mode:
        B = B.real

    def bail(why):
        raise IllConditionedJordan(
            f"Jordan structure at eigenvalue {complex(lam):.6g} could not be "
            f"certified: {why}. The sequential multi-sensor decomposition "
            "route does not need the eigenstructure and may still apply.",
            eigenvalue=complex(lam),
        )

    kernels = [np.zeros((n, 0), dtype=dt)]
    dims = [0]
    Bk = np.eye(n, dtype=dt)
    norm_B = float(np.linalg.norm(B, 2))
    depth = None
    for k in range(1, n + 1):
        Bk = Bk @ B
        U, s, Vh = np.linalg.svd(Bk)
        # Anchor the cutoff to ||B||^k: once the power collapses to round-off
        # dust, its own largest singular value is meaningless as a reference.
        anchor = max(float(s[0]) if s.size else 0.0, norm_B ** k, 1e-300)
        cutoff = (nk.DEFAULT_TOL if tol is None else tol).rank_tol * anchor
        r = int(np.count_nonzero(s > cutoff))
        kernels.append(Vh[r:].conj().T)
        dims.append(n - r)
        if dims[k] == alg:
            depth = k
            break
        if dims[k] < alg and dims[k] <= dims[k - 1]:
            bail(f"kernel growth stalled at dimension {dims[k]} < {alg}")
        if dims[k] > alg:
            bail(f"kernel dimension {dims[k]} exceeds multiplicity {alg}")
    if depth is None:
        bail("chain depth search exhausted")
    counts = [dims[k] - dims[k - 1] for k in range(1, depth + 1)]
    if any(counts[k] > counts[k - 1] for k in range(1, depth)):
        bail(f"kernel increments {counts} are not monotone")
    chains = []  # each chain: [top, ..., level-1 vector]; built top-down
    for k in range(depth, 0, -1):
        for ch in chains:
            ch.append(B @ ch[-1])
        existing = [ch[-1] for ch in chains]
        need = counts[k - 1] - len(chains)
        if need < 0:
            bail(f"chain count at depth {k} exceeds kernel increment")
        if need:
            obstruction = _orth_basis(np.hstack(
                [kernels[k - 1]] + [v.reshape(n, 1) for v in existing]
            )) if (kernels[k - 1].shape[1] or existing) else np.zeros((n, 0), dtype=dt)
            Kk = kernels[k]
            M = Kk - obstruction @ (obstruction.conj().T @ Kk) \
                if obstruction.shape[1] else Kk
            _, s2, Vh2 = np.linalg.svd(M)
            if s2.size < need or s2[need - 1] <= 1e-8:
                bail(f"could not find {need} independent chain tops at depth {k}")
            for t in range(need):
                chains.append([Kk @ Vh2.conj().T[:, t]])
    return [list(reversed(ch)) for ch in chains]


def _real_class_basis(A, cls, tol):
    """Columns and canonical block for one eigenvalue class."""
    lam = cls.rep
    if not cls.complex_pair:
        chains = _jordan_chains(A, lam.real, cls.dim, tol)
        cols = []
        blocks = []
        for ch in sorted(chains, key=len, reverse=True):
            cols.extend(ch)
            L = len(ch)
            blocks.append(lam.real * np.eye(L) + np.diag(np.ones(L - 1), 1))
        return np.column_stack(cols), _block_diag(*blocks)
    if cls.dim % 2:
        raise IllConditionedJordan(
            f"conjugate-pair class at {lam:.6g} has odd dimension {cls.dim}",
            eigenvalue=lam,
        )
    chains = _jordan_chains(A, lam, cls.dim // 2, tol)
    a, b = lam.real, lam.imag
    D = np.array([[a, b], [-b, a]])
    cols = []
    blocks = []
    for ch in sorted(chains, key=len, reverse=True):
        for v in ch:
            cols.append(v.real)
            cols.append(v.imag)
        L = len(ch)
        blk = np.kron(np.eye(L), D) + np.kron(np.diag(np.ones(L - 1), 1), np.eye(2))
        blocks.append(blk)
    return np.column_stack(cols), _block_diag(*blocks)


def jordan_grouped(A, tol=None):
    """Real Jordan form with blocks grouped by distinct eigenvalue.

    Returns ``(T, classes)`` with ``A ≈ T · blockdiag(class blocks) · T^{-1}``;
    classes are ordered by descending magnitude, ties by descending real part
    then ascending imaginary part, and a conjugate pair forms a single class
    in real 2x2 rotation-scaling form.  Certification failures (inconsistent
    chain ranks, ill-conditioned basis, poor reconstruction) raise
    :class:`IllConditionedJordan` rather than returning a dubious form.
    """
    tol = tol or nk.DEFAULT_TOL
    A = nk.as_square(A, "A")
    return _jordan_basis(A, nk.eigen_info(A, tol).classes, tol)


def _jordan_basis(A, eig_classes, tol):
    """:func:`jordan_grouped` on the :func:`numkit.eigen_info` classes
    ``eig_classes`` of ``A``, in their order."""
    n = A.shape[0]
    if n == 0:
        return np.zeros((0, 0)), ()
    cols = []
    classes = []
    for cls in eig_classes:
        V, block = _real_class_basis(A, cls, tol)
        cols.append(V)
        classes.append(JordanClass(cls.rep, cls.dim, block, cls.complex_pair))
    T = np.hstack(cols)
    cond = float(np.linalg.cond(T))
    if not np.isfinite(cond) or cond > _JORDAN_COND_LIMIT:
        raise IllConditionedJordan(
            f"Jordan basis condition number {cond:.3g} exceeds "
            f"{_JORDAN_COND_LIMIT:.0e}; the sequential multi-sensor "
            "decomposition route does not need the eigenstructure."
        )
    J = _block_diag(*(c.block for c in classes))
    recon = T @ J @ np.linalg.inv(T)
    if np.linalg.norm(recon - A, 2) > 1e-7 * max(1.0, np.linalg.norm(A, 2)):
        raise IllConditionedJordan(
            "Jordan reconstruction residual exceeds 1e-7 relative to the "
            "plant; the sequential multi-sensor decomposition route does not "
            "need the eigenstructure."
        )
    return T, tuple(classes)


@dataclass(frozen=True, eq=False)
class NodeSplit:
    """Node-local reordering of the grouped Jordan coordinates.

    ``detectable``/``undetectable`` index the eigenvalue classes this node
    can/cannot estimate from its own outputs (stable classes always count as
    detectable).  ``perm`` maps reordered coordinates back to Jordan
    coordinates (detectable blocks first).  The node's local observer runs on
    the ``det_dim + aug_dim`` states of ``(local_dynamics, local_output)``:
    the detectable classes plus the locally observable residual of the
    undetectable ones, split off orthogonally by ``inner_split``.
    """

    node: int
    detectable: tuple
    undetectable: tuple
    perm: np.ndarray
    inner_split: np.ndarray
    local_dynamics: np.ndarray
    local_output: np.ndarray
    det_dim: int
    aug_dim: int

    def renumbered(self, node):
        """This split for node ``node``, a node with the same outputs: a
        shallow copy sharing every array, made without running
        ``__init__``."""
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__, node=node)
        return twin


def node_local_split(T, classes, node, C_i, detectable, tol=None):
    """Split the grouped Jordan coordinates by node ``node``'s own visibility.

    ``detectable`` indexes the eigenvalue classes the node estimates from
    its own outputs, its :func:`~distobs.conditions.detectable_set` (as the
    feasibility report's ``per_node_detectable`` holds it); it relies on the
    network for the others.  Those are further split orthogonally into their
    locally observable residual (which augments the node's observer so its
    output model is unbiased) and the remainder.  Returns the
    :class:`NodeSplit` consumed by the root-coverage observer synthesis; a
    local pair that cannot detect a detectable unstable class raises
    :class:`NumericalError`.
    """
    tol = tol or nk.DEFAULT_TOL
    n = T.shape[0]
    C_i = nk.as_matrix(C_i, f"C_{node}", cols=n)
    Cz = C_i @ T
    J = _block_diag(*(c.block for c in classes)) if classes else np.zeros((0, 0))
    sl = _slices([c.dim for c in classes])
    detectable = sorted(detectable)
    undetectable = [k for k in range(len(classes)) if k not in detectable]
    ordered = detectable + undetectable
    P = np.zeros((n, n))
    at = 0
    for k in ordered:
        width = classes[k].dim
        P[sl[k], at:at + width] = np.eye(width)
        at += width
    Jr = P.T @ J @ P
    Cr = Cz @ P
    det_dim = sum(classes[k].dim for k in detectable)
    J_und = Jr[det_dim:, det_dim:]
    C_und = Cr[:, det_dim:]
    scale = max(float(np.linalg.norm(J, 2)), float(np.linalg.norm(Cz, 2)))
    Tbar, aug_dim = nk.obs_canon_decomp(J_und, C_und, tol, scale=scale)
    J_aug = (Tbar.T @ J_und @ Tbar)[:aug_dim, :aug_dim]
    H_aug = (C_und @ Tbar)[:, :aug_dim]
    local_dynamics = _block_diag(Jr[:det_dim, :det_dim], J_aug)
    local_output = np.hstack([Cr[:, :det_dim], H_aug])
    # The local pair must be detectable, else the node's own observer cannot
    # converge on the states it claims to estimate.
    for k in detectable:
        cls = classes[k]
        if cls.magnitude >= 1.0 - tol.eig_cluster_tol:
            if not nk.pbh_rank_ok(local_dynamics, local_output, cls.rep, tol):
                raise NumericalError(
                    f"node {node}: local pair lost detectability of "
                    f"eigenvalue {cls.rep:.6g} after the split"
                )
    return NodeSplit(
        node=node,
        detectable=tuple(detectable),
        undetectable=tuple(undetectable),
        perm=P,
        inner_split=Tbar,
        local_dynamics=local_dynamics,
        local_output=local_output,
        det_dim=det_dim,
        aug_dim=aug_dim,
    )


@dataclass(frozen=True, eq=False)
class JordanSystem:
    """Grouped real Jordan coordinates of a plant plus every node's split.

    Attributes
    ----------
    plant : Plant
        The plant the coordinates were computed for.
    T : (n, n) ndarray
        Real similarity with ``inv(T) @ A @ T`` block diagonal, one block
        per eigenvalue class.
    T_inv : (n, n) ndarray
        Precomputed inverse of ``T`` (solved once; the runtime recursions
        reuse it every step).
    classes : tuple of JordanClass
        Eigenvalue classes in the column order of ``T``.
    per_node : tuple of NodeSplit
        Entry ``i - 1`` is node ``i``'s detectable/undetectable split.
    cond_T : float
        2-norm condition number of ``T``.
    """

    plant: Plant
    T: np.ndarray
    T_inv: np.ndarray
    classes: tuple
    per_node: tuple
    cond_T: float
    slots: tuple = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "slots",
                           tuple(_slices([c.dim for c in self.classes])))

    def class_slice(self, k):
        """Rows of the transformed coordinates occupied by class ``k``."""
        return self.slots[k]


def jordan_system(p, tol=None, report=None):
    """Compute grouped Jordan coordinates of ``p`` and split them per node.

    ``report``, a ``feasibility_report(p, g, tol)``, supplies the eigenvalue
    classes and each node's detectable set, so no rank decision is made
    twice; without it, one eigen-pass and one
    :func:`~distobs.conditions.detectable_set` per distinct output matrix
    do.  :func:`node_local_split` runs once per distinct output matrix, for
    the lowest node id that has it; nodes with identical outputs receive a
    copy of that split renumbered to their own id
    (:meth:`NodeSplit.renumbered`), sharing its arrays.

    Parameters
    ----------
    p : Plant
    tol : ToleranceConfig, optional
    report : FeasibilityReport, optional

    Returns
    -------
    JordanSystem

    Raises
    ------
    IllConditionedJordan
        If the eigenbasis cannot be trusted (see ``jordan_grouped``).
    """
    tol = tol or nk.DEFAULT_TOL
    info = nk.eigen_info(p.A, tol) if report is None else None
    T, classes = _jordan_basis(p.A, (report or info).classes, tol)
    T_inv = np.linalg.solve(T, np.eye(p.n))
    per_node = []
    for i, (C_i, r) in enumerate(zip(p.C, p._output_rep), 1):
        if r != i:
            per_node.append(per_node[r - 1].renumbered(i))
            continue
        detectable = (detectable_set(p.A, C_i, tol, info) if report is None
                      else report.per_node_detectable[i - 1])
        per_node.append(node_local_split(T, classes, i, C_i, detectable, tol))
    cond_T = float(np.linalg.cond(T)) if p.n else 1.0
    return JordanSystem(
        plant=p, T=T, T_inv=T_inv, classes=classes,
        per_node=tuple(per_node), cond_T=cond_T,
    )
