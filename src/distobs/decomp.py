"""The two system-level transformations of a plant.

Two roads lead from a plant observed by many sensors to coordinates an
observer can use:

* :func:`multisensor_decompose` — sequential observability splits, one sensor
  at a time, each step decomposing the still-unobservable residual of the
  previous steps.  Produces an orthogonal change of basis under which the
  dynamics are block lower triangular with one "sub-state" block per sensor
  (possibly empty) plus a collectively unobservable tail block.
* :func:`jordan_grouped` + :func:`node_local_split` — one orthonormal real
  basis per distinct eigenvalue class, so the dynamics are block diagonal by
  class, then a per-node reordering into the classes that node can estimate
  from its own outputs versus the classes it must receive from the network.
  Nothing inside a class needs canonical (Jordan chain) structure.  Which
  classes a node detects is the feasibility table's decision
  (:func:`~distobs.conditions.detectable_set`); the split makes no rank
  decision of its own, but assembles what the node observes from the same
  per-class staircases.

:func:`apply_given_transformation` applies an externally supplied basis change
verbatim, and :func:`decomposition_from_transform` additionally validates and
packages it with declared block sizes — useful for reproducing designs whose
transform is given in print at limited precision.

:class:`~distobs.numkit.Plant` lives in :mod:`distobs.numkit`, where a
feasibility check can read it without this module; it is published here
too.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import numkit as nk
from .conditions import _RankTable
from .errors import (
    IllConditionedJordan,
    InvalidTransform,
    NumericalError,
    ShapeError,
)
from .netgraph import _is_id
from .numkit import Plant

__all__ = [
    "Plant",
    "MultiSensorDecomposition",
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

    def block_slice(self, j):
        """Index range of sub-state ``j`` (1-based step position)."""
        return self.slots[j - 1]

    @property
    def unobs_slice(self):
        return self.slots[-1]

    def source_node(self, j):
        """Node whose sensor step produced sub-state ``j``."""
        return self.order[j - 1]

    @cached_property
    def A_diag(self):
        """Block-diagonal part of ``Abar``: the sub-state blocks and the
        unobservable tail, built on first read."""
        # most slots of a large network are empty and add nothing
        return _block_diag(*(self.Abar[sl, sl] for sl in self.slots
                             if sl.start < sl.stop))

    def A_sub(self, j, l=None):
        """Block ``Abar[sub-state j, sub-state l]`` (default diagonal, l=j)."""
        l = j if l is None else l
        return self.Abar[self.block_slice(j), self.block_slice(l)]

    @property
    def A_unobs(self):
        """Dynamics of the collectively unobservable tail."""
        return self.Abar[self.unobs_slice, self.unobs_slice]

    def C_block(self, i, j):
        """Node ``i``'s output block on sub-state ``j``."""
        return self.Cbar[i - 1][:, self.block_slice(j)]


def _zero_structural(p, T, o, u_dim, order, structure_tol, exc):
    """Transform, verify the block-triangular pattern, and zero the dust.

    The strictly-upper blocks of ``Abar`` and each node's output blocks beyond
    its own step are zero in exact arithmetic; here they only have to be small
    (below ``structure_tol`` relative to the parent matrix), after which they
    are set to exactly zero so downstream block algebra sees clean structure.
    A violation names the block holding the largest offending entry.
    """
    Tinv = np.linalg.inv(T)
    Abar = Tinv @ p.A @ T
    Cbar = [Ci @ T for Ci in p.C]
    dims = (*o, u_dim)
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


def _as_order(order, N):
    """The tuple ``order`` as Python ints if it holds integers that permute
    ``1..N``, else ``None``."""
    if all(map(_is_id, order)):
        ints = tuple(map(int, order))
        if sorted(ints) == list(range(1, N + 1)):
            return ints
    return None


def _check_order(order, N):
    order = tuple(order)
    ints = _as_order(order, N)
    if ints is None:
        raise ShapeError(f"order must be a permutation of 1..{N}, got {order}")
    return ints


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
    return _zero_structural(p, T_acc, o, m, order, structure_tol=1e-8,
                            exc=NumericalError)


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
    d = _zero_structural(p, T, o, u_dim, order, structure_tol=structure_tol,
                         exc=InvalidTransform)
    # Each nonempty diagonal block must be observable from its source node;
    # multisensor_decompose splits its blocks off as observable already.
    for j, oj in enumerate(o, 1):
        node = d.source_node(j)
        if oj and not nk.is_observable(d.A_sub(j), d.C_block(node, j), tol):
            raise InvalidTransform(
                f"sub-state {j} (node {node}) is not observable from its "
                "source node's outputs under the given block sizes"
            )
    return d


def jordan_grouped(A, tol=None):
    """Real block-diagonal form with one block per distinct eigenvalue.

    Returns ``(T, classes)`` with ``A ≈ T · blockdiag(class blocks) · T^{-1}``;
    ``classes`` are the :func:`numkit.eigen_info` classes of ``A``, in its
    order (descending magnitude, ties by descending real part then ascending
    imaginary part; a conjugate pair is one real class), each with its
    ``block`` attached.  The columns of ``T`` are one orthonormal basis per
    class (see :func:`~distobs.conditions._class_basis`), so only the angles
    between classes condition it.  Certification failures (a class kernel
    of the wrong dimension, ill-conditioned basis, poor reconstruction)
    raise :class:`IllConditionedJordan` rather than returning a dubious form.
    """
    A = nk.as_square(A, "A")
    T, _, _, classes, _ = _jordan_basis(_RankTable(A, tol or nk.DEFAULT_TOL))
    return T, classes


def _jordan_basis(t):
    """``(T, T_inv, cond_T, classes, A_diag)`` of :func:`jordan_grouped`
    from the class bases of the rank table ``t``: ``classes`` are its
    eigenvalue classes, in their order, with each class's real block
    ``V.T @ A @ V`` attached, and ``A_diag`` is their block diagonal.
    ``T`` is inverted and conditioned once, here."""
    A = t.A
    if A.shape[0] == 0:
        return np.zeros((0, 0)), np.zeros((0, 0)), 1.0, (), np.zeros((0, 0))
    bases = [t.basis(k) for k in range(len(t.info.classes))]
    classes = tuple(replace(cls, block=block)
                    for cls, (_, block) in zip(t.info.classes, bases))
    T = np.hstack([V for V, _ in bases])
    cond = float(np.linalg.cond(T))
    if not np.isfinite(cond) or cond > _JORDAN_COND_LIMIT:
        raise IllConditionedJordan(
            f"class basis condition number {cond:.3g} exceeds "
            f"{_JORDAN_COND_LIMIT:.0e}; the sequential multi-sensor "
            "decomposition route does not need the eigenstructure."
        )
    T_inv = np.linalg.inv(T)
    A_diag = _block_diag(*(c.block for c in classes))
    residual = np.linalg.norm(T @ A_diag @ T_inv - A, 2)
    if residual > 1e-7 * max(1.0, np.linalg.norm(A, 2)):
        raise IllConditionedJordan(
            "class basis reconstruction residual exceeds 1e-7 relative to the "
            "plant; the sequential multi-sensor decomposition route does not "
            "need the eigenstructure."
        )
    return T, T_inv, cond, classes, A_diag


_new, _set = object.__new__, object.__setattr__


def _copy_with(obj, **changes):
    """A shallow copy of frozen dataclass ``obj`` with ``changes`` applied,
    sharing every other field value, made without running ``__init__``:
    one per node of a large design, where ``dataclasses.replace`` would
    cost several times as much."""
    twin = _new(obj.__class__)
    _set(twin, "__dict__", obj.__dict__ | changes)
    return twin


@dataclass(frozen=True, eq=False)
class NodeSplit:
    """Node-local reordering of the eigenvalue-class coordinates.

    ``detectable``/``undetectable`` index the eigenvalue classes this node
    can/cannot estimate from its own outputs (stable classes always count as
    detectable).  ``perm`` maps reordered coordinates back to class
    coordinates (detectable blocks first).  The node's local observer runs on
    the ``det_dim + aug_dim`` states of ``(local_dynamics, local_output)``:
    the detectable classes plus the locally observable part of the
    undetectable ones, split off orthogonally by ``inner_split``.
    ``(obs_basis, obs_dim)`` is the observability split of that local pair,
    on which its gain is placed.  ``relayed_output`` is the output on the
    rest of the undetectable classes: below the rank cutoff but not zero,
    so the observer takes it from its relayed estimates.
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
    obs_basis: np.ndarray
    obs_dim: int
    relayed_output: np.ndarray


def _observable_first(splits):
    """Block-diagonal orthogonal matrix of the per-class staircases
    ``(T_k, o_k)`` in ``splits``, its columns reordered so that every
    class's ``o_k`` observable directions come first, and their number."""
    lead = np.array([j < o_k for T_k, o_k in splits for j in range(len(T_k))],
                    dtype=bool)
    B = _block_diag(*(T_k for T_k, _ in splits))
    return np.hstack([B[:, lead], B[:, ~lead]]), int(lead.sum())


def node_local_split(T, classes, node, C_i, detectable, splits):
    """Split the class coordinates by node ``node``'s own visibility.

    ``detectable`` indexes the eigenvalue classes the node estimates from
    its own outputs, its :func:`~distobs.conditions.detectable_set` (as the
    feasibility report's ``per_node_detectable`` holds it); it relies on the
    network for the others.  ``splits`` maps every class index to the
    staircase ``(T_k, o_k)`` of its block against ``C_i``, which that
    decision was read from.  The split makes no rank decision of its own:
    the classes' spectra are disjoint, so the observable subspace of the
    block-diagonal local pair is the direct sum of the classes' observable
    parts, and both ``inner_split`` and ``obs_basis`` are assembled from
    ``splits``.  Returns the :class:`NodeSplit` consumed by the
    root-coverage observer synthesis.
    """
    n = T.shape[0]
    C_i = nk.as_matrix(C_i, f"C_{node}", cols=n)
    sl = _slices([c.dim for c in classes])
    detectable = sorted(detectable)
    undetectable = [k for k in range(len(classes)) if k not in detectable]
    ordered = detectable + undetectable
    cols = [r for k in ordered for r in range(sl[k].start, sl[k].stop)]
    Jr = _block_diag(*(classes[k].block for k in ordered))
    Cr = (C_i @ T)[:, cols]
    det_dim = sum(classes[k].dim for k in detectable)
    Tbar, aug_dim = _observable_first([splits[k] for k in undetectable])
    J_aug = (Tbar.T @ Jr[det_dim:, det_dim:] @ Tbar)[:aug_dim, :aug_dim]
    H_und = Cr[:, det_dim:] @ Tbar
    T_loc, obs_dim = _observable_first(
        [splits[k] for k in detectable] + [(np.eye(aug_dim), aug_dim)])
    return NodeSplit(
        node=node,
        detectable=tuple(detectable),
        undetectable=tuple(undetectable),
        perm=np.eye(n)[:, cols],
        inner_split=Tbar,
        local_dynamics=_block_diag(Jr[:det_dim, :det_dim], J_aug),
        local_output=np.hstack([Cr[:, :det_dim], H_und[:, :aug_dim]]),
        det_dim=det_dim,
        aug_dim=aug_dim,
        obs_basis=T_loc,
        obs_dim=obs_dim,
        relayed_output=H_und[:, aug_dim:],
    )


@dataclass(frozen=True, eq=False)
class JordanSystem:
    """Eigenvalue-class coordinates of a plant plus every node's split.

    Attributes
    ----------
    plant : Plant
        The plant the coordinates were computed for.
    T : (n, n) ndarray
        Real similarity with ``inv(T) @ A @ T`` block diagonal, one block
        per eigenvalue class; the columns of each class are orthonormal.
    T_inv : (n, n) ndarray
        Precomputed inverse of ``T`` (inverted once, with the basis; the
        runtime recursions reuse it every step).
    A_diag : (n, n) ndarray
        ``inv(T) @ A @ T`` as the block diagonal of the class blocks.
    classes : tuple of EigenClass
        Eigenvalue classes in the column order of ``T``, the feasibility
        table's own (:func:`numkit.eigen_info`) with their blocks attached.
    per_node : tuple of NodeSplit
        Entry ``i - 1`` is node ``i``'s detectable/undetectable split.
    cond_T : float
        2-norm condition number of ``T``.
    """

    plant: Plant
    T: np.ndarray
    T_inv: np.ndarray
    A_diag: np.ndarray
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
    """Compute eigenvalue-class coordinates of ``p`` and split them per node.

    ``report``, a ``feasibility_report(p, g, tol)``, supplies the table of
    class bases and staircases its verdicts were read from; each node's
    detectable set and split are read from that table, so no decision is
    made twice and the splits follow the report's root sets; its
    tolerances win over ``tol``.  Without it, one table is built here.
    :func:`node_local_split` runs once per distinct output matrix, for the
    lowest node id that has it; nodes with identical outputs receive a
    shallow copy of that split with their own id, sharing its arrays.

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
    t = (_RankTable(p.A, tol or nk.DEFAULT_TOL) if report is None
         else report.table)
    T, T_inv, cond_T, classes, A_diag = _jordan_basis(t)
    ks = range(len(classes))
    per_node = []
    for i, (C_i, r) in enumerate(zip(p.C, p._output_rep), 1):
        if r != i:
            per_node.append(_copy_with(per_node[r - 1], node=i))
            continue
        per_node.append(node_local_split(T, classes, i, C_i,
                                         t.detects(i, C_i),
                                         t.splits(i, C_i, ks)))
    return JordanSystem(
        plant=p, T=T, T_inv=T_inv, A_diag=A_diag, classes=classes,
        per_node=tuple(per_node), cond_T=cond_T,
    )
