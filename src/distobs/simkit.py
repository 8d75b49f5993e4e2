"""Deterministic simulation of the plant and every node's observer.

One engine drives both observer families over a static graph or a switching
link-failure signal, with synchronous semantics: at step ``k`` every node
reads its neighbors' step-``k`` estimates, then all nodes advance at once.
Traces carry absolute and normalized error histories; the normalized metric
``error / (1 + ‖x‖)`` is the one convergence is judged on, because with an
unstable plant the state outgrows any absolute-error resolution within a few
dozen steps.

A design is compiled into frames, one basis shared by many nodes: a
Scheme-1 component's decomposition, the plant basis for Scheme-1 relay
nodes, or the Scheme-2 class basis.  In its frame a node copies each
coordinate from its parents on the coordinate's relay route, or keeps its
own, so a step of either scheme, static or switched, is one gather and one
batched product; a switched run reweighs the routed coordinates only at the
steps where its mode changes, and local-observer innovations are formed only
at the nodes with a gain.  Both schemes share the frame, weight and
parent-map code.

A run allocates the trace it returns and, besides it, one block buffer of a
few steps in which the error norms are formed; no other array it makes is
of the size of the estimate record.
"""

import hashlib
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from typing import NamedTuple

import numpy as np

from .decomp import MultiSensorDecomposition, Plant
from .errors import InvalidSignal, NumericalError, ShapeError
from .netgraph import _is_id
from .synth_c1 import Condition1Design
from .synth_c2 import C2ObserverBank

__all__ = [
    "SwitchingSignal",
    "SimulationTrace",
    "Assumption2Check",
    "NodeConvergence",
    "simulate",
    "make_assumption2_signal",
    "validate_assumption2",
    "convergence_metrics",
    "dag_parent_map",
]


@dataclass(frozen=True, eq=False)
class SwitchingSignal:
    """Edge-failure signal: a mode list and a per-step mode index.

    ``modes[schedule[k]]`` is the set of edges alive while the step-``k``
    estimates are exchanged.  ``window_T`` is the declared dwell window the
    repair guarantee refers to; one that is not an integer of at least 1
    raises ``ValueError``, and a schedule entry that is not an integer, or
    that indexes no mode, raises ``InvalidSignal`` when the signal is built.
    """

    modes: tuple
    schedule: tuple
    window_T: int
    seed: object = None

    def __post_init__(self):
        _check_count(self.window_T, "window_T", "window", 1)
        for k, m in enumerate(self.schedule):
            if not _is_id(m):
                raise InvalidSignal(
                    "the schedule must hold integer mode indices, got "
                    f"{m!r} at step {k}"
                )
            if not 0 <= m < len(self.modes):
                raise InvalidSignal(f"mode index {m} out of range at step {k}")

    @cached_property
    def _edge_table(self):
        """``(edges, live)``: every edge of some mode, sorted, and which
        mode holds which edge; a generated signal comes with its own."""
        edges = sorted(set().union(*self.modes))
        col = {e: c for c, e in enumerate(edges)}
        sizes = [len(mode) for mode in self.modes]
        live = np.zeros((len(self.modes), len(edges)), dtype=bool)
        live[np.repeat(np.arange(len(sizes)), sizes),
             np.fromiter(map(col.__getitem__, chain.from_iterable(self.modes)),
                         dtype=np.intp, count=sum(sizes))] = True
        live.flags.writeable = False
        return edges, live

    def _columns(self, edges):
        """``(mode, edge)`` flags of ``edges``, in their order; an edge that
        no mode holds reads dead throughout."""
        table, live = self._edge_table
        col = {e: c for c, e in enumerate(table)}
        kc = np.array([(k, col[e]) for k, e in enumerate(edges) if e in col],
                      dtype=np.intp).reshape(-1, 2)
        out = np.zeros((len(self.modes), len(edges)), dtype=bool)
        out[:, kc[:, 0]] = live[:, kc[:, 1]]
        return out

    def edges_at(self, k):
        """Edge set alive at step ``k``; a ``k`` that is not a nonnegative
        integer, or one beyond the schedule, raises ``InvalidSignal``."""
        if not (_is_id(k) and k >= 0):
            raise InvalidSignal(f"step {k!r} is not a nonnegative integer")
        if k >= len(self.schedule):
            raise InvalidSignal(
                f"step {k} beyond the schedule ({len(self.schedule)} steps)"
            )
        return self.modes[self.schedule[k]]


@dataclass(frozen=True, eq=False)
class SimulationTrace:
    """State, estimates, and error histories of one simulation run.

    ``x[k]`` is the true state, ``xhat[i - 1, k]`` node ``i``'s estimate,
    ``err``/``rel_err`` the absolute and normalized error norms, and
    ``mode_indices[k]`` the signal mode active while step ``k``'s estimates
    were exchanged (``None`` on the final record and throughout static runs).
    """

    x: np.ndarray
    xhat: np.ndarray
    err: np.ndarray
    rel_err: np.ndarray
    mode_indices: tuple
    metadata: dict

    @property
    def n_steps(self):
        """Number of records, horizon plus one."""
        return self.x.shape[0]

    @property
    def n_nodes(self):
        return self.xhat.shape[0]


def _check_count(v, name, what, least):
    """Raise ``ValueError`` unless ``v`` is a Python or numpy integer of at
    least ``least``; ``name`` is the argument, ``what`` its quantity."""
    if not _is_id(v):
        raise ValueError(f"{name} must be an integer, got {v!r}")
    if v < least:
        raise ValueError(f"{what} must be at least {least}, got {v}")


def _scenario_hash(p, x0, est0, K, signal, scheme):
    h = hashlib.sha256()
    h.update(p.A.tobytes())
    # each output matrix then its shape text, in one update: the same bytes
    # as one update apiece; a Plant holds float arrays
    shape_text = {s: str(s).encode() for s in {Ci.shape for Ci in p.C}}
    h.update(b"".join(Ci.tobytes() + shape_text[Ci.shape] for Ci in p.C))
    h.update(np.asarray(x0, dtype=float).tobytes())
    h.update(est0.tobytes())
    h.update(str(K).encode())
    h.update(scheme.encode())
    if signal is not None:
        h.update(str(signal.window_T).encode())
        h.update(np.asarray(signal.schedule, dtype=np.int64).tobytes())
        # each mode as the text of its sorted edge list, node ids as ints
        edges, live = signal._edge_table
        strs = [repr((int(a), int(b))) for a, b in edges]
        h.update("".join("[" + ", ".join(compress(strs, row)) + "]"
                         for row in live.tolist()).encode())
    return h.hexdigest()


def _check_signal(signal, g, K):
    if signal is None:
        return
    edges, live = signal._edge_table
    alien = np.fromiter((e not in g.edges for e in edges), dtype=bool,
                        count=len(edges))
    bad = live & alien
    if bad.any():
        m = int(np.argmax(bad.any(axis=1)))
        raise InvalidSignal(
            f"mode {m} contains edges "
            f"{list(compress(edges, bad[m].tolist()))} absent from the "
            "baseline graph"
        )
    if len(signal.schedule) < K:
        raise InvalidSignal(
            f"schedule covers {len(signal.schedule)} steps, horizon is {K}"
        )


# Each chunk of the batched products costs about as much as this many rows.
_CHUNK_COST = 16
# Entries of the buffer the error norms are formed in: as many whole steps
# of the estimate record as fit, and at least one.
_NORM_ENTRIES = 1 << 15


@dataclass(frozen=True, eq=False)
class _NetworkOperator:
    """A design compiled into frames: one gather and one product per step.

    A frame is a basis ``T`` that a set of nodes share: a Scheme-1
    component's decomposition, the Scheme-2 class basis, or the plant basis
    for Scheme-1 relay nodes.  In its coordinates ``z = T⁻¹ x̂`` each node
    takes every coordinate either from its own estimate or, weighted, from
    its parents on the coordinate's relay route, and one step is

        ν_g      = C_g x[k] − Cs_g s_g[k] − Cu_g x̂_g[k]   (gain nodes g only)
        s_g[k+1] = F_g s_g[k] + H_g ν_g
        x̂_i[k+1] = T D g_i + T A1 z_i + (U_i s_i[k+1] or H_i ν_i)

    where ``g_i`` holds the gathered coordinates, ``D`` the block-diagonal
    sub-state or class dynamics and ``A1`` the Scheme-1 couplings (zero for
    Scheme 2 and the plant basis, whose ``D`` is ``A``).  ``F``, ``U`` and
    ``Cu`` are ``None`` for Scheme 1, where the gain nodes add ``H_g ν_g``
    to their estimate; under Scheme 2 a gain node's detected classes come
    from its local observer ``U_g s_g`` instead of its own coordinates, and
    ``Cu_g`` reads the output its local pair leaves out from its relayed
    classes (``NodeSplit.relayed_output``).  The
    innovation is formed before the gain multiplies it: folding the gain
    into ``F`` and ``C`` cancels large terms and loses digits on high-gain
    designs.

    The nodes of each frame fill ``R``-row chunks, frames with a basis
    first, and ``rows[i]`` is node ``i``'s row.  A step reads the source
    vector ``[Z | x̂ | 0]``: the estimates in row order, ``Z`` their leading
    chunks times each chunk's ``Tinv`` (its frame's ``T⁻ᵀ``), and a zero
    for unused columns.  ``take`` holds, for every row and column ``slot *
    n + coordinate``, its source position and ``column`` its weight entry;
    the product with ``M``, per chunk ``S`` copies of ``(T D)ᵀ`` above
    ``(T A1)ᵀ`` for Scheme 1, sums the slots into the new estimates.  The
    numpy calls per step do not depend on the number of frames, routes or
    links.

    Weight entries are every routed ``(child, parent, route)`` slot, then
    under switching one fallback slot per ``(child, route)`` group, then
    the own slots of weight 1, then the zero.  ``fixed`` holds their static
    weights.  Whenever a switched run changes mode (:func:`_run`), each
    group splits its weight uniformly over the parents whose link is alive,
    and a group with none gives weight 1 to its fallback; ``edges`` lists
    the distinct routed links, 1-based ``(parent, child)`` pairs, and
    ``entry_edge`` and ``group`` each routed entry's link and group.
    ``gap`` is the largest ``‖T (D + A1) T⁻¹ − A‖ / ‖A‖`` over the frames.
    """

    gain: np.ndarray
    H: np.ndarray
    C: np.ndarray
    Cs: np.ndarray
    F: object
    U: object
    Cu: object
    Tinv: np.ndarray
    take: np.ndarray
    column: np.ndarray
    M: np.ndarray
    rows: np.ndarray
    fixed: np.ndarray
    edges: list
    entry_edge: np.ndarray
    group: np.ndarray
    gap: float


def _scheme(design):
    """``"c1"`` for a sub-state-consensus design, ``"c2"`` for a
    per-eigenvalue bank; anything else raises :class:`ShapeError`."""
    if isinstance(design, (Condition1Design, C2ObserverBank)):
        return "c1" if isinstance(design, Condition1Design) else "c2"
    raise ShapeError("design must be a Condition1Design or a C2ObserverBank, "
                     f"got {type(design).__name__}")


class _Part(NamedTuple):
    """Some coordinates of a frame: the non-roots of ``route`` take them
    from their parents, the nodes of ``own`` (route ids) from themselves,
    in the last slot when ``last`` (the couplings)."""

    coords: np.ndarray
    label: str
    route: object
    own: tuple
    last: bool = False


class _Frame(NamedTuple):
    """A basis and the nodes that use it: ``basis`` is a component's
    decomposition, the class system, or ``None`` for the plant basis;
    ``members`` lists the global ids of the frame's nodes, and
    ``ids[v - 1]`` is the global id of route node ``v``."""

    basis: object
    members: tuple
    ids: tuple
    parts: list


def _frames(design):
    """Every frame of a design, those with a basis first.

    The sub-state-consensus design gives per component its tail, which
    every member keeps (``"c<component>"``), each nonempty sub-state's
    route from its source (``"c<component>/s<sub-state>"``) and the
    couplings, which every member reads from its whole estimate; then the
    relay nodes take the whole state in the plant basis (``"relay"``).
    The per-eigenvalue bank gives each relayed class's route
    (``"class<index>"``), then the classes every node detects.
    """
    if _scheme(design) == "c2":
        jsys, ids = design.jsys, design.graph.nodes
        coords = [np.arange(sl.start, sl.stop) for sl in jsys.slots]
        parts = [_Part(coords[k], f"class{k}", route, route.roots)
                 for k, route in design.class_weights.items()]
        parts += [_Part(coords[k], f"class{k}", None, ids)
                  for k in range(len(coords)) if k not in design.class_weights]
        yield _Frame(jsys, ids, ids, parts)
        return
    n = design.plant.n
    for c, comp in enumerate(design.components):
        d = comp.decomposition
        local = tuple(range(1, len(comp.nodes) + 1))
        u = d.unobs_slice
        parts = [_Part(np.arange(u.start, u.stop), f"c{c}", None, local)]
        for j, route in comp.bank.weights.items():
            sl = d.block_slice(j)
            parts.append(_Part(np.arange(sl.start, sl.stop), f"c{c}/s{j}",
                               route, route.roots))
        parts.append(_Part(np.arange(n), f"c{c}", None, local, last=True))
        yield _Frame(d, comp.nodes, comp.nodes, parts)
    if design.relay is not None:
        yield _Frame(None, design.relay.relay_nodes, design.graph.nodes,
                     [_Part(np.arange(n), "relay", design.relay, ())])


def _maps(basis, A):
    """``(T, T_inv, D, A1)`` of a frame; ``None`` for the identity and for
    absent couplings."""
    if basis is None:
        return None, None, A, None
    D = basis.A_diag
    A1 = (basis.Abar - D if isinstance(basis, MultiSensorDecomposition)
          else None)
    return basis.T, basis.T_inv, D, A1


def _chunk_rows(sizes):
    """Rows per chunk that minimize the padded rows plus the chunk cost."""
    sizes = np.asarray(sizes)
    R = np.arange(1, sizes.max() + 1)
    chunks = -(-sizes[:, None] // R)
    return int(R[np.argmin((chunks * (R + _CHUNK_COST)).sum(axis=0))])


def _c1_local(p, design):
    """``(gain, H, None, None, None, None, None)`` of the sub-state-consensus
    design: ``TH_i`` at each node that sources a nonempty sub-state with a
    nonzero gain.  A node's state is its estimate, measured through its own
    ``C_i``.  The bank's ``G_il`` are not read."""
    gain, H = [], []
    for comp in design.components:
        d, bank = comp.decomposition, comp.bank
        for j in bank.weights:  # the nonempty sub-states
            i = d.source_node(j)
            if bank.TH[i - 1].any():
                gain.append(comp.nodes[i - 1] - 1)
                H.append(bank.TH[i - 1])
    Hs = np.zeros((len(gain), p.n, max(Ci.shape[0] for Ci in p.C)))
    for k, Hk in enumerate(H):
        Hs[k, :, :Hk.shape[1]] = Hk
    return np.array(gain, dtype=np.intp), Hs, None, None, None, None, None


def _c2_local(p, bank, est0):
    """``(gain, H, Cs, F, U, Cu, s0)`` of the per-eigenvalue bank, at the
    nodes with a nonzero local gain.

    Node ``g``'s observer state ``s_g`` has dynamics ``F_g``, gain ``H_g``
    and output model ``Cs_g``; its detected classes are ``U_g s_g`` (the
    detectable columns of ``T · perm``), and ``Cu_g`` maps its estimate to
    the output of its relayed classes' directions outside ``s_g``.
    """
    n, jsys = p.n, bank.jsys
    recs = [rec for rec in bank.nodes if rec.gain.size and rec.gain.any()]
    gain = np.array([rec.node - 1 for rec in recs], dtype=np.intp)
    width = max([r.split.det_dim + r.split.aug_dim for r in recs], default=0)
    r_max = max(Ci.shape[0] for Ci in p.C)
    F = np.zeros((gain.size, width, width))
    H = np.zeros((gain.size, width, r_max))
    Cs = np.zeros((gain.size, r_max, width))
    U = np.zeros((gain.size, n, width))
    Cu = np.zeros((gain.size, r_max, n))
    s0 = np.zeros((gain.size, width))
    Z = est0[gain] @ jsys.T_inv.T
    for k, rec in enumerate(recs):
        sp = rec.split
        det, ds = sp.det_dim, sp.det_dim + sp.aug_dim
        r = rec.gain.shape[1]
        F[k, :ds, :ds] = sp.local_dynamics
        H[k, :ds, :r] = rec.gain
        Cs[k, :r, :ds] = sp.local_output
        U[k, :, :det] = (jsys.T @ sp.perm)[:, :det]
        Cu[k, :r] = sp.relayed_output @ (
            sp.inner_split[:, sp.aug_dim:].T @ (sp.perm.T @ jsys.T_inv)[det:])
        zbar = Z[k] @ sp.perm
        s0[k, :det] = zbar[:det]
        s0[k, det:ds] = (zbar[det:] @ sp.inner_split)[:sp.aug_dim]
    return gain, H, Cs, F, U, Cu, s0


def _entries(frames, switched, skip):
    """Every weight entry of the frames' parts as ``(child, parent, slot,
    weight, part)`` arrays (0-based global ids, ``part`` indexing the
    parts in frame order), then each routed entry's ``(child, route)``
    group and the number of routed entries.

    Routed entries come first, read from each route's rows (its weight
    rows, or under ``switched`` its parent sets), then under ``switched``
    one fallback entry per group, in the slot after its parents, then the
    own entries of weight 1, in slot 0 or, for a ``last`` part, -1, for
    every node of a part's ``own`` not flagged in ``skip``.
    """
    parts = [part for frame in frames for part in frame.parts]
    ids = np.concatenate([np.asarray(f.ids, dtype=np.intp) for f in frames])
    # off[part] + v indexes the global id of the part's route node v
    off = np.repeat(np.cumsum([0] + [len(f.ids) for f in frames])[:-1] - 1,
                    [len(f.parts) for f in frames])
    arcs = [None if part.route is None else part.route.arcs(switched)
            for part in parts]
    part = np.repeat(np.arange(len(parts)), [0 if a is None else a[0].size
                                             for a in arcs])
    arcs = [a for a in arcs if a is not None]
    cat = np.concatenate
    none = np.zeros(0, dtype=np.intp)
    child = ids[off[part] + cat([a[0] for a in arcs] + [none])]
    parent = ids[off[part] + cat([a[1] for a in arcs] + [none])]
    weight = np.zeros(part.size) if switched else cat(
        [a[2] for a in arcs] + [np.zeros(0)])
    # a group (one child's row in one part) starts where either changes
    starts = np.ones(part.size, dtype=bool)
    starts[1:] = (child[1:] != child[:-1]) | (part[1:] != part[:-1])
    first = np.flatnonzero(starts)
    count = np.diff(np.append(first, part.size))
    kid, kid_part = child[first], part[first]
    slot = np.arange(part.size) - np.repeat(first, count)
    own_part = np.repeat(np.arange(len(parts)), [len(p.own) for p in parts])
    own = ids[off[own_part] + np.fromiter(
        chain.from_iterable(p.own for p in parts), dtype=np.intp,
        count=own_part.size)]
    keep = ~skip[own - 1]
    own, own_part = own[keep], own_part[keep]
    fall = kid if switched else kid[:0]
    last = np.array([p.last for p in parts], dtype=bool)
    return (cat([child, fall, own]) - 1,
            cat([parent, fall, own]) - 1,
            cat([slot, count[:fall.size], -last[own_part].astype(np.intp)]),
            cat([weight, np.ones(fall.size + own.size)]),
            cat([part, kid_part[:fall.size], own_part]),
            np.cumsum(starts) - 1, part.size)


def _compile(p, design, est0, switched):
    """``(operator, s0)``: a design compiled into frames (see
    :class:`_NetworkOperator`) and the gain nodes' initial observer states.

    Every frame coordinate of every node becomes one weight entry per
    source slot (:func:`_entries`): a routed parent (the route's static
    weights, or under a ``switched`` run its parent sets plus a fallback to
    the node itself), or the node itself with weight 1.  A Scheme-2 gain
    node takes no entry for its detected classes, which its local observer
    gives.  The frames' nodes fill ``R``-row chunks, ``R`` chosen by
    :func:`_chunk_rows`.
    """
    n, N = p.n, p.n_nodes
    c1 = _scheme(design) == "c1"
    gain, H, Cs, F, U, Cu, s0 = (_c1_local(p, design) if c1
                                 else _c2_local(p, design, est0))
    C = np.zeros((gain.size, H.shape[2], n))
    for k, i in enumerate(gain.tolist()):
        C[k, :p.C[i].shape[0]] = p.C[i]
    frames = list(_frames(design))
    sizes = np.array([len(f.members) for f in frames])
    R = _chunk_rows(sizes)
    chunks = -(-sizes // R)
    chunk_frame = np.repeat(np.arange(len(frames)), chunks)
    members = np.concatenate([np.asarray(f.members, dtype=np.intp)
                              for f in frames])
    row = np.empty(N, dtype=np.intp)
    row[members - 1] = (np.repeat((np.cumsum(chunks) - chunks) * R - (
        np.cumsum(sizes) - sizes), sizes) + np.arange(members.size))
    in_chunks = int(chunks[[f.basis is not None for f in frames]].sum())
    z_size = in_chunks * R * n
    rows_total = chunk_frame.size * R
    # a Scheme-2 gain node's detected classes come from its local observer
    skip = np.zeros(N, dtype=bool)
    skip[gain] = not c1
    child, parent, slot, weight, part, group, n_routed = _entries(
        frames, switched, skip)
    S = int(slot.max(initial=0)) + 1
    slot[slot < 0] = S

    # one column per entry and coordinate of its part
    blocks = [q.coords for f in frames for q in f.parts]
    plain = np.array([f.basis is None for f in frames for _ in f.parts])
    blen = np.array([b.size for b in blocks], dtype=np.intp)
    size = blen[part]
    rep = np.repeat(np.arange(child.size), size)
    coord = np.concatenate(blocks)[np.repeat(
        (np.cumsum(blen) - blen)[part] - (np.cumsum(size) - size), size)
        + np.arange(rep.size)]
    base = np.where(plain[part], z_size, 0) + row[parent] * n
    take = np.full((rows_total, (S + c1) * n), z_size + rows_total * n,
                   dtype=np.intp)
    column = np.full(take.shape, child.size, dtype=np.intp)
    at = (row[child][rep], slot[rep] * n + coord)
    take[at] = base[rep] + coord
    column[at] = rep

    M, Tinv, gap = [], [], 0.0
    norm_A = np.linalg.norm(p.A) or 1.0
    for T, T_inv, D, A1 in (_maps(f.basis, p.A) for f in frames):
        A1 = np.zeros_like(D) if A1 is None else A1
        if T is None:
            TD, TA1 = D, A1
        else:
            TD, TA1 = T @ D, T @ A1
            Tinv.append(T_inv.T)
            gap = max(gap, np.linalg.norm((TD + TA1) @ T_inv - p.A) / norm_A)
        M.append(np.vstack([TD.T] * S + [TA1.T] * c1))
    pairs = np.unique((parent[:n_routed] + 1) * (N + 1) + child[:n_routed] + 1,
                      return_inverse=True)
    op = _NetworkOperator(
        gain=gain, H=H, C=C, Cs=C if Cs is None else Cs, F=F, U=U, Cu=Cu,
        Tinv=np.array(Tinv, dtype=float).reshape(-1, n, n)[
            chunk_frame[:in_chunks]],
        take=take.reshape(-1, R, take.shape[1]),
        column=column.reshape(take.shape[0] // R, R, -1),
        M=np.array(M)[chunk_frame], rows=row,
        fixed=np.append(weight, 0.0),
        edges=[divmod(k, N + 1) for k in pairs[0].tolist()],
        entry_edge=pairs[1].reshape(-1),
        group=group if switched else group[:0], gap=float(gap),
    )
    return op, s0


def _run(op, A, x0, s0, xh0, K, signal):
    """Step the plant and every node ``K`` times; ``(x, xhat)`` records."""
    N, n = xh0.shape
    x = np.empty((K + 1, n))
    x[0] = x0
    for k in range(K):  # the plant does not depend on the estimates
        x[k + 1] = A @ x[k]
    y = (x[:K] @ op.C.reshape(-1, n).T).reshape(K, *op.C.shape[:2], 1)
    # the source vector [Z | x̂ | 0], the estimates in chunk-row order: each
    # step writes Z and x̂ in place and records x̂ in node order
    R = op.take.shape[1]
    src = np.zeros((op.Tinv.shape[0] + op.take.shape[0]) * R * n + 1)
    Z = src[:op.Tinv.shape[0] * R * n].reshape(-1, R, n)
    xh = src[Z.size:-1].reshape(-1, R, n)
    xh.reshape(-1, n)[op.rows] = xh0
    rec = np.empty((K + 1, N, n))
    rec[0] = xh0
    at = op.rows[op.gain]
    s = None if op.U is None else s0[..., None]
    w = op.fixed.take(op.column)
    if signal is None:
        sched, mode = (None,) * K, None
    else:
        sched, mode = signal.schedule[:K], -1
        links, fixed = signal._columns(op.edges), op.fixed.copy()
        routed = op.entry_edge.size
        groups = int(op.group.max(initial=-1)) + 1
    for k, m in enumerate(sched):
        if m != mode:  # a new mode: reweigh the routed and fallback entries
            mode, alive = m, links[m][op.entry_edge]
            count = np.bincount(op.group, weights=alive, minlength=groups)
            fixed[:routed] = alive / np.maximum(count, 1)[op.group]
            fixed[routed:routed + groups] = count == 0
            fixed.take(op.column, out=w)
        if op.U is None:
            innov = y[k] - op.Cs @ xh.reshape(-1, n, 1)[at]
            local = op.H @ innov
        else:
            innov = y[k] - op.Cs @ s - op.Cu @ xh.reshape(-1, n, 1)[at]
            s = op.F @ s + op.H @ innov
            local = op.U @ s
        np.matmul(xh[:Z.shape[0]], op.Tinv, out=Z)
        X = src.take(op.take)
        X *= w
        np.matmul(X, op.M, out=xh)
        xh.reshape(-1, n)[at] += local[..., 0]
        xh.reshape(-1, n).take(op.rows, axis=0, out=rec[k + 1])
    return x, rec.transpose(1, 0, 2)


def _norm_steps(N, n):
    """Steps of the estimate record per block of the error norms."""
    return max(1, _NORM_ENTRIES // (N * n))


def _error_norms(x, xhat):
    """``‖x̂_i[k] − x[k]‖`` as an ``(N, K + 1)`` view of a ``(K + 1, N)``
    array.  The differences are formed a block of steps at a time in one
    reused buffer, never for the whole record at once."""
    rec = xhat.transpose(1, 0, 2)
    B = _norm_steps(*rec.shape[1:])
    sq = np.empty(rec.shape[:2])
    buf = np.empty((min(B, len(rec)), *rec.shape[1:]))
    for k in range(0, len(rec), B):
        d = np.subtract(rec[k:k + B], x[k:k + B, None],
                        out=buf[:len(rec) - k])
        np.einsum("kni,kni->kn", d, d, out=sq[k:k + B])
    return np.sqrt(sq, out=sq).T


def simulate(p, bank, x0, est0=None, K=50, signal=None):
    """Run the plant and all observers for ``K`` steps.

    The bank is compiled into frames (see :class:`_NetworkOperator`), and
    each step advances every node at once.  ``metadata["operator_gap"]`` is
    the largest relative gap ``‖T (D + A1) T⁻¹ − A‖ / ‖A‖`` between a
    frame's compiled dynamics and the plant map.

    Memory: besides its outputs ``x``, ``xhat``, ``err`` and ``rel_err``,
    a call holds the compiled operator, one step's work arrays (under a
    signal also its modes' live routed links, one flag per mode and link,
    and the weights of the current mode) and one ``(B, N, n)`` buffer in
    which the error norms are formed ``B`` steps at a time, ``B`` as many
    steps as fit in ``_NORM_ENTRIES`` entries and at least one; it makes no
    second array of the size of the estimate record.

    Parameters
    ----------
    p : Plant
    bank : Condition1Design or C2ObserverBank
    x0 : (n,) array_like
        Initial plant state.
    est0 : (N, n) array_like, optional
        Initial estimates, one row per node; zeros when omitted.
    K : int
        Horizon; the trace has ``K + 1`` records.
    signal : SwitchingSignal, optional
        Link-failure signal; omitted means the full graph at every step.

    Returns
    -------
    SimulationTrace

    Raises
    ------
    InvalidSignal
        On a schedule shorter than the horizon or mode edges outside the
        baseline graph.
    ShapeError
        On inconsistent dimensions or a bank of neither scheme.
    NumericalError
        When the state, an estimate or an error norm stops being finite;
        the message names the first such step.
    """
    if not isinstance(p, Plant):
        raise ShapeError("first argument must be a Plant")
    _check_count(K, "horizon K", "horizon", 1)
    N = p.n_nodes
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape != (p.n,):
        raise ShapeError(f"x0 must have {p.n} entries, got {x0.shape}")
    if est0 is None:
        est0 = np.zeros((N, p.n))
    try:
        est0 = np.asarray(est0, dtype=float)
    except ValueError:  # ragged
        est0 = None
    if est0 is None or est0.ndim == 0 or est0.shape[0] != N \
            or est0.size != N * p.n:
        raise ShapeError(f"est0 must hold {N} vectors of {p.n} entries")
    est0 = est0.reshape(N, p.n)
    scheme = _scheme(bank)
    op, s0 = _compile(p, bank, est0, signal is not None)
    _check_signal(signal, bank.graph, K)
    with np.errstate(over="ignore", invalid="ignore"):
        x_arr, xh_arr = _run(op, p.A, x0, s0, est0, K, signal)
        err = _error_norms(x_arr, xh_arr)
        x_norm = np.linalg.norm(x_arr, axis=1)
    # a finite error norm at every node implies a finite state and estimates
    finite = np.isfinite(err).all(axis=0) & np.isfinite(x_norm)
    rel = err / (1.0 + x_norm)[None, :]
    if not finite.all():
        raise NumericalError(
            f"simulation overflowed at step {int(np.argmin(finite))} of {K}: "
            "the state, an estimate or an error norm is not finite"
        )
    if signal is None:
        modes = (None,) * (K + 1)
    else:
        modes = tuple(signal.schedule[:K]) + (None,)
    meta = {
        "scheme": scheme,
        "seed": getattr(signal, "seed", None),
        "scenario_hash": _scenario_hash(p, x0, est0, K, signal, scheme),
        "operator_gap": op.gap,
    }
    return SimulationTrace(
        x=x_arr, xhat=xh_arr, err=err, rel_err=rel,
        mode_indices=modes, metadata=meta,
    )


def dag_parent_map(design):
    """Collect every routed parent set of a design, keyed by a label.

    For the sub-state-consensus design the labels are
    ``"c<component>/s<sub-state>"`` plus ``"relay"``; for the per-eigenvalue
    bank they are ``"class<index>"`` (see :func:`_frames`).  Node ids are
    global, and a route with no parent sets is left out.  This is the
    ``{parent sets}`` input of the link-failure signal generator and
    validator.
    """
    out = {}
    for frame in _frames(design):
        ids = np.asarray(frame.ids)
        for part in frame.parts:
            if part.route is None:
                continue
            child, parent, _ = part.route.arcs(parent_sets=True)
            if not child.size:
                continue
            sets = out[part.label] = {}
            for i, l in zip(ids[child - 1].tolist(), ids[parent - 1].tolist()):
                sets[i] = sets.get(i, ()) + (l,)
    return out


class _ParentSets:
    """Routed ``(label, node, parent tuple)`` entries against edge columns.

    ``col`` maps an edge to its column; the edges of ``edges`` come first,
    in their order, then any parent edge they lack.  ``cols[q]`` lists the
    columns of entry ``q``'s parent edges, and ``flat`` lays these lists end
    to end, entry ``q``'s from ``start[q]``.  :meth:`cover` reads which
    entries see a live parent edge in each window.  Entries with no parents
    are left out.
    """

    def __init__(self, entries, edges=()):
        self.entries = [e for e in entries if e[2]]
        self.col = {e: c for c, e in enumerate(edges)}
        self.cols = [[self.col.setdefault((l, i), len(self.col))
                      for l in parents]
                     for _, i, parents in self.entries]
        self.start = np.cumsum([0] + [len(c) for c in self.cols],
                               dtype=np.intp)[:-1]
        self.flat = np.array([c for cs in self.cols for c in cs], dtype=np.intp)

    def cover(self, live, T):
        """``(window, entry)`` flags from the ``(step, column)`` liveness
        array ``live``: true when some step of the ``T``-step window keeps
        an edge from one of the entry's parents."""
        windows = np.logical_or.reduceat(live, np.arange(0, len(live), T),
                                         axis=0)
        return np.logical_or.reduceat(windows[:, self.flat], self.start,
                                      axis=1)


def make_assumption2_signal(dag_parents, baseline, T, K, drop_prob, seed):
    """Random link-failure signal that keeps every parent set periodically
    alive.

    Each baseline edge drops independently with probability ``drop_prob`` at
    each step; afterwards every window of ``T`` steps is repaired so that
    each routed ``(node, parent set)`` pair sees at least one live parent
    edge inside the window — when the random draw starved a pair for a whole
    window, the first designed parent's edge is restored at the window's
    last step.  Pairs are repaired in the order of ``dag_parents``, and a
    restored edge also serves every later pair it feeds.

    Parameters
    ----------
    dag_parents : dict
        Label to ``{node: parent tuple}`` map (see ``dag_parent_map``).
    baseline : Digraph
    T : int
        Window length, at least 1.
    K : int
        Number of steps to schedule, at least 0.
    drop_prob : float
        Per-edge per-step drop probability in ``[0, 1)``.
    seed : int or None

    Returns
    -------
    SwitchingSignal

    Raises
    ------
    ValueError
        When ``T`` or ``K`` is not an integer (booleans are not) or is
        below its least value, or ``drop_prob`` is outside ``[0, 1)``.
    """
    if not 0 <= drop_prob < 1:
        raise ValueError(f"drop probability must be in [0, 1), got {drop_prob}")
    _check_count(T, "window T", "window", 1)
    _check_count(K, "step count K", "step count", 0)
    rng = np.random.default_rng(seed)
    edges = sorted(set(baseline.edges))
    sets = _ParentSets(
        ((label, i, parents) for label, pmap in dag_parents.items()
         for i, parents in pmap.items()),
        edges,
    )
    live = np.zeros((K, len(sets.col)), dtype=bool)
    live[:, :len(edges)] = rng.random((K, len(edges))) >= drop_prob
    if K and sets.entries:
        restored = set()
        for w, q in zip(*np.nonzero(~sets.cover(live, T))):
            if any((w, c) in restored for c in sets.cols[q]):
                continue
            c = sets.cols[q][0]
            restored.add((w, c))
            live[min(w * T + T, K) - 1, c] = True
    rows, first, inverse = np.unique(live, axis=0, return_index=True,
                                     return_inverse=True)
    order = np.argsort(first)
    rank = np.argsort(order)
    cols = list(sets.col)
    sig = SwitchingSignal(
        modes=tuple(frozenset(compress(cols, rows[u].tolist())) for u in order),
        schedule=tuple(rank[inverse.reshape(-1)].tolist()),
        window_T=T, seed=seed,
    )
    # its edge table: these rows on the edges some mode holds, sorted
    held = sorted(np.flatnonzero(rows.any(0)).tolist(), key=cols.__getitem__)
    table = rows[order][:, held]
    table.flags.writeable = False
    vars(sig)["_edge_table"] = [cols[c] for c in held], table
    return sig


@dataclass(frozen=True)
class Assumption2Check:
    """Window-coverage verdict; falsy when some window starves a parent set.

    ``violation`` is ``None`` or the first ``(window index, node, label)``
    whose window never showed a live parent edge.
    """

    ok: bool
    violation: tuple = None

    def __bool__(self):
        return self.ok


def validate_assumption2(signal, dag_parents, T=None):
    """Check that every routed parent set is alive once per window.

    Scans each window of ``T`` steps (default: the signal's own declared
    window) and reports the first ``(window, node, label)`` for which no
    step in the window keeps an edge from any designed parent.  A ``T``
    that is not an integer of at least 1 raises ``ValueError``.
    """
    T = signal.window_T if T is None else T
    _check_count(T, "window T", "window", 1)
    sched = np.asarray(signal.schedule, dtype=np.intp).reshape(-1)
    sets = _ParentSets(
        (label, i, parents) for label, pmap in sorted(dag_parents.items())
        for i, parents in sorted(pmap.items())
    )
    if sched.size and sets.entries:
        by_mode = signal._columns(list(sets.col))
        starved = np.nonzero(~sets.cover(by_mode[sched], T))
        if starved[0].size:
            w, q = int(starved[0][0]), int(starved[1][0])
            label, i, _ = sets.entries[q]
            return Assumption2Check(False, (w, i, label))
    return Assumption2Check(True, None)


@dataclass(frozen=True, eq=False)
class NodeConvergence:
    """Convergence summary of one node's normalized error history."""

    node: int
    final_rel_error: float
    monotone_tail: bool
    rel_errors: np.ndarray

    def first_step_below(self, eps):
        """First record index with normalized error under ``eps``, or
        ``None`` if the trace never gets there."""
        hits = np.nonzero(self.rel_errors < eps)[0]
        return int(hits[0]) if hits.size else None


def convergence_metrics(trace):
    """Per-node convergence summaries of a trace.

    The tail flag checks that the last quarter of the normalized error
    history is non-increasing up to a 5 % ripple and a 1e-13 floor — a
    diverging run fails it, while a converged run sitting at the rounding
    floor passes.
    """
    r = trace.rel_err
    seg = r[:, -max(3, trace.n_steps // 4):]
    mono = np.all(seg[:, 1:] <= seg[:, :-1] * 1.05 + 1e-13, axis=1)
    return tuple(
        NodeConvergence(node=i, final_rel_error=f, monotone_tail=m,
                        rel_errors=r[i - 1])
        for i, f, m in zip(range(1, trace.n_nodes + 1), r[:, -1].tolist(),
                           mono.tolist())
    )
