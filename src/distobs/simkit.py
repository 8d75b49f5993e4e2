"""Deterministic simulation of the plant and every node's observer.

One engine drives both observer families over a static graph or a switching
link-failure signal, with synchronous semantics: at step ``k`` every node
reads its neighbors' step-``k`` estimates, then all nodes advance at once.
Traces carry absolute and normalized error histories; the normalized metric
``error / (1 + ‖x‖)`` is the one convergence is judged on, because with an
unstable plant the state outgrows any absolute-error resolution within a few
dozen steps.

A design is compiled in two parts.  The scheme gives the local observers,
whose innovations are formed only at the nodes with a gain; every link
comes from the design's relay routes, each carrying one part of the state
through its projector (:func:`_routes`), so both schemes share the link,
switched-row and parent-map code.  A Scheme-1 node's own block is a link
from itself.
"""

import hashlib
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress

import numpy as np

from .decomp import Plant
from .errors import InvalidSignal, NumericalError, ShapeError
from .netgraph import SpanningStructure
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
    repair guarantee refers to.
    """

    modes: tuple
    schedule: tuple
    window_T: int
    seed: object = None

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
        """Edge set alive at step ``k``."""
        if k >= len(self.schedule):
            raise InvalidSignal(
                f"step {k} beyond the schedule ({len(self.schedule)} steps)"
            )
        m = self.schedule[k]
        if not 0 <= m < len(self.modes):
            raise InvalidSignal(f"mode index {m} out of range at step {k}")
        return self.modes[m]


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


def _scenario_hash(p, x0, est0, K, signal, scheme):
    h = hashlib.sha256()
    h.update(np.asarray(p.A, dtype=float).tobytes())
    for Ci in p.C:
        h.update(np.asarray(Ci, dtype=float).tobytes())
        h.update(str(Ci.shape).encode())
    h.update(np.asarray(x0, dtype=float).tobytes())
    # one update with the stacked estimates: the same bytes as one per node
    h.update(np.asarray(est0, dtype=float).tobytes())
    h.update(str(K).encode())
    h.update(scheme.encode())
    if signal is not None:
        h.update(str(signal.window_T).encode())
        h.update(np.asarray(signal.schedule, dtype=np.int64).tobytes())
        # each mode as the text of its sorted edge list, node ids as ints
        edges, live = signal._edge_table
        strs = [repr((int(a), int(b))) for a, b in edges]
        for row in live.tolist():
            h.update(("[" + ", ".join(compress(strs, row)) + "]").encode())
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
    sched = np.asarray(signal.schedule[:K])
    if sched.dtype.kind not in "iu":
        raise InvalidSignal("the schedule must hold integer mode indices")
    out = np.flatnonzero((sched < 0) | (sched >= len(signal.modes)))
    if out.size:
        k = int(out[0])
        raise InvalidSignal(
            f"mode index {signal.schedule[k]} out of range at step {k}")


@dataclass(frozen=True, eq=False)
class _NetworkOperator:
    """A design compiled into one block-sparse affine network step.

    Node ``i`` may run a local observer on a state row ``s_i`` (zero-padded
    to a common width) and publishes an estimate ``x̂_i``.  One step is

        ν_g      = C_g x[k] − Cs_g s_g[k]          (gain nodes g only)
        s_i[k+1] = F_i s_i[k] + H_i ν_i            (H_i = 0 elsewhere)
        x̂_i[k+1] = U_i s_i[k+1] + Σ_{e: dst_e = i} E_e x̂_{src_e}[k]

    ``H``, ``C`` and ``Cs`` hold only the rows of the ``gain`` nodes, those
    with a nonzero gain; every other node does pure consensus.  ``F`` and
    ``U`` are ``None`` when the observer state is the estimate itself
    (Scheme 1): then a node's own block is a link from itself, and the gain
    nodes add ``H_g ν_g``.  The innovation is formed before the gain
    multiplies it: folding the gain into ``F`` and ``C`` cancels large terms
    and loses digits on high-gain designs.

    The sum over links is one ``np.bincount`` over the local part followed
    by the link terms; an ``index`` holds the flat ``(node, coordinate)``
    target of each entry, so each estimate takes its local part first, then
    its links in compiled order.  ``static`` is the triple ``(src, E,
    index)`` of the designed links, one block per ``(src, dst)`` link.

    A switching signal instead drives a fixed list of rows, each one
    projector ``P[q]`` applied to one node's estimate: every routed
    ``(child, parent, projector)`` triple — the dynamics of one sub-state or
    eigenvalue class mapped back to plant coordinates, or the plant map
    itself for a relay node — then every ``(child, projector)`` group's
    fallback to the child's own estimate; a self link is a group without
    parents.  ``rows`` holds each row's flat ``node * len(P) + q`` position
    in the step's products ``P[q] x̂_node`` and ``row_index`` its scatter
    targets.  ``edges`` lists the distinct routed links, ``triple_edge`` and
    ``group`` give each triple's link and group, and :meth:`weights` turns a
    signal into one weight row per mode.  Node indices are 0-based, the
    links of ``edges`` 1-based ``(parent, child)`` pairs.
    """

    gain: np.ndarray
    H: np.ndarray
    C: np.ndarray
    Cs: np.ndarray
    F: object
    U: object
    P: np.ndarray
    static: tuple
    rows: np.ndarray
    row_index: np.ndarray
    edges: list
    triple_edge: np.ndarray
    group: np.ndarray

    def weights(self, signal, K):
        """``(W, step)``: the row weights ``W[step[k]]`` of step ``k``.

        A group splits its weight uniformly over the parents whose link is
        alive; a group with none, a self link always, gives weight 1 to its
        fallback row.  ``W`` holds one row per mode that the first ``K``
        steps use.
        """
        used, step = np.unique(np.asarray(signal.schedule[:K], dtype=np.intp),
                               return_inverse=True)
        alive = signal._columns(self.edges)[used][:, self.triple_edge]
        n_groups = self.rows.size - self.group.size
        count = np.bincount(
            (self.group + n_groups * np.arange(used.size)[:, None]).ravel(),
            weights=alive.ravel(), minlength=used.size * n_groups,
        ).reshape(used.size, n_groups)
        W = np.concatenate(
            [alive / np.maximum(count, 1)[:, self.group], count == 0], axis=1)
        return W, step.reshape(-1)


def _merge_links(src, dst, E):
    """One block per ``(src, dst)`` link: blocks sharing a link are summed
    in order of appearance, and links keep the order they first appear in.
    A link with one block keeps it unchanged."""
    _, lead, slot = np.unique(src * (dst.max(initial=0) + 1) + dst,
                              return_index=True, return_inverse=True)
    order = np.argsort(lead)
    lead, rank = lead[order], np.argsort(order)
    out = E[lead]
    rest = np.delete(np.arange(src.size), lead)
    # np.add.at adds in array order, so each link sums its blocks in order
    np.add.at(out, rank[slot.reshape(-1)[rest]], E[rest])
    return src[lead], dst[lead], out


def _scheme(design):
    """``"c1"`` for a sub-state-consensus design, ``"c2"`` for a
    per-eigenvalue bank; anything else raises :class:`ShapeError`."""
    if isinstance(design, (Condition1Design, C2ObserverBank)):
        return "c1" if isinstance(design, Condition1Design) else "c2"
    raise ShapeError("design must be a Condition1Design or a C2ObserverBank, "
                     f"got {type(design).__name__}")


def _routes(design):
    """Every relay route of a design as ``(label, ids, route, projector,
    own)``.

    ``ids[v - 1]`` is the global id of the route's node ``v``; a parent
    ``l`` of node ``i`` passes ``projector @ x̂_l`` to ``i``, the dynamics of
    the routed part of the state in plant coordinates, and each root of
    ``own`` feeds it to itself the same way.  The sub-state-consensus
    design gives, per component and in component-local ids, the couplings
    and the tail that every member propagates itself (``"c<component>"``, a
    route of roots only, ``N_mat + T[:, u] A_uu T⁻¹[u, :]``) and each
    sub-state's route from its source (``"c<component>/s<sub-state>"``,
    ``P_j = T[:, j] A_jj T⁻¹[j, :]``), then the relay route (``"relay"``,
    ``A``).  The per-eigenvalue bank gives each relayed class's route
    (``"class<index>"``, ``P_c = T[:, c] J_c T⁻¹[c, :]``); a detecting node
    takes its own part from its local observer.
    """
    if _scheme(design) == "c2":
        jsys, ids = design.jsys, design.graph.nodes
        for k, route in design.class_weights.items():
            sl = jsys.class_slice(k)
            yield (f"class{k}", ids, route, jsys.T[:, sl]
                   @ jsys.classes[k].block @ jsys.T_inv[sl, :], ())
        return
    for c, comp in enumerate(design.components):
        d, u = comp.decomposition, comp.decomposition.unobs_slice
        local = tuple(range(1, len(comp.nodes) + 1))
        yield (f"c{c}", comp.nodes, SpanningStructure(local, {}, local, {}),
               comp.bank.N_mat + d.T[:, u] @ (d.A_unobs @ d.T_inv[u, :]),
               local)
        for j, route in comp.bank.weights.items():
            sl = d.block_slice(j)
            yield (f"c{c}/s{j}", comp.nodes, route,
                   d.T[:, sl] @ (d.A_sub(j) @ d.T_inv[sl, :]), route.roots)
    if design.relay is not None:
        yield "relay", design.graph.nodes, design.relay, design.plant.A, ()


def _operator(p, design, F, H, Cs, U, switched):
    """Package a design's local-observer blocks with its routed links.

    Only the nodes with a nonzero gain keep their rows of ``H`` and ``Cs``
    (``None`` when the observer state is the estimate).  A static run gets
    one block ``Σ w·P_q`` per link, own blocks included, summed over the
    routes that link carries; a ``switched`` run gets one row per routed
    ``(child, parent, projector)`` triple and one fallback row per ``(child,
    projector)`` group instead, an own block being a group without parents.
    """
    n = p.n
    gain = np.flatnonzero(H.any(axis=(1, 2)))
    C = np.zeros((gain.size, H.shape[2], n))
    for k, i in enumerate(gain.tolist()):
        C[k, :p.C[i].shape[0]] = p.C[i]
    local = gain if U is None else np.arange(p.n_nodes)

    def targets(*nodes):  # bincount targets: each node's entries in turn
        return (np.concatenate(nodes)[:, None] * n + np.arange(n)).ravel()

    P, links, groups = [], [], []
    for _, ids, route, proj, own in _routes(design):
        q = len(P)
        P.append(proj)
        if switched:
            groups += [(ids[i - 1], q, tuple([ids[l - 1] for l in ps]))
                       for i, ps in route.parent_sets.items()]
            groups += [(ids[i - 1], q, ()) for i in own]
        else:
            links += [(ids[i - 1], ids[l - 1], q, w)
                      for i, row in route.weights.items()
                      for l, w in row.items() if w]
            links += [(ids[i - 1], ids[i - 1], q, 1.0) for i in own]
    P = np.array(P, dtype=float).reshape(len(P), n, n)
    lw = np.array(links, dtype=float).reshape(-1, 4)
    child, parent, q = lw[:, :3].astype(np.intp).T
    src, dst, E = _merge_links(parent - 1, child - 1,
                               lw[:, 3, None, None] * P[q])
    t = np.array([(i, l, j, g) for g, (i, j, parents) in enumerate(groups)
                  for l in parents], dtype=np.intp).reshape(-1, 4)
    gr = np.array([(i, j) for i, j, _ in groups], dtype=np.intp).reshape(-1, 2)
    pairs = list(zip(t[:, 1].tolist(), t[:, 0].tolist()))
    edge_pos = {e: k for k, e in enumerate(dict.fromkeys(pairs))}
    row_src = np.concatenate([t[:, 1], gr[:, 0]]) - 1
    return _NetworkOperator(
        gain=gain, H=H[gain], C=C, Cs=C if Cs is None else Cs[gain], F=F,
        U=U, P=P, static=(src, E, targets(local, dst)),
        rows=row_src * len(P) + np.concatenate([t[:, 2], gr[:, 1]]),
        row_index=targets(local, t[:, 0] - 1, gr[:, 0] - 1),
        edges=list(edge_pos),
        triple_edge=np.array([edge_pos[e] for e in pairs], dtype=np.intp),
        group=t[:, 3],
    )


def _compile_c1(p, design, est0):
    """Local-observer gains of the sub-state-consensus design: ``TH_i``,
    zero unless ``i`` sources a nonempty sub-state.  A node's state is its
    estimate, and its own block a self link (see :func:`_routes`); the
    bank's ``G_il`` are not read."""
    H = np.zeros((p.n_nodes, p.n, max(Ci.shape[0] for Ci in p.C)))
    for comp in design.components:
        d, bank = comp.decomposition, comp.bank
        for j in bank.weights:  # the nonempty sub-states
            i = d.source_node(j)
            H[comp.nodes[i - 1] - 1, :, :bank.TH[i - 1].shape[1]] = \
                bank.TH[i - 1]
    return None, H, None, None, np.array(est0)


def _compile_c2(p, bank, est0):
    """Local-observer blocks of the per-eigenvalue bank.

    Node ``i``'s state is its local observer's ``s_i`` with dynamics
    ``J_i``, gain ``L_i`` and output model ``F_i``; its local estimate is
    ``U_i s_i`` (the detectable columns of ``T · perm``), and the classes it
    relays come from its parents on their routes.  Nodes with identical
    outputs (``Plant._output_rep``) share one split, so those that also
    share one gain are filled as one group.
    """
    N, n, jsys = p.n_nodes, p.n, bank.jsys
    T, Tinv = jsys.T, jsys.T_inv
    width = max(r.split.det_dim + r.split.aug_dim for r in bank.nodes)
    r_max = max(Ci.shape[0] for Ci in p.C)
    F = np.zeros((N, width, width))
    H = np.zeros((N, width, r_max))
    Cs = np.zeros((N, r_max, width))
    U = np.zeros((N, n, width))
    s0 = np.zeros((N, width))
    Z = np.asarray(est0) @ Tinv.T
    rep = jsys.plant._output_rep
    members = {}
    for rec in bank.nodes:
        key = (rep[rec.node - 1], id(rec.gain))
        members.setdefault(key, (rec, []))[1].append(rec.node - 1)
    for rec, idx in members.values():
        sp = rec.split
        det, ds = sp.det_dim, sp.det_dim + sp.aug_dim
        r = rec.gain.shape[1]
        F[idx, :ds, :ds] = sp.local_dynamics
        H[idx, :ds, :r] = rec.gain
        Cs[idx, :r, :ds] = sp.local_output
        U[idx, :, :det] = (T @ sp.perm)[:, :det]
        zbar = Z[idx] @ sp.perm
        s0[idx, :det] = zbar[:, :det]
        s0[idx, det:ds] = (zbar[:, det:] @ sp.inner_split)[:, :sp.aug_dim]
    return F, H, Cs, U, s0


def _compile(p, design, est0, switched):
    """``(operator, s0)``: a design compiled into one network step and the
    initial observer states; the local blocks come from the scheme's
    ``_compile_*``, the links from :func:`_routes`."""
    compile_local = _compile_c1 if _scheme(design) == "c1" else _compile_c2
    *local, s0 = compile_local(p, design, est0)
    return _operator(p, design, *local, switched), s0


def _run(op, A, x0, s0, xh0, K, signal):
    """Step the plant and every node ``K`` times; ``(x, xhat)`` records."""
    N, n = xh0.shape
    x = np.empty((K + 1, n))
    x[0] = x0
    for k in range(K):  # the plant does not depend on the estimates
        x[k + 1] = A @ x[k]
    y = (x[:K] @ op.C.reshape(-1, n).T).reshape(K, *op.C.shape[:2])
    xhat = np.empty((N, K + 1, n))
    xhat[:, 0] = xh0
    s, xh = s0, xh0
    if signal is None:
        src, E, index = op.static
    else:
        W, step = op.weights(signal, K)
        # column block q of P_all is P[q]ᵀ, so xh @ P_all holds every P[q] x̂
        P_all = op.P.transpose(2, 0, 1).reshape(n, -1)
        index = op.row_index
    for k in range(K):
        innov = y[k] - np.einsum("gri,gi->gr", op.Cs, s.take(op.gain, axis=0))
        local = np.einsum("gir,gr->gi", op.H, innov)
        if op.U is not None:
            s = np.einsum("nij,nj->ni", op.F, s)
            s[op.gain] += local
            local = np.einsum("nij,nj->ni", op.U, s)
        if signal is None:
            net = np.einsum("eij,ej->ei", E, xh.take(src, axis=0))
        else:
            net = ((xh @ P_all).reshape(-1, n).take(op.rows, axis=0)
                   * W[step[k], :, None])
        xh = np.bincount(index, np.concatenate([local.ravel(), net.ravel()]),
                         N * n).reshape(N, n)
        if op.U is None:
            s = xh
        xhat[:, k + 1] = xh
    return x, xhat


def simulate(p, bank, x0, est0=None, K=50, signal=None):
    """Run the plant and all observers for ``K`` steps.

    The bank is compiled into a block-sparse network operator, and each
    step advances every node at once.

    Parameters
    ----------
    p : Plant
    bank : Condition1Design or C2ObserverBank
    x0 : (n,) array_like
        Initial plant state.
    est0 : sequence of (n,) array_like, optional
        Initial estimates per node; zeros when omitted.
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
        On a schedule shorter than the horizon, a mode index that is not an
        integer or is out of range, or mode edges outside the baseline
        graph.
    ShapeError
        On inconsistent dimensions or a bank of neither scheme.
    NumericalError
        When the state, an estimate or an error norm stops being finite;
        the message names the first such step.
    """
    if not isinstance(p, Plant):
        raise ShapeError("first argument must be a Plant")
    if K < 1:
        raise ValueError(f"horizon must be at least 1, got {K}")
    N = p.n_nodes
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape != (p.n,):
        raise ShapeError(f"x0 must have {p.n} entries, got {x0.shape}")
    if est0 is None:
        est0 = [np.zeros(p.n) for _ in range(N)]
    est0 = [np.asarray(e, dtype=float).reshape(-1) for e in est0]
    if len(est0) != N or any(e.shape != (p.n,) for e in est0):
        raise ShapeError(f"est0 must hold {N} vectors of {p.n} entries")
    scheme = _scheme(bank)
    op, s0 = _compile(p, bank, est0, signal is not None)
    _check_signal(signal, bank.graph, K)
    with np.errstate(over="ignore", invalid="ignore"):
        x_arr, xh_arr = _run(op, p.A, x0, s0, np.array(est0), K, signal)
        diff = xh_arr - x_arr
        err = np.sqrt(np.einsum("nki,nki->nk", diff, diff))
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
    }
    return SimulationTrace(
        x=x_arr, xhat=xh_arr, err=err, rel_err=rel,
        mode_indices=modes, metadata=meta,
    )


def dag_parent_map(design):
    """Collect every routed parent set of a design, keyed by a label.

    For the sub-state-consensus design the labels are
    ``"c<component>/s<sub-state>"`` plus ``"relay"``; for the per-eigenvalue
    bank they are ``"class<index>"`` (see :func:`_routes`).  Node ids are
    global, and a route with no parent sets is left out.  This is the
    ``{parent sets}`` input of the link-failure signal generator and
    validator.
    """
    return {
        label: {ids[i - 1]: tuple([ids[l - 1] for l in ps])
                for i, ps in route.parent_sets.items()}
        for label, ids, route, *_ in _routes(design) if route.parent_sets
    }


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
        Number of steps to schedule.
    drop_prob : float
        Per-edge per-step drop probability in ``[0, 1)``.
    seed : int or None

    Returns
    -------
    SwitchingSignal
    """
    if not 0 <= drop_prob < 1:
        raise ValueError(f"drop probability must be in [0, 1), got {drop_prob}")
    if T < 1:
        raise ValueError(f"window must be at least 1, got {T}")
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
    step in the window keeps an edge from any designed parent.  A mode index
    out of range raises :class:`InvalidSignal` unless an earlier window
    already fails.
    """
    T = signal.window_T if T is None else T
    if T < 1:
        raise ValueError(f"window must be at least 1, got {T}")
    sched = np.asarray(signal.schedule, dtype=np.intp).reshape(-1)
    bad = np.flatnonzero((sched < 0) | (sched >= len(signal.modes)))
    K = int(bad[0]) // T * T if bad.size else sched.size
    sets = _ParentSets(
        (label, i, parents) for label, pmap in sorted(dag_parents.items())
        for i, parents in sorted(pmap.items())
    )
    if K and sets.entries:
        by_mode = signal._columns(list(sets.col))
        starved = np.nonzero(~sets.cover(by_mode[sched[:K]], T))
        if starved[0].size:
            w, q = int(starved[0][0]), int(starved[1][0])
            label, i, _ = sets.entries[q]
            return Assumption2Check(False, (w, i, label))
    if bad.size:
        signal.edges_at(int(bad[0]))
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
