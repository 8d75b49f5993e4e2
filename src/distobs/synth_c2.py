"""Per-eigenvalue observer synthesis over the sensor network.

Each node runs a reduced local observer on the eigenvalue classes its own
outputs can pin down and fills in every remaining class from the nodes that
do detect it, relaying their estimates along the class's relay route (a
:class:`~distobs.netgraph.SpanningStructure` rooted at those nodes).
Estimates are exchanged in plant coordinates only; the eigenstructure stays
internal to each node.
"""

from dataclasses import dataclass

import numpy as np

from . import numkit as nk
from .conditions import _same_nodes, feasibility_report
from .decomp import jordan_system
from .errors import (
    Condition2Infeasible,
    NotDetectable,
    NotSpanning,
    ShapeError,
)
from .netgraph import spanning_dag

__all__ = [
    "C2NodeObserver",
    "C2ObserverBank",
    "local_observer",
    "eig_consensus_weights",
    "assemble_c2_bank",
    "design_condition2",
]


def local_observer(split, given=None, tol=None):
    """Output-injection gain for one node's reduced local observer.

    The node's pair couples its detectable eigenvalue classes with the
    locally observable residual of the others; only the observable part of
    that pair, as the split decided it (``split.obs_basis``,
    ``split.obs_dim``), gets a deadbeat gain, and the stable directions the
    node cannot see from its own outputs get zero gain rows.

    Parameters
    ----------
    split : NodeSplit
        The node's split; the observer runs on
        ``(split.local_dynamics, split.local_output)``.
    given : (n_s, r) ndarray, optional
        User-supplied gain; it is validated against the pair instead of
        synthesizing one.
    tol : ToleranceConfig, optional

    Returns
    -------
    (n_s, r) ndarray
        Gain with the closed-loop local error matrix Schur stable.

    Raises
    ------
    NotDetectable
        If no gain can make (or ``given`` does not make) the local error
        dynamics Schur stable.  A synthesized gain fails here only through
        rounding: the split's observable part holds every detectable
        unstable class whole and the observable part of every relayed one,
        as the feasibility table's staircases decided, so what it leaves
        unobservable belongs to stable classes.
    """
    tol = tol or nk.DEFAULT_TOL
    J = split.local_dynamics
    F = split.local_output
    n_s = J.shape[0]
    r = F.shape[0]
    if given is not None:
        L = nk.as_matrix(given, "given gain", rows=n_s, cols=r)
    elif split.obs_dim == 0:
        L = np.zeros((n_s, r))
    else:
        V = split.obs_basis[:, :split.obs_dim]
        L = V @ nk.place_observer_gain(V.T @ J @ V, F @ V, tol)
    rho = nk.spectral_radius(J - L @ F) if n_s else 0.0
    if rho >= 1.0:
        raise NotDetectable(
            f"node {split.node}: local error dynamics have spectral radius "
            f"{rho:.6g}; the reduced pair is not stabilizable by output "
            "injection"
        )
    return L


def eig_consensus_weights(g, roots, rep, max_parents=1):
    """Relay route for one unstable eigenvalue class.

    A spanning DAG of ``g`` rooted at the nodes that detect the class, with
    up to ``max_parents`` parents per node for the switching fallback and
    static weight one on each non-root node's first parent.  When every
    node is a root there is nothing to relay and the weight map is empty.

    Parameters
    ----------
    g : Digraph
    roots : iterable of int
        Nodes whose own outputs pin the class down.
    rep : complex
        Representative eigenvalue, used for diagnostics only.
    max_parents : int

    Returns
    -------
    SpanningStructure

    Raises
    ------
    Condition2Infeasible
        If no node detects the class or the roots do not reach every node,
        naming the offending eigenvalue.
    """
    root_set = frozenset(roots)
    if not root_set:
        raise Condition2Infeasible(
            f"eigenvalue {rep:.6g} is detected by no node",
            eigenvalue=rep,
        )
    try:
        return spanning_dag(g, root_set, max_parents)
    except NotSpanning as exc:
        missing = ", ".join(str(v) for v in sorted(exc.unreachable))
        raise Condition2Infeasible(
            f"no node detecting eigenvalue {rep:.6g} reaches "
            f"node(s) {missing}",
            eigenvalue=rep,
        ) from exc


@dataclass(frozen=True, eq=False)
class C2NodeObserver:
    """One node's executable observer record.

    The node's internal state is the reduced vector ``s_i`` (dimension
    ``split.det_dim + split.aug_dim``) together with the relayed coordinates
    of its undetectable classes; ``state_dim`` is their total.  ``relayed``
    lists ``(class_index, z_slice)`` pairs in the order the relayed
    coordinates are stacked, where ``z_slice`` selects that class's rows of
    the transformed coordinates.  Nodes with identical outputs share
    ``relayed`` and, when given the same gain object, its validated array
    (see :func:`assemble_c2_bank`).
    """

    node: int
    split: object
    gain: np.ndarray
    relayed: tuple
    state_dim: int

    def _twin(self, node, split, gain):
        """This record for node ``node`` of the same output group, with its
        own split and gain: a shallow copy sharing ``relayed``, made without
        running ``__init__`` (as :meth:`NodeSplit.renumbered` copies a
        split)."""
        twin = object.__new__(type(self))
        fields = twin.__dict__
        fields.update(self.__dict__)
        fields["node"], fields["split"], fields["gain"] = node, split, gain
        return twin


@dataclass(frozen=True, eq=False)
class C2ObserverBank:
    """Executable per-eigenvalue observer bank for the whole network.

    ``class_weights`` maps each eigenvalue-class index that some node must
    relay to its relay route: the static weights, and the (possibly
    multi-parent) parent sets the switching fallback redistributes over.
    """

    jsys: object
    graph: object
    nodes: tuple
    class_weights: dict
    report: object = None

    @property
    def plant(self):
        return self.jsys.plant

    def observer_dims(self):
        """Per-node internal observer dimensions, in node order."""
        return tuple(rec.state_dim for rec in self.nodes)


def assemble_c2_bank(jsys, gains, class_weights, g, report=None):
    """Assemble the executable per-eigenvalue bank from its parts.

    The work is done once per output group, the nodes with identical
    ``C_i`` that :func:`~distobs.decomp.jordan_system` gives one shared
    split.  Each group's relayed classes and state dimension are formed
    once, and each distinct gain object is validated once per group.  Every
    node's record is a copy of its group's that changes only ``node``,
    ``split`` and ``gain``, so nodes with identical outputs share
    ``relayed``, and those given the same gain object share its validated
    array.  An invalid input raises what a node-by-node check would, at the
    same first node: its gain's shape first, then its routes.

    Parameters
    ----------
    jsys : JordanSystem
    gains : sequence of ndarray
        Entry ``i - 1`` is node ``i``'s local gain; one per node, else
        ``ShapeError``.
    class_weights : dict
        Maps eigenvalue-class index to its relay route (see
        :func:`eig_consensus_weights`).  The non-roots of a class's route
        must be exactly the nodes that cannot detect it, else
        ``ValueError``; a route node outside ``1..N`` raises
        ``ShapeError``.
    g : Digraph
    report : FeasibilityReport, optional

    Returns
    -------
    C2ObserverBank
    """
    p = jsys.plant
    N = p.n_nodes
    gains = list(gains)  # holds each entry, so its id names it throughout
    if len(gains) != N:
        raise ShapeError(f"need {N} gains, got {len(gains)}")
    routes = sorted(class_weights.items())
    # carry[i - 1, c]: node i is a non-root of the c-th route; no node
    # carries the last column
    carry = np.zeros((N, len(routes) + 1), dtype=bool)
    for c, (k, route) in enumerate(routes):
        order = route.topo_order
        if order and not (1 <= min(order) and max(order) <= N):
            v = next(v for v in order if not 1 <= v <= N)
            raise ShapeError(f"the route of eigenvalue class {k} names node "
                             f"{v}, outside the plant's nodes 1..{N}")
        carry[np.asarray(route.relay_nodes, dtype=np.intp) - 1, c] = True
    col = {k: c for c, (k, _) in enumerate(routes)}
    reps = p._output_rep
    # want[r]: the carry row of the group of first node r, its undetectable
    # classes; its last column flags classes no route set matches: one
    # without a route, or the classes out of ascending order.  broken[r]:
    # the group's state dimension breaks its invariant, which fails at r
    want = np.zeros((N + 1, len(routes) + 1), dtype=bool)
    broken = np.zeros(N + 1, dtype=bool)
    records = {}  # first node of a group -> its record with node and gain
    for r in dict.fromkeys(reps):
        split = jsys.per_node[r - 1]
        und = list(split.undetectable)
        want[r, [col.get(k, -1) for k in und]] = True
        want[r, -1] |= und != sorted(set(und))
        if want[r, -1]:
            continue
        relayed = tuple((k, jsys.class_slice(k)) for k in und)
        state_dim = split.det_dim + split.aug_dim + sum(
            [sl.stop - sl.start for _, sl in relayed])
        # Detectable and relayed classes partition the spectrum, so the
        # internal dimension always equals n plus the locally observable
        # residual the node keeps of classes it cannot fully detect.
        broken[r] = state_dim != p.n + split.aug_dim
        records[r] = C2NodeObserver(node=r, split=split, gain=None,
                                    relayed=relayed, state_dim=state_dim)
    bad = (carry != want[np.asarray(reps)]).any(axis=1) | broken[1:]
    first_bad = int(bad.argmax()) + 1 if bad.any() else N + 1
    # each distinct (gain object, group) pair at its first node: the
    # reversed pairs put each first node last, so it is the value kept
    keys = list(zip(map(id, gains), reps))
    first = dict(zip(reversed(keys), range(N, 0, -1)))
    checked = {}
    for key, i in sorted(first.items(), key=lambda item: item[1]):
        if i > first_bad:
            break
        split = jsys.per_node[i - 1]
        checked[key] = nk.as_matrix(
            gains[i - 1], f"gain of node {i}",
            rows=split.det_dim + split.aug_dim, cols=p.C[i - 1].shape[0],
        )
    if first_bad <= N:
        i = first_bad
        split = jsys.per_node[i - 1]
        carried = [k for (k, _), c in zip(routes, carry[i - 1]) if c]
        if carried != list(split.undetectable):
            raise ValueError(
                f"node {i} cannot detect eigenvalue classes "
                f"{list(split.undetectable)} but its relay routes carry "
                f"{carried}: a class's route must have exactly the nodes "
                "that cannot detect it as non-roots"
            )
        raise ShapeError(
            f"node {i} has {records[i].state_dim} observer states, not "
            f"n + aug_dim = {p.n + split.aug_dim}: its detectable and "
            "relayed classes must partition the spectrum"
        )
    nodes = tuple(map(C2NodeObserver._twin, map(records.__getitem__, reps),
                      range(1, N + 1), jsys.per_node,
                      map(checked.__getitem__, keys)))
    return C2ObserverBank(
        jsys=jsys, graph=g, nodes=nodes,
        class_weights=dict(class_weights), report=report,
    )


def design_condition2(p, g, tol=None, max_parents=1, gains=None, report=None):
    """Design the complete per-eigenvalue observer bank for a network.

    Checks per-eigenvalue coverage, computes the grouped eigenstructure and
    every node's split on the feasibility report's eigenvalue classes and
    per-node decisions, synthesizes deadbeat local gains, and routes each
    unstable class from the nodes that detect it to everyone else.  Nodes
    with identical output matrices share one split and one synthesized gain.

    Parameters
    ----------
    p : Plant
    g : Digraph
    tol : ToleranceConfig, optional
    max_parents : int
        Parent budget of each class's relay route (static weights always
        use the first parent).
    gains : dict, optional
        Maps node id to a user-supplied local gain, overriding synthesis
        for that node.
    report : FeasibilityReport, optional
        ``feasibility_report(p, g, tol)`` when the caller already holds it;
        ``None`` computes it.

    Returns
    -------
    C2ObserverBank

    Raises
    ------
    ShapeError
        If ``g`` does not have one node per output matrix of ``p``.
    Condition2Infeasible
        If some unstable eigenvalue class has no detecting node in some
        source component.
    IllConditionedJordan
        If the eigenbasis cannot be certified.
    """
    tol = tol or nk.DEFAULT_TOL
    _same_nodes(p, g)
    if report is None:
        report = feasibility_report(p, g, tol)
    if not report.cond2.ok:
        comp = report.cond2.failing_components()[0]
        rep = comp.failing[0]
        members = ", ".join(str(v) for v in comp.component)
        raise Condition2Infeasible(
            f"eigenvalue {rep:.6g} is detected by no node of source "
            f"component {{{members}}}",
            eigenvalue=rep,
        )
    jsys = jordan_system(p, tol, report)
    gains = dict(gains or {})
    given = {i: L for i in range(1, p.n_nodes + 1)
             if (L := gains.pop(i, None)) is not None}
    # each output group's gain is synthesized at its first node without a
    # given one, if any, and each given gain is checked at its node, in
    # node order
    free = {r: r if r not in given else next(
                (i for i in range(r, p.n_nodes + 1)
                 if p._output_rep[i - 1] == r and i not in given), None)
            for r in dict.fromkeys(p._output_rep)}
    made, checked = {}, {}
    for i in sorted([*given, *filter(None, free.values())]):
        split = jsys.per_node[i - 1]
        if i in given:
            checked[i] = local_observer(split, given=given[i], tol=tol)
        else:
            made[p._output_rep[i - 1]] = local_observer(split, tol=tol)
    if gains:
        raise ValueError(f"gains given for unknown nodes {sorted(gains)}")
    gain_list = list(map(made.get, p._output_rep))
    for i, L in checked.items():
        gain_list[i - 1] = L
    needed = sorted({k for r in free
                     for k in jsys.per_node[r - 1].undetectable})
    class_weights = {
        k: eig_consensus_weights(g, report.root_sets.get(k, ()),
                                 jsys.classes[k].rep, max_parents)
        for k in needed
    }
    return assemble_c2_bank(jsys, gain_list, class_weights, g, report=report)
