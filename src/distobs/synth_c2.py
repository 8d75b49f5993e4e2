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
from .decomp import _copy_with, jordan_system
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
    ValueError
        If a root is not an integer in ``1..N`` (see :func:`spanning_dag`).
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


@dataclass(frozen=True, eq=False)
class C2ObserverBank:
    """Executable per-eigenvalue observer bank for the whole network.

    ``class_weights`` maps each eigenvalue-class index that some node must
    relay to its relay route: the static weights, and the (possibly
    multi-parent) parent sets the switching fallback redistributes over.
    ``scheme`` names the scheme, ``"c2"``.
    """

    scheme = "c2"

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

    One pass over the nodes in order, memoized per output group (the nodes
    with identical ``C_i``, which :func:`~distobs.decomp.jordan_system`
    gives one shared split).  At each node the gain is validated against
    the split the first time its (gain object, group) pair comes up, and
    the node's undetectable classes are compared with the classes whose
    routes have it as a non-root.  The group's record, its relayed classes
    and state dimension, is built at the group's first node; every node
    gets a copy of it that changes only ``node``, ``split`` and ``gain``,
    so nodes with identical outputs share ``relayed``, and those given the
    same gain object share its validated array.  An invalid input raises at
    the first node that has one: its gain's shape first, then its routes,
    then its group's state dimension.

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
    # carried[i - 1]: the classes whose routes have node i as a non-root,
    # ascending
    carried = [[] for _ in range(N)]
    for k, route in sorted(class_weights.items()):
        foreign = [v for v in route.topo_order if not 1 <= v <= N]
        if foreign:
            raise ShapeError(f"the route of eigenvalue class {k} names node "
                             f"{foreign[0]}, outside the plant's nodes 1..{N}")
        for v in route.relay_nodes:
            carried[v - 1].append(k)
    validated = {}  # (gain object id, output group) -> validated gain
    records = {}  # output group -> its record, made at its first node
    nodes = []
    for i, (split, r, L) in enumerate(zip(jsys.per_node, p._output_rep,
                                          gains), 1):
        key = (id(L), r)
        if key not in validated:
            validated[key] = nk.as_matrix(
                L, f"gain of node {i}",
                rows=split.det_dim + split.aug_dim, cols=p.C[i - 1].shape[0],
            )
        und = list(split.undetectable)
        if carried[i - 1] != und:
            raise ValueError(
                f"node {i} cannot detect eigenvalue classes {und} but its "
                f"relay routes carry {carried[i - 1]}: a class's route must "
                "have exactly the nodes that cannot detect it as non-roots"
            )
        if r not in records:
            relayed = tuple((k, jsys.class_slice(k)) for k in und)
            state_dim = split.det_dim + split.aug_dim + sum(
                [sl.stop - sl.start for _, sl in relayed])
            # Detectable and relayed classes partition the spectrum, so the
            # internal dimension always equals n plus the locally observable
            # residual the node keeps of classes it cannot fully detect.
            if state_dim != p.n + split.aug_dim:
                raise ShapeError(
                    f"node {i} has {state_dim} observer states, not "
                    f"n + aug_dim = {p.n + split.aug_dim}: its detectable "
                    "and relayed classes must partition the spectrum"
                )
            records[r] = C2NodeObserver(node=i, split=split, gain=None,
                                        relayed=relayed, state_dim=state_dim)
        nodes.append(_copy_with(records[r], node=i, split=split,
                                gain=validated[key]))
    return C2ObserverBank(
        jsys=jsys, graph=g, nodes=tuple(nodes),
        class_weights=dict(class_weights), report=report,
    )


def design_condition2(p, g, tol=None, max_parents=1, gains=None, report=None):
    """Design the complete per-eigenvalue observer bank for a network.

    Checks per-eigenvalue coverage, computes the grouped eigenstructure and
    every node's split on the feasibility report's eigenvalue classes and
    per-node decisions, synthesizes deadbeat local gains, and routes each
    unstable class from the nodes that detect it to everyone else.  Nodes
    with identical output matrices share one split and one synthesized gain.
    The gains are made in one pass over the nodes in order: a node given a
    gain has it checked by :func:`local_observer`; any other node reuses
    its output group's synthesized gain, or synthesizes it if it is the
    group's first node without a given one.

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
        for that node; a ``None`` entry is ignored.  A key outside the
        nodes ``1..N`` raises ``ValueError`` once every node's gain is made.
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
    made = {}  # output group -> its synthesized gain
    gain_list = []
    for i, (split, r) in enumerate(zip(jsys.per_node, p._output_rep), 1):
        L = gains.pop(i, None)
        if L is not None:
            L = local_observer(split, given=L, tol=tol)
        elif r in made:
            L = made[r]
        else:
            L = made[r] = local_observer(split, tol=tol)
        gain_list.append(L)
    if gains:
        raise ValueError(f"gains given for unknown nodes {sorted(gains)}")
    needed = sorted({k for r in set(p._output_rep)
                     for k in jsys.per_node[r - 1].undetectable})
    class_weights = {
        k: eig_consensus_weights(g, report.root_sets.get(k, ()),
                                 jsys.classes[k].rep, max_parents)
        for k in needed
    }
    return assemble_c2_bank(jsys, gain_list, class_weights, g, report=report)
