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
from .conditions import feasibility_report
from .decomp import jordan_system
from .errors import (
    Condition2Infeasible,
    NotDetectable,
    NotSpanning,
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
    the transformed coordinates.
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

    Parameters
    ----------
    jsys : JordanSystem
    gains : sequence of ndarray
        Entry ``i - 1`` is node ``i``'s local gain.
    class_weights : dict
        Maps eigenvalue-class index to its relay route (see
        :func:`eig_consensus_weights`).  The non-roots of a class's route
        must be exactly the nodes that cannot detect it, else
        ``ValueError``.
    g : Digraph
    report : FeasibilityReport, optional

    Returns
    -------
    C2ObserverBank
    """
    p = jsys.plant
    routes = sorted(class_weights.items())
    # carry[i][c]: node i is a non-root of the c-th route
    carry = np.zeros((p.n_nodes + 1, len(routes)), dtype=bool)
    for c, (_, route) in enumerate(routes):
        carry[list(route.relay_nodes), c] = True
    carry = carry.tolist()
    records = []
    for i in range(1, p.n_nodes + 1):
        split = jsys.per_node[i - 1]
        L = nk.as_matrix(
            gains[i - 1], f"gain of node {i}",
            rows=split.det_dim + split.aug_dim, cols=p.C[i - 1].shape[0],
        )
        carried = [k for (k, _), c in zip(routes, carry[i]) if c]
        if carried != list(split.undetectable):
            raise ValueError(
                f"node {i} cannot detect eigenvalue classes "
                f"{list(split.undetectable)} but its relay routes carry "
                f"{carried}: a class's route must have exactly the nodes "
                "that cannot detect it as non-roots"
            )
        relayed = [(k, jsys.class_slice(k)) for k in carried]
        state_dim = split.det_dim + split.aug_dim + sum(
            [sl.stop - sl.start for _, sl in relayed])
        # Detectable and relayed classes partition the spectrum, so the
        # internal dimension always equals n plus the locally observable
        # residual the node keeps of classes it cannot fully detect.
        assert state_dim == p.n + split.aug_dim
        records.append(C2NodeObserver(
            node=i, split=split, gain=L, relayed=tuple(relayed),
            state_dim=state_dim,
        ))
    return C2ObserverBank(
        jsys=jsys, graph=g, nodes=tuple(records),
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
    Condition2Infeasible
        If some unstable eigenvalue class has no detecting node in some
        source component.
    IllConditionedJordan
        If the eigenbasis cannot be certified.
    """
    tol = tol or nk.DEFAULT_TOL
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
    gain_list = []
    made = {}
    for i, split in enumerate(jsys.per_node, 1):
        given = gains.pop(i, None)
        if given is not None:
            gain_list.append(local_observer(split, given=given, tol=tol))
            continue
        r = p._output_rep[i - 1]
        if r not in made:
            made[r] = local_observer(split, tol=tol)
        gain_list.append(made[r])
    if gains:
        raise ValueError(f"gains given for unknown nodes {sorted(gains)}")
    needed = sorted({k for s in jsys.per_node for k in s.undetectable})
    class_weights = {
        k: eig_consensus_weights(g, report.root_sets.get(k, ()),
                                 jsys.classes[k].rep, max_parents)
        for k in needed
    }
    return assemble_c2_bank(jsys, gain_list, class_weights, g, report=report)
