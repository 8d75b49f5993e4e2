"""Observer synthesis for collectively detectable networks.

Within each source component, every node runs a full-order observer whose
blocks follow the sub-state structure of the multi-sensor decomposition: the
node corrects its *own* sub-state with a Luenberger gain, copies every
*foreign* sub-state from its parent on a relay route
(:class:`~distobs.netgraph.SpanningStructure`) rooted at that sub-state's
source node, and propagates the collectively unobservable tail openly (its
dynamics are stable whenever the feasibility condition holds).  Nodes
outside every source component never measure anything useful; they run a
pure relay, copying a parent's estimate through the plant map along one
more route, rooted at every component member.

The per-node update collapses into a compact rule

    xhat_i[k+1] = N_mat xhat_i[k] + TH_i (y_i[k] - C_i xhat_i[k])
                  + sum over in-neighborhood l of  G_il xhat_l[k]

whose matrices this module assembles.  Design builds ``N_mat``, ``TH_i`` and
the routes with their weights; the dense neighbor matrices ``G_il`` are
computed on first read of :attr:`CompactObserverBank.G`.  ``G_il`` is
``sum_j w_ilj P_j`` with ``P_j = T[:, j] A_jj T^{-1}[j, :]`` (plus the own
sub-state and tail for ``l = i``).  The simulator never needs them: it
steps each component in the coordinates of ``T``, where a member copies
every foreign sub-state from its parents on that sub-state's route and
keeps its own sub-state and the tail, then maps the block dynamics and
the couplings back through ``T``.  The error
dynamics decouple by sub-state: the source node's error follows the closed
loop ``A_jj - L C_jj``, and the followers' copies form a nilpotent block
because the consensus weights are strictly lower triangular in topological
order.  Each sub-state is therefore certified by the spectral radius of its
own ``o_j x o_j`` closed loop.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import numkit as nk
from .conditions import check_condition1
from .decomp import (
    MultiSensorDecomposition,
    Plant,
    _as_order,
    decomposition_from_transform,
    multisensor_decompose,
)
from .errors import DistobsError, NotDetectable, NumericalError, ShapeError
from .netgraph import (
    Digraph,
    SpanningStructure,
    _check_route,
    spanning_dag,
    subgraph,
)

__all__ = [
    "CompactObserverBank",
    "StabilityReport",
    "SubstateCertificate",
    "ComponentDesign",
    "Condition1Design",
    "design_gains",
    "assemble_compact_bank",
    "certify_stability",
    "design_condition1",
]


def design_gains(d, given=None, tol=None):
    """Per-sub-state Luenberger gains for a decomposition.

    Synthesizes a gain for every nonempty sub-state against its source node's
    output block, or verifies user-supplied ones.  ``given`` maps 1-based
    sub-state indices to gain matrices; those are accepted when the closed
    loop is Schur with margin.  Synthesized gains are deadbeat (all
    closed-loop eigenvalues at zero), which drives each sub-state's own error
    to zero in finitely many steps.

    Returns one gain per sub-state (a ``(0, r)`` array for empty sub-states).
    """
    tol = tol or nk.DEFAULT_TOL
    given = given or {}
    gains = []
    for j, oj in enumerate(d.o, 1):
        node = d.source_node(j)
        r = d.Cbar[node - 1].shape[0]
        if oj == 0:
            gains.append(np.zeros((0, r)))
            continue
        Ajj = d.A_sub(j)
        Cjj = d.C_block(node, j)
        if j in given:
            L = nk.as_matrix(given[j], f"gain for sub-state {j}", rows=oj, cols=r)
            rho = nk.spectral_radius(Ajj - L @ Cjj)
            if rho > 1.0 - tol.schur_margin:
                raise NumericalError(
                    f"given gain for sub-state {j} leaves spectral radius "
                    f"{rho:.6g}; not Schur stable with margin"
                )
            gains.append(L)
            continue
        try:
            gains.append(nk.place_observer_gain(Ajj, Cjj, tol))
        except NumericalError as exc:
            raise NumericalError(
                f"gain synthesis for sub-state {j} failed: {exc}"
            ) from None
    return tuple(gains)


@dataclass(frozen=True, eq=False)
class CompactObserverBank:
    """Assembled per-node observer matrices for one component.

    ``N_mat`` propagates the block couplings common to all nodes; ``TH[i-1]``
    injects node i's innovation; ``G[i-1][l]`` multiplies neighbor ``l``'s
    estimate, for every ``l`` of node i's closed in-neighborhood in
    ``graph``.  ``weights[j]`` is the relay route of nonempty sub-state
    ``j``, rooted at its source node.  ``G`` is computed on first read and
    kept.
    """

    decomposition: MultiSensorDecomposition
    gains: tuple
    weights: dict
    N_mat: np.ndarray
    TH: tuple
    graph: Digraph

    @cached_property
    def G(self):
        """``G[i-1][l] = T @ M`` with ``M``'s row block ``j`` equal to
        ``w_ilj A_jj T^{-1}[j, :]``: weight 1 from the node itself for its
        own sub-state, plus the unobservable tail's rows for ``l = i``.  A
        neighbor that parents no sub-state for node ``i`` gets a zero
        matrix."""
        d, weights = self.decomposition, self.weights
        n = d.n
        T, Tinv = d.T, d.T_inv
        # those rows depend on the sub-state only, so form them once
        rows = {
            j: d.A_sub(j) @ Tinv[d.block_slice(j), :]
            for j, oj in enumerate(d.o, 1) if oj
        }
        slu = d.unobs_slice
        tail = d.A_unobs @ Tinv[slu, :]
        G = []
        for i in self.graph.nodes:
            pos = d.step_of_node[i]
            gi = {}
            for l in self.graph.closed_in_neighborhood(i):
                M = np.zeros((n, n))
                for j, Rj in rows.items():
                    if j == pos:
                        w = float(l == i)
                    else:
                        w = weights[j].weights[i].get(l, 0.0)
                    if w:
                        M[d.block_slice(j), :] = w * Rj
                if l == i and d.u_dim:
                    M[slu, :] = tail
                gi[l] = T @ M
            G.append(gi)
        return tuple(G)


def assemble_compact_bank(d, gains, weights, g):
    """Build the compact per-node update matrices from the design pieces.

    ``weights`` maps each nonempty sub-state index to its relay route.
    ``N_mat`` and every node's ``TH_i`` are formed here; the neighbor
    matrices ``G_il`` over each node's closed in-neighborhood in ``g`` are
    left to the first read of the bank's ``G``.
    """
    N = len(d.o)
    if len(gains) != N:
        raise ShapeError(f"need {N} gains, got {len(gains)}")
    T, Tinv = d.T, d.T_inv
    N_mat = T @ (d.Abar - d.A_diag) @ Tinv
    TH = []
    for i in g.nodes:
        pos = d.step_of_node[i]
        L = gains[pos - 1]
        # a node whose sub-state is empty injects nothing
        TH.append(T[:, d.block_slice(pos)] @ L if d.o[pos - 1]
                  else np.zeros((d.n, L.shape[1])))
    return CompactObserverBank(
        decomposition=d,
        gains=tuple(gains),
        weights=dict(weights),
        N_mat=N_mat,
        TH=tuple(TH),
        graph=g,
    )


@dataclass(frozen=True, eq=False)
class SubstateCertificate:
    """Stability certificate for one sub-state's error dynamics.

    ``M`` is the source node's closed loop ``A_jj - L C_jj``.  Stacking the
    followers' consensus copies under it gives a block lower triangular
    composite whose follower block ``kron(W22, A_jj)`` is nilpotent, since
    ``W22`` is strictly lower triangular under the topological order.  The
    composite's spectrum is therefore ``spec(M)`` plus zeros, and ``rho``,
    the spectral radius of ``M``, governs the whole sub-state's error.
    """

    substate: int
    source: int
    rho: float
    M: np.ndarray


@dataclass(frozen=True, eq=False)
class StabilityReport:
    """Certificates for every nonempty sub-state plus the unobservable tail."""

    certificates: tuple
    rho_unobs: float
    ok: bool


def certify_stability(d, gains, weights, tol=None):
    """Check each sub-state's closed loop and the unobservable tail.

    The verdict is true iff every sub-state's ``rho(A_jj - L C_jj)`` and the
    unobservable tail's spectral radius sit inside the unit circle with
    margin.  ``weights`` holds each nonempty sub-state's relay route, whose
    construction rejects any follower block ``W22`` that is not strictly
    lower triangular, which is what makes the followers' part of the
    composite error nilpotent and lets the ``o_j x o_j`` closed loop stand
    for the whole sub-state.
    """
    tol = tol or nk.DEFAULT_TOL
    certs = []
    for j, oj in enumerate(d.o, 1):
        if oj == 0:
            continue
        source = d.source_node(j)
        Acl = d.A_sub(j) - gains[j - 1] @ d.C_block(source, j)
        certs.append(SubstateCertificate(
            substate=j,
            source=source,
            rho=nk.spectral_radius(Acl),
            M=Acl,
        ))
    rho_u = nk.spectral_radius(d.A_unobs)
    ok = all(c.rho <= 1.0 - tol.schur_margin for c in certs) and \
        rho_u <= 1.0 - tol.schur_margin
    return StabilityReport(tuple(certs), rho_u, ok)


@dataclass(frozen=True, eq=False)
class ComponentDesign:
    """Everything one source component needs at run time.

    ``nodes[k-1]`` is the global id of component-local node ``k``; the bank,
    its per-sub-state routes and the stability report are all in local ids.
    """

    nodes: tuple
    graph: Digraph
    bank: CompactObserverBank
    stability: StabilityReport

    @property
    def decomposition(self):
        return self.bank.decomposition


@dataclass(frozen=True, eq=False)
class Condition1Design:
    """Complete sub-state-consensus observer design for a network.

    ``relay`` is the route rooted at every component member that feeds the
    remaining nodes (``None`` when there are none); each relay node copies
    its parents' estimates through ``plant.A``.  ``scheme`` names the
    scheme, ``"c1"``.
    """

    scheme = "c1"

    plant: Plant
    graph: Digraph
    components: tuple
    relay: SpanningStructure

    def component_of(self, i):
        for comp in self.components:
            if i in comp.nodes:
                return comp
        return None


def design_condition1(p, g, tol=None, max_parents=1, gains=None,
                      transform=None, transform_o=None, structure_tol=1e-6,
                      order=None, weights=None, report=None):
    """Design the full sub-state-consensus observer bank for a network.

    Verifies collective detectability of every source component (raising
    :class:`~distobs.errors.NotDetectable` with diagnostics otherwise), then
    designs per component: the sequential decomposition over the component's
    own sensors, per-sub-state gains (``gains`` maps global node ids to
    user-supplied matrices; missing ones are synthesized deadbeat), one
    relay route per sub-state with up to ``max_parents`` parent candidates
    per node and weight 1 on the first, the compact bank, and the stability
    certificates.  Nodes outside all source components get a relay route.

    ``transform`` (with per-node block dimensions ``transform_o``) replaces
    the synthesized decomposition — this requires the graph to have exactly
    one source component and is how printed designs are reproduced at their
    published precision (``structure_tol``).

    ``order`` fixes the sensor processing priority by global node id; each
    component processes its members in that relative order.  ``weights``
    overrides a route's static weights sub-state by sub-state: it maps a
    sub-state's source node (global id) to ``{node: {parent: weight}}``, and
    the route's construction validates the rows against the same
    stochasticity and acyclicity requirements the static weights satisfy.
    ``gains`` or ``weights`` keyed by a node that sources no nonempty
    sub-state raise ``ValueError`` naming that node, and a graph without
    one node per output matrix of ``p`` raises ``ShapeError``.

    ``report`` is ``feasibility_report(p, g, tol)`` when the caller already
    holds it; its collective-detectability verdict is then used, and
    ``None`` computes that verdict.
    """
    tol = tol or nk.DEFAULT_TOL
    verdict = check_condition1(p, g, tol) if report is None else report.cond1
    if not verdict.ok:
        bad = verdict.failing_components()[0]
        eigs = ", ".join(f"{lam:.6g}" for lam in bad.failing)
        raise NotDetectable(
            f"source component {set(bad.component)} cannot collectively "
            f"detect eigenvalue(s) {eigs}"
        )
    comps = [c.component for c in verdict.components]
    if transform is not None and len(comps) != 1:
        raise ShapeError(
            "a given transform requires exactly one source component, "
            f"found {len(comps)}"
        )
    gains = gains or {}
    user_weights = weights or {}
    if order is not None:
        order = tuple(order)
        ints = _as_order(order, g.n_nodes)
        if ints is None:
            raise ValueError(
                "order must list every node id exactly once, got "
                f"{order}"
            )
        order = ints
    designs = []
    sources = set()  # global ids of the nodes sourcing a nonempty sub-state
    for comp in comps:
        h, ids = subgraph(g, comp)
        local_plant = Plant(p.A, tuple(p.C[v - 1] for v in ids))
        local_order = None
        if order is not None:
            rank = {v: k for k, v in enumerate(order)}
            local_order = tuple(sorted(
                range(1, len(ids) + 1), key=lambda l: rank[ids[l - 1]],
            ))
        if transform is not None:
            if transform_o is None or len(transform_o) != len(ids):
                raise ShapeError(
                    "a given transform needs one block dimension per "
                    "component node"
                )
            d = decomposition_from_transform(
                local_plant, transform, transform_o, tol=tol,
                structure_tol=structure_tol, order=local_order,
            )
        else:
            d = multisensor_decompose(local_plant, order=local_order, tol=tol)
        given_local = {}
        for j in range(1, len(ids) + 1):
            node_global = ids[d.source_node(j) - 1]
            if node_global in gains:
                given_local[j] = gains[node_global]
        try:
            gs = design_gains(d, given=given_local, tol=tol)
        except DistobsError as exc:
            raise NumericalError(f"component {set(comp)}: {exc}") from None
        routes = {}
        glob2loc = {gid: l for l, gid in enumerate(ids, 1)}
        for j, oj in enumerate(d.o, 1):
            if oj == 0:
                continue
            source = d.source_node(j)
            route = spanning_dag(h, {source}, max_parents)
            src_global = ids[source - 1]
            sources.add(src_global)
            if src_global in user_weights:
                rows = {v: {l: float(w) for l, w in row.items()}
                        for v, row in user_weights[src_global].items()}
                for v, row in rows.items():
                    if v not in glob2loc:
                        raise ValueError(
                            f"weights for sub-state of node {src_global} "
                            f"reference node {v}, outside its component"
                        )
                    # a source component has no in-edge from outside it
                    for l in row:
                        if (l, v) not in g.edges:
                            raise ValueError(
                                f"weights for sub-state of node {src_global}: "
                                f"node {v} weights {l}, which is not an "
                                "in-neighbor of it in its component"
                            )
                # checked in global ids, so a rejection names the given nodes
                _check_route((src_global,),
                             [ids[v - 1] for v in route.topo_order], rows)
                route = replace(route, weights={
                    glob2loc[v]: {glob2loc[l]: w for l, w in row.items()}
                    for v, row in rows.items()
                })
            routes[j] = route
        bank = assemble_compact_bank(d, gs, routes, h)
        stability = certify_stability(d, gs, routes, tol)
        designs.append(ComponentDesign(
            nodes=ids, graph=h, bank=bank, stability=stability,
        ))
    for name, given in (("gains", gains), ("weights", user_weights)):
        stray = sorted(set(given) - sources)
        if stray:
            raise ValueError(
                f"{name} given for node {stray[0]}, which sources no "
                "nonempty sub-state"
            )
    informed = {v for comp in comps for v in comp}
    relay = None
    if len(informed) < g.n_nodes:
        relay = spanning_dag(g, informed, max_parents)
    return Condition1Design(
        plant=p,
        graph=g,
        components=tuple(designs),
        relay=relay,
    )
