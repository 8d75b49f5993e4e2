"""Directed-graph algorithms for sensor networks.

Strongly connected components (iterative Tarjan), source components, and the
relay route both observer schemes use to carry estimates from informed nodes
to the rest of the network: a layered spanning DAG rooted at the nodes that
hold a part of the state, with up to ``max_parents`` parents per node and
consensus weights that are strictly lower triangular in topological order.

All tie-breaking is deterministic (ascending node id), so repeated runs and
golden tests see identical structures.  Node ids are 1-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import NotSpanning

__all__ = [
    "Digraph",
    "SpanningStructure",
    "strong_components",
    "source_components",
    "spanning_dag",
    "subgraph",
]


@dataclass(frozen=True)
class Digraph:
    """Directed graph on nodes ``1..n_nodes`` with edge ``(j, i)`` meaning j→i.

    Self-loops are dropped on construction: a node always hears itself, so the
    loop carries no information and the stored edge set stays loop-free.
    """

    n_nodes: int
    edges: frozenset = field(default_factory=frozenset)
    _pred: dict = field(init=False, repr=False, compare=False)
    _succ: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_nodes < 0:
            raise ValueError(f"n_nodes must be >= 0, got {self.n_nodes}")
        cleaned = set()
        for e in self.edges:
            try:
                j, i = e
            except (TypeError, ValueError):
                raise ValueError(f"edge {e!r} is not an ordered pair") from None
            j, i = int(j), int(i)
            if not (1 <= j <= self.n_nodes and 1 <= i <= self.n_nodes):
                raise ValueError(
                    f"edge ({j}, {i}) references a node outside 1..{self.n_nodes}"
                )
            if j != i:
                cleaned.add((j, i))
        object.__setattr__(self, "edges", frozenset(cleaned))
        pred = {v: [] for v in range(1, self.n_nodes + 1)}
        succ = {v: [] for v in range(1, self.n_nodes + 1)}
        for j, i in sorted(cleaned):
            pred[i].append(j)
            succ[j].append(i)
        object.__setattr__(self, "_pred", {v: tuple(u) for v, u in pred.items()})
        object.__setattr__(self, "_succ", {v: tuple(u) for v, u in succ.items()})

    @property
    def nodes(self):
        return tuple(range(1, self.n_nodes + 1))

    def in_neighbors(self, i):
        """Nodes j with an edge j→i, ascending."""
        return self._pred.get(i, ())

    def out_neighbors(self, j):
        """Nodes i with an edge j→i, ascending."""
        return self._succ.get(j, ())

    def closed_in_neighborhood(self, i):
        """``{i}`` plus in-neighbors — the set a node can hear each step."""
        return tuple(sorted({i, *self.in_neighbors(i)}))


@dataclass(frozen=True)
class SpanningStructure:
    """Relay route: a layered acyclic structure rooted at ``roots``, with
    the consensus weights that carry estimates along it.

    ``roots`` lists the nodes that hold the routed part themselves, in
    ascending order.  ``parent_sets`` maps each other node to its ordered
    parent tuple (a singleton for ``max_parents=1``), in ``topo_order``;
    ``topo_order`` lists all covered nodes with every parent strictly before
    its children.  ``weights[i]`` maps each node that non-root ``i`` listens
    to onto a nonnegative weight, each row summing to one; roots carry no
    row.  :func:`spanning_dag` puts weight 1 on each node's first parent,
    and ``dataclasses.replace(route, weights=...)`` swaps in a caller's own.
    Construction validates the weights (see :func:`_check_relay_weights`),
    so the weight block among non-roots is always nilpotent.
    """

    roots: tuple
    parent_sets: dict
    topo_order: tuple
    weights: dict

    def __post_init__(self):
        _check_relay_weights(self.weights, self.roots, self.topo_order)

    def parents(self, i):
        return self.parent_sets.get(i, ())

    @property
    def relay_nodes(self):
        """The non-root nodes, in topological order."""
        return tuple(self.parent_sets)


def _check_relay_weights(weights, roots, topo_order):
    """Validate relay weights over a spanning order, raising ``ValueError``.

    Every node of ``topo_order`` outside ``roots`` needs a row of finite,
    nonnegative weights summing to one on covering nodes (roots or other
    nodes of ``topo_order``); roots carry no row.  A nonzero weight on a
    non-root parent must come from before the node in ``topo_order``, so the
    weights among non-roots are strictly lower triangular in that order,
    hence nilpotent.  Messages name the route by its sorted ``roots``.
    """
    what = f"the route from {sorted(roots)}"
    roots = set(roots)
    rank = {v: k for k, v in enumerate(topo_order)}
    cyclic = False
    for i in topo_order:
        if i in roots:
            continue
        row = weights.get(i)
        if not row:
            raise ValueError(f"node {i} has no consensus weights for {what}")
        for l, w in row.items():
            if not math.isfinite(w):
                raise ValueError(f"non-finite weight {w} on edge {l}->{i}")
            if w < 0:
                raise ValueError(f"negative weight {w} on edge {l}->{i}")
            if l not in roots and l not in rank:
                raise ValueError(
                    f"node {i} weights {l}, which covers nothing for {what}"
                )
            cyclic |= w != 0.0 and l not in roots and rank[l] >= rank[i]
        total = sum(row.values())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights of node {i} sum to {total}, not 1")
    for i in roots:
        if weights.get(i):
            raise ValueError(
                f"node {i} is a root for {what} and must not carry "
                "consensus weights for it"
            )
    if cyclic:
        raise ValueError(
            "consensus weights are not strictly lower triangular under the "
            "topological order; the relay block would not be nilpotent"
        )


def strong_components(g):
    """Strongly connected components, in reverse-topological condensation order.

    Iterative Tarjan with ascending-id traversal; each component comes out as
    a sorted tuple, and a component is emitted only after every component it
    has edges into.
    """
    succ = g._succ
    index = {}
    low = {}
    on_stack = set()
    stack = []
    components = []
    counter = 0
    for start in g.nodes:
        if start in index:
            continue
        work = [(start, 0)]
        while work:
            v, ptr = work[-1]
            if ptr == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack.add(v)
            advanced = False
            while ptr < len(succ[v]):
                w = succ[v][ptr]
                ptr += 1
                if w not in index:
                    work[-1] = (v, ptr)
                    work.append((w, 0))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                components.append(tuple(sorted(comp)))
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return components


def source_components(g):
    """Strong components with no in-edges from outside, sorted by least node.

    These are the components whose nodes can never be told anything by the
    rest of the network — each must be informative on its own for any
    distributed observer to exist.
    """
    comps = strong_components(g)
    member = {}
    for k, comp in enumerate(comps):
        for v in comp:
            member[v] = k
    has_external_in = [False] * len(comps)
    for j, i in g.edges:
        if member[j] != member[i]:
            has_external_in[member[i]] = True
    sources = [comp for k, comp in enumerate(comps) if not has_external_in[k]]
    return sorted(sources, key=lambda c: c[0])


def spanning_dag(g, roots, max_parents):
    """Relay route of ``g`` rooted at ``roots``, with static weights.

    Nodes are layered by their edge distance from the roots and ordered by
    ``(layer, id)``.  Each non-root node gets up to ``max_parents`` parents
    among its in-neighbors earlier in that order, previous layer first: the
    first parent alone gives a BFS forest, and extra parents give a node
    alternative sources when links fail.  The static weights put 1 on the
    first parent.  Raises :class:`NotSpanning` (carrying the unreachable
    set) if the roots do not reach every node.
    """
    roots = frozenset(int(r) for r in roots)
    for r in roots:
        if not (1 <= r <= g.n_nodes):
            raise ValueError(f"root {r} is outside 1..{g.n_nodes}")
    if not roots and g.n_nodes:
        raise ValueError("at least one root is required")
    if max_parents < 1:
        raise ValueError(f"max_parents must be >= 1, got {max_parents}")
    succ = g._succ
    pred = g._pred
    # Multi-source BFS layering: layer = shortest edge distance from the roots.
    layer = {r: 0 for r in roots}
    frontier = sorted(roots)
    d = 0
    while frontier:
        nxt = []
        for v in frontier:
            for w in succ[v]:
                if w not in layer:
                    layer[w] = d + 1
                    nxt.append(w)
        frontier = sorted(set(nxt))
        d += 1
    unreachable = [v for v in g.nodes if v not in layer]
    if unreachable:
        raise NotSpanning(
            f"nodes {sorted(unreachable)} are unreachable from roots "
            f"{sorted(roots)}",
            unreachable=unreachable,
        )
    order = sorted(layer, key=lambda v: (layer[v], v))
    # Parent candidates: in-neighbors strictly earlier in the (layer, id)
    # order.  Every non-root has one at the previous layer by construction;
    # same-layer lower-id neighbors add redundancy for multi-parent DAGs while
    # keeping the relation acyclic.
    parent_sets = {}
    for v in order:
        if v in roots:
            continue
        cands = [u for u in pred[v] if (layer[u], u) < (layer[v], v)]
        cands.sort(key=lambda u: (layer[u], u))
        parent_sets[v] = tuple(cands[:max_parents])
    weights = {v: {ps[0]: 1.0} for v, ps in parent_sets.items()}
    return SpanningStructure(tuple(sorted(roots)), parent_sets, tuple(order),
                             weights)


def subgraph(g, keep):
    """Restriction of ``g`` to ``keep``, relabeled to ``1..len(keep)``.

    Returns ``(h, original_ids)`` where ``original_ids[k-1]`` is the node of
    ``g`` that became node ``k`` of ``h``.
    """
    ids = tuple(sorted({int(v) for v in keep}))
    for v in ids:
        if not (1 <= v <= g.n_nodes):
            raise ValueError(f"node {v} is outside 1..{g.n_nodes}")
    relabel = {v: k + 1 for k, v in enumerate(ids)}
    edges = {
        (relabel[j], relabel[i])
        for (j, i) in g.edges
        if j in relabel and i in relabel
    }
    return Digraph(len(ids), frozenset(edges)), ids
