"""Dict-based graph reference for the graph equivalence tests.

``distobs.netgraph`` runs on sorted edge arrays and int-indexed adjacency.
This module keeps the per-node dict implementation it replaced, so the
property tests compare the array kernels against an independent
implementation rather than against themselves:

* adjacency as ``{node: ascending tuple}`` dicts built from the edge set;
* iterative Tarjan with ascending-id traversal;
* source components by a scan of the edge set;
* the layered relay route, with parents picked per node by a sort;
* the induced subgraph, relabeled through a dict;
* the route invariants, checked row by row.

Each graph function takes a :class:`distobs.Digraph` and reads only its
``n_nodes`` and ``edges``.
"""

import math

from distobs.errors import NotSpanning


def adjacency(g):
    """``(pred, succ)``: each node's in- and out-neighbors, ascending."""
    pred = {v: [] for v in range(1, g.n_nodes + 1)}
    succ = {v: [] for v in range(1, g.n_nodes + 1)}
    for j, i in sorted(g.edges):
        pred[i].append(j)
        succ[j].append(i)
    return ({v: tuple(u) for v, u in pred.items()},
            {v: tuple(u) for v, u in succ.items()})


def strong_components(g):
    """Strong components in reverse-topological condensation order."""
    _, succ = adjacency(g)
    index = {}
    low = {}
    on_stack = set()
    stack = []
    components = []
    counter = 0
    for start in range(1, g.n_nodes + 1):
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
    """Strong components with no in-edges from outside, by least node."""
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
    """``(roots, parent_sets, topo_order, weights)`` of the relay route.

    Raises :class:`NotSpanning` with the unreachable nodes when the roots do
    not reach every node.
    """
    roots = frozenset(int(r) for r in roots)
    pred, succ = adjacency(g)
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
    unreachable = [v for v in range(1, g.n_nodes + 1) if v not in layer]
    if unreachable:
        raise NotSpanning(
            f"nodes {sorted(unreachable)} are unreachable from roots "
            f"{sorted(roots)}",
            unreachable=unreachable,
        )
    order = sorted(layer, key=lambda v: (layer[v], v))
    parent_sets = {}
    for v in order:
        if v in roots:
            continue
        cands = [u for u in pred[v] if (layer[u], u) < (layer[v], v)]
        cands.sort(key=lambda u: (layer[u], u))
        parent_sets[v] = tuple(cands[:max_parents])
    weights = {v: {ps[0]: 1.0} for v, ps in parent_sets.items()}
    return tuple(sorted(roots)), parent_sets, tuple(order), weights


def subgraph(g, keep):
    """``(n_nodes, edges, original_ids)`` of ``g`` restricted to ``keep``."""
    ids = tuple(sorted({int(v) for v in keep}))
    relabel = {v: k + 1 for k, v in enumerate(ids)}
    edges = {
        (relabel[j], relabel[i])
        for (j, i) in g.edges
        if j in relabel and i in relabel
    }
    return len(ids), frozenset(edges), ids


def check_route(roots, parent_sets, topo_order, weights):
    """Validate a route row by row, raising ``ValueError`` with the message
    :class:`distobs.SpanningStructure` gives.

    In order: a node listed twice in ``topo_order``, a root off it; then
    node by node in ``topo_order`` a non-root's missing parent set and its
    parents that are off the route or not earlier, the nonempty parent sets
    of roots (in set order) and of nodes off the route; then the same for
    the weight rows,
    whose entries must be finite, nonnegative and on the route and whose
    sums must be one, and last a nonzero weight on a later non-root.
    """
    what = f"the route from {sorted(roots)}"
    rank = {}
    for k, v in enumerate(topo_order):
        if v in rank:
            raise ValueError(
                f"node {v} appears twice in the topological order of {what}")
        rank[v] = k
    for r in roots:
        if r not in rank:
            raise ValueError(f"root {r} is not on {what}")
    root_set = set(roots)
    for i in topo_order:
        if i in root_set:
            continue
        if not parent_sets.get(i):
            raise ValueError(f"node {i} has no parents on {what}")
        for l in parent_sets[i]:
            if l not in rank:
                raise ValueError(
                    f"node {i} has parent {l}, which covers nothing for {what}")
            if rank[l] >= rank[i]:
                raise ValueError(f"node {i} has parent {l}, which does not "
                                 f"come before it on {what}")
    for i in root_set:
        if parent_sets.get(i):
            raise ValueError(f"node {i} is a root for {what} and must not "
                             "have parents on it")
    for i, ps in parent_sets.items():
        if ps and i not in rank:
            raise ValueError(f"node {i} has parents on {what} but is not on it")
    cyclic = False
    for i in topo_order:
        if i in root_set:
            continue
        row = weights.get(i)
        if not row:
            raise ValueError(f"node {i} has no consensus weights for {what}")
        for l, w in row.items():
            if not math.isfinite(w):
                raise ValueError(f"non-finite weight {w} on edge {l}->{i}")
            if w < 0:
                raise ValueError(f"negative weight {w} on edge {l}->{i}")
            if l not in rank:
                raise ValueError(
                    f"node {i} weights {l}, which covers nothing for {what}")
            cyclic |= w != 0.0 and l not in root_set and rank[l] >= rank[i]
        total = sum(row.values())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights of node {i} sum to {total}, not 1")
    for i in root_set:
        if weights.get(i):
            raise ValueError(f"node {i} is a root for {what} and must not "
                             "carry consensus weights for it")
    for i, row in weights.items():
        if row and i not in rank:
            raise ValueError(f"node {i} carries consensus weights on {what} "
                             "but is not on it")
    if cyclic:
        raise ValueError(
            "consensus weights are not strictly lower triangular under the "
            "topological order; the relay block would not be nilpotent"
        )
