"""Directed-graph algorithms for sensor networks.

Strongly connected components (iterative Tarjan), source components, and the
relay route both observer schemes use to carry estimates from informed nodes
to the rest of the network: a layered spanning DAG rooted at the nodes that
hold a part of the state, with up to ``max_parents`` parents per node and
consensus weights that are strictly lower triangular in topological order.

Everything runs on arrays.  A :class:`Digraph` keeps its edges as two arrays
sorted by source, then target, and its out-adjacency as int-indexed lists,
built once at construction.  A
:class:`SpanningStructure` keeps its parent sets and weight rows as CSR
arrays in topological order; routes given by callers are validated row by
row on the given dicts, routes that :func:`spanning_dag` builds are valid by
construction, and the dicts a route's fields show are built when read.

All tie-breaking is deterministic (ascending node id), so repeated runs and
golden tests see identical structures.  Node ids are 1-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import NotSpanning

__all__ = [
    "Digraph",
    "SpanningStructure",
    "strong_components",
    "source_components",
    "spanning_dag",
    "subgraph",
]


def _is_id(v):
    """Whether ``v`` is a Python or numpy integer (booleans are not)."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _sorted_ids(values, what):
    """The distinct ``values`` as sorted Python ints; the first that fails
    :func:`_is_id` raises ``ValueError`` naming it as ``what``.  Each value
    is checked before duplicates are dropped, so ``1.0`` beside ``1`` is
    refused too."""
    values = tuple(values)
    for v in values:
        if not _is_id(v):
            raise ValueError(f"{what} {v!r} is not an integer")
    return sorted(set(map(int, values)))


def _edge_arrays(edges, n):
    """``(src, dst)`` of an edge collection: validated, without self-loops
    or repeats, sorted by source, then target."""
    edges = list(edges)
    for e in edges:
        try:
            j, i = e
        except (TypeError, ValueError):
            raise ValueError(f"edge {e!r} is not an ordered pair") from None
        if not (_is_id(j) and _is_id(i)):
            raise ValueError(f"edge {e!r} has a node id that is not an integer")
        if not (1 <= j <= n and 1 <= i <= n):
            raise ValueError(
                f"edge ({j}, {i}) references a node outside 1..{n}")
    a = np.array(edges, dtype=np.intp).reshape(-1, 2)
    key = _distinct(a[a[:, 0] != a[:, 1]] @ np.array([n + 1, 1]))
    return key // (n + 1), key % (n + 1)


def _distinct(x):
    """The distinct values of integer array ``x``, ascending."""
    x = np.sort(x)
    return x[np.concatenate(([True], x[1:] != x[:-1]))] if x.size else x


@dataclass(frozen=True)
class Digraph:
    """Directed graph on nodes ``1..n_nodes`` with edge ``(j, i)`` meaning j→i.

    Node ids must be Python or numpy integers; anything else, booleans
    included, raises ``ValueError`` naming the edge.  Self-loops are dropped
    on construction: a node always hears itself, so the loop carries no
    information and the stored edge set stays loop-free.

    Construction also builds the edge arrays ``_src`` and ``_dst``, sorted
    by source, then target, and the int-indexed out-adjacency ``_succ``:
    ``_succ[v]`` holds node ``v``'s out-neighbors, ascending.
    """

    n_nodes: int
    edges: frozenset = field(default_factory=frozenset)
    _src: np.ndarray = field(init=False, repr=False, compare=False)
    _dst: np.ndarray = field(init=False, repr=False, compare=False)
    _succ: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not _is_id(self.n_nodes):
            raise ValueError(
                f"n_nodes must be an integer, got {self.n_nodes!r}")
        if self.n_nodes < 0:
            raise ValueError(f"n_nodes must be >= 0, got {self.n_nodes}")
        self._index(*_edge_arrays(self.edges, self.n_nodes))

    @classmethod
    def _from_arrays(cls, n_nodes, src, dst):
        """The graph of valid, loop-free edge arrays already sorted by
        source, then target, without repeats."""
        g = object.__new__(cls)
        object.__setattr__(g, "n_nodes", n_nodes)
        g._index(src, dst)
        return g

    def _index(self, src, dst):
        ptr = np.zeros(self.n_nodes + 2, dtype=np.intp)
        np.cumsum(np.bincount(src, minlength=self.n_nodes + 1), out=ptr[1:])
        out, ptr = dst.tolist(), ptr.tolist()
        for name, value in (("edges", frozenset(zip(src.tolist(), out))),
                            ("_src", src), ("_dst", dst),
                            ("_succ", tuple([tuple(out[a:b]) for a, b in
                                             zip(ptr, ptr[1:])]))):
            object.__setattr__(self, name, value)

    @property
    def nodes(self):
        return tuple(range(1, self.n_nodes + 1))

    def in_neighbors(self, i):
        """Nodes j with an edge j→i, ascending."""
        # the edges are sorted by source, so these sources ascend
        return tuple(self._src[self._dst == i].tolist())

    def out_neighbors(self, j):
        """Nodes i with an edge j→i, ascending."""
        return self._succ[j] if 1 <= j <= self.n_nodes else ()

    def closed_in_neighborhood(self, i):
        """``{i}`` plus in-neighbors — the set a node can hear each step."""
        return tuple(sorted({i, *self.in_neighbors(i)}))


class _Rows(NamedTuple):
    """Per-node rows as CSR arrays: row ``r`` belongs to node ``keys[r]``
    and lists ``cols[ptr[r]:ptr[r + 1]]``, with ``vals`` alongside for
    weight rows (``None`` for parent sets)."""

    keys: np.ndarray
    ptr: np.ndarray
    cols: np.ndarray
    vals: np.ndarray = None

    @classmethod
    def of(cls, rows, weighted):
        """The rows of a ``{node: parent tuple}`` or, ``weighted``, a
        ``{node: {parent: weight}}`` map, in its order."""
        lens = np.fromiter(map(len, rows.values()), np.intp, len(rows))
        ptr = np.zeros(len(rows) + 1, dtype=np.intp)
        np.cumsum(lens, out=ptr[1:])
        return cls(
            np.fromiter(rows, np.intp, len(rows)), ptr,
            np.fromiter(chain.from_iterable(rows.values()), np.intp, ptr[-1]),
            np.fromiter(chain.from_iterable(r.values() for r in rows.values()),
                        float, ptr[-1]) if weighted else None)

    def view(self):
        """The rows as the dict they were read from."""
        keys, ptr, cols = self.keys.tolist(), self.ptr.tolist(), self.cols.tolist()
        if self.vals is None:
            return {v: tuple(cols[a:b]) for v, a, b in zip(keys, ptr, ptr[1:])}
        vals = self.vals.tolist()
        return {v: dict(zip(cols[a:b], vals[a:b]))
                for v, a, b in zip(keys, ptr, ptr[1:])}


@dataclass(frozen=True, init=False)
class SpanningStructure:
    """Relay route: a layered acyclic structure rooted at ``roots``, with
    the consensus weights that carry estimates along it.

    ``roots`` lists the nodes that hold the routed part themselves, in
    ascending order.  ``parent_sets`` maps each other node to its ordered
    parent tuple (a singleton for ``max_parents=1``), in ``topo_order``;
    ``topo_order`` lists all covered nodes once each, roots included, with
    every parent strictly before its children.  ``weights[i]`` maps each
    node that non-root ``i`` listens to onto a nonnegative weight, each row
    summing to one; roots carry no row.  :func:`spanning_dag` puts weight 1
    on each node's first parent, and ``dataclasses.replace(route,
    weights=...)`` swaps in a caller's own.

    The parent sets and weight rows are kept as CSR arrays over the relay
    nodes in topological order (``_parent_rows`` and ``_weight_rows``);
    :meth:`arcs` hands them out as flat arrays, which the simulator reads.
    A route built by :func:`spanning_dag` builds the ``parent_sets`` and
    ``weights`` dicts only when they are read.  Construction from given
    parts validates them row by row (see :func:`_check_route`) and then
    builds the CSR rows once per field.  A node id that is not an integer,
    a node listed twice, a root off the route, a parent or weighted node
    off the route, a parent that does not come earlier, a nonzero weight on
    a later non-root, and a parent set or weight row on a root or off the
    route are all rejected, so the weight block among non-roots is always
    nilpotent.
    """

    roots: tuple
    parent_sets: dict
    topo_order: tuple
    weights: dict

    def __init__(self, roots, parent_sets, topo_order, weights):
        _check_route(roots, topo_order, weights, parent_sets)
        root_set = set(roots)
        relay = [v for v in topo_order if v not in root_set]
        self._set(roots=roots, parent_sets=parent_sets, topo_order=topo_order,
                  weights=weights, _parent_rows=_Rows.of(
                      {v: parent_sets[v] for v in relay}, False),
                  _weight_rows=_Rows.of({v: weights[v] for v in relay}, True))

    @classmethod
    def _from_rows(cls, roots, order, parents, weights):
        """The route of ascending ``roots`` and node array ``order`` (its
        topological order) with these rows, already in that order.  The
        parts are taken as valid, not checked: :func:`spanning_dag` builds
        them so."""
        route = object.__new__(cls)
        route._set(roots=tuple(roots), topo_order=tuple(order.tolist()),
                   _parent_rows=parents, _weight_rows=weights)
        return route

    def _set(self, **values):
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __getattr__(self, name):
        # reached only while a dict field is unset: build it from its rows
        if name not in ("parent_sets", "weights"):
            raise AttributeError(name)
        rows = self._parent_rows if name == "parent_sets" else self._weight_rows
        self._set(**{name: rows.view()})
        return getattr(self, name)

    def parents(self, i):
        return self.parent_sets.get(i, ())

    @property
    def relay_nodes(self):
        """The non-root nodes, in topological order."""
        return tuple(self._weight_rows.keys.tolist())

    def arcs(self, parent_sets=False):
        """The weight rows, or under ``parent_sets`` the parent sets, as flat
        ``(child, parent, weight)`` arrays with one entry per arc: the
        children are the non-roots in topological order, each row in its own
        order.  ``weight`` is ``None`` for parent sets."""
        rows = self._parent_rows if parent_sets else self._weight_rows
        return (np.repeat(rows.keys, rows.ptr[1:] - rows.ptr[:-1]), rows.cols,
                rows.vals)


def _check_route(roots, topo_order, weights, parent_sets=None):
    """Raise ``ValueError`` for the first offence of a route's parts, found
    row by row on the given dicts; return when there is none.

    ``weights`` maps nodes to ``{parent: weight}`` rows and
    ``parent_sets``, checked when given, to parent tuples.  In turn: a
    root, then any other node id, that is not a Python or numpy integer; a
    node listed twice in ``topo_order``, a root off it; then the parent
    sets and the weight rows, each node by node in topological order (a
    non-root's missing row, its offending entries in order, then its sum:
    parents come earlier, weights are finite, nonnegative, on the route
    and sum to one), then a nonempty row on a root and one off the route;
    last a nonzero weight on a non-root that does not come earlier, so the
    weights among non-roots are strictly lower triangular, hence
    nilpotent.  Messages name the route by its sorted roots as plain ints.
    """
    for r in roots:
        if not _is_id(r):
            raise ValueError(f"root {r!r} is not an integer")
    roots = [int(r) for r in roots]
    what = f"the route from {sorted(roots)}"
    rows = (weights,) if parent_sets is None else (parent_sets, weights)
    for v in chain(topo_order, *(chain(m, *m.values()) for m in rows)):
        if not _is_id(v):
            raise ValueError(f"node id {v!r} on {what} is not an integer")
    rank = {}
    for k, v in enumerate(map(int, topo_order)):
        if v in rank:
            raise ValueError(
                f"node {v} appears twice in the topological order of {what}")
        rank[v] = k
    for r in roots:
        if r not in rank:
            raise ValueError(f"root {r} is not on {what}")
    root_set = set(roots)
    relay = [v for v in rank if v not in root_set]
    if parent_sets is not None:
        for i in relay:
            if not parent_sets.get(i):
                raise ValueError(f"node {i} has no parents on {what}")
            for l in parent_sets[i]:
                if l not in rank:
                    raise ValueError(f"node {i} has parent {l}, which covers "
                                     f"nothing for {what}")
                if rank[l] >= rank[i]:
                    raise ValueError(f"node {i} has parent {l}, which does "
                                     f"not come before it on {what}")
        _no_stray_rows(parent_sets, root_set, rank, what,
                       "must not have parents on it", "has parents")
    cyclic = False
    for i in relay:
        row = weights.get(i)
        if not row:
            raise ValueError(f"node {i} has no consensus weights for {what}")
        row = {l: float(w) for l, w in row.items()}
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
    _no_stray_rows(weights, root_set, rank, what,
                   "must not carry consensus weights for it",
                   "carries consensus weights")
    if cyclic:
        raise ValueError(
            "consensus weights are not strictly lower triangular under the "
            "topological order; the relay block would not be nilpotent"
        )


def _no_stray_rows(rows, root_set, rank, what, on_root, off_route):
    """Raise ``ValueError`` for a nonempty row of a root, the roots taken
    in set order, then for one of a node off the route."""
    for i in root_set:
        if rows.get(i):
            raise ValueError(f"node {i} is a root for {what} and {on_root}")
    for i, row in rows.items():
        if row and i not in rank:
            raise ValueError(f"node {i} {off_route} on {what} but is not on it")


def _tarjan(g):
    """``(components, comp)``: the strong components in reverse-topological
    condensation order, each a sorted tuple, and ``comp[v]``, the index of
    node ``v``'s component.

    Iterative Tarjan over the int-indexed adjacency, starting from each
    unvisited node in ascending order and following out-edges in ascending
    order.
    """
    n, succ = g.n_nodes, g._succ
    index = [-1] * (n + 1)
    low = [0] * (n + 1)
    comp = [-1] * (n + 1)
    stack = []
    at = [0] * (n + 1)  # each stacked node's stack position
    components = []
    counter = 0
    for start in range(1, n + 1):
        if index[start] >= 0:
            continue
        index[start] = low[start] = counter
        counter += 1
        at[start] = len(stack)
        stack.append(start)
        work = [(start, iter(succ[start]))]
        while work:
            v, nbrs = work[-1]
            for w in nbrs:  # resumes where the node's last visit stopped
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    at[w] = len(stack)
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if comp[w] < 0 and index[w] < low[v]:  # w is on the stack
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    members = stack[at[v]:]
                    del stack[at[v]:]
                    for w in members:
                        comp[w] = len(components)
                    components.append(tuple(sorted(members)))
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
    return components, comp


def strong_components(g):
    """Strongly connected components, in reverse-topological condensation order.

    Iterative Tarjan with ascending-id traversal; each component comes out as
    a sorted tuple, and a component is emitted only after every component it
    has edges into.
    """
    return _tarjan(g)[0]


def source_components(g):
    """Strong components with no in-edges from outside, sorted by least node.

    These are the components whose nodes can never be told anything by the
    rest of the network — each must be informative on its own for any
    distributed observer to exist.
    """
    comps, comp = _tarjan(g)
    comp = np.array(comp)
    entered = np.zeros(len(comps), dtype=bool)
    cross = comp[g._src] != comp[g._dst]
    entered[comp[g._dst[cross]]] = True
    sources = [c for c, e in zip(comps, entered.tolist()) if not e]
    return sorted(sources, key=lambda c: c[0])


def spanning_dag(g, roots, max_parents):
    """Relay route of ``g`` rooted at ``roots``, with static weights.

    Nodes are layered by their edge distance from the roots and ordered by
    ``(layer, id)``.  Each non-root node gets up to ``max_parents`` parents
    among its in-neighbors earlier in that order, previous layer first: the
    first parent alone gives a BFS forest, and extra parents give a node
    alternative sources when links fail.  The static weights put 1 on the
    first parent.  Raises :class:`NotSpanning` (carrying the unreachable
    set) if the roots do not reach every node, and ``ValueError`` for a
    root that is not an integer in ``1..N`` or a ``max_parents`` that is
    not a positive integer.
    """
    roots = _sorted_ids(roots, "root")
    n, succ = g.n_nodes, g._succ
    if roots and not 1 <= roots[0] <= roots[-1] <= n:
        raise ValueError(f"root {roots[0] if roots[0] < 1 else roots[-1]} is "
                         f"outside 1..{n}")
    if not roots and n:
        raise ValueError("at least one root is required")
    if not _is_id(max_parents):
        raise ValueError(
            f"max_parents must be an integer, got {max_parents!r}")
    if max_parents < 1:
        raise ValueError(f"max_parents must be >= 1, got {max_parents}")
    # Multi-source BFS layering: layer = shortest edge distance from the roots.
    layer = [-1] * (n + 1)
    for r in roots:
        layer[r] = 0
    queue = roots[:]
    for v in queue:  # the queue grows while it is read
        d = layer[v] + 1
        for w in succ[v]:
            if layer[w] < 0:
                layer[w] = d
                queue.append(w)
    if len(queue) < n:
        unreachable = [v for v in range(1, n + 1) if layer[v] < 0]
        raise NotSpanning(
            f"nodes {unreachable} are unreachable from roots {roots}",
            unreachable=unreachable,
        )
    k = len(roots)
    order = np.argsort(np.array(layer), kind="stable")[1:]  # by (layer, id)
    pos = np.empty(n + 1, dtype=np.intp)
    pos[order] = np.arange(n)
    # Parent candidates: in-neighbors strictly earlier in the (layer, id)
    # order.  Every non-root has one at the previous layer by construction;
    # same-layer lower-id neighbors add redundancy for multi-parent DAGs while
    # keeping the relation acyclic.  The roots fill the first positions.
    pu, pv = pos[g._src], pos[g._dst]
    cand = (pu < pv) & (pv >= k)
    by = np.lexsort((pu[cand], pv[cand]))
    child, parent = pv[cand][by], pu[cand][by]
    # sorted by child, an entry is among its child's first max_parents iff
    # the entry max_parents places earlier has another child
    first = child[max_parents:] != child[:-max_parents]
    child = np.concatenate((child[:max_parents], child[max_parents:][first]))
    parent = order[np.concatenate((parent[:max_parents],
                                   parent[max_parents:][first]))]
    pptr = np.searchsorted(child, np.arange(k, n + 1))
    relay = order[k:]
    return SpanningStructure._from_rows(
        roots, order, _Rows(relay, pptr, parent),
        _Rows(relay, np.arange(n - k + 1), parent[pptr[:-1]],
              np.ones(n - k)))


def subgraph(g, keep):
    """Restriction of ``g`` to ``keep``, relabeled to ``1..len(keep)``.

    Returns ``(h, original_ids)`` where ``original_ids[k-1]`` is the node of
    ``g`` that became node ``k`` of ``h``; a node that is not an integer in
    ``1..N`` raises ``ValueError``.
    """
    ids = tuple(_sorted_ids(keep, "node"))
    for v in ids:
        if not (1 <= v <= g.n_nodes):
            raise ValueError(f"node {v} is outside 1..{g.n_nodes}")
    label = np.zeros(g.n_nodes + 1, dtype=np.intp)
    label[list(ids)] = np.arange(1, len(ids) + 1)
    src, dst = label[g._src], label[g._dst]
    inside = (src > 0) & (dst > 0)
    # relabeling keeps the order, so the arrays stay sorted
    return Digraph._from_arrays(len(ids), src[inside], dst[inside]), ids
