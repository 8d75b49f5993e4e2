"""Seeded plant/network family with a planted oracle.

Each instance has ``n_classes`` unstable eigenvalue classes, each a 2-D
rotation with radius above one, and a 2-D stable tail driven by every class.
The planted form is conjugated by a random orthogonal basis.  Class ``k`` is
measured by exactly one sensing node through one output row on its own
coordinates; every other node has no sensors.  The graph is a strongly
connected core (a directed cycle through a random permutation plus about
``core/4`` chords) followed by relay-only nodes, each fed from two earlier
nodes, so the core is the only source component.

Both feasibility conditions therefore hold, and the outcome is known without
running the program: the classes needing coverage are the planted
eigenvalues, each class's root set is its sensing node alone, and the
Scheme-1 decomposition in node order gives 2 states to each sensing node,
0 to every other core node and leaves the 2-D tail unobservable.

Only numpy is used here; the caller turns the arrays into program inputs.
"""

from dataclasses import dataclass

import numpy as np

TAIL_DIM = 2


@dataclass(frozen=True)
class Instance:
    """One generated plant/network pair and its planted oracle.

    ``C[i-1]`` is node i's output matrix (0 rows for a node without
    sensors); ``edges`` are ``(from, to)`` pairs on nodes ``1..n_nodes``.
    ``sensing[k]`` is the node measuring class ``k``, whose eigenvalue pair
    is ``eigs[k]`` (upper half-plane member).  Core nodes are ``1..n_core``;
    the rest are relay-only.
    """

    A: np.ndarray
    C: tuple
    edges: tuple
    n_nodes: int
    n_core: int
    sensing: tuple
    eigs: tuple
    tail_eigs: tuple
    x0: np.ndarray

    @property
    def n(self):
        return self.A.shape[0]


def _rotation(r, th):
    c, s = np.cos(th), np.sin(th)
    return r * np.array([[c, -s], [s, c]])


def _orthogonal(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def _graph(rng, n_core, n_nodes):
    perm = rng.permutation(n_core) + 1
    edges = {(int(perm[k]), int(perm[(k + 1) % n_core])) for k in range(n_core)}
    n_chords = n_core // 4
    while n_core > 1 and len(edges) < n_core + n_chords:
        j, i = (int(v) for v in rng.integers(1, n_core + 1, 2))
        if j != i:
            edges.add((j, i))
    for v in range(n_core + 1, n_nodes + 1):
        for u in rng.choice(np.arange(1, v), min(2, v - 1), replace=False):
            edges.add((int(u), v))
    return tuple(sorted(edges))


def _depth(edges, sources):
    """Largest hop distance from any of ``sources`` to any node."""
    succ = {}
    for j, i in edges:
        succ.setdefault(j, []).append(i)
    worst = 0
    for s in sources:
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for v in frontier:
                for w in succ.get(v, ()):
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        worst = max(worst, max(dist.values()))
    return worst


def make_instance(seed, n_nodes, n_relay, max_depth, n_classes=3):
    """Build one instance from ``seed``; the same arguments give the same
    arrays on every call.

    Graphs are redrawn until every node lies within ``max_depth`` hops of
    every sensing node, which bounds the step by which a deadbeat design
    reconstructs the state everywhere.
    """
    rng = np.random.default_rng(seed)
    n = 2 * n_classes + TAIL_DIM
    n_core = n_nodes - n_relay
    if n_core < n_classes or n_relay < 0:
        raise ValueError("the core must hold one sensing node per class")
    # Well separated angles and radii keep the classes distinct at the
    # program's clustering tolerance.
    edges_th = np.linspace(0.35, np.pi - 0.35, n_classes + 1)
    Abar = np.zeros((n, n))
    eigs = []
    for k in range(n_classes):
        th = rng.uniform(edges_th[k] + 0.05, edges_th[k + 1] - 0.05)
        r = rng.uniform(1.05, 1.25)
        sl = slice(2 * k, 2 * k + 2)
        Abar[sl, sl] = _rotation(r, th)
        eigs.append(r * np.exp(1j * th))
    tail = slice(n - TAIL_DIM, n)
    t_r, t_th = rng.uniform(0.1, 0.3), rng.uniform(0.3, np.pi - 0.3)
    Abar[tail, tail] = _rotation(t_r, t_th)
    Abar[tail, :n - TAIL_DIM] = 0.5 * rng.standard_normal((TAIL_DIM, n - TAIL_DIM))
    Q = _orthogonal(rng, n)
    A = Q @ Abar @ Q.T

    sensing = tuple(int(v) for v in rng.choice(np.arange(1, n_core + 1),
                                               n_classes, replace=False))
    C = [np.zeros((0, n)) for _ in range(n_nodes)]
    for k, node in enumerate(sensing):
        row = np.zeros((1, n))
        c = rng.uniform(0.5, 1.5, 2) * rng.choice([-1.0, 1.0], 2)
        row[0, 2 * k:2 * k + 2] = c
        C[node - 1] = row @ Q.T

    while True:
        edges = _graph(rng, n_core, n_nodes)
        if _depth(edges, sensing) <= max_depth:
            break
    x0 = rng.standard_normal(n)
    return Instance(
        A=A, C=tuple(C), edges=edges, n_nodes=n_nodes,
        n_core=n_core, sensing=sensing, eigs=tuple(eigs),
        tail_eigs=tuple(np.linalg.eigvals(Abar[tail, tail])), x0=x0,
    )
