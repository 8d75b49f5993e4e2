"""Shared generators for randomized suites, and a fresh-interpreter probe.

Instances are built in a planted canonical form — per-node diagonal blocks
with known spectra, block-triangular couplings, an unobservable tail — then
conjugated by a random orthogonal basis change.  The planted data serves as
the oracle for decomposition and synthesis properties.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from distobs import Digraph, Plant, cli
from distobs import numkit as nk


def random_orthogonal(rng, n):
    """Haar-ish random orthogonal matrix via QR with sign fixing."""
    if n == 0:
        return np.zeros((0, 0))
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def rotation_block(rng, d, rmin, rmax):
    """A well-conditioned d-dim block with spectral radius in [rmin, rmax]:
    a scaled rotation for d = 2, a signed scalar for d = 1."""
    r = rng.uniform(rmin, rmax)
    if d == 1:
        return np.array([[r * rng.choice([-1.0, 1.0])]])
    th = rng.uniform(0.15, np.pi - 0.15)
    c, s = np.cos(th), np.sin(th)
    return r * np.array([[c, -s], [s, c]])


def structured_plant(rng, max_nodes=5, max_state=8, block_radius=1.1,
                     unobs_radius=0.9, coupling=0.4, n_nodes=None):
    """Random multi-sensor plant with planted decomposition structure.

    Returns ``(plant, oracle)`` where ``oracle`` records the planted per-node
    block dimensions (valid for processing order 1..N), the unobservable
    dimension and its exact spectrum, and the basis change used.  The node
    count is drawn from ``1..max_nodes`` unless ``n_nodes`` fixes it.
    """
    if n_nodes is None:
        N = int(rng.integers(1, max_nodes + 1))
    else:
        N = n_nodes
    dims = [int(rng.integers(0, 3)) for _ in range(N)]
    if sum(dims) == 0:
        dims[int(rng.integers(0, N))] = int(rng.integers(1, 3))
    u_dim = int(rng.integers(0, 3))
    # trim node blocks first, so large networks keep their unobservable
    # tail; the tail shrinks only once at most one nonzero block is left
    while sum(dims) + u_dim > max_state:
        j = int(rng.integers(0, N))
        if dims[j] > 0:
            dims[j] -= 1
        elif u_dim > 0 and sum(d > 0 for d in dims) <= 1:
            u_dim -= 1
    if sum(dims) == 0:
        dims[int(rng.integers(0, N))] = 1
    n = sum(dims) + u_dim

    Abar = np.zeros((n, n))
    starts = np.concatenate([[0], np.cumsum(dims)]).astype(int)
    for j in range(N):
        d = dims[j]
        if d == 0:
            continue
        sl = slice(starts[j], starts[j] + d)
        Abar[sl, sl] = rotation_block(rng, d, 0.3, block_radius)
        for l in range(j):
            if dims[l] and rng.random() < 0.5:
                sll = slice(starts[l], starts[l] + dims[l])
                Abar[sl, sll] = coupling * rng.standard_normal((d, dims[l]))
    unobs_eigs = []
    if u_dim:
        slu = slice(n - u_dim, n)
        left = u_dim
        pos = n - u_dim
        while left:
            d = 2 if (left >= 2 and rng.random() < 0.5) else 1
            blk = rotation_block(rng, d, 0.0, unobs_radius)
            Abar[pos:pos + d, pos:pos + d] = blk
            unobs_eigs.extend(np.linalg.eigvals(blk))
            pos += d
            left -= d
        Abar[slu, :n - u_dim] = coupling * rng.standard_normal(
            (u_dim, n - u_dim))

    C_rows = []
    for j in range(N):
        d = dims[j]
        if d == 0:
            C_rows.append(np.zeros((0, n)))
            continue
        sl = slice(starts[j], starts[j] + d)
        # for a scaled-rotation block the conditioning of the observability
        # stack does not depend on the output direction, so a block drawn
        # with a near-degenerate radius/angle combination must itself be
        # redrawn rather than just the output row
        while True:
            c = rng.standard_normal(d)
            c /= np.linalg.norm(c)
            O = np.vstack([
                c @ np.linalg.matrix_power(Abar[sl, sl], k) for k in range(d)
            ])
            if np.linalg.cond(O) <= 10.0:
                break
            Abar[sl, sl] = rotation_block(rng, d, 0.3, block_radius)
        row = np.zeros((1, n))
        row[0, sl] = c
        C_rows.append(row)

    Q = random_orthogonal(rng, n)
    A = Q @ Abar @ Q.T
    C = tuple(r @ Q.T for r in C_rows)
    oracle = {
        "dims": tuple(dims),
        "u_dim": u_dim,
        "n": n,
        "unobs_spectrum": sorted(
            (complex(v) for v in unobs_eigs), key=lambda z: (z.real, z.imag)
        ),
        "basis": Q,
    }
    return Plant(A, C), oracle


def observability_matrix(A, C):
    """The Krylov stack ``[C; CA; ...; C A^(n-1)]``, shape ``(n*r, n)``."""
    blocks = [np.asarray(C, dtype=float)]
    for _ in range(len(A) - 1):
        blocks.append(blocks[-1] @ A)
    return np.vstack(blocks)


def krylov_observable(A, C):
    """Reference observability test: full column rank of the Krylov stack.

    Independent of the staircase split in ``numkit``; its rows grow like
    ``||A||^(n-1)``, so it is trusted only at small n (up to 8 here)."""
    return nk.matrix_rank(observability_matrix(A, C)) == len(A)


def random_strong_graph(rng, n_nodes, extra=2):
    """Strongly connected digraph: a directed cycle through a random node
    permutation plus ``extra`` random chords."""
    perm = list(rng.permutation(np.arange(1, n_nodes + 1)))
    edges = {
        (int(perm[k]), int(perm[(k + 1) % n_nodes]))
        for k in range(n_nodes)
    }
    for _ in range(extra):
        j, i = rng.integers(1, n_nodes + 1, size=2)
        if j != i:
            edges.add((int(j), int(i)))
    return Digraph(n_nodes, edges)


def relay_network(rng, n_core, n_relay, extra):
    """A strongly connected core on ``1..n_core`` (see
    ``random_strong_graph``) followed by ``n_relay`` nodes, each fed by two
    earlier nodes; the core is the only source component."""
    core = random_strong_graph(rng, n_core, extra)
    edges = set(core.edges)
    for v in range(n_core + 1, n_core + n_relay + 1):
        for u in rng.choice(np.arange(1, v), 2, replace=False):
            edges.add((int(u), v))
    return Digraph(n_core + n_relay, edges)


def relay_instance(seed, n_nodes=120, n_relay=20, extra=25):
    """``(plant, graph)``: a ``structured_plant`` on the core of a
    ``relay_network`` of ``n_nodes`` nodes, whose last ``n_relay`` nodes
    measure nothing."""
    rng = np.random.default_rng(seed)
    core, _ = structured_plant(rng, n_nodes=n_nodes - n_relay,
                               unobs_radius=0.8)
    g = relay_network(rng, n_nodes - n_relay, n_relay, extra)
    return Plant(core.A, core.C + (np.zeros((0, core.n)),) * n_relay), g


def bundled_c1_design(name):
    """``(plant, design)``: the Scheme-1 design of a bundled scenario under
    its own options, as ``distobs design --scheme c1`` makes it."""
    scn = cli.load_scenario(cli.bundled_scenario_path(name))
    tol = scn.options["tolerances"] or nk.DEFAULT_TOL
    return scn.plant, cli._design(scn.plant, scn.graph, scn.options, "c1",
                                  tol)


SRC = str(Path(cli.__file__).resolve().parents[1])


def fresh_run(code):
    """Standard output of ``code`` run by a fresh interpreter that has the
    package's source on its path; a failing run raises."""
    return subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r})\n"
         + code],
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout


def loaded_after(code):
    """Names of the ``distobs`` submodules a fresh interpreter has loaded
    once it has run ``code``."""
    out = fresh_run(code + "\nprint(*sorted(m for m in sys.modules "
                    "if m.startswith('distobs.')))")
    return {m.removeprefix("distobs.") for m in out.splitlines()[-1].split()}


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
