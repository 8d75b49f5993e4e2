"""Per-node reference recursion for the simulation equivalence tests.

``simulate`` steps every node at once through the design compiled into
frames (one gather and one batched product per step).  This module keeps
the node-by-node recursions it replaced, so the equivalence tests compare the compiled kernel against an
independent implementation rather than against itself:

* ``form="compact"`` steps each Scheme-1 node through its assembled compact
  matrices ``N_mat``, ``TH_i`` and ``G_il`` (static runs only);
* ``form="blocks"`` steps each Scheme-1 node slot by slot in decomposition
  coordinates, reweighting over the surviving parents under a switching
  signal (switching runs always use it);
* relay nodes copy a parent estimate through the plant map;
* Scheme-2 banks step each node's local observer and relayed classes.

It also keeps the step-by-step switching-signal generator and validator
that ``make_assumption2_signal`` and ``validate_assumption2`` replaced with
whole-array window tests.
"""

import numpy as np

from distobs import C2ObserverBank, Condition1Design, SwitchingSignal


def _uniform(live):
    w = 1.0 / len(live)
    return {l: w for l in live}


def _c1_step_weights(comp, ids, mode_edges):
    """Per-node slot-weight vectors for one component under ``mode_edges``.

    Returns a list over local nodes of ``{local neighbor: weight vector}``
    with one slot per sub-state plus the unobservable tail, mirroring the
    statically assembled vectors but reweighted over the surviving parents:
    a node whose live parents for some sub-state form a proper subset of its
    designed parents splits the weight uniformly over that subset, and a
    node with no surviving parent falls back to propagating its own previous
    estimate of that sub-state.
    """
    d = comp.decomposition
    N_c = len(d.o)
    out = []
    for i_loc in range(1, N_c + 1):
        pos = d.step_of_node[i_loc]
        vecs = {}

        def vec(l):
            if l not in vecs:
                vecs[l] = np.zeros(N_c + 1)
            return vecs[l]

        own = vec(i_loc)
        own[pos - 1] = 1.0
        own[N_c] = 1.0
        for j in range(1, N_c + 1):
            if j == pos or d.o[j - 1] == 0:
                continue
            parents = comp.bank.weights[j].parents(i_loc)
            live = [
                l for l in parents
                if (ids[l - 1], ids[i_loc - 1]) in mode_edges
            ]
            if live:
                for l, w in _uniform(live).items():
                    vec(l)[j - 1] += w
            else:
                vec(i_loc)[j - 1] += 1.0
        out.append(vecs)
    return out


def _c1_static_weights(comp):
    """Per-node slot-weight vectors of the static design, from the bank's
    consensus weights: a node's own sub-state and the unobservable tail come
    from its own estimate, every other nonempty sub-state from the weighted
    parents."""
    d = comp.decomposition
    weights = comp.bank.weights
    N_c = len(d.o)
    out = []
    for i_loc in range(1, N_c + 1):
        pos = d.step_of_node[i_loc]
        vecs = {i_loc: np.zeros(N_c + 1)}
        vecs[i_loc][pos - 1] = 1.0
        vecs[i_loc][N_c] = 1.0
        for j in range(1, N_c + 1):
            if j == pos or d.o[j - 1] == 0:
                continue
            for l, w in weights[j].weights[i_loc].items():
                vecs.setdefault(l, np.zeros(N_c + 1))[j - 1] += w
        out.append(vecs)
    return out


def _c1_step_component(comp, ids, xh, y, weight_vectors, C):
    """Advance one component's members one step in block coordinates.

    The update is the compact per-node recursion conjugated into the
    decomposition coordinates: couplings from the block-triangular part,
    the node's own innovation injected on its sub-state, and each slot's
    consensus drawn from the weighted neighbors.  The innovation is formed
    in original coordinates (``y_i - C_i x_hat_i``), exactly as the compact
    form does; with a user-supplied transform whose published entries are
    rounded, the structure-enforced ``Cbar`` differs from ``C_i T`` by the
    rounding residual, and measuring through it would bias the estimate.
    """
    d = comp.decomposition
    bank = comp.bank
    N_c = len(d.o)
    T = d.T
    Tinv = np.linalg.inv(T)
    A1 = d.Abar.copy()
    for j in range(1, N_c + 1):
        sl = d.block_slice(j)
        A1[sl, sl] = 0.0
    slu = d.unobs_slice
    A1[slu, slu] = 0.0
    z = {l: Tinv @ xh[ids[l - 1] - 1] for l in range(1, N_c + 1)}
    out = {}
    for i_loc in range(1, N_c + 1):
        gi = ids[i_loc - 1]
        pos = d.step_of_node[i_loc]
        innov = y[gi - 1] - C[gi - 1] @ xh[gi - 1]
        z_next = A1 @ z[i_loc]
        sl_pos = d.block_slice(pos)
        z_next[sl_pos] += bank.gains[pos - 1] @ innov
        for l, w in weight_vectors[i_loc - 1].items():
            zl = z[l]
            for j in range(1, N_c + 1):
                if w[j - 1] and d.o[j - 1]:
                    sl = d.block_slice(j)
                    z_next[sl] += w[j - 1] * (d.A_sub(j) @ zl[sl])
            if w[N_c] and d.u_dim:
                z_next[slu] += w[N_c] * (d.A_unobs @ zl[slu])
        out[gi] = T @ z_next
    return out


def _relay_step(relay, A, xh, mode_edges):
    """Advance the pure-relay nodes: copy a parent estimate through the
    plant map, averaging over surviving parents, or propagate the node's own
    previous estimate when every parent link is down."""
    out = {}
    if relay is None:
        return out
    for i in relay.relay_nodes:
        parents = relay.parents(i)
        if mode_edges is None:
            src = xh[parents[0] - 1]
        else:
            live = [l for l in parents if (l, i) in mode_edges]
            if live:
                src = sum(xh[l - 1] for l in live) / len(live)
            else:
                src = xh[i - 1]
        out[i] = A @ src
    return out


def _simulate_c1(p, design, x0, est0, K, signal, form, dtype):
    N = p.n_nodes
    xh = [np.asarray(e, dtype=dtype).reshape(p.n) for e in est0]
    x = np.asarray(x0, dtype=dtype).reshape(p.n)
    xs = [x.copy()]
    hats = [[v.copy() for v in xh]]
    for k in range(K):
        y = [p.C[i - 1] @ x for i in range(1, N + 1)]
        mode_edges = None if signal is None else signal.edges_at(k)
        new = {}
        for comp in design.components:
            ids = comp.nodes
            if mode_edges is None and form == "compact":
                bank = comp.bank
                for i_loc in range(1, len(ids) + 1):
                    gi = ids[i_loc - 1]
                    innov = y[gi - 1] - p.C[gi - 1] @ xh[gi - 1]
                    v = bank.N_mat @ xh[gi - 1] + bank.TH[i_loc - 1] @ innov
                    for l, Gil in bank.G[i_loc - 1].items():
                        v = v + Gil @ xh[ids[l - 1] - 1]
                    new[gi] = v
            else:
                if mode_edges is None:
                    wv = _c1_static_weights(comp)
                else:
                    wv = _c1_step_weights(comp, ids, mode_edges)
                new.update(_c1_step_component(comp, ids, xh, y, wv, p.C))
        new.update(_relay_step(design.relay, p.A, xh, mode_edges))
        xh = [new[i] for i in range(1, N + 1)]
        x = p.A @ x
        xs.append(x.copy())
        hats.append([v.copy() for v in xh])
    return xs, hats


def _c2_init_states(bank, est0):
    states = []
    for rec in bank.nodes:
        sp = rec.split
        zbar = sp.perm.T @ (bank.jsys.T_inv @ est0[rec.node - 1])
        v = sp.inner_split.T @ zbar[sp.det_dim:]
        states.append(np.concatenate([zbar[:sp.det_dim], v[:sp.aug_dim]]))
    return states


def _simulate_c2(p, bank, x0, est0, K, signal, dtype):
    N = p.n_nodes
    jsys = bank.jsys
    T, Tinv = jsys.T, jsys.T_inv
    xh = [np.asarray(e, dtype=dtype).reshape(p.n) for e in est0]
    s = _c2_init_states(bank, xh)
    x = np.asarray(x0, dtype=dtype).reshape(p.n)
    xs = [x.copy()]
    hats = [[v.copy() for v in xh]]
    for k in range(K):
        y = [p.C[i - 1] @ x for i in range(1, N + 1)]
        mode_edges = None if signal is None else signal.edges_at(k)
        z = [Tinv @ v for v in xh]
        new_s, new_xh = [], []
        for rec in bank.nodes:
            i, sp = rec.node, rec.split
            si = s[i - 1]
            # the relayed classes' output outside the local pair comes from
            # the node's relayed estimates
            v = sp.inner_split.T @ (sp.perm.T @ z[i - 1])[sp.det_dim:]
            s_next = (
                sp.local_dynamics @ si
                + rec.gain @ (y[i - 1] - sp.local_output @ si
                              - sp.relayed_output @ v[sp.aug_dim:])
            )
            parts = [s_next[:sp.det_dim]]
            for cls_idx, sl in rec.relayed:
                if mode_edges is None:
                    row = bank.class_weights[cls_idx].weights[i]
                else:
                    parents = bank.class_weights[cls_idx].parents(i)
                    live = [l for l in parents if (l, i) in mode_edges]
                    row = _uniform(live) if live else {i: 1.0}
                acc = np.zeros(sl.stop - sl.start, dtype=dtype)
                for l, w in row.items():
                    acc += w * z[l - 1][sl]
                parts.append(jsys.classes[cls_idx].block @ acc)
            new_s.append(s_next)
            new_xh.append(T @ (sp.perm @ np.concatenate(parts)))
        s, xh = new_s, new_xh
        x = p.A @ x
        xs.append(x.copy())
        hats.append([v.copy() for v in xh])
    return xs, hats


def reference_simulate(p, bank, x0, est0=None, K=50, signal=None,
                       form="compact", dtype=float):
    """Node-by-node run of ``bank``; returns ``(x, xhat)`` arrays shaped like
    the ``x`` and ``xhat`` fields of a ``SimulationTrace``.

    ``dtype`` is the precision the states and estimates are carried in.
    The design's float64 matrices are used as they are, so under
    ``np.longdouble`` every product promotes and the run is the same
    recursion with less rounding: a yardstick for the float64 runs."""
    N = p.n_nodes
    if est0 is None:
        est0 = [np.zeros(p.n) for _ in range(N)]
    if isinstance(bank, Condition1Design):
        xs, hats = _simulate_c1(p, bank, x0, est0, K, signal, form, dtype)
    elif isinstance(bank, C2ObserverBank):
        xs, hats = _simulate_c2(p, bank, x0, est0, K, signal, dtype)
    else:
        raise TypeError(f"unsupported bank {type(bank).__name__}")
    x = np.array(xs)
    xhat = np.array([[hats[k][i] for k in range(K + 1)] for i in range(N)])
    return x, xhat


def reference_assumption2_signal(dag_parents, baseline, T, K, drop_prob,
                                 seed):
    """Step-by-step ``make_assumption2_signal``: one draw per step, then a
    window-by-window repair that tests each routed pair against the live
    edge sets, restored edges included."""
    rng = np.random.default_rng(seed)
    edges = sorted(set(baseline.edges))
    live = []
    for _ in range(K):
        keep = rng.random(len(edges)) >= drop_prob
        live.append({e for e, k in zip(edges, keep) if k})
    for w0 in range(0, K, T):
        w1 = min(w0 + T, K)
        for label, pmap in dag_parents.items():
            for i, parents in pmap.items():
                if not parents:
                    continue
                if any(
                    (l, i) in live[k]
                    for k in range(w0, w1) for l in parents
                ):
                    continue
                live[w1 - 1].add((parents[0], i))
    modes = []
    index = {}
    schedule = []
    for step_edges in live:
        key = frozenset(step_edges)
        if key not in index:
            index[key] = len(modes)
            modes.append(key)
        schedule.append(index[key])
    return SwitchingSignal(
        modes=tuple(modes), schedule=tuple(schedule), window_T=T, seed=seed,
    )


def reference_validate_assumption2(signal, dag_parents, T=None):
    """Window-by-window ``validate_assumption2``: the first ``(window, node,
    label)`` in sorted label and node order whose window keeps no parent
    edge, or ``None``."""
    T = signal.window_T if T is None else T
    K = len(signal.schedule)
    for w, w0 in enumerate(range(0, K, T)):
        w1 = min(w0 + T, K)
        step_edges = [signal.edges_at(k) for k in range(w0, w1)]
        for label, pmap in sorted(dag_parents.items()):
            for i, parents in sorted(pmap.items()):
                if not parents:
                    continue
                if not any(
                    (l, i) in es for es in step_edges for l in parents
                ):
                    return (w, i, label)
    return None
