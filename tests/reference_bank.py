"""Per-node reference for the Scheme-2 bank assembly tests.

``distobs.synth_c2.assemble_c2_bank`` walks the nodes once, in order, and
memoizes per output group: it validates each distinct (gain object, group)
pair at the first node that has it, compares each node's undetectable
classes with a per-node list of the classes whose routes have it as a
non-root, and builds one record per group at the group's first node, which
every node of the group copies.  This module keeps a loop with no memo and
no shared record, so the equivalence tests compare the grouped assembly
against an independent implementation rather than against itself:

* each node's gain is validated against its own split;
* each node's relayed classes are read off its own row of the routes'
  non-roots and compared with its undetectable classes;
* each node's record is built from scratch.

Only the loop is kept: the argument checks added with the grouped assembly
(gain count, route nodes in range) are not here, and the state-dimension
invariant stays an ``AssertionError``.
"""

import numpy as np

from distobs import numkit as nk
from distobs.synth_c2 import C2NodeObserver


def assemble_c2_records(jsys, gains, class_weights):
    """Every node's :class:`C2NodeObserver`, built node by node."""
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
        assert state_dim == p.n + split.aug_dim
        records.append(C2NodeObserver(
            node=i, split=split, gain=L, relayed=tuple(relayed),
            state_dim=state_dim,
        ))
    return tuple(records)


def gain_calls(p, gains):
    """The ``(node, given)`` calls of ``local_observer`` that the node-order
    gain loop of ``design_condition2`` makes, in order: each node with a
    given gain, and each output group at its first node without one."""
    calls, made = [], set()
    for i in range(1, p.n_nodes + 1):
        given = gains.get(i)
        if given is not None:
            calls.append((i, True))
        elif p._output_rep[i - 1] not in made:
            made.add(p._output_rep[i - 1])
            calls.append((i, False))
    return calls
