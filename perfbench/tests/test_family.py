"""The generator's planted oracle holds, checked apart from the program."""

import numpy as np
import pytest

import family
import workloads
from conftest import CONFIRM_SEED, DEFAULT_SEED


def _reach(edges, start):
    succ = {}
    for j, i in edges:
        succ.setdefault(j, []).append(i)
    seen, todo = {start}, [start]
    while todo:
        for w in succ.get(todo.pop(), ()):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def _pbh_ok(A, C, lam):
    M = np.vstack([A - lam * np.eye(len(A)), C])
    return np.linalg.matrix_rank(M, tol=1e-9 * np.linalg.norm(M, 2)) == len(A)


@pytest.mark.parametrize("seed", [DEFAULT_SEED, CONFIRM_SEED])
@pytest.mark.parametrize("spec", [workloads.STATIC, workloads.SWITCHING],
                         ids=["static", "switching"])
def test_planted_oracle(seed, spec):
    inst = workloads._generate((seed, 0), spec)
    assert inst.n_nodes == spec["n_nodes"]
    assert inst.n_core == spec["n_nodes"] - spec["n_relay"]
    # spectrum: the planted unstable pairs plus a stable tail
    eigs = np.linalg.eigvals(inst.A)
    planted = [*inst.eigs, *np.conj(inst.eigs), *inst.tail_eigs]
    assert np.allclose(np.sort_complex(eigs), np.sort_complex(planted), atol=1e-9)
    assert all(abs(lam) > 1 for lam in inst.eigs)
    assert all(abs(lam) < 1 for lam in inst.tail_eigs)
    # each class is detected by its sensing node alone
    for k, lam in enumerate(inst.eigs):
        who = [i for i in range(1, inst.n_nodes + 1)
               if inst.C[i - 1].shape[0] and _pbh_ok(inst.A, inst.C[i - 1], lam)]
        assert who == [inst.sensing[k]]
    assert sum(c.shape[0] for c in inst.C) == len(inst.eigs)
    # the core is strongly connected, reaches every relay, and no relay
    # feeds back into it
    core = set(range(1, inst.n_core + 1))
    for v in (1, inst.n_core):
        assert _reach(inst.edges, v) == set(range(1, inst.n_nodes + 1))
    assert all(j in core or i not in core for j, i in inst.edges)
    assert family._depth(inst.edges, inst.sensing) <= spec["max_depth"]


def test_same_seed_same_inputs():
    a = workloads._generate((DEFAULT_SEED, 0), workloads.STATIC)
    b = workloads._generate((DEFAULT_SEED, 0), workloads.STATIC)
    c = workloads._generate((CONFIRM_SEED, 0), workloads.STATIC)
    assert np.array_equal(a.A, b.A) and a.edges == b.edges
    assert not np.array_equal(a.A, c.A)
