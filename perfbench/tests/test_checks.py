"""Each check accepts the program's right output and rejects a wrong one."""

import dataclasses
import json
import types

import numpy as np
import pytest

import checks
import distobs
import workloads
from conftest import DEFAULT_SEED

SMALL = {"n_nodes": 24, "n_relay": 4, "max_depth": 12, "K": 80}


@pytest.fixture(scope="module")
def case():
    return workloads.Case(workloads._generate((DEFAULT_SEED, 0), SMALL))


def test_feasibility_rejects_wrong_root_set(case):
    rep = distobs.feasibility_report(case.plant, case.graph)
    assert checks.feasibility(rep, case.inst) == []
    k = rep.unstable[0]
    wrong = dict(rep.root_sets)
    wrong[k] = tuple(sorted({*wrong[k], 1 if wrong[k] != (1,) else 2}))
    assert checks.feasibility(dataclasses.replace(rep, root_sets=wrong), case.inst)


def test_designs_match_the_oracle(case):
    d1 = distobs.design_condition1(case.plant, case.graph)
    d2 = distobs.design_condition2(case.plant, case.graph)
    assert checks.condition1_design(d1, case.inst) == []
    assert checks.condition2_design(d2, case.inst) == []


def test_trace_rejects_one_perturbed_node(case):
    design = distobs.design_condition1(case.plant, case.graph)
    tr = distobs.simulate(case.plant, design, case.inst.x0, K=SMALL["K"])
    args = (case.inst.A, case.inst.x0, SMALL["K"], case.inst.n_nodes)
    assert checks.trace(tr, *args) == []
    xhat = np.array(tr.xhat)
    xhat[5, -1] += 1e-3 * (1 + np.linalg.norm(tr.x[-1]))
    bad = checks.trace(types.SimpleNamespace(x=tr.x, xhat=xhat), *args)
    assert bad and "node 6" in bad[0]
    x = np.array(tr.x)
    x[3] *= 1 + 1e-6
    assert checks.trace(types.SimpleNamespace(x=x, xhat=tr.xhat), *args)


def test_summary_rejects_nan(tmp_path):
    good = {"steps": 3, "nodes": [{"final_rel_error": 0.0}]}
    path = tmp_path / "summary.json"
    path.write_text(json.dumps(good))
    assert checks.summary(path, 2, 1) == []
    path.write_text(json.dumps({**good, "nodes": [{"final_rel_error": float("nan")}]}))
    assert "not strict JSON" in checks.summary(path, 2, 1)[0]


def test_window_coverage_rejects_a_starving_signal(case):
    design = distobs.design_condition2(case.plant, case.graph, max_parents=2)
    pm = distobs.dag_parent_map(design)
    K, T = 40, 4
    sig = distobs.make_assumption2_signal(pm, case.graph, T, K, 0.5, 3)
    assert checks.window_coverage(sig, pm, case.inst.edges, T, K) == []
    dead = distobs.SwitchingSignal(modes=(frozenset(),), schedule=(0,) * K,
                                   window_T=T)
    assert checks.window_coverage(dead, pm, case.inst.edges, T, K)


def test_pbh_verdicts_of_bundled_scenarios():
    with open(f"{workloads.BUNDLED_DIR}/remark1.json") as f:
        assert checks.pbh_verdicts(json.load(f)) == (True, False)
    with open(f"{workloads.BUNDLED_DIR}/illustrative.json") as f:
        assert checks.pbh_verdicts(json.load(f)) == (True, True)
    report = {"cond1": {"ok": True}, "cond2": {"ok": True}}
    assert checks.check_report(report, True, False)
