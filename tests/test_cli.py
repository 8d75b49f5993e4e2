import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import distobs
from distobs import (
    Assumption2Check,
    Digraph,
    Plant,
    dag_parent_map,
    design_condition1,
    make_assumption2_signal,
    simulate,
)
from distobs import errors, numkit as nk, synth_c1
from distobs.cli import (
    bundled_scenario_path,
    load_bank,
    load_scenario,
    main,
    save_bank,
    write_trace_csv,
)
from distobs.errors import ScenarioError
from conftest import loaded_after

BUNDLED = (
    "illustrative.json",
    "remark1.json",
    "fig3.json",
    "sec8.json",
    "sec8_switching.json",
)


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _bundled(name):
    with open(bundled_scenario_path(name)) as f:
        return json.load(f)


def _minimal_scenario():
    return {
        "format_version": 1,
        "plant": {"A": [[2.0]], "C": [[[1.0]], [[1.0]]]},
        "graph": {"n_nodes": 2, "edges": [[1, 2], [2, 1]]},
        "simulation": {"x0": [1.0], "K": 5},
    }


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenarios_load(name):
    scn = load_scenario(bundled_scenario_path(name))
    assert scn.plant.n >= 1
    assert scn.graph.n_nodes == scn.plant.n_nodes


def test_sec8_scenario_contents():
    scn = load_scenario(bundled_scenario_path("sec8.json"))
    assert scn.plant.n == 3 and scn.plant.n_nodes == 3
    assert scn.options["scheme"] == "c1"
    assert scn.options["transform"].shape == (3, 3)
    assert scn.options["transform_o"] == (2, 1)
    assert set(scn.options["gains"]) == {1, 2}
    assert scn.options["weights"] == {1: {2: {1: 1.0}}, 2: {1: {2: 1.0}}}
    assert scn.simulation["K"] == 80
    assert scn.simulation["switching"] is None


def test_switching_scenario_contents():
    scn = load_scenario(bundled_scenario_path("sec8_switching.json"))
    sw = scn.simulation["switching"]
    assert sw["kind"] == "generated"
    assert sw["T"] == 4 and sw["drop_prob"] == 0.5
    assert isinstance(sw["seed"], int)
    assert scn.options["max_parents"] == 2


@pytest.mark.parametrize("mutate,fragment", [
    (lambda s: s.pop("format_version"), "missing key"),
    (lambda s: s.update(format_version=99), "format_version"),
    (lambda s: s.update(extra=1), "unknown key"),
    (lambda s: s["plant"].update(A=[[1.0, 0.0]]), "square"),
    (lambda s: s["plant"].update(C=[[[1.0, 2.0]], [[1.0]]]), "columns"),
    (lambda s: s["plant"].update(C=[[[True]], [[1.0]]]), "non-numeric"),
    (lambda s: s["plant"].update(C=[[[1.0], [2.0, 3.0]], [[1.0]]]), "ragged"),
    (lambda s: s["graph"].update(n_nodes=3), "n_nodes"),
    (lambda s: s["graph"].update(edges=[[1, 5]]), "out of range"),
    (lambda s: s["graph"].update(edges=[1, 2]), "pair"),
    (lambda s: s["simulation"].update(K=0), "K"),
    (lambda s: s["simulation"].update(x0=[1.0, 2.0]), "entries"),
    (lambda s: s["simulation"].update(est0=[[1.0]]), "2 vectors"),
    (lambda s: s.update(options={"scheme": "c9"}), "scheme"),
    (lambda s: s.update(options={"order": [1, 1]}), "order"),
    (lambda s: s.update(options={"transform": [[1.0]]}), "transform"),
    (lambda s: s.update(options={"transform_o": [1, 1]}),
     "options.transform_o requires options.transform"),
    (lambda s: s.update(options={"gains": {"7": [[1.0]]}}), "out of range"),
    (lambda s: s.update(options={"max_parents": 0}), "max_parents"),
    (lambda s: s["simulation"].update(
        switching={"T": 0, "drop_prob": 0.5}), "switching.T"),
    (lambda s: s["simulation"].update(
        switching={"T": 2, "drop_prob": 1.5}), "drop_prob"),
    # json.load accepts the NaN and Infinity literals json.dumps writes
    (lambda s: s["simulation"].update(x0=[float("nan")]), "simulation.x0"),
    (lambda s: s["simulation"].update(est0=[[1.0], [float("inf")]]),
     "est0[2]"),
    (lambda s: s.update(options={"gains": {"1": [[float("nan")]]}}),
     "gains[1]: non-numeric or non-finite"),
    (lambda s: s.update(options={"structure_tol": float("inf")}),
     "structure_tol"),
    (lambda s: s.update(options={"tolerances": {"rank_tol": float("inf")}}),
     "rank_tol"),
    # an integer too large for a float
    (lambda s: s["plant"].update(A=[[10 ** 400]]),
     "plant.A: non-numeric or non-finite"),
    # weight keys are range-checked as gain keys are: source, node, parent
    (lambda s: s.update(options={"weights": {"9": {"2": {"1": 1.0}}}}),
     "options.weights: node 9 out of range"),
    (lambda s: s.update(options={"weights": {"1": {"0": {"1": 1.0}}}}),
     "options.weights: node 0 out of range"),
    (lambda s: s.update(options={"weights": {"1": {"2": {"3": 1.0}}}}),
     "options.weights: node 3 out of range"),
], ids=lambda v: v if isinstance(v, str) else "")
def test_load_scenario_rejects(tmp_path, mutate, fragment):
    payload = _minimal_scenario()
    mutate(payload)
    path = _write(tmp_path, "bad.json", payload)
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario(path)
    assert fragment.lower() in str(excinfo.value).lower()


_BOTH_LINKS = [[1, 2], [2, 1]]


def _one_node(s):
    s["plant"]["C"] = [[[1.0]]]
    s["graph"] = {"n_nodes": True, "edges": []}


def _switch(**sw):
    return lambda s: s["simulation"].update(switching=sw)


# each scenario runs when ``true`` is read as the integer 1
@pytest.mark.parametrize("mutate", [
    _one_node,
    lambda s: s["graph"].update(edges=[[True, 2], [2, 1]]),
    lambda s: s.update(options={"order": [True, 2]}),
    lambda s: s.update(options={"transform_o": [True]}),
    lambda s: s.update(options={"max_parents": True}),
    _switch(modes=[[[True, 2], [2, 1]]], schedule=[0] * 5, T=1),
    _switch(modes=[_BOTH_LINKS, _BOTH_LINKS], schedule=[0, True, 0, 0, 0],
            T=1),
    _switch(modes=[_BOTH_LINKS], schedule=[0] * 5, T=True),
    _switch(T=True, drop_prob=0.5),
    _switch(T=2, drop_prob=0.5, seed=True),
    lambda s: s["simulation"].update(K=True),
    lambda s: s.update(format_version=True),
], ids=["n_nodes", "edge", "order", "transform_o", "max_parents",
        "mode_edge", "schedule", "explicit_T", "generated_T", "seed", "K",
        "format_version"])
def test_boolean_integer_fields_exit_3(tmp_path, capsys, mutate):
    payload = _minimal_scenario()
    mutate(payload)
    assert main(["simulate", _write(tmp_path, "s.json", payload)]) == 3
    assert "input error:" in capsys.readouterr().err


def test_readme_scenario_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    _, _, rest = readme.partition("A scenario file looks like:")
    assert rest, "README has no scenario example"
    block = rest.split("```json\n", 1)[1].split("```", 1)[0]
    scn = load_scenario(_write(tmp_path, "example.json", json.loads(block)))
    assert scn.plant.n_nodes == scn.graph.n_nodes == 2
    assert scn.simulation["K"] == 50


def test_load_scenario_rejects_non_json(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError, match="not valid JSON"):
        load_scenario(str(path))


def test_check_exit_codes_and_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["check", bundled_scenario_path("remark1.json"),
               "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "collective detectability: PASS" in text
    assert "per-eigenvalue coverage: FAIL" in text
    assert "cannot handle 2" in text
    rep = json.loads(out.read_text())
    assert rep["cond1"]["ok"] is True
    assert rep["cond2"]["ok"] is False
    bad = [c for c in rep["cond2"]["components"] if not c["ok"]]
    assert len(bad) == 1
    assert sorted(bad[0]["nodes"]) == [1, 2]
    assert bad[0]["failing"] == [[2.0, 0.0]]
    assert rep["root_sets"] == {"0": [3]}
    assert set(rep["per_node_detectable"]) == {"1", "2", "3"}
    assert rep["unstable_eigenvalues"] == [[2.0, 0.0]]


def test_check_fails_when_undetectable(tmp_path, capsys):
    payload = _minimal_scenario()
    # nobody measures the unstable state
    payload["plant"]["C"] = [[[0.0]], [[0.0]]]
    rc = main(["check", _write(tmp_path, "s.json", payload)])
    assert rc == 2
    assert "FAIL" in capsys.readouterr().out


def test_design_infeasible_scheme_exits_2(tmp_path, capsys):
    rc = main(["design", bundled_scenario_path("remark1.json"),
               "--scheme", "c2"])
    assert rc == 2
    assert "infeasible:" in capsys.readouterr().err


def test_missing_file_exits_3(capsys):
    rc = main(["check", "/nonexistent/scenario.json"])
    assert rc == 3
    assert "input error:" in capsys.readouterr().err


def test_bad_json_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2")
    assert main(["check", str(path)]) == 3
    capsys.readouterr()


def test_bad_order_flag_exits_3(capsys):
    rc = main(["design", bundled_scenario_path("sec8.json"),
               "--order", "1,2,x"])
    assert rc == 3
    assert "comma-separated" in capsys.readouterr().err


def test_simulate_without_simulation_section_exits_3(tmp_path, capsys):
    payload = _minimal_scenario()
    del payload["simulation"]
    rc = main(["simulate", _write(tmp_path, "s.json", payload)])
    assert rc == 3
    assert "no simulation section" in capsys.readouterr().err


def test_destabilizing_given_gain_exits_4(tmp_path, capsys):
    raw = _bundled("sec8.json")
    raw["options"]["gains"]["1"] = [[0.0], [0.0]]
    rc = main(["design", _write(tmp_path, "s.json", raw)])
    assert rc == 4
    assert "numerical failure:" in capsys.readouterr().err


def test_overflowing_simulation_exits_4(tmp_path, capsys):
    raw = _bundled("illustrative.json")
    raw["simulation"]["K"] = 2000
    summary = tmp_path / "summary.json"
    rc = main(["simulate", _write(tmp_path, "s.json", raw),
               "--summary", str(summary)])
    assert rc == 4
    assert "numerical failure:" in capsys.readouterr().err
    assert not summary.exists() or "NaN" not in summary.read_text()


def test_generated_signal_failing_its_window_guarantee_exits_4(
        capsys, monkeypatch):
    monkeypatch.setattr(distobs.simkit, "validate_assumption2",
                        lambda sig, pm: Assumption2Check(False, (0, 2, 1)))
    rc = main(["simulate", bundled_scenario_path("sec8_switching.json")])
    assert rc == 4
    assert capsys.readouterr().err == (
        "numerical failure: generated switching signal fails its own window "
        "guarantee at (0, 2, 1)\n")


def test_design_rejects_non_finite_weight_exits_3(tmp_path, capsys):
    raw = _bundled("sec8.json")
    raw["options"]["weights"]["1"]["2"]["1"] = float("nan")
    bank = tmp_path / "bank.json"
    rc = main(["design", _write(tmp_path, "s.json", raw), "--out", str(bank)])
    assert rc == 3
    assert "non-finite weight nan on edge 1->2" in capsys.readouterr().err
    assert not bank.exists()


@pytest.mark.parametrize("override, message", [
    ({"weights": {"99": {"2": {"1": 1.0}}}},
     "options.weights: node 99 out of range"),
    ({"weights": {"3": {"2": {"1": 1.0}}}},
     "weights given for node 3, which sources no nonempty sub-state"),
    ({"gains": {"3": [[1.0]]}},
     "gains given for node 3, which sources no nonempty sub-state"),
], ids=["weights_out_of_range", "weights_non_source", "gains_non_source"])
def test_design_rejects_overrides_that_match_nothing(tmp_path, capsys,
                                                     override, message):
    raw = _bundled("sec8.json")
    raw["options"].update(override)
    bank = tmp_path / "bank.json"
    rc = main(["design", _write(tmp_path, "s.json", raw), "--out", str(bank)])
    assert rc == 3
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert not bank.exists()


def test_design_writes_bank(tmp_path, capsys):
    bank_path = tmp_path / "bank.json"
    rc = main(["design", bundled_scenario_path("sec8.json"),
               "--out", str(bank_path)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "scheme: c1" in text
    assert "relay nodes: [3]" in text
    raw = json.loads(bank_path.read_text())
    assert raw["kind"] == "distobs-bank"
    assert raw["scheme"] == "c1"
    assert set(raw["gains"]) == {"1", "2"}
    design, scheme, p, g, tol = load_bank(str(bank_path))
    assert scheme == "c1"
    assert g.n_nodes == 3
    assert all(comp.stability.ok for comp in design.components)


def test_bank_roundtrip_reproduces_trace(tmp_path, capsys):
    scenario = bundled_scenario_path("sec8.json")
    bank_path = tmp_path / "bank.json"
    assert main(["design", scenario, "--out", str(bank_path)]) == 0
    t_direct = tmp_path / "direct.csv"
    t_loaded = tmp_path / "loaded.csv"
    assert main(["simulate", scenario, "--out", str(t_direct)]) == 0
    assert main(["simulate", scenario, str(bank_path),
                 "--out", str(t_loaded)]) == 0
    capsys.readouterr()
    assert t_direct.read_bytes() == t_loaded.read_bytes()


def test_bank_guard_rejects_other_scenario(tmp_path, capsys):
    bank_path = tmp_path / "bank.json"
    assert main(["design", bundled_scenario_path("sec8.json"),
                 "--out", str(bank_path)]) == 0
    rc = main(["simulate", bundled_scenario_path("remark1.json"),
               str(bank_path)])
    assert rc == 3
    assert "different plant" in capsys.readouterr().err


def _fig3_c1_bank(tmp_path):
    bank = tmp_path / "bank.json"
    assert main(["design", bundled_scenario_path("fig3.json"), "--scheme",
                 "c1", "--out", str(bank)]) == 0
    return bank


# each edited bank loaded without an input error before banks went through
# the scenario schema
@pytest.mark.parametrize("mutate,fragment", [
    (lambda b: b.update(max_parents="2"), "bank.max_parents"),
    (lambda b: b.update(max_parents=True), "bank.max_parents"),
    (lambda b: b.update(order=[1.5, 2.5, 3.5]), "bank.order"),
    (lambda b: b.update(order=[True, 2, 3]), "bank.order"),
    (lambda b: b.update(structure_tol=-1.0), "bank.structure_tol"),
    (lambda b: b.update(extra=1), "unknown key"),
    (lambda b: b.pop("plant"), "missing key"),
    (lambda b: b["gains"].update({"9": [[1.0]]}), "node 9 out of range"),
    (lambda b: b.update(transform_o=[-1]), "bank.transform_o"),
    (lambda b: b.update(transform_o=[1, 1, 1]),
     "bank.transform_o requires bank.transform"),
    (lambda b: b.update(tolerances={"rank_tol": float("inf")}),
     "bank.tolerances.rank_tol"),
], ids=["max_parents_str", "max_parents_bool", "order_float", "order_bool",
        "structure_tol", "unknown_key", "missing_plant", "gain_node",
        "transform_o", "transform_o_alone", "rank_tol_inf"])
def test_load_bank_rejects(tmp_path, capsys, mutate, fragment):
    bank = _fig3_c1_bank(tmp_path)
    raw = json.loads(bank.read_text())
    mutate(raw)
    bank.write_text(json.dumps(raw))
    capsys.readouterr()
    rc = main(["simulate", bundled_scenario_path("fig3.json"), str(bank)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "input error:" in err and fragment in err


@pytest.mark.parametrize("flag", ["--scheme", "--order", "--tol-rank",
                                  "--tol-eig"])
def test_bank_fixed_flags_exit_3(tmp_path, capsys, flag):
    bank = _fig3_c1_bank(tmp_path)
    value = {"--scheme": "c1", "--order": "1,2,3", "--tol-rank": "1e-9",
             "--tol-eig": "1e-7"}[flag]
    capsys.readouterr()
    rc = main(["simulate", bundled_scenario_path("fig3.json"), str(bank),
               flag, value])
    assert rc == 3
    assert (f"input error: {flag} cannot be combined with a bank"
            in capsys.readouterr().err)


def test_seed_flag_applies_with_bank(tmp_path, capsys):
    scenario = bundled_scenario_path("sec8_switching.json")
    bank = tmp_path / "bank.json"
    summary = tmp_path / "summary.json"
    assert main(["design", scenario, "--out", str(bank)]) == 0
    assert main(["simulate", scenario, str(bank), "--seed", "5",
                 "--summary", str(summary)]) == 0
    capsys.readouterr()
    assert json.loads(summary.read_text())["seed"] == 5


@pytest.mark.parametrize("flag,value", [
    ("--tol-rank", "-1"), ("--tol-rank", "nan"), ("--tol-eig", "0"),
])
def test_tolerance_flags_exit_3(capsys, flag, value):
    assert main(["check", bundled_scenario_path("fig3.json"), flag, value]) == 3
    assert (f"input error: {flag} must be a positive number"
            in capsys.readouterr().err)


@pytest.mark.parametrize("scheme", ["c1", "c2"])
def test_order_flag_must_be_a_permutation(tmp_path, capsys, scheme):
    bank = tmp_path / "bank.json"
    rc = main(["design", bundled_scenario_path("fig3.json"), "--order",
               "1,1,2", "--scheme", scheme, "--out", str(bank)])
    assert rc == 3
    assert ("input error: --order must list every node id exactly once"
            in capsys.readouterr().err)
    assert not bank.exists()


def test_trace_csv_layout(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    rc = main(["simulate", bundled_scenario_path("sec8.json"),
               "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    with open(out, newline="") as f:
        rows = list(csv.reader(f))
    header = ["step", "mode", "x_1", "x_2", "x_3"]
    for i in (1, 2, 3):
        header += [f"xhat_{i}_1", f"xhat_{i}_2", f"xhat_{i}_3",
                   f"err_{i}", f"relerr_{i}"]
    assert rows[0] == header
    assert len(rows) == 1 + 81
    assert [r[0] for r in rows[1:]] == [str(k) for k in range(81)]
    assert all(r[1] == "" for r in rows[1:])
    # shortest-repr floats round-trip exactly
    assert float(rows[1][2]) == 0.5
    final_relerrs = [float(rows[-1][header.index(f"relerr_{i}")])
                     for i in (1, 2, 3)]
    assert max(final_relerrs) < 1e-8


def _csv_writer_trace(path, trace):
    """The trace CSV written row by row through ``csv.writer``, one
    ``repr`` per value."""
    n = trace.x.shape[1]
    N = trace.n_nodes
    header = ["step", "mode"] + [f"x_{d}" for d in range(1, n + 1)]
    for i in range(1, N + 1):
        header += [f"xhat_{i}_{d}" for d in range(1, n + 1)]
        header += [f"err_{i}", f"relerr_{i}"]
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for k in range(trace.n_steps):
            mode = trace.mode_indices[k]
            row = [k, "" if mode is None else mode]
            row += [repr(float(v)) for v in trace.x[k]]
            for i in range(N):
                row += [repr(float(v)) for v in trace.xhat[i, k]]
                row += [repr(float(trace.err[i, k])),
                        repr(float(trace.rel_err[i, k]))]
            w.writerow(row)


@pytest.mark.parametrize("switched", [False, True])
def test_trace_csv_bytes_match_csv_writer(tmp_path, switched):
    p = Plant(np.array([[1.0, 0.0, 0.0], [2.0, 2.0, 0.0], [-5.0, 0.0, 2.0]]),
              (np.array([[4.0, 4.0, 1.0]]),
               np.array([[11.0, 13.0, 3.0], [16.0, 18.0, 4.0]]),
               np.zeros((1, 3))))
    g = Digraph(3, {(1, 2), (2, 1), (2, 3)})
    design = design_condition1(p, g)
    signal = None
    if switched:
        signal = make_assumption2_signal(dag_parent_map(design), g, 4, 30,
                                         0.5, 3)
    trace = simulate(p, design, [0.5, -0.5, 1.0], est0=[[1e-300, -2.0, 3e7]] * 3,
                     K=30, signal=signal)
    write_trace_csv(tmp_path / "fast.csv", trace)
    _csv_writer_trace(tmp_path / "reference.csv", trace)
    data = (tmp_path / "fast.csv").read_bytes()
    assert data == (tmp_path / "reference.csv").read_bytes()
    modes = [line.split(b",")[1] for line in data.split(b"\r\n")[1:-2]]
    assert all(modes) if switched else not any(modes)


def test_summary_json(tmp_path, capsys):
    out = tmp_path / "summary.json"
    rc = main(["simulate", bundled_scenario_path("sec8.json"),
               "--summary", str(out)])
    assert rc == 0
    capsys.readouterr()
    s = json.loads(out.read_text())
    assert s["format_version"] == 1
    assert s["scheme"] == "c1"
    assert s["steps"] == 81
    assert [m["node"] for m in s["nodes"]] == [1, 2, 3]
    for m in s["nodes"]:
        assert m["final_rel_error"] < 1e-8
        assert m["first_below"]["1e-6"] is not None


def test_switching_scenario_runs_and_converges(tmp_path, capsys):
    out = tmp_path / "summary.json"
    rc = main(["simulate", bundled_scenario_path("sec8_switching.json"),
               "--summary", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "switching over" in text
    s = json.loads(out.read_text())
    assert s["seed"] is not None
    for m in s["nodes"]:
        assert m["final_rel_error"] < 1e-6


def test_switching_scenario_hash_golden(tmp_path, capsys):
    out = tmp_path / "summary.json"
    assert main(["simulate", bundled_scenario_path("sec8_switching.json"),
                 "--summary", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["scenario_hash"] == (
        "158f025ba74c8a7ba6432ad3ebf766e12bace4f02244c85446c4b37a4d5f6fda")


def test_switching_seed_override(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    scenario = bundled_scenario_path("sec8_switching.json")
    assert main(["simulate", scenario, "--seed", "1",
                 "--summary", str(a)]) == 0
    assert main(["simulate", scenario, "--seed", "2",
                 "--summary", str(b)]) == 0
    capsys.readouterr()
    sa = json.loads(a.read_text())
    sb = json.loads(b.read_text())
    assert sa["seed"] == 1 and sb["seed"] == 2
    assert sa["scenario_hash"] != sb["scenario_hash"]


def test_illustrative_auto_resolves_c2(capsys):
    rc = main(["design", bundled_scenario_path("illustrative.json")])
    assert rc == 0
    text = capsys.readouterr().out
    assert "scheme: c2" in text
    assert "per-node observer dimensions: [1, 1, 1]" in text


def test_design_auto_computes_feasibility_once(monkeypatch, capsys):
    calls = []

    def counted(*args, _orig=nk.eigen_info, **kwargs):
        calls.append(args)
        return _orig(*args, **kwargs)
    monkeypatch.setattr(nk, "eigen_info", counted)
    # one feasibility report picks the scheme and feeds the design: Scheme 2
    # builds its Jordan basis on the report's eigenvalue classes, Scheme 1
    # reads the report's collective-detectability verdict
    for name, scheme in (("illustrative.json", "c2"), ("remark1.json", "c1")):
        calls.clear()
        assert main(["design", bundled_scenario_path(name)]) == 0
        assert f"scheme: {scheme}" in capsys.readouterr().out
        assert len(calls) == 1, name


@pytest.mark.parametrize("scheme", ["c2", "auto"])
def test_design_sec8_scheme2_synthesizes_own_gains(tmp_path, capsys, scheme):
    # sec8.json declares Scheme 1, so its options.gains are sub-state gains
    # that Scheme 2 must not read as node gains
    scenario = bundled_scenario_path("sec8.json")
    bank = tmp_path / "bank.json"
    rc = main(["design", scenario, "--scheme", scheme, "--out", str(bank)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "scheme: c2" in captured.out
    assert ("distobs WARNING: options.gains are c1 gains; designing c2 with "
            "synthesized gains instead") in captured.err
    design, loaded, p, g, tol = load_bank(str(bank))
    assert loaded == "c2"
    again = tmp_path / "again.json"
    save_bank(str(again), design, loaded, tol,
              load_scenario(scenario).options, None)
    assert again.read_bytes() == bank.read_bytes()


def _distobs_command():
    """Argv prefix that runs the ``distobs`` console script.

    The installed script when one is on PATH.  Otherwise the
    ``[project.scripts]`` target from pyproject.toml, run by this interpreter
    the way the generated script runs it, with the directory of the package
    these tests import first on its path, so a source checkout exercises
    the same entry point.
    """
    exe = shutil.which("distobs")
    if exe:
        return [exe]
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["distobs"]
    module, attr = target.split(":")
    src = str(Path(distobs.__file__).resolve().parents[1])
    return [sys.executable, "-c",
            f"import sys; sys.path.insert(0, {src!r}); "
            f"from {module} import {attr}; sys.exit({attr}())"]


def test_console_script_entry_point():
    proc = subprocess.run(
        _distobs_command() + ["check", bundled_scenario_path("remark1.json")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "collective detectability: PASS" in proc.stdout


CHECK_MODULES = {"cli", "conditions", "errors", "netgraph", "numkit"}


@pytest.mark.parametrize("argv, loaded", [
    (["check", "fig3.json"], CHECK_MODULES),
    (["design", "fig3.json", "--scheme", "c1"],
     CHECK_MODULES | {"decomp", "synth_c1"}),
    (["design", "illustrative.json", "--scheme", "c2"],
     CHECK_MODULES | {"decomp", "synth_c2"}),
    # a simulation loads the one synthesis module its design needs
    (["simulate", "fig3.json"],
     CHECK_MODULES | {"decomp", "simkit", "synth_c1"}),
])
def test_cold_subcommand_loads_only_the_modules_it_runs(argv, loaded):
    argv = [argv[0], bundled_scenario_path(argv[1]), *argv[2:]]
    assert loaded_after(
        "import contextlib, io\n"
        "from distobs.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = main({argv!r})\n"
        "if rc:\n"
        "    sys.exit(rc)") == loaded


def test_log_env_variable(tmp_path):
    cmd = _distobs_command() + [
        "check", bundled_scenario_path("remark1.json"),
        "--out", str(tmp_path / "report.json"),
    ]
    env = {k: v for k, v in os.environ.items() if k != "DISTOBS_LOG"}
    quiet = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                           env=env)
    loud = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          env={**env, "DISTOBS_LOG": "debug"})
    assert quiet.returncode == 0 and loud.returncode == 0
    assert "distobs INFO: report written to" in loud.stderr
    assert "distobs INFO: report written to" not in quiet.stderr


def test_log_env_variable_in_process(tmp_path, monkeypatch, capsys):
    out = tmp_path / "report.json"
    argv = ["check", bundled_scenario_path("remark1.json"), "--out", str(out)]
    monkeypatch.setenv("DISTOBS_LOG", "info")
    assert main(argv) == 0
    assert f"distobs INFO: report written to {out}" in capsys.readouterr().err
    monkeypatch.delenv("DISTOBS_LOG")
    assert main(argv) == 0
    assert "report written to" not in capsys.readouterr().err


# every error class of the toolkit maps to a documented exit code
EXIT_CODES = {
    "DistobsError": 4,
    "InvalidMatrix": 3,
    "ShapeError": 3,
    "NotObservable": 4,
    "NotDetectable": 2,
    "NumericalError": 4,
    "NotSpanning": 2,
    "InvalidTransform": 4,
    "IllConditionedJordan": 4,
    "Condition2Infeasible": 2,
    "InvalidSignal": 3,
    "ScenarioError": 3,
}
ERROR_CLASSES = sorted(
    (cls for cls in vars(errors).values()
     if isinstance(cls, type) and issubclass(cls, errors.DistobsError)),
    key=lambda cls: cls.__name__,
)


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_every_error_class_has_an_exit_code(monkeypatch, capsys, cls):
    def fail(path):
        raise cls("planted failure")
    monkeypatch.setattr(distobs.cli, "load_scenario", fail)
    assert main(["check", "scenario.json"]) == EXIT_CODES[cls.__name__]
    assert "planted failure" in capsys.readouterr().err


# near the rank cutoff: the rank test of [A - 1.5 I; C_1] in plant
# coordinates passes (smallest singular value 1.6e-9 of the largest), but
# node 1 observes one direction of the 2-dimensional class at 1.5 (the
# staircase on its class block); node 2 measures nothing
CUTOFF_A = [
    [1.5752447068572741, -0.09363612589792163, -0.07086389133109279],
    [0.10775167183888107, 0.7195526099258054, -0.49903236026487185],
    [0.5223673724789416, -0.8172507335872994, 0.9052026832169203],
]
CUTOFF_C1 = [[-0.3131047579224265, 0.7833137833087228, 0.5370148298184269]]


def test_scheme2_design_keeps_the_checked_roots(tmp_path, capsys):
    path = _write(tmp_path, "cutoff.json", {
        "format_version": 1,
        "plant": {"A": CUTOFF_A, "C": [CUTOFF_C1, []]},
        "graph": {"n_nodes": 2, "edges": [[1, 2], [2, 1]]},
    })
    # check and every design read one decision: the class is undetectable
    assert main(["check", path]) == 2
    out = capsys.readouterr().out
    assert "collective detectability: FAIL" in out
    assert "per-eigenvalue coverage: FAIL" in out
    for scheme in ("c1", "c2", "auto"):
        assert main(["design", path, "--scheme", scheme]) == 2
        assert capsys.readouterr().err.startswith("infeasible: ")


def test_simulate_refuses_what_design_refuses(tmp_path, capsys):
    # the cutoff plant is infeasible, so simulate stops where design does
    # instead of running a design
    path = _write(tmp_path, "cutoff.json", {
        "format_version": 1,
        "plant": {"A": CUTOFF_A, "C": [CUTOFF_C1, []]},
        "graph": {"n_nodes": 2, "edges": [[1, 2], [2, 1]]},
        "simulation": {"x0": [1.0, -1.0, 0.5], "K": 40},
    })
    out = tmp_path / "trace.csv"
    for scheme in ("c1", "c2", "auto"):
        assert main(["design", path, "--scheme", scheme]) == 2
        design = capsys.readouterr()
        assert main(["simulate", path, "--scheme", scheme,
                     "--out", str(out)]) == 2
        simulated = capsys.readouterr()
        assert simulated.err == design.err
        assert not out.exists()
    assert simulated.err.startswith("infeasible: neither design condition "
                                    "holds: source component {1, 2} cannot "
                                    "collectively detect eigenvalue")


def test_simulate_refuses_an_uncertified_design(tmp_path, monkeypatch,
                                                capsys):
    # a Scheme-1 design whose stability certificate fails is refused by
    # design and simulate alike, and neither writes anything
    certify = synth_c1.certify_stability
    monkeypatch.setattr(
        synth_c1, "certify_stability",
        lambda *a: dataclasses.replace(certify(*a), ok=False))
    path = _write(tmp_path, "s.json", _minimal_scenario())
    bank, out = tmp_path / "bank.json", tmp_path / "trace.csv"
    assert main(["design", path, "--scheme", "c1", "--out", str(bank)]) == 4
    design = capsys.readouterr()
    assert main(["simulate", path, "--scheme", "c1", "--out", str(out)]) == 4
    simulated = capsys.readouterr()
    assert simulated.err == design.err
    assert simulated.err.startswith("numerical failure: design assembled but "
                                    "the stability certificate failed")
    assert "error spectral radii" in simulated.out
    assert not bank.exists() and not out.exists()


@pytest.mark.parametrize("defective", [False, True])
def test_repeated_eigenvalue_next_to_a_near_neighbour(tmp_path, capsys,
                                                      defective):
    # a 4-fold eigenvalue 1.2 with a neighbour at 1.205; the defective
    # variant has a Jordan block, a far stable eigenvalue that sets the
    # scale of the class's factors, and a random basis
    A = np.diag([1.2] * 4 + [1.205] + [0.3] * defective)
    if defective:
        A[0, 1] = 0.5
        Q = np.linalg.qr(np.random.default_rng(0).normal(size=A.shape))[0]
        A = Q @ A @ Q.T
    n = len(A)
    path = _write(tmp_path, "near.json", {
        "format_version": 1,
        "plant": {"A": A.tolist(), "C": [np.eye(n).tolist(), []]},
        "graph": {"n_nodes": 2, "edges": [[1, 2], [2, 1]]},
        "simulation": {"x0": [1.0] * n, "K": 40},
    })
    assert main(["check", path]) == 0
    assert "ok (roots: 1.205 <- [1], 1.2 <- [1])" in capsys.readouterr().out
    for scheme in ("c1", "c2", "auto"):
        assert main(["simulate", path, "--scheme", scheme]) == 0
        assert "node 2: final normalized error" in capsys.readouterr().out


def test_explicit_switching_schedule_runs(tmp_path, capsys):
    payload = _minimal_scenario()
    schedule = [0, 1, 0, 1, 1]
    payload["simulation"]["switching"] = {
        "modes": [_BOTH_LINKS, [[1, 2]]], "schedule": schedule, "T": 2}
    out = tmp_path / "trace.csv"
    rc = main(["simulate", _write(tmp_path, "s.json", payload),
               "--out", str(out)])
    assert rc == 0
    assert "switching over 2 modes" in capsys.readouterr().out
    with open(out, newline="") as f:
        rows = list(csv.reader(f))
    # the last row is the state after the final step, with no mode
    assert [r[1] for r in rows[1:]] == [str(m) for m in schedule] + [""]


@pytest.mark.parametrize("switching,fragment", [
    ({"modes": [[[1, 2]], [[2, 1]]], "schedule": [0, 1, 0, 0, 0], "T": 1},
     "mode 1 contains edges [(2, 1)] absent from the baseline graph"),
    ({"modes": [[[1, 2]]], "schedule": [0] * 4, "T": 1},
     "schedule covers 4 steps, horizon is 5"),
    ({"modes": [[[1, 2]]], "schedule": [0, 0, 1, 0, 0], "T": 1},
     "mode index 1 out of range at step 2"),
], ids=["absent_edge", "short_schedule", "mode_out_of_range"])
def test_explicit_switching_rejects_bad_signal(tmp_path, capsys, switching,
                                               fragment):
    payload = _minimal_scenario()
    payload["graph"]["edges"] = [[1, 2]]
    payload["simulation"]["switching"] = switching
    assert main(["simulate", _write(tmp_path, "s.json", payload)]) == 3
    assert fragment in capsys.readouterr().err


def test_remark1_auto_falls_back_to_scheme1(capsys):
    assert main(["design", bundled_scenario_path("remark1.json")]) == 0
    assert "scheme: c1" in capsys.readouterr().out


def test_design_auto_without_any_condition_exits_2(tmp_path, capsys):
    payload = _minimal_scenario()
    payload["plant"]["C"] = [[[0.0]], [[0.0]]]
    assert main(["design", _write(tmp_path, "s.json", payload)]) == 2
    assert ("infeasible: neither design condition holds"
            in capsys.readouterr().err)


@pytest.mark.parametrize("policy,code", [("deadbeat", 0), ("pole-list", 3)])
def test_poles_policy_option(tmp_path, capsys, policy, code):
    payload = _minimal_scenario()
    payload["options"] = {"poles_policy": policy}
    assert main(["design", _write(tmp_path, "s.json", payload)]) == code
    err = capsys.readouterr().err
    assert ("unsupported poles policy" in err) == bool(code)


def test_check_reports_a_near_real_pair_once(tmp_path, capsys):
    # eigenvalues 1.5 +- 7.5e-8 i: one real class of dimension 2
    path = _write(tmp_path, "near_real.json", {
        "format_version": 1,
        "plant": {"A": [[1.5, 7.5e-8], [-7.5e-8, 1.5]], "C": [[[1.0, 0.0]],
                                                               [[0.0, 1.0]]]},
        "graph": {"n_nodes": 2, "edges": [[1, 2], [2, 1]]},
    })
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "eigenvalue classes needing coverage: ['1.5']\n" in out
    assert "component {1, 2}: ok (roots: 1.5 <- [1, 2])\n" in out


def test_check_prints_a_complex_pair_with_its_imaginary_part(tmp_path,
                                                             capsys):
    # eigenvalues 1.1 +- 0.5j, one unstable complex class
    path = _write(tmp_path, "pair.json", {
        "format_version": 1,
        "plant": {"A": [[1.1, -0.5], [0.5, 1.1]], "C": [[[1.0, 0.0]],
                                                       [[0.0, 1.0]]]},
        "graph": {"n_nodes": 2, "edges": [[1, 2], [2, 1]]},
    })
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "eigenvalue classes needing coverage: ['1.1+0.5j']\n" in out
    assert "component {1, 2}: ok (roots: 1.1+0.5j <- [1, 2])\n" in out


def test_scheme1_bank_keeps_only_gains_of_nonempty_substates(tmp_path,
                                                             capsys):
    # node 1 observes the whole state, so node 2's sub-state is empty
    scenario = _write(tmp_path, "s.json", _minimal_scenario())
    bank = tmp_path / "bank.json"
    assert main(["design", scenario, "--scheme", "c1", "--out",
                 str(bank)]) == 0
    assert set(json.loads(bank.read_text())["gains"]) == {"1"}
    design, scheme, _, _, _ = load_bank(str(bank))
    assert scheme == "c1"
    assert design.components[0].decomposition.o == (1, 0)
    direct, loaded = tmp_path / "direct.csv", tmp_path / "loaded.csv"
    assert main(["simulate", scenario, "--scheme", "c1", "--out",
                 str(direct)]) == 0
    assert main(["simulate", scenario, str(bank), "--out", str(loaded)]) == 0
    capsys.readouterr()
    assert direct.read_bytes() == loaded.read_bytes()
