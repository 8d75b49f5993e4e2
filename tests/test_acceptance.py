"""End-to-end acceptance suite.

Each test pins one externally visible guarantee of the toolkit: golden
verdicts and matrices on the bundled scenarios, randomized structural and
convergence properties, switching robustness, and equivalence of the
compiled simulation with the per-node reference recursion.  Tolerances and runtime budgets are part of the contract.
"""

import time

import numpy as np

from distobs import (
    SwitchingSignal,
    apply_given_transformation,
    check_condition1,
    check_condition2,
    dag_parent_map,
    design_condition1,
    design_condition2,
    make_assumption2_signal,
    multisensor_decompose,
    simulate,
    validate_assumption2,
)
from distobs.cli import bundled_scenario_path, load_scenario
from conftest import krylov_observable, random_strong_graph, structured_plant
from reference_sim import reference_simulate

# Reference matrices for the bundled three-state worked example
# (values carry two to four decimals).
TRANSFORM_REF = np.array([
    [4.0, 7.0, 0.0],
    [4.0, 8.0, -0.2425],
    [1.0, 2.0, 0.9701],
])
ABAR_REF = np.array([
    [-10.9412, -22.6471, 0.0],
    [6.8235, 13.9412, 0.0],
    [-21.3431, -37.3505, 2.0],
])
C1BAR_REF = np.array([[33.0, 62.0, 0.0]])
C2BAR_REF = np.array([
    [99.0, 187.0, -0.2425],
    [140.0, 264.0, -0.4851],
])
N_REF = np.array([
    [0.0, 0.0, 0.0],
    [1.29, 0.0, 0.0],
    [-5.18, 0.0, 0.0],
])
TH1_REF = np.array([[-0.94], [1.58], [0.39]])
TH2_REF = np.array([
    [0.0, 0.0],
    [0.40, 0.80],
    [-1.59, -3.18],
])
G11_REF = np.array([
    [1.0, 0.0, 0.0],
    [0.71, 1.88, 0.47],
    [0.18, 0.47, 0.12],
])
G12_REF = np.array([
    [0.0, 0.0, 0.0],
    [0.0, 0.12, -0.47],
    [0.0, -0.47, 1.88],
])


def _worked_scenario():
    return load_scenario(bundled_scenario_path("sec8.json"))


def _worked_design(scn, max_parents=1):
    o = scn.options
    return design_condition1(
        scn.plant, scn.graph,
        max_parents=max_parents,
        gains=o["gains"],
        transform=o["transform"],
        transform_o=o["transform_o"],
        structure_tol=o["structure_tol"],
        weights=o["weights"],
    )


def test_remark1_scenario_verdicts():
    scn = load_scenario(bundled_scenario_path("remark1.json"))
    t0 = time.perf_counter()
    v1 = check_condition1(scn.plant, scn.graph)
    v2 = check_condition2(scn.plant, scn.graph)
    elapsed = time.perf_counter() - t0
    assert v1.ok is True
    assert v2.ok is False
    bad = [c for c in v2.components if not c.ok]
    assert len(bad) == 1
    assert set(bad[0].component) == {1, 2}
    assert len(bad[0].failing) == 1
    assert abs(complex(bad[0].failing[0]) - 2.0) < 1e-9
    assert elapsed < 1.0


def test_worked_example_transform_golden():
    scn = _worked_scenario()
    t0 = time.perf_counter()
    Abar, Cbars = apply_given_transformation(scn.plant, TRANSFORM_REF)
    elapsed = time.perf_counter() - t0
    assert np.max(np.abs(Abar - ABAR_REF)) < 1e-2
    assert np.max(np.abs(Cbars[0] - C1BAR_REF)) < 1e-2
    assert np.max(np.abs(Cbars[1] - C2BAR_REF)) < 1e-2
    assert elapsed < 1.0


def test_worked_example_bank_golden():
    scn = _worked_scenario()
    design = _worked_design(scn)
    bank = design.components[0].bank
    assert np.max(np.abs(bank.N_mat - N_REF)) < 1e-2
    assert np.max(np.abs(bank.TH[0] - TH1_REF)) < 1e-2
    assert np.max(np.abs(bank.TH[1] - TH2_REF)) < 1e-2
    assert np.max(np.abs(bank.G[0][1] - G11_REF)) < 1e-2
    assert np.max(np.abs(bank.G[0][2] - G12_REF)) < 1e-2


def test_worked_example_convergence():
    scn = _worked_scenario()
    t0 = time.perf_counter()
    design = _worked_design(scn)
    tr = simulate(
        scn.plant, design, [0.5, -0.5, 1.0],
        est0=[np.zeros(3)] * 3, K=80,
    )
    elapsed = time.perf_counter() - t0
    for i in range(3):
        r = tr.rel_err[i]
        assert r[50] < 1e-6
        hits = np.nonzero(r < 1e-6)[0]
        k6 = int(hits[0])
        assert k6 <= 50
        assert np.all(r[k6:81] < 1e-5)
    assert elapsed < 1.0


def test_fig3_scenario_structure():
    scn = load_scenario(bundled_scenario_path("fig3.json"))
    d = multisensor_decompose(scn.plant, order=(1, 2, 3))
    assert d.o == (1, 1, 1)
    assert d.u_dim == 1
    for j, lam in zip((1, 2, 3), (1.0, 2.0, 3.0)):
        blk = d.A_sub(j)
        assert blk.shape == (1, 1)
        assert abs(blk[0, 0] - lam) < 1e-6
    assert d.A_unobs.shape == (1, 1)
    assert abs(d.A_unobs[0, 0]) < 1e-6


def test_decomposition_properties_random():
    rng = np.random.default_rng(20260777)
    t0 = time.perf_counter()
    for _ in range(200):
        radius = float(rng.choice([0.5, 0.9, 1.3]))
        p, oracle = structured_plant(rng, unobs_radius=radius)
        d = multisensor_decompose(p)
        back = d.T @ d.Abar @ np.linalg.inv(d.T)
        assert np.linalg.norm(back - p.A) <= 1e-7 * np.linalg.norm(p.A)
        assert sum(d.o) + d.u_dim == p.n
        assert tuple(d.o) == oracle["dims"]
        assert d.u_dim == oracle["u_dim"]
        for j in range(1, len(d.o) + 1):
            if d.o[j - 1]:
                src = d.source_node(j)
                assert krylov_observable(d.A_sub(j), d.C_block(src, j))
        got = sorted(
            (complex(v) for v in np.linalg.eigvals(d.A_unobs)),
            key=lambda z: (z.real, z.imag),
        )
        ref = oracle["unobs_spectrum"]
        assert len(got) == len(ref)
        assert all(abs(a - b) < 1e-6 for a, b in zip(got, ref))
        perm = tuple(
            int(v) for v in rng.permutation(np.arange(1, p.n_nodes + 1))
        )
        d2 = multisensor_decompose(p, order=perm)
        assert sum(d2.o) == sum(d.o)
        assert d2.u_dim == d.u_dim
    assert time.perf_counter() - t0 < 30.0


def test_certified_convergence_random():
    rng = np.random.default_rng(20260424)
    t0 = time.perf_counter()
    for _ in range(100):
        p, _ = structured_plant(rng, unobs_radius=0.04)
        g = random_strong_graph(rng, p.n_nodes)
        design = design_condition1(p, g)
        for comp in design.components:
            for cert in comp.stability.certificates:
                assert cert.rho < 1e-6
        K = 8 * p.n
        tr = simulate(p, design, rng.standard_normal(p.n), K=K)
        assert np.all(tr.rel_err[:, K] < 1e-8)
    assert time.perf_counter() - t0 < 60.0


def test_illustrative_scenario_exact_relay():
    scn = load_scenario(bundled_scenario_path("illustrative.json"))
    bank = design_condition2(scn.plant, scn.graph)
    assert bank.observer_dims() == (1, 1, 1)
    tr = simulate(
        scn.plant, bank, scn.simulation["x0"], K=scn.simulation["K"],
    )
    x = tr.x
    assert np.max(np.abs(tr.xhat[0, 1:] - x[1:])) <= 1e-12
    assert np.max(np.abs(tr.xhat[1, 2:] - x[2:])) <= 1e-12
    assert np.max(np.abs(tr.xhat[2, 2:] - x[2:])) <= 1e-12


def test_switching_robustness():
    scn = load_scenario(bundled_scenario_path("sec8_switching.json"))
    sw = scn.simulation["switching"]
    assert sw["kind"] == "generated"
    t0 = time.perf_counter()
    design = _worked_design(scn, max_parents=scn.options["max_parents"])
    pm = dag_parent_map(design)
    sig = make_assumption2_signal(
        pm, scn.graph, sw["T"], scn.simulation["K"], sw["drop_prob"],
        sw["seed"],
    )
    chk = validate_assumption2(sig, pm)
    assert bool(chk) is True and chk.violation is None
    tr = simulate(
        scn.plant, design, scn.simulation["x0"],
        K=scn.simulation["K"], signal=sig,
    )
    elapsed = time.perf_counter() - t0
    assert np.all(tr.rel_err[:, 150] < 1e-6)
    # a signal that silences every link is flagged, with the starved
    # window/node/parent-set located
    dead = SwitchingSignal(
        modes=(frozenset(),), schedule=(0,) * 16, window_T=sw["T"],
    )
    bad = validate_assumption2(dead, pm)
    assert bool(bad) is False
    window, node, label = bad.violation
    assert window == 0
    assert label in pm and node in pm[label]
    assert elapsed < 5.0


def test_compact_and_blocks_forms_agree():
    rng = np.random.default_rng(20264242)
    for _ in range(50):
        p, _ = structured_plant(rng, unobs_radius=0.8)
        g = random_strong_graph(rng, p.n_nodes)
        design = design_condition1(p, g)
        x0 = rng.standard_normal(p.n)
        tr = simulate(p, design, x0, K=30)
        for form in ("compact", "blocks"):
            _, xhat = reference_simulate(p, design, x0, K=30, form=form)
            assert np.max(np.abs(tr.xhat - xhat)) < 1e-9
