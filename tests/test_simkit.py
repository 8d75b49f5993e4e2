import re
import tracemalloc
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from distobs import (
    Digraph,
    Plant,
    SwitchingSignal,
    convergence_metrics,
    dag_parent_map,
    design_condition1,
    design_condition2,
    make_assumption2_signal,
    simulate,
    validate_assumption2,
)
from distobs.errors import InvalidSignal, NumericalError, ShapeError
from distobs.simkit import _norm_steps
from conftest import (
    bundled_c1_design,
    random_orthogonal,
    random_strong_graph,
    relay_instance,
    relay_network,
    rotation_block,
    structured_plant,
)
from reference_sim import (
    reference_assumption2_signal,
    reference_simulate,
    reference_validate_assumption2,
)

WORKED_PLANT = Plant(
    np.array([[1.0, 0.0, 0.0], [2.0, 2.0, 0.0], [-5.0, 0.0, 2.0]]),
    (
        np.array([[4.0, 4.0, 1.0]]),
        np.array([[11.0, 13.0, 3.0], [16.0, 18.0, 4.0]]),
        np.zeros((1, 3)),
    ),
)
WORKED_GRAPH = Digraph(3, {(1, 2), (2, 1), (2, 3)})


def _design():
    return design_condition1(WORKED_PLANT, WORKED_GRAPH)


def test_simulate_validates_inputs():
    design = _design()
    with pytest.raises(ValueError):
        simulate(WORKED_PLANT, design, [0.5, -0.5, 1.0], K=0)
    for K in (3.0, True):
        with pytest.raises(ValueError, match=re.escape(
                f"horizon K must be an integer, got {K!r}")):
            simulate(WORKED_PLANT, design, [0.5, -0.5, 1.0], K=K)
    assert simulate(WORKED_PLANT, design, [0.5, -0.5, 1.0],
                    K=np.int64(2)).x.shape == (3, 3)
    with pytest.raises(ShapeError, match="^first argument must be a Plant$"):
        simulate(WORKED_PLANT.A, design, [0.5, -0.5, 1.0], K=5)
    with pytest.raises(ShapeError, match="^design must be a Condition1Design "
                       "or a C2ObserverBank, got dict$"):
        simulate(WORKED_PLANT, {}, [0.5, -0.5, 1.0], K=5)
    with pytest.raises(ShapeError):
        simulate(WORKED_PLANT, design, [0.5, -0.5], K=5)
    with pytest.raises(ShapeError):
        simulate(WORKED_PLANT, design, [0.5, -0.5, 1.0], K=5,
                 est0=[np.zeros(2)] * 3)
    for bad in ([np.zeros(3)] * 2, [np.zeros(3), np.zeros(3), np.zeros(2)],
                np.zeros(9), 0.0):
        with pytest.raises(ShapeError):
            simulate(WORKED_PLANT, design, [0.5, -0.5, 1.0], K=5, est0=bad)
    # one row per node, in any shape holding n entries each
    rows = np.arange(9.0).reshape(3, 3)
    ref = simulate(WORKED_PLANT, design, [0.5, -0.5, 1.0], K=5, est0=rows)
    for est0 in (rows.tolist(), rows[:, :, None], list(rows[:, None, :])):
        tr = simulate(WORKED_PLANT, design, [0.5, -0.5, 1.0], K=5, est0=est0)
        assert np.array_equal(tr.xhat, ref.xhat)
        assert tr.metadata["scenario_hash"] == ref.metadata["scenario_hash"]


def test_static_convergence_and_trace_shape():
    design = _design()
    tr = simulate(WORKED_PLANT, design, [0.5, -0.5, 1.0], K=50)
    assert tr.x.shape == (51, 3)
    assert tr.xhat.shape == (3, 51, 3)
    assert tr.rel_err.shape == (3, 51)
    assert tr.mode_indices == (None,) * 51
    assert np.all(tr.rel_err[:, -1] < 1e-8)
    assert tr.metadata["scheme"] == "c1"
    assert tr.metadata["seed"] is None


def test_simulation_deterministic():
    design = _design()
    a = simulate(WORKED_PLANT, design, [0.5, -0.5, 1.0], K=20)
    b = simulate(WORKED_PLANT, design, [0.5, -0.5, 1.0], K=20)
    assert np.array_equal(a.xhat, b.xhat)
    assert a.metadata["scenario_hash"] == b.metadata["scenario_hash"]


def test_form_equivalence_on_worked_example():
    design = _design()
    tr = simulate(WORKED_PLANT, design, [0.5, -0.5, 1.0], K=30)
    for form in ("compact", "blocks"):
        x, xhat = reference_simulate(WORKED_PLANT, design, [0.5, -0.5, 1.0],
                                     K=30, form=form)
        assert np.array_equal(tr.x, x)
        dev = np.linalg.norm(tr.xhat - xhat, axis=2) / (
            1.0 + np.linalg.norm(tr.x, axis=1))
        assert dev.max() < 1e-9


def test_switching_signal_validation():
    sig = SwitchingSignal(
        modes=(frozenset({(1, 2)}), frozenset()),
        schedule=(0, 1, 0), window_T=2)
    assert sig.edges_at(1) == frozenset()
    with pytest.raises(InvalidSignal):
        sig.edges_at(3)
    # an index outside the mode list is refused when the signal is built
    with pytest.raises(InvalidSignal,
                       match="mode index 1 out of range at step 1"):
        SwitchingSignal(modes=(frozenset(),), schedule=(0, 1), window_T=1)
    design = _design()
    # schedule shorter than the run is rejected at simulation time
    with pytest.raises(InvalidSignal):
        simulate(WORKED_PLANT, design, [0.5, -0.5, 1.0], K=5, signal=sig)
    # an edge outside the baseline graph is rejected
    alien = SwitchingSignal(
        modes=(frozenset({(1, 2)}), frozenset({(3, 2), (1, 2), (3, 1)})),
        schedule=(0,) * 5, window_T=1)
    with pytest.raises(InvalidSignal, match=r"^mode 1 contains edges "
                       r"\[\(3, 1\), \(3, 2\)\] absent from the baseline"):
        simulate(WORKED_PLANT, design, [0.5, -0.5, 1.0], K=5, signal=alien)
    # a fractional index is not truncated to a mode: the signal refuses it
    with pytest.raises(InvalidSignal, match="integer mode indices"):
        SwitchingSignal(modes=(frozenset(), frozenset()),
                        schedule=(0, 0.5, 1), window_T=1)


def test_assumption2_signal_roundtrip():
    design = _design()
    pm = dag_parent_map(design)
    sig = make_assumption2_signal(pm, WORKED_GRAPH, 4, 40, 0.5, 123)
    chk = validate_assumption2(sig, pm)
    assert bool(chk) and chk.violation is None
    # deterministic for a fixed seed
    sig2 = make_assumption2_signal(pm, WORKED_GRAPH, 4, 40, 0.5, 123)
    assert sig.schedule == sig2.schedule and sig.modes == sig2.modes
    # zero drop probability keeps the full graph in every mode
    full = make_assumption2_signal(pm, WORKED_GRAPH, 4, 12, 0.0, 5)
    assert all(full.edges_at(k) == WORKED_GRAPH.edges for k in range(12))
    with pytest.raises(ValueError):
        make_assumption2_signal(pm, WORKED_GRAPH, 4, 12, 1.0, 5)
    with pytest.raises(ValueError):
        make_assumption2_signal(pm, WORKED_GRAPH, 0, 12, 0.5, 5)


def test_dag_parent_map_leaves_out_routes_without_relay_nodes():
    # node 1 alone is the source component and sources the only nonempty
    # sub-state, whose route is node 1 alone; nodes 2 and 3 are relayed
    p = Plant(np.diag([1.2, 0.5]),
              (np.array([[1.0, 0.0]]), np.zeros((0, 2)), np.zeros((0, 2))))
    design = design_condition1(p, Digraph(3, {(1, 2), (2, 3)}))
    (comp,) = design.components
    assert comp.nodes == (1,) and list(comp.bank.weights) == [1]
    assert dag_parent_map(design) == {"relay": {2: (1,), 3: (2,)}}


def test_assumption2_violation_located():
    design = _design()
    pm = dag_parent_map(design)
    # every link dead forever: the very first window starves someone
    dead = SwitchingSignal(
        modes=(frozenset(),), schedule=(0,) * 8, window_T=4)
    chk = validate_assumption2(dead, pm)
    assert not chk
    window, node, label = chk.violation
    assert window == 0
    assert node in (1, 2, 3)
    assert label in pm and node in pm[label]
    # a trailing partial window is scanned too
    live = frozenset(WORKED_GRAPH.edges)
    tail_sig = SwitchingSignal(
        modes=(live, frozenset()),
        schedule=tuple([0] * 4 + [1] * 2), window_T=4)
    chk2 = validate_assumption2(tail_sig, pm)
    assert not chk2
    assert chk2.violation[0] == 1


@pytest.mark.parametrize("T", [0, -4])
def test_validate_assumption2_needs_a_positive_window(T):
    live = SwitchingSignal(modes=(frozenset(WORKED_GRAPH.edges),),
                           schedule=(0,) * 8, window_T=4)
    with pytest.raises(ValueError, match=f"^window must be at least 1, "
                       f"got {T}$"):
        validate_assumption2(live, dag_parent_map(_design()), T=T)


def test_switched_run_converges_with_repair():
    design = _design()
    pm = dag_parent_map(design)
    sig = make_assumption2_signal(pm, WORKED_GRAPH, 4, 120, 0.6, 42)
    tr = simulate(WORKED_PLANT, design, [0.5, -0.5, 1.0], K=120, signal=sig)
    assert np.all(tr.rel_err[:, -1] < 1e-8)
    assert tr.mode_indices[:-1] == sig.schedule[:120]
    assert tr.mode_indices[-1] is None


def test_relay_self_fallback_without_parents():
    # node 3's only feed (2, 3) is cut: it free-runs its own estimate and
    # the relative error stays bounded instead of resetting
    design = _design()
    pm = dag_parent_map(design)
    base = WORKED_GRAPH.edges
    cut = frozenset(base - {(2, 3)})
    sig = SwitchingSignal(modes=(frozenset(base), cut),
                          schedule=tuple([0] * 30 + [1] * 10), window_T=40)
    tr = simulate(WORKED_PLANT, design, [0.5, -0.5, 1.0], K=40, signal=sig)
    assert tr.rel_err[2, 30] < 1e-10
    assert np.all(tr.rel_err[2, 31:] < 1e-8)


def test_c2_simulation_exact_relay():
    p = Plant(np.array([[1.5]]),
              (np.array([[1.0]]), np.zeros((0, 1)), np.zeros((0, 1))))
    g = Digraph(3, {(1, 2), (1, 3), (2, 1)})
    bank = design_condition2(p, g)
    tr = simulate(p, bank, [1.0], K=10)
    x = tr.x
    assert np.all(np.abs(tr.xhat[0, 1:, :] - x[1:]) <= 1e-12 * np.abs(x[1:]))
    for i in (1, 2):
        assert np.all(
            np.abs(tr.xhat[i, 2:, :] - x[2:]) <= 1e-12 * np.abs(x[2:]))
    assert tr.metadata["scheme"] == "c2"


def test_c2_switched_self_fallback():
    p = Plant(np.array([[1.5]]),
              (np.array([[1.0]]), np.zeros((0, 1)), np.zeros((0, 1))))
    g = Digraph(3, {(1, 2), (1, 3), (2, 1)})
    bank = design_condition2(p, g)
    pm = dag_parent_map(bank)
    sig = make_assumption2_signal(pm, g, 3, 60, 0.5, 9)
    assert validate_assumption2(sig, pm)
    tr = simulate(p, bank, [1.0], K=60, signal=sig)
    assert np.all(tr.rel_err[:, -1] < 1e-10)


def test_convergence_metrics():
    design = _design()
    tr = simulate(WORKED_PLANT, design, [0.5, -0.5, 1.0], K=40)
    metrics = convergence_metrics(tr)
    assert [m.node for m in metrics] == [1, 2, 3]
    for m in metrics:
        assert m.final_rel_error < 1e-8
        assert m.monotone_tail
        k6 = m.first_step_below(1e-6)
        assert k6 is not None and k6 <= 40
        assert m.first_step_below(0.0) is None


def test_dag_parent_map_labels():
    design = _design()
    pm = dag_parent_map(design)
    assert "relay" in pm
    assert pm["relay"] == {3: (2,)}
    # sub-state labels carry component and sub-state indices with global ids
    sub_labels = [lb for lb in pm if lb != "relay"]
    assert sub_labels and all(lb.startswith("c") and "/s" in lb
                              for lb in sub_labels)
    for pmap in pm.values():
        for node, parents in pmap.items():
            assert node in (1, 2, 3)
            assert parents and all(v in (1, 2, 3) for v in parents)

    p = Plant(np.array([[1.5]]),
              (np.array([[1.0]]), np.zeros((0, 1)), np.zeros((0, 1))))
    g = Digraph(3, {(1, 2), (1, 3), (2, 1)})
    bank = design_condition2(p, g)
    pm2 = dag_parent_map(bank)
    assert pm2 == {"class0": {2: (1,), 3: (1,)}}


@pytest.mark.parametrize("seed", [3, 17])
def test_form_equivalence_random(seed):
    rng = np.random.default_rng(seed)
    while True:
        p, oracle = structured_plant(rng, unobs_radius=0.9)
        if p.n_nodes >= 2:
            break
    g = random_strong_graph(rng, p.n_nodes)
    design = design_condition1(p, g)
    x0 = rng.standard_normal(p.n)
    tr = simulate(p, design, x0, K=30)
    for form in ("compact", "blocks"):
        _, xhat = reference_simulate(p, design, x0, K=30, form=form)
        assert np.max(np.abs(tr.xhat - xhat)) < 1e-9


def _distance(xhat, other, x):
    return float((np.linalg.norm(xhat - other, axis=2)
                  / (1.0 + np.linalg.norm(x, axis=1))).max())


def _normalized_dev(tr, xhat):
    return _distance(tr.xhat, xhat, tr.x)


def test_switched_runs_match_reference_both_schemes():
    design = _design()
    x0 = [0.5, -0.5, 1.0]
    sig = make_assumption2_signal(dag_parent_map(design), WORKED_GRAPH,
                                  4, 40, 0.6, 42)
    tr = simulate(WORKED_PLANT, design, x0, K=40, signal=sig)
    x, xhat = reference_simulate(WORKED_PLANT, design, x0, K=40, signal=sig)
    assert np.array_equal(tr.x, x)
    assert _normalized_dev(tr, xhat) < 1e-9

    p = Plant(np.array([[1.5]]),
              (np.array([[1.0]]), np.zeros((0, 1)), np.zeros((0, 1))))
    g = Digraph(3, {(1, 2), (1, 3), (2, 1)})
    bank = design_condition2(p, g, max_parents=2)
    sig = make_assumption2_signal(dag_parent_map(bank), g, 3, 40, 0.5, 9)
    tr = simulate(p, bank, [1.0], est0=[[0.3], [-2.0], [4.0]], K=40,
                  signal=sig)
    _, xhat = reference_simulate(p, bank, [1.0],
                                 est0=[[0.3], [-2.0], [4.0]], K=40, signal=sig)
    assert _normalized_dev(tr, xhat) < 1e-9


def test_scheme2_defective_and_complex_classes_match_reference():
    # an unstable defective class (a 2x2 Jordan block at 1.2) and an
    # unstable complex pair under a random basis: node 1 detects the first,
    # node 2 the second, and node 3 measures nothing and relays both
    rng = np.random.default_rng(7)
    J0 = np.zeros((6, 6))
    J0[:2, :2] = [[1.2, 1.0], [0.0, 1.2]]
    J0[2:4, 2:4] = 1.1 * np.array([[np.cos(0.9), np.sin(0.9)],
                                   [-np.sin(0.9), np.cos(0.9)]])
    J0[4, 4], J0[5, 5] = 0.5, -0.3
    V = rng.standard_normal((6, 6))
    V_inv = np.linalg.inv(V)
    p = Plant(V @ J0 @ V_inv, (
        np.array([[1.0, 0.0, 0.0, 0.0, 0.3, 0.0]]) @ V_inv,
        np.array([[0.0, 0.0, 1.0, 0.0, 0.0, 0.2]]) @ V_inv,
        np.zeros((0, 6))))
    g = Digraph(3, {(1, 2), (2, 3), (3, 1)})
    bank = design_condition2(p, g)
    assert [c.dim for c in bank.jsys.classes] == [2, 2, 1, 1]
    assert [rec.split.undetectable for rec in bank.nodes] == [
        (1,), (0,), (0, 1)]
    x0 = rng.standard_normal(6)
    est0 = rng.standard_normal((3, 6))
    tr = simulate(p, bank, x0, est0=est0, K=40)
    _, xhat = reference_simulate(p, bank, x0, est0=est0, K=40)
    assert _normalized_dev(tr, xhat) < 1e-9
    assert (tr.rel_err[:, -1] < 1e-6).all()


@pytest.mark.parametrize("seed", [1, 5])
def test_large_network_matches_reference(seed):
    # 100-node strongly connected core plus 20 relay-only nodes, both
    # schemes, static and switched.  Seed 5 draws local Scheme-2 gains of
    # norm about 5e3, whose transients amplify rounding: it fails if the
    # kernel folds the gain into the dynamics instead of multiplying the
    # innovation.
    rng = np.random.default_rng(seed)
    core, _ = structured_plant(rng, n_nodes=100, unobs_radius=0.8)
    g = relay_network(rng, 100, 20, 25)
    p = Plant(core.A, core.C + (np.zeros((0, core.n)),) * 20)
    x0 = rng.standard_normal(p.n)
    est0 = rng.standard_normal((p.n_nodes, p.n))
    for design in (design_condition1(p, g, max_parents=2),
                   design_condition2(p, g, max_parents=2)):
        sig = make_assumption2_signal(dag_parent_map(design), g, 4, 30, 0.5,
                                      seed)
        for signal in (None, sig):
            tr = simulate(p, design, x0, est0=est0, K=30, signal=signal)
            _, xhat = reference_simulate(p, design, x0, est0=est0, K=30,
                                         signal=signal)
            assert _normalized_dev(tr, xhat) < 1e-9


def test_fractional_weights_match_reference():
    # node 3 averages two parents for each sensed sub-state
    g = Digraph(3, {(j, i) for j in (1, 2, 3) for i in (1, 2, 3)})
    weights = {1: {2: {1: 1.0}, 3: {1: 0.5, 2: 0.5}},
               2: {1: {2: 1.0}, 3: {1: 0.25, 2: 0.75}}}
    design = design_condition1(WORKED_PLANT, g, weights=weights)
    x0 = [0.5, -0.5, 1.0]
    tr = simulate(WORKED_PLANT, design, x0, K=30)
    for form in ("compact", "blocks"):
        _, xhat = reference_simulate(WORKED_PLANT, design, x0, K=30,
                                     form=form)
        assert _normalized_dev(tr, xhat) < 1e-9


def test_overflow_raises_numerical_error():
    p = Plant(np.array([[1.5]]),
              (np.array([[1.0]]), np.zeros((0, 1)), np.zeros((0, 1))))
    g = Digraph(3, {(1, 2), (1, 3), (2, 1)})
    bank = design_condition2(p, g)
    with pytest.raises(NumericalError, match=r"at step \d+ of 2000"):
        simulate(p, bank, [1.0], K=2000)


def test_overflow_step_under_switching():
    # the same first non-finite step as the static run: rows of dead links
    # carry weight 0 and must not turn an earlier step non-finite
    p = Plant(np.array([[1.5]]),
              (np.array([[1.0]]), np.zeros((0, 1)), np.zeros((0, 1))))
    g = Digraph(3, {(1, 2), (1, 3), (2, 1)})
    bank = design_condition2(p, g)
    sig = make_assumption2_signal(dag_parent_map(bank), g, 3, 2000, 0.5, 9)
    assert any(len(mode) < 3 for mode in sig.modes)
    with pytest.raises(NumericalError, match=r"at step 876 of 2000"):
        simulate(p, bank, [1.0], K=2000, signal=sig)


def _dense_norms(tr):
    """The error norms formed on the whole record at once."""
    d = tr.xhat - tr.x
    err = np.sqrt(np.einsum("nki,nki->nk", d, d))
    return err, err / (1.0 + np.linalg.norm(tr.x, axis=1))[None, :]


@lru_cache(maxsize=None)
def _norm_case():
    """A 400-node network, whose error norms take blocks of a few steps,
    and its designs under both schemes."""
    p, g = relay_instance(8, n_nodes=400, n_relay=40)
    return p, g, (design_condition1(p, g, max_parents=2),
                  design_condition2(p, g, max_parents=2))


@pytest.mark.parametrize("blocks, extra",
                         [(0, 1), (1, -1), (1, 0), (1, 1), (0, 100)])
def test_blockwise_error_norms_equal_the_dense_formula(blocks, extra):
    # the norms are formed a block of B steps at a time: horizons 1, B - 1,
    # B, B + 1 and 100, static and switched, under both schemes
    p, g, designs = _norm_case()
    B = _norm_steps(p.n_nodes, p.n)
    assert 2 <= B < 100
    K = blocks * B + extra
    rng = np.random.default_rng(8)
    x0 = rng.standard_normal(p.n)
    est0 = rng.standard_normal((p.n_nodes, p.n))
    for design in designs:
        sig = make_assumption2_signal(dag_parent_map(design), g, 3, K, 0.5, 8)
        for signal in (None, sig):
            tr = simulate(p, design, x0, est0=est0, K=K, signal=signal)
            err, rel = _dense_norms(tr)
            assert tr.err.shape == (p.n_nodes, K + 1)
            assert np.array_equal(tr.err, err)
            assert np.array_equal(tr.rel_err, rel)


def _peak_beyond_outputs(*args, **kwargs):
    """``(peak, outputs)``: the bytes a ``simulate`` call holds at most and
    the bytes of the trace arrays it returns."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tr = simulate(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak, sum(a.nbytes for a in (tr.x, tr.xhat, tr.err, tr.rel_err))


def test_simulate_holds_little_beyond_its_outputs():
    # a 400-node Scheme-1 run at K = 100: besides the trace (3.2 MB here)
    # only the compiled operator, one step's arrays and one block buffer
    # are alive, never a second trace-sized array
    p, g = relay_instance(2, n_nodes=400, n_relay=40)
    x0 = np.ones(p.n)
    peak, outputs = _peak_beyond_outputs(p, design_condition1(p, g), x0,
                                         K=100)
    assert outputs > 3e6
    assert peak <= outputs + 1e6
    # switched, the run weighs each mode when it reaches it: no table of
    # weights per mode and entry
    design = design_condition1(p, g, max_parents=2)
    sig = make_assumption2_signal(dag_parent_map(design), g, 4, 100, 0.5, 3)
    peak, outputs = _peak_beyond_outputs(p, design, x0, K=100, signal=sig)
    assert peak <= outputs + 2e6


def test_switched_third_weights_match_reference():
    # relay node 6 keeps three parents under both schemes, so a step with
    # all three links alive weighs each by 1/3, which is not exact in binary
    p = Plant(WORKED_PLANT.A, WORKED_PLANT.C + (np.zeros((0, 3)),) * 4)
    feeds = {(3, 6), (4, 6), (5, 6)}
    g = Digraph(7, {(1, 2), (2, 1), (2, 3), (1, 4), (2, 5), (3, 4), (4, 5),
                    (5, 3), (6, 7), (4, 7)} | feeds)
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal(3)
    est0 = rng.standard_normal((7, 3))
    for design in (design_condition1, design_condition2):
        bank = design(p, g, max_parents=3)
        pm = dag_parent_map(bank)
        assert any(sorted(pmap.get(6, ())) == [3, 4, 5] for pmap in pm.values())
        sig = make_assumption2_signal(pm, g, 4, 60, 0.3, 5)
        assert any(feeds <= sig.edges_at(k) for k in range(60))
        tr = simulate(p, bank, x0, est0=est0, K=60, signal=sig)
        _, xhat = reference_simulate(p, bank, x0, est0=est0, K=60,
                                     signal=sig)
        assert _normalized_dev(tr, xhat) < 1e-9


def test_scenario_hash_golden():
    # digests of the hashed bytes: plant, initial values, horizon, scheme
    # and, under switching, the window, schedule and sorted mode edge lists
    design = _design()
    x0 = [0.5, -0.5, 1.0]
    static = simulate(WORKED_PLANT, design, x0, K=20)
    assert static.metadata["scenario_hash"] == (
        "afcd5fb351950cccd78d5301d3950a6697d4a19023e6e518b1215af4807dd0a8")
    sig = make_assumption2_signal(dag_parent_map(design), WORKED_GRAPH,
                                  4, 40, 0.6, 42)
    switched = simulate(WORKED_PLANT, design, x0, K=40, signal=sig)
    assert switched.metadata["scenario_hash"] == (
        "ca95b8dffafc54d27ffbb5b6724219da9ad645222286f4c54019d3348cc2ba86")


def test_scenario_hash_ignores_node_id_type():
    # the same signal with numpy.int64 node ids runs bit-identically and so
    # must hash the same as with int ids
    design = _design()
    x0 = [0.5, -0.5, 1.0]
    modes = (frozenset(WORKED_GRAPH.edges), frozenset({(1, 2), (2, 1)}))
    wide = tuple(frozenset((np.int64(a), np.int64(b)) for a, b in m)
                 for m in modes)
    traces = [
        simulate(WORKED_PLANT, design, x0, K=6, signal=SwitchingSignal(
            modes=m, schedule=(0, 1, 1, 0, 1, 0), window_T=2))
        for m in (modes, wide)
    ]
    assert np.array_equal(traces[0].xhat, traces[1].xhat)
    assert (traces[0].metadata["scenario_hash"]
            == traces[1].metadata["scenario_hash"])


@lru_cache(maxsize=None)
def _relay_parent_maps():
    """A 12-node core plus 6 relay nodes, and the routed parent sets of both
    schemes' designs with two parents per node."""
    rng = np.random.default_rng(1)
    core, _ = structured_plant(rng, n_nodes=12, unobs_radius=0.8)
    g = relay_network(rng, 12, 6, 4)
    p = Plant(core.A, core.C + (np.zeros((0, core.n)),) * 6)
    return g, tuple(dag_parent_map(design(p, g, max_parents=2))
                    for design in (design_condition1, design_condition2))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), T=st.integers(1, 6),
       K=st.integers(0, 40), drop=st.floats(0.0, 0.95),
       scheme=st.sampled_from([0, 1]), window=st.integers(1, 8))
def test_signal_matches_loop_reference(seed, T, K, drop, scheme, window):
    g, maps = _relay_parent_maps()
    pm = maps[scheme]
    sig = make_assumption2_signal(pm, g, T, K, drop, seed)
    ref = reference_assumption2_signal(pm, g, T, K, drop, seed)
    assert sig.modes == ref.modes and sig.schedule == ref.schedule
    # an unrepaired draw and a mismatched window both starve parent sets
    raw = reference_assumption2_signal({}, g, T, K, drop, seed)
    for s in (sig, raw):
        for w in (None, window):
            assert (validate_assumption2(s, pm, w).violation
                    == reference_validate_assumption2(s, pm, w))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), T=st.integers(1, 6),
       K=st.integers(0, 40), drop=st.floats(0.0, 0.95),
       scheme=st.sampled_from([0, 1]))
def test_generated_edge_table_equals_the_rebuilt_one(seed, T, K, drop,
                                                     scheme):
    # a generated signal carries the (mode, edge) table of the rows it drew;
    # it must be the table a reader rebuilds from the modes
    g, maps = _relay_parent_maps()
    sig = make_assumption2_signal(maps[scheme], g, T, K, drop, seed)
    assert "_edge_table" in vars(sig)
    edges, live = sig._edge_table
    ref_edges, ref_live = SwitchingSignal(sig.modes, sig.schedule,
                                          sig.window_T)._edge_table
    assert edges == ref_edges
    assert live.dtype == ref_live.dtype and np.array_equal(live, ref_live)
    assert not live.flags.writeable


def test_signal_repair_serves_later_parent_sets():
    # every draw drops both links.  Pair "a" restores (1, 3) at the last
    # step of each window, which keeps pair "b" alive too, so (2, 3) is
    # never restored.
    g = Digraph(3, {(1, 3), (2, 3)})
    pm = {"a": {3: (1,)}, "b": {3: (2, 1)}}
    sig = make_assumption2_signal(pm, g, 3, 6, 0.999999, 0)
    ref = reference_assumption2_signal(pm, g, 3, 6, 0.999999, 0)
    assert sig.modes == ref.modes and sig.schedule == ref.schedule
    restored = frozenset({(1, 3)})
    assert [sig.edges_at(k) for k in range(6)] == [
        frozenset(), frozenset(), restored] * 2
    assert validate_assumption2(sig, pm)


def test_signal_with_bad_mode_is_refused_when_built():
    # a bad index is refused before any window can be validated, whether
    # the windows before it starve a parent set or feed it
    g = Digraph(2, {(1, 2)})
    with pytest.raises(InvalidSignal,
                       match="mode index 5 out of range at step 2"):
        SwitchingSignal(modes=(frozenset(),), schedule=(0, 0, 5), window_T=2)
    with pytest.raises(InvalidSignal,
                       match="mode index 5 out of range at step 3"):
        SwitchingSignal(modes=(frozenset(g.edges), frozenset()),
                        schedule=(0, 0, 1, 5), window_T=2)


def _two_class_relay_plant():
    """Node 1 measures the whole state of a plant with two unstable
    classes; nodes 2 to 5 measure nothing, so each relays both classes."""
    rng = np.random.default_rng(4)
    Q = random_orthogonal(rng, 4)
    Abar = np.zeros((4, 4))
    Abar[:2, :2] = rotation_block(rng, 2, 1.1, 1.2)
    Abar[2:, 2:] = rotation_block(rng, 2, 1.3, 1.4)
    C = (np.eye(4),) + (np.zeros((0, 4)),) * 4
    g = Digraph(5, {(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 3), (2, 4)})
    return Plant(Q @ Abar @ Q.T, C), g


def test_shared_links_compile_to_one_block():
    # some links carry two class routes; a run over them, static and
    # switched, matches the per-node reference
    p, g = _two_class_relay_plant()
    bank = design_condition2(p, g, max_parents=2)
    classes_per_link = Counter(
        (l, i) for cw in bank.class_weights.values()
        for i, row in cw.weights.items() for l in row
    )
    assert max(classes_per_link.values()) >= 2

    rng = np.random.default_rng(7)
    x0 = rng.standard_normal(p.n)
    est0 = rng.standard_normal((p.n_nodes, p.n))
    sig = make_assumption2_signal(dag_parent_map(bank), g, 3, 40, 0.5, 11)
    for signal in (None, sig):
        tr = simulate(p, bank, x0, est0=est0, K=40, signal=signal)
        _, xhat = reference_simulate(p, bank, x0, est0=est0, K=40,
                                     signal=signal)
        assert _normalized_dev(tr, xhat) < 1e-9


def _disjoint_components():
    """Four disjoint copies of a 5-node core, so four source components,
    plus two relay nodes fed from different copies.  Copy ``c`` shifts the
    core's sensors by ``c`` nodes, so each decomposes differently."""
    rng = np.random.default_rng(13)
    core, _ = structured_plant(rng, n_nodes=5, unobs_radius=0.8)
    g = random_strong_graph(rng, 5)
    edges = {(j + 5 * c, i + 5 * c) for c in range(4) for j, i in g.edges}
    edges |= {(1, 21), (7, 21), (13, 22), (21, 22), (19, 22)}
    C = tuple(core.C[(k + c) % 5] for c in range(4) for k in range(5))
    return Plant(core.A, C + (np.zeros((0, core.n)),) * 2), Digraph(22, edges)


def test_disjoint_components_match_reference():
    p, g = _disjoint_components()
    rng = np.random.default_rng(9)
    x0 = rng.standard_normal(p.n)
    est0 = rng.standard_normal((p.n_nodes, p.n))
    design = design_condition1(p, g, max_parents=2)
    assert len(design.components) == 4 and design.relay is not None
    sig = make_assumption2_signal(dag_parent_map(design), g, 4, 40, 0.5, 9)
    for signal in (None, sig):
        tr = simulate(p, design, x0, est0=est0, K=40, signal=signal)
        for form in ("compact", "blocks") if signal is None else ("blocks",):
            x, xhat = reference_simulate(p, design, x0, est0=est0, K=40,
                                         signal=signal, form=form)
            assert np.array_equal(tr.x, x)
            assert _normalized_dev(tr, xhat) < 1e-9


def _unbiased_cases():
    cases = [bundled_c1_design("sec8.json")]
    p, g = _disjoint_components()
    cases.append((p, design_condition1(p, g, max_parents=2)))
    # the third core has 4 nodes and an unobservable tail
    for seed, n_relay, mp in ((31, 20, 1), (32, 20, 2), (33, 116, 1)):
        p, g = relay_instance(seed, n_relay=n_relay)
        cases.append((p, design_condition1(p, g, max_parents=mp)))
    assert cases[-1][1].components[0].decomposition.u_dim
    return cases


def test_compiled_c1_operator_is_unbiased():
    # with every estimate equal to the true state, one step reproduces the
    # plant map at every node: started from each unit vector, the
    # innovations are exactly zero and the step gives a column of A
    for p, design in _unbiased_cases():
        bound = 1e-12 * np.linalg.norm(p.A)
        for x0 in np.eye(p.n):
            tr = simulate(p, design, x0, est0=np.tile(x0, (p.n_nodes, 1)),
                          K=1)
            dev = np.abs(tr.xhat[:, 1] - tr.x[1]).max(axis=1)
            assert dev.max() <= bound, int(np.argmax(dev)) + 1


def _scheme2_cases():
    p, g = _two_class_relay_plant()
    cases = [(p, design_condition2(p, g, max_parents=2))]
    for seed, n_relay in ((31, 20), (33, 116)):
        p, g = relay_instance(seed, n_relay=n_relay)
        cases.append((p, design_condition2(p, g)))
    return cases


def test_operator_gap_is_reported_and_small():
    # each frame's compiled dynamics T (D + A1) T⁻¹ reproduce A: to rounding
    # in a decomposition basis, to rounding times cond(T) in the class basis
    for p, design in _unbiased_cases():
        tr = simulate(p, design, np.ones(p.n), K=1)
        assert 0.0 <= tr.metadata["operator_gap"] <= 1e-12
    for p, bank in _scheme2_cases():
        tr = simulate(p, bank, np.ones(p.n), K=1)
        assert 0.0 <= tr.metadata["operator_gap"] <= 1e-12 * bank.jsys.cond_T


def test_generated_static_trace_matches_compact_reference():
    p, g = relay_instance(31)
    design = design_condition1(p, g)
    rng = np.random.default_rng(31)
    x0 = rng.standard_normal(p.n)
    est0 = rng.standard_normal((p.n_nodes, p.n))
    tr = simulate(p, design, x0, est0=est0, K=30)
    x, xhat = reference_simulate(p, design, x0, est0=est0, K=30,
                                 form="compact")
    assert np.array_equal(tr.x, x)
    assert _normalized_dev(tr, xhat) < 1e-9


def _scaled_network(rng, n_comp, max_parents):
    """``(plant, graph)``: ``n_comp`` disjoint copies of a random core of 2
    to 8 nodes (up to 12 states), copy ``c`` shifting the core's sensors by
    ``c`` nodes, then relay nodes that measure nothing, each fed from one
    or two earlier nodes; at most 40 nodes in all."""
    m = int(rng.integers(2, 9))
    core, _ = structured_plant(rng, n_nodes=m, max_state=12,
                               unobs_radius=0.8)
    g = random_strong_graph(rng, m)
    edges = {(j + m * c, i + m * c) for c in range(n_comp) for j, i in g.edges}
    n_core = m * n_comp
    n_relay = int(rng.integers(0, min(12, 40 - n_core) + 1))
    for v in range(n_core + 1, n_core + n_relay + 1):
        for u in rng.choice(np.arange(1, v), min(max_parents, v - 1),
                            replace=False):
            edges.add((int(u), v))
    C = tuple(core.C[(k + c) % m] for c in range(n_comp) for k in range(m))
    return (Plant(core.A, C + (np.zeros((0, core.n)),) * n_relay),
            Digraph(n_core + n_relay, edges))


def _fractional_weights(rng, design):
    """Scheme-1 weight overrides that split each two-parent row of every
    sub-state route at random, keyed as ``design_condition1`` takes them."""
    out = {}
    for comp in design.components:
        d, ids = comp.decomposition, comp.nodes
        for j, route in comp.bank.weights.items():
            rows = {}
            for i, ps in route.parent_sets.items():
                a = rng.uniform(0.1, 0.9) if len(ps) > 1 else 1.0
                rows[ids[i - 1]] = {ids[ps[0] - 1]: a}
                if len(ps) > 1:
                    rows[ids[i - 1]][ids[ps[1] - 1]] = 1.0 - a
            out[ids[d.source_node(j) - 1]] = rows
    return out


# simulate's distance to a long-double run of the reference recursion may be
# at most ROUNDING_FACTOR times the float64 reference's own distance, plus
# ROUNDING_FLOOR.  Over 3,000 draws of this test's domain the ratio reached
# 5.9 where the reference's distance exceeds 1e-13, and the floor needed
# beside a factor of 10 was 1.1e-13.
ROUNDING_FACTOR = 10.0
ROUNDING_FLOOR = 1e-12


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than float64 here")
@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_comp=st.integers(1, 4),
       max_parents=st.integers(1, 2), scheme=st.sampled_from(["c1", "c2"]),
       switched=st.booleans(), user_weights=st.booleans())
# a transient of 2.1e3 and a local gain norm of 980 put both float64 runs
# about 1e-9 from the long-double one (simulate 1.8e-9, the reference 6.6e-10)
@example(seed=47976, n_comp=2, max_parents=1, scheme="c2", switched=False,
         user_weights=False)
def test_simulate_matches_reference_at_scale(seed, n_comp, max_parents,
                                             scheme, switched, user_weights):
    # networks of up to 40 nodes and 12 states with up to four source
    # components and relay nodes, both schemes, static and switched
    rng = np.random.default_rng(seed)
    p, g = _scaled_network(rng, n_comp, max_parents)
    if scheme == "c1":
        design = design_condition1(p, g, max_parents=max_parents)
        assert len(design.components) == n_comp
        if user_weights:
            design = design_condition1(
                p, g, max_parents=max_parents,
                weights=_fractional_weights(rng, design))
    else:
        design = design_condition2(p, g, max_parents=max_parents)
    x0 = rng.standard_normal(p.n)
    est0 = rng.standard_normal((p.n_nodes, p.n))
    signal = None
    if switched:
        signal = make_assumption2_signal(dag_parent_map(design), g, 3, 30,
                                         0.5, seed)
    tr = simulate(p, design, x0, est0=est0, K=30, signal=signal)
    runs = [reference_simulate(p, design, x0, est0=est0, K=30, signal=signal,
                               form="blocks", dtype=dtype)
            for dtype in (float, np.longdouble)]
    (x, xhat), (_, exact) = runs
    assert np.array_equal(tr.x, x)
    # rounding grows with the transient and the gains, so simulate is graded
    # against the float64 reference's own distance to the long-double run
    own = _distance(xhat, exact, tr.x)
    assert _normalized_dev(tr, exact) <= ROUNDING_FACTOR * own + ROUNDING_FLOOR
