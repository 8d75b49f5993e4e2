"""Command-line front end: feasibility checks, synthesis, and simulation.

Scenarios and serialized observer banks are JSON (nested row-major arrays,
exact float round-trip via shortest-repr encoding); traces are CSV.  Every
file carries a ``format_version`` field.  Exit codes: 0 success, 2 the
requested design is infeasible on this network, 3 schema or input error,
4 numerical failure.
"""

import argparse
import dataclasses
import json
import logging
import os
import sys

import numpy as np

from . import numkit as nk
from .conditions import feasibility_report
from .decomp import Plant
from .errors import (
    Condition2Infeasible,
    DistobsError,
    IllConditionedJordan,
    InvalidMatrix,
    InvalidSignal,
    InvalidTransform,
    NotDetectable,
    NotObservable,
    NotSpanning,
    NumericalError,
    ScenarioError,
    ShapeError,
)
from .netgraph import Digraph
from .simkit import (
    SwitchingSignal,
    convergence_metrics,
    dag_parent_map,
    make_assumption2_signal,
    simulate,
    validate_assumption2,
)
from .synth_c1 import Condition1Design, design_condition1
from .synth_c2 import _design_condition2, design_condition2

__all__ = [
    "Scenario",
    "load_scenario",
    "save_bank",
    "load_bank",
    "write_trace_csv",
    "write_summary",
    "bundled_scenario_path",
    "main",
]

SCENARIO_FORMAT = 1
BANK_FORMAT = 1
SUMMARY_FORMAT = 1

log = logging.getLogger("distobs")

_SCHEMES = ("c1", "c2", "auto")


# ---------------------------------------------------------------------------
# scenario loading


@dataclasses.dataclass(frozen=True, eq=False)
class Scenario:
    """A fully validated scenario file.

    ``options`` and ``simulation`` are normalized dictionaries: node keys
    are ints, matrices are float arrays, and missing sections are ``None``
    or empty.
    """

    plant: Plant
    graph: Digraph
    options: dict
    simulation: dict
    path: str = "<memory>"


def _schema(cond, msg):
    if not cond:
        raise ScenarioError(msg)


def _is_int(v):
    """A JSON integer; ``true`` and ``false`` are not integers here."""
    return isinstance(v, int) and not isinstance(v, bool)


def _check_keys(d, where, allowed, required=()):
    _schema(isinstance(d, dict), f"{where} must be an object")
    unknown = set(d) - set(allowed)
    _schema(not unknown, f"{where}: unknown key(s) {sorted(unknown)}")
    missing = set(required) - set(d)
    _schema(not missing, f"{where}: missing key(s) {sorted(missing)}")


def _num_matrix(obj, where, cols=None):
    _schema(isinstance(obj, list), f"{where} must be a nested array")
    if not obj:
        _schema(cols is not None, f"{where}: empty matrix needs a known width")
        return np.zeros((0, cols))
    _schema(
        all(isinstance(row, list) for row in obj),
        f"{where} must be a list of rows",
    )
    widths = {len(row) for row in obj}
    _schema(len(widths) == 1, f"{where}: ragged rows")
    for row in obj:
        for v in row:
            _schema(
                isinstance(v, (int, float)) and not isinstance(v, bool),
                f"{where}: non-numeric entry {v!r}",
            )
    M = np.array(obj, dtype=float)
    _schema(
        cols is None or M.shape[1] == cols,
        f"{where}: expected {cols} columns, got {M.shape[1]}",
    )
    return M


def _num_vector(obj, where, length):
    _schema(
        isinstance(obj, list) and all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in obj
        ),
        f"{where} must be a numeric array",
    )
    v = np.array(obj, dtype=float)
    _schema(
        v.shape == (length,), f"{where}: expected {length} entries, got {v.size}"
    )
    return v


def _int_keyed(obj, where):
    _schema(isinstance(obj, dict), f"{where} must be an object")
    out = {}
    for k, v in obj.items():
        _schema(
            isinstance(k, str) and k.lstrip("-").isdigit(),
            f"{where}: key {k!r} is not a node id",
        )
        out[int(k)] = v
    return out


def _parse_plant(obj):
    _check_keys(obj, "plant", allowed=("A", "C"), required=("A", "C"))
    A = _num_matrix(obj["A"], "plant.A")
    _schema(A.shape[0] == A.shape[1], "plant.A must be square")
    n = A.shape[0]
    _schema(isinstance(obj["C"], list) and obj["C"], "plant.C must be a nonempty list")
    C = tuple(
        _num_matrix(ci, f"plant.C[{i}]", cols=n)
        for i, ci in enumerate(obj["C"], 1)
    )
    try:
        return Plant(A, C)
    except (InvalidMatrix, ShapeError) as exc:
        raise ScenarioError(f"plant: {exc}") from None


def _parse_graph(obj, n_nodes):
    _check_keys(
        obj, "graph", allowed=("n_nodes", "edges"),
        required=("n_nodes", "edges"),
    )
    _schema(
        _is_int(obj["n_nodes"]) and obj["n_nodes"] == n_nodes,
        f"graph.n_nodes must equal the number of output maps ({n_nodes})",
    )
    edges = []
    _schema(isinstance(obj["edges"], list), "graph.edges must be a list")
    for k, e in enumerate(obj["edges"]):
        _schema(
            isinstance(e, list) and len(e) == 2
            and all(_is_int(v) for v in e),
            f"graph.edges[{k}] must be a [from, to] pair of node ids",
        )
        _schema(
            1 <= e[0] <= n_nodes and 1 <= e[1] <= n_nodes,
            f"graph.edges[{k}]: node id out of range",
        )
        edges.append((e[0], e[1]))
    return Digraph(n_nodes, edges)


def _parse_tolerances(obj):
    allowed = ("rank_tol", "eig_cluster_tol", "schur_margin")
    _check_keys(obj, "options.tolerances", allowed=allowed)
    fields = {}
    for k in allowed:
        if k in obj:
            v = obj[k]
            _schema(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                and v > 0,
                f"options.tolerances.{k} must be a positive number",
            )
            fields[k] = float(v)
    return dataclasses.replace(nk.DEFAULT_TOL, **fields)


def _parse_options(obj, p, g):
    allowed = (
        "order", "poles_policy", "tolerances", "transform", "transform_o",
        "structure_tol", "gains", "weights", "scheme", "max_parents",
    )
    _check_keys(obj, "options", allowed=allowed)
    out = {
        "order": None, "poles_policy": "deadbeat", "tolerances": None,
        "transform": None, "transform_o": None, "structure_tol": 1e-6,
        "gains": {}, "weights": {}, "scheme": "auto", "max_parents": 1,
    }
    if "order" in obj:
        _schema(
            isinstance(obj["order"], list)
            and all(_is_int(v) for v in obj["order"]),
            "options.order must be a list of node ids",
        )
        _schema(
            sorted(obj["order"]) == list(g.nodes),
            "options.order must list every node id exactly once",
        )
        out["order"] = tuple(obj["order"])
    if "poles_policy" in obj:
        _schema(
            obj["poles_policy"] == "deadbeat",
            f"unsupported poles policy {obj['poles_policy']!r}",
        )
        out["poles_policy"] = obj["poles_policy"]
    if "tolerances" in obj:
        out["tolerances"] = _parse_tolerances(obj["tolerances"])
    if "transform" in obj and obj["transform"] is not None:
        out["transform"] = _num_matrix(obj["transform"], "options.transform",
                                       cols=p.n)
        _schema(
            out["transform"].shape == (p.n, p.n),
            "options.transform must be square of the state dimension",
        )
        _schema(
            "transform_o" in obj,
            "options.transform requires options.transform_o",
        )
    if "transform_o" in obj and obj["transform_o"] is not None:
        _schema(
            isinstance(obj["transform_o"], list)
            and all(_is_int(v) and v >= 0 for v in obj["transform_o"]),
            "options.transform_o must be a list of nonnegative ints",
        )
        out["transform_o"] = tuple(obj["transform_o"])
    if "structure_tol" in obj:
        v = obj["structure_tol"]
        _schema(
            isinstance(v, (int, float)) and not isinstance(v, bool) and v > 0,
            "options.structure_tol must be a positive number",
        )
        out["structure_tol"] = float(v)
    if "gains" in obj:
        gains = {}
        for node, mat in _int_keyed(obj["gains"], "options.gains").items():
            _schema(
                node in set(g.nodes),
                f"options.gains: node {node} out of range",
            )
            gains[node] = _num_matrix(mat, f"options.gains[{node}]")
        out["gains"] = gains
    if "weights" in obj:
        weights = {}
        for src, per_node in _int_keyed(obj["weights"], "options.weights").items():
            rows = {}
            for i, row in _int_keyed(
                per_node, f"options.weights[{src}]"
            ).items():
                parents = {}
                for l, w in _int_keyed(
                    row, f"options.weights[{src}][{i}]"
                ).items():
                    _schema(
                        isinstance(w, (int, float)) and not isinstance(w, bool),
                        f"options.weights[{src}][{i}][{l}] must be a number",
                    )
                    parents[l] = float(w)
                rows[i] = parents
            weights[src] = rows
        out["weights"] = weights
    if "scheme" in obj:
        _schema(
            obj["scheme"] in _SCHEMES,
            f"options.scheme must be one of {_SCHEMES}",
        )
        out["scheme"] = obj["scheme"]
    if "max_parents" in obj:
        _schema(
            _is_int(obj["max_parents"]) and obj["max_parents"] >= 1,
            "options.max_parents must be a positive int",
        )
        out["max_parents"] = obj["max_parents"]
    return out


def _parse_switching(obj, g):
    _schema(isinstance(obj, dict), "simulation.switching must be an object")
    if "schedule" in obj:
        _check_keys(
            obj, "simulation.switching", allowed=("modes", "schedule", "T"),
            required=("modes", "schedule", "T"),
        )
        modes = []
        for m, mode in enumerate(obj["modes"]):
            _schema(
                isinstance(mode, list),
                f"switching.modes[{m}] must be an edge list",
            )
            edges = []
            for e in mode:
                _schema(
                    isinstance(e, list) and len(e) == 2
                    and all(_is_int(v) for v in e),
                    f"switching.modes[{m}]: bad edge {e!r}",
                )
                edges.append((e[0], e[1]))
            modes.append(frozenset(edges))
        _schema(
            isinstance(obj["schedule"], list)
            and all(_is_int(v) for v in obj["schedule"]),
            "switching.schedule must be a list of mode indices",
        )
        _schema(
            _is_int(obj["T"]) and obj["T"] >= 1,
            "switching.T must be a positive int",
        )
        return {
            "kind": "explicit",
            "signal": SwitchingSignal(
                modes=tuple(modes), schedule=tuple(obj["schedule"]),
                window_T=obj["T"],
            ),
        }
    _check_keys(
        obj, "simulation.switching", allowed=("T", "drop_prob", "seed"),
        required=("T", "drop_prob"),
    )
    _schema(
        _is_int(obj["T"]) and obj["T"] >= 1,
        "switching.T must be a positive int",
    )
    dp = obj["drop_prob"]
    _schema(
        isinstance(dp, (int, float)) and not isinstance(dp, bool)
        and 0 <= dp < 1,
        "switching.drop_prob must be in [0, 1)",
    )
    seed = obj.get("seed")
    _schema(
        seed is None or _is_int(seed),
        "switching.seed must be an int",
    )
    return {
        "kind": "generated", "T": obj["T"], "drop_prob": float(dp),
        "seed": seed,
    }


def _parse_simulation(obj, p):
    allowed = ("x0", "est0", "K", "switching")
    _check_keys(obj, "simulation", allowed=allowed, required=("x0", "K"))
    out = {"x0": _num_vector(obj["x0"], "simulation.x0", p.n)}
    _schema(
        _is_int(obj["K"]) and obj["K"] >= 1,
        "simulation.K must be an int >= 1",
    )
    out["K"] = obj["K"]
    if obj.get("est0") is None:
        out["est0"] = None
    else:
        _schema(
            isinstance(obj["est0"], list) and len(obj["est0"]) == p.n_nodes,
            f"simulation.est0 must hold {p.n_nodes} vectors",
        )
        out["est0"] = [
            _num_vector(e, f"simulation.est0[{i}]", p.n)
            for i, e in enumerate(obj["est0"], 1)
        ]
    out["switching"] = None
    if obj.get("switching") is not None:
        out["switching"] = _parse_switching(obj["switching"], p)
    return out


def load_scenario(path):
    """Load and validate a scenario file.

    Raises
    ------
    ScenarioError
        On any schema violation, with a message naming the offending field.
    """
    try:
        with open(path) as f:
            raw = json.load(f)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON ({exc})") from None
    _check_keys(
        raw, "scenario",
        allowed=("format_version", "plant", "graph", "options", "simulation"),
        required=("format_version", "plant", "graph"),
    )
    _schema(
        raw["format_version"] == SCENARIO_FORMAT,
        f"unsupported scenario format_version {raw['format_version']!r}",
    )
    p = _parse_plant(raw["plant"])
    g = _parse_graph(raw["graph"], p.n_nodes)
    options = _parse_options(raw.get("options", {}) or {}, p, g)
    simulation = None
    if raw.get("simulation") is not None:
        simulation = _parse_simulation(raw["simulation"], p)
    return Scenario(
        plant=p, graph=g, options=options, simulation=simulation, path=path,
    )


def bundled_scenario_path(name):
    """Filesystem path of a bundled golden scenario (e.g. ``"sec8.json"``)."""
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(here, "scenarios", name)


# ---------------------------------------------------------------------------
# design orchestration and bank serialization


def _resolve_scheme(p, g, tol, requested):
    """``(scheme, report)``: the scheme to design with, and the feasibility
    report when ``auto`` needed one to choose (else ``None``)."""
    if requested != "auto":
        return requested, None
    rep = feasibility_report(p, g, tol)
    if rep.cond2.ok:
        return "c2", rep
    if rep.cond1.ok:
        return "c1", rep
    bad = rep.cond1.failing_components()[0]
    eigs = ", ".join(f"{lam:.6g}" for lam in bad.failing)
    raise NotDetectable(
        "neither design condition holds: source component "
        f"{set(bad.component)} cannot collectively detect eigenvalue(s) "
        f"{eigs}"
    )


def _design(scn, scheme, tol, order=None, report=None):
    """Design ``scn`` under ``scheme``; ``report`` is the feasibility report
    already computed for it, if any.

    ``options.gains`` are Scheme-1 sub-state gains or Scheme-2 node gains,
    as ``options.scheme`` says; under another scheme they are not used and
    that scheme synthesizes its own.
    """
    opts = scn.options
    order = order if order is not None else opts["order"]
    gains = opts["gains"] or None
    if gains and opts["scheme"] not in ("auto", scheme):
        log.warning("options.gains are %s gains; designing %s with "
                    "synthesized gains instead", opts["scheme"], scheme)
        gains = None
    if scheme == "c1":
        design = design_condition1(
            scn.plant, scn.graph, tol=tol,
            max_parents=opts["max_parents"],
            gains=gains,
            transform=opts["transform"],
            transform_o=opts["transform_o"],
            structure_tol=opts["structure_tol"],
            order=order,
            weights=opts["weights"] or None,
        )
    else:
        design = _design_condition2(
            scn.plant, scn.graph, tol, opts["max_parents"], gains, report,
        )
    return design, order


def _used_gains(design, scheme):
    out = {}
    if scheme == "c1":
        for comp in design.components:
            d = comp.bank.decomposition
            for j, oj in enumerate(d.o, 1):
                if oj == 0:
                    continue
                src = comp.nodes[d.source_node(j) - 1]
                out[src] = comp.bank.gains[j - 1]
    else:
        for rec in design.nodes:
            if rec.gain.size:
                out[rec.node] = rec.gain
    return out


def _plant_payload(p):
    return {
        "A": p.A.tolist(),
        "C": [Ci.tolist() for Ci in p.C],
    }


def _graph_payload(g):
    return {
        "n_nodes": g.n_nodes,
        "edges": [list(e) for e in sorted(g.edges)],
    }


def bank_payload(design, scheme, tol, options, order):
    """Serializable defining data of a design: the scenario pieces plus
    every free choice, so loading re-runs the deterministic synthesis and
    reproduces the bank bit for bit."""
    p = design.plant
    g = design.graph
    payload = {
        "format_version": BANK_FORMAT,
        "kind": "distobs-bank",
        "scheme": scheme,
        "plant": _plant_payload(p),
        "graph": _graph_payload(g),
        "tolerances": {
            "rank_tol": tol.rank_tol,
            "eig_cluster_tol": tol.eig_cluster_tol,
            "schur_margin": tol.schur_margin,
        },
        "max_parents": options["max_parents"],
        "order": list(order) if order else None,
        "gains": {
            str(i): L.tolist() for i, L in sorted(_used_gains(design, scheme).items())
        },
    }
    if scheme == "c1":
        payload["structure_tol"] = options["structure_tol"]
        payload["transform"] = (
            options["transform"].tolist()
            if options["transform"] is not None else None
        )
        payload["transform_o"] = (
            list(options["transform_o"])
            if options["transform_o"] is not None else None
        )
        payload["weights"] = {
            str(s): {
                str(i): {str(l): w for l, w in row.items()}
                for i, row in per.items()
            }
            for s, per in options["weights"].items()
        } or None
    return payload


def save_bank(path, design, scheme, tol, options, order):
    with open(path, "w") as f:
        json.dump(bank_payload(design, scheme, tol, options, order), f,
                  indent=1)
        f.write("\n")
    log.info("bank written to %s", path)


def load_bank(path):
    """Rebuild a design from its serialized defining data.

    Returns ``(design, scheme, plant, graph, tolerances)``.
    """
    try:
        with open(path) as f:
            raw = json.load(f)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON ({exc})") from None
    _schema(isinstance(raw, dict), "bank file must be an object")
    _schema(
        raw.get("kind") == "distobs-bank",
        f"{path} is not an observer bank file",
    )
    _schema(
        raw.get("format_version") == BANK_FORMAT,
        f"unsupported bank format_version {raw.get('format_version')!r}",
    )
    scheme = raw.get("scheme")
    _schema(scheme in ("c1", "c2"), f"bad bank scheme {scheme!r}")
    p = _parse_plant(raw["plant"])
    g = _parse_graph(raw["graph"], p.n_nodes)
    tol = _parse_tolerances(raw.get("tolerances", {}))
    gains = {
        int(i): _num_matrix(m, f"gains[{i}]")
        for i, m in raw.get("gains", {}).items()
    }
    order = tuple(raw["order"]) if raw.get("order") else None
    if scheme == "c1":
        transform = raw.get("transform")
        if transform is not None:
            transform = _num_matrix(transform, "transform", cols=p.n)
        transform_o = (
            tuple(raw["transform_o"]) if raw.get("transform_o") else None
        )
        weights = None
        if raw.get("weights"):
            weights = {
                int(s): {
                    int(i): {int(l): float(w) for l, w in row.items()}
                    for i, row in per.items()
                }
                for s, per in raw["weights"].items()
            }
        design = design_condition1(
            p, g, tol=tol, max_parents=raw.get("max_parents", 1),
            gains=gains or None, transform=transform,
            transform_o=transform_o,
            structure_tol=raw.get("structure_tol", 1e-6),
            order=order, weights=weights,
        )
    else:
        design = design_condition2(
            p, g, tol=tol, max_parents=raw.get("max_parents", 1),
            gains=gains or None,
        )
    return design, scheme, p, g, tol


# ---------------------------------------------------------------------------
# trace and summary output


def write_trace_csv(path, trace):
    """Write a trace as CSV: ``step, mode, x_*``, then per node its
    estimate columns, absolute error, and normalized error.

    Values are written with ``repr``, so they read back bit for bit; the
    bytes are those of ``csv.writer`` (comma-separated, CRLF line ends).
    """
    n = trace.x.shape[1]
    N = trace.n_nodes
    header = ["step", "mode"]
    header += [f"x_{d}" for d in range(1, n + 1)]
    for i in range(1, N + 1):
        header += [f"xhat_{i}_{d}" for d in range(1, n + 1)]
        header += [f"err_{i}", f"relerr_{i}"]
    per_node = np.concatenate([
        trace.xhat, trace.err[:, :, None], trace.rel_err[:, :, None],
    ], axis=2)
    values = np.hstack([
        trace.x, per_node.transpose(1, 0, 2).reshape(trace.n_steps, -1),
    ])
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\r\n")
        f.writelines(
            f"{k},{'' if mode is None else mode},{','.join(map(repr, row))}\r\n"
            for k, (mode, row) in enumerate(zip(trace.mode_indices,
                                                values.tolist()))
        )
    log.info("trace written to %s", path)


def write_summary(path, trace):
    metrics = convergence_metrics(trace)
    payload = {
        "format_version": SUMMARY_FORMAT,
        "scheme": trace.metadata.get("scheme"),
        "seed": trace.metadata.get("seed"),
        "scenario_hash": trace.metadata.get("scenario_hash"),
        "steps": trace.n_steps,
        "nodes": [
            {
                "node": m.node,
                "final_rel_error": m.final_rel_error,
                "monotone_tail": m.monotone_tail,
                "first_below": {
                    "1e-6": m.first_step_below(1e-6),
                    "1e-9": m.first_step_below(1e-9),
                    "1e-12": m.first_step_below(1e-12),
                },
            }
            for m in metrics
        ],
    }
    text = json.dumps(payload, indent=1, allow_nan=False)
    with open(path, "w") as f:
        f.write(text + "\n")
    log.info("summary written to %s", path)


# ---------------------------------------------------------------------------
# commands


def _tol_for(scn, args):
    tol = scn.options["tolerances"] or nk.DEFAULT_TOL
    fields = {}
    if getattr(args, "tol_rank", None) is not None:
        fields["rank_tol"] = args.tol_rank
    if getattr(args, "tol_eig", None) is not None:
        fields["eig_cluster_tol"] = args.tol_eig
    return dataclasses.replace(tol, **fields) if fields else tol


def _order_for(scn, args):
    if getattr(args, "order", None):
        try:
            order = tuple(int(v) for v in args.order.split(","))
        except ValueError:
            raise ScenarioError(
                f"--order must be comma-separated node ids, got {args.order!r}"
            ) from None
        return order
    return scn.options["order"]


def _fmt_eig(lam):
    lam = complex(lam)
    if lam.imag == 0:
        return f"{lam.real:.6g}"
    return f"{lam.real:.6g}{lam.imag:+.6g}j"


def cmd_check(args):
    scn = load_scenario(args.scenario)
    tol = _tol_for(scn, args)
    rep = feasibility_report(scn.plant, scn.graph, tol)
    print(f"scenario: {scn.path}")
    print(
        f"plant: {scn.plant.n} states, {scn.plant.n_nodes} nodes, "
        f"{len(scn.graph.edges)} edges"
    )
    unstable = [_fmt_eig(rep.classes[k].rep) for k in rep.unstable]
    print(f"eigenvalue classes needing coverage: {unstable or 'none'}")
    for verdict, name in ((rep.cond1, "collective detectability"),
                          (rep.cond2, "per-eigenvalue coverage")):
        print(f"{name}: {'PASS' if verdict.ok else 'FAIL'}")
        for comp in verdict.components:
            line = f"  component {set(comp.component)}: "
            if comp.ok:
                line += "ok"
                if comp.roots:
                    roots = ", ".join(
                        f"{_fmt_eig(rep.classes[k].rep)} <- {list(v)}"
                        for k, v in sorted(comp.roots.items())
                    )
                    line += f" (roots: {roots})"
            else:
                eigs = ", ".join(_fmt_eig(lam) for lam in comp.failing)
                line += f"cannot handle {eigs}"
            print(line)
    if args.out:
        payload = {
            "format_version": SUMMARY_FORMAT,
            "unstable_eigenvalues": [
                [rep.classes[k].rep.real, rep.classes[k].rep.imag]
                for k in rep.unstable
            ],
            "per_node_detectable": {
                str(i): list(rep.per_node_detectable[i - 1])
                for i in scn.graph.nodes
            },
            "root_sets": {
                str(k): list(v) for k, v in sorted(rep.root_sets.items())
            },
        }
        for verdict, name in ((rep.cond1, "cond1"), (rep.cond2, "cond2")):
            payload[name] = {
                "ok": verdict.ok,
                "components": [
                    {
                        "nodes": list(c.component),
                        "ok": c.ok,
                        "failing": [
                            [complex(l).real, complex(l).imag]
                            for l in c.failing
                        ],
                        "roots": {
                            str(k): list(v) for k, v in sorted(c.roots.items())
                        },
                    }
                    for c in verdict.components
                ],
            }
        with open(args.out, "w") as f:
            json.dump(payload, f, indent=1)
            f.write("\n")
        log.info("report written to %s", args.out)
    return 0 if rep.cond1.ok else 2


def _print_design(design, scheme):
    if scheme == "c1":
        for comp in design.components:
            d = comp.bank.decomposition
            rhos = [f"{c.rho:.3g}" for c in comp.stability.certificates]
            print(
                f"component {set(comp.nodes)}: sub-state dims {d.o}, "
                f"unobservable dim {d.u_dim}, error spectral radii "
                f"[{', '.join(rhos)}], unobservable-part radius "
                f"{comp.stability.rho_unobs:.3g}"
            )
        if design.relay is not None:
            print(
                f"relay nodes: {list(design.relay.relay_nodes)} "
                f"(fed from {sorted(design.relay.roots)})"
            )
    else:
        dims = design.observer_dims()
        print(f"per-node observer dimensions: {list(dims)}")
        for k, cw in sorted(design.class_weights.items()):
            print(
                f"eigenvalue {_fmt_eig(cw.rep)}: detected by {list(cw.roots)}"
                + (
                    f", relayed to {sorted(cw.weights)}" if cw.weights else
                    " (everywhere)"
                )
            )


def _certified(design, scheme):
    if scheme == "c1":
        return all(comp.stability.ok for comp in design.components)
    return True


def cmd_design(args):
    scn = load_scenario(args.scenario)
    tol = _tol_for(scn, args)
    scheme = args.scheme or scn.options["scheme"]
    scheme, report = _resolve_scheme(scn.plant, scn.graph, tol, scheme)
    order = _order_for(scn, args)
    design, order = _design(scn, scheme, tol, order, report)
    print(f"scheme: {scheme}")
    _print_design(design, scheme)
    if not _certified(design, scheme):
        raise NumericalError(
            "design assembled but the stability certificate failed; "
            "see the component report above"
        )
    if args.out:
        save_bank(args.out, design, scheme, tol, scn.options, order)
        print(f"bank written to {args.out}")
    return 0


def _signal_for(scn, design, args, K):
    sw = scn.simulation.get("switching")
    if sw is None:
        return None
    if sw["kind"] == "explicit":
        return sw["signal"]
    seed = args.seed if getattr(args, "seed", None) is not None else sw["seed"]
    pm = dag_parent_map(design)
    sig = make_assumption2_signal(
        pm, scn.graph, sw["T"], K, sw["drop_prob"], seed,
    )
    chk = validate_assumption2(sig, pm)
    if not chk:
        raise NumericalError(
            f"generated switching signal fails its own window guarantee "
            f"at {chk.violation}"
        )
    return sig


def cmd_simulate(args):
    scn = load_scenario(args.scenario)
    if scn.simulation is None:
        raise ScenarioError(
            f"{scn.path} has no simulation section; add x0 and K"
        )
    tol = _tol_for(scn, args)
    if args.bank:
        design, scheme, p_bank, g_bank, tol = load_bank(args.bank)
        if not (
            np.array_equal(p_bank.A, scn.plant.A)
            and len(p_bank.C) == len(scn.plant.C)
            and all(
                np.array_equal(a, b)
                for a, b in zip(p_bank.C, scn.plant.C)
            )
            and g_bank.edges == scn.graph.edges
        ):
            raise ScenarioError(
                f"bank {args.bank} was designed for a different plant or "
                "graph than this scenario"
            )
    else:
        scheme = args.scheme or scn.options["scheme"]
        scheme, report = _resolve_scheme(scn.plant, scn.graph, tol, scheme)
        order = _order_for(scn, args)
        design, order = _design(scn, scheme, tol, order, report)
    sim = scn.simulation
    K = sim["K"]
    signal = _signal_for(scn, design, args, K)
    trace = simulate(
        scn.plant, design, sim["x0"], est0=sim["est0"], K=K, signal=signal,
    )
    metrics = convergence_metrics(trace)
    print(f"scheme: {scheme}; {K} steps"
          + (f"; switching over {len(signal.modes)} modes" if signal else ""))
    for m in metrics:
        k6 = m.first_step_below(1e-6)
        print(
            f"node {m.node}: final normalized error {m.final_rel_error:.3e}"
            f" (below 1e-6 from step {k6 if k6 is not None else '-'})"
        )
    if args.out:
        write_trace_csv(args.out, trace)
        print(f"trace written to {args.out}")
    if args.summary:
        write_summary(args.summary, trace)
        print(f"summary written to {args.summary}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="distobs",
        description=(
            "Distributed state observers for LTI plants over directed "
            "sensor networks: feasibility checks, synthesis, simulation."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--tol-rank", type=float, default=None,
                        help="rank decision tolerance override")
        sp.add_argument("--tol-eig", type=float, default=None,
                        help="eigenvalue clustering tolerance override")

    sp = sub.add_parser("check", help="run both feasibility conditions")
    sp.add_argument("scenario")
    sp.add_argument("--out", default=None, help="machine-readable report path")
    common(sp)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("design", help="synthesize a certified observer bank")
    sp.add_argument("scenario")
    sp.add_argument("--scheme", choices=_SCHEMES, default=None)
    sp.add_argument("--order", default=None,
                    help="comma-separated sensor processing order")
    sp.add_argument("--out", default=None, help="bank output path")
    common(sp)
    sp.set_defaults(fn=cmd_design)

    sp = sub.add_parser("simulate", help="simulate plant plus observers")
    sp.add_argument("scenario")
    sp.add_argument("bank", nargs="?", default=None,
                    help="serialized bank (designed in-process when omitted)")
    sp.add_argument("--scheme", choices=_SCHEMES, default=None)
    sp.add_argument("--order", default=None,
                    help="comma-separated sensor processing order")
    sp.add_argument("--seed", type=int, default=None,
                    help="switching signal seed override")
    sp.add_argument("--out", default=None, help="trace CSV path")
    sp.add_argument("--summary", default=None, help="summary JSON path")
    common(sp)
    sp.set_defaults(fn=cmd_simulate)
    return ap


class _StderrHandler(logging.StreamHandler):
    """Writes to the ``sys.stderr`` current at emit time, so output follows
    redirection and capture across repeated in-process ``main()`` calls."""

    def emit(self, record):
        self.stream = sys.stderr
        super().emit(record)


def _configure_logging():
    """Apply ``DISTOBS_LOG`` to the ``distobs`` logger itself.

    ``logging.basicConfig`` would be a no-op whenever the root logger already
    has handlers (under pytest, in notebooks, in host applications), so the
    level and one stderr handler go on the package logger instead.  Unknown
    values fall back to ``warning``.
    """
    level = os.environ.get("DISTOBS_LOG", "warning").lower()
    levels = {
        "debug": logging.DEBUG, "info": logging.INFO,
        "warning": logging.WARNING, "error": logging.ERROR,
    }
    log.setLevel(levels.get(level, logging.WARNING))
    if not any(isinstance(h, _StderrHandler) for h in log.handlers):
        handler = _StderrHandler()
        handler.setFormatter(
            logging.Formatter("%(name)s %(levelname)s: %(message)s"))
        log.addHandler(handler)


def main(argv=None):
    """CLI entry point; returns the process exit code."""
    _configure_logging()
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (NotDetectable, Condition2Infeasible, NotSpanning) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (ScenarioError, ShapeError, InvalidMatrix, InvalidSignal,
            FileNotFoundError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, IllConditionedJordan, NotObservable,
            InvalidTransform) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
