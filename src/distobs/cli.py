"""Command-line front end: feasibility checks, synthesis, and simulation.

Scenarios and serialized observer banks are JSON (nested row-major arrays,
exact float round-trip via shortest-repr encoding); traces are CSV.  Every
file carries a ``format_version`` field.  Exit codes: 0 success, 2 the
requested design is infeasible on this network (``NotDetectable``,
``Condition2Infeasible``, ``NotSpanning``), 3 schema or input error
(``ScenarioError``, ``ShapeError``, ``InvalidMatrix``, ``InvalidSignal``, a
missing file, ``ValueError``), 4 numerical failure (``NumericalError``,
``IllConditionedJordan``, ``NotObservable``, ``InvalidTransform``) and any
other ``DistobsError``.

Each subcommand loads only the modules it runs: ``check`` needs ``errors``,
``numkit``, ``netgraph``, ``decomp`` and ``conditions``, imported here;
``design`` imports the one synthesis module of its scheme where it designs,
and ``simulate`` imports ``simkit`` where it simulates (as does parsing an
explicit switching schedule), which keeps a cold start short.
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
    InvalidMatrix,
    InvalidSignal,
    NotDetectable,
    NotSpanning,
    NumericalError,
    ScenarioError,
    ShapeError,
)
from .netgraph import Digraph, _is_id

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


def _is_num(v):
    """A finite JSON number.  Booleans are not numbers, and neither are the
    ``NaN`` and ``Infinity`` literals that ``json.load`` accepts, nor
    integers too large for a float."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and -sys.float_info.max <= v <= sys.float_info.max)


def _weight(v, where):
    """A consensus weight: a finite number, or a ``NaN`` or ``Infinity``
    literal that the design rejects naming its edge."""
    _schema(_is_num(v) or isinstance(v, float), f"{where} must be a number")
    return float(v)


def _pos_int(v, where):
    _schema(_is_id(v) and v >= 1, f"{where} must be a positive int")
    return v


def _positive(v, where):
    _schema(_is_num(v) and v > 0, f"{where} must be a positive number")
    return float(v)


def _edge(e, where, n_nodes):
    """A ``[from, to]`` pair of node ids in ``1..n_nodes``, as a tuple."""
    _schema(
        isinstance(e, list) and len(e) == 2 and all(_is_id(v) for v in e),
        f"{where} must be a [from, to] pair of node ids",
    )
    _schema(all(1 <= v <= n_nodes for v in e), f"{where}: node id out of range")
    return (e[0], e[1])


def _node_order(v, where, g):
    """A permutation of the node ids of ``g``, as a tuple."""
    _schema(
        isinstance(v, list) and all(_is_id(i) for i in v),
        f"{where} must be a list of node ids",
    )
    _schema(
        sorted(v) == list(g.nodes),
        f"{where} must list every node id exactly once",
    )
    return tuple(v)


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
            _schema(_is_num(v), f"{where}: non-numeric or non-finite entry {v!r}")
    M = np.array(obj, dtype=float)
    _schema(
        cols is None or M.shape[1] == cols,
        f"{where}: expected {cols} columns, got {M.shape[1]}",
    )
    return M


def _num_vector(obj, where, length):
    _schema(
        isinstance(obj, list) and all(_is_num(v) for v in obj),
        f"{where} must be an array of finite numbers",
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


def _read_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON ({exc})") from None


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
    return Plant(A, C)


def _parse_graph(obj, n_nodes):
    _check_keys(obj, "graph", allowed=("n_nodes", "edges"),
                required=("n_nodes", "edges"))
    _schema(
        _is_id(obj["n_nodes"]) and obj["n_nodes"] == n_nodes,
        f"graph.n_nodes must equal the number of output maps ({n_nodes})",
    )
    _schema(isinstance(obj["edges"], list), "graph.edges must be a list")
    return Digraph(n_nodes, [
        _edge(e, f"graph.edges[{k}]", n_nodes)
        for k, e in enumerate(obj["edges"])
    ])


_TOL_KEYS = tuple(f.name for f in dataclasses.fields(nk.ToleranceConfig))


def _parse_tolerances(obj, where):
    _check_keys(obj, where, allowed=_TOL_KEYS)
    return dataclasses.replace(nk.DEFAULT_TOL, **{
        k: _positive(v, f"{where}.{k}") for k, v in obj.items()
    })


# the design options of a scenario; a bank holds them at its top level
_OPTION_KEYS = (
    "order", "poles_policy", "tolerances", "transform", "transform_o",
    "structure_tol", "gains", "weights", "scheme", "max_parents",
)


def _parse_options(obj, p, g, where="options"):
    """Normalized design options; ``where`` names the object in messages."""
    _check_keys(obj, where, allowed=_OPTION_KEYS)
    out = {
        "order": None, "tolerances": None,
        "transform": None, "transform_o": None, "structure_tol": 1e-6,
        "gains": {}, "weights": {}, "scheme": "auto", "max_parents": 1,
    }
    if "order" in obj:
        out["order"] = _node_order(obj["order"], f"{where}.order", g)
    if "poles_policy" in obj:
        _schema(
            obj["poles_policy"] == "deadbeat",
            f"unsupported poles policy {obj['poles_policy']!r}",
        )
    if "tolerances" in obj:
        out["tolerances"] = _parse_tolerances(obj["tolerances"],
                                              f"{where}.tolerances")
    if obj.get("transform") is not None:
        out["transform"] = _num_matrix(obj["transform"], f"{where}.transform",
                                       cols=p.n)
        _schema(
            out["transform"].shape == (p.n, p.n),
            f"{where}.transform must be square of the state dimension",
        )
        _schema(
            "transform_o" in obj,
            f"{where}.transform requires {where}.transform_o",
        )
    if obj.get("transform_o") is not None:
        _schema(
            isinstance(obj["transform_o"], list)
            and all(_is_id(v) and v >= 0 for v in obj["transform_o"]),
            f"{where}.transform_o must be a list of nonnegative ints",
        )
        out["transform_o"] = tuple(obj["transform_o"])
        _schema(
            out["transform"] is not None,
            f"{where}.transform_o requires {where}.transform",
        )
    if "structure_tol" in obj:
        out["structure_tol"] = _positive(obj["structure_tol"],
                                         f"{where}.structure_tol")
    if "gains" in obj:
        gains = _int_keyed(obj["gains"], f"{where}.gains")
        for node in gains:
            _schema(
                1 <= node <= g.n_nodes,
                f"{where}.gains: node {node} out of range",
            )
        out["gains"] = {
            node: _num_matrix(mat, f"{where}.gains[{node}]")
            for node, mat in gains.items()
        }
    if "weights" in obj:
        at = f"{where}.weights"
        out["weights"] = {
            src: {
                i: {l: _weight(w, f"{at}[{src}][{i}][{l}]")
                    for l, w in _int_keyed(row, f"{at}[{src}][{i}]").items()}
                for i, row in _int_keyed(per, f"{at}[{src}]").items()
            }
            for src, per in _int_keyed(obj["weights"], at).items()
        }
        for src, per in out["weights"].items():
            for node in (src, *per, *(l for row in per.values() for l in row)):
                _schema(1 <= node <= g.n_nodes,
                        f"{at}: node {node} out of range")
    if "scheme" in obj:
        _schema(
            obj["scheme"] in _SCHEMES,
            f"{where}.scheme must be one of {_SCHEMES}",
        )
        out["scheme"] = obj["scheme"]
    if "max_parents" in obj:
        out["max_parents"] = _pos_int(obj["max_parents"],
                                      f"{where}.max_parents")
    return out


def _parse_switching(obj, n_nodes):
    _schema(isinstance(obj, dict), "simulation.switching must be an object")
    if "schedule" in obj:
        from .simkit import SwitchingSignal
        _check_keys(
            obj, "simulation.switching", allowed=("modes", "schedule", "T"),
            required=("modes", "schedule", "T"),
        )
        _schema(isinstance(obj["modes"], list),
                "switching.modes must be a list of edge lists")
        modes = []
        for m, mode in enumerate(obj["modes"]):
            _schema(
                isinstance(mode, list),
                f"switching.modes[{m}] must be an edge list",
            )
            modes.append(frozenset(
                _edge(e, f"switching.modes[{m}][{k}]", n_nodes)
                for k, e in enumerate(mode)
            ))
        _schema(
            isinstance(obj["schedule"], list)
            and all(_is_id(v) for v in obj["schedule"]),
            "switching.schedule must be a list of mode indices",
        )
        return {
            "kind": "explicit",
            "signal": SwitchingSignal(
                modes=tuple(modes), schedule=tuple(obj["schedule"]),
                window_T=_pos_int(obj["T"], "switching.T"),
            ),
        }
    _check_keys(
        obj, "simulation.switching", allowed=("T", "drop_prob", "seed"),
        required=("T", "drop_prob"),
    )
    T = _pos_int(obj["T"], "switching.T")
    dp = obj["drop_prob"]
    _schema(_is_num(dp) and 0 <= dp < 1, "switching.drop_prob must be in [0, 1)")
    seed = obj.get("seed")
    _schema(seed is None or _is_id(seed), "switching.seed must be an int")
    return {"kind": "generated", "T": T, "drop_prob": float(dp), "seed": seed}


def _parse_simulation(obj, p):
    allowed = ("x0", "est0", "K", "switching")
    _check_keys(obj, "simulation", allowed=allowed, required=("x0", "K"))
    out = {"x0": _num_vector(obj["x0"], "simulation.x0", p.n)}
    out["K"] = _pos_int(obj["K"], "simulation.K")
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
        out["switching"] = _parse_switching(obj["switching"], p.n_nodes)
    return out


def load_scenario(path):
    """Load and validate a scenario file.

    Raises
    ------
    ScenarioError
        On any schema violation, with a message naming the offending field.
    InvalidSignal
        When an explicit switching schedule indexes no mode.
    """
    raw = _read_json(path)
    _check_keys(
        raw, "scenario",
        allowed=("format_version", "plant", "graph", "options", "simulation"),
        required=("format_version", "plant", "graph"),
    )
    _schema(
        _is_id(raw["format_version"])
        and raw["format_version"] == SCENARIO_FORMAT,
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


def _design(p, g, options, scheme, tol, report=None):
    """Design ``(p, g)`` under ``scheme`` with normalized ``options``;
    ``report`` is the feasibility report already computed for it, if any.

    ``options.gains`` are Scheme-1 sub-state gains or Scheme-2 node gains,
    as ``options.scheme`` says; under another scheme they are not used and
    that scheme synthesizes its own.
    """
    gains = options["gains"] or None
    if gains and options["scheme"] not in ("auto", scheme):
        log.warning("options.gains are %s gains; designing %s with "
                    "synthesized gains instead", options["scheme"], scheme)
        gains = None
    if scheme == "c1":
        from .synth_c1 import design_condition1
        return design_condition1(
            p, g, tol=tol, max_parents=options["max_parents"], gains=gains,
            transform=options["transform"], transform_o=options["transform_o"],
            structure_tol=options["structure_tol"], order=options["order"],
            weights=options["weights"] or None, report=report,
        )
    from .synth_c2 import design_condition2
    return design_condition2(p, g, tol, options["max_parents"], gains, report)


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
        "tolerances": dataclasses.asdict(tol),
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

    A bank is a scenario's ``plant`` and ``graph``, its design option fields
    at the top level (``null`` where unset) and the scheme, ``c1`` or
    ``c2``.  Every field passes the scenario schema, and the design re-runs
    the same synthesis as the ``design`` command.

    Returns ``(design, scheme, plant, graph, tolerances)``.
    """
    raw = _read_json(path)
    _schema(
        isinstance(raw, dict) and raw.get("kind") == "distobs-bank",
        f"{path} is not an observer bank file",
    )
    _check_keys(
        raw, "bank", allowed=("format_version", "kind", "plant", "graph")
        + _OPTION_KEYS, required=("format_version", "scheme", "plant", "graph"),
    )
    _schema(
        _is_id(raw["format_version"])
        and raw["format_version"] == BANK_FORMAT,
        f"unsupported bank format_version {raw['format_version']!r}",
    )
    scheme = raw["scheme"]
    _schema(scheme in ("c1", "c2"), f"bad bank scheme {scheme!r}")
    p = _parse_plant(raw["plant"])
    g = _parse_graph(raw["graph"], p.n_nodes)
    options = _parse_options({
        k: v for k, v in raw.items() if k in _OPTION_KEYS and v is not None
    }, p, g, where="bank")
    tol = options["tolerances"] or nk.DEFAULT_TOL
    return _design(p, g, options, scheme, tol), scheme, p, g, tol


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
    from .simkit import convergence_metrics
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


def _flag(dest):
    return "--" + dest.replace("_", "-")


def _tol_for(scn, args):
    """The scenario's tolerances with ``--tol-rank``/``--tol-eig`` applied."""
    fields = {
        field: _positive(getattr(args, dest), _flag(dest))
        for dest, field in (("tol_rank", "rank_tol"),
                            ("tol_eig", "eig_cluster_tol"))
        if getattr(args, dest) is not None
    }
    return dataclasses.replace(scn.options["tolerances"] or nk.DEFAULT_TOL,
                               **fields)


def _design_for(scn, args, tol):
    """``(design, scheme, options)`` of the in-process design of ``scn``,
    with ``--order`` and ``--scheme`` applied."""
    options = scn.options
    if args.order is not None:
        try:
            order = [int(v) for v in args.order.split(",")]
        except ValueError:
            raise ScenarioError(
                f"--order must be comma-separated node ids, got {args.order!r}"
            ) from None
        options = dict(options, order=_node_order(order, "--order", scn.graph))
    scheme, report = _resolve_scheme(scn.plant, scn.graph, tol,
                                     args.scheme or options["scheme"])
    design = _design(scn.plant, scn.graph, options, scheme, tol, report)
    return design, scheme, options


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
                f"(fed from {list(design.relay.roots)})"
            )
    else:
        dims = design.observer_dims()
        print(f"per-node observer dimensions: {list(dims)}")
        for k, route in sorted(design.class_weights.items()):
            eig = _fmt_eig(design.jsys.classes[k].rep)
            print(f"eigenvalue {eig}: detected by {list(route.roots)}, "
                  f"relayed to {sorted(route.relay_nodes)}")


def _certified(design, scheme):
    if scheme == "c1":
        return all(comp.stability.ok for comp in design.components)
    return True


_UNCERTIFIED = ("design assembled but the stability certificate failed; "
                "see the component report above")


def cmd_design(args):
    scn = load_scenario(args.scenario)
    tol = _tol_for(scn, args)
    design, scheme, options = _design_for(scn, args, tol)
    print(f"scheme: {scheme}")
    _print_design(design, scheme)
    if not _certified(design, scheme):
        raise NumericalError(_UNCERTIFIED)
    if args.out:
        save_bank(args.out, design, scheme, tol, options, options["order"])
        print(f"bank written to {args.out}")
    return 0


def _signal_for(scn, design, args, K):
    sw = scn.simulation.get("switching")
    if sw is None:
        return None
    if sw["kind"] == "explicit":
        return sw["signal"]
    from .simkit import (dag_parent_map, make_assumption2_signal,
                         validate_assumption2)
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
    from .simkit import convergence_metrics, simulate
    scn = load_scenario(args.scenario)
    if scn.simulation is None:
        raise ScenarioError(
            f"{scn.path} has no simulation section; add x0 and K"
        )
    if args.bank:
        fixed = [_flag(dest) for dest in ("scheme", "order", "tol_rank",
                                          "tol_eig")
                 if getattr(args, dest) is not None]
        _schema(not fixed, f"{', '.join(fixed)} cannot be combined with a "
                "bank: the bank fixes the scheme, order and tolerances")
        design, scheme, p_bank, g_bank, _ = load_bank(args.bank)
        _schema(
            _plant_payload(p_bank) == _plant_payload(scn.plant)
            and g_bank.edges == scn.graph.edges,
            f"bank {args.bank} was designed for a different plant or graph "
            "than this scenario",
        )
    else:
        design, scheme, _ = _design_for(scn, args, _tol_for(scn, args))
    if not _certified(design, scheme):
        _print_design(design, scheme)
        raise NumericalError(_UNCERTIFIED)
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
    except DistobsError as exc:
        # NumericalError, IllConditionedJordan, NotObservable,
        # InvalidTransform, and any error class without a code of its own
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
