"""Spans around the public functions of every ``distobs`` module.

The tracer replaces each target function at every module attribute that
binds it (``distobs.synth_c1.multisensor_decompose`` as well as
``distobs.decomp.multisensor_decompose`` and ``distobs.multisensor_decompose``)
and each target method on its class, so calls between modules are seen
wherever they go.  Spans ``[name, start, end, parent, dim]`` stay in memory;
:func:`layer_metrics` turns them into call counts and self times (a span's
duration minus the time its direct child spans cover).
"""

import sys
import time

# (module, attribute) -> metric prefix.  "Class.method" targets a method.
TARGETS = {
    ("numkit", "eigen_info"): "numkit.eigen_info",
    ("numkit", "pbh_rank_ok"): "numkit.pbh_rank_ok",
    ("numkit", "obs_canon_decomp"): "numkit.obs_canon_decomp",
    ("numkit", "place_observer_gain"): "numkit.place_observer_gain",
    ("numkit", "spectral_radius"): "numkit.spectral_radius",
    ("netgraph", "Digraph.in_neighbors"): "netgraph.in_neighbors",
    ("netgraph", "spanning_dag"): "netgraph.spanning_dag",
    ("netgraph", "source_components"): "netgraph.source_components",
    ("conditions", "feasibility_report"): "conditions.feasibility_report",
    ("conditions", "check_condition1"): "conditions.check_condition1",
    ("conditions", "check_condition2"): "conditions.check_condition2",
    ("conditions", "detectable_set"): "conditions.detectable_set",
    ("decomp", "multisensor_decompose"): "decomp.multisensor_decompose",
    ("decomp", "MultiSensorDecomposition.block_slice"): "decomp.block_slice",
    ("decomp", "jordan_system"): "decomp.jordan_system",
    ("decomp", "node_local_split"): "decomp.node_local_split",
    ("synth_c1", "design_condition1"): "synth_c1.design_condition1",
    ("synth_c1", "design_gains"): "synth_c1.design_gains",
    ("synth_c1", "assemble_compact_bank"): "synth_c1.assemble_compact_bank",
    ("synth_c1", "certify_stability"): "synth_c1.certify_stability",
    ("synth_c2", "design_condition2"): "synth_c2.design_condition2",
    ("synth_c2", "local_observer"): "synth_c2.local_observer",
    ("synth_c2", "eig_consensus_weights"): "synth_c2.eig_consensus_weights",
    ("synth_c2", "assemble_c2_bank"): "synth_c2.assemble_c2_bank",
    ("simkit", "simulate"): "simkit.simulate",
    ("simkit", "convergence_metrics"): "simkit.convergence_metrics",
    ("simkit", "make_assumption2_signal"): "simkit.make_assumption2_signal",
    ("simkit", "validate_assumption2"): "simkit.validate_assumption2",
    ("simkit", "dag_parent_map"): "simkit.dag_parent_map",
    ("cli", "load_scenario"): "cli.load_scenario",
    ("cli", "save_bank"): "cli.save_bank",
    ("cli", "load_bank"): "cli.load_bank",
    ("cli", "write_trace_csv"): "cli.write_trace_csv",
    ("cli", "write_summary"): "cli.write_summary",
}


class Tracer:
    """Installs span-recording wrappers; ``spans`` collects the records."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(idx)
            if name == "simkit.simulate":
                span[4] = (args[0].n_nodes, type(args[1]).__name__,
                           kwargs.get("K", args[4] if len(args) > 4 else 50))
            elif name == "numkit.spectral_radius":
                span[4] = len(args[0])
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self):
        import distobs.cli  # noqa: F401  (the cli module is a target too)
        modules = [m for k, m in sys.modules.items()
                   if k == "distobs" or k.startswith("distobs.")]
        for (mod, attr), name in TARGETS.items():
            owner = sys.modules[f"distobs.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, orig))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
                        self._undo.append((m, key, orig))
        return self

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()


def layer_metrics(spans):
    """Per-target call counts and self times of one traced pass, plus the
    per-layer sizes named in the benchmark: largest ``spectral_radius``
    order and microseconds per node-step of each scheme's ``simulate``."""
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out = {}
    for prefix in TARGETS.values():
        out[f"{prefix}.calls"] = 0
        out[f"{prefix}.self_s"] = 0.0
    node_steps = {"Condition1Design": [0.0, 0], "C2ObserverBank": [0.0, 0]}
    max_dim = 0
    for (name, t0, t1, _, dim), child in zip(spans, child_time):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += (t1 - t0) - child
        if name == "numkit.spectral_radius":
            max_dim = max(max_dim, dim)
        elif name == "simkit.simulate":
            n_nodes, kind, K = dim
            acc = node_steps.setdefault(kind, [0.0, 0])
            acc[0] += t1 - t0
            acc[1] += n_nodes * K
    out["numkit.spectral_radius.max_dim"] = max_dim
    for kind, key in (("Condition1Design", "c1"), ("C2ObserverBank", "c2")):
        secs, steps = node_steps[kind]
        out[f"simkit.simulate.{key}_us_per_node_step"] = 1e6 * secs / steps if steps else 0.0
    return out
