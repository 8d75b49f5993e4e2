"""Distributed state observers for LTI plants over directed sensor networks.

A toolkit for discrete-time LTI plants watched by a network of sensor
nodes: sequential observability decompositions, graph-level feasibility
conditions, two observer synthesis schemes (sub-state consensus and
per-eigenvalue relay), and a simulation harness with link-failure
switching.  The :mod:`distobs.cli` module exposes the same pipeline as
the ``distobs`` command.
"""

from . import numkit
from .conditions import (
    ConditionVerdict,
    FeasibilityReport,
    check_condition1,
    check_condition2,
    detectable_set,
    feasibility_report,
)
from .decomp import (
    JordanSystem,
    MultiSensorDecomposition,
    NodeSplit,
    Plant,
    apply_given_transformation,
    decomposition_from_transform,
    jordan_grouped,
    jordan_system,
    multisensor_decompose,
    node_local_split,
)
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
from .netgraph import (
    Digraph,
    SpanningStructure,
    source_components,
    spanning_dag,
    strong_components,
    subgraph,
)
from .numkit import ToleranceConfig
from .simkit import (
    Assumption2Check,
    SimulationTrace,
    SwitchingSignal,
    convergence_metrics,
    dag_parent_map,
    make_assumption2_signal,
    simulate,
    validate_assumption2,
)
from .synth_c1 import (
    CompactObserverBank,
    Condition1Design,
    StabilityReport,
    assemble_compact_bank,
    certify_stability,
    design_condition1,
    design_gains,
)
from .synth_c2 import (
    C2ObserverBank,
    assemble_c2_bank,
    design_condition2,
    eig_consensus_weights,
    local_observer,
)

__version__ = "0.1.0"

__all__ = [
    "numkit",
    "ToleranceConfig",
    "Plant",
    "MultiSensorDecomposition",
    "NodeSplit",
    "JordanSystem",
    "multisensor_decompose",
    "apply_given_transformation",
    "decomposition_from_transform",
    "jordan_grouped",
    "jordan_system",
    "node_local_split",
    "Digraph",
    "SpanningStructure",
    "strong_components",
    "source_components",
    "subgraph",
    "spanning_dag",
    "ConditionVerdict",
    "FeasibilityReport",
    "check_condition1",
    "check_condition2",
    "detectable_set",
    "feasibility_report",
    "CompactObserverBank",
    "Condition1Design",
    "StabilityReport",
    "design_gains",
    "assemble_compact_bank",
    "certify_stability",
    "design_condition1",
    "C2ObserverBank",
    "local_observer",
    "eig_consensus_weights",
    "assemble_c2_bank",
    "design_condition2",
    "SwitchingSignal",
    "SimulationTrace",
    "Assumption2Check",
    "simulate",
    "dag_parent_map",
    "make_assumption2_signal",
    "validate_assumption2",
    "convergence_metrics",
    "DistobsError",
    "InvalidMatrix",
    "ShapeError",
    "NotObservable",
    "NotDetectable",
    "NumericalError",
    "NotSpanning",
    "InvalidTransform",
    "IllConditionedJordan",
    "Condition2Infeasible",
    "InvalidSignal",
    "ScenarioError",
]
