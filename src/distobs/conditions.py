"""Feasibility analysis for distributed observers.

Whether any distributed observer can exist on a given network comes down to
two graded questions about the source components (the parts of the graph
nobody informs from outside):

* Condition 1 — can each source component detect every unstable eigenvalue
  *collectively*, stacking all its nodes' outputs?
* Condition 2 — does each source component contain, for every unstable
  eigenvalue class, at least one *root node* whose own outputs detect it?

The second implies the first and enables the per-eigenvalue design route;
the first suffices for the sub-state consensus route.  Verdicts come with
diagnostics naming the failing component and eigenvalue.

Every verdict reads one table of rank decisions: one eigen-pass of ``A``,
then one rank test per distinct output matrix and one per source component
(outputs stacked) for each class on or near the unit circle, so no question
is answered twice.  Nodes with identical outputs (most often relay-only nodes
that measure nothing) share one set of tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import numkit as nk
from .errors import NumericalError
from .netgraph import source_components

__all__ = [
    "ComponentCheck",
    "ConditionVerdict",
    "FeasibilityReport",
    "detectable_set",
    "check_condition1",
    "check_condition2",
    "feasibility_report",
]


def detectable_set(A, C_i, tol=None, info=None):
    """Indices of the eigenvalue classes detectable from ``C_i`` alone.

    Stable classes are always detectable; classes on or numerically near the
    unit circle must pass the rank test ``[A - lam I; C_i]`` at full column
    rank.  ``info`` may carry a precomputed :func:`numkit.eigen_info` result
    for ``A``; indices refer to its class ordering.
    """
    tol = tol or nk.DEFAULT_TOL
    A = nk.as_square(A, "A")
    info = info or nk.eigen_info(A, tol)
    unstable = info.unstable_classes(tol)
    return tuple(
        k for k, cls in enumerate(info.classes)
        if k not in unstable or nk.pbh_rank_ok(A, C_i, cls.rep, tol)
    )


@dataclass(frozen=True)
class ComponentCheck:
    """Verdict for one source component.

    ``failing`` lists the eigenvalue-class representatives the component
    cannot handle; ``roots`` (filled by the per-eigenvalue check) maps each
    covered class index to the in-component nodes that detect it on their own.
    """

    component: tuple
    ok: bool
    failing: tuple
    roots: dict


@dataclass(frozen=True)
class ConditionVerdict:
    """Overall verdict with per-source-component detail."""

    ok: bool
    components: tuple

    def failing_components(self):
        return tuple(c for c in self.components if not c.ok)


class _RankTable:
    """One eigen-pass of ``A`` and the rank decisions the verdicts read.

    ``unstable`` lists the classes needing coverage.  ``local(i)`` is node
    ``i``'s :func:`detectable_set`, made once per distinct output matrix on
    first read and kept, so no verdict repeats a rank test another one has
    made and nodes with identical outputs share one.  :meth:`detectors`
    inverts the per-node sets into the root sets, once per report.
    """

    def __init__(self, p, g, tol):
        self.p, self.tol = p, tol
        self.info = nk.eigen_info(p.A, tol)
        self.unstable = self.info.unstable_classes(tol)
        self.comps = tuple(source_components(g))
        self._local = {}

    def detects(self, C):
        return detectable_set(self.p.A, C, self.tol, self.info)

    def local(self, i):
        r = self.p._output_rep[i - 1]
        if r not in self._local:
            self._local[r] = self.detects(self.p.C[r - 1])
        return self._local[r]

    def detectors(self, nodes):
        """Each class needing coverage mapped to the nodes of ``nodes``
        (ascending ids) that detect it on their own."""
        out = {k: [] for k in self.unstable}
        for i in nodes:
            for k in self.local(i):
                if k in out:
                    out[k].append(i)
        return {k: tuple(found) for k, found in out.items()}

    def _verdict(self, covered, roots):
        """Verdict over the source components; ``covered[c]`` holds the
        classes component ``c`` covers, ``roots[c]`` its root map."""
        checks = []
        for comp, seen, r in zip(self.comps, covered, roots):
            failing = tuple(
                self.info.classes[k].rep for k in self.unstable if k not in seen
            )
            checks.append(ComponentCheck(comp, not failing, failing, r))
        return ConditionVerdict(all(c.ok for c in checks), tuple(checks))

    def condition1(self):
        """One stacked test per source component and class."""
        covered = [self.detects(self.p.stacked_output(c)) for c in self.comps]
        return self._verdict(covered, [{} for _ in self.comps])

    def condition2(self, detectors=None):
        """Root existence, read from the members' own tests.

        ``detectors`` is a :meth:`detectors` map over any superset of the
        source components' members (default: exactly those members).  Roots
        come out in ascending order, the order components list members in.
        """
        if detectors is None:
            detectors = self.detectors(sorted(i for c in self.comps for i in c))
        roots = []
        for comp in self.comps:
            members = frozenset(comp)
            here = {k: tuple(i for i in nodes if i in members)
                    for k, nodes in detectors.items()}
            roots.append({k: nodes for k, nodes in here.items() if nodes})
        return self._verdict(roots, roots)


def check_condition1(p, g, tol=None):
    """Collective detectability of every source component.

    For each source component, stacks the outputs of all member nodes and
    runs the rank test at every eigenvalue class on or near the unit circle.
    """
    return _RankTable(p, g, tol or nk.DEFAULT_TOL).condition1()


def check_condition2(p, g, tol=None):
    """Root-node existence per source component and unstable eigenvalue class.

    A class fails for a component when no member node detects it with its own
    outputs alone; ``roots`` records who does, which is exactly what the
    per-eigenvalue synthesis needs.
    """
    return _RankTable(p, g, tol or nk.DEFAULT_TOL).condition2()


@dataclass(frozen=True)
class FeasibilityReport:
    """Combined feasibility picture for a plant on a network.

    ``per_node_detectable`` holds each node's locally detectable class
    indices; ``root_sets`` maps each covered class index to every node in the
    whole graph that detects it.  Every field is read from one table of rank
    decisions, so the verdicts cannot disagree by accident.
    """

    classes: tuple
    unstable: tuple
    per_node_detectable: tuple
    root_sets: dict
    source_comps: tuple
    cond1: ConditionVerdict
    cond2: ConditionVerdict


def feasibility_report(p, g, tol=None):
    """Run both conditions and assemble the full report.

    The per-eigenvalue condition implies the collective one; if the two
    verdicts ever disagree in that direction the rank decisions are
    inconsistent at the working tolerance, which is reported as an error
    rather than returned silently.
    """
    t = _RankTable(p, g, tol or nk.DEFAULT_TOL)
    nodes = range(1, p.n_nodes + 1)
    per_node = tuple(t.local(i) for i in nodes)
    root_sets = t.detectors(nodes)
    c1 = t.condition1()
    c2 = t.condition2(root_sets)
    if c2.ok and not c1.ok:
        raise NumericalError(
            "rank decisions are inconsistent: per-eigenvalue coverage holds "
            "but collective detectability fails; adjust tolerances"
        )
    return FeasibilityReport(
        classes=t.info.classes,
        unstable=t.unstable,
        per_node_detectable=per_node,
        root_sets=root_sets,
        source_comps=t.comps,
        cond1=c1,
        cond2=c2,
    )
