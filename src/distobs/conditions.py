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
then one staircase on the class block of each class on or near the unit
circle per distinct output matrix and per source component (outputs
stacked), so no question is answered twice.  Nodes with identical outputs
(most often relay-only nodes that measure nothing) share one set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numkit as nk
from .errors import IllConditionedJordan, NumericalError, ShapeError
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


def detectable_set(A, C_i, tol=None):
    """Indices of the eigenvalue classes detectable from ``C_i`` alone.

    Stable classes are always detectable; a class on or numerically near
    the unit circle is when the staircase (:func:`numkit.obs_canon_decomp`)
    of its block ``(V.T @ A @ V, C_i @ V)``, ranked against
    ``rank_tol * max(||A||_2, ||C_i||_2)``, observes it whole.  Indices
    refer to the :func:`numkit.eigen_info` class ordering.
    """
    tol = tol or nk.DEFAULT_TOL
    A = nk.as_square(A, "A")
    C_i = nk.as_matrix(C_i, "C_i", cols=A.shape[0])
    return _RankTable(A, tol).detects(0, C_i)


def _class_basis(A, cls, tol, norm_A):
    """Orthonormal real basis ``V`` of one eigenvalue class and its block.

    The class's factors are ``A - w I`` over its computed eigenvalues ``w``
    (``cls.members``); a conjugate pair ``a +- bi`` with ``b`` above
    ``rank_tol * ||A||_2`` is one real factor ``(A - aI)^2 + b^2 I``.
    ``V`` spans the kernel of the product of the first factors, as many as
    it takes to reach ``cls.dim`` (one for a diagonalizable class, the index
    for a defective one), so it is ``A``-invariant and the block is
    ``V.T @ A @ V``.  Each product is ranked against ``rank_tol`` times the
    product of its factors' norms (Frobenius, which costs no SVD): on the
    rest of the space the product is as small as the distance to the
    nearest other class makes it, and each factor's norm follows that
    distance, so a near neighbour lowers the cutoff with it.  Each factor
    counts at least ``m * eps * ||A||_2 / rank_tol`` for ``m`` members, the
    norm below which its rounding is not resolved.  A kernel whose
    dimension is not ``cls.dim`` raises :class:`IllConditionedJordan`: a
    dubious class basis is worse than none.
    """
    n, w = A.shape[0], cls.members
    I = np.eye(n)
    floor = len(w) * nk._EPS * norm_A / tol.rank_tol
    P, anchor = I, 1.0
    for wj in w:
        b = wj.imag if abs(wj.imag) > tol.rank_tol * norm_A else 0.0
        if b < 0:
            continue
        S = A - wj.real * I
        P = P @ (S @ S + b * b * I if b else S)
        norm = np.sqrt(np.sum(S * S) + n * b * b)
        anchor *= max(norm, floor) ** (2 if b else 1)
        _, s, Vh = np.linalg.svd(P)
        r = int(np.count_nonzero(s > tol.rank_tol * anchor))
        if n - r >= cls.dim:
            break
    if n - r != cls.dim:
        raise IllConditionedJordan(
            f"eigenvalue class at {cls.rep:.6g} could not be certified: the "
            f"kernel of its polynomial has dimension {n - r}, not its "
            f"multiplicity {cls.dim}",
            eigenvalue=cls.rep,
        )
    V = Vh[r:].T
    return V, V.T @ A @ V


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
    """One eigen-pass of ``A`` and every rank decision made on it.

    ``unstable`` lists the classes needing coverage.  Class bases and the
    staircases of the class blocks against the output a ``key`` stands for
    (a node id, or a source component) are each made once and kept, so a
    verdict, a node split and a local gain all read the same decision.
    """

    def __init__(self, A, tol):
        self.A, self.tol = A, tol
        self.info = nk.eigen_info(A, tol)
        self.unstable = self.info.unstable_classes(tol)
        self.norm_A = float(np.linalg.norm(A, 2))
        self._bases, self._splits = {}, {}

    def basis(self, k):
        """``(V, block)`` of class ``k`` (:func:`_class_basis`)."""
        if k not in self._bases:
            self._bases[k] = _class_basis(self.A, self.info.classes[k],
                                          self.tol, self.norm_A)
        return self._bases[k]

    def splits(self, key, C, ks):
        """Map of class ``k`` (each of ``ks`` at least) to the staircase
        ``(T_k, o_k)`` of its block against ``C``."""
        if key not in self._splits:
            # ||C||_2 <= ||C||_F: most outputs need no SVD to lose to ||A||_2
            scale = self.norm_A
            if np.linalg.norm(C) > scale:
                scale = max(scale, float(np.linalg.norm(C, 2)))
            self._splits[key] = (scale, {})
        scale, made = self._splits[key]
        for k in ks:
            if k not in made:
                V, block = self.basis(k)
                made[k] = nk.obs_canon_decomp(block, C @ V, self.tol, scale)
        return made

    def detects(self, key, C):
        """The classes ``C`` detects alone: every stable class, and each
        class needing coverage whose block it observes whole."""
        made = self.splits(key, C, self.unstable)
        return tuple(k for k, cls in enumerate(self.info.classes)
                     if k not in self.unstable or made[k][1] == cls.dim)

    def root_sets(self, p, nodes):
        """``(local, roots)``: the classes each distinct output of ``nodes``
        detects, by its lowest node id, and each class needing coverage
        mapped to the nodes of ``nodes`` that detect it, ascending."""
        groups = {}
        for i in nodes:
            groups.setdefault(p._output_rep[i - 1], []).append(i)
        local = {r: self.detects(r, p.C[r - 1]) for r in groups}
        return local, {k: tuple(sorted(i for r, ids in groups.items()
                                       if k in local[r] for i in ids))
                       for k in self.unstable}

    def verdict(self, comps, covered, roots):
        """Verdict over the source components ``comps``; ``covered[c]``
        holds the classes component ``c`` covers, ``roots[c]`` its root
        map."""
        checks = []
        for comp, seen, r in zip(comps, covered, roots):
            failing = tuple(
                self.info.classes[k].rep for k in self.unstable if k not in seen
            )
            checks.append(ComponentCheck(comp, not failing, failing, r))
        return ConditionVerdict(all(c.ok for c in checks), tuple(checks))

    def condition1(self, p, comps):
        """One stacked decision per source component."""
        covered = [self.detects(c, p.stacked_output(c)) for c in comps]
        return self.verdict(comps, covered, [{} for _ in comps])

    def condition2(self, comps, roots_all):
        """Root existence, read from the members' own decisions.

        ``roots_all`` is a :meth:`root_sets` map over any superset of the
        source components' members.  Roots come out in ascending order, the
        order components list members in.
        """
        roots = []
        for comp in comps:
            members = frozenset(comp)
            here = {k: tuple(i for i in nodes if i in members)
                    for k, nodes in roots_all.items()}
            roots.append({k: nodes for k, nodes in here.items() if nodes})
        return self.verdict(comps, roots, roots)


def _same_nodes(p, g):
    """Raise ``ShapeError`` unless ``g`` has a node for each of ``p``'s
    output matrices and no other."""
    if g.n_nodes != p.n_nodes:
        raise ShapeError(f"the plant has {p.n_nodes} nodes but the graph has "
                         f"{g.n_nodes}")


def check_condition1(p, g, tol=None):
    """Collective detectability of every source component.

    For each source component, stacks the outputs of all member nodes and
    decides each class on or near the unit circle as :func:`detectable_set`.
    """
    _same_nodes(p, g)
    comps = tuple(source_components(g))
    return _RankTable(p.A, tol or nk.DEFAULT_TOL).condition1(p, comps)


def check_condition2(p, g, tol=None):
    """Root-node existence per source component and unstable eigenvalue class.

    A class fails for a component when no member node detects it with its own
    outputs alone (:func:`detectable_set`); ``roots`` records who does, which
    is exactly what the per-eigenvalue synthesis needs.
    """
    _same_nodes(p, g)
    comps = tuple(source_components(g))
    t = _RankTable(p.A, tol or nk.DEFAULT_TOL)
    _, roots = t.root_sets(p, [i for c in comps for i in c])
    return t.condition2(comps, roots)


@dataclass(frozen=True)
class FeasibilityReport:
    """Combined feasibility picture for a plant on a network.

    ``per_node_detectable`` holds each node's locally detectable class
    indices; ``root_sets`` maps each covered class index to every node in the
    whole graph that detects it.  Every field is read from one table of rank
    decisions, so the verdicts cannot disagree by accident; ``table`` keeps
    it for :func:`~distobs.decomp.jordan_system`.
    """

    classes: tuple
    unstable: tuple
    per_node_detectable: tuple
    root_sets: dict
    source_comps: tuple
    cond1: ConditionVerdict
    cond2: ConditionVerdict
    table: _RankTable = field(compare=False, repr=False)


def feasibility_report(p, g, tol=None):
    """Run both conditions and assemble the full report.

    The per-eigenvalue condition implies the collective one; if the two
    verdicts ever disagree in that direction the rank decisions are
    inconsistent at the working tolerance, which is reported as an error
    rather than returned silently.  A graph without exactly one node per
    output matrix of ``p`` raises ``ShapeError``, here and in both checks.
    """
    _same_nodes(p, g)
    t = _RankTable(p.A, tol or nk.DEFAULT_TOL)
    comps = tuple(source_components(g))
    local, root_sets = t.root_sets(p, range(1, p.n_nodes + 1))
    c1 = t.condition1(p, comps)
    c2 = t.condition2(comps, root_sets)
    if c2.ok and not c1.ok:
        raise NumericalError(
            "rank decisions are inconsistent: per-eigenvalue coverage holds "
            "but collective detectability fails; adjust tolerances"
        )
    return FeasibilityReport(
        classes=t.info.classes,
        unstable=t.unstable,
        per_node_detectable=tuple(map(local.__getitem__, p._output_rep)),
        root_sets=root_sets,
        source_comps=comps,
        cond1=c1,
        cond2=c2,
        table=t,
    )
