"""Shared exception taxonomy.

Every error raised by the toolkit derives from :class:`DistobsError` so callers
(and the CLI) can map failures to outcomes without string matching.  The split
mirrors how a design session actually fails: bad inputs, infeasible network
structure, or numerics that refuse to certify.
"""

__all__ = [
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


class DistobsError(Exception):
    """Base class for all toolkit errors."""


class InvalidMatrix(DistobsError):
    """A matrix input contains NaN/Inf entries or is not a 2-D real array."""


class ShapeError(DistobsError):
    """Matrix/vector dimensions are inconsistent with each other."""


class NotObservable(DistobsError):
    """A pair that must be observable for the requested operation is not."""


class NotDetectable(DistobsError):
    """A pair that must be detectable for the requested operation is not."""


class NumericalError(DistobsError):
    """A numerical certification failed (rank/structure/spectrum checks)."""


class NotSpanning(DistobsError):
    """No spanning tree/forest/DAG reaches every node from the given roots.

    Attributes
    ----------
    unreachable : frozenset[int]
        Node ids that no root reaches.
    """

    def __init__(self, message, unreachable=()):
        super().__init__(message)
        self.unreachable = frozenset(unreachable)


class InvalidTransform(DistobsError):
    """A user-supplied similarity transform is singular or too ill-conditioned."""


class IllConditionedJordan(DistobsError):
    """Eigenstructure extraction could not be certified at the working tolerance.

    Raised instead of silently returning a dubious class basis.  When only
    the assembled basis fails, the message points at the
    sequential-decomposition design route, which does not need it.

    Attributes
    ----------
    eigenvalue : complex or None
        The eigenvalue whose class basis failed certification, when a
        single one can be named.
    """

    def __init__(self, message, eigenvalue=None):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class Condition2Infeasible(DistobsError):
    """The per-eigenvalue design has no root coverage for some unstable mode.

    Attributes
    ----------
    eigenvalue : complex or None
        The offending eigenvalue, when a single one can be named.
    """

    def __init__(self, message, eigenvalue=None):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class InvalidSignal(DistobsError):
    """A switching signal is malformed or inconsistent with the network."""


class ScenarioError(DistobsError):
    """A scenario or bank file fails schema validation."""
