"""Distributed state observers for LTI plants over directed sensor networks.

A toolkit for discrete-time LTI plants watched by a network of sensor
nodes: sequential observability decompositions, graph-level feasibility
conditions, two observer synthesis schemes (sub-state consensus and
per-eigenvalue relay), and a simulation harness with link-failure
switching.  The :mod:`distobs.cli` module exposes the same pipeline as
the ``distobs`` command.
"""

from . import (conditions, decomp, errors, netgraph, numkit, simkit,
               synth_c1, synth_c2)
from .conditions import *  # noqa: F401,F403  (each module's __all__)
from .decomp import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .netgraph import *  # noqa: F401,F403
from .numkit import ToleranceConfig
from .simkit import *  # noqa: F401,F403
from .synth_c1 import *  # noqa: F401,F403
from .synth_c2 import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["numkit", "ToleranceConfig"] + [
    name
    for mod in (decomp, netgraph, conditions, synth_c1, synth_c2, simkit, errors)
    for name in mod.__all__
]
