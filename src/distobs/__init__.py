"""Distributed state observers for LTI plants over directed sensor networks.

A toolkit for discrete-time LTI plants watched by a network of sensor
nodes: sequential observability decompositions, graph-level feasibility
conditions, two observer synthesis schemes (sub-state consensus and
per-eigenvalue relay), and a simulation harness with link-failure
switching.  The :mod:`distobs.cli` module exposes the same pipeline as
the ``distobs`` command.

Modules load on first attribute use.  ``import distobs`` loads none of
them; reading a submodule (``distobs.numkit``) loads that submodule and what
it imports, and reading any other public name (``distobs.Plant``,
``distobs.__all__``, ``from distobs import *``) loads every module and binds
each name of its ``__all__`` here.
"""

import importlib

__version__ = "0.1.0"

# the modules whose ``__all__`` the package republishes whole, in order
_REPUBLISHED = ("decomp", "netgraph", "conditions", "synth_c1", "synth_c2",
                "simkit", "errors")
_SUBMODULES = frozenset(_REPUBLISHED + ("numkit", "cli"))


def _bind_all():
    """Import every republished module and bind its ``__all__`` here, once."""
    g = globals()
    if "__all__" in g:
        return
    from .numkit import ToleranceConfig
    names = ["numkit", "ToleranceConfig"]
    g["ToleranceConfig"] = ToleranceConfig
    for mod in map(__getattr__, _REPUBLISHED):
        g.update((name, getattr(mod, name)) for name in mod.__all__)
        names += mod.__all__
    g["__all__"] = names


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name == "__all__" or not name.startswith("_"):
        _bind_all()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
