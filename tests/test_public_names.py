"""Every public name resolves: the package's and each submodule's
``__all__``, and every function the benchmark tracer wraps.  Deleting or
renaming a public name fails here rather than first in a traced benchmark
run.  The package also holds no ``assert`` statement."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import distobs

MODULES = ["distobs"] + [
    f"distobs.{m.name}" for m in pkgutil.iter_modules(distobs.__path__)
]
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
PACKAGE = Path(distobs.__file__).resolve().parent


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [attr for attr in getattr(mod, "__all__", ())
               if not hasattr(mod, attr)]
    assert missing == []


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for mod, attr in tracer.TARGETS:
        owner = importlib.import_module(f"distobs.{mod}")
        if "." in attr:
            # a method target is taken from its class's own namespace
            cls_name, meth = attr.split(".")
            ok = meth in vars(getattr(owner, cls_name, object))
        else:
            ok = callable(getattr(owner, attr, None))
        if not ok:
            missing.append((mod, attr))
    assert missing == []


def test_package_has_no_assert_statements():
    # ``python -O`` strips them, so the package checks by explicit raises
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
