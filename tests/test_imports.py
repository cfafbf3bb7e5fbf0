"""Module boundaries: package modules import only each other's public names,
and every name the benchmark wraps is still bound where it wraps it."""

import ast
import importlib
from pathlib import Path

import signrank

PACKAGE_DIR = Path(signrank.__file__).parent


def private_sibling_imports(source: str) -> list[str]:
    """Underscore names that `source` imports from a sibling package module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "signrank":
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                found.append(f"{node.module or '.'}.{alias.name}")
    return found


def test_detector_sees_relative_and_absolute_forms():
    source = (
        "from .rank2 import Rank2Type, _walk_covectors\n"
        "from signrank.minrank import (\n    _type_admits,\n)\n"
        "from itertools import _private_elsewhere\n"
        "from . import __version__\n"
    )
    assert private_sibling_imports(source) == ["rank2._walk_covectors", "signrank.minrank._type_admits"]


def test_no_module_imports_a_private_sibling_name():
    offenders = {
        path.name: names
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if (names := private_sibling_imports(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def test_every_exported_name_is_bound():
    # a deleted definition must take its __all__ entry with it
    stale = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        name = "signrank" if path.stem == "__init__" else f"signrank.{path.stem}"
        module = importlib.import_module(name)
        stale += [f"{name}.{attr}" for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert stale == []


def test_every_binding_the_benchmark_wraps_exists(monkeypatch):
    # bench/run.py --trace wraps these names where the calling module binds
    # them; a binding that a simplification drops must fail here first
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    workloads = importlib.import_module("workloads")
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in workloads.trace_points()
        if not hasattr(module, attr)
    ]
    assert missing == []
