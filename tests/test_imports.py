"""Module boundaries: package modules import only each other's public names
and read no other module's private attributes, every name the benchmark
wraps is still bound where it wraps it, the two traced names that nothing
calls stay uncalled, only the deadline and the selftest log read the
clock, and only covectors multiplies by a RationalMatrix in Fractions."""

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


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_attribute_reads(source: str) -> list[str]:
    """Underscore attributes that `source` reads on anything but self or cls
    and does not define itself (as a def, a class, an assignment target, a
    `__slots__` entry or a name passed to setattr), with their line numbers."""
    tree = ast.parse(source)
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for part in ast.walk(target):
                    if isinstance(part, ast.Name):
                        defined.add(part.id)
                    elif isinstance(part, ast.Attribute):
                        defined.add(part.attr)
            if any(isinstance(t, ast.Name) and t.id == "__slots__" for t in targets):
                defined.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
        elif isinstance(node, ast.Call) and len(node.args) >= 2:
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("setattr", "__setattr__") and isinstance(node.args[1], ast.Constant):
                defined.add(node.args[1].value)
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and _is_private(node.attr)
            and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
            and node.attr not in defined
        ):
            found.append(f"{node.attr}:{node.lineno}")
    return sorted(found, key=lambda entry: int(entry.split(":")[1]))


def test_attribute_detector_sees_reads_defined_elsewhere():
    source = (
        "class Bits:\n"
        "    __slots__ = ('_bits',)\n"
        "    def _decode(self):\n        return self._table, cls._width\n"
        "def read(x, other):\n"
        "    object.__setattr__(x, '_cache', 1)\n"
        "    x._count = 0\n"
        "    return x._bits, x._decode(), x._cache, x._count, x.__class__, other._lookup\n"
        "total = signs.SignVectorSet._from_bits(3, 0)\n"
    )
    assert private_attribute_reads(source) == ["_lookup:8", "_from_bits:9"]


def test_no_module_reads_a_private_attribute_it_does_not_define():
    offenders = {
        path.name: found
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if (found := private_attribute_reads(path.read_text(encoding="utf-8")))
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


# traced by the benchmark, called by nothing in the package: deleting them
# needs only their trace points moved
BINDING_ONLY = ("strict_feasibility", "random_upper_bound")


def calls_to(source: str, names) -> list[str]:
    """Calls in `source` of any of `names`, bare or as an attribute, with
    their line numbers; definitions and imports are not calls."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                found.append(f"{name}:{node.lineno}")
    return found


def test_call_detector_ignores_definitions_and_imports():
    source = (
        "from .minrank import random_upper_bound\n"
        "def strict_feasibility(equalities, positives):\n    return None\n"
        "upper = minrank.random_upper_bound(pattern, 3)\n"
        "x = strict_feasibility([], [])\n"
    )
    assert calls_to(source, BINDING_ONLY) == ["random_upper_bound:4", "strict_feasibility:5"]


def test_binding_only_names_have_no_caller():
    callers = {
        path.name: found
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if (found := calls_to(path.read_text(encoding="utf-8"), BINDING_ONLY))
    }
    assert callers == {}


# witness images elsewhere are integer products with the rows of D B
# (rational.integer_rows); only covectors multiplies a vector by a
# RationalMatrix in Fractions
APPLY_CALLERS = ("covectors.py",)


def test_only_covectors_applies_a_rational_matrix():
    callers = {
        path.name: found
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name not in APPLY_CALLERS
        if (found := calls_to(path.read_text(encoding="utf-8"), ("apply",)))
    }
    assert callers == {}


# errors.Deadline is the one clock behind every budgeted search; selftest
# times its checks for the log
CLOCK_READERS = ("errors.py", "selftest.py")


def test_only_the_deadline_and_selftest_read_the_clock():
    readers = {
        path.name: found
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name not in CLOCK_READERS
        if (found := calls_to(path.read_text(encoding="utf-8"), ("monotonic", "perf_counter")))
    }
    assert readers == {}


def names_imported(source: str, names) -> list[str]:
    """Any of `names` that `source` imports with `from ... import` or reads
    as a module attribute (math.lcm), with their line numbers."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [f"{alias.name}:{node.lineno}" for alias in node.names if alias.name in names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.attr in names:
            found.append(f"{node.attr}:{node.lineno}")
    return sorted(found, key=lambda entry: int(entry.split(":")[1]))


def test_import_detector_sees_from_imports_and_module_attributes():
    source = (
        "from math import gcd, lcm\n"
        "import math\n"
        "scale = math.lcm(2, 3)\n"
        "def lcm(a, b):\n    return a * b\n"
        "x = lcm(1, 2)\n"
        "from fractions import Fraction\n"
    )
    assert names_imported(source, ("lcm",)) == ["lcm:1", "lcm:3"]


# rational.integer_rows is the one place where rationals become integers
LCM_IMPORTERS = ("rational.py",)


def test_only_rational_scales_by_an_lcm():
    importers = {
        path.name: found
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name not in LCM_IMPORTERS
        if (found := names_imported(path.read_text(encoding="utf-8"), ("lcm",)))
    }
    assert importers == {}
