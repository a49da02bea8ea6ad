"""Every function and class of the library is used by the library or the
benchmark: none exists only for the tests."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "retroroute").glob("*.py"))
BENCHMARK = sorted(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))


def defined_names(tree: ast.AST) -> set[str]:
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, kinds) and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def used_names(tree: ast.AST) -> set[str]:
    """Names read as a name, an attribute or a string constant; the
    benchmark's tracer names the layers it wraps as strings."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def test_every_library_definition_is_named_by_the_library_or_the_benchmark():
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in LIBRARY + BENCHMARK:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used |= used_names(tree)
        if path in LIBRARY:
            defined.update((name, path.name) for name in defined_names(tree))
    assert LIBRARY and BENCHMARK
    unused = sorted(f"{module}: {name}" for name, module in defined.items() if name not in used)
    assert unused == []
