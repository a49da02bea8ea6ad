"""Every function, class and module-level name of the library is used by the
library or the benchmark: none exists only for the tests."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "retroroute").glob("*.py"))
BENCHMARK = sorted(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))


def defined_names(tree: ast.Module) -> set[str]:
    """Every function and class, and every name a top-level assignment binds
    (each target of a tuple apart)."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    names = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, kinds) and not (node.name.startswith("__") and node.name.endswith("__"))
    }
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def used_names(tree: ast.AST) -> set[str]:
    """Names read as a name, an attribute or a string constant; the
    benchmark's tracer names the layers it wraps as strings. A name counts
    only where it is loaded, since an assignment's target is a name too."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
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
