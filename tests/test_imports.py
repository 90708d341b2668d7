"""No module of the package imports a name it never uses or keeps a dead helper.

The project has no linter, so these AST scans stand in for two checks: every
name a module-level import binds, and every module-level ``_name`` the module
defines, must be referenced somewhere in the module, in code or in a quoted
annotation. ``__init__.py`` is skipped, because its imports are the package's
re-exports.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "avgproc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each module-level import -> its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def quoted_annotation_names(tree: ast.Module) -> set[str]:
    names = set()
    for ann in annotations(tree):
        for node in ast.walk(ann):
            # a quoted annotation such as -> "EventSchedule"
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                names.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return names


def used_names(tree: ast.Module) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | quoted_annotation_names(tree)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_scan_flags_unused_and_reads_quoted_annotations():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Callable, Iterable\n"
        "def f(x: 'Iterable[int]') -> int:\n"
        "    return os.sep\n")
    used = used_names(tree)
    assert [n for n in imported_names(tree) if n not in used] == ["np", "Callable"]


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level ``_name`` (not dunder) bound by def, class or assignment -> its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update((n.id, node.lineno) for n in ast.walk(target)
                             if isinstance(n, ast.Name))
    return {n: line for n, line in names.items()
            if n.startswith("_") and not n.startswith("__")}


def loaded_names(tree: ast.Module) -> set[str]:
    """Names the module reads, in code or in a quoted annotation (assignments do not count)."""
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
             and not isinstance(n.ctx, ast.Store)} | quoted_annotation_names(tree))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unreferenced_private_names(path):
    # a private helper its own module never uses is dead code, typically one a refactor orphaned
    tree = ast.parse(path.read_text(), filename=str(path))
    loaded = loaded_names(tree)
    orphans = {n: line for n, line in private_definitions(tree).items() if n not in loaded}
    assert not orphans, f"{path.name}: module-level private names never referenced {orphans}"


def test_scan_flags_unreferenced_private_names():
    tree = ast.parse(
        "_A = 1\n"
        "_B: int = 2\n"
        "__version__ = '0'\n"
        "def _used(): return _A\n"
        "def _orphan(): _B = 3\n"
        "class _Kept: pass\n"
        "def f(x: '_Kept'): return _used()\n")
    loaded = loaded_names(tree)
    assert [n for n in private_definitions(tree) if n not in loaded] == ["_B", "_orphan"]
