"""pavc runs on the standard library alone: every import in src/pavc is
pavc itself or a standard-library module."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "pavc").glob("*.py"))


def imported(tree):
    """Top-level names of the modules that `tree` imports; a relative
    import counts as pavc."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "pavc" if node.level else node.module.partition(".")[0]


def test_runtime_imports_are_stdlib_only():
    assert SOURCES  # an empty glob would pass silently
    foreign = {(path.name, name) for path in SOURCES
               for name in imported(ast.parse(path.read_text()))
               if name != "pavc" and name not in sys.stdlib_module_names}
    assert foreign == set()


def test_private_top_level_names_are_used():
    """Every top-level private name (_x) of a module in src/pavc is read,
    as a name or an attribute, somewhere in src/pavc: no dead helpers."""
    defined, used = set(), set()
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined.update((path.name, n) for n in names if n.startswith("_")
                           and not n.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert defined  # an empty scan would pass silently
    assert {(m, n) for m, n in defined if n not in used} == set()


def test_imported_names_are_used():
    """Every name that a module in src/pavc other than __init__.py
    imports is read in that module: no unused imports."""
    imports, unused = 0, set()
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        bound = {alias.asname or alias.name.partition(".")[0]
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Import) or (
                     isinstance(node, ast.ImportFrom) and node.module != "__future__")
                 for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        imports += len(bound)
        unused |= {(path.name, name) for name in bound - read}
    assert imports  # an empty scan would pass silently
    assert unused == set()
