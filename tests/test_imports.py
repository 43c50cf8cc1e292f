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
