"""The package's public surface is what its own code runs.

Every top-level function and class, and every method or property that is
not a dunder, must be referenced somewhere under ``src/tilekit`` by name,
by attribute or by an import alias.  Docstrings and comments are not
references.  A definition that only tests call fails here: it belongs in
``tests/oracles.py`` or nowhere.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tilekit"


def _definitions(tree: ast.Module, module: str):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield f"{module}.{node.name}.{item.name}", item.name


def _references(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_definition_is_used_by_the_package():
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(SRC.glob("*.py"))}
    assert trees, f"no modules found under {SRC}"
    used: set[str] = set()
    for tree in trees.values():
        used |= _references(tree)
    unused = [qual for module, tree in trees.items()
              for qual, name in _definitions(tree, module) if name not in used]
    assert not unused, "defined but never referenced under src/tilekit: " \
        + ", ".join(unused)
