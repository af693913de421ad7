"""Checks on the library source itself, read as syntax trees."""

import ast
from pathlib import Path

import diracgap

SOURCES = sorted(Path(diracgap.__file__).parent.glob("*.py"))


def test_every_public_function_is_used_by_the_library():
    # A public function or method that no module of the library names is code
    # that only the tests reach: an oracle belongs in tests/oracles.py.
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            is_class = isinstance(node, ast.ClassDef)
            owner, members = (f"{node.name}.", node.body) if is_class else ("", [node])
            unused += [f"{module}.{owner}{f.name}" for f in members
                       if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                       and not f.name.startswith("_") and f.name not in used]
    assert unused == []
