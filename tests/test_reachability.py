"""The package holds only what its own modules or its public API reach."""

import ast
from pathlib import Path

import carkov

SRC = Path(__file__).resolve().parent.parent / "src" / "carkov"


def _used_names(nodes) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for node in nodes for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_top_level_definition_is_reached():
    # a definition's own body does not count as a use of it
    bodies = [ast.parse(p.read_text()).body for p in sorted(SRC.glob("*.py"))]
    unreached = [
        node.name for body in bodies for node in body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in carkov.__all__
        and node.name not in _used_names(
            other for other_body in bodies for other in other_body
            if other is not node)
    ]
    assert unreached == []
