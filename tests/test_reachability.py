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


def test_cli_reaches_no_private_name():
    # the command-line front end uses only the public names of the
    # package's modules: no module._name, no "from .module import _name"
    tree = ast.parse((SRC / "cli.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.level == 1 or node.module == "carkov")]
    modules = {alias.asname or alias.name for node in imports
               if node.module in (None, "carkov") for alias in node.names}
    private = sorted(
        {f"{n.value.id}.{n.attr}" for n in ast.walk(tree)
         if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
         and n.value.id in modules and n.attr.startswith("_")}
        | {f"{node.module}.{alias.name}" for node in imports
           for alias in node.names if alias.name.startswith("_")})
    assert private == []
