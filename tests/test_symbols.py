"""Every function, class and method defined in `src/iabsim/` is referenced
somewhere in `src/` besides its own definition.

A definition that nothing in the package refers to is dead code or serves
only the tests: delete it, or move it to `tests/oracle.py` when the tests use
it as a reference. Imports and ``__all__`` strings are not references, so a
re-export alone does not keep a name alive. Names are matched bare, so a
definition passes when any name or attribute in `src/` spells the same.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Called by a library through a naming convention, never by name in `src/`.
ALLOWED = {
    "_NonFinite.visit_Name",  # dispatched by ast.NodeVisitor.visit
}


def _definitions(tree):
    """(qualified name, bare name) of each top-level function and class
    and each method that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("__")):
                    yield f"{node.name}.{item.name}", item.name


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_definition_is_referenced():
    trees = [ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(SRC.rglob("*.py"))]
    referenced = {name for tree in trees for name in _references(tree)}
    unreferenced = sorted(qualified for tree in trees
                          for qualified, name in _definitions(tree)
                          if name not in referenced
                          and qualified not in ALLOWED)
    assert unreferenced == []
