"""Every function, class and method defined in `src/iabsim/` is referenced
somewhere in `src/` besides its own definition, and every name a module
imports is used in that module.

A definition that nothing in the package refers to is dead code or serves
only the tests: delete it, or move it to `tests/oracle.py` when the tests use
it as a reference. Imports and ``__all__`` strings are not references, so a
re-export alone does not keep a name alive. A top-level function or class
passes when any name or attribute in `src/` spells the same; a method only
when an attribute access does, so a local variable of the same name does not
keep it alive. A package ``__init__.py`` re-exports its imports through
``__all__``, so its imports count as used.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Read from outside `src/`, never by name in it.
ALLOWED = {
    "_NonFinite.visit_Name",  # dispatched by ast.NodeVisitor.visit
    "Topology.ues",  # read by perfbench/selftest.py
    "ChannelRealization.links",  # read by perfbench/tracing.py
    "_Seeded.generate_state",  # called by numpy's PCG64 when seeded
}


def _trees():
    return [(path, ast.parse(path.read_text(encoding="utf-8"), str(path)))
            for path in sorted(SRC.rglob("*.py"))]


def _definitions(tree):
    """(qualified name, bare name, is method) of each top-level function and
    class and each method that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("__")):
                    yield f"{node.name}.{item.name}", item.name, True


def _names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _attributes(tree):
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}


def test_every_definition_is_referenced():
    trees = [tree for _, tree in _trees()]
    names = set().union(*map(_names, trees))
    attributes = set().union(*map(_attributes, trees))
    unreferenced = sorted(
        qualified for tree in trees
        for qualified, name, is_method in _definitions(tree)
        if name not in attributes
        and (is_method or name not in names)
        and qualified not in ALLOWED)
    assert unreferenced == []


def _imported(tree):
    """The local name each import statement binds, ``__future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_every_import_is_used():
    unused = sorted(f"{path.relative_to(SRC)}: {name}"
                    for path, tree in _trees()
                    if path.name != "__init__.py"
                    for name in set(_imported(tree)) - _names(tree))
    assert unused == []
