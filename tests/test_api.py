"""Every public name has a caller inside the package itself."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "monothetic"

# The exhaustive oracle the evaluator tests compare against.
TEST_ONLY = {"brute_force_eval"}


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def used_names():
    # Loads and attribute reads only: a def, a class or an assignment
    # defines a name, and an import alone does not use it.
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_has_a_caller_in_the_package():
    unused = exported_names() - used_names()
    assert unused == TEST_ONLY, f"exported but never used in src/monothetic: {sorted(unused)}"
