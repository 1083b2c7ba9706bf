"""Every public name and every module-level function or class has a caller
inside the package itself, and no cache grows without bound."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "monothetic"

# Names kept for tests alone; the tests' oracles live under tests/.  The
# package reads the powers through ``k_power``, the table's own growth and the
# diagonal jumps; ``k_sequence`` stays as the public reference that the tests
# compare them with and that the benchmark tracer times.
TEST_ONLY = {"k_sequence"}


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def module_statements():
    # The top-level statements of every module but __init__, which only
    # re-exports names.
    return [
        node
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for node in ast.parse(path.read_text()).body
    ]


def loaded_names(tree):
    # Loads and attribute reads only: a def, a class or an assignment
    # defines a name, and an import alone does not use it.
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def used_names():
    return set().union(*map(loaded_names, module_statements()))


def test_every_export_has_a_caller_in_the_package():
    unused = exported_names() - used_names()
    assert unused == TEST_ONLY, f"exported but never used in src/monothetic: {sorted(unused)}"


def test_every_module_level_definition_is_referenced():
    # A helper whose last caller was deleted is named only by its own def; a
    # function that only calls itself counts as unreferenced too.
    statements = module_statements()
    loads = [loaded_names(node) for node in statements]
    unreferenced = {
        node.name
        for i, node in enumerate(statements)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not any(node.name in names for j, names in enumerate(loads) if j != i)
    }
    assert unreferenced == TEST_ONLY, f"defined but never referenced: {sorted(unreferenced)}"


def _unbounded_cache(decorator):
    # functools.cache, or lru_cache with maxsize None; a bare @lru_cache
    # keeps its default bound of 128.
    call = decorator if isinstance(decorator, ast.Call) else None
    name = ast.unparse(call.func if call else decorator).rsplit(".", 1)[-1]
    if name == "cache":
        return True
    if name != "lru_cache" or call is None:
        return False
    sizes = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
    return any(isinstance(v, ast.Constant) and v.value is None for v in sizes)


def _empty_container(value):
    return (
        isinstance(value, ast.Dict) and not value.keys
        or isinstance(value, ast.List) and not value.elts
        or isinstance(value, ast.Call) and ast.unparse(value) in ("dict()", "list()")
    )


def unbounded_caches():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                map(_unbounded_cache, node.decorator_list)
            ):
                found.append(node.name)
        for node in tree.body:
            if isinstance(node, ast.Assign) and _empty_container(node.value):
                found.extend(ast.unparse(t) for t in node.targets)
            elif isinstance(node, ast.AnnAssign) and _empty_container(node.value):
                found.append(ast.unparse(node.target))
    return found


def test_no_unbounded_cache():
    # A module-level dict or list that code fills is a cache with no bound.
    found = unbounded_caches()
    assert not found, f"unbounded caches in src/monothetic: {found}"
