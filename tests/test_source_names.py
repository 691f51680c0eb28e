"""What a deletion leaves behind in `src/noveval`: an import that nothing uses, or a
module-level private name that nothing references. Both checks read the package's source
with `ast`, so they see the copy of the package that the tests import."""

import ast
from pathlib import Path

import pytest

import noveval

PACKAGE = Path(noveval.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def _used_names(tree: ast.AST) -> set[str]:
    """The names that the tree loads: bare names, and the roots of dotted ones."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"__init__"}))
def test_every_imported_name_is_used(module):
    """Each name a module imports is used in it (`__init__` only re-exports)."""
    tree = MODULES[module]
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    assert imported
    unused = sorted(set(imported) - _used_names(tree))
    assert not unused, f"{module}.py imports names it does not use: {unused}"


def _private_definitions(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """(name, statement) of each private name that a module's top-level statements define."""
    defined = []
    for statement in tree.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [statement.name]
        elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
            targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
            names = [node.id for target in targets for node in ast.walk(target)
                     if isinstance(node, ast.Name)]
        else:
            continue
        defined += [(name, statement) for name in names if name.startswith("_")
                    and not name.startswith("__")]
    return defined


def test_every_module_level_private_name_is_referenced():
    """Each module-level private name is referenced somewhere in the package outside the
    statement that defines it: loaded, imported from its module or read as an attribute."""
    unreferenced = []
    for module, tree in MODULES.items():
        for name, statement in _private_definitions(tree):
            own = {id(node) for node in ast.walk(statement)}
            found = any(
                id(node) not in own and (
                    isinstance(node, ast.Name) and node.id == name
                    or isinstance(node, ast.Attribute) and node.attr == name
                    or isinstance(node, ast.alias) and node.name == name)
                for other in MODULES.values() for node in ast.walk(other))
            if not found:
                unreferenced.append(f"{module}.{name}")
    assert not unreferenced, f"private names with no reference: {unreferenced}"
