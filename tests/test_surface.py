"""Nothing in ``src/`` exists only for tests: each name the package exports
is read by one of its own modules, so a name only tests read fails here; and
no module imports a name it never reads."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tradenet"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _loaded(tree: ast.Module) -> set[str]:
    """The names a module reads."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_every_exported_name_is_read_inside_the_package():
    exported = {alias.asname or alias.name
                for node in ast.walk(_tree(PACKAGE / "__init__.py"))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    loaded = set().union(*(_loaded(_tree(path)) for path in PACKAGE.glob("*.py")
                           if path.name != "__init__.py"))
    assert exported
    assert sorted(exported - loaded) == []


def _imported_names(tree: ast.Module) -> set[str]:
    """The names a module's imports bind, ``from __future__`` aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def test_no_module_imports_a_name_it_never_reads():
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _tree(path)
        if names := sorted(_imported_names(tree) - _loaded(tree)):
            unused[path.name] = names
    assert unused == {}
