"""Nothing in ``src/`` exists only for tests: each name the package exports
is read by one of its own modules, so a name only tests read fails here."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tradenet"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_exported_name_is_read_inside_the_package():
    exported = {alias.asname or alias.name
                for node in ast.walk(_tree(PACKAGE / "__init__.py"))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    loaded = {node.id for path in PACKAGE.glob("*.py") if path.name != "__init__.py"
              for node in ast.walk(_tree(path))
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert exported
    assert sorted(exported - loaded) == []
