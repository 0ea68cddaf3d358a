"""The library is stdlib-only: every absolute import in src/padic_tate names
a standard-library module."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "padic_tate"


def absolute_imports(path: Path) -> list[str]:
    """The top-level module of each absolute import in one source file."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name.partition(".")[0] for name in names]


def test_absolute_imports_are_stdlib():
    allowed = sys.stdlib_module_names | {"__future__"}
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    outside = {path.name: [n for n in absolute_imports(path) if n not in allowed]
               for path in paths}
    assert {name: mods for name, mods in outside.items() if mods} == {}
    assert "fractions" in absolute_imports(PACKAGE / "field.py")
