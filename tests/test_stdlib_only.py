"""The library uses the standard library only: every absolute import of
every module under src/hybridsem names a standard-library module."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hybridsem"


def _absolute_imports(path: Path) -> list:
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_library_imports_only_the_standard_library():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    for path in modules:
        for name in _absolute_imports(path):
            assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)
