"""Every name a module of src/hybridsem imports is read in that module.
The package's __init__ imports only to re-export, so it is left out."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hybridsem"


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.extend((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.extend(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_every_imported_name_is_read():
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    assert len(modules) > 10
    unused = {p.name: names for p in modules if (names := _unused_imports(p))}
    assert unused == {}
