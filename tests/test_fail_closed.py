"""The library fails closed: no exception handler under src/hybridsem
catches a lookup failure or every exception, so a programming error
surfaces as an error and never becomes a verdict.  An `except` that is
bare or names KeyError, LookupError, Exception or BaseException, alone
or in a tuple, is refused."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hybridsem"
REFUSED = {None, "KeyError", "LookupError", "Exception", "BaseException"}


def _caught(handler: ast.ExceptHandler) -> set:
    """The names an except clause catches, None for a bare `except:`."""
    if handler.type is None:
        return {None}
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {t.attr if isinstance(t, ast.Attribute) else ast.unparse(t) for t in types}


def _refused_handlers(source: str, name: str) -> list:
    return [
        (name, node.lineno, sorted(map(str, _caught(node) & REFUSED)))
        for node in ast.walk(ast.parse(source, name))
        if isinstance(node, ast.ExceptHandler) and _caught(node) & REFUSED
    ]


def test_the_guard_finds_each_refused_form():
    for clause in ("except:", "except KeyError:", "except (ValueError, LookupError) as e:",
                   "except builtins.Exception:", "except BaseException:"):
        assert _refused_handlers(f"try:\n    pass\n{clause}\n    pass\n", "x.py"), clause
    assert not _refused_handlers("try:\n    pass\nexcept (ValueError, OSError):\n    pass\n",
                                 "x.py")


def test_no_library_handler_catches_lookups_or_everything():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    found = [hit for path in modules for hit in _refused_handlers(path.read_text(), path.name)]
    assert not found
