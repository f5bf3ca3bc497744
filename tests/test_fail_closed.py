"""The library fails closed: no exception handler under src/hybridsem
catches a lookup failure or every exception, so a programming error
surfaces as an error and never becomes a verdict.  An `except` that is
bare or names KeyError, LookupError, Exception or BaseException, alone
or in a tuple, is refused.  No check rests on an `assert` statement,
which `python -O` strips."""

import ast
import os
import subprocess
import sys
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


def _asserts(source: str, name: str) -> list:
    return [(name, node.lineno) for node in ast.walk(ast.parse(source, name))
            if isinstance(node, ast.Assert)]


def test_no_library_check_is_an_assert_statement():
    assert _asserts("def f(x):\n    assert x\n", "x.py") == [("x.py", 2)]
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    assert not [hit for path in modules for hit in _asserts(path.read_text(), path.name)]


def test_order_axioms_hold_under_optimization():
    """A strict order is refused under `python -O` too."""
    code = ("from hybridsem.galois import FinitePoset\n"
            "try:\n"
            "    FinitePoset.make((0, 1), lambda x, y: x < y)\n"
            "except AssertionError as e:\n"
            "    print(e)\n")
    path = filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH")))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "not reflexive at 0"
