"""Fuzzed input files through the CLI, in process: any JSON value put at
any place of a valid system or relation file makes `validate` or
`check-sim` exit 0, 1 or 2 with no exception escaping `cli.main`, and an
exit of 2 prints an input error."""

import copy
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridsem.cli import main

from test_cli import RELATION, SYSTEM

HOLE = "@@hole@@"
DEEP = "[" * 100_000 + "]" * 100_000  # nested deeper than the decoder recurses


def _places(doc, path=()):
    """Every path into doc, the whole document included."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _places(value, (*path, key))


def _with_text(doc, path, text) -> str:
    """The JSON of doc with the value at path replaced by the JSON text."""
    if not path:
        return text
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = HOLE
    return json.dumps(doc).replace(json.dumps(HOLE), text)


PLACES = [("system", p) for p in _places(SYSTEM)] + [("relation", p) for p in _places(RELATION)]
WORDS = ("0", "1", "-1", "1/2", "1e-1000000", "0.1", "u", "w", "up", "down", "u = 0",
         "c_u = a_u", "c_v = a_u", "duration", "reach", "lo", "hi", "closed_hi")
leaves = (st.none() | st.booleans() | st.integers(-10**20, 10**20) | st.floats()
          | st.text(max_size=8) | st.sampled_from(WORDS))
values = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(WORDS) | st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(derandomize=True, deadline=None, max_examples=250)
@given(st.sampled_from(PLACES), values.map(json.dumps))
@example(("system", ()), DEEP)
@example(("relation", ()), DEEP)
def test_any_value_anywhere_exits_0_1_or_2(place, text):
    which, path = place
    with tempfile.TemporaryDirectory() as tmp:
        system, fuzzed = Path(tmp) / "system.json", Path(tmp) / "fuzzed.json"
        system.write_text(json.dumps(SYSTEM))
        if which == "system":
            fuzzed.write_text(_with_text(SYSTEM, path, text))
            argv = ["validate", "--system", str(fuzzed), "--horizon", "3"]
        else:
            fuzzed.write_text(_with_text(RELATION, path, text))
            argv = ["check-sim", "--system", str(system), "--abstract", str(system),
                    "--relation", str(fuzzed), "--horizon", "3"]
        code, err = _run(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert "input error:" in err, err
