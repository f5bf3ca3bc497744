"""Command-line surface: exit codes, JSON output and file loading."""

import argparse
import copy
import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hybridsem.casestudy import GALLERY_NAMES
from hybridsem.cli import build_parser, main
from hybridsem.errors import ParseError
from hybridsem.hts import NO_TRAJECTORY, hts_from_json
from hybridsem.affine import MAX_DIGITS, MAX_EXPONENT
from hybridsem.relation import relation_from_json


def run(*argv):
    return main(list(argv))


def test_validate_fixture_passes(capsys):
    assert run("validate", "--fixture", "tank-automaton") == 0
    assert capsys.readouterr().out


def test_unknown_fixture_is_bad_input(capsys):
    assert run("validate", "--fixture", "no-such-thing") == 2


def test_trajectories_json_roundtrip(capsys):
    code = run("trajectories", "--fixture", "example10", "--horizon", "4", "--json")
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["trajectories"]


def test_sample_rationals_serialized(capsys):
    assert run("sample", "--fixture", "example10", "--delta", "1/2",
               "--horizon", "2", "--json") == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc  # every fraction is rendered as "p/q" text
    assert "1/2" in out


def test_discretize_misaligned_fails(capsys):
    # delta 3/4 does not divide the configuration breakpoints
    assert run("discretize", "--fixture", "example10", "--delta", "3/4") == 1


def test_check_sim_gallery_pass_and_fail(capsys):
    assert run("check-sim", "--fixture", "fig11") == 0
    assert run("check-preservation", "--fixture", "fig11") == 1


def test_check_sim_fails_without_init(tmp_path, capsys):
    _assert_fails_without_init("check-sim", tmp_path, capsys)


@pytest.mark.parametrize("command", ["check-bisim", "check-preservation"])
def test_pair_checks_fail_without_init(command, tmp_path, capsys):
    _assert_fails_without_init(command, tmp_path, capsys)


def _assert_fails_without_init(command, tmp_path, capsys):
    # r39 with an x offset no pair meets relates no configuration, so the
    # check holds vacuously while init(56) fails: the check fails
    inputs = Path(__file__).parent / "golden" / "inputs"
    rel = json.loads((inputs / "r39.json").read_text())
    for clause in rel["clauses"]:
        clause["constraints"].append("c_x = a_x + 1000")
    (tmp_path / "r.json").write_text(json.dumps(rel))
    tank = str(inputs / "tank-automaton-x0-1.json")
    argv = [command, "--system", tank, "--abstract", tank, "--horizon", "6", "--json"]
    assert run(*argv, "--relation", str(tmp_path / "r.json")) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] and not doc["hypotheses"]["init(56)"]["ok"]
    assert run(*argv, "--relation", str(inputs / "r39.json")) == 0
    assert json.loads(capsys.readouterr().out)["hypotheses"]["init(56)"]["ok"]


@pytest.mark.parametrize("command", ["check-sim", "check-bisim", "check-preservation"])
def test_entry_rejected_initial_state_fails_init(command, tmp_path, capsys):
    # the only initial state fails its mode's entry constraint, so the
    # concrete side has no initial configuration and every check on it
    # would hold vacuously: init(56) fails and so does the check
    system = tmp_path / "sys.json"
    system.write_text(json.dumps(_variant(entry=["u >= 1"])))
    relation = tmp_path / "rel.json"
    relation.write_text(json.dumps(RELATION))
    assert run(command, "--system", str(system), "--abstract", str(system),
               "--relation", str(relation), "--horizon", "3", "--json") == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] and not doc["hypotheses"]["init(56)"]["ok"]


def test_check_refinement_acceptable(capsys):
    code = run("check-refinement", "--x0", "1", "--horizon", "6", "--json")
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["acceptable"] and not doc["ok"]


def test_gallery_theorem_attribution(capsys):
    code = run("gallery", "fig8-1", "--check-theorem", "7", "--json")
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["violated"] == ["(70)"]
    assert not doc["hypotheses_ok"] and not doc["milner"]
    assert doc["witnesses"]["(70)"]


def test_galois_laws_command(capsys):
    assert run("galois-laws", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"]
    assert all(rep["ok"] for rep in doc["reports"].values())


def test_check_theorem_six(capsys):
    assert run("check-theorem", "6", "--fixture", "tank-automaton",
               "--x0", "1", "--delta", "1", "--horizon", "9") == 0


def test_plot_writes_svg(tmp_path, capsys):
    out = tmp_path / "tank.svg"
    assert run("plot", "--fixture", "tank-automaton", "--x0", "1",
               "--horizon", "8", "--out", str(out)) == 0
    text = out.read_text()
    assert text.startswith("<svg") and "dash" in text


def test_refused_plot_writes_nothing(tmp_path, capsys):
    """Both files are opened before either is written: a CSV path that
    cannot be opened leaves no new SVG and an existing one as it was."""
    out = tmp_path / "x.svg"
    argv = ("plot", "--fixture", "tank-automaton", "--out", str(out),
            "--csv", "/nonexistent/x.csv")
    assert run(*argv) == 2
    assert not out.exists()
    out.write_text("kept")
    assert run(*argv) == 2
    assert out.read_text() == "kept"
    captured = capsys.readouterr()
    assert "wrote" not in captured.out and "input error:" in captured.err


def test_theorems_fail_on_a_system_without_trajectory(tmp_path, capsys):
    """The only initial state fails its mode's entry, so the system has
    no trajectory, which validate reports as InitialNotAtZero: theorems
    3 and 6 fail with the note instead of holding vacuously."""
    system = tmp_path / "sys.json"
    system.write_text(json.dumps(_variant(
        entry=["u = 0"], initial=[{"mode": "up", "values": {"u": "1"}}])))
    assert run("validate", "--system", str(system), "--json") == 1
    assert "InitialNotAtZero" in capsys.readouterr().out
    for n in ("3", "6"):
        assert run("check-theorem", n, "--system", str(system), "--delta", "1",
                   "--horizon", "5", "--json") == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False
        assert NO_TRAJECTORY in (doc["witness"] if n == "3" else doc["notes"])


def test_validate_reports_a_schema_mode_without_successor(tmp_path, capsys):
    """A non-terminal mode with a duration exit and no edge out has no
    successor at its exit, which validate reports as FinalNotClosed."""
    system = tmp_path / "sys.json"
    system.write_text(json.dumps(_variant(terminal=False)))
    assert run("validate", "--system", str(system), "--json") == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False
    assert [kind for kind, _ in doc["issues"]] == ["FinalNotClosed"]


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "hybridsem.cli", "validate", "--fixture", "example10"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0


SYSTEM = {
    "variables": ["u"],
    "zeta": "1/1000",
    "modes": [{"name": "up", "rates": {"u": "1"},
               "exit": {"type": "duration", "value": "1"}, "terminal": True}],
    "edges": [],
    "initial": [{"mode": "up", "values": {"u": "0"}}],
}
RELATION = {"clauses": [{"constraints": ["c_u = a_u"]}]}


def _variant(**changes):
    """SYSTEM with its variables, edges, initial states or only mode changed."""
    doc = copy.deepcopy(SYSTEM)
    for key, value in changes.items():
        if key in ("variables", "edges", "initial"):
            doc[key] = value
        else:
            doc["modes"][0][key] = value
    return doc


BAD_SYSTEMS = {
    "exit-type": _variant(exit={"type": "durtion", "value": "1"}),
    "initial-mode": _variant(initial=[{"mode": "down", "values": {"u": "0"}}]),
    "edge-mode": _variant(edges=[{"src": "up", "dst": "down"}]),
    "rate-var": _variant(rates={"u": "1", "w": "1"}),
    "reset-var": _variant(edges=[{"src": "up", "dst": "up", "reset": {"w": "0"}}]),
    "initial-var": _variant(initial=[{"mode": "up", "values": {"u": "0", "w": "0"}}]),
    "unset-var": _variant(variables=["u", "w"]),
    # unknown keys; a misspelt "rates" would leave the rate 0
    "document-key": {**SYSTEM, "edge": []},
    "mode-key": {**SYSTEM, "modes": [{"name": "up", "rate": {"u": "1"}, "terminal": True,
                                      "exit": {"type": "duration", "value": "1"}}]},
    "exit-key": _variant(exit={"type": "duration", "value": "1", "var_": "u"}),
    "edge-key": _variant(edges=[{"src": "up", "dst": "up", "resets": {"u": "0"}}]),
    "initial-key": _variant(initial=[{"mode": "up", "values": {"u": "0"}, "time": "0"}]),
    # no initial state; every check would hold vacuously
    "no-initial": _variant(initial=[]),
    # keys the exit's type does not read
    "duration-exit-keys": _variant(exit={"type": "duration", "value": "1",
                                         "target": "2", "var": "u"}),
    "reach-exit-keys": _variant(exit={"type": "reach", "target": "2", "var": "u",
                                      "value": "1"}),
    # values of the wrong JSON type
    "initial-type": _variant(initial=5),
    "variables-type": _variant(variables=3),
    "variables-string": _variant(variables="u"),  # would declare each letter
    "variable-name-type": _variant(variables=[["u"]]),
    "modes-type": {**SYSTEM, "modes": 5},
    "mode-name-type": _variant(name=["up"]),
    "entry-type": _variant(entry=5),
    "rates-type": _variant(rates=["u"]),
    "rate-type": _variant(rates={"u": ["1"]}),
    "values-type": _variant(initial=[{"mode": "up", "values": ["u"]}]),
    "value-type": _variant(initial=[{"mode": "up", "values": {"u": None}}]),
    "edges-type": _variant(edges=5),
    "edge-mode-type": _variant(edges=[{"src": ["up"], "dst": "up"}]),
    "reset-type": _variant(edges=[{"src": "up", "dst": "up", "reset": ["u"]}]),
    "exit-var-type": _variant(exit={"type": "reach", "target": "2", "var": ["u"]}),
    "zeta-type": {**SYSTEM, "zeta": ["1/100"]},
    "terminal-type": _variant(terminal="false"),  # would read as true
    # a minimum duration of 0 or below would admit Zeno runs
    "zeta-zero": {**SYSTEM, "zeta": "0"},
    "zeta-negative": {**SYSTEM, "zeta": "-1"},
    # JSON Infinity reaches the loader as a float, which is never exact
    "rate-float": _variant(rates={"u": float("inf")}),
    # a huge exponent is refused before Fraction expands it
    "zeta-exponent": {**SYSTEM, "zeta": "1e-1000000"},
}
# misspelt keys; dropped silently, a misspelt guard would match every
# mode and check-sim would answer true with exit 0
BAD_RELATIONS = {
    "clause-key": {"clauses": [{"constraints": ["c_u = a_u"], "concrete_mod": "down"}]},
    "document-key": {"clauses": RELATION["clauses"], "domian": [{"lo": "5"}]},
    "window-key": {"clauses": [{"constraints": ["c_u = a_u"],
                                "window": {"lo": "0", "hi": "5", "closed": True}}]},
    # malformed numbers
    "window-number": {"clauses": [{"constraints": ["c_u = a_u"], "window": {"lo": "abc"}}]},
    "zero-division": {"clauses": [{"constraints": ["c_u = 1/0"]}]},
    # empty windows and domains; a relation that never holds would pass vacuously
    "inverted-domain": {"clauses": RELATION["clauses"], "domain": [{"lo": "5", "hi": "2"}]},
    "empty-open-domain": {"clauses": RELATION["clauses"], "domain": [{"lo": "2", "hi": "2"}]},
    "empty-domain": {"clauses": RELATION["clauses"], "domain": []},
    # an unbounded end marked closed: no interval has one
    "closed-unbounded-window": {"clauses": [{"constraints": ["c_u = a_u"],
                                             "window": {"lo": "0", "closed_hi": True}}]},
    "closed-unbounded-domain": {"clauses": RELATION["clauses"],
                                "domain": [{"lo": "1", "hi": "inf", "closed_hi": True}]},
    # values of the wrong JSON type
    "clauses-type": {"clauses": 5},
    "constraints-type": {"clauses": [{"constraints": 5}]},
    "constraint-type": {"clauses": [{"constraints": [5]}]},
    "domain-type": {"clauses": RELATION["clauses"], "domain": 5},
    "window-bound-type": {"clauses": [{"constraints": ["c_u = a_u"], "window": {"lo": [0]}}]},
    "guard-type": {"clauses": [{"constraints": ["c_u = a_u"], "concrete_mode": 5}]},
    "closed-type": {"clauses": [{"constraints": ["c_u = a_u"],
                                 "window": {"lo": "0", "hi": "1", "closed_hi": "false"}}]},
}


def _without(doc, path, key):
    """A copy of doc without `key` in the object that `path` leads to."""
    doc = copy.deepcopy(doc)
    node = doc
    for step in path:
        node = node[step]
    del node[key]
    return doc


# documents with the optional objects that hold required keys
WITH_PARTS = {
    "system": SYSTEM,
    "reach": _variant(exit={"type": "reach", "target": "2", "var": "u"}),
    "edge": _variant(edges=[{"src": "up", "dst": "up"}]),
    "relation": RELATION,
    "windows": {"clauses": [{"constraints": ["c_u = a_u"], "window": {"lo": "0"}}],
                "domain": [{"lo": "0"}]},
}
# (a document of WITH_PARTS, the path to an object in it, a key that object requires)
REQUIRED_KEYS = [
    *[("system", (), key) for key in ("variables", "modes", "initial")],
    ("system", ("modes", 0), "name"),
    *[("system", ("modes", 0, "exit"), key) for key in ("type", "value")],
    *[("reach", ("modes", 0, "exit"), key) for key in ("type", "target", "var")],
    *[("edge", ("edges", 0), key) for key in ("src", "dst")],
    *[("system", ("initial", 0), key) for key in ("mode", "values")],
    ("relation", (), "clauses"),
    ("windows", ("clauses", 0, "window"), "lo"),
    ("windows", ("domain", 0), "lo"),
]


@pytest.mark.parametrize("name, path, key", REQUIRED_KEYS,
                         ids=["-".join((n, *map(str, p), k)) for n, p, k in REQUIRED_KEYS])
def test_missing_required_key_is_named(name, path, key, tmp_path, capsys):
    """A file without a key its loader requires exits 2, and the message
    says which key is missing rather than echoing a lookup failure."""
    system = tmp_path / "sys.json"
    system.write_text(json.dumps(SYSTEM))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_without(WITH_PARTS[name], path, key)))
    if name in ("relation", "windows"):
        argv = ["check-sim", "--system", str(system), "--abstract", str(system),
                "--relation", str(bad)]
    else:
        argv = ["validate", "--system", str(bad), "--horizon", "3"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"missing key(s) {key}" in err, err


def _bad_input_cases(tmp_path):
    system = tmp_path / "sys.json"
    system.write_text(json.dumps(SYSTEM))
    relation = tmp_path / "rel.json"
    relation.write_text(json.dumps(RELATION))
    files = ("--system", str(system), "--abstract", str(system), "--relation", str(relation))
    bad_files = []
    for name, doc in BAD_SYSTEMS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        bad_files.append(("validate", "--system", str(path), "--horizon", "3"))
    # c_v names no variable of the system: the clause could never hold
    foreign = tmp_path / "foreign.json"
    foreign.write_text(json.dumps({"clauses": [{"constraints": ["c_v = a_u"]}]}))
    # nested deeper than the JSON decoder recurses
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    for name, doc in BAD_RELATIONS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        bad_files.append(("check-sim", "--system", str(system), "--abstract", str(system),
                          "--relation", str(path)))
    return [
        *bad_files,
        ("check-sim", "--system", str(system), "--abstract", str(system),
         "--relation", str(foreign)),
        ("validate", "--system", str(deep)),
        ("check-sim", "--fixture", "tank-automaton", "--relation", str(deep)),
        ("sample", "--fixture", "example10", "--delta", "0"),
        ("sample", "--fixture", "example10", "--delta", "-1"),
        ("discretize", "--fixture", "example10", "--delta", "0"),
        ("discretize", "--fixture", "example10", "--delta", "-1"),
        ("check-theorem", "3", "--fixture", "tank-automaton", "--delta", "0"),
        # a file flag the theorem does not read
        ("check-theorem", "5", "--x0", "1", "--horizon", "3", "--system", "/nonexistent"),
        ("check-theorem", "6", "--fixture", "tank-automaton", "--x0", "1", "--delta", "1",
         "--horizon", "3", "--relation", "/nonexistent"),
        # any other flag the theorem does not read
        ("check-theorem", "5", "--fixture", "fig8-1", "--x0", "1", "--horizon", "3",
         "--delta", "7"),
        ("check-theorem", "1", "--fixture", "tank-automaton", "--delta", "1"),
        # the tank flags shape a fixture, so without one nothing reads them
        ("check-theorem", "6", "--system", str(system), "--x0", "1"),
        *[(command, "--system", str(system), flag, "1")
          for command, flag in (("validate", "--x0"), ("trajectories", "--epsilon"),
                                ("sample", "--zeta"), ("discretize", "--x0"),
                                ("plot", "--epsilon"))],
        *[(command, *files, "--x0", "1")
          for command in ("check-sim", "check-bisim", "check-preservation", "greatest-sim")],
        ("check-theorem", "7", *files, "--zeta", "1/100"),
        ("check-sim", *files, "--horizon", "-1"),
        ("check-refinement", "--x0", "5"),
        ("check-refinement", "--epsilon", "0"),
        # a fixture refuses the tank parameters it does not read
        ("validate", "--fixture", "example10", "--x0", "1", "--epsilon", "1/8"),
        ("gallery", "fig11", "--x0", "1"),
        # a minimum duration of 0 or below, refused wherever a system is built
        ("validate", "--fixture", "tank-automaton", "--zeta=0"),
        ("validate", "--fixture", "tank-impl", "--zeta=-1/100"),
        ("validate", "--fixture", "example10", "--zeta=0"),
        ("check-refinement", "--zeta=0"),
        # a flag value goes through the same bounded reader as a file
        ("validate", "--fixture", "tank-automaton", "--zeta=1e-1000000"),
        # an output file that cannot be written
        ("plot", "--fixture", "tank-automaton", "--out", "/nonexistent/x.svg"),
        ("discretize", "--fixture", "tank-automaton", "--x0", "1", "--delta", "1/16",
         "--horizon", "4", "--out", "/nonexistent/x.json"),
        # a zero horizon reaches nothing, so every check would hold vacuously
        ("check-theorem", "6", "--fixture", "tank-automaton", "--x0", "1", "--delta", "1/16",
         "--horizon", "0"),
        ("check-theorem", "7", "--fixture", "tank-automaton", "--x0", "1", "--delta", "1/16",
         "--horizon", "0"),
        ("check-refinement", "--horizon", "0"),
        ("trajectories", "--fixture", "tank-automaton", "--depth", "-1"),
    ]


def _assert_bad_input(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "hybridsem.cli", *argv],
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 2, (argv, proc.stdout, proc.stderr)
    assert "input error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_json_decimal_is_read_as_written(tmp_path, capsys):
    """0.1 in a system file is 1/10, not the float nearest to it."""
    path = tmp_path / "decimal.json"
    path.write_text(json.dumps(_variant(rates={"u": 0.1})))
    assert run("discretize", "--system", str(path), "--delta", "1", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert [state["vars"]["u"] for state in doc["closing"][0]] == ["0", "1/10"]


def test_library_loaders_refuse_floats():
    """A float, as json.load hands it to a library caller, is refused:
    its value is the binary neighbour of the decimal written."""
    with pytest.raises(ParseError, match="float"):
        hts_from_json(_variant(rates={"u": 0.1}))
    with pytest.raises(ParseError, match="float"):
        relation_from_json({"clauses": [{"constraints": ["c_u = a_u"],
                                         "window": {"lo": 0.5}}]})
    h = hts_from_json(_variant(rates={"u": Fraction(1, 10)}))
    assert h.schemas[0].rates == (("u", Fraction(1, 10)),)


def test_numbers_past_the_bounds_are_refused_unexpanded(tmp_path, capsys):
    """One reader bounds every number before Fraction reads it: a JSON
    decimal literal, a string in a file and a library document alike.
    Numbers within the bounds keep their exact value."""
    literal = tmp_path / "literal.json"
    literal.write_text(json.dumps(SYSTEM).replace('"1/1000"', "1e-1000000"))
    assert run("validate", "--system", str(literal)) == 2
    assert "exponent" in capsys.readouterr().err
    for text in ("1e-1000000", "1E+1001", "1" * (MAX_DIGITS + 1), "1/" + "7" * MAX_DIGITS):
        with pytest.raises(ParseError):
            hts_from_json({**SYSTEM, "zeta": text})
    edge = "1e-" + str(MAX_EXPONENT)
    assert hts_from_json({**SYSTEM, "zeta": edge}).zeta == Fraction(1, 10 ** MAX_EXPONENT)
    with pytest.raises(ParseError):
        relation_from_json({"clauses": [{"constraints": [], "window": {"lo": "2e1001"}}]})


def test_out_of_range_parameters_are_bad_input(tmp_path, capsys):
    """Decided in process: each case exits 2 with an input error, and no
    exception escapes main."""
    for argv in _bad_input_cases(tmp_path):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2, (argv, err)
        assert "input error:" in err, (argv, err)


def test_bad_input_exits_2_from_a_fresh_process(tmp_path):
    """One case of each kind through `python -m hybridsem.cli`: a bad
    file, a bad flag value and a bad fixture."""
    path = tmp_path / "exit-type.json"
    path.write_text(json.dumps(BAD_SYSTEMS["exit-type"]))
    _assert_bad_input(("validate", "--system", str(path), "--horizon", "3"))
    _assert_bad_input(("sample", "--fixture", "example10", "--delta", "0"))
    _assert_bad_input(("gallery", "fig11", "--x0", "1"))


@pytest.mark.parametrize("argv", [
    ("gallery", "example10", "--check-theorem", "7"),
    ("gallery", "fig6", "--check-theorem", "7"),
    ("gallery", "fig7", "--check-theorem", "7"),
    ("gallery", "fig11", "--check-theorem", "7"),
    ("check-theorem", "1", "--fixture", "tank-automaton"),
    ("check-theorem", "1", "--fixture", "tank-impl"),
    ("check-theorem", "7", "--fixture", "tank-impl"),
    ("check-theorem", "7", "--fixture", "tankfoo"),
])
def test_fixture_lacking_what_a_check_needs_is_bad_input(argv, capsys):
    """Decided in process, with the checks of _assert_bad_input."""
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == 2, (argv, err)
    assert "input error:" in err
    assert "Traceback" not in err


TANK_FLAGS = {"--x0", "--epsilon", "--zeta"}
SYSTEM_FLAGS = {"--system", "--fixture"} | TANK_FLAGS
PAIR_FLAGS = SYSTEM_FLAGS | {"--abstract", "--relation"}
OPTIONS = {
    "validate": SYSTEM_FLAGS | {"--horizon", "--json"},
    "trajectories": SYSTEM_FLAGS | {"--horizon", "--depth", "--json"},
    "sample": SYSTEM_FLAGS | {"--delta", "--horizon", "--json"},
    "discretize": SYSTEM_FLAGS | {"--delta", "--horizon", "--out", "--json"},
    "check-sim": PAIR_FLAGS | {"--horizon", "--sync", "--json"},
    "check-bisim": PAIR_FLAGS | {"--horizon", "--json"},
    "check-preservation": PAIR_FLAGS | {"--horizon", "--json"},
    "greatest-sim": PAIR_FLAGS | {"--horizon", "--json"},
    "check-refinement": TANK_FLAGS | {"--horizon", "--json"},
    "galois-laws": {"--json"},
    "plot": SYSTEM_FLAGS | {"--horizon", "--grid", "--out", "--csv"},
    "check-theorem": PAIR_FLAGS | {"number", "--delta", "--horizon", "--json"},
    "gallery": TANK_FLAGS | {"fixture", "--check-theorem", "--delta", "--horizon", "--json"},
}


def test_each_subcommand_takes_only_the_flags_it_reads():
    ap = build_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        name: {a.option_strings[0] if a.option_strings else a.dest
               for a in p._actions if not isinstance(a, argparse._HelpAction)}
        for name, p in sub.choices.items()
    }
    assert got == OPTIONS


@pytest.mark.parametrize("argv", [
    ("galois-laws", "--sync"),
    ("galois-laws", "--sync", "--x0", "zz"),
    ("check-refinement", "--system", "f"),
    ("plot", "--fixture", "example10", "--json"),
])
def test_foreign_flag_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_readme_fixture_list_is_the_registry():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    listed = readme.split("Fixture names:", 1)[1].split(". ", 1)[0]
    assert sorted(re.findall(r"`([^`]+)`", listed)) == sorted(GALLERY_NAMES)


def test_tank_automaton_is_a_pair_fixture(capsys):
    assert run("check-bisim", "--fixture", "tank-automaton", "--x0", "1",
               "--horizon", "6", "--json") == 0
    assert json.loads(capsys.readouterr().out)["verdict"]


def test_flags_override_fixture_values(capsys):
    # fig8-1 fails the Milner check on its unit grid; cut at horizon 1 the
    # early end of the abstract configuration is out of reach
    assert run("check-theorem", "7", "--fixture", "fig8-1", "--json") == 1
    assert not json.loads(capsys.readouterr().out)["milner"]
    assert run("check-theorem", "7", "--fixture", "fig8-1", "--horizon", "1", "--json") == 1
    assert json.loads(capsys.readouterr().out)["milner"]
    # a grid of 3/4 does not divide the fixture's configuration ends
    assert run("check-theorem", "7", "--fixture", "fig8-1", "--delta", "3/4") == 1
    assert "Misaligned" in capsys.readouterr().err
    # fig11 carries no grid of its own; --delta supplies one
    assert run("gallery", "fig11", "--check-theorem", "7", "--delta", "1") == 0
