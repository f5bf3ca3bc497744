"""Command-line surface: exit codes, JSON output and file loading."""

import argparse
import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hybridsem.casestudy import GALLERY_NAMES
from hybridsem.cli import build_parser, main


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
}


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
    return [
        *bad_files,
        ("check-sim", "--system", str(system), "--abstract", str(system),
         "--relation", str(foreign)),
        ("sample", "--fixture", "example10", "--delta", "0"),
        ("sample", "--fixture", "example10", "--delta", "-1"),
        ("discretize", "--fixture", "example10", "--delta", "0"),
        ("discretize", "--fixture", "example10", "--delta", "-1"),
        ("check-theorem", "3", "--fixture", "tank-automaton", "--delta", "0"),
        ("check-sim", *files, "--horizon", "-1"),
        ("check-refinement", "--x0", "5"),
        ("check-refinement", "--epsilon", "0"),
    ]


def _assert_bad_input(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "hybridsem.cli", *argv],
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 2, (argv, proc.stdout, proc.stderr)
    assert "input error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_out_of_range_parameters_are_bad_input(tmp_path):
    for argv in _bad_input_cases(tmp_path):
        _assert_bad_input(argv)


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
def test_fixture_lacking_what_a_check_needs_is_bad_input(argv):
    _assert_bad_input(argv)


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
