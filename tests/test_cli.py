"""Command-line surface: exit codes, JSON output and file loading."""

import json
import subprocess
import sys

import pytest

from hybridsem.cli import main


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


def _bad_input_cases(tmp_path):
    system = tmp_path / "sys.json"
    system.write_text(json.dumps(SYSTEM))
    relation = tmp_path / "rel.json"
    relation.write_text(json.dumps(RELATION))
    files = ("--system", str(system), "--abstract", str(system), "--relation", str(relation))
    return [
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
])
def test_fixture_lacking_what_a_check_needs_is_bad_input(argv):
    _assert_bad_input(argv)
