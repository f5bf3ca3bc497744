"""Golden outputs: the exit code and --json stdout of every subcommand on
every built-in fixture that supports it, compared byte for byte.

Each file under tests/golden/ holds "exit N" on its first line and the
command's stdout after it.  Calls that read systems or relations from
files take them from tests/golden/inputs/.  Regenerate the outputs only
when an output change is intended:

    PYTHONPATH=src python tests/test_cli_golden.py --write
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from hybridsem.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

GALLERY_PAIRS = ("fig8-1", "fig8-2", "fig8-3", "fig11")
SYSTEM_FIXTURES = ("tank-automaton", "tank-impl", "example10")
TANK = ("--fixture", "tank-automaton", "--x0", "1")


def _input(name: str) -> str:
    return str(INPUTS / f"{name}.json")


def _calls() -> dict:
    calls = {}
    for fx in GALLERY_PAIRS:
        calls[f"check-sim_{fx}"] = ("check-sim", "--fixture", fx)
        calls[f"check-sim-sync_{fx}"] = ("check-sim", "--fixture", fx, "--sync")
        calls[f"check-bisim_{fx}"] = ("check-bisim", "--fixture", fx)
        calls[f"check-preservation_{fx}"] = ("check-preservation", "--fixture", fx)
        calls[f"greatest-sim_{fx}"] = ("greatest-sim", "--fixture", fx)
        if fx != "fig11":  # fig11 carries no delta for theorem 7
            calls[f"gallery-theorem7_{fx}"] = ("gallery", fx, "--check-theorem", "7")
    # a gallery fixture listed, not checked
    calls["gallery_fig11"] = ("gallery", "fig11")
    for fx in SYSTEM_FIXTURES:
        calls[f"validate_{fx}"] = ("validate", "--fixture", fx)
        calls[f"trajectories_{fx}"] = ("trajectories", "--fixture", fx, "--horizon", "9")
        calls[f"sample_{fx}"] = ("sample", "--fixture", fx, "--delta", "1/2", "--horizon", "9")
        # example10 reads no x0, so it refuses one
        x0 = ("--x0", "1") if fx.startswith("tank") else ()
        calls[f"discretize_{fx}"] = (
            "discretize", "--fixture", fx, *x0, "--delta", "1/4", "--horizon", "9")
    for hz in ("6", "10"):
        calls[f"check-refinement_h{hz}"] = ("check-refinement", "--horizon", hz)
    # the seed-1 call of the benchmark's chain workload
    calls["check-refinement_workload"] = (
        "check-refinement", "--x0", "1/2,11/8,17/8", "--horizon", "60")
    # theorem 1 holding: example10 is given in the explicit presentation
    calls["check-theorem1_example10"] = ("check-theorem", "1", "--fixture", "example10")
    calls["check-theorem3_tank"] = ("check-theorem", "3", *TANK, "--horizon", "9")
    calls["check-theorem5_tank"] = ("check-theorem", "5", "--x0", "1", "--horizon", "10")
    calls["check-theorem6_tank"] = ("check-theorem", "6", *TANK, "--delta", "1", "--horizon", "9")
    calls["check-theorem7_tank"] = ("check-theorem", "7", *TANK, "--delta", "1", "--horizon", "9")
    # every pair related: (69) lists abstract states of other ranks, and
    # its first witnesses must not depend on the hash seed
    calls["check-theorem7_tank-always"] = (
        "check-theorem", "7", *TANK, "--delta", "1/4", "--horizon", "12",
        "--relation", _input("always"))
    # one equality: (69) reads the candidates with a matching a_y only
    calls["check-theorem7_tank-eq-y"] = (
        "check-theorem", "7", *TANK, "--delta", "1/4", "--horizon", "12",
        "--relation", _input("eq-y"))
    calls["galois-laws"] = ("galois-laws",)
    # the tank automaton against itself under r39 (same output as TANK_FILES)
    calls["check-sim_tank-automaton"] = ("check-sim", *TANK, "--horizon", "9")
    # two samples of the tank against themselves: the splices of one
    # sample's steps run through two flows of the other's windows
    calls["greatest-sim_tank-automaton"] = (
        "greatest-sim", "--fixture", "tank-automaton", "--x0", "0,1/2", "--horizon", "6")
    # a generated pair (3 unit-dwell modes; the abstract side lacks m0 -> m1)
    calls["greatest-sim_branching-k3"] = (
        "greatest-sim", "--system", _input("branching-k3"),
        "--abstract", _input("branching-k3-drop0"), "--relation", _input("eq-u"),
        "--horizon", "4")
    # the same pair under both step rules: well-nested, so --sync checks
    # it and lists the asynchronous violations
    pair = ("--system", _input("branching-k3"), "--abstract", _input("branching-k3-drop0"),
            "--relation", _input("eq-u"), "--horizon", "4")
    calls["check-sim_branching-k3"] = ("check-sim", *pair)
    calls["check-sim-sync_branching-k3"] = ("check-sim", *pair, "--sync")
    return {name: argv + ("--json",) for name, argv in calls.items()}


CALLS = _calls()


def render(argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return f"exit {code}\n{out.getvalue()}".encode()


@pytest.mark.parametrize("name", sorted(CALLS))
def test_golden_output(name):
    assert render(CALLS[name]) == (GOLDEN / f"{name}.txt").read_bytes()


def test_tank_fixture_pair_equals_files():
    """The tank-automaton pair fixture is the tank read from a file,
    checked against itself under r39."""
    tank = _input("tank-automaton-x0-1")
    argv = ("check-sim", "--system", tank, "--abstract", tank, "--relation", _input("r39"),
            "--horizon", "9", "--json")
    assert render(argv) == (GOLDEN / "check-sim_tank-automaton.txt").read_bytes()


def test_every_golden_file_has_a_call():
    assert {p.stem for p in GOLDEN.glob("*.txt")} == set(CALLS)


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CALLS.items():
        (GOLDEN / f"{name}.txt").write_bytes(render(argv))
