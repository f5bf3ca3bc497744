"""Seeded inputs, CLI invocations and answer keys of the four workloads.

A workload is a fixed list of `hybridsem ... --json` invocations.  Its
input files are written from the seed alone, and the program sees only
those files.  Every expected answer follows from the rule quoted beside
it, never from running hybridsem.  Why each workload was chosen is
recorded in NOTES.md.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

NAMES = ("sim", "chain", "grid", "branching")

# The tank's initial clock x0 is drawn from multiples of 1/16 in [0, 5/2):
# the refinement chain needs 3 - x0 > 2 * epsilon with epsilon = 1/4.
X0_DENOMINATOR = 16
X0_POINTS = 40
SIM_SAMPLES = 12
SIM_HORIZON = 24
CHAIN_SAMPLES = 3
CHAIN_HORIZON = 60
GRID_ARGS = ("--fixture", "tank-automaton", "--x0", "1", "--delta", "1/16", "--horizon", "60")
BRANCH_MODES = 6
BRANCH_HORIZON = 10


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the rule its exit code and JSON must meet."""

    args: tuple
    check: Callable  # (exit_code, doc) -> list of mismatch descriptions


def _expect(exit_code, doc, want_exit, **want) -> list:
    bad = []
    if exit_code != want_exit:
        bad.append(f"exit {exit_code}, expected {want_exit}")
    for key, value in want.items():
        got = doc
        for part in key.split("."):
            got = got.get(part) if isinstance(got, dict) else None
        if got != value:
            bad.append(f"{key} = {got!r}, expected {value!r}")
    return bad


def stratified_x0(rng: random.Random, n: int) -> list:
    """n distinct clock values, one from each of n equal strata of the
    grid, so the seed moves the samples but not their spread or count."""
    bounds = [j * X0_POINTS // n for j in range(n + 1)]
    picks = [rng.randrange(bounds[j], bounds[j + 1]) for j in range(n)]
    return [Fraction(k, X0_DENOMINATOR) for k in picks]


def _q(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def tank_automaton(x0s) -> dict:
    """The two-mode water tank: the level rises at 1 while shut, drains at 2
    while open; the valve opens when the clock reaches 3."""
    return {
        "variables": ["x", "y"],
        "zeta": "1/100",
        "modes": [
            {"name": "shut", "rates": {"x": "1", "y": "1"}, "entry": ["y = 0"],
             "exit": {"type": "reach", "target": "3", "var": "x"}},
            {"name": "open", "rates": {"x": "1", "y": "-2"}, "entry": ["x = 0"],
             "exit": {"type": "reach", "target": "0", "var": "y"}},
        ],
        "edges": [
            {"src": "shut", "dst": "open", "reset": {"x": "0"}},
            {"src": "open", "dst": "shut"},
        ],
        "initial": [{"mode": "shut", "values": {"x": _q(x), "y": "0"}} for x in x0s],
    }


# r39: same valve mode and same level, clock unconstrained.
R39 = {
    "clauses": [
        {"constraints": ["c_y = a_y"], "concrete_mode": "shut", "abstract_mode": "shut"},
        {"constraints": ["c_y = a_y"], "concrete_mode": "open", "abstract_mode": "open"},
    ]
}

# With u holding the mode index, equal u means equal mode.
EQ_RELATION = {"clauses": [{"constraints": ["c_u = a_u"]}]}


def branching_system(k: int, dropped=None) -> dict:
    """k unit-dwell modes, all initial at time 0; mode i steps to i or
    i+1 mod k and sets u to the target's index.  `dropped` removes the
    edge dropped -> dropped+1."""
    edges = []
    for i in range(k):
        for j in (i, (i + 1) % k):
            if i == dropped and j == (i + 1) % k:
                continue
            edges.append({"src": f"m{i}", "dst": f"m{j}", "reset": {"u": str(j)}})
    return {
        "variables": ["u"],
        "zeta": "1/100",
        "modes": [
            {"name": f"m{i}", "rates": {"u": "0"}, "exit": {"type": "duration", "value": "1"}}
            for i in range(k)
        ],
        "edges": edges,
        "initial": [{"mode": f"m{i}", "values": {"u": str(i)}} for i in range(k)],
    }


def branching_count(k: int, h: int, m: int) -> int:
    """Size of the greatest simulation of C by A = C minus m -> m+1.

    A configuration pair (i at time t) survives unless C can walk from
    mode i to m in d = (m - i) mod k unit steps and then take m -> m+1
    before the horizon, i.e. unless t + d + 1 < h; so min(d + 1, h) of
    the h start times of mode i survive."""
    return sum(min((m - i) % k + 1, h) for i in range(k))


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, indent=1))
    return str(path)


def build(name: str, seed: int, workdir: Path) -> list:
    """Write the inputs of workload `name` for `seed` into workdir and
    return its calls."""
    rng = random.Random(f"{name}:{seed}")
    if name == "sim":
        tank = _write(workdir / "tank.json", tank_automaton(stratified_x0(rng, SIM_SAMPLES)))
        rel = _write(workdir / "r39.json", R39)
        # r39 relates the two shut phases of different samples, and at the
        # shorter one's end the modes differ: no abstract response, verdict
        # false.  Each initial configuration has an identical abstract twin.
        return [Call(
            ("check-sim", "--system", tank, "--abstract", tank, "--relation", rel,
             "--horizon", str(SIM_HORIZON), "--json"),
            lambda code, doc: _expect(code, doc, 1, verdict=False,
                                      **{"hypotheses.init(56).ok": True}),
        )]
    if name == "chain":
        x0 = ",".join(_q(x) for x in stratified_x0(rng, CHAIN_SAMPLES))
        # The published shut/on formulas fail the exact check and the
        # failure is attributed to them: ok false, acceptable true, exit 0.
        return [Call(
            ("check-refinement", "--x0", x0, "--horizon", str(CHAIN_HORIZON), "--json"),
            lambda code, doc: _expect(code, doc, 0, ok=False, acceptable=True),
        )]
    if name == "grid":
        # x0 = 1 is the only grid-aligned start, so the seed is unused.
        # Theorems 6 and 7 hold on grid-aligned input.
        return [
            Call(("check-theorem", "6") + GRID_ARGS + ("--json",),
                 lambda code, doc: _expect(code, doc, 0, ok=True)),
            Call(("check-theorem", "7") + GRID_ARGS + ("--json",),
                 lambda code, doc: _expect(code, doc, 0, milner=True, hypotheses_ok=True)),
        ]
    if name == "branching":
        k, h = BRANCH_MODES, BRANCH_HORIZON
        m = rng.randrange(k)
        concrete = _write(workdir / "C.json", branching_system(k))
        abstract = _write(workdir / "A.json", branching_system(k, dropped=m))
        rel = _write(workdir / "eq.json", EQ_RELATION)
        count = branching_count(k, h, m)
        return [Call(
            ("greatest-sim", "--system", concrete, "--abstract", abstract,
             "--relation", rel, "--horizon", str(h), "--json"),
            lambda code, doc: _expect(code, doc, 0, count=count)
            + ([] if len(doc.get("pairs", ())) == count else ["pairs list length != count"]),
        )]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
