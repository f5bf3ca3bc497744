"""hts.reach's integer step against the Fraction step it replaced.

simulation_parent.py keeps the earlier reach with its own Fraction
successor step (`instantiate`, `admits`, `duration_for`, `apply`).  On
seeded schema systems the library's reach must give the reference's
Reached fields, its positions numbered in the order the reference first
meets them, or raise the error the reference raises with its message;
hts_validate must report the initial states the reference cannot enter.
Every flow reach builds carries int_lines, which must equal the value
computed afresh from its lines.

The systems have fractional and negative rates, resets and entry
constraints, both exit kinds (a reach exit on a zero-rate variable
among them), durations below zeta, terminal and unbounded modes and
branches that merge; horizons and depths cut configurations midway,
and an unbounded horizon keeps unbounded configurations whole.
The spies below count each of these as the reference meets it, and the
test asserts that every one was met."""

import random
from collections import Counter
from fractions import Fraction as Q

import simulation_parent as ref
from hybridsem.affine import COMPARE, AffineConstraint, LinExpr
from hybridsem.casestudy import TankParams, build_tank_automaton, build_tank_impl
from hybridsem.errors import HybridSemError
from hybridsem.flow_config import AffineFlow
from hybridsem.hts import (
    Edge,
    ExitCondition,
    HybridTransitionSystem,
    ModeSchema,
    hts_validate,
    reach,
)
from hybridsem.time_core import INF

from conftest import rnd_q
from test_dense_ids import _branching

VARS = ("u", "v", "w")
DENS = (1, 2, 3, 4)


def _expr(rng, names, scale=1) -> LinExpr:
    coefs = {k: rnd_q(rng, -1, 1, DENS) for k in names if rng.random() < 0.4}
    return LinExpr.make(coefs, scale * rnd_q(rng, -3, 3, DENS))


def _mode(rng, name, names) -> ModeSchema:
    rates = {k: rnd_q(rng, -2, 2, DENS) for k in names if rng.random() < 0.8}
    entry = tuple(AffineConstraint(LinExpr.make({k: 1}, rnd_q(rng, -3, 3, DENS)),
                                   rng.choice(tuple(COMPARE)))
                  for k in names if rng.random() < 0.15)
    kind = rng.choice(("duration", "duration", "duration", "reach", "reach", None))
    if kind == "duration":
        value = (LinExpr.constant(rng.choice((Q(1, 200), Q(1, 3), Q(1, 2), 1, Q(3, 2))))
                 if rng.random() < 0.8 else _expr(rng, names))
        exit_ = ExitCondition("duration", value)
    elif kind == "reach":
        exit_ = ExitCondition("reach", _expr(rng, names, 2), rng.choice(names))
    else:
        exit_ = None
    terminal = rng.random() < (0.5 if exit_ is None else 0.1)
    return ModeSchema.make(name, rates, entry, exit_, terminal)


def _system(rng) -> HybridTransitionSystem:
    names = VARS[:rng.randint(1, 3)]
    modes = [f"m{i}" for i in range(rng.randint(1, 4))]
    schemas = tuple(_mode(rng, m, names) for m in modes)
    edges = tuple(
        Edge.make(src, rng.choice(modes),
                  {k: _expr(rng, names) for k in names if rng.random() < 0.4})
        for src in modes for _ in range(rng.randint(1, 2))
    )
    initial = [(rng.choice(modes), {k: rnd_q(rng, -2, 2, DENS) for k in names})
               for _ in range(rng.randint(1, 3))]
    zeta = rng.choice((Q(1, 100), Q(1, 10), Q(1, 2)))
    return HybridTransitionSystem.from_schemas(names, zeta, schemas, edges, initial)


def _spy(monkeypatch, seen):
    """Count what the reference step meets: each rejection by its reason,
    each terminal or unbounded configuration, each reset and each rate."""
    instantiate, apply = ref.instantiate, ref.apply

    def spy_instantiate(schema, t0, entry_values, zeta):
        c = instantiate(schema, t0, entry_values, zeta)
        if c is not None:
            seen["terminal"] += schema.terminal
            seen["unbounded"] += c.e is INF
            for _, r in schema.rates:
                seen["fractional rate"] += r.denominator > 1
                seen["negative rate"] += r < 0
        elif not ref.admits(schema, entry_values):
            seen["entry rejects"] += 1
        elif schema.exit is None:
            seen["unbounded and not terminal"] += 1
        elif ref.duration_for(schema.exit, entry_values, dict(schema.rates)) is None:
            seen["reach exit on a zero rate"] += 1
        else:
            seen["duration below zeta"] += 1
        if c is not None and schema.exit is not None:
            seen[f"{schema.exit.kind} exit"] += 1
        return c

    def spy_apply(edge, exit_values):
        seen["reset"] += bool(edge.reset)
        return apply(edge, exit_values)

    monkeypatch.setattr(ref, "instantiate", spy_instantiate)
    monkeypatch.setattr(ref, "apply", spy_apply)


def _outcome(f, *args):
    try:
        return f(*args)
    except HybridSemError as exc:
        return type(exc), str(exc)


def _same_reached(g, want, seen) -> None:
    """g numbers the reference's positions in the order it first met them."""
    ids = {c: i for i, c in enumerate(want.config)}
    assert g.initial == tuple(ids[c] for c in want.initial)
    assert list(g.succ.items()) == [(ids[c], tuple(ids[d] for d in v))
                                    for c, v in want.succ.items()]
    assert list(g.config.items()) == [(ids[c], v) for c, v in want.config.items()]
    assert g.truncated == frozenset(ids[c] for c in want.truncated)
    assert (g.horizon, g.distinct) == (want.horizon, True)
    for c in g.config.values():
        assert all(type(x) is Q for _, line in c.flow.lines for x in line)
        assert c.flow.__dict__["int_lines"] == AffineFlow(c.flow.mode, c.flow.lines).int_lines
    targets = Counter(q for v in want.succ.values() for q in v)
    seen["branches merge"] += any(n > 1 for n in targets.values())
    seen["horizon cuts mid-configuration"] += any(
        c.e > want.horizon for c in want.truncated)
    seen["unbounded and kept"] += any(c.e is INF for c in want.config.values())


def test_seeded_schema_systems_match_the_fraction_step(monkeypatch):
    rng = random.Random(3001)
    seen = Counter()
    _spy(monkeypatch, seen)
    for _ in range(400):
        h = _system(rng)
        horizon = rng.choice((Q(5, 2), 4, Q(13, 3), 6, INF))
        depth = rng.choice((3, 8) if horizon is INF else (3, 8, 64))
        got, want = _outcome(reach, h, horizon, depth), _outcome(ref.reach, h, horizon, depth)
        if isinstance(want, tuple):
            assert got == want
            seen["raised"] += 1
        else:
            _same_reached(got, want, seen)
            seen["reached"] += 1
        stuck = [("InitialNotAtZero", (m, v)) for m, v in h.initial
                 if ref.instantiate(ref.schema(h, m), Q(0), dict(v), h.zeta) is None]
        assert hts_validate(h) == stuck
        seen["initial state refused"] += bool(stuck)
    wanted = ("fractional rate", "negative rate", "reset", "entry rejects", "duration exit",
              "reach exit", "reach exit on a zero rate", "duration below zeta", "terminal",
              "unbounded", "unbounded and not terminal", "branches merge",
              "horizon cuts mid-configuration", "unbounded and kept", "raised", "reached",
              "initial state refused")
    assert all(seen[k] for k in wanted), seen


def test_tank_and_branching_systems_match_the_fraction_step():
    """The workloads' systems: the tank automaton and implementation, and
    the branching pair, at horizons that cut them midway."""
    p = TankParams.make(x0_samples=(0, Q(1, 2), 1, Q(17, 16)))
    systems = (build_tank_automaton(p), build_tank_impl(p), _branching(6), _branching(6, 2))
    seen = Counter()
    for h in systems:
        for horizon in (Q(37, 3), 24, 60):
            _same_reached(reach(h, horizon), ref.reach(h, horizon), seen)
    assert seen["branches merge"] and seen["horizon cuts mid-configuration"], seen
