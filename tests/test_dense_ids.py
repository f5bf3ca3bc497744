"""Dense configuration ids against the code they replaced.

simulation_parent.py keeps hts.reach, semantics_generate, config_graph,
system_graph, sim_check and greatest_simulation as they were before
reach numbered its positions and the checks read a graph by id.  On
seeded explicit systems with duplicate configurations, and on schema
systems (the tank automaton and implementation, the branching pair for
k up to 6), at horizons that cut mid-configuration, the new code must
give the reference's semantics, graphs, violations in order, hypotheses
and greatest-simulation pairs (the reference's on the graphs' own
pairs, where it answers), or raise what it raises.

Each configuration of a random explicit system gets a mode of its own,
so no two distinct configurations share a repr: the reference lists the
successors of a configuration by repr, ties in set order, which the
hash seed decides."""

import random
from collections import Counter
from fractions import Fraction as Q

import pytest

import simulation_parent as ref
from hybridsem.affine import LinExpr, parse_constraint
from hybridsem.casestudy import TankParams, build_tank_automaton, build_tank_impl, tank_relations
from hybridsem.errors import HybridSemError
from hybridsem.flow_config import make_config
from hybridsem.hts import (
    Edge,
    ExitCondition,
    HybridTransitionSystem,
    ModeSchema,
    reach,
    semantics_generate,
)
from hybridsem.relation import Clause, TimedStateRelation, config_related
from hybridsem.simulation import (
    ConfigGraph,
    config_graph,
    greatest_simulation,
    sim_check,
    system_graph,
)

from conftest import rnd_q


def _explicit(rng):
    """Layered explicit system over u, one mode per configuration; about
    half the configurations take the value of the first one of their
    level, so equal configurations sit at distinct indices with distinct
    successors."""
    levels = rng.randint(1, 4)
    configs, layers = [], []
    for i in range(levels):
        layer = []
        for _ in range(rng.randint(1, 3)):
            c = make_config(f"m{len(configs)}", i, i + 1, {"u": rnd_q(rng)}, {"u": rnd_q(rng)},
                            closed_hi=i == levels - 1)
            if layer and rng.random() < 0.5:
                c = configs[layer[0]]
            layer.append(len(configs))
            configs.append(c)
        layers.append(layer)
    edges = [(a, b) for below, above in zip(layers, layers[1:]) for a in below
             for b in ([b for b in above if rng.random() < 0.6] or [rng.choice(above)])]
    return HybridTransitionSystem.from_explicit(("u",), Q(1, 1000), tuple(configs), tuple(edges),
                                                tuple(layers[0]))


def _branching(k, dropped=None):
    """k unit-dwell modes, all initial; mode i steps to i or i+1 mod k and
    sets u to the target's index, except for the edge dropped -> dropped+1."""
    modes = tuple(
        ModeSchema.make(f"m{i}", {"u": 0}, exit=ExitCondition("duration", LinExpr.constant(1)))
        for i in range(k)
    )
    edges = tuple(
        Edge.make(f"m{i}", f"m{j}", {"u": LinExpr.constant(j)})
        for i in range(k) for j in (i, (i + 1) % k) if not (i == dropped and j != i)
    )
    initial = [(f"m{i}", {"u": i}) for i in range(k)]
    return HybridTransitionSystem.from_schemas(("u",), Q(1, 100), modes, edges, initial)


def _near(rng) -> TimedStateRelation:
    """u within seeded bounds of each other, or a late clause window."""
    k1, k2 = rng.randint(0, 2), rng.randint(0, 2)
    return TimedStateRelation((
        Clause((parse_constraint(f"c_u - a_u <= {k1}"), parse_constraint(f"a_u - c_u <= {k2}"))),
        Clause((parse_constraint(f"t >= {rng.randint(1, 4)}"),)),
    ))


def _fields(G) -> tuple:
    return G.initial, G.succ_map, G.truncated


def _outcome(f, *args, **kwargs):
    try:
        return f(*args, **kwargs)
    except HybridSemError as exc:
        return type(exc), str(exc)


def _compare(r, h, hb, horizon, seen, fixpoint=True, horizon_b=None):
    """Every comparison on one system pair, the abstract side reached up
    to horizon_b when given."""
    graphs = []
    for x, horizon in dict.fromkeys(((h, horizon), (hb, horizon_b or horizon))):
        g = reach(x, horizon)
        assert g.initial == tuple(dict.fromkeys(g.initial))
        assert semantics_generate(g, horizon) == ref.semantics_generate(x, horizon)
        G, want = system_graph(g), ref.system_graph(x, horizon)
        assert _fields(G) == _fields(want) == _fields(system_graph(x, horizon))
        # the ids the builder gives the truncated configurations are the
        # ones a graph built by value finds
        assert G.cut == ConfigGraph(*_fields(G)).cut
        sem = semantics_generate(x, horizon, 64, 10 ** 6)
        assert _fields(config_graph(sem)) == _fields(ref.config_graph(sem))
        graphs.append((G, want))
        seen["truncated"] += bool(G.truncated)
    (G, G_ref), (Gb, Gb_ref) = graphs[0], graphs[-1]
    for mode in ("async", "sync"):
        got = _outcome(sim_check, r, G, Gb, mode)
        assert got == _outcome(ref.sim_check, r, G_ref, Gb_ref, mode)
        seen["violations"] += bool(getattr(got, "violations", None))
        seen["refused"] += isinstance(got, tuple)
    if fixpoint:
        related = lambda c, d: config_related(r, c, d)
        got = _outcome(greatest_simulation, G.configs(), Gb.configs(), G.succ, Gb.succ, related)
        want = _outcome(ref.greatest_simulation, G_ref.configs(), Gb_ref.configs(),
                        G_ref.succ, Gb_ref.succ, related)
        # the reference answers on slice-closed universes, or raises
        # NotSliceClosed where a splice leaves them: its answer on the
        # graphs' own pairs is the whole answer of the demand closure
        if isinstance(want, tuple) and want[0] is ref.NotSliceClosed:
            seen["reference left its universe"] += 1
        else:
            if not isinstance(want, tuple):
                xs, ys = set(G.configs()), set(Gb.configs())
                want = {(c, a) for c, a in want if c in xs and a in ys}
            assert got == want
        seen["fixpoint pairs"] += bool(got) and not isinstance(got, tuple)


def test_explicit_systems_match_the_reference():
    rng = random.Random(1701)
    seen = Counter()
    for _ in range(120):
        h = _explicit(rng)
        hb = h if rng.random() < 0.3 else _explicit(rng)
        horizon, horizon_b = (rng.choice((Q(3, 2), Q(5, 2), 3, 10)) for _ in "ab")
        _compare(_near(rng), h, hb, horizon, seen, horizon_b=horizon_b)
        seen["duplicates"] += len(set(h.explicit.configs)) < len(h.explicit.configs)
        seen["mid-configuration cut"] += Q(horizon).denominator > 1
    assert all(seen[k] for k in ("duplicates", "mid-configuration cut", "truncated", "violations",
                                 "refused", "fixpoint pairs")), seen


@pytest.mark.parametrize("horizon", [Q(7, 2), 9, Q(25, 2)])
def test_tank_systems_match_the_reference(horizon):
    seen = Counter()
    p = TankParams.make(x0_samples=(0, Q(1, 2), 1))
    auto, impl = build_tank_automaton(p), build_tank_impl(p)
    rels = tank_relations(p)
    _compare(rels["r39"], auto, auto, horizon, seen, fixpoint=horizon != Q(25, 2))
    _compare(rels["R53"], impl, auto, horizon, seen, fixpoint=False)
    _compare(rels["r39"], impl, impl, horizon, seen, fixpoint=False)
    assert seen["truncated"] and seen["violations"], seen


def test_branching_pairs_match_the_reference():
    rng = random.Random(1702)
    eq = TimedStateRelation((Clause((parse_constraint("c_u = a_u"),)),))
    seen = Counter()
    for k in range(2, 7):
        m = rng.randrange(k)
        horizon = rng.choice((Q(5, 2), 4, Q(13, 2)))
        _compare(eq, _branching(k), _branching(k, dropped=m), horizon, seen)
    assert seen["truncated"] and seen["violations"] and seen["fixpoint pairs"], seen
