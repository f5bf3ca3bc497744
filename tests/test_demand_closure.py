"""The greatest simulation on the demand closure of the graphs' pairs.

simulation_parent.py keeps the earlier greatest_simulation, which ran on
slice-closed universes and raised NotSliceClosed where a splice left
them.  Wherever it answers, its answer on the graphs' own configuration
pairs must be the whole answer of the demand closure.  On the `sim`
benchmark workload's seed-1 tank, where it raised, the closure relates
each configuration with itself only."""

from fractions import Fraction as Q

import pytest

import simulation_parent as ref
from hybridsem.affine import LinExpr, parse_constraint
from hybridsem.casestudy import TankParams, build_tank_automaton, gallery_fixture, tank_relations
from hybridsem.flow_config import make_config
from hybridsem.hts import Edge, ExitCondition, HybridTransitionSystem, ModeSchema
from hybridsem.relation import Clause, TimedStateRelation, config_related
from hybridsem.simulation import (
    ConfigGraph,
    canonical_key,
    config_graph,
    greatest_simulation,
    sim_transfer,
)

EQ_U = TimedStateRelation((Clause((parse_constraint("c_u = a_u"),)),))


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


def _both(r, G, Gb):
    """The closure's answer and the reference's on the graphs' own pairs."""
    related = lambda c, d: config_related(r, c, d)
    got = greatest_simulation(G.configs(), Gb.configs(), G.succ, Gb.succ, related)
    want = ref.greatest_simulation(G.configs(), Gb.configs(), G.succ, Gb.succ, related)
    xs, ys = set(G.configs()), set(Gb.configs())
    return got, {(c, a) for c, a in want if c in xs and a in ys}


@pytest.mark.parametrize("name", ["fig8-1", "fig8-2", "fig8-3", "fig11"])
def test_gallery_pairs_match_the_reference(name):
    fx = gallery_fixture(name)
    got, want = _both(fx["relation"], fx["concrete"], fx["abstract"])
    assert got == want and got


def test_tank_matches_the_reference():
    p = TankParams.make(x0_samples=(0, 1, 2))
    G = config_graph(build_tank_automaton(p), 12)
    got, want = _both(tank_relations(p)["r39"], G, G)
    assert got == want and len(got) == 24


@pytest.mark.parametrize("m", range(6))
def test_branching_matches_the_reference(m):
    """The `branching` workload's pair (k = 6, h = 10): mode i at time t
    is simulated unless C walks from i to m and steps on before h."""
    k, h = 6, 10
    G, Gb = config_graph(_branching(k), h), config_graph(_branching(k, dropped=m), h)
    got, want = _both(EQ_U, G, Gb)
    assert got == want
    assert len(got) == sum(min((m - i) % k + 1, h) for i in range(k))


def test_merged_splice_steps_as_the_given_configuration():
    """c1 -> c2 against a1 -> a2 splices to two pieces of one flow on
    [1/2, 2), whose canonical key is that of the given c5; the pair it
    stands for steps as c5 does, to c6, where no abstract response is
    related, so (c1, a1) is not simulated."""
    cfg = lambda mode, b, e, u, **kw: make_config(mode, b, e, {"u": u}, {"u": 0}, **kw)
    c1, c2, c5 = cfg("m", 0, 1, 0), cfg("m", 1, 2, 0), cfg("m", Q(1, 2), 2, 0)
    c6 = cfg("n", 2, 3, 9, closed_hi=True)
    a1, a2, a3 = cfg("m", 0, Q(1, 2), 0), cfg("m", Q(1, 2), 3, 0), cfg("n", 3, 4, 0, closed_hi=True)
    succ_c, succ_a = {c1: (c2,), c2: (c6,), c5: (c6,)}, {a1: (a2,), a2: (a3,)}
    G = ConfigGraph((c1, c5), tuple((c, succ_c.get(c, ())) for c in (c1, c2, c5, c6)))
    Gb = ConfigGraph((a1,), tuple((a, succ_a.get(a, ())) for a in (a1, a2, a3)))
    (_, sc, _), = sim_transfer(lambda *_: True, Gb.succ, c1, a1, c2)
    assert canonical_key(sc) == canonical_key(c5) and sc != c5
    got, want = _both(EQ_U, G, Gb)
    assert got == want and (c1, a1) not in got


@pytest.mark.parametrize("horizon, count", [(6, 54), (24, 198)])
def test_sim_workload_tank_relates_each_configuration_with_itself(horizon, count):
    """The `sim` workload's seed-1 tank against itself under r39, on
    which the reference raises NotSliceClosed."""
    x0 = "1/8,3/16,1/2,11/16,7/8,1,21/16,23/16,29/16,15/8,17/8,19/8"
    p = TankParams.make(x0_samples=tuple(Q(x) for x in x0.split(",")))
    r = tank_relations(p)["r39"]
    G = config_graph(build_tank_automaton(p), horizon)
    R = greatest_simulation(G.configs(), G.configs(), G.succ, G.succ,
                            lambda c, d: config_related(r, c, d))
    assert R == {(c, c) for c in G.configs()} and len(R) == count
    assert all(config_related(r, c, d) for c, d in R)
