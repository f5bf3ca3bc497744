"""A step's response read from the pair table.

For a related pair (c, cbar) and a concrete step c -> c', an abstract
successor cbar' spanning c''s interval answers with a pair of the two
graphs, and sim_check reads its verdict from its pair table
(simulation._graph_pairs) instead of splicing it and deciding it
again.  On the gallery fixtures and on the tank automaton
against itself under r39 at several horizons, every such read must be
what it replaces: both splices of the step give c' and cbar' back by
value, and gamma(r) on the splices is the table's verdict."""

from fractions import Fraction as Q

import pytest

from hybridsem.affine import parse_constraint
from hybridsem.casestudy import (
    GALLERY_NAMES,
    TankParams,
    build_tank_automaton,
    gallery_fixture,
    tank_relations,
)
from hybridsem.flow_config import PiecewiseConfiguration, make_config
from hybridsem.relation import Clause, TimedStateRelation, config_related
from hybridsem.simulation import ConfigGraph, _graph_pairs, config_graph, sim_check, splice
from hybridsem.time_core import tmin


def _gallery_pairs():
    """(r, G, Gb) of each gallery fixture with a relation and two graphs,
    systems reached to horizon 12 and trajectories taken one by one."""
    for name in GALLERY_NAMES:
        fx = gallery_fixture(name)
        if "relation" not in fx:
            continue
        if "concrete" in fx:
            yield fx["relation"], config_graph(fx["concrete"], 12), config_graph(fx["abstract"], 12)
        else:
            for s in fx["T"]:
                for sb in fx["Tb"]:
                    yield fx["relation"], config_graph(s), config_graph(sb)


def _tank_pairs():
    """(r39, G, G) of the tank automaton against itself, 6 initial clocks
    a quarter apart, at horizons that cut it mid-phase and on a phase end."""
    p = TankParams.make(x0_samples=tuple(Q(k, 4) for k in range(6)))
    r = tank_relations(p)["r39"]
    h = build_tank_automaton(p)
    for horizon in (Q(7, 2), 6, 12, 24):
        G = config_graph(h, horizon)
        yield r, G, G


def _piecewise_pairs():
    """(c_u = a_u, G, G) of graphs whose one step goes to a piecewise
    configuration of two pieces, or of one (config_concat makes one when
    its left side is a closed point).  The splices of a one-piece c' give
    its plain piece, not c' by value, so the rule reads no piecewise
    configuration."""
    r = TimedStateRelation((Clause((parse_constraint("c_u = a_u"),)),))
    a = make_config("m", 0, 1, {"u": 0}, {"u": 1})
    b = make_config("m", 1, 2, {"u": 1}, {"u": 1})
    c = make_config("m", 2, 3, {"u": 2}, {"u": 1}, closed_hi=True)
    for nxt in (PiecewiseConfiguration((b,)), PiecewiseConfiguration((b, c))):
        G = ConfigGraph((a, nxt), ((1,), ()), (0,))
        yield r, G, G


def _reads(r, G, Gb):
    """Every table read sim_check makes: (c, cbar, c', cbar', verdict) for
    each related pair, concrete step and graph-pair response."""
    report = sim_check(r, G, Gb)
    for (i, j), held in report.pairs.items():
        if held:
            for k in G.succ[i]:
                for m, verdict in _graph_pairs(report.pairs, G, Gb, k, j).items():
                    yield G.nodes[i], Gb.nodes[j], G.nodes[k], Gb.nodes[m], verdict


@pytest.mark.parametrize("kind, pairs", [("gallery", _gallery_pairs), ("tank", _tank_pairs),
                                         ("piecewise", _piecewise_pairs)])
def test_table_reads_are_their_splices_decided_again(kind, pairs):
    reads = 0
    for r, G, Gb in pairs():
        for c, cb, c_prime, cb_prime, verdict in _reads(r, G, Gb):
            m1, m2 = tmin(c_prime.b, cb_prime.b), tmin(c_prime.e, cb_prime.e)
            sc, sa = splice(c, c_prime, m1, m2), splice(cb, cb_prime, m1, m2)
            assert (sc, sa) == (c_prime, cb_prime)
            assert config_related(r, sc, sa) == verdict
            reads += 1
    assert reads == 0 if kind == "piecewise" else reads >= 1
