"""Grid sampling and the discrete transition-system construction, the
four soundness hypotheses of the relation transfer, and the discrete
simulation checks."""

import itertools
import random
from fractions import Fraction as Q

import pytest

from hybridsem.affine import parse_constraint
from hybridsem.casestudy import (
    TankParams,
    build_tank_automaton,
    gallery_fixture,
    tank_relations,
)
from hybridsem.discretize import (
    DiscreteTransitionSystem,
    TimefulState,
    discrete_traces,
    discretization_hypotheses,
    greatest_discrete_simulation,
    grid_alignment_check,
    hts_discretize,
    milner_sim_check,
    relation_discretize,
    theorem6_check,
    timeful_sample,
    timeless_discretize,
    timeless_overapprox_demo,
)
from hybridsem.errors import DomainGapAtGridPoint, Misaligned
from hybridsem.flow_config import State, make_config
from hybridsem.hts import HybridTransitionSystem
from hybridsem.relation import Clause, TimedStateRelation
from hybridsem.trajectory import trajectory_validate

from conftest import random_explicit


def test_timeful_sample_conventions():
    s = trajectory_validate(
        [make_config("m", 0, 2, {"u": 0}, {"u": 1}, closed_hi=True)]
    )
    trace = timeful_sample(s, Q(1))
    # strictly below the duration: the closed-end state enters the
    # discrete system only through the closing transition rule
    assert [(u.state.var("u"), u.rank) for u in trace] == [(0, 0), (1, 1)]
    t = trajectory_validate(
        [make_config("m", 0, 2, {"u": 0}, {"u": 1})], truncated=True
    )
    assert [u.rank for u in timeful_sample(t, Q(1))] == [0, 1]


def test_alignment_guard():
    c = make_config("m", 0, Q(3, 2), {"u": 0}, {"u": 0}, closed_hi=True)
    h = HybridTransitionSystem.from_explicit(("u",), Q(1, 1000), (c,), (), (0,))
    ok, witness = grid_alignment_check(h, Q(1))
    assert not ok and witness is not None
    with pytest.raises(Misaligned):
        hts_discretize(h, Q(1))


def four_rule_system():
    """Two-configuration chain plus an isolated complete configuration:
    exercises internal steps, the junction step, the closing edge and
    the rank-0 initial states."""
    c1 = make_config("a", 0, 2, {"u": 0}, {"u": 1})
    c2 = make_config("b", 2, 3, {"u": 5}, {"u": 0}, closed_hi=True)
    return HybridTransitionSystem.from_explicit(
        ("u",), Q(1, 1000), (c1, c2), ((0, 1),), (0,)
    )


def test_discretize_rule_breakdown():
    d = hts_discretize(four_rule_system(), 1)
    mk = lambda m, u, n: TimefulState(State.make(m, {"u": Q(u)}), n)
    assert d.initial == frozenset({mk("a", 0, 0)})
    # (a) internal, (b) junction with the successor's entry state,
    # (c) closing edge on the successor-free end
    assert (mk("a", 0, 0), mk("a", 1, 1)) in d.edges
    assert (mk("a", 1, 1), mk("b", 5, 2)) in d.from_tau
    assert d.closing == frozenset({(mk("b", 5, 2), mk("b", 5, 3))})
    # closing edges are excluded from maximal traces by default
    (trace,) = discrete_traces(d)
    assert [u.rank for u in trace] == [0, 1, 2]
    (full,) = discrete_traces(d, include_closing=True)
    assert [u.rank for u in full] == [0, 1, 2, 3]


def test_example_fixture_exact():
    fx = gallery_fixture("example10")
    d = hts_discretize(fx["system"], fx["delta"])
    u = lambda n: TimefulState(State.make("m", {"u": Q(1)}), n)
    assert d.states == frozenset({u(0), u(1), u(2)})
    assert d.initial == frozenset({u(0)})
    assert d.edges == frozenset({(u(0), u(1)), (u(1), u(2))})
    assert d.closing == frozenset({(u(1), u(2))})
    assert d.from_tau == frozenset()
    assert discrete_traces(d) == frozenset({(u(0), u(1))})


def test_timeless_projection_overapproximates():
    fx = gallery_fixture("example10")
    initial, edges = timeless_discretize(fx["system"], 1)
    s = State.make("m", {"u": Q(1)})
    assert initial == frozenset({s}) and edges == frozenset({(s, s)})
    demo = timeless_overapprox_demo(fx["system"], 1, 4)
    assert demo["has_cycle"] and demo["strictly_overapproximates"]


def test_theorem6_on_random_systems(rng):
    for _ in range(25):
        h = random_explicit(rng)
        ok, diff, _ = theorem6_check(h, 1, 10)
        assert ok, diff


def test_hypotheses_pass_on_identity():
    p = TankParams.make(x0_samples=(1,))
    h = build_tank_automaton(p)
    r = tank_relations(p)["r39"]
    rep = discretization_hypotheses(r, h, h, 1, horizon=9)
    assert rep["ok"], rep


@pytest.mark.parametrize(
    "name", ["fig8-1", "fig8-2", "fig8-3"]
)
def test_gallery_attributions_unique(name):
    fx = gallery_fixture(name)
    rep = discretization_hypotheses(
        fx["relation"], fx["concrete"], fx["abstract"], fx["delta"]
    )
    expected = fx["expected_hypothesis"]
    assert not rep["ok"]
    for key in ("(68)", "(69)", "(70)", "(71)"):
        if key == expected:
            assert rep[key], (key, rep)
        else:
            assert not rep[key], (key, rep)


@pytest.mark.parametrize("name", ["fig8-1", "fig8-2", "fig8-3"])
def test_gallery_discrete_simulation_fails(name):
    fx = gallery_fixture(name)
    d1 = hts_discretize(fx["concrete"], fx["delta"])
    d2 = hts_discretize(fx["abstract"], fx["delta"])
    R = relation_discretize(
        fx["relation"], fx["delta"], d1, d2,
        extra_abstract=fx.get("extra_abstract", ()),
    )
    ok, witness = milner_sim_check(R, d1, d2)
    assert not ok and witness is not None


def test_tank_discrete_simulation_passes():
    p = TankParams.make(x0_samples=(1,))
    h = build_tank_automaton(p)
    r = tank_relations(p)["r39"]
    d = hts_discretize(h, 1, horizon=9)
    R = relation_discretize(r, 1, d, d)
    ok, _ = milner_sim_check(R, d, d)
    assert ok
    # the greatest discrete simulation contains the sampled relation
    assert R <= greatest_discrete_simulation(d, d)


def _small_discrete_systems():
    """Every system whose ranks hold (1, 1), (1, 2), (2, 1) or (1, 1, 1)
    states, with any set of edges between consecutive ranks."""
    out = []
    for sizes in ((1, 1), (1, 2), (2, 1), (1, 1, 1)):
        levels = [
            [TimefulState(State.make("m", {"u": Q(i)}), n) for i in range(k)]
            for n, k in enumerate(sizes)
        ]
        steps = [(a, b) for lo, hi in zip(levels, levels[1:]) for a in lo for b in hi]
        states = frozenset(u for level in levels for u in level)
        for bits in itertools.product((0, 1), repeat=len(steps)):
            edges = frozenset(e for e, bit in zip(steps, bits) if bit)
            out.append(DiscreteTransitionSystem(states, frozenset(levels[0]), edges))
    return out


def test_greatest_discrete_simulation_matches_brute_force():
    """The greatest simulation is the union of every relation inside the
    start set that the Milner check accepts, and it is accepted itself."""
    systems = _small_discrete_systems()
    for d1, d2 in itertools.product(systems, repeat=2):
        full = sorted(((u, v) for u in d1.states for v in d2.states), key=repr)
        same_rank = [(u, v) for u, v in full if u.rank == v.rank]
        for start in (None, frozenset(same_rank)):
            cand = full if start is None else same_rank
            union = set()
            for bits in itertools.product((0, 1), repeat=len(cand)):
                R = frozenset(p for p, bit in zip(cand, bits) if bit)
                if milner_sim_check(R, d1, d2)[0]:
                    union |= R
            gsim = greatest_discrete_simulation(d1, d2, start)
            assert gsim == union, (d1, d2, start)
            assert milner_sim_check(gsim, d1, d2) == (True, None)


def test_relation_domain_gap_refused():
    fx = gallery_fixture("example10")
    d = hts_discretize(fx["system"], 1)
    from hybridsem.time_core import TimeInterval

    gapped = TimedStateRelation(
        (Clause((parse_constraint("c_u = a_u"),)),),
        domain=(TimeInterval(Q(0), Q(1), True),),
    )
    with pytest.raises(DomainGapAtGridPoint):
        relation_discretize(gapped, 1, d, d)
