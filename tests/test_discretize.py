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
    _grid_points,
    _state_closed,
    discrete_traces,
    discretization_hypotheses,
    greatest_discrete_simulation,
    grid_alignment_check,
    grid_states,
    hts_discretize,
    milner_sim_check,
    relation_discretize,
    theorem6_check,
    timeful_sample,
    timeless_discretize,
    timeless_overapprox_demo,
)
from hybridsem.errors import (
    DomainGapAtGridPoint,
    EndpointSymbolsUnbound,
    Misaligned,
    ParamConstraintViolated,
    TruncatedInput,
)
from hybridsem.flow_config import (
    PiecewiseConfiguration,
    State,
    UNDEFINED,
    config_concat,
    make_config,
)
from hybridsem.hts import HybridTransitionSystem
from hybridsem.relation import Clause, TimedStateRelation
from hybridsem.simulation import config_graph
from hybridsem.time_core import INF, is_finite
from hybridsem.trajectory import Trajectory, trajectory_eval, trajectory_validate

from conftest import random_explicit, ref_state_related, rnd_q


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


def _random_config(rng, lo, hi, closed, piecewise):
    """A configuration over u and w on [lo, hi), closed at hi if
    `closed`; piecewise (two pieces meeting at a random inner point) if
    `piecewise` and the interval is long enough."""
    def plain(a, b, closed_hi):
        return make_config(rng.choice(("m", "n")), a, b,
                           {"u": rnd_q(rng), "w": rnd_q(rng)},
                           {"u": rnd_q(rng), "w": rnd_q(rng)}, closed_hi=closed_hi)

    if piecewise and is_finite(hi) and hi - lo >= Q(1, 2):
        mid = lo + Q(rng.randint(1, int((hi - lo) * 4)), 4)
        if mid < hi:
            return config_concat(plain(lo, mid, False), plain(mid, hi, closed))
    return plain(lo, hi, closed)


def test_grid_states_match_state_closed(rng):
    """grid_states holds, at each rank of _grid_points and in its order,
    the state _state_closed gives: plain and piecewise configurations,
    closed and open ends, aligned and non-aligned steps, and unbounded
    configurations cut by the horizon."""
    seen = {"piecewise": 0, "unbounded": 0, "open": 0, "empty": 0}
    for _ in range(300):
        lo = Q(rng.randint(0, 12), rng.choice((1, 2, 3, 4)))
        unbounded = rng.random() < 0.2
        hi = INF if unbounded else lo + Q(rng.randint(0, 12), rng.choice((1, 2, 4)))
        closed = not unbounded and rng.random() < 0.5
        c = _random_config(rng, lo, hi, closed, rng.random() < 0.4)
        delta = rng.choice((Q(1), Q(1, 2), Q(1, 4), Q(1, 3), Q(3, 4), Q(2, 5)))
        hcap = lo + Q(rng.randint(0, 16), 4) if unbounded or rng.random() < 0.5 else None
        ranks = list(_grid_points(c, delta, hcap))
        got = grid_states(c, delta, hcap)
        assert list(got) == ranks, (c, delta, hcap)
        for n in ranks:
            assert got[n] == TimefulState(_state_closed(c, n * delta), n), (c, delta, n)
        seen["piecewise"] += isinstance(c, PiecewiseConfiguration)
        seen["unbounded"] += unbounded
        seen["open"] += not closed and not unbounded
        seen["empty"] += not ranks
    assert all(k > 10 for k in seen.values()), seen


def test_unbounded_configuration_without_horizon_is_refused():
    """An unbounded configuration has no last grid point without a
    horizon: sampling it is refused, not a TypeError or an endless loop."""
    c = make_config("m", 0, INF, {"u": 0}, {"u": 1})
    h = HybridTransitionSystem.from_explicit(("u",), Q(1, 1000), (c,), (), (0,))
    with pytest.raises(TruncatedInput):
        grid_states(c, Q(1), None)
    with pytest.raises(TruncatedInput):
        discretization_hypotheses(TimedStateRelation((Clause(()),)), h, h, 1)
    with pytest.raises(TruncatedInput):
        hts_discretize(h, 1)


@pytest.mark.parametrize("horizon", [0, -5])
def test_graph_discretized_at_horizon_at_most_zero_is_refused(horizon):
    """A graph is not reached, so nothing else checks its horizon: at a
    horizon <= 0 hts_discretize refuses it rather than return its rank-0
    states with no edge."""
    with pytest.raises(ParamConstraintViolated, match=f"need horizon > 0, got {horizon}$"):
        hts_discretize(gallery_fixture("fig8-3")["abstract"], 1, horizon)


def _sample_by_eval(s, delta, horizon=None):
    """timeful_sample by one trajectory_eval scan per rank."""
    dur = s.duration
    if not is_finite(dur) or (horizon is not None and horizon < dur):
        dur = horizon
    out, n = [], 0
    while n * delta < dur:
        out.append(TimefulState(trajectory_eval(s, n * delta), n))
        n += 1
    return tuple(out)


def _random_trajectory(rng, end):
    """Consecutive plain and piecewise configurations from 0, the last
    one closed, open (a truncated prefix) or unbounded after `end`."""
    cuts = sorted({Q(0)} | {Q(rng.randint(1, 12), rng.choice((1, 2, 4)))
                            for _ in range(rng.randint(1, 4))})
    configs = []
    for i, lo in enumerate(cuts):
        last = i == len(cuts) - 1
        hi = cuts[i + 1] if not last else INF if end == "unbounded" else lo + 1
        configs.append(_random_config(rng, lo, hi, last and end == "closed",
                                      rng.random() < 0.3))
    return trajectory_validate(configs, truncated=end == "open")


def test_timeful_sample_matches_trajectory_eval(rng):
    """One pointer over the configurations samples what a trajectory_eval
    scan per rank samples: truncated, unbounded and horizon-cut
    trajectories, and UNDEFINED in a gap of an unvalidated trajectory."""
    seen = {"closed": 0, "open": 0, "unbounded": 0, "cut": 0}
    for _ in range(200):
        end = rng.choice(("closed", "open", "unbounded"))
        s = _random_trajectory(rng, end)
        delta = rng.choice((Q(1), Q(1, 2), Q(1, 3), Q(3, 4)))
        horizon = None
        if end == "unbounded" or rng.random() < 0.5:
            horizon = Q(rng.randint(1, 40), 4)
        assert timeful_sample(s, delta, horizon) == _sample_by_eval(s, delta, horizon)
        seen[end] += 1
        seen["cut"] += horizon is not None and horizon < s.duration
    assert all(k > 20 for k in seen.values()), seen
    gap = Trajectory((make_config("m", 0, 1, {"u": 0}, {"u": 1}),
                      make_config("m", 2, 3, {"u": 5}, {"u": 0}, closed_hi=True)))
    trace = timeful_sample(gap, Q(1, 2))
    assert trace == _sample_by_eval(gap, Q(1, 2))
    assert [u.state is UNDEFINED for u in trace] == [False, False, True, True, False, False]


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


@pytest.mark.parametrize("name", ["E_c", "R53"])
def test_hypotheses_refuse_endpoint_symbols(name):
    """Hypothesis (69) relates bare state pairs, which bind no B_*/E_*,
    so a relation using them is refused, not decided."""
    p = TankParams.make(x0_samples=(1,))
    h = build_tank_automaton(p)
    ends = (parse_constraint("c_y = a_y"), parse_constraint("t <= E_c"))
    relations = {"E_c": TimedStateRelation((Clause(ends),)), **tank_relations(p)}
    with pytest.raises(EndpointSymbolsUnbound):
        discretization_hypotheses(relations[name], h, h, 1, horizon=9)


def _brute_force_69(r, h, hb, delta, horizon) -> set:
    """Hypothesis (69) by one ref_state_related call per concrete grid
    point and abstract state of another rank."""
    G, Gb = config_graph(h, horizon), config_graph(hb, horizon)
    hcap = None if horizon is None else Q(horizon)
    at_rank = {}
    for cb in Gb.configs():
        for n in _grid_points(cb, delta, hcap):
            at_rank.setdefault(n, set()).add(_state_closed(cb, n * delta))
    every = set().union(*at_rank.values())
    return {
        (n, c, sb)
        for c in G.configs()
        for n in _grid_points(c, delta, hcap)
        for sb in every
        if sb not in at_rank.get(n, ())
        and ref_state_related(r, n * delta, _state_closed(c, n * delta), sb)
    }


def _hypothesis_69_inputs():
    out = {}
    for name in ("fig8-1", "fig8-2", "fig8-3"):
        fx = gallery_fixture(name)
        out[name] = (fx["relation"], fx["concrete"], fx["abstract"], fx["delta"], None)
    p = TankParams.make(x0_samples=(1,))
    h = build_tank_automaton(p)
    always = TimedStateRelation((Clause(()),))
    out["tank-r39"] = (tank_relations(p)["r39"], h, h, Q(1), Q(9))
    out["tank-always"] = (always, h, h, Q(1, 4), Q(12))
    return out


@pytest.mark.parametrize("name", sorted(_hypothesis_69_inputs()))
def test_hypothesis_69_matches_brute_force(name):
    """(69) decided per grid point against split constraints lists each
    violation once, and exactly those of the pairwise loop."""
    r, h, hb, delta, horizon = _hypothesis_69_inputs()[name]
    got = discretization_hypotheses(r, h, hb, delta, horizon)["(69)"]
    assert len(got) == len(set(got))
    assert set(got) == _brute_force_69(r, h, hb, delta, horizon)
    assert bool(got) == (name in ("fig8-2", "tank-always"))


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
