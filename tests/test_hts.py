from fractions import Fraction as Q

import pytest

from hybridsem.affine import LinExpr, parse_constraint
from hybridsem.casestudy import gallery_fixture
from hybridsem.discretize import hts_discretize
from hybridsem.errors import (
    BranchingExplosion,
    FinalNotClosed,
    NonConsecutiveEdge,
    ParamConstraintViolated,
    ParseError,
)
from hybridsem.flow_config import Configuration, make_config
from hybridsem.hts import (
    Edge,
    ExitCondition,
    HybridTransitionSystem,
    ModeSchema,
    hts_from_json,
    hts_validate,
    semantics_generate,
)
from hybridsem.simulation import config_graph
from hybridsem.time_core import TimeInterval
from hybridsem.trajectory import trajectory_timeline, trajectory_validate

from conftest import random_explicit


def two_mode_system():
    """up fills u at rate 1 until u=2; down drains at -1 until u=0."""
    up = ModeSchema.make(
        "up", {"u": 1}, exit=ExitCondition("reach", LinExpr.constant(2), "u")
    )
    down = ModeSchema.make(
        "down", {"u": -1}, exit=ExitCondition("reach", LinExpr.constant(0), "u")
    )
    return HybridTransitionSystem.from_schemas(
        ("u",), Q(1, 1000),
        (up, down),
        (Edge.make("up", "down"), Edge.make("down", "up")),
        [("up", {"u": Q(0)})],
    )


def test_schema_semantics_alternates():
    sem = semantics_generate(two_mode_system(), 8)
    (s,) = sem.trajectories
    assert s.truncated
    assert trajectory_timeline(s) == (0, 2, 4, 6, 8)
    modes = [c.flow.mode for c in s.configs]
    assert modes == ["up", "down", "up", "down"]


def test_duration_exit():
    hold = ModeSchema.make(
        "hold", {"u": 0}, exit=ExitCondition("duration", LinExpr.constant(Q(3, 2))),
        terminal=False,
    )
    done = ModeSchema.make("done", {"u": 0}, terminal=True)
    h = HybridTransitionSystem.from_schemas(
        ("u",), Q(1, 1000), (hold, done), (Edge.make("hold", "done"),),
        [("hold", {"u": Q(7)})],
    )
    sem = semantics_generate(h, 10)
    (s,) = sem.trajectories
    assert s.configs[0].e == Q(3, 2)
    # the terminal mode has no exit: the tail is a horizon prefix
    assert s.truncated and s.configs[-1].e == 10


def test_entry_constraint_filters_initial():
    m = ModeSchema.make(
        "m", {"u": 1},
        entry=(parse_constraint("u = 0"),),
        exit=ExitCondition("duration", LinExpr.constant(1)),
        terminal=True,
    )
    h = HybridTransitionSystem.from_schemas(
        ("u",), Q(1, 1000), (m,), (), [("m", {"u": Q(1)})]
    )
    assert semantics_generate(h, 5).trajectories == frozenset()


def test_reset_applies_at_edge():
    up = ModeSchema.make("up", {"u": 1}, exit=ExitCondition("reach", LinExpr.constant(1), "u"))
    flat = ModeSchema.make("flat", {"u": 0}, terminal=True)
    h = HybridTransitionSystem.from_schemas(
        ("u",), Q(1, 1000), (up, flat),
        (Edge.make("up", "flat", {"u": LinExpr.constant(9)}),),
        [("up", {"u": Q(0)})],
    )
    sem = semantics_generate(h, 10)
    (s,) = sem.trajectories
    assert s.configs[1].flow.state_at(s.configs[1].b).var("u") == 9


def test_blocked_schema_raises():
    m = ModeSchema.make("m", {"u": 1}, exit=ExitCondition("duration", LinExpr.constant(1)))
    h = HybridTransitionSystem.from_schemas(
        ("u",), Q(1, 1000), (m,), (), [("m", {"u": Q(0)})]
    )
    with pytest.raises(FinalNotClosed):
        semantics_generate(h, 5)


def test_explicit_validate_flags_shape_errors():
    good = make_config("m", 0, 1, {"u": 0}, {"u": 0}, closed_hi=True)
    bad = make_config("m", 1, 2, {"u": 0}, {"u": 0}, closed_hi=True)
    h = HybridTransitionSystem.from_explicit(("u",), Q(1, 1000), (good, bad), (), (0, 1))
    issues = hts_validate(h)
    assert ("InitialNotAtZero", bad) in issues


def test_edge_out_of_final_explicit_configuration_raises():
    # a@[0,1] is closed, so final, yet an edge leaves it
    a = make_config("a", 0, 1, {"u": 0}, {"u": 0}, closed_hi=True)
    b = make_config("b", 1, 2, {"u": 0}, {"u": 0}, closed_hi=True)
    h = HybridTransitionSystem.from_explicit(("u",), Q(1, 1000), (a, b), ((0, 1),), (0,))
    assert hts_validate(h) == [("FinalNotClosed", ("edge out of final configuration", a))]
    with pytest.raises(FinalNotClosed):
        semantics_generate(h, 5)
    with pytest.raises(FinalNotClosed):
        config_graph(h, 5)


def _open_leaf_system():
    # a@[0,1) is open and finite, so not final, yet no edge leaves it
    a = make_config("a", 0, 1, {"u": 0}, {"u": 0})
    return a, HybridTransitionSystem.from_explicit(("u",), Q(1, 1000), (a,), (), (0,))


def test_non_final_explicit_leaf_raises():
    a, h = _open_leaf_system()
    assert hts_validate(h) == [("FinalNotClosed", a)]
    with pytest.raises(FinalNotClosed):
        semantics_generate(h, 5)
    with pytest.raises(FinalNotClosed):
        config_graph(h, 5)


def test_non_final_explicit_leaf_on_the_horizon_is_cut():
    # ending on the horizon, its missing successor lies beyond it: the
    # configuration is cut there, as a schema configuration would be
    a, h = _open_leaf_system()
    (s,) = semantics_generate(h, 1).trajectories
    assert s.truncated and s.configs == (a,)
    G = config_graph(h, 1)
    assert G.configs() == (a,) and a in G.truncated


def test_non_consecutive_explicit_edge_raises():
    # b starts at 2, a ends at 1: following the edge would leave a gap
    # (semantics_generate once failed on it as GapBetweenConfigurations,
    # and hts_discretize gave <b; u=4> at t = 1, b's flow extrapolated)
    a = make_config("a", 0, 1, {"u": 0}, {"u": 0})
    b = make_config("b", 2, 3, {"u": 4}, {"u": 0}, closed_hi=True)
    h = HybridTransitionSystem.from_explicit(("u",), Q(1, 1000), (a, b), ((0, 1),), (0,))
    assert hts_validate(h) == [("NonConsecutiveEdge", (a, b))]
    with pytest.raises(NonConsecutiveEdge):
        semantics_generate(h, 5)
    with pytest.raises(NonConsecutiveEdge):
        config_graph(h, 5)
    with pytest.raises(NonConsecutiveEdge):
        hts_discretize(h, 1, 5)


def test_explicit_branching_enumerates_all_paths(rng):
    for _ in range(20):
        h = random_explicit(rng)
        sem = semantics_generate(h, 20)
        # every complete trajectory ends in a successor-free closed config
        succ = {i: [] for i in range(len(h.explicit.configs))}
        for i, j in h.explicit.edges:
            succ[i].append(j)
        for s in sem.trajectories:
            assert not s.truncated
            assert s.configs[-1].interval.closed_hi


def test_branching_cap():
    # 2 wide, 14 deep: 2^14 paths exceeds the default trajectory cap
    configs, edges = [], []
    for lvl in range(14):
        for j in range(2):
            configs.append(
                make_config("m", lvl, lvl + 1, {"u": j}, {"u": 0}, closed_hi=(lvl == 13))
            )
    for lvl in range(13):
        for a in (2 * lvl, 2 * lvl + 1):
            edges.extend([(a, 2 * lvl + 2), (a, 2 * lvl + 3)])
    h = HybridTransitionSystem.from_explicit(
        ("u",), Q(1, 1000), tuple(configs), tuple(edges), (0, 1)
    )
    with pytest.raises(BranchingExplosion):
        semantics_generate(h, 20)
    # the graph has 28 configurations and lists no trajectory
    G = config_graph(h, 20)
    assert len(G.configs()) == 28 and not G.truncated


def _reference_semantics(h, horizon, depth):
    """Brute force: every path of explicit indices from an initial
    configuration, grown until its last configuration crosses the
    horizon (cut there), has no successor (complete), ends on the
    horizon or holds `depth` configurations (truncated)."""
    ex = h.explicit
    out = set()

    def grow(path):
        configs = [ex.configs[i] for i in path]
        last, nexts = configs[-1], [j for i, j in ex.edges if i == path[-1]]
        if last.e > horizon:
            cut = Configuration(last.flow, TimeInterval(last.b, horizon, False))
            out.add(trajectory_validate(configs[:-1] + [cut], truncated=True))
        elif not nexts:
            out.add(trajectory_validate(configs, truncated=False))
        elif last.e == horizon or len(path) == depth:
            out.add(trajectory_validate(configs, truncated=True))
        else:
            for j in nexts:
                grow(path + [j])

    for i in ex.initial:
        grow([i])
    return frozenset(out)


def test_semantics_are_the_maximal_paths_of_the_reached_graph(rng):
    seen = {"duplicates": 0, "mid-configuration cut": 0, "depth cut": 0}
    for _ in range(200):
        h = random_explicit(rng, max_levels=5, max_width=3)
        ex = h.explicit
        # some configurations take the value of the first one of their
        # level, so equal configurations sit at distinct indices with
        # distinct successors
        first = {}
        configs = tuple(
            first.setdefault(c.b, c) if rng.random() < 0.5 else c for c in ex.configs
        )
        h = HybridTransitionSystem.from_explicit(
            h.variables, h.zeta, configs, ex.edges, ex.initial
        )
        horizon = rng.choice((Q(3, 2), Q(5, 2), 3, 10))
        depth = rng.choice((2, 3, 64))
        got = semantics_generate(h, horizon, depth).trajectories
        assert got == _reference_semantics(h, horizon, depth)
        seen["duplicates"] += len(set(configs)) < len(configs)
        seen["mid-configuration cut"] += any(
            s.truncated and s.duration == horizon and horizon.denominator > 1 for s in got
        )
        seen["depth cut"] += any(s.truncated and len(s.configs) == depth for s in got)
    assert all(seen.values()), seen


@pytest.mark.parametrize("zeta", [Q(0), Q(-1, 100)])
def test_minimum_duration_must_be_positive(zeta):
    """zeta <= 0 would admit Zeno runs; it is refused once, when a system
    is built, whichever way it is built."""
    c = make_config("m", 0, 1, {"u": 0}, {"u": 1}, closed_hi=True)
    with pytest.raises(ParamConstraintViolated):
        HybridTransitionSystem.from_explicit(("u",), zeta, (c,), (), (0,))
    with pytest.raises(ParamConstraintViolated):
        HybridTransitionSystem.from_schemas(("u",), zeta, (), (), [])
    for name in ("tank-automaton", "tank-impl", "example10"):
        with pytest.raises(ParamConstraintViolated):
            gallery_fixture(name, zeta=zeta)
    doc = {"variables": ["u"], "zeta": str(zeta),
           "modes": [{"name": "m", "rates": {"u": "1"}, "terminal": True}],
           "initial": [{"mode": "m", "values": {"u": "0"}}]}
    with pytest.raises(ParamConstraintViolated):
        hts_from_json(doc)


def test_a_mode_or_variable_defined_twice_is_refused():
    """Generation looks modes up by name, so a second definition of one
    would silently replace or lose the first: the file reader names the
    duplicate, and a system built in code refuses it too."""
    first = {"name": "m", "rates": {"u": "1"}, "exit": {"type": "duration", "value": "1"},
             "terminal": True}
    doc = {"variables": ["u"], "modes": [first, {"name": "m", "rates": {"u": "7"},
                                                  "terminal": True}],
           "initial": [{"mode": "m", "values": {"u": "0"}}]}
    with pytest.raises(ParseError, match="mode\\(s\\) m more than once"):
        hts_from_json(doc)
    with pytest.raises(ParseError, match="variable\\(s\\) u more than once"):
        hts_from_json({**doc, "variables": ["u", "u"], "modes": [first]})
    hold = ModeSchema.make("m", {"u": 0}, terminal=True)
    with pytest.raises(ParamConstraintViolated, match="mode\\(s\\) m defined more than once"):
        HybridTransitionSystem.from_schemas(("u",), Q(1, 100), (hold, hold), (), [])


def test_an_edge_or_initial_state_naming_an_undefined_mode_is_refused():
    """Generation looks the modes of edges and initial states up by name:
    a system built in code that names an undefined one is refused when
    built, where generating from it once raised a bare KeyError."""
    m = ModeSchema.make("m", {"u": 1}, exit=ExitCondition("duration", LinExpr.constant(1)))
    ok = HybridTransitionSystem.from_schemas(("u",), Q(1, 100), (m,), (Edge.make("m", "m"),),
                                             [("m", {"u": 0})])
    assert config_graph(ok, 2).initial
    for edges, initial, named in (((Edge.make("m", "n"),), [("m", {"u": 0})], "n"),
                                  ((Edge.make("k", "m"),), [("m", {"u": 0})], "k"),
                                  ((), [("m", {"u": 0}), ("z", {"u": 0})], "z"),
                                  ((Edge.make("m", "y"),), [("x", {"u": 0})], "x, y")):
        with pytest.raises(ParamConstraintViolated, match=f"undefined mode\\(s\\) {named}$"):
            HybridTransitionSystem.from_schemas(("u",), Q(1, 100), (m,), edges, initial)
