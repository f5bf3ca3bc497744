"""Simulation machinery over finite configuration universes: splicing,
canonical keys, transfer candidates, the greatest-fixpoint computation
and the derived checks."""

from fractions import Fraction as Q

import pytest

from hybridsem.casestudy import (
    TankParams,
    build_tank_automaton,
    gallery_fixture,
    tank_relations,
)
from hybridsem.errors import NotSliceClosed, PremiseFailed
from hybridsem.flow_config import EPSILON, PiecewiseConfiguration, make_config
from hybridsem.relation import (
    Clause,
    TimedStateRelation,
    config_related,
    traj_related_timewise,
)
from hybridsem.affine import parse_constraint
from hybridsem.hts import semantics_generate
from hybridsem.simulation import (
    ConfigGraph,
    bisim_check,
    canonical_key,
    compose_check,
    config_graph,
    configs_well_nested,
    greatest_simulation,
    preservation_check,
    relation_inverse,
    sim_check,
    sim_transfer,
    slice_closure,
    splice,
    theorem4_match,
    verify_by_simulation,
    well_nested_check,
)
from hybridsem.time_core import INF
from hybridsem.trajectory import trajectory_validate

EQ = TimedStateRelation((Clause((parse_constraint("c_u = a_u"),)),))


def rel(c, d):
    return config_related(EQ, c, d)


def test_splice_window():
    c = make_config("m", 0, 1, {"u": 0}, {"u": 1})
    d = make_config("m", 1, 2, {"u": 1}, {"u": 1}, closed_hi=True)
    s = splice(c, d, Q(1, 2), Q(3, 2))
    assert s.b == Q(1, 2) and s.e == Q(3, 2)
    assert s.state_at(Q(1)).var("u") == 1
    # empty window refused
    assert splice(c, d, Q(1), Q(1)) is None
    # EPSILON second argument keeps only the first configuration
    s2 = splice(c, EPSILON, Q(0), Q(1, 2))
    assert s2.e == Q(1, 2)


def test_canonical_key_merges_continuations():
    whole = make_config("m", 0, 2, {"u": 0}, {"u": 1}, closed_hi=True)
    split = PiecewiseConfiguration(
        (
            make_config("m", 0, 1, {"u": 0}, {"u": 1}),
            make_config("m", 1, 2, {"u": 1}, {"u": 1}, closed_hi=True),
        )
    )
    assert canonical_key(whole) == canonical_key(split)
    jump = PiecewiseConfiguration(
        (
            make_config("m", 0, 1, {"u": 0}, {"u": 1}),
            make_config("m", 1, 2, {"u": 5}, {"u": 1}, closed_hi=True),
        )
    )
    assert canonical_key(whole) != canonical_key(jump)


def test_sim_transfer_finds_matching_step():
    c = make_config("m", 0, 1, {"u": 0}, {"u": 1})
    c2 = make_config("m", 1, 2, {"u": 1}, {"u": 1}, closed_hi=True)
    cb = make_config("m", 0, 1, {"u": 0}, {"u": 1})
    cb2 = make_config("m", 1, 2, {"u": 1}, {"u": 1}, closed_hi=True)
    cands = sim_transfer(rel, lambda _: (cb2,), c, cb, c2)
    assert any(choice is cb2 for choice, _, _ in cands)


def test_sim_transfer_stay_requires_epsilon_bound():
    # abstract configuration already covers the concrete step
    c = make_config("m", 0, 1, {"u": 0}, {"u": 0})
    c2 = make_config("m", 1, 2, {"u": 0}, {"u": 0}, closed_hi=True)
    cb = make_config("m", 0, 3, {"u": 0}, {"u": 0}, closed_hi=True)
    cands = sim_transfer(rel, lambda _: (), c, cb, c2)
    assert [choice for choice, _, _ in cands] == [EPSILON]
    # but not when the concrete step outlives it
    cb_short = make_config("m", 0, Q(3, 2), {"u": 0}, {"u": 0}, closed_hi=True)
    assert sim_transfer(rel, lambda _: (), c, cb_short, c2) == []


def _line_graph(*cfgs):
    succ = tuple(
        (c, (cfgs[i + 1],) if i + 1 < len(cfgs) else ()) for i, c in enumerate(cfgs)
    )
    return ConfigGraph((cfgs[0],), succ)


def test_sim_check_identity_passes_both_modes():
    c1 = make_config("m", 0, 1, {"u": 0}, {"u": 1})
    c2 = make_config("m", 1, 2, {"u": 1}, {"u": -1}, closed_hi=True)
    G = _line_graph(c1, c2)
    for mode in ("async", "sync"):
        rep = sim_check(EQ, G, G, mode=mode)
        assert rep.verdict, rep.violations
        assert rep.hypothesis_results["init(56)"][0]
        assert rep.hypothesis_results["blocking(57)"][0]


def test_sim_check_detects_unmatched_step():
    c1 = make_config("m", 0, 1, {"u": 0}, {"u": 0})
    c2 = make_config("m", 1, 2, {"u": 0}, {"u": 0}, closed_hi=True)
    a1 = make_config("m", 0, 1, {"u": 0}, {"u": 0})
    a2 = make_config("m", 1, 2, {"u": 9}, {"u": 0}, closed_hi=True)
    rep = sim_check(EQ, _line_graph(c1, c2), _line_graph(a1, a2))
    assert not rep.verdict
    assert any(cp == c2 for _, _, cp, _ in rep.violations)


def test_well_nested_witness():
    fx = gallery_fixture("fig7")
    ok, witness = well_nested_check(fx["T"], fx["Tb"])
    assert not ok
    _, _, j, k = witness
    assert (j, k) == (0, 0)


def test_configs_well_nested_positive():
    c = make_config("m", 0, 1, {"u": 0}, {"u": 0})
    cb = make_config("m", 0, 2, {"u": 0}, {"u": 0}, closed_hi=True)
    G, Gb = _line_graph(c), _line_graph(cb)
    ok, _ = configs_well_nested(G, Gb)
    assert ok


def test_slice_closure_contains_cuts():
    c = make_config("m", 0, 2, {"u": 0}, {"u": 1}, closed_hi=True)
    closed = slice_closure([c], extra_points=[Q(1)])
    assert any(s.b == 1 and s.e == 2 for s in closed)
    assert any(s.b == 0 and s.e == 1 for s in closed)


def test_greatest_simulation_on_matching_chain():
    c1 = make_config("m", 0, 1, {"u": 0}, {"u": 1})
    c2 = make_config("m", 1, 2, {"u": 1}, {"u": 1}, closed_hi=True)
    a1 = make_config("m", 0, 2, {"u": 0}, {"u": 1}, closed_hi=True)
    succ_c = {c1: (c2,), c2: ()}
    succ_a = {a1: ()}
    R = greatest_simulation([c1, c2], [a1], lambda c: succ_c.get(c, ()),
                            lambda a: succ_a.get(a, ()), related=rel)
    # the original initial pair survives the fixpoint
    assert any(
        canonical_key(p) == canonical_key(c1) and canonical_key(q) == canonical_key(a1)
        for p, q in R
    )
    # every surviving pair really is value-related on its overlap
    assert all(rel(p, q) for p, q in R)


def test_greatest_simulation_empty_when_values_disagree():
    c = make_config("m", 0, 1, {"u": 0}, {"u": 0}, closed_hi=True)
    a = make_config("m", 0, 1, {"u": 7}, {"u": 0}, closed_hi=True)
    R = greatest_simulation([c], [a], lambda _: (), lambda _: (), related=rel)
    assert R == set()


def test_greatest_simulation_tank_pinned():
    """The tank automaton against itself under r39 (x0 in {0, 1, 2},
    horizon 12); the count was taken with the round-robin removal loop
    that the worklist engine replaced."""
    p = TankParams.make(x0_samples=(0, 1, 2))
    r = tank_relations(p)["r39"]
    G = config_graph(semantics_generate(build_tank_automaton(p), 12))
    R = greatest_simulation(G.configs(), G.configs(), G.succ, G.succ,
                            related=lambda c, d: config_related(r, c, d))
    assert len(R) == 497


def test_greatest_simulation_splice_across_flows_leaves_universe():
    # c $ c' cut to [1, 3] runs through mode m and then mode n: no
    # slice of a single universe configuration has that key
    c = make_config("m", 0, 2, {"u": 0}, {"u": 0})
    c2 = make_config("n", 2, 3, {"u": 0}, {"u": 0}, closed_hi=True)
    a = make_config("m", 0, 1, {"u": 0}, {"u": 0})
    a2 = make_config("n", 1, 3, {"u": 0}, {"u": 0}, closed_hi=True)
    succ_c, succ_a = {c: (c2,)}, {a: (a2,)}
    with pytest.raises(NotSliceClosed):
        greatest_simulation([c, c2], [a, a2], lambda x: succ_c.get(x, ()),
                            lambda x: succ_a.get(x, ()))


def test_theorem4_match_prefers_finite_end_past_1e9():
    """Responses order by least end with unbounded ends last, so a
    finite end beyond 10**9 still comes before an unbounded one."""
    c1 = make_config("m", 0, 1, {"u": 0}, {"u": 0})
    c2 = make_config("m", 1, 2, {"u": 0}, {"u": 0}, closed_hi=True)
    a1 = make_config("m", 0, 1, {"u": 0}, {"u": 0})
    far = make_config("m", 1, 10 ** 9 + 1, {"u": 0}, {"u": 0}, closed_hi=True)
    unbounded = make_config("m", 1, INF, {"u": 0}, {"u": 0})
    Gb = ConfigGraph((a1,), ((a1, (far, unbounded)), (far, ()), (unbounded, ())))
    sb, _ = theorem4_match(EQ, trajectory_validate([c1, c2]), Gb)
    assert list(sb.configs) == [a1, far]


def test_theorem4_match_builds_related_trajectory():
    c1 = make_config("m", 0, 1, {"u": 0}, {"u": 1})
    c2 = make_config("m", 1, 2, {"u": 1}, {"u": 1}, closed_hi=True)
    sigma = trajectory_validate([c1, c2])
    a1 = make_config("m", 0, 2, {"u": 0}, {"u": 1}, closed_hi=True)
    Gb = ConfigGraph((a1,), ((a1, ()),))
    sb, cert = theorem4_match(EQ, sigma, Gb)
    assert traj_related_timewise(EQ, sigma, sb)
    assert cert == {"timewise": True, "rankwise": True}


def test_compose_check_nested_intermediate():
    fx = gallery_fixture("fig6")
    (s,), (mid,), (top,) = fx["T"], fx["Tb"], fx["Tbb"]
    ok, failures, _ = compose_check(
        fx["relation"], fx["relation"], fx["T"], {s: mid}, {mid: top}
    )
    assert ok and failures == []


def test_relation_inverse_swaps_sides():
    r = TimedStateRelation((Clause((parse_constraint("a_u - c_u = 1"),)),))
    inv = relation_inverse(r)
    c = make_config("m", 0, 1, {"u": 0}, {"u": 0}, closed_hi=True)
    d = make_config("m", 0, 1, {"u": 1}, {"u": 0}, closed_hi=True)
    assert config_related(r, c, d)
    assert config_related(inv, d, c)
    dyn = TimedStateRelation((Clause((), dynamic=lambda ep: ()),))
    with pytest.raises(PremiseFailed):
        relation_inverse(dyn)


def test_bisim_on_identical_graph():
    c = make_config("m", 0, 1, {"u": 0}, {"u": 1}, closed_hi=True)
    G = _line_graph(c)
    rep = bisim_check(EQ, G, G)
    assert rep.verdict


def test_fig11_simulation_holds_preservation_fails():
    fx = gallery_fixture("fig11")
    sim = sim_check(fx["relation"], fx["concrete"], fx["abstract"])
    assert sim.verdict
    pres = preservation_check(fx["relation"], fx["concrete"], fx["abstract"])
    assert not pres.verdict


def test_verify_by_simulation_audit():
    c = make_config("m", 0, 1, {"u": 0}, {"u": 1}, closed_hi=True)
    G = _line_graph(c)
    sb = trajectory_validate([c])
    audit = verify_by_simulation(EQ, G, G, [sb], lambda s: True)
    assert audit["simulation"] and audit["conclusion"]
    with pytest.raises(PremiseFailed):
        verify_by_simulation(EQ, G, G, [sb], lambda s: False)


def test_splice_and_slice_closure_propagate_programming_errors(monkeypatch):
    import hybridsem.simulation as simulation

    def broken(*args, **kwargs):
        raise TypeError("bug inside config_slice")

    monkeypatch.setattr(simulation, "config_slice", broken)
    c = make_config("m", 0, 1, {"u": 0}, {"u": 1})
    d = make_config("m", 1, 2, {"u": 1}, {"u": 1}, closed_hi=True)
    with pytest.raises(TypeError):
        splice(c, d, Q(1, 2), Q(3, 2))
    with pytest.raises(TypeError):
        slice_closure([c, d])
