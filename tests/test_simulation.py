"""Simulation machinery over finite configuration universes: splicing,
canonical keys, transfer candidates, the greatest-fixpoint computation
and the derived checks."""

import itertools
import random
from fractions import Fraction as Q

import pytest

from hybridsem.casestudy import (
    TankParams,
    build_tank_automaton,
    gallery_fixture,
    tank_relations,
)
from hybridsem.errors import MissingIntermediateWitness, PremiseFailed, UniverseTooLarge
from hybridsem.flow_config import (
    EPSILON,
    PiecewiseConfiguration,
    config_concat,
    make_config,
    overlap_ids,
    overlapping,
    pieces,
)
from hybridsem.relation import (
    Clause,
    TimedStateRelation,
    config_related,
    forall_window_related,
    traj_related_timewise,
)
from hybridsem.affine import LinExpr, parse_constraint
from hybridsem.hts import Edge, ExitCondition, HybridTransitionSystem, ModeSchema
from hybridsem.simulation import (
    SimReport,
    bisim_check,
    canonical_key,
    compose_check,
    config_graph,
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
from hybridsem.time_core import INF, TimeInterval, interval_intersect, is_finite, tmin
from hybridsem.trajectory import trajectory_validate

from conftest import id_graph
from simulation_parent import _universe_guard, by_value

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
    return id_graph((cfgs[0],), succ)


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
    ok, _ = sim_check(EQ, G, Gb).hypothesis_results["well_nested(59)"]
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
    R = greatest_simulation(_line_graph(c1, c2), _line_graph(a1), related=rel)
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
    R = greatest_simulation(_line_graph(c), _line_graph(a), related=rel)
    assert R == set()


def test_greatest_simulation_tank_pinned():
    """The tank automaton against itself under r39 (x0 in {0, 1, 2},
    horizon 12): 24 pairs of graph configurations, which are the 497
    pairs found over slice-closed universes restricted to the graph's."""
    p = TankParams.make(x0_samples=(0, 1, 2))
    r = tank_relations(p)["r39"]
    G = config_graph(build_tank_automaton(p), 12)
    R = greatest_simulation(G, G, related=lambda c, d: config_related(r, c, d))
    assert len(R) == 24


def _branching(k, dropped=None):
    """k unit-dwell modes, all initial at time 0; mode i steps to i or
    i+1 mod k and sets u to the target's index.  `dropped` removes the
    edge dropped -> dropped+1."""
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


def test_greatest_simulation_branching_pair_past_the_trajectory_cap():
    """C against C minus m -> m+1 under equal u.  Mode i at time t is
    simulated unless C walks from i to m in d = (m - i) mod k steps and
    steps on before the horizon, so min(d + 1, h) start times survive.
    Listing the trajectories would exceed the trajectory cap."""
    k, m, h = 6, 2, 30
    G, Gb = config_graph(_branching(k), h), config_graph(_branching(k, dropped=m), h)
    R = greatest_simulation(G, Gb, related=rel)
    assert len(R) == sum(min((m - i) % k + 1, h) for i in range(k))


def _brute_force_gsim(C, A, succ_c, succ_a, related):
    """The given pairs in the union of every simulation over the pairs
    reached from the given ones by responses, enumerated over all their
    subsets.  A pair is kept by canonical keys and steps as the given
    configurations with its keys, or not at all."""
    own = {canonical_key(x): x for x in (*C, *A)}
    succ = lambda f, x: f(own.get(canonical_key(x), x))
    cands, todo = {}, [(c, a) for c, a, _ in overlapping(C, A)]
    while todo:
        c, a = todo.pop()
        key = (canonical_key(c), canonical_key(a))
        if key not in cands and related(c, a):
            cands[key] = (c, a)
            todo += [resp[1:] for cp in succ(succ_c, c)
                     for resp in sim_transfer(related, lambda x: succ(succ_a, x), c, a, cp)]
    union = set()
    for bits in itertools.product((0, 1), repeat=len(cands)):
        R = {k for k, b in zip(cands, bits) if b}
        if all(any((canonical_key(sc), canonical_key(sa)) in R
                   for _, sc, sa in sim_transfer(related, lambda x: succ(succ_a, x), c, a, cp))
               for c, a in (cands[k] for k in R) for cp in succ(succ_c, c)):
            union |= R
    return {(c, a) for c, a, _ in overlapping(C, A)
            if (canonical_key(c), canonical_key(a)) in union}


def test_greatest_simulation_splice_across_flows():
    """c $ c' cut to [1, 3] runs through mode m and then mode n, so no
    slice of one graph configuration has its key: the pair is decided
    on its own, as a brute-force search over simulations decides it."""
    c = make_config("m", 0, 2, {"u": 0}, {"u": 0})
    c2 = make_config("n", 2, 3, {"u": 0}, {"u": 0}, closed_hi=True)
    a = make_config("m", 0, 1, {"u": 0}, {"u": 0})
    a2 = make_config("n", 1, 3, {"u": 0}, {"u": 0}, closed_hi=True)
    succ_c, succ_a = {c: (c2,)}, {a: (a2,)}
    args = ([c, c2], [a, a2], lambda x: succ_c.get(x, ()), lambda x: succ_a.get(x, ()))
    for related, count in (
        (lambda c, a: True, 3),
        (lambda c, a: len(pieces(c)) == len(pieces(a)) == 1, 2),  # no splice across flows
        (lambda c, a: c.e <= 2 or a.b == 0, 0),
    ):
        R = greatest_simulation(_line_graph(c, c2), _line_graph(a, a2), related=related)
        assert R == _brute_force_gsim(*args, related)
        assert len(R) == count


def test_greatest_simulation_caps_its_demand_closure(monkeypatch):
    """The tank at horizon 12 closes on its 30 related graph pairs, of
    which 24 survive; a cap below 30 fails closed."""
    import hybridsem.simulation as simulation

    p = TankParams.make(x0_samples=(0, 1, 2))
    r = tank_relations(p)["r39"]
    G = config_graph(build_tank_automaton(p), 12)
    args = (G, G, lambda c, d: config_related(r, c, d))
    monkeypatch.setattr(simulation, "MAX_UNIVERSE", 30)
    assert len(greatest_simulation(*args)) == 24
    monkeypatch.setattr(simulation, "MAX_UNIVERSE", 29)
    with pytest.raises(UniverseTooLarge, match="past 29 pairs"):
        greatest_simulation(*args)


def test_theorem4_match_prefers_finite_end_past_1e9():
    """Responses order by least end with unbounded ends last, so a
    finite end beyond 10**9 still comes before an unbounded one."""
    c1 = make_config("m", 0, 1, {"u": 0}, {"u": 0})
    c2 = make_config("m", 1, 2, {"u": 0}, {"u": 0}, closed_hi=True)
    a1 = make_config("m", 0, 1, {"u": 0}, {"u": 0})
    far = make_config("m", 1, 10 ** 9 + 1, {"u": 0}, {"u": 0}, closed_hi=True)
    unbounded = make_config("m", 1, INF, {"u": 0}, {"u": 0})
    Gb = id_graph((a1,), ((a1, (far, unbounded)), (far, ()), (unbounded, ())))
    sb, _ = theorem4_match(EQ, trajectory_validate([c1, c2]), Gb)
    assert list(sb.configs) == [a1, far]


def test_theorem4_match_builds_related_trajectory():
    c1 = make_config("m", 0, 1, {"u": 0}, {"u": 1})
    c2 = make_config("m", 1, 2, {"u": 1}, {"u": 1}, closed_hi=True)
    sigma = trajectory_validate([c1, c2])
    a1 = make_config("m", 0, 2, {"u": 0}, {"u": 1}, closed_hi=True)
    Gb = id_graph((a1,), ((a1, ()),))
    sb, cert = theorem4_match(EQ, sigma, Gb)
    assert traj_related_timewise(EQ, sigma, sb)
    assert cert == {"timewise": True, "rankwise": True}


def _unit_chain(*ends, shift=0):
    """Consecutive u = t (+ shift) configurations between the ends, the
    last closed."""
    return [make_config("m", b, e, {"u": b + shift}, {"u": 1}, closed_hi=e == ends[-1])
            for b, e in zip(ends, ends[1:])]


def _chain_graph(configs):
    return id_graph((configs[0],), tuple(
        (c, tuple(configs[k + 1:k + 2])) for k, c in enumerate(configs)))


@pytest.mark.parametrize("ends", [(0, 2, 3), (0, 1, 3)])
def test_theorem4_match_lags_and_extends(ends):
    """Against the abstract chain [0,1) -> [1,2) -> [2,3] under c_u = a_u:
    from [0,2),[2,3] the abstract side lags behind the first concrete
    configuration and is extended alone; from [0,1),[1,3] the concrete
    steps run out at [1,2), and the termination loop adds [2,3]."""
    abstract = _unit_chain(0, 1, 2, 3)
    sb, cert = theorem4_match(EQ, trajectory_validate(_unit_chain(*ends)), _chain_graph(abstract))
    assert list(sb.configs) == abstract
    assert cert == {"timewise": True, "rankwise": True}


def test_theorem4_match_stops_where_no_successor_is_related():
    """The last abstract configuration is off by one on u, so the
    termination loop finds no related successor and leaves the abstract
    side a truncated prefix."""
    abstract = _unit_chain(0, 1, 2, 3)[:2] + _unit_chain(2, 3, shift=1)
    sigma = trajectory_validate(_unit_chain(0, 1, 3))
    sb, _ = theorem4_match(EQ, sigma, _chain_graph(abstract))
    assert list(sb.configs) == abstract[:2] and sb.truncated


def test_theorem4_match_fails_closed_at_its_step_cap(monkeypatch):
    """One concrete configuration over [0, 6] takes five termination
    steps to match against six unit ones; a cap of three would leave a
    prefix that still certifies, so the match raises instead."""
    import hybridsem.simulation as simulation

    abstract, sigma = _unit_chain(*range(7)), trajectory_validate(_unit_chain(0, 6))
    monkeypatch.setattr(simulation, "MAX_STEPS", 5)
    assert list(theorem4_match(EQ, sigma, _chain_graph(abstract))[0].configs) == abstract
    monkeypatch.setattr(simulation, "MAX_STEPS", 3)
    with pytest.raises(UniverseTooLarge, match="past 3 steps"):
        theorem4_match(EQ, sigma, _chain_graph(abstract))


def test_compose_check_nested_intermediate():
    fx = gallery_fixture("fig6")
    (s,), (mid,), (top,) = fx["T"], fx["Tb"], fx["Tbb"]
    ok, failures, _ = compose_check(
        fx["relation"], fx["relation"], fx["T"], [mid], [top]
    )
    assert ok and failures == []
    with pytest.raises(MissingIntermediateWitness):
        compose_check(fx["relation"], fx["relation"], fx["T"], [mid], [])


def _compose_by_whole_configs(r1, r2, T, witness1, witness2):
    """compose_check with each window decided by forall_window_related
    on the whole configurations, which sweeps their pieces again."""
    failures, certified = [], []
    for s in T:
        mid = witness1[s]
        top = witness2[mid]
        bound = TimeInterval(Q(0), tmin(s.duration, top.duration), False)
        for c, cmid, w1 in overlapping(s.configs, mid.configs):
            w1 = interval_intersect(w1, bound)
            if w1 is None:
                continue
            for ctop in top.configs:
                w = interval_intersect(w1, ctop.interval)
                if w is None:
                    continue
                for cp, mp, lower in overlapping(pieces(c), pieces(cmid)):
                    lower = interval_intersect(lower, w)
                    if lower is None:
                        continue
                    for _, tp, upper in overlapping((mp,), pieces(ctop)):
                        ww = interval_intersect(lower, upper)
                        if ww is None:
                            continue
                        ok1 = forall_window_related(r1, c, cmid, ww)
                        ok2 = forall_window_related(r2, cmid, ctop, ww)
                        if ok1 and ok2:
                            certified.append((s, ww, cp, tp))
                        else:
                            failures.append((s, c, cmid, ctop, ww, ok1, ok2))
    return not failures, failures, certified


def _piecewise_trajectory(rng, end):
    """Configurations on half-integer cuts of [0, end), some of them two
    pieces in two modes; closed, open or (end INF) unbounded."""
    last = end if is_finite(end) else Q(6)
    cuts = sorted({Q(0), last} | {Q(rng.randint(1, int(2 * last) - 1), 2) for _ in range(2)})
    closed = is_finite(end) and rng.random() < 0.5

    def piece(lo, hi, closed_hi=False):
        return make_config(rng.choice(("m", "n")), lo, hi, {"u": Q(rng.randint(-2, 2), 2)},
                           {"u": rng.choice((-1, 0, 1))}, closed_hi=closed_hi)

    configs = []
    for lo, hi in zip(cuts, cuts[1:]):
        is_last = hi == last
        hi_end = end if is_last else hi
        if hi - lo >= 1 and rng.random() < 0.5:
            mid = lo + Q(rng.randint(1, int(2 * (hi - lo)) - 1), 2)
            configs.append(config_concat(piece(lo, mid), piece(mid, hi_end, is_last and closed)))
        else:
            configs.append(piece(lo, hi_end, is_last and closed))
    return trajectory_validate(configs, truncated=not (closed or not is_finite(end)))


def test_compose_check_matches_whole_configuration_windows():
    """compose_check decides each window on the piece pairs it holds,
    with the endpoints of the whole configurations; on seeded piecewise
    chains it gives the failures and certified windows of deciding
    every window on the whole configurations.  Given a table of gamma(r1)'s
    verdicts on the overlapping pairs of each concrete and intermediate
    trajectory (known1), on all of them or on a seeded subset, it gives
    them too."""
    rng = random.Random(514)
    pick = random.Random(515)  # the subsets, apart from rng's inputs
    seen = {"ok": 0, "failed": 0, "piecewise": 0, "windows": 0, "whole overlap refuted": 0,
            "partial": 0}
    for _ in range(150):
        ends = [rng.choice((Q(3), Q(4), Q(9, 2), INF)) for _ in range(3)]
        s, mid, top = (_piecewise_trajectory(rng, e) for e in ends)
        r1, r2 = (TimedStateRelation((
            Clause((parse_constraint(f"c_u - a_u <= {rng.randint(0, 3)}"),
                    parse_constraint(f"a_u - c_u <= {rng.randint(0, 3)}"))),
            # E_c of a piecewise configuration is its last piece's end
            Clause((parse_constraint(f"t >= E_c - {rng.randint(0, 2)}"),),
                   concrete_mode=rng.choice((None, "m"))),
        )) for _ in range(2))
        got = compose_check(r1, r2, [s], [mid], [top])
        assert got == _compose_by_whole_configs(r1, r2, [s], {s: mid}, {mid: top})
        overlaps = overlap_ids(s.configs, mid.configs)
        known = {(k, m): config_related(r1, s.configs[k], mid.configs[m], w)
                 for k, m, w in overlaps}
        assert compose_check(r1, r2, [s], [mid], [top], [known]) == got
        part = {km: held for km, held in known.items() if pick.random() < 0.5}
        seen["partial"] += 0 < len(part) < len(known)
        assert compose_check(r1, r2, [s], [mid], [top], [part]) == got
        refuted = {w for k, m, w in overlaps if not known[k, m]}
        seen["whole overlap refuted"] += sum(f[4] in refuted for f in got[1])
        seen["ok" if got[0] else "failed"] += 1
        seen["windows"] += len(got[1]) + len(got[2])
        seen["piecewise"] += any(len(pieces(c)) > 1 for t in (s, mid, top) for c in t.configs)
    assert all(seen.values()), seen


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


def test_relation_inverse_swaps_endpoint_symbols():
    """B_c/E_c and B_a/E_a change places, so the inverse relates (d, c)
    exactly where r relates (c, d); every end is finite, so each symbol
    is bound on both pairs."""
    texts = ("E_c - B_a >= 1", "t <= E_a - 1/2", "B_c = B_a", "E_c <= E_a",
             "c_u - a_u <= B_c", "a_u >= E_c - t", "t >= B_a + 1/2", "c_u <= E_a")
    rng = random.Random(925)
    seen = {True: 0, False: 0}
    for _ in range(200):
        cons = tuple(parse_constraint(rng.choice(texts)) for _ in range(rng.randint(1, 2)))
        # one conjunctive clause, or one clause per constraint
        clauses = (Clause(cons),) if rng.random() < 0.5 else tuple(Clause((x,)) for x in cons)
        r = TimedStateRelation(clauses)
        c, d = (make_config("m", b, b + rng.randint(1, 3), {"u": rng.randint(0, 3)},
                            {"u": Q(rng.randint(-2, 2), 2)}, closed_hi=rng.random() < 0.5)
                for b in (rng.randint(0, 2), rng.randint(0, 2)))
        got = config_related(r, c, d)
        assert config_related(relation_inverse(r), d, c) == got
        seen[got] += 1
    assert min(seen.values()) > 20, seen


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


# --- the reference preservation check and transfer ---------------------------
# The earlier preservation_check, which built its three splice windows
# inline, and the earlier sim_transfer, which tried the stay first; both
# kept verbatim apart from their names.  _ref_related_pairs is the earlier
# _related_pairs, which returned configuration pairs, on G and Gb.  They
# read graphs by value, as simulation_parent.by_value gives them.


def _ref_related_pairs(r, G, Gb) -> list:
    return [(c, cb) for c, cb, w in overlapping(G.configs(), Gb.configs())
            if config_related(r, c, cb, w)]


def _ref_sim_transfer(related, succ_abstract, c, cbar, c_prime) -> list:
    candidates = []
    # the abstract side stays in cbar (empty successor placeholder)
    if c_prime is not EPSILON and c_prime.e <= cbar.e:
        sc = splice(c, c_prime, c_prime.b, c_prime.e)
        sa = splice(cbar, EPSILON, c_prime.b, c_prime.e)
        if sc is not None and sa is not None and related(sc, sa):
            candidates.append((EPSILON, sc, sa))
    for cbar_prime in succ_abstract(cbar):
        if c_prime is EPSILON:
            if cbar_prime.e <= c.e:
                sc = splice(c, EPSILON, cbar_prime.b, cbar_prime.e)
                sa = splice(cbar, cbar_prime, cbar_prime.b, cbar_prime.e)
                if sc is not None and sa is not None and related(sc, sa):
                    candidates.append((cbar_prime, sc, sa))
            continue
        m1 = tmin(c_prime.b, cbar_prime.b)
        m2 = tmin(c_prime.e, cbar_prime.e)
        sc = splice(c, c_prime, m1, m2)
        sa = splice(cbar, cbar_prime, m1, m2)
        if sc is not None and sa is not None and related(sc, sa):
            candidates.append((cbar_prime, sc, sa))
    return candidates


def _ref_preservation_check(r, G, Gb) -> SimReport:
    _universe_guard(G, Gb)
    related = lambda c, d: config_related(r, c, d)
    report = SimReport(True)
    violations = []
    progress_ok, progress_w = True, None
    for c, cb in _ref_related_pairs(r, G, Gb):
        for c_prime in G.succ(c):
            for cb_prime in Gb.succ(cb):
                m1 = tmin(c_prime.b, cb_prime.b)
                m2 = tmin(c_prime.e, cb_prime.e)
                sc, sa = splice(c, c_prime, m1, m2), splice(cb, cb_prime, m1, m2)
                if sc is None or sa is None:
                    continue
                if not related(sc, sa):
                    violations.append((c, cb, c_prime, f"{cb_prime!r} not preserved"))
            # abstract stays (empty successor placeholder)
            if c_prime.e <= cb.e:
                sc = splice(c, c_prime, c_prime.b, c_prime.e)
                sa = splice(cb, EPSILON, c_prime.b, c_prime.e)
                if sc is not None and sa is not None and not related(sc, sa):
                    violations.append((c, cb, c_prime, "abstract stay not preserved"))
        for cb_prime in Gb.succ(cb):
            if cb_prime.e <= c.e:
                sc = splice(c, EPSILON, cb_prime.b, cb_prime.e)
                sa = splice(cb, cb_prime, cb_prime.b, cb_prime.e)
                if sc is not None and sa is not None and not related(sc, sa):
                    violations.append((c, cb, EPSILON, f"{cb_prime!r} not preserved"))
        if G.succ(c) and not Gb.succ(cb) and cb not in Gb.truncated:
            progress_ok, progress_w = False, (c, cb)
    init_ok, init_w = True, None
    for c0 in G.initial:
        if not any(related(c0, cb0) for cb0 in Gb.initial):
            init_ok, init_w = False, c0
            break
    report.violations = violations
    report.verdict = not violations
    report.hypothesis_results = {
        "init(56)": (init_ok, init_w),
        "progress(76)": (progress_ok, progress_w),
    }
    report.notes.append(
        "theorem8: preservation and progress and init imply the simulation conclusion"
    )
    return report


def _random_config_graph(rng, horizon=Q(3)):
    """Configurations in modes m and n on half-integer cuts, grown from
    time 0: one cut at the horizon is truncated, one ending closed
    blocks, and every other one has one or two successors at its end."""
    succ, truncated = {}, set()

    def grow(lo):
        hi = min(lo + Q(rng.randint(0, 3), 2), horizon)
        closed = hi == lo or (hi < horizon and rng.random() < 0.25)
        c = make_config(rng.choice("mn"), lo, hi, {"u": Q(rng.randint(-2, 2), 2)},
                        {"u": rng.choice((-1, 0, 1))}, closed_hi=closed)
        if c not in succ:
            succ[c] = ()
            if hi == horizon and not closed:
                truncated.add(c)
            elif not closed:
                succ[c] = tuple(dict.fromkeys(grow(hi) for _ in range(rng.randint(1, 2))))
        return c

    initial = tuple(dict.fromkeys(grow(Q(0)) for _ in range(rng.randint(1, 2))))
    return id_graph(initial, tuple(succ.items()), frozenset(truncated))


def test_preservation_and_transfer_match_the_reference():
    """On seeded random graph pairs, preservation_check gives the report
    of the inline reference, violations in the same order and with the
    same reasons, and sim_transfer the reference's candidate set, both
    filtered by gamma(r) and unfiltered, for every related pair and
    every concrete step or stay."""
    rng = random.Random(1208)
    seen = dict.fromkeys(("passed", "failed", "step", "stay", "concrete stays", "candidates"), 0)
    for _ in range(120):
        G = _random_config_graph(rng)
        Gb = G if rng.random() < 0.3 else _random_config_graph(rng)
        k1, k2 = rng.randint(0, 2), rng.randint(0, 2)
        r = TimedStateRelation((
            Clause((parse_constraint(f"c_u - a_u <= {k1}"), parse_constraint(f"a_u - c_u <= {k2}")),
                   concrete_mode=rng.choice((None, "m"))),
            Clause((parse_constraint(f"t >= {rng.randint(1, 3)}"),),
                   abstract_mode=rng.choice((None, "n"))),
        ))
        V, Vb = by_value(G), by_value(Gb)
        got = preservation_check(r, G, Gb)
        assert got == _ref_preservation_check(r, V, Vb)
        seen["passed" if got.verdict else "failed"] += 1
        for _, _, c_prime, reason in got.violations:
            seen["concrete stays" if c_prime is EPSILON
                 else "stay" if reason.startswith("abstract stay") else "step"] += 1
        related = lambda c, d: config_related(r, c, d)
        for c, cb in _ref_related_pairs(r, V, Vb):
            for c_prime in (*V.succ(c), EPSILON):
                for rel_ in (related, lambda *_: True):
                    cands = sim_transfer(rel_, Vb.succ, c, cb, c_prime)
                    want = _ref_sim_transfer(rel_, Vb.succ, c, cb, c_prime)
                    assert sorted(cands, key=repr) == sorted(want, key=repr)
                    seen["candidates"] += bool(cands)
    assert all(seen.values()), seen


@pytest.mark.parametrize("horizon", [Q(7, 2), 6, 12, 24])
def test_preservation_matches_the_reference_on_tank_self_pairs(horizon):
    """The tank automaton against itself under r39, 6 initial clocks a
    quarter apart: random graph pairs rarely give a step a successor of
    the same interval, whose response splices to a pair of the two
    graphs, and these do on every horizon."""
    p = TankParams.make(x0_samples=tuple(Q(k, 4) for k in range(6)))
    r = tank_relations(p)["r39"]
    G = config_graph(build_tank_automaton(p), horizon)
    got = preservation_check(r, G, G)
    assert got == _ref_preservation_check(r, by_value(G), by_value(G))
    assert any(G.nodes[k].interval == G.nodes[m].interval
               for (i, j), held in got.pairs.items() if held
               for k in G.succ[i] for m in G.succ[j])
