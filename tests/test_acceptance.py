"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Every check is equality on exact rationals (zero tolerance) except the
explicitly stated 1-second runtime bound in the matcher test.
"""

import itertools
import random
import time
from fractions import Fraction as Q

import pytest

from hybridsem.affine import LinExpr, parse_constraint
from hybridsem.casestudy import (
    TankParams,
    abstract_witness,
    build_tank_automaton,
    gallery_fixture,
    run_refinement_chain,
    spec_predicate_check,
    spec_witness,
    tank_relations,
)
from hybridsem.discretize import (
    TimefulState,
    discrete_traces,
    discretization_hypotheses,
    hts_discretize,
    milner_sim_check,
    relation_discretize,
    theorem6_check,
    timeful_sample,
    timeless_discretize,
    timeless_overapprox_demo,
)
from hybridsem.flow_config import EPSILON, State, make_config
from hybridsem.galois import (
    Connection,
    FinitePoset,
    connection_to_relation,
    galois_laws_check,
    galois_relation_check,
    hom_connection,
    powerset_lattice,
    relation_to_connection,
    transformers,
)
from hybridsem.homomorphism import StateHom, theorem1_check, theorem3_check
from hybridsem.hts import (
    HybridTransitionSystem,
    blocking_check,
    semantics_generate,
)
from hybridsem.relation import (
    Clause,
    TimedStateRelation,
    config_related,
    sem_related,
    traj_related_rankwise,
    traj_related_timewise,
)
from hybridsem.simulation import (
    canonical_key,
    config_graph,
    greatest_simulation,
    preservation_check,
    sim_check,
    sim_transfer,
    theorem4_match,
)
from hybridsem.trajectory import (
    config_var_ranges,
    trajectory_timeline,
    trajectory_validate,
)

from conftest import id_graph, random_explicit, random_trajectory, rnd_q

EQ = TimedStateRelation((Clause((parse_constraint("c_u = a_u"),)),))


def rel(c, d):
    return config_related(EQ, c, d)


# ---------------------------------------------------------------------------
# 1. single-configuration system, unit grid: bit-exact discretization


def test_01_unit_grid_discretization_bit_exact():
    fx = gallery_fixture("example10")
    h, delta = fx["system"], fx["delta"]
    u = lambda n: TimefulState(State.make("m", {"u": Q(1)}), n)

    # sampling the generated trajectories
    sem = semantics_generate(h, 4)
    sampled = {timeful_sample(s, delta) for s in sem.trajectories}
    assert sampled == {(u(0), u(1))}

    # discretizing the system and generating
    d = hts_discretize(h, delta)
    assert d.from_tau == frozenset()
    assert discrete_traces(d) == frozenset({(u(0), u(1))})
    assert sampled == set(discrete_traces(d))  # dual computation agrees

    # rank-free variant: a self-loop whose traces strictly
    # over-approximate the sampled ones
    s = State.make("m", {"u": Q(1)})
    initial, edges = timeless_discretize(h, delta)
    assert initial == frozenset({s}) and edges == frozenset({(s, s)})
    demo = timeless_overapprox_demo(h, delta, 4)
    assert demo["has_cycle"] and demo["strictly_overapproximates"]


# ---------------------------------------------------------------------------
# 2. sample-then-trace equals discretize-then-trace on random systems


def test_02_dual_computation_on_random_systems():
    rng = random.Random(20260824)
    checked = 0
    while checked < 100:
        h = random_explicit(rng)
        if len(h.explicit.configs) > 5:
            continue
        ok, diff, _ = theorem6_check(h, 1, 10)
        assert ok, diff
        checked += 1


# ---------------------------------------------------------------------------
# 3. state mapping commutes with generation and with sampling


def _random_hom(rng):
    mode_map = {"m": "mm"} if rng.random() < 0.5 else {}
    out = LinExpr.make({"u": rnd_q(rng, -2, 2)}, rnd_q(rng))
    return StateHom.make(mode_map, {"v": out})


def test_03_state_maps_commute():
    rng = random.Random(31)
    for _ in range(100):
        sys_ = random_explicit(rng)
        h = _random_hom(rng)
        ok, diff = theorem1_check(h, sys_, 10)
        assert ok, diff
        trajs = list(semantics_generate(sys_, 10).trajectories)
        ok, witness = theorem3_check(h, trajs, Q(1, 2), horizon=10)
        assert ok, witness


# ---------------------------------------------------------------------------
# 4. adjunction law suite, exhaustively on small universes


def test_04_adjunction_laws_exhaustive():
    pow2 = powerset_lattice(("a", "b"))
    pow3 = powerset_lattice(("a", "b", "c"))

    # every function between the base sets induces a lawful pair
    for img in itertools.product(("a", "b"), repeat=3):
        hmap = dict(zip(("a", "b", "c"), img))
        conn = hom_connection(lambda v, m=hmap: m[v], ("a", "b", "c"))
        rep = galois_laws_check(conn, pow3, pow2)
        assert rep["ok"], (hmap, rep)
        R = connection_to_relation(conn, pow3, pow2)
        assert galois_relation_check(R, pow3, pow2)["ok"]
        back = relation_to_connection(R, pow3, pow2)
        for x in pow3.elements:
            assert back.alpha(x) == conn.alpha(x)

    # forward/backward transformers are adjoint for every relation
    left = right = ("a", "b")
    all_pairs = [(x, y) for x in left for y in right]
    subsets = [frozenset(s) for n in range(3) for s in itertools.combinations(left, n)]
    for bits in itertools.product((0, 1), repeat=4):
        r = {p for p, b in zip(all_pairs, bits) if b}
        for P in subsets:
            post = transformers(r, P, "post")
            for Qs in subsets:
                lhs = post <= Qs
                rhs = P <= transformers(r, Qs, "tilde-pre", left=left, right=right)
                assert lhs == rhs, (r, P, Qs)

    # the order relation of every small chain passes the relation laws
    for n in range(2, 6):
        chain = FinitePoset.make(tuple(range(n)), lambda x, y: x <= y)
        assert galois_relation_check(chain.leq, chain, chain)["ok"]


# ---------------------------------------------------------------------------
# 5. pointwise and rank-based trajectory relations agree


def _random_relation(rng):
    from hybridsem.affine import AffineConstraint

    clauses = []
    for _ in range(rng.randint(1, 2)):
        op = rng.choice(("=", "<=", ">="))
        lhs = LinExpr.make(
            {"c_u": rnd_q(rng, -2, 2), "a_u": rnd_q(rng, -2, 2), "t": rnd_q(rng, -1, 1)},
            rnd_q(rng),
        )
        clauses.append(Clause((AffineConstraint(lhs, op),)))
    return TimedStateRelation(tuple(clauses))


def test_05_timewise_rankwise_identical_verdicts():
    rng = random.Random(424242)
    mismatches = []
    for i in range(500):
        r = _random_relation(rng)
        s = random_trajectory(rng)
        sb = random_trajectory(rng)
        tw = traj_related_timewise(r, s, sb)
        rw = traj_related_rankwise(r, s, sb)
        if tw != rw:
            mismatches.append((i, tw, rw))
    assert not mismatches, (
        f"{len(mismatches)} of 500 verdict pairs differ "
        f"(first at case {mismatches[0][0]}: "
        f"timewise={mismatches[0][1]}, rankwise={mismatches[0][2]})"
    )


# ---------------------------------------------------------------------------
# 6. tank facts, exact, plus trajectory-level refinement at horizon 30


def test_06_tank_exact_facts_and_refinement():
    p = TankParams.make()
    h = build_tank_automaton(p)
    sem = semantics_generate(h, 8)
    by_x0 = {s.configs[0].state_at(Q(0)).var("x"): s for s in sem.trajectories}

    s1 = by_x0[Q(1)]
    assert trajectory_timeline(s1)[:6] == (0, 2, 3, 5, 6, 8)
    lo, hi = config_var_ranges(s1.configs[0])["y"]
    assert (lo, hi) == (0, 2)

    s0 = by_x0[Q(0)]
    lo, hi = config_var_ranges(s0.configs[0])["y"]
    assert hi == 3

    for s in sem.trajectories:
        ok, viol = spec_predicate_check(spec_witness(s), p.zeta)
        assert ok, viol

    sem30 = semantics_generate(h, 30)
    r39 = tank_relations(p)["r39"]
    witnesses_pool = [spec_witness(s) for s in sorted(sem30.trajectories, key=repr)]
    verdict, witnesses, unmatched = sem_related(
        lambda a, b: traj_related_timewise(r39, a, b),
        sorted(sem30.trajectories, key=repr),
        witnesses_pool,
    )
    assert verdict and not unmatched
    assert len(witnesses) == len(sem30.trajectories)


# ---------------------------------------------------------------------------
# 7. subsystem semantics containment, and what breaks without the
#    blocking hypothesis


def test_07_subsystem_containment_and_hypothesis_violations():
    rng = random.Random(77)
    for _ in range(200):
        full = random_explicit(rng)
        ex = full.explicit
        succ = {}
        for a, b in ex.edges:
            succ.setdefault(a, []).append(b)
        kept = []
        for a, bs in succ.items():
            keep = [b for b in bs if rng.random() < 0.6] or [rng.choice(bs)]
            kept.extend((a, b) for b in keep)
        init = tuple(i for i in ex.initial if rng.random() < 0.8) or ex.initial
        sub = HybridTransitionSystem.from_explicit(
            ("u",), full.zeta, ex.configs, tuple(kept), init
        )
        assert blocking_check(sub, full)
        T = semantics_generate(sub, 10).trajectories
        Tp = semantics_generate(full, 10).trajectories
        assert T <= Tp

    # violations: a configuration left successor-free in the subsystem
    counterexamples, vacuous = 0, 0
    for k in range(20):
        u0 = Q(rng.randint(-2, 2))
        c0 = make_config("m", 0, 1, {"u": u0}, {"u": 1})
        c1 = make_config("m", 1, 2, {"u": u0 + 1}, {"u": 0}, closed_hi=True)
        c2 = make_config("m", 2, 3, {"u": 5}, {"u": 0}, closed_hi=True)
        if k % 2 == 0:
            # reachable: the subsystem completes at the horizon where the
            # full system still continues (and is merely truncated there)
            full = HybridTransitionSystem.from_explicit(
                ("u",), Q(1, 1000), (c0, c1, c2), ((0, 1), (1, 2)), (0,)
            )
            sub = HybridTransitionSystem.from_explicit(
                ("u",), Q(1, 1000), (c0, c1, c2), ((0, 1),), (0,)
            )
            horizon = 2
        else:
            # unreachable violating configuration: containment survives
            d = make_config("m", 0, 1, {"u": Q(9)}, {"u": 0})
            e = make_config("m", 1, 2, {"u": Q(9)}, {"u": 0}, closed_hi=True)
            full = HybridTransitionSystem.from_explicit(
                ("u",), Q(1, 1000), (c0, c1, d, e), ((0, 1), (2, 3)), (0,)
            )
            sub = HybridTransitionSystem.from_explicit(
                ("u",), Q(1, 1000), (c0, c1, d, e), ((0, 1),), (0,)
            )
            horizon = 10
        assert not blocking_check(sub, full)
        T = semantics_generate(sub, horizon).trajectories
        Tp = semantics_generate(full, horizon).trajectories
        if T <= Tp:
            vacuous += 1  # documented: the violating piece is unreachable
        else:
            counterexamples += 1
    assert counterexamples + vacuous >= 10
    assert counterexamples >= 1 and vacuous >= 1


# ---------------------------------------------------------------------------
# 8. greatest simulation equals brute-force maximal-subset search


def _lvl0(u0, rate):
    return make_config("m", 0, 1, {"u": u0}, {"u": rate})


def _lvl1(u0, rate):
    return make_config("m", 1, 2, {"u": u0}, {"u": rate}, closed_hi=True)


def _two_level_systems():
    pool0 = [_lvl0(0, 1), _lvl0(0, 0)]
    pool1 = [_lvl1(1, 1), _lvl1(0, 0)]
    out = []
    for c0 in pool0:
        out.append(((c0,), {c0: ()}))
        for c1 in pool1:
            for edges in ((), (c1,)):
                out.append(((c0, c1), {c0: edges, c1: ()}))
    return out


def _brute_force_union(C, succ_c, A, succ_a):
    """Union of every relation that survives the one-step transfer,
    enumerated over all subsets of the overlap-compatible pairs."""
    cand = [
        (c, a)
        for c in C
        for a in A
        if c.interval.lo == a.interval.lo and rel(c, a)
    ]
    union = set()
    for bits in itertools.product((0, 1), repeat=len(cand)):
        R = {p for p, b in zip(cand, bits) if b}
        ok = True
        for c, a in R:
            for cp in succ_c[c]:
                resp = sim_transfer(rel, lambda x: succ_a.get(x, ()), c, a, cp)
                if not any(
                    (ch is EPSILON and (cp, a) in R)
                    or (ch is not EPSILON and (cp, ch) in R)
                    for ch, _, _ in resp
                ):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            union |= R
    return union


def test_08_greatest_simulation_matches_brute_force():
    systems = _two_level_systems()
    for C, succ_c in systems:
        for A, succ_a in systems:
            bf = _brute_force_union(list(C), succ_c, list(A), succ_a)
            ts = greatest_simulation(
                id_graph(C[:1], tuple((c, succ_c.get(c, ())) for c in C)),
                id_graph(A[:1], tuple((a, succ_a.get(a, ())) for a in A)),
                related=rel,
            )
            keys_c = {canonical_key(c): c for c in C}
            keys_a = {canonical_key(a): a for a in A}
            restricted = {
                (keys_c[canonical_key(p)], keys_a[canonical_key(q)])
                for p, q in ts
                if canonical_key(p) in keys_c and canonical_key(q) in keys_a
            }
            assert restricted == bf, (C, A)


# ---------------------------------------------------------------------------
# 9. discrete-transfer gallery: unique hypothesis attributions and the
#    hypothesis-satisfying tank discretization


def test_09_gallery_attributions_and_tank_discrete_sim():
    expected = {"fig8-1": "(70)", "fig8-2": "(69)", "fig8-3": "(71)"}
    for name, hyp in expected.items():
        fx = gallery_fixture(name)
        rep = discretization_hypotheses(
            fx["relation"], fx["concrete"], fx["abstract"], fx["delta"]
        )
        for key in ("(68)", "(69)", "(70)", "(71)"):
            assert bool(rep[key]) == (key == hyp), (name, key, rep)
        d1 = hts_discretize(fx["concrete"], fx["delta"])
        d2 = hts_discretize(fx["abstract"], fx["delta"])
        R = relation_discretize(
            fx["relation"], fx["delta"], d1, d2,
            extra_abstract=fx.get("extra_abstract", ()),
        )
        ok, witness = milner_sim_check(R, d1, d2)
        assert not ok and witness is not None, name

    p = TankParams.make(x0_samples=(1,))
    h = build_tank_automaton(p)
    r = tank_relations(p)["r39"]
    rep = discretization_hypotheses(r, h, h, 1, horizon=9)
    assert rep["ok"], rep
    d = hts_discretize(h, 1, horizon=9)
    R = relation_discretize(r, 1, d, d)
    ok, _ = milner_sim_check(R, d, d)
    assert ok


# ---------------------------------------------------------------------------
# 10. constructive matcher on every tank trajectory


def test_10_matcher_builds_verified_witnesses():
    p = TankParams.make()
    r39 = tank_relations(p)["r39"]
    sem = semantics_generate(build_tank_automaton(p), 9)
    assert sem.trajectories
    for s in sorted(sem.trajectories, key=repr):
        w = spec_witness(s)
        Gb = id_graph((w.configs[0],), tuple((c, ()) for c in w.configs))
        start = time.perf_counter()
        sb, cert = theorem4_match(r39, s, Gb)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, elapsed
        assert cert == {"timewise": True, "rankwise": True}
        assert traj_related_timewise(r39, s, sb)


# ---------------------------------------------------------------------------
# 11. refinement chain: nesting, composition, and the documented
#     published-formula discrepancy


def test_11_refinement_chain_with_documented_discrepancy():
    p = TankParams.make()
    rep = run_refinement_chain(p, 30)
    stage2, stage3 = rep["stages"]["ii"], rep["stages"]["iii"]

    assert rep["stages"]["i"]["ok"]
    assert stage2["well_nested"]

    # the inter-level shut/on formulas fail the exact check as published;
    # the failure must be reported with exact witnesses, never silently
    assert rep["acceptable"]
    if not stage2["ok"]:
        assert stage2["discrepancy"]
        phase = stage2["phase_certification"]
        assert phase["off"][1] == 0 and phase["open"][1] == 0
        assert phase["shut"][0] == 0 and phase["on"][0] == 0

    # composition: every failure window is pinned on those formulas,
    # and the off-phase observation is exact (companion level reads
    # t minus the phase entry while the implementation level is zero)
    for s, c, cmid, ctop, ww, ok1, ok2 in stage3["failures"]:
        assert (s.truncated and c is s.configs[-1]) or ok2
    obs = stage3["off_phase_observations"]
    assert obs
    for o in obs:
        assert o["impl_level_is_zero"] and o["spec_level_is_t_minus_entry"]


# ---------------------------------------------------------------------------
# 12. branching distinguishes the two notions; the universal form plus
#     progress implies the existential one


def test_12_preservation_progress_imply_simulation():
    fx = gallery_fixture("fig11")
    assert sim_check(fx["relation"], fx["concrete"], fx["abstract"]).verdict
    assert not preservation_check(fx["relation"], fx["concrete"], fx["abstract"]).verdict

    rng = random.Random(1212)
    fired = 0
    for i in range(100):
        h1 = random_explicit(rng)
        h2 = h1 if i % 2 == 0 else random_explicit(rng)
        G = config_graph(h1, 10)
        Gb = config_graph(h2, 10)
        pres = preservation_check(EQ, G, Gb)
        if pres.verdict and pres.hypothesis_results["progress(76)"][0]:
            fired += 1
            assert sim_check(EQ, G, Gb).verdict, i
    assert fired >= 30  # the implication must actually be exercised
