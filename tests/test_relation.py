"""Timed state relations: clause evaluation, the exact forall-window
decision procedure, configuration lifting, and trajectory relations."""

import random
from fractions import Fraction as Q

from hybridsem.affine import parse_constraint
from hybridsem.flow_config import State, config_concat, make_config
from hybridsem.relation import (
    Clause,
    ConfigRelation,
    TimedStateRelation,
    compose_relations,
    config_related,
    relation_from_json,
    relation_project,
    sem_related,
    state_related,
    traj_related_exists_counterpart,
    traj_related_rankwise,
    traj_related_timewise,
)
from hybridsem.time_core import INF, TimeInterval
from hybridsem.trajectory import trajectory_validate

from conftest import random_trajectory, rnd_q

EQ = TimedStateRelation((Clause((parse_constraint("c_u = a_u"),)),))


def test_state_related_basics():
    s = State.make("m", {"u": Q(1)})
    t = State.make("m", {"u": Q(1)})
    u = State.make("m", {"u": Q(2)})
    assert state_related(EQ, Q(0), s, t)
    assert not state_related(EQ, Q(0), s, u)


def test_mode_guards():
    r = TimedStateRelation(
        (Clause((parse_constraint("c_u = a_u"),), concrete_mode="a", abstract_mode="b"),)
    )
    sa = State.make("a", {"u": Q(0)})
    sb = State.make("b", {"u": Q(0)})
    assert state_related(r, Q(0), sa, sb)
    assert not state_related(r, Q(0), sb, sa)


def test_window_guard():
    r = TimedStateRelation(
        (Clause((parse_constraint("c_u = a_u"),), window=TimeInterval(Q(0), Q(1), False)),)
    )
    s = State.make("m", {"u": Q(3)})
    assert state_related(r, Q(1, 2), s, s)
    assert not state_related(r, Q(2), s, s)


def test_time_dependent_constraint_decided_exactly():
    # related iff a_u = c_u + t; holds throughout for matching flows
    r = TimedStateRelation((Clause((parse_constraint("a_u - c_u - t = 0"),)),))
    c = make_config("m", 0, 2, {"u": 0}, {"u": 0}, closed_hi=True)
    d = make_config("m", 0, 2, {"u": 0}, {"u": 1}, closed_hi=True)
    assert config_related(r, c, d)
    # perturbing the abstract rate breaks it everywhere but one instant
    d2 = make_config("m", 0, 2, {"u": 0}, {"u": 2}, closed_hi=True)
    assert not config_related(r, c, d2)


def test_endpoint_symbols_bound_from_intervals():
    r = TimedStateRelation((Clause((parse_constraint("E_c - B_c = 2"),)),))
    c = make_config("m", 0, 2, {"u": 0}, {"u": 0}, closed_hi=True)
    d = make_config("m", 0, 2, {"u": 0}, {"u": 0}, closed_hi=True)
    assert config_related(r, c, d)
    c3 = make_config("m", 0, 3, {"u": 0}, {"u": 0}, closed_hi=True)
    assert not config_related(r, c3, d)


def test_infinite_endpoint_constraint_fails_closed():
    """E_c/E_a of an unbounded configuration stay unbound, so a
    constraint using them does not hold; other clauses still decide."""
    bounded = make_config("m", 0, 2, {"u": 0}, {"u": 1}, closed_hi=True)
    unbounded = make_config("m", 0, INF, {"u": 0}, {"u": 1})
    for c, d, sym in ((unbounded, unbounded, "E_c"), (bounded, unbounded, "E_a")):
        ends = Clause((parse_constraint(f"t <= {sym}"),))
        s, sb = trajectory_validate([c]), trajectory_validate([d])
        for clauses, want in (((ends,), False), ((ends,) + EQ.clauses, True)):
            r = TimedStateRelation(clauses)
            assert config_related(r, c, d) == want
            assert traj_related_timewise(r, s, sb) == want
            assert traj_related_rankwise(r, s, sb) == want


def test_dynamic_clause_inapplicable_means_unrelated():
    r = TimedStateRelation(
        (Clause((), dynamic=lambda ep: None),)
    )
    c = make_config("m", 0, 1, {"u": 0}, {"u": 0}, closed_hi=True)
    assert not config_related(r, c, c)


def test_dynamic_clause_applies_endpoint_arithmetic():
    from hybridsem.affine import AffineConstraint, LinExpr

    def mk(ep):
        # u and ubar agree shifted by the interval length
        length = ep["E_c"] - ep["B_c"]
        return (AffineConstraint(LinExpr.make({"c_u": 1, "a_u": -1}, -length), "="),)

    r = TimedStateRelation((Clause((), dynamic=mk),))
    c = make_config("m", 0, 2, {"u": 5}, {"u": 0}, closed_hi=True)
    d = make_config("m", 0, 2, {"u": 3}, {"u": 0}, closed_hi=True)
    assert config_related(r, c, d)  # 5 - 3 = length 2


def test_overlap_required():
    c = make_config("m", 0, 1, {"u": 0}, {"u": 0})
    d = make_config("m", 1, 2, {"u": 0}, {"u": 0}, closed_hi=True)
    assert not config_related(EQ, c, d)


def test_relation_project():
    c = make_config("m", 0, 2, {"u": 0}, {"u": 1}, closed_hi=True)
    R = ConfigRelation(((c, c),))
    at = relation_project(R)
    pairs = at(Q(1))
    assert len(pairs) == 1
    (s, sbar), = pairs
    assert s == sbar and s.var("u") == 1


def test_sem_related_reports_unmatched():
    s1 = random_trajectory(random.Random(1))
    verdict, witnesses, unmatched = sem_related(
        lambda a, b: traj_related_timewise(EQ, a, b), [s1], [s1]
    )
    assert verdict and witnesses[s1] is s1
    verdict, _, unmatched = sem_related(
        lambda a, b: False, [s1], [s1]
    )
    assert not verdict and unmatched == [s1]


def test_compose_membership():
    r1 = TimedStateRelation((Clause((parse_constraint("a_u - c_u = 1"),)),))
    r2 = TimedStateRelation((Clause((parse_constraint("a_u - c_u = 2"),)),))
    member = compose_relations(r1, r2)
    lo = State.make("m", {"u": Q(0)})
    mid = State.make("m", {"u": Q(1)})
    hi = State.make("m", {"u": Q(3)})
    assert member(Q(0), lo, mid, hi)
    assert not member(Q(0), lo, hi, hi)


def test_relation_json_loading():
    doc = {
        "clauses": [
            {
                "constraints": ["c_u - a_u = 0"],
                "concrete_mode": "m",
                "window": {"lo": "0", "hi": "5"},
            }
        ]
    }
    r = relation_from_json(doc)
    s = State.make("m", {"u": Q(1)})
    assert state_related(r, Q(1), s, s)
    assert not state_related(r, Q(6), s, s)


def _random_relation(rng):
    clauses = []
    for _ in range(rng.randint(1, 2)):
        op = rng.choice(("=", "<=", ">="))
        from hybridsem.affine import AffineConstraint, LinExpr

        lhs = LinExpr.make(
            {"c_u": rnd_q(rng, -2, 2), "a_u": rnd_q(rng, -2, 2), "t": rnd_q(rng, -1, 1)},
            rnd_q(rng),
        )
        clauses.append(Clause((AffineConstraint(lhs, op),)))
    return TimedStateRelation(tuple(clauses))


def test_timewise_implies_rankwise_randomized():
    """The timewise verdict always implies the rankwise one.  The
    converse is checked by test_acceptance.test_05; it fails only for
    the weaker exists-counterpart reading pinned below."""
    rng = random.Random(424242)
    for _ in range(300):
        r = _random_relation(rng)
        s = random_trajectory(rng)
        sb = random_trajectory(rng)
        if traj_related_timewise(r, s, sb):
            assert traj_related_rankwise(r, s, sb)


def test_rankwise_strictly_weaker_pinned():
    """Pinned divergence between the pointwise form and the
    exists-counterpart reading of the rank condition.

    That reading only asks each configuration (ending within the other
    side's duration) for SOME related counterpart, and exempts
    configurations that outlive the other trajectory.  Here the clause
    a_u/2 + c_u + t + 2 >= 0 fails on (17/10, 3), inside the overlap of
    the first concrete and the second abstract configuration, yet both
    find other counterparts, so that reading answers true while the
    pointwise form and the rank-pair form correctly answer false.
    """
    from hybridsem.affine import AffineConstraint, LinExpr

    r = TimedStateRelation(
        (
            Clause((AffineConstraint(
                LinExpr.make({"a_u": -2, "c_u": -2, "t": 1}, 3), "="), )),
            Clause((AffineConstraint(
                LinExpr.make({"a_u": Q(1, 2), "c_u": 1, "t": 1}, 2), ">="), )),
        )
    )
    from hybridsem.trajectory import trajectory_validate

    s = trajectory_validate([
        make_config("m", 0, 3, {"u": Q(1, 2)}, {"u": -2}),
        make_config("m", 3, 7, {"u": Q(-7, 4)}, {"u": 3}, closed_hi=True),
    ])
    sb = trajectory_validate([
        make_config("m", 0, Q(3, 2), {"u": Q(9, 4)}, {"u": 3}),
        make_config("m", Q(3, 2), Q(7, 2), {"u": Q(-3, 2)}, {"u": Q(-1, 2)}),
        make_config("m", Q(7, 2), Q(9, 2), {"u": 0}, {"u": -1}, closed_hi=True),
    ])
    assert not traj_related_timewise(r, s, sb)
    assert not traj_related_rankwise(r, s, sb)
    assert traj_related_exists_counterpart(r, s, sb)


def test_rankwise_cut_excludes_closed_common_end():
    """Case 121 of test_05's stream: the only unrelated state pair sits
    at t = 1, the closed common end, where the last concrete and the
    last abstract configuration meet.  The pointwise form quantifies
    over t < min duration, so both forms answer true; a lift over the
    closed overlap would answer false."""
    from hybridsem.affine import AffineConstraint, LinExpr

    r = TimedStateRelation(
        (
            Clause((AffineConstraint(
                LinExpr.make({"a_u": 2, "c_u": -1}, 3), "="), )),
            Clause((AffineConstraint(
                LinExpr.make({"a_u": Q(3, 2), "c_u": -1, "t": Q(1, 2)}, 3), "<="), )),
        )
    )
    s = trajectory_validate([
        make_config("m", 0, 1, {"u": Q(3, 4)}, {"u": 1}, closed_hi=True),
    ])
    sb = trajectory_validate([
        make_config("m", 0, 1, {"u": Q(-9, 4)}, {"u": Q(1, 2)}),
        make_config("m", 1, 2, {"u": Q(-1, 2)}, {"u": Q(-1, 4)}, closed_hi=True),
    ])
    assert not config_related(r, s.configs[0], sb.configs[1])
    assert traj_related_timewise(r, s, sb)
    assert traj_related_rankwise(r, s, sb)


def test_rankwise_checks_config_outliving_partner():
    """Case 175 of test_05's stream: the second concrete configuration
    ends at 5, after the abstract trajectory's duration 4, and is
    unrelated to the abstract one on all of [1, 4).  Both forms answer
    false; the exists-counterpart reading exempts that configuration
    and answers true."""
    from hybridsem.affine import AffineConstraint, LinExpr

    r = TimedStateRelation(
        (
            Clause((AffineConstraint(
                LinExpr.make({"a_u": 1, "c_u": -2, "t": Q(-1, 4)}, 0), "="), )),
            Clause((AffineConstraint(
                LinExpr.make({"a_u": Q(7, 4), "c_u": Q(-3, 2), "t": Q(1, 2)}, 3), ">="), )),
        )
    )
    s = trajectory_validate([
        make_config("m", 0, 1, {"u": Q(-3, 2)}, {"u": Q(5, 2)}),
        make_config("m", 1, 5, {"u": Q(5, 2)}, {"u": Q(5, 2)}, closed_hi=True),
    ])
    sb = trajectory_validate([
        make_config("m", 0, 4, {"u": Q(-3, 2)}, {"u": 1}, closed_hi=True),
    ])
    assert s.configs[1].e > sb.duration
    assert not traj_related_timewise(r, s, sb)
    assert not traj_related_rankwise(r, s, sb)
    assert traj_related_exists_counterpart(r, s, sb)


def _rich_relation(rng, endpoints):
    """Clauses with windows, mode guards, all five comparisons, up to two
    constraints each and, if `endpoints`, B/E symbols; sometimes a
    domain of one or two windows."""
    from hybridsem.affine import AffineConstraint, LinExpr

    clauses = []
    for _ in range(rng.randint(1, 3)):
        cons = []
        for _ in range(rng.randint(1, 2)):
            coefs = {"c_u": rnd_q(rng, -2, 2), "a_u": rnd_q(rng, -2, 2), "t": rnd_q(rng, -1, 1)}
            if endpoints and rng.random() < 0.3:
                coefs[rng.choice(("B_c", "E_c", "B_a", "E_a"))] = rnd_q(rng, -1, 1)
            op = rng.choice(("=", "<=", ">=", "<", ">"))
            cons.append(AffineConstraint(LinExpr.make(coefs, rnd_q(rng)), op))
        window = None
        if rng.random() < 0.3:
            lo = Q(rng.randint(0, 6), 2)
            hi = INF if rng.random() < 0.2 else lo + Q(rng.randint(0, 6), 2)
            window = TimeInterval(lo, hi, hi != INF and rng.random() < 0.5)
        modes = (None, None, "m", "n")
        clauses.append(Clause(tuple(cons), window, rng.choice(modes), rng.choice(modes)))
    domain = None
    if rng.random() < 0.3:
        domain = tuple(
            TimeInterval(Q(a), Q(a) + Q(rng.randint(1, 4), 2), rng.random() < 0.5)
            for a in rng.sample(range(8), rng.randint(1, 2))
        )
    return TimedStateRelation(tuple(clauses), domain)


def _rich_trajectory(rng, unbounded):
    """Two modes, open, closed or unbounded end, some piecewise configs."""
    n = rng.randint(1, 4)
    cuts = sorted({Q(0)} | {Q(rng.randint(1, 8), rng.choice((1, 2))) for _ in range(n)})
    while len(cuts) < n + 1:
        cuts.append(cuts[-1] + 1)
    closed = not unbounded and rng.random() < 0.5
    configs = []
    for i in range(n):
        lo, last = cuts[i], i == n - 1
        hi = INF if unbounded and last else cuts[i + 1]
        mode = rng.choice(("m", "n"))
        if hi != INF and hi - lo >= 1 and rng.random() < 0.2:
            mid = lo + Q(1, 2)
            c = config_concat(
                make_config(mode, lo, mid, {"u": rnd_q(rng)}, {"u": rnd_q(rng)}),
                make_config(mode, mid, hi, {"u": rnd_q(rng)}, {"u": rnd_q(rng)},
                            closed_hi=last and closed),
            )
        else:
            c = make_config(mode, lo, hi, {"u": rnd_q(rng)}, {"u": rnd_q(rng)},
                            closed_hi=last and closed)
        configs.append(c)
    return trajectory_validate(configs, truncated=not (closed or unbounded))


def test_rankwise_matches_timewise_rich_relations():
    """The two decision procedures agree beyond test_05's single-clause
    relations: clause windows, domains, guards, strict comparisons,
    endpoint symbols, piecewise configurations and unbounded ends.
    Endpoint symbols are drawn only for bounded trajectories."""
    rng = random.Random(20261018)
    verdicts = []
    for _ in range(400):
        unbounded = rng.random() < 0.15
        r = _rich_relation(rng, endpoints=not unbounded)
        s, sb = _rich_trajectory(rng, unbounded), _rich_trajectory(rng, unbounded)
        tw = traj_related_timewise(r, s, sb)
        assert traj_related_rankwise(r, s, sb) == tw
        verdicts.append(tw)
    assert True in verdicts and False in verdicts


def test_gap_between_clause_windows_is_unrelated():
    """Equal flows on [0, 4) and two clause windows, [0, 3) and
    [7/2, inf): the states are unrelated on [3, 7/2), a gap that holds
    no constraint root and no cell midpoint unless the window bounds
    are cut points."""
    eq = (parse_constraint("c_u = a_u"),)
    r = TimedStateRelation((
        Clause(eq, TimeInterval(Q(0), Q(3))),
        Clause(eq, TimeInterval(Q(7, 2), INF)),
    ))
    s = trajectory_validate([make_config("m", 0, 4, {"u": 1}, {"u": 1}, closed_hi=True)])
    assert not traj_related_timewise(r, s, s)
    assert not traj_related_rankwise(r, s, s)
