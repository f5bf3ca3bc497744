"""Timed state relations: clause evaluation, the exact forall-window
decision procedure, configuration lifting, and trajectory relations."""

import random
from fractions import Fraction as Q

import pytest

from hybridsem.affine import AffineConstraint, LinExpr, parse_constraint
from hybridsem.errors import EndpointSymbolsUnbound
from hybridsem.flow_config import State, config_concat, make_config
from hybridsem.flow_config import overlapping, pieces
from hybridsem.relation import (
    Clause,
    ConfigRelation,
    TimedStateRelation,
    _clause_spans,
    _compile,
    _endpoint_env,
    _interval_span,
    _span_meet,
    _window_points,
    compose_relations,
    config_related,
    exists_window_related,
    forall_window_related,
    relation_from_json,
    related_candidates,
    relation_project,
    sem_related,
    state_related,
    traj_related_exists_counterpart,
    traj_related_rankwise,
    traj_related_timewise,
)
from hybridsem.time_core import INF, TimeInterval
from hybridsem.trajectory import trajectory_validate

from conftest import random_trajectory, ref_state_related, rnd_q

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


def test_dynamic_part_naming_an_unbound_symbol_never_holds():
    """A `dynamic` part's constraints are bound like the clause's own: one
    naming the infinite end of an unbounded configuration, or a variable
    a side lacks, makes its clause fail; other clauses still decide."""
    bounded = make_config("m", 0, 2, {"u": 0}, {"u": 1}, closed_hi=True)
    unbounded = make_config("m", 0, INF, {"u": 0}, {"u": 1})
    for c, d, text in ((unbounded, unbounded, "t <= E_c"), (bounded, unbounded, "t <= E_a"),
                       (bounded, bounded, "c_u = a_w")):
        dyn = Clause((), dynamic=lambda ep, text=text: (parse_constraint(text),))
        s, sb = trajectory_validate([c]), trajectory_validate([d])
        for clauses, want in (((dyn,), False), ((dyn,) + EQ.clauses, True)):
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


def _clauses(*clauses):
    """A relation of (constraint texts, keyword arguments of Clause) pairs."""
    return TimedStateRelation(
        tuple(Clause(tuple(map(parse_constraint, cons)), **kw) for cons, kw in clauses)
    )


def test_compiled_kernel_edge_cases():
    """Verdicts of the kernel compiled per piece pair where a clause can
    never hold on the pair, or where piece and configuration differ."""
    rise = make_config("m", 0, 2, {"u": 0}, {"u": 1}, closed_hi=True)  # u = t
    steep = make_config("m", 0, 2, {"u": 0}, {"u": 2}, closed_hi=True)  # u = 2t
    endless = make_config("m", 0, INF, {"u": 0}, {"u": 1})
    # mode m with u = t on [0, 1), then mode n with u = 2 - t on [1, 2]
    bent = config_concat(
        make_config("m", 0, 1, {"u": 0}, {"u": 1}),
        make_config("n", 1, 2, {"u": 1}, {"u": -1}, closed_hi=True),
    )

    def closed(lo, hi):
        return TimeInterval(Q(lo), Q(hi), True)

    whole, upper = closed(0, 2), closed(1, 2)
    eq = (["c_u = a_u"], {})
    # a guard that misses mode m, on a constraint with its root t = 1
    # inside the window: ignoring the guard would relate t = 1
    off_guard = (["c_u = 1"], {"concrete_mode": "n"})
    rows = [
        # relation, c, d, window, forall, exists
        (_clauses(off_guard), rise, rise, whole, False, False),
        (_clauses(off_guard, (["c_u < 1"], {})), rise, rise, whole, False, True),
        (_clauses(off_guard, (["c_u < 1"], {})), rise, rise, upper, False, False),
        (_clauses(off_guard, (["c_u < 1"], {})), rise, rise, TimeInterval(Q(0), Q(1)), True, True),
        # c_v names a variable neither side has
        (_clauses((["c_v = 0"], {})), rise, rise, whole, False, False),
        (_clauses((["c_v = 0"], {}), eq), rise, rise, whole, True, True),
        (_clauses((["c_v = 0"], {}), eq), rise, steep, whole, False, True),
        (_clauses((["c_v = 0"], {}), eq), rise, steep, upper, False, False),
        # `dynamic` declines: the clause fails although c_u = a_u holds
        (_clauses((["c_u = a_u"], {"dynamic": lambda ep: None})), rise, rise, whole, False, False),
        (_clauses((["c_u = a_u"], {"dynamic": lambda ep: None}), (["t <= 1"], {})),
         rise, rise, whole, False, True),
        # E_c of an unbounded configuration is unbound; B_c is bound
        (_clauses((["t <= E_c"], {})), endless, endless, TimeInterval(Q(0), INF), False, False),
        (_clauses((["t <= E_c"], {})), rise, rise, whole, True, True),
        (_clauses((["t >= B_c + 1"], {})), endless, endless, TimeInterval(Q(0), INF), False, True),
        (_clauses((["t >= B_c"], {})), endless, endless, TimeInterval(Q(0), INF), True, True),
        # decided past the last cut, t = 3, of an unbounded window
        (_clauses((["c_u > 3"], {})), endless, endless, TimeInterval(Q(0), INF), False, True),
        (_clauses((["c_u <= 3"], {})), endless, endless, TimeInterval(Q(0), INF), False, True),
        # piecewise: equal on [0, 1], apart after; E_c is the whole
        # configuration's end, 2, not the first piece's, 1
        (_clauses(eq), bent, rise, whole, False, True),
        (_clauses(eq), bent, rise, closed(0, 1), True, True),
        (_clauses(eq), bent, rise, closed(Q(3, 2), 2), False, False),
        (_clauses((["c_u = a_u", "E_c = 2"], {})), bent, rise, closed(0, 1), True, True),
        (_clauses((["c_u = a_u"], {"concrete_mode": "n"})), bent, rise, whole, False, True),
        (_clauses((["c_u = a_u"], {"concrete_mode": "n"})), bent, rise, closed(0, 1), False, True),
        (_clauses((["c_u = a_u"], {"concrete_mode": "m"})), bent, rise, closed(0, 1), False, True),
    ]
    for i, (r, c, d, window, want_forall, want_exists) in enumerate(rows):
        assert forall_window_related(r, c, d, window) == want_forall, i
        assert exists_window_related(r, c, d, window) == want_exists, i


def _exists_by_spans(r, c, d, window):
    """exists_window_related decided from solution spans, without the
    kernel: some clause span meets the window, both pieces and dom(r)."""
    endpoints = _endpoint_env(c, d)
    for cp in pieces(c):
        for dp in pieces(d):
            need = _span_meet(_interval_span(window), _interval_span(cp.interval))
            need = _span_meet(need, _interval_span(dp.interval))
            if r.domain is None:
                parts = [need]
            else:
                parts = [_span_meet(need, _interval_span(w)) for w in r.domain]
            for clause in r.clauses:
                for y in _clause_spans(clause, cp, dp, endpoints):
                    if any(_span_meet(x, y) for x in parts):
                        return True
    return False


def test_exists_window_matches_spans_randomized():
    """The existential window verdict against an independent procedure,
    as test_05 checks the universal one: clause windows, domains, guards,
    strict comparisons, endpoint symbols (also of unbounded ends),
    piecewise configurations and windows of every shape."""
    rng = random.Random(61)
    verdicts = []
    for _ in range(300):
        unbounded = rng.random() < 0.15
        r = _rich_relation(rng, endpoints=True)
        s, sb = _rich_trajectory(rng, unbounded), _rich_trajectory(rng, unbounded)
        for c, d, w in overlapping(s.configs, sb.configs):
            # a window near the overlap: overlapping it, inside it or apart
            lo = max(Q(0), w.lo + Q(rng.randint(-2, 3), 2))
            hi = INF if rng.random() < 0.2 else lo + Q(rng.randint(0, 4), 2)
            window = TimeInterval(lo, hi, hi != INF and rng.random() < 0.5)
            got = exists_window_related(r, c, d, window)
            assert got == _exists_by_spans(r, c, d, window), (r, c, d, window)
            verdicts.append(got)
    assert verdicts.count(True) > 50 and verdicts.count(False) > 50


def _points_by_contains(r, clauses, window):
    """The decision points of a window: every cut of the closed window
    and the midpoints between them, kept where window.contains says."""
    lo, hi = window.lo, window.hi
    cuts = {lo} | ({hi} if hi != INF else set())
    for w, cons in clauses:
        if w is not None:
            cuts |= {b for b in (w.lo, w.hi) if b != INF and lo < b < hi}
        cuts |= {Q(-b, a) for _, a, b in cons if a and lo < Q(-b, a) < hi}
    if r.domain is not None:
        cuts |= {b for w in r.domain for b in (w.lo, w.hi) if b != INF and lo < b < hi}
    if hi == INF:
        cuts.add(max(cuts) + 1)
    cuts = sorted(cuts)
    points = [cuts[0]] + [p for a, b in zip(cuts, cuts[1:]) for p in ((a + b) / 2, b)]
    return [t for t in points if window.contains(t)]


def test_window_points_match_contains_filter():
    """_window_points leaves out only the right end of an open window;
    the points are those the contains filter keeps, on open, closed,
    point and unbounded windows of seeded piece pairs."""
    rng = random.Random(9)
    shapes = set()
    for _ in range(300):
        r = _rich_relation(rng, endpoints=True)
        s, sb = _rich_trajectory(rng, False), _rich_trajectory(rng, rng.random() < 0.2)
        for c, d, w in overlapping(s.configs, sb.configs):
            for cp, dp, _ in overlapping(pieces(c), pieces(d)):
                lo = w.lo + Q(rng.randint(0, 2), 2)
                shape = rng.choice(("open", "closed", "point", "unbounded"))
                hi = {"open": lo + Q(rng.randint(1, 4), 2), "closed": lo + Q(rng.randint(1, 4), 2),
                      "point": lo, "unbounded": INF}[shape]
                window = TimeInterval(lo, hi, shape in ("closed", "point"))
                clauses = _compile(r, cp, dp, _endpoint_env(c, d))
                D, got = _window_points(r, clauses, window)
                got = [Q(P, 2 * D) for P in got]
                assert got == _points_by_contains(r, clauses, window), (r, cp, dp, window)
                assert all(window.contains(t) for t in got)
                shapes.add(shape)
    assert shapes == {"open", "closed", "point", "unbounded"}


_VALUES = (Q(0), Q(1, 2), Q(1))


def _candidate_relation(rng, endpoints):
    """Clauses over c_u, c_w, a_u, a_w and t with small coefficients, so
    that equalities hold often; wildcard and mode guards, windows, all
    five comparisons, sometimes a domain, and, if `endpoints`, sometimes
    a B/E symbol or a `dynamic` part."""
    clauses = []
    for _ in range(rng.randint(1, 3)):
        cons = []
        for _ in range(rng.randint(0, 2)):
            syms = rng.sample(("c_u", "c_w", "a_u", "a_w", "t"), rng.randint(1, 3))
            coefs = {sym: rng.choice((-1, 1, 2)) for sym in syms}
            if endpoints and rng.random() < 0.2:
                coefs[rng.choice(("B_c", "E_a"))] = 1
            op = rng.choice(("=", "<=", ">=", "<", ">"))
            cons.append(AffineConstraint(LinExpr.make(coefs, rng.choice(_VALUES)), op))
        window = None
        if rng.random() < 0.3:
            lo = Q(rng.randint(0, 4), 2)
            hi = INF if rng.random() < 0.3 else lo + Q(rng.randint(1, 3), 2)
            window = TimeInterval(lo, hi, hi != INF and rng.random() < 0.5)
        dynamic = (lambda eps: ()) if endpoints and rng.random() < 0.1 else None
        modes = (None, None, "m", "n")
        clauses.append(
            Clause(tuple(cons), window, rng.choice(modes), rng.choice(modes), dynamic)
        )
    domain = None
    if rng.random() < 0.3:
        domain = (TimeInterval(Q(rng.randint(0, 2), 2), Q(rng.randint(3, 5), 2), True),)
    return TimedStateRelation(tuple(clauses), domain)


def _candidate_state(rng):
    """Mode m or n, with u and w or only one of them."""
    names = rng.choice((("u", "w"), ("u", "w"), ("u",), ("w",)))
    return State.make(rng.choice(("m", "n")), {k: rng.choice(_VALUES) for k in names})


def test_related_candidates_matches_state_related():
    """related_candidates lists exactly the candidates outside `skip`
    that the reference evaluator conftest.ref_state_related relates, and
    raises EndpointSymbolsUnbound exactly when the reference raises on
    one of them."""
    rng = random.Random(20261018)
    seen = {"related": 0, "unrelated": 0, "raised": 0}
    for _ in range(400):
        r = _candidate_relation(rng, endpoints=rng.random() < 0.3)
        candidates = [_candidate_state(rng) for _ in range(rng.randint(0, 6))]
        related_at = related_candidates(r, candidates)
        for _ in range(4):
            t, s = Q(rng.randint(0, 6), 2), _candidate_state(rng)
            skip = set(rng.sample(candidates, rng.randint(0, len(candidates))))
            try:
                expected = [sb for sb in candidates
                            if sb not in skip and ref_state_related(r, t, s, sb)]
            except EndpointSymbolsUnbound:
                with pytest.raises(EndpointSymbolsUnbound):
                    related_at(t, s, skip)
                seen["raised"] += 1
                continue
            assert related_at(t, s, skip) == expected, (r, t, s, candidates, skip)
            seen["related"] += len(expected)
            seen["unrelated"] += len(candidates) - len(skip) - len(expected)
    assert all(n > 50 for n in seen.values()), seen


def _equality_relation(rng):
    """Clauses of one to three constraints over c_u, c_w, a_u, a_w and t,
    most of them `=`, some `=` with no a_* term, with mode guards."""
    clauses = []
    for _ in range(rng.randint(1, 3)):
        cons = []
        for _ in range(rng.randint(1, 3)):
            pool = ("c_u", "c_w", "t") if rng.random() < 0.2 else ("c_u", "c_w", "a_u", "a_w")
            syms = rng.sample(pool, rng.randint(1, 2))
            coefs = {sym: rng.choice((-1, 1, 2)) for sym in syms}
            op = "=" if rng.random() < 0.6 else rng.choice(("<=", ">=", "<", ">"))
            cons.append(AffineConstraint(LinExpr.make(coefs, rng.choice(_VALUES)), op))
        modes = (None, None, "m", "n")
        clauses.append(Clause(tuple(cons), None, rng.choice(modes), rng.choice(modes)))
    return TimedStateRelation(tuple(clauses))


def _first_equality(clause):
    """'first' or 'later' by the place of the clause's first `=`, plus
    '-no-a' when that constraint has no a_* term; None without `=`."""
    for i, con in enumerate(clause.constraints):
        if con.op == "=":
            where = "first" if i == 0 else "later"
            return where if any(s.startswith("a_") for s in con.symbols()) else where + "-no-a"
    return None


def test_related_candidates_equality_index_matches_state_related():
    """Clauses read through the index of their first `=` relate exactly
    the candidates the reference evaluator conftest.ref_state_related
    relates: `=` first or later in the clause, an `=` with no a_* term,
    and candidates sharing the indexed value."""
    rng = random.Random(20261019)
    related_by = dict.fromkeys(("first", "later", "first-no-a", "later-no-a", None), 0)
    shared = 0  # calls where one indexed clause relates two candidates
    for _ in range(600):
        r = _equality_relation(rng)
        candidates = list(dict.fromkeys(_candidate_state(rng) for _ in range(rng.randint(1, 8))))
        related_at = related_candidates(r, candidates)
        for _ in range(4):
            t, s = Q(rng.randint(0, 4), 2), _candidate_state(rng)
            skip = set(rng.sample(candidates, rng.randint(0, len(candidates) // 2)))
            expected = [sb for sb in candidates
                        if sb not in skip and ref_state_related(r, t, s, sb)]
            assert related_at(t, s, skip) == expected, (r, t, s, candidates, skip)
            for clause in r.clauses:
                alone = TimedStateRelation((clause,))
                hits = [sb for sb in expected if state_related(alone, t, s, sb)]
                related_by[_first_equality(clause)] += len(hits)
                shared += len(hits) > 1 and _first_equality(clause) in ("first", "later")
    assert all(n > 20 for n in related_by.values()), related_by
    assert shared > 20
