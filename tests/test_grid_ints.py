"""The grid side in integers against the code it replaced, and against
an independent membership procedure.

discretize_parent.py keeps grid_states, _grid_tables, hts_discretize,
discretization_hypotheses, relation_discretize, milner_sim_check and
theorem6_check as they were before states were interned on an integer
grid.  theorem7_check, which runs the last four on one grid, is
checked against the reference's sequence of them.  On seeded inputs
(plain and piecewise configurations; open, closed, point and unbounded
intervals; grid steps with denominators up to 97; relations with mode
guards, clause windows, a domain, and B/E symbols, which both must
refuse; hand-built discrete systems) the new code must give the
reference's results and refusals.  The Milner check
now names the failing pair of least rank and repr, so where several
pairs fail its witness is checked to be that one among the reference's
failing pairs.

test_grid_membership_matches_reference decides each membership the
integer path decides a second time, with conftest.ref_state_related
over Fraction states evaluated by _state_closed, sharing no decision
code with related_candidates or the grid."""

import json
import random
from fractions import Fraction as Q
from pathlib import Path

import pytest

import discretize_parent as ref
from hybridsem import discretize
from hybridsem.affine import ENDPOINT_SYMBOLS, AffineConstraint, LinExpr, parse_constraint
from hybridsem.casestudy import TankParams, build_tank_automaton, tank_relations
from hybridsem.discretize import (
    DiscreteTransitionSystem,
    TimefulState,
    _Grid,
    _Node,
    _pair_grid,
    _state_closed,
    discrete_traces,
    discretization_hypotheses,
    grid_states,
    hts_discretize,
    milner_sim_check,
    relation_discretize,
    theorem6_check,
    theorem7_check,
)
from hybridsem.errors import HybridSemError
from hybridsem.flow_config import UNDEFINED, State, config_concat, make_config
from hybridsem.relation import Clause, TimedStateRelation, relation_from_json
from hybridsem.simulation import ConfigGraph, config_graph
from hybridsem.time_core import INF, TimeInterval

from conftest import random_explicit, ref_state_related

DENOMINATORS = (1, 2, 3, 4, 7, 16, 97)
INPUTS = Path(__file__).parent / "golden" / "inputs"


def _q(rng, lo=-3, hi=3):
    d = rng.choice(DENOMINATORS)
    return Q(rng.randint(lo * d, hi * d), d)


def _delta(rng):
    return Q(rng.randint(1, 3), rng.choice(DENOMINATORS))


def _plain(rng, lo, hi, closed):
    return make_config(rng.choice(("m", "n")), lo, hi, {"u": _q(rng), "w": _q(rng)},
                       {"u": _q(rng), "w": _q(rng)}, closed_hi=closed)


def _config(rng, lo, hi, closed, mids=()):
    """A plain configuration on [lo, hi) (closed at hi if `closed`), or
    a piecewise one joined at one of `mids`."""
    inner = [m for m in mids if lo < m < hi]
    if inner and rng.random() < 0.4:
        mid = rng.choice(inner)
        return config_concat(_plain(rng, lo, mid, False), _plain(rng, mid, hi, closed))
    return _plain(rng, lo, hi, closed)


def _outcome(f, *args):
    """f(*args), or the name of the refusal it raises."""
    try:
        return f(*args)
    except HybridSemError as exc:
        return type(exc).__name__


def test_grid_tables_match_reference():
    """Each table and each state off a table (at) equals the reference's:
    plain, piecewise, open, closed, point and unbounded configurations,
    aligned or not with steps of denominators up to 97."""
    rng = random.Random(20261201)
    seen = {"piecewise": 0, "point": 0, "unbounded": 0, "refused": 0}
    for _ in range(100):
        delta = _delta(rng)
        configs = []
        for _ in range(rng.randint(1, 4)):
            lo = Q(rng.randint(0, 8), rng.choice(DENOMINATORS))
            kind = rng.choice(("open", "closed", "point", "unbounded"))
            hi = {"point": lo, "unbounded": INF}.get(kind, lo + Q(rng.randint(1, 12), 4))
            mids = [lo + Q(k, 4) for k in range(1, 12)]
            configs.append(_config(rng, lo, hi, kind in ("closed", "point"), mids))
            seen["point"] += kind == "point"
            seen["piecewise"] += not hasattr(configs[-1], "flow")
        hcap = Q(rng.randint(0, 40), 4) if rng.random() < 0.7 else None
        for c in configs:
            want = _outcome(ref.grid_states, c, delta, hcap)
            got = _outcome(grid_states, c, delta, hcap)
            assert got == want and (isinstance(want, str) or list(got) == list(want))
        want = _outcome(ref._grid_tables, configs, delta, hcap)
        if isinstance(want, str):
            seen["refused"] += 1
            assert _outcome(_Grid, configs, delta, hcap) == want
            continue
        seen["unbounded"] += any(c.e == INF for c in configs)
        tables, at = want
        grid = _Grid(configs, delta, hcap)
        for c in configs:
            assert {n: grid.node(_Node(n, i)) for n, i in grid.tables[c].items()} == tables[c]
            first = min(tables[c], default=int(c.b / delta))
            for n in range(first - 2, first + len(tables[c]) + 2):
                assert grid.node(_Node(n, grid.at(c, n))) == at(c, n), (c, delta, n)
    assert all(n > 10 for n in seen.values()), seen


def _graph(rng, delta, hcap):
    """A layered configuration graph on the grid of delta: each level
    starts where the one before ends, every configuration of a level
    steps to some of the next, and the last level is closed, open
    (truncated), unbounded or, after an open level, a point."""
    cuts = [0]
    for _ in range(rng.randint(1, 3)):
        cuts.append(cuts[-1] + rng.randint(1, 3))
    levels = []
    for i, (a, b) in enumerate(zip(cuts, cuts[1:])):
        last = i == len(cuts) - 2
        end = rng.choice(("closed", "open", "unbounded")) if last else "inner"
        hi = INF if end == "unbounded" else b * delta
        mids = [a * delta + Q(k, 2) * delta for k in range(1, 2 * (b - a))]
        levels.append([_config(rng, a * delta, hi, end == "closed", mids)
                       for _ in range(rng.randint(1, 2))])
    if rng.random() < 0.2 and levels[-1][0].e != INF and not levels[-1][0].interval.closed_hi:
        e = levels[-1][0].e
        levels.append([make_config("m", e, e, {"u": _q(rng)}, {"u": 0}, closed_hi=True)])
    succ = {}
    for level, nxt in zip(levels, levels[1:] + [[]]):
        for c in level:
            succ[c] = tuple(d for d in nxt if d.b == c.e and rng.random() < 0.7) or tuple(nxt[:1])
    truncated = [c for c in levels[-1] if not c.interval.closed_hi]
    return ConfigGraph(tuple(levels[0]), tuple(succ.items()), frozenset(truncated))


def _systems(rng, delta, hcap):
    if rng.random() < 0.5:
        return _graph(rng, delta, hcap)
    return random_explicit(rng, delta=delta, max_levels=3, modes=("m", "n"))


def _same(d, want):
    for part in ("states", "initial", "edges", "closing", "from_tau"):
        assert getattr(d, part) == getattr(want, part), part


def test_hts_discretize_and_theorem6_match_reference():
    rng = random.Random(20261202)
    seen = {"graph": 0, "piecewise": 0, "closing": 0, "Misaligned": 0}
    for _ in range(80):
        step = rng.choice((Q(1), Q(1, 2), Q(1, 3), Q(3, 97)))
        hcap = Q(rng.randint(4, 12), 2) * step
        h = _systems(rng, step, hcap)
        # a step of the graph's grid, or one it is not aligned to
        delta = step * rng.choice((1, 1, 2, Q(3, 2)))
        want = _outcome(ref.hts_discretize, h, delta, hcap)
        got = _outcome(hts_discretize, h, delta, hcap)
        if isinstance(want, str):
            assert got == want
            seen[want] += 1
            continue
        _same(got, want)
        for closing in (False, True):
            assert discrete_traces(got, closing) == ref.discrete_traces(want, closing)
        seen["graph"] += isinstance(h, ConfigGraph)
        seen["closing"] += bool(want.closing)
        seen["piecewise"] += any(not hasattr(c, "flow") for c in config_graph(h, hcap).configs())
        if not isinstance(h, ConfigGraph):
            hz = 10 * step
            assert theorem6_check(h, delta, hz) == ref.theorem6_check(h, delta, hz)
    assert all(n > 3 for n in seen.values()), seen
    p = TankParams.make(x0_samples=(1,))
    tank = build_tank_automaton(p)
    for delta, hz in ((Q(1, 16), Q(12)), (Q(1, 4), Q(9)), (Q(1), Q(7))):
        _same(hts_discretize(tank, delta, hz), ref.hts_discretize(tank, delta, hz))
        assert theorem6_check(tank, delta, hz) == ref.theorem6_check(tank, delta, hz)


def _coef(rng):
    return rng.choice((Q(1), Q(-1), Q(2), Q(1, 3), Q(-5, 97)))


def _relation(rng):
    """Clauses over u (and sometimes w, which no graph of _graph lacks,
    or a symbol that is none of t, c_* and a_*), mostly c_u = a_u + k,
    with mode guards, clause windows, sometimes a domain, and sometimes
    a B/E symbol or a `dynamic` part."""
    clauses, modes = [], (None, None, "m", "n")
    for _ in range(rng.randint(1, 3)):
        cons = []
        for _ in range(rng.randint(0, 2)):
            if rng.random() < 0.5:
                cons.append(parse_constraint(rng.choice(
                    ("c_u = a_u", "c_u = a_u + 1/2", "c_w = a_w", "c_u <= a_u", "a_u >= 0"))))
                continue
            syms = rng.sample(("c_u", "a_u", "t", "c_w", "a_w"), rng.randint(1, 3))
            coefs = {sym: _coef(rng) for sym in syms}
            if rng.random() < 0.05:
                coefs["k_u"] = 1
            if rng.random() < 0.08:
                coefs[rng.choice(ENDPOINT_SYMBOLS)] = 1
            op = rng.choice(("=", "<=", ">=", "<", ">"))
            cons.append(AffineConstraint(LinExpr.make(coefs, _q(rng, -1, 1)), op))
        window = None
        if rng.random() < 0.3:
            lo = Q(rng.randint(0, 8), rng.choice((1, 2, 3, 97)))
            hi = INF if rng.random() < 0.3 else lo + Q(rng.randint(1, 6), rng.choice((1, 2, 3)))
            window = TimeInterval(lo, hi, hi != INF and rng.random() < 0.5)
        dynamic = (lambda env: ()) if rng.random() < 0.03 else None
        clauses.append(Clause(tuple(cons), window, rng.choice(modes), rng.choice(modes), dynamic))
    domain = None
    if rng.random() < 0.2:
        lo = Q(rng.randint(0, 2), rng.choice((1, 3)))
        domain = (TimeInterval(lo, lo + rng.randint(2, 12), rng.random() < 0.5),)
    return TimedStateRelation(tuple(clauses), domain)


def _failing(R, d1, d2):
    """Every failing (s, sb, s2) of the reference's Milner check."""
    return [(s, sb, s2) for s, sb in R for s2, answers in ref._step_demands(d1, d2, s, sb)
            if answers.isdisjoint(R)]


def _check_milner(got, R, d1, d2):
    """got is the Milner verdict of R on the reference systems d1, d2,
    its witness the failing triple of least rank and then reprs."""
    failing = _failing(R, d1, d2)
    assert got[0] == (not failing) == ref.milner_sim_check(R, d1, d2)[0]
    if failing:
        assert got[1] == min(failing, key=lambda w: (w[0].rank, *map(repr, w)))


def _theorem7_reference(r, h, hb, delta, hcap, extra):
    """The reference's theorem 7 sequence: (hypotheses, Milner verdict,
    least failing triple), or the refusal of its first refusing step."""
    hyp = _outcome(ref.discretization_hypotheses, r, h, hb, delta, hcap)
    d1 = _outcome(ref.hts_discretize, h, delta, hcap)
    d2 = _outcome(ref.hts_discretize, hb, delta, hcap)
    for step in (hyp, d1, d2):
        if isinstance(step, str):
            return step
    R = _outcome(ref.relation_discretize, r, delta, d1, d2, extra)
    if isinstance(R, str):
        return R
    failing = _failing(R, d1, d2)
    return hyp, not failing, min(failing, key=lambda w: (w[0].rank, *map(repr, w)), default=None)


def test_theorem7_pipeline_matches_reference():
    """Theorem 7's steps (hypotheses, both discretizations, the
    discretized relation, Milner), each on its own grid and all on one
    grid in theorem7_check, give the reference's results and refusals
    at every step: one system or two, with and without extra abstract
    states on and off the grid."""
    rng = random.Random(20261203)
    seen = {"ok": 0, "(69)": 0, "(71)": 0, "EndpointSymbolsUnbound": 0, "pairs": 0,
            "milner fails": 0, "two systems": 0, "extra": 0, "DomainGapAtGridPoint": 0}
    for _ in range(150):
        delta = rng.choice((Q(1), Q(1, 2), Q(1, 3)))
        hcap = Q(rng.randint(4, 12), 2)
        h = _systems(rng, delta, hcap)
        hb = h if rng.random() < 0.4 else _systems(rng, delta, hcap)
        r = _relation(rng)
        G = config_graph(h, hcap)
        Gb = G if hb is h else config_graph(hb, hcap)
        want = _outcome(ref.discretization_hypotheses, r, h, hb, delta, hcap)
        got = _outcome(discretization_hypotheses, r, G, Gb, delta, hcap)
        assert got == want, r
        if isinstance(want, str):
            seen[want] += 1
        else:
            seen["ok"] += want["ok"]
            seen["(69)"] += bool(want["(69)"])
            seen["(71)"] += bool(want["(71)"])
        d1, w1 = _outcome(hts_discretize, G, delta, hcap), _outcome(ref.hts_discretize, h, delta, hcap)
        d2, w2 = _outcome(hts_discretize, Gb, delta, hcap), _outcome(ref.hts_discretize, hb, delta, hcap)
        refused = [w for w in (w1, w2) if isinstance(w, str)]
        extra = ()
        if not refused and rng.random() < 0.3:
            seen["extra"] += 1
            v = rng.choice(sorted(w2.states, key=repr))
            off = State(v.state.mode, tuple((k, x + Q(1, 1009)) for k, x in v.state.vars))
            extra = (TimefulState(v.state, v.rank + 1), TimefulState(off, v.rank))[:rng.randint(1, 2)]
        assert (_outcome(theorem7_check, r, G, Gb, delta, hcap, extra)
                == _theorem7_reference(r, h, hb, delta, hcap, extra)), r
        if refused:
            assert [d for d in (d1, d2) if isinstance(d, str)] == refused
            continue
        seen["two systems"] += hb is not h
        R = _outcome(relation_discretize, r, delta, d1, d2, extra)
        want = _outcome(ref.relation_discretize, r, delta, w1, w2, extra)
        assert R == want, r
        if isinstance(want, str):
            seen[want] += 1
            continue
        seen["pairs"] += bool(want)
        got = milner_sim_check(R, d1, d2)
        seen["milner fails"] += not got[0]
        _check_milner(got, want, w1, w2)
    assert all(n > 3 for n in seen.values()), seen


def test_relation_discretize_reads_only_the_abstract_states():
    """On a pair grid, as in theorem7_check, r is compiled over every
    known grid state, and relation_discretize reads it leaving out those
    that are none of d2's states.  So a B/E clause reached only for such
    a state (the tank's shut state at the end rank of its shut phase,
    x = 3) refuses nothing, as r compiled over d2's states alone refuses
    nothing."""
    p = TankParams.make(x0_samples=(1,))
    tank = build_tank_automaton(p)
    r = TimedStateRelation((
        Clause((parse_constraint("a_x < 3"),), None, None, "shut"),
        Clause((parse_constraint("t <= E_a"),), None, None, "shut"),
        Clause((parse_constraint("c_y = a_y"),), None, "open", "open"),
    ))
    G = config_graph(tank, 9)
    grid = _pair_grid(G, G, Q(1), Q(9))
    d, w = hts_discretize(G, 1, 9, grid), ref.hts_discretize(tank, 1, 9)
    end = State.make("shut", {"x": 3, "y": 2})
    assert end not in {grid.node(u).state for u in d.states}
    assert end in {grid.node(_Node(n, i)).state for table in grid.tables.values()
                   for n, i in table.items()}
    want = ref.relation_discretize(r, 1, w, w)
    pairs = relation_discretize(r, 1, d, d, (), grid)
    assert {(grid.node(u), grid.node(v)) for u, v in pairs} == want
    assert relation_discretize(r, 1, hts_discretize(G, 1, 9), hts_discretize(G, 1, 9)) == want


def _hand_built(rng, ranks, edges=True):
    """A discrete system given state by state: one to three states per
    rank over u and w (or one of them), values of denominators up to 97,
    and random edges between consecutive ranks."""
    levels = []
    for n in ranks:
        mode = rng.choice(("m", "n"))
        names = rng.choice((("u", "w"), ("u",), ("w",)))
        levels.append(list({TimefulState(State.make(mode, {k: _q(rng, 0, 1) for k in names}), n)
                            for _ in range(rng.randint(1, 3))}))
    steps = [(a, b) for lo, hi in zip(levels, levels[1:]) if hi[0].rank == lo[0].rank + 1
             for a in lo for b in hi if edges and rng.random() < 0.6]
    states = frozenset(u for level in levels for u in level)
    return (DiscreteTransitionSystem(states, frozenset(levels[0]), frozenset(steps)),
            ref.DiscreteTransitionSystem(states, frozenset(levels[0]), frozenset(steps)))


def test_hand_built_systems_match_reference():
    """relation_discretize and the Milner check on systems given state
    by state, which no grid built: the same pairs and refusals as the
    reference, and the same verdict on random pair sets."""
    rng = random.Random(20261204)
    seen = {"pairs": 0, "empty": 0, "refused": 0, "milner fails": 0, "milner holds": 0}
    for _ in range(300):
        r = _relation(rng)
        d1, w1 = _hand_built(rng, range(3))
        d2, w2 = _hand_built(rng, sorted(rng.sample(range(4), rng.randint(1, 3))))
        extra = tuple(_hand_built(rng, (rng.randrange(4),))[0].states) if rng.random() < 0.3 else ()
        delta = rng.choice((Q(1, 2), Q(1), Q(2, 97)))
        want = _outcome(ref.relation_discretize, r, delta, w1, w2, extra)
        assert _outcome(relation_discretize, r, delta, d1, d2, extra) == want, r
        seen["refused" if isinstance(want, str) else "pairs" if want else "empty"] += 1
        pairs = sorted(((u, v) for u in w1.states for v in w2.states), key=repr)
        for R in (want if not isinstance(want, str) else frozenset(),
                  frozenset(p for p in pairs if rng.random() < 0.5)):
            got = milner_sim_check(R, d1, d2)
            seen["milner holds" if got[0] else "milner fails"] += 1
            _check_milner(got, R, w1, w2)
    assert all(n > 10 for n in seen.values()), seen


def test_undefined_state_is_related_to_nothing():
    """A hand-built system may hold UNDEFINED, which a grid keys as id
    -1: it is related to nothing, on either side, and no other state is
    read in its place."""
    r = TimedStateRelation((Clause((parse_constraint("c_u = a_u"),), None, None, None),))
    a = TimefulState(State.make("m", {"u": 1}), 0)
    gap = TimefulState(UNDEFINED, 0)
    d = DiscreteTransitionSystem(frozenset({a, gap}), frozenset({a, gap}), frozenset())
    only_gap = DiscreteTransitionSystem(frozenset({gap}), frozenset({gap}), frozenset())
    assert relation_discretize(r, 1, d, d) == {(a, a)}
    assert relation_discretize(r, 1, only_gap, d) == frozenset()


def test_milner_witness_is_the_least_failing_pair():
    """Where several pairs fail, the witness is the failing (s, sb, s2)
    of least rank and then reprs, whatever the set order: a pair of
    rank 0 whose repr sorts last is named before one of rank 1."""
    mk = lambda u, n: TimefulState(State.make("m", {"u": Q(u)}), n)
    a0, a1, b0, b1, c = mk(9, 0), mk(8, 0), mk(9, 1), mk(8, 1), mk(0, 2)
    d1 = DiscreteTransitionSystem(frozenset({a0, a1, b0, b1, c}), frozenset({a0, a1}),
                                  frozenset({(a0, b0), (a1, b1), (b0, c), (b1, c)}))
    x, y = mk(5, 0), mk(5, 1)
    d2 = DiscreteTransitionSystem(frozenset({x, y}), frozenset({x}), frozenset())
    # every pair fails: x and y have no successor
    R = frozenset({(a0, x), (a1, x), (b0, y), (b1, y)})
    assert milner_sim_check(R, d1, d2) == (False, (a1, x, b1))
    assert milner_sim_check(R - {(a1, x)}, d1, d2) == (False, (a0, x, b0))
    assert milner_sim_check(frozenset({(b0, y), (b1, y)}), d1, d2) == (False, (b1, y, c))
    # the same on systems the grid built: the tank under r39, with the
    # pair at rank 0 dropped from the relation it discretizes to
    p = TankParams.make(x0_samples=(1,))
    tank = build_tank_automaton(p)
    d = hts_discretize(tank, 1, 9)
    R = relation_discretize(tank_relations(p)["r39"], 1, d, d)
    first = min((u for u, _ in R), key=lambda u: u.rank)
    late = frozenset(pair for pair in R if pair[0].rank > first.rank)
    w = ref.hts_discretize(tank, 1, 9)
    _check_milner(milner_sim_check(late, d, d), late, w, w)


def _recording(calls):
    """related_candidates with each decision recorded as (rank, state,
    candidates decided, related candidates)."""
    real = discretize.related_candidates

    def compile_(r, candidates):
        at = real(r, candidates)

        def decide(n, s, skip=frozenset()):
            hits = at(n, s, skip)
            calls.append((n, s, [x for x in candidates if x not in skip], list(hits)))
            return hits

        return decide

    return compile_


@pytest.mark.parametrize("name", ["always", "eq-y"])
def test_grid_membership_matches_reference(name, monkeypatch):
    """Every membership the integer path decides for theorem 7 on the
    grid workload's tank (x0 = 1, delta 1/16), under the always and
    eq-y golden relations, is decided again by ref_state_related over
    the Fraction states _state_closed gives.  The horizon is cut from
    60 to 20 so that the test stays short; the grid, the candidates and
    the relations are those of the full run.  Each recorded state is
    checked to be a grid state of its rank, and every concrete grid
    point to have been decided."""
    r = relation_from_json(json.loads((INPUTS / f"{name}.json").read_text()))
    delta, hz = Q(1, 16), Q(20)
    G = config_graph(build_tank_automaton(TankParams.make(x0_samples=(1,))), hz)
    calls = []
    monkeypatch.setattr(discretize, "related_candidates", _recording(calls))
    theorem7_check(r, G, G, delta, hz)
    D = _pair_grid(G, G, delta, hz).D

    def fractions(x):
        return State(x.mode, tuple((k, Q(v, D)) for k, v in x.vars))

    at_rank = {}
    for c in G.configs():
        n = int(c.b / delta) + (c.b % delta != 0)
        while n * delta <= min(c.e, hz):
            at_rank.setdefault(n, set()).add(_state_closed(c, n * delta))
            n += 1
    every = set().union(*at_rank.values())
    decided, pairs = set(), 0
    for n, s, candidates, hits in calls:
        s = fractions(s)
        assert s in at_rank[n]
        decided.add((n, s))
        for x in candidates:
            sb = fractions(x)
            assert sb in every
            assert (x in hits) == ref_state_related(r, n * delta, s, sb), (n, s, sb)
            pairs += 1
    assert decided == {(n, s) for n, states in at_rank.items() for s in states}
    assert pairs >= len(decided) * len(every) // 2
