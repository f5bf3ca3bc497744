"""Membership of bare state pairs against the evaluator it replaced.

state_related is relation.related_candidates with one candidate, and
theorem 7 compiles r once through related_candidates: hypotheses (69)
and (71) share one compiled relation, and relation_discretize compiles
r once over its abstract states.  The reference is
conftest.ref_state_related, the earlier clause-by-clause evaluator.  On
seeded relations (mode guards, clause windows, domains, all five
comparisons, a variable one side lacks, a symbol that is none of t, c_*
and a_*, and B/E symbols or a `dynamic` part) and seeded states, each of
them must give the reference's verdicts, and refuse with
EndpointSymbolsUnbound wherever the reference refuses."""

import random
from fractions import Fraction as Q

import pytest

from hybridsem import discretize
from hybridsem.affine import ENDPOINT_SYMBOLS, AffineConstraint, LinExpr, parse_constraint
from hybridsem.discretize import (
    DiscreteTransitionSystem,
    TimefulState,
    discretization_hypotheses,
    relation_discretize,
)
from hybridsem.errors import DomainGapAtGridPoint, EndpointSymbolsUnbound, NonConsecutiveEdge
from hybridsem.flow_config import State, make_config
from hybridsem.relation import Clause, TimedStateRelation, related_candidates, state_related
from hybridsem.simulation import ConfigGraph
from hybridsem.time_core import INF, TimeInterval

from conftest import random_explicit, ref_state_related

_VALUES = (Q(0), Q(1, 2), Q(1))
_SYMBOLS = ("c_u", "c_w", "a_u", "a_w", "t")


def _relation(rng, endpoints=True):
    """One to three clauses of up to three constraints over _SYMBOLS with
    small coefficients, so that equalities hold often; all five
    comparisons, sometimes a symbol k_u that is none of t, c_* and a_*,
    wildcard and mode guards, clause windows (open, closed, unbounded),
    sometimes a domain of one or two windows and, if `endpoints`,
    sometimes a B/E symbol or a `dynamic` part."""
    clauses = []
    for _ in range(rng.randint(1, 3)):
        cons = []
        for _ in range(rng.randint(0, 3)):
            syms = rng.sample(_SYMBOLS, rng.randint(1, 3))
            coefs = {sym: rng.choice((-1, 1, 2)) for sym in syms}
            if rng.random() < 0.05:
                coefs["k_u"] = 1
            if endpoints and rng.random() < 0.1:
                coefs[rng.choice(ENDPOINT_SYMBOLS)] = 1
            op = "=" if rng.random() < 0.4 else rng.choice(("<=", ">=", "<", ">"))
            cons.append(AffineConstraint(LinExpr.make(coefs, rng.choice(_VALUES)), op))
        window = None
        if rng.random() < 0.3:
            lo = Q(rng.randint(0, 4), 2)
            hi = INF if rng.random() < 0.3 else lo + Q(rng.randint(1, 3), 2)
            window = TimeInterval(lo, hi, hi != INF and rng.random() < 0.5)
        dynamic = (lambda env: ()) if endpoints and rng.random() < 0.05 else None
        modes = (None, None, "m", "n")
        clauses.append(Clause(tuple(cons), window, rng.choice(modes), rng.choice(modes), dynamic))
    domain = None
    if rng.random() < 0.3:
        domain = tuple(
            TimeInterval(lo, lo + Q(rng.randint(1, 3), 2), rng.random() < 0.5)
            for lo in sorted(Q(rng.randint(0, 6), 2) for _ in range(rng.randint(1, 2)))
        )
    return TimedStateRelation(tuple(clauses), domain)


def _uses_endpoints(r) -> bool:
    return any(clause.uses_endpoints() for clause in r.clauses)


def _state(rng):
    """Mode m or n, with u and w or only one of them."""
    names = rng.choice((("u", "w"), ("u", "w"), ("u",), ("w",)))
    return State.make(rng.choice(("m", "n")), {k: rng.choice(_VALUES) for k in names})


def _outcome(f, *args):
    """f(*args), or the name of the refusal it raises."""
    try:
        return f(*args)
    except (EndpointSymbolsUnbound, DomainGapAtGridPoint) as exc:
        return type(exc).__name__


REFUSED = "EndpointSymbolsUnbound"


def test_state_related_matches_reference():
    rng = random.Random(20261101)
    seen = dict.fromkeys((True, False, REFUSED), 0)
    for _ in range(3000):
        r = _relation(rng)
        t, s, sb = Q(rng.randint(0, 8), 2), _state(rng), _state(rng)
        want = _outcome(ref_state_related, r, t, s, sb)
        assert _outcome(state_related, r, t, s, sb) == want, (r, t, s, sb)
        seen[want] += 1
    assert all(n > 200 for n in seen.values()), seen


def test_related_candidates_matches_reference():
    """Without skip and with one, a call lists the candidates the
    reference relates, in candidate order, and refuses exactly when the
    reference refuses on a candidate outside skip."""
    rng = random.Random(20261102)
    seen = {"related": 0, "unrelated": 0, REFUSED: 0, "skipped refusal": 0}
    for _ in range(800):
        r = _relation(rng)
        candidates = list(dict.fromkeys(_state(rng) for _ in range(rng.randint(0, 6))))
        at = related_candidates(r, candidates)
        for _ in range(3):
            t, s = Q(rng.randint(0, 8), 2), _state(rng)
            verdicts = {sb: _outcome(ref_state_related, r, t, s, sb) for sb in candidates}
            skip = set(rng.sample(candidates, rng.randint(0, len(candidates))))
            for skipped in (frozenset(), skip):
                left = [sb for sb in candidates if sb not in skipped]
                if any(verdicts[sb] == REFUSED for sb in left):
                    want = REFUSED
                    seen[REFUSED] += 1
                else:
                    want = [sb for sb in left if verdicts[sb]]
                    seen["related"] += len(want)
                    seen["unrelated"] += len(left) - len(want)
                    seen["skipped refusal"] += REFUSED in verdicts.values()
                got = _outcome(at, t, s, skipped) if skipped else _outcome(at, t, s)
                assert got == want, (r, t, s, candidates, skipped)
    assert all(n > 50 for n in seen.values()), seen


def _ref_relation_discretize(r, delta, d1, d2, extra_abstract=()):
    """relation_discretize as it was before it compiled r once: one
    reference call per same-rank pair."""
    delta = Q(delta)
    by_rank: dict = {}
    for v in d2.states | set(extra_abstract):
        by_rank.setdefault(v.rank, []).append(v)
    for n in sorted({u.rank for u in d1.states} | set(by_rank)):
        if not r.in_domain(n * delta):
            raise DomainGapAtGridPoint(f"rank {n} (t={n * delta})")
    pairs = set()
    for u in d1.states:
        for v in by_rank.get(u.rank, ()):
            if ref_state_related(r, u.rank * delta, u.state, v.state):
                pairs.add((u, v))
    return frozenset(pairs)


def _discrete_states(rng, ranks):
    """One to three states at each rank, all of one mode per rank, so
    that a guard can match the states of some ranks only."""
    out = set()
    for n in ranks:
        mode = rng.choice(("m", "n"))
        out.update(TimefulState(State(mode, _state(rng).vars), n)
                   for _ in range(rng.randint(1, 3)))
    return frozenset(out)


def test_relation_discretize_matches_reference():
    """The same pairs as one reference call per same-rank pair, and the
    same domain gaps.  A refusal the reference makes is made here too.
    Compiled once over every abstract state, a relation with B/E symbols
    may also be refused where the reference reaches its B/E clause only
    for an abstract state of another rank; that refusal is checked
    against the reference over those states."""
    rng = random.Random(20261103)
    seen = dict.fromkeys(("pairs", "empty", "DomainGapAtGridPoint", REFUSED, "other rank"), 0)
    ends = Clause((parse_constraint("t <= E_a"),), None, None, "n")
    for _ in range(1000):
        r = _relation(rng, endpoints=rng.random() < 0.3)
        if rng.random() < 0.3:  # refused for an abstract state in mode n only
            r = TimedStateRelation(r.clauses + (ends,), r.domain)
        d1 = DiscreteTransitionSystem(_discrete_states(rng, range(3)), frozenset(), frozenset())
        abstract = _discrete_states(rng, rng.sample(range(4), rng.randint(1, 3)))
        d2 = DiscreteTransitionSystem(abstract, frozenset(), frozenset())
        extra = tuple(_discrete_states(rng, (rng.randrange(4),))) if rng.random() < 0.3 else ()
        delta = rng.choice((Q(1, 2), Q(1)))
        want = _outcome(_ref_relation_discretize, r, delta, d1, d2, extra)
        got = _outcome(relation_discretize, r, delta, d1, d2, extra)
        if got == REFUSED and want != REFUSED:
            ranks = {v.rank for v in abstract | set(extra)}
            assert any(
                _outcome(ref_state_related, r, u.rank * delta, u.state, v.state) == REFUSED
                for u in d1.states if u.rank in ranks for v in abstract | set(extra)
            ), (r, d1, d2, extra)
            seen["other rank"] += 1
            continue
        assert got == want, (r, delta, d1, d2, extra)
        seen[want if isinstance(want, str) else "pairs" if want else "empty"] += 1
    assert all(n > 10 for n in seen.values()), seen


class _RefPairs:
    """related_candidates(r, candidates)(t, s, skip) by the reference:
    iterating lists the related candidates outside skip, as (69) reads
    them, and membership asks the reference about that one pair, as (71)
    asked state_related before it read the compiled relation."""

    def __init__(self, r, candidates, t, s, skip):
        self.r, self.candidates, self.t, self.s, self.skip = r, candidates, t, s, skip

    def __iter__(self):
        return (sb for sb in self.candidates
                if sb not in self.skip and ref_state_related(self.r, self.t, self.s, sb))

    def __contains__(self, sb):
        return ref_state_related(self.r, self.t, self.s, sb)


def _ref_candidates(r, candidates):
    candidates = tuple(candidates)
    return lambda t, s, skip=frozenset(): _RefPairs(r, candidates, t, s, skip)


def _hypotheses_relation(rng):
    """A relation over u, mostly c_u = a_u + k with guards and windows,
    so that seeded systems meet every (71) case; sometimes one clause of
    _relation, so w (which no system has), k_u or B/E symbols occur."""
    clauses, modes = [], (None, None, "m", "n")
    for _ in range(rng.randint(1, 2)):
        text = rng.choice(("c_u = a_u", "c_u = a_u + 1/2", "c_u <= a_u", "c_u - a_u < t",
                           "a_u >= 0", "c_u = a_u"))
        window = None
        if rng.random() < 0.3:
            lo = Q(rng.randint(0, 4), 2)
            window = TimeInterval(lo, lo + Q(rng.randint(1, 4), 2), rng.random() < 0.5)
        clauses.append(Clause((parse_constraint(text),), window, rng.choice(modes),
                              rng.choice(modes)))
    if rng.random() < 0.3:
        clauses.extend(_relation(rng).clauses[:1])
    if rng.random() < 0.1:
        clauses.append(Clause((parse_constraint("t <= E_c"),), None, None, rng.choice(modes)))
    return TimedStateRelation(tuple(clauses))


def test_hypotheses_69_71_match_reference(monkeypatch):
    """discretization_hypotheses reports the same (68)-(71) lists as with
    the reference behind related_candidates, where (71) asks it about
    each pair alone.  A refusal the reference makes is made here too;
    with B/E symbols the compiled relation may also refuse where the
    reference's per-pair (71) calls never reach the B/E clause."""
    rng = random.Random(20261104)
    cases = []
    for _ in range(200):
        h = random_explicit(rng, max_levels=4, max_width=2, modes=("m", "n"))
        hb = h if rng.random() < 0.3 else random_explicit(rng, max_levels=4, modes=("m", "n"))
        cases.append((_hypotheses_relation(rng), h, hb, rng.choice((Q(1, 2), Q(1)))))
    got = [_outcome(discretization_hypotheses, r, h, hb, delta) for r, h, hb, delta in cases]
    monkeypatch.setattr(discretize, "related_candidates", _ref_candidates)
    want = [_outcome(discretization_hypotheses, r, h, hb, delta) for r, h, hb, delta in cases]
    seen = {"(69)": 0, "(71)": 0, "ok": 0, REFUSED: 0}
    kinds = set()
    for (r, *_), g, w in zip(cases, got, want):
        if g == REFUSED and w != REFUSED:
            assert _uses_endpoints(r)
            continue
        assert g == w, r
        if w == REFUSED:
            seen[REFUSED] += 1
            continue
        seen["ok"] += w["ok"]
        seen["(69)"] += bool(w["(69)"])
        seen["(71)"] += bool(w["(71)"])
        kinds.update(v[0] for v in w["(71)"])
    assert all(n > 5 for n in seen.values()), seen
    assert kinds == {"a", "b.1", "b.2", "b.3", "c.1", "c.2", "c.3"}, kinds


def test_hypothesis_71_refuses_a_state_off_every_abstract_grid():
    """(71) decides membership in the relation compiled over the
    abstract grid states.  An abstract successor that does not start
    where its source ends (a hand-built graph) yields a state off every
    abstract grid, which (71) refuses rather than call unrelated."""
    c = make_config("m", 0, 3, {"u": 0}, {"u": 1}, closed_hi=True)
    cb = make_config("m", 0, 2, {"u": 0}, {"u": 1})
    cb2 = make_config("m", 3, 4, {"u": 7}, {"u": 1}, closed_hi=True)
    G = ConfigGraph((c,), ((c, ()),))
    Gb = ConfigGraph((cb,), ((cb, (cb2,)), (cb2, ())))
    r = TimedStateRelation((Clause((parse_constraint("c_u = a_u"),)),))
    with pytest.raises(NonConsecutiveEdge):
        discretization_hypotheses(r, G, Gb, 1)
