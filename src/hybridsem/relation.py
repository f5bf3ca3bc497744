"""Timed state relations and their lifts to configurations, trajectories,
and semantics.

A timed relation is a finite list of clauses.  A clause has an optional
time window, optional mode guards, and a conjunction of affine
constraints over the symbols

    t                       current time
    c_<v>                   concrete variable v
    a_<v>                   abstract variable v
    B_c, E_c, B_a, E_a      interval endpoints of the enclosing
                            concrete/abstract configuration

A state pair is related at time t iff t is in dom(r) and some clause
whose window contains t and whose guards match has all constraints
satisfied.  A clause holds on a pair only where every symbol it names
(Clause.symbols, and those of its `dynamic` part) is bound: t; c_<v>
and a_<v> for a variable v that the concrete or abstract side has; on a
configuration pair B_*, and E_* only for a finite end.  A bare state
pair binds no B/E symbol, so reaching a clause that reads one or has a
`dynamic` part raises EndpointSymbolsUnbound.  Each procedure below
decides this before it evaluates a clause, so a clause naming any other
symbol never holds; the CLI refuses such a relation as bad input.  Bare
state pairs have one membership procedure, related_candidates, which
compiles r once against fixed candidate abstract states; state_related
is it with one candidate.

Window verdicts (for all, or for some, t in a window) are decided
exactly, once per pair of affine pieces, in Python integers.  Modes and
endpoints are constant on a piece pair.  The relation keeps one table,
filled on first use: per (concrete mode, abstract mode), the clauses
whose guards admit the pair and whether one of them reads B/E or has a
`dynamic` part (TimedStateRelation.admitted).  So the endpoints are
bound only for a pair that reads them.  Each admitted clause is
compiled once: it is dropped if it can never hold there, and each of
its constraints becomes integers (A, B) such that A*t + B
is a positive multiple of its left side along the two flows (each flow
caches its lines as integers, (R*t + O)/L).  Between consecutive
breakpoints (window, clause-window and domain bounds, and the roots
-B/A) every constraint keeps its truth value, so the breakpoints, one
point per cell and one past the last cut of an unbounded window decide
it (the linear-sign method for linear hybrid automata).  A window's
breakpoints are integers over one denominator D, the lcm of the bounds'
denominators and of every A, so each decision point is an integer P
standing for P/(2D), and a constraint is decided by the sign of
A*P + 2D*B: one integer multiply-add per constraint and point, and no
Fraction built (the integer-coefficient form of exact polyhedra
libraries).  A window's start is decided first, from its own numerator
and denominator, and the other points are found only past it, since
most unrelated pairs already fail there.  A window where no clause
compiles and r has no domain is decided at that first point, and
config_related gives that verdict for a plain pair whose modes admit no
clause without entering the kernel.  traj_related_rankwise decides its
for-all by an exact cover of solution spans over Fractions instead,
sharing no code with the kernel, so that comparing it with
traj_related_timewise cross-checks the kernel.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cached_property
from math import gcd, lcm
from typing import Callable, Iterable, Optional

from .affine import (
    COMPARE,
    ENDPOINT_SYMBOLS,
    AffineConstraint,
    LinExpr,
    parse_constraint,
    read_rational,
)
from .errors import EndpointSymbolsUnbound, NonOverlappingPair, ParseError
from .flow_config import PiecewiseConfiguration, State, overlapping, pieces
from .records import factory, record
from .time_core import (
    INF, NEG_INF, Q, TimeInterval, interval_intersect, is_finite, rank_range, ticks, tmin,
)

__all__ = [
    "Clause",
    "TimedStateRelation",
    "ConfigRelation",
    "state_related",
    "related_candidates",
    "config_related",
    "forall_window_related",
    "exists_window_related",
    "relation_project",
    "traj_related_timewise",
    "traj_related_rankwise",
    "traj_related_exists_counterpart",
    "sem_related",
    "compose_relations",
    "relation_from_json",
]


@record(frozen=True)
class Clause:
    constraints: tuple  # AffineConstraint
    window: Optional[TimeInterval] = None  # None = all of time
    concrete_mode: Optional[str] = None  # None = wildcard
    abstract_mode: Optional[str] = None
    # endpoint env -> extra constraints, or None when the clause cannot
    # apply for those endpoints (e.g. a coefficient would divide by zero)
    dynamic: Optional[Callable] = None

    @cached_property
    def symbols(self) -> frozenset:
        """The symbols its constraints name (not those of a `dynamic` part)."""
        return frozenset().union(*(c.symbols() for c in self.constraints))

    def uses_endpoints(self) -> bool:
        return self.dynamic is not None or not self.symbols.isdisjoint(ENDPOINT_SYMBOLS)

    def effective_constraints(self, endpoints) -> Optional[tuple]:
        """Static plus dynamically built constraints; None = inapplicable."""
        if self.dynamic is None:
            return self.constraints
        extra = self.dynamic(endpoints or {})
        if extra is None:
            return None
        return self.constraints + tuple(extra)

    def guards_match(self, cmode: str, amode: str) -> bool:
        if self.concrete_mode is not None and self.concrete_mode != cmode:
            return False
        if self.abstract_mode is not None and self.abstract_mode != amode:
            return False
        return True


@record(frozen=True)
class TimedStateRelation:
    clauses: tuple
    domain: Optional[tuple] = None  # time windows; None = total
    _by_modes: dict = factory(dict, init=False)

    def in_domain(self, t) -> bool:
        if self.domain is None:
            return True
        return any(w.contains(t) for w in self.domain)

    def admitted(self, cmode: str, amode: str) -> tuple:
        """(clauses, ends): the clauses whose guards admit the modes, in
        order, and whether one of them reads B/E or has a `dynamic` part;
        decided once per mode pair and kept on the relation."""
        entry = self._by_modes.get((cmode, amode))
        if entry is None:
            clauses = tuple(cl for cl in self.clauses if cl.guards_match(cmode, amode))
            entry = (clauses, any(cl.uses_endpoints() for cl in clauses))
            self._by_modes[cmode, amode] = entry
        return entry

    def domain_boundaries(self) -> list:
        return [b for w in self.domain or () for b in (w.lo, w.hi) if b is not INF]


@record(frozen=True)
class ConfigRelation:
    pairs: tuple  # (Configuration, Configuration), overlapping

    def __post_init__(self):
        for c, d in self.pairs:
            if interval_intersect(c.interval, d.interval) is None:
                raise NonOverlappingPair(f"{c!r} and {d!r} do not overlap")


def state_related(r: TimedStateRelation, t, s: State, sbar: State) -> bool:
    """Membership of a state pair in r(t): related_candidates with the
    one candidate sbar.  A bare state pair binds no configuration
    endpoints, so reaching a clause with B/E symbols or a `dynamic`
    part raises EndpointSymbolsUnbound; the window lifts
    (config_related and the rest) bind them from their configurations.
    """
    return bool(related_candidates(r, (sbar,))(Q(t), s))


def related_candidates(r: TimedStateRelation, candidates) -> Callable:
    """Membership in r for one state against a fixed sequence of
    candidate abstract states: at(t, s, skip) lists the candidates sb
    with (s, sb) in r(t), in candidate order, leaving out those in skip.
    A bare state pair binds no B/E symbols, so a clause using them or a
    `dynamic` part raises EndpointSymbolsUnbound as soon as it is
    reached for a candidate not in skip and not yet related.

    Each constraint's left side is split in two: the a_* terms are
    evaluated here once per candidate, and t, the c_* terms and the
    constant once per call, so a candidate costs one exact comparison
    per constraint.  Clause windows, concrete guards, dom(r) and whether
    t and the c_* of the state bind a clause's other symbols are decided
    once per call, and whether a candidate binds its a_* symbols once per
    candidate; a clause with a symbol left unbound does not hold.

    The rows of a clause with an `=` constraint are indexed by the a_*
    value of its first one, so a call reads only the rows whose value
    equals that constraint's bound, and decides those on every
    constraint; a clause without `=` reads all its rows."""
    candidates = tuple(candidates)
    compiled = []  # (clause, split or None, symbols bound per call, rows, key, {a_* value: rows})
    for clause in r.clauses:
        matching = [j for j, sb in enumerate(candidates)
                    if clause.abstract_mode is None or clause.abstract_mode == sb.mode]
        if clause.uses_endpoints():
            compiled.append((clause, None, None, [(j, None) for j in matching], None, None))
            continue
        abstract = {sym for sym in clause.symbols if sym.startswith("a_")}
        split = [  # (comparison, a_* terms, the other terms, constant)
            (COMPARE[con.op], [(sym, k) for sym, k in con.lhs.coefs if sym in abstract],
             [(sym, k) for sym, k in con.lhs.coefs if sym not in abstract], con.lhs.const)
            for con in clause.constraints
        ]
        rows = []
        for j in matching:
            env = {"a_" + k: v for k, v in candidates[j].vars}
            if env.keys() >= abstract:
                rows.append((j, tuple(
                    sum(coef * env[sym] for sym, coef in terms) for _, terms, _, _ in split
                )))
        key = next((i for i, (cmp, *_) in enumerate(split) if cmp is COMPARE["="]), None)
        index: dict = {}
        if key is not None:
            for row in rows:
                index.setdefault(row[1][key], []).append(row)
        compiled.append((clause, split, clause.symbols - abstract, rows, key, index))

    def at(t, s: State, skip=frozenset()) -> list:
        if not r.in_domain(t):
            return []
        env = {"t": t}
        env.update(("c_" + k, v) for k, v in s.vars)
        related = set()
        for clause, split, needs, rows, key, index in compiled:
            if clause.window is not None and not clause.window.contains(t):
                continue
            if clause.concrete_mode is not None and clause.concrete_mode != s.mode:
                continue
            if split is None:
                for j, _ in rows:
                    if j not in related and candidates[j] not in skip:
                        raise EndpointSymbolsUnbound(
                            "clause uses B/E symbols; a state pair binds none"
                        )
                continue
            if not env.keys() >= needs:
                continue  # a symbol the state does not bind: the clause never holds
            checks = [
                (cmp, -(const + sum(coef * env[sym] for sym, coef in rest)))
                for cmp, _, rest, const in split
            ]
            todo = rows if key is None else index.get(checks[key][1], ())
            for j, avals in todo:
                if j not in related and all(
                    cmp(a, bound) for (cmp, bound), a in zip(checks, avals)
                ):
                    related.add(j)
        hits = [candidates[j] for j in sorted(related)]
        return [sb for sb in hits if sb not in skip] if skip else hits

    return at


def _endpoint_env(c, d) -> dict:
    """B/E symbols of the two configurations.  An infinite end stays
    unbound, so a constraint using it never holds."""
    env = {}
    for name, cfg in (("c", c), ("a", d)):
        env["B_" + name] = cfg.b
        if is_finite(cfg.e):
            env["E_" + name] = cfg.e
    return env


def _compile(r: TimedStateRelation, cp, dp, endpoints) -> list:
    """The clauses of r that can hold on the piece pair cp, dp, each as
    (window, ((cmp, A, B), ...)): along the two flows the left side of a
    constraint has the sign of A*t + B, integers, and cmp compares that
    with 0 as the constraint does.  Modes are constant on a piece, so only
    the clauses r admits for them are read.  A clause holds only where
    every symbol it names is bound, so one that `dynamic` declines, or
    whose symbols (its own and its `dynamic` part's) are not all in the
    pair's table, such as a variable a side lacks or the infinite end of
    an unbounded configuration, is dropped.  `endpoints` may be empty
    when no admitted clause reads them."""
    table = None
    out = []
    for clause in r.admitted(cp.flow.mode, dp.flow.mode)[0]:
        cons = clause.constraints
        if clause.dynamic is not None:
            cons = clause.effective_constraints(endpoints)
            if cons is None:
                continue
        if table is None:
            table = {"t": (1, 0, 1)}
            table.update((k, (0, v.numerator, v.denominator)) for k, v in endpoints.items())
            table.update(("c_" + k, line) for k, line in cp.flow.int_lines)
            table.update(("a_" + k, line) for k, line in dp.flow.int_lines)
        if table.keys() >= clause.symbols and (clause.dynamic is None or all(
                sym in table for con in cons for sym, _ in con.lhs.coefs)):
            out.append((clause.window, tuple(
                (COMPARE[con.op], *_in_t(con.lhs, table)) for con in cons
            )))
    return out


def _in_t(lhs: LinExpr, table: dict) -> tuple:
    """Integers (A, B) in lowest terms with A*t + B a positive multiple
    of lhs, each symbol read from table as (R, O, L), its value being
    (R*t + O)/L; one lcm clears every denominator."""
    (cn, cd), coefs = lhs.int_terms
    terms = []
    for sym, num, den in coefs:
        R, O, L = table[sym]
        terms.append((num, den * L, R, O))
    m = lcm(cd, *[den for _, den, _, _ in terms])
    A, B = 0, cn * (m // cd)
    for num, den, R, O in terms:
        k = num * (m // den)
        A += k * R
        B += k * O
    g = gcd(A, B)
    return (A // g, B // g) if g > 1 else (A, B)


def _constraint_roots(clause, lo, hi, D) -> list:
    """Roots in (lo, hi) of the constraints of one compiled clause, each
    an integer over D, which every nonzero A divides; hi None is
    unbounded."""
    roots = (-B * (D // A) for _, A, B in clause[1] if A)
    if hi is None:
        return [t for t in roots if lo < t]
    return [t for t in roots if lo < t < hi]


def _window_points(r: TimedStateRelation, clauses, window: TimeInterval) -> tuple:
    """(D, points): the decision points of a window for the compiled
    clauses, in increasing order, each point P standing for t = P/(2D).
    They are the window ends, clause-window bounds, constraint roots and
    domain boundaries, one midpoint per cell between them, and a far
    point past every cut when the window is unbounded (beyond the last
    breakpoint all truth values are constant).  Every point lies in
    [lo, hi], so only the right end of an open window is left out.

    D is the lcm of the denominators of every bound and of every
    nonzero A, so each cut is an integer over D (a root is -B*(D//A)),
    and over 2D a cut x is 2x and the midpoint of cuts x, y is x + y."""
    lo, hi = window.lo, window.hi
    finite = is_finite(hi)
    ends = (lo, hi) if finite else (lo,)
    bounds = r.domain_boundaries()
    bounds += (b for w, _ in clauses if w is not None for b in (w.lo, w.hi) if b is not INF)
    D = lcm(*(t.denominator for t in (*ends, *bounds)),
            *(A for _, cons in clauses for _, A, _ in cons if A))
    lo_d, hi_d = ticks(lo, D), ticks(hi, D) if finite else None
    cuts = {ticks(t, D) for t in ends}
    cuts.update(x for x in (ticks(b, D) for b in bounds) if lo_d < x and (not finite or x < hi_d))
    for clause in clauses:
        cuts.update(_constraint_roots(clause, lo_d, hi_d, D))
    if not finite:
        cuts.add(max(cuts) + D)
    cuts = sorted(cuts)
    points = [2 * cuts[0]]
    for x, y in zip(cuts, cuts[1:]):
        points += (x + y, 2 * y)
    if finite and not window.closed_hi:
        points.pop()
    return D, points


def _over(w: TimeInterval, D2: int, last: int) -> range:
    """The integers P with P/D2 in w, up to `last` when w is unbounded."""
    first, end = rank_range(w, 1, D2)
    return range(first, (last if end is INF else end) + 1)


def _decisions(r: TimedStateRelation, cp, dp, window: TimeInterval, endpoints):
    """Whether the states of the plain affine configurations cp and dp
    are related, at each decision point of the window inside dom(r).

    The first point of a nonempty window is its start lo = n/d.  It is
    decided before the other points are found, each constraint by the
    sign of A*n + B*d, so a window refuted there (most unrelated pairs
    are) costs no roots, cuts or midpoints.  When no clause compiles and
    r has no domain, that first decision is the verdict: no point is
    related."""
    clauses = _compile(r, cp, dp, endpoints)
    lo = window.lo
    if window.contains(lo) and r.in_domain(lo):
        n, d = lo.numerator, lo.denominator
        yield any(
            (w is None or w.contains(lo)) and all(cmp(A * n + B * d, 0) for cmp, A, B in cons)
            for w, cons in clauses
        )
        if not clauses and r.domain is None:
            return
    D, points = _window_points(r, clauses, window)
    D2, last = 2 * D, points[-1] if points else 0
    checks = [
        (None if w is None else _over(w, D2, last),
         tuple((cmp, A, B * D2) for cmp, A, B in cons))
        for w, cons in clauses
    ]
    domain = None if r.domain is None else [_over(w, D2, last) for w in r.domain]
    for P in points[1:]:  # points[0] is lo, decided above
        if domain is None or any(P in w for w in domain):
            yield any(
                (w is None or P in w) and all(cmp(A * P + B, 0) for cmp, A, B in cons)
                for w, cons in checks
            )


def _forall_window_related(r, cp, dp, window: TimeInterval, endpoints) -> bool:
    """Exact decision of: for all t in window, states of cp/dp related by
    r (outside dom(r) nothing is required)."""
    return all(_decisions(r, cp, dp, window, endpoints))


def _plain(c, d) -> bool:
    """Neither c nor d is piecewise: they are their only piece pair."""
    return not (isinstance(c, PiecewiseConfiguration) or isinstance(d, PiecewiseConfiguration))


def _piece_windows(c, d, window: TimeInterval):
    """Piece pairs of c and d with their shared window cut to `window`."""
    w = interval_intersect(c.interval, d.interval)
    w = w and interval_intersect(w, window)
    if w is None:
        return
    if _plain(c, d):
        yield c, d, w
        return
    for cp, dp, v in overlapping(_meeting(pieces(c), w), _meeting(pieces(d), w)):
        v = interval_intersect(v, window)
        if v is not None:
            yield cp, dp, v


def _meeting(ps, w: TimeInterval) -> tuple:
    """Those of the contiguous pieces ps, in order, that meet w in their cover."""
    starts = [p.b for p in ps]
    end = (bisect_right if w.closed_hi else bisect_left)(starts, w.hi) if is_finite(w.hi) else None
    return ps[bisect_right(starts, w.lo) - 1:end]


def forall_window_related(r: TimedStateRelation, c, d, window: TimeInterval) -> bool:
    """For all t in window where both c and d are defined, their states
    are related by r (inside dom(r)).  c and d may be piecewise."""
    endpoints = _endpoint_env(c, d)
    return all(
        _forall_window_related(r, cp, dp, w, endpoints)
        for cp, dp, w in _piece_windows(c, d, window)
    )


def exists_window_related(r: TimedStateRelation, c, d, window: TimeInterval) -> bool:
    """Some t in window, in dom(r), where c and d are both defined and
    their states are related by r.  c and d may be piecewise."""
    endpoints = _endpoint_env(c, d)
    return any(
        related
        for cp, dp, w in _piece_windows(c, d, window)
        for related in _decisions(r, cp, dp, w, endpoints)
    )


def config_related(r: TimedStateRelation, c, d, overlap=None) -> bool:
    """Lift of r to configurations: overlapping intervals with related
    states throughout the overlap (intersected with dom(r)).  A caller
    that has the (nonempty) overlap of c and d passes it as `overlap`."""
    if overlap is None:
        overlap = interval_intersect(c.interval, d.interval)
        if overlap is None:
            return False
    if not _plain(c, d):
        return forall_window_related(r, c, d, overlap)
    clauses, ends = r.admitted(c.flow.mode, d.flow.mode)
    if not clauses and r.domain is None:
        return False  # the kernel's verdict on a nonempty window, without it
    return _forall_window_related(r, c, d, overlap, _endpoint_env(c, d) if ends else {})


def relation_project(R: ConfigRelation) -> Callable:
    """alpha(R): the time-indexed state relation induced by config pairs."""

    def at(t):
        t = Q(t)
        out = set()
        for c, d in R.pairs:
            if c.interval.contains(t) and d.interval.contains(t):
                out.add((c.state_at(t), d.state_at(t)))
        return frozenset(out)

    return at


def traj_related_timewise(r: TimedStateRelation, s, sb) -> bool:
    """(for all t below both durations, the states are related) decided
    exactly over the refinement of both timelines."""
    m = tmin(s.duration, sb.duration)
    if is_finite(m) and m == 0:
        return True
    bound = TimeInterval(Q(0), m, False)
    return all(
        forall_window_related(r, c, d, bound)
        for c, d, _ in overlapping(s.configs, sb.configs)
    )


def traj_related_exists_counterpart(r: TimedStateRelation, s, sb) -> bool:
    """Exists-counterpart reading of the rank condition: every
    configuration ending within the other side's duration has some
    related counterpart (config_related).  Strictly weaker than the
    pointwise form: a configuration outliving the other trajectory is
    exempt, and a pair unrelated on its overlap passes when each member
    has another partner.  The divergence is pinned in
    tests/test_relation.py::test_rankwise_strictly_weaker_pinned."""
    dur_s, dur_sb = s.duration, sb.duration
    for c in s.configs:
        if c.e <= dur_sb and not any(config_related(r, c, d) for d in sb.configs):
            return False
    for d in sb.configs:
        if d.e <= dur_s and not any(config_related(r, c, d) for c in s.configs):
            return False
    return True


# Spans for the rank form: (lo, lo_in, hi, hi_in), the set of t between
# lo and hi with each end included as flagged; lo may be NEG_INF and hi
# INF (never included).  Unlike TimeInterval, the left end may be open.
_ALL_TIME = (NEG_INF, False, INF, False)


def _span(lo, lo_in, hi, hi_in):
    """The span, or None when it is empty."""
    if lo > hi or (lo == hi and not (lo_in and hi_in)):
        return None
    return (lo, lo_in, hi, hi_in)


def _interval_span(w: TimeInterval):
    return _span(w.lo, True, w.hi, w.closed_hi)


def _span_meet(x, y):
    """x and y, either of which may be None (empty)."""
    if x is None or y is None:
        return None
    (xlo, xlo_in, xhi, xhi_in), (ylo, ylo_in, yhi, yhi_in) = x, y
    lo, lo_in = (xlo, xlo_in) if xlo > ylo else (ylo, ylo_in)
    if xlo == ylo:
        lo_in = xlo_in and ylo_in
    hi, hi_in = (xhi, xhi_in) if xhi < yhi else (yhi, yhi_in)
    if xhi == yhi:
        hi_in = xhi_in and yhi_in
    return _span(lo, lo_in, hi, hi_in)


def _span_minus(x, y) -> list:
    """x without y: the parts of x left and right of y."""
    ylo, ylo_in, yhi, yhi_in = y
    left = _span_meet(x, (NEG_INF, False, ylo, not ylo_in)) if is_finite(ylo) else None
    right = _span_meet(x, (yhi, not yhi_in, INF, False)) if is_finite(yhi) else None
    return [p for p in (left, right) if p is not None]


def _affine_solutions(con: AffineConstraint, a, b) -> list:
    """Spans of the t with a*t + b satisfying con's comparison with 0."""
    if a == 0:
        return [_ALL_TIME] if con.check_value(b) else []
    root = -b / a
    # a*t + b has the sign of -a below the root and of a above it
    parts = (
        _span(NEG_INF, False, root, False) if con.check_value(-a) else None,
        _span(root, True, root, True) if con.check_value(Q(0)) else None,
        _span(root, False, INF, False) if con.check_value(a) else None,
    )
    return [p for p in parts if p is not None]


def _clause_spans(clause: Clause, cp, dp, endpoints) -> list:
    """Spans of the t at which clause holds for the states of the plain
    affine configurations cp and dp (their flows extended past their
    intervals).  Along the two flows each constraint's left side is
    affine in t, so its values at t = 0 and t = 1 give it exactly."""
    if not clause.guards_match(cp.flow.mode, dp.flow.mode):
        return []
    cons = clause.effective_constraints(endpoints)
    if cons is None:
        return []
    window = _ALL_TIME if clause.window is None else _interval_span(clause.window)
    spans = [] if window is None else [window]
    envs = [
        {"t": t, **endpoints,
         **{"c_" + k: v for k, v in cp.flow.state_at(t).vars},
         **{"a_" + k: v for k, v in dp.flow.state_at(t).vars}}
        for t in (Q(0), Q(1))
    ]
    for con in cons:
        if not con.symbols() <= envs[0].keys():
            return []  # a symbol this pair does not bind: the clause never holds
        g0, g1 = (con.lhs.eval(env) for env in envs)
        sols = _affine_solutions(con, g1 - g0, g0)
        spans = [m for x in spans for y in sols if (m := _span_meet(x, y)) is not None]
    return spans


def traj_related_rankwise(r: TimedStateRelation, s, sb) -> bool:
    """Equivalent rank-based definition: for every pair of ranks (i, j),
    the states of s.configs[i] and sb.configs[j] are related (inside
    dom(r)) throughout the part of their overlap below both durations.

    Equivalence with traj_related_timewise: the configurations of a
    trajectory partition [0, duration), so each t below both durations
    lies in exactly one configuration of each side, and the rank pairs
    cover [0, min duration) exactly.  The cut is right-open, so the
    common end itself is not required, and an empty cut (min duration
    0) holds vacuously.

    Decided by an exact cover of spans, independently of the sampling
    kernel behind traj_related_timewise: on each piece pair, the part of
    the cut overlap inside dom(r), less the spans where some clause
    holds, must be empty."""
    common = _span(Q(0), True, tmin(s.duration, sb.duration), False)
    for c in s.configs:
        for d in sb.configs:
            endpoints = _endpoint_env(c, d)
            for cp in pieces(c):
                for dp in pieces(d):
                    need = _span_meet(common, _interval_span(cp.interval))
                    need = _span_meet(need, _interval_span(dp.interval))
                    if need is None:
                        continue
                    if r.domain is None:
                        left = [need]
                    else:
                        left = [m for w in r.domain if (m := _span_meet(need, _interval_span(w)))]
                    for clause in r.clauses:
                        for y in _clause_spans(clause, cp, dp, endpoints):
                            left = [p for x in left for p in _span_minus(x, y)]
                    if left:
                        return False
    return True


def sem_related(related: Callable, T: Iterable, Tb: Iterable):
    """(37): every member of T has a related member of Tb.

    Returns (verdict, witness map, unmatched list)."""
    Tb = list(Tb)
    witnesses = {}
    unmatched = []
    for s in T:
        found = None
        for sb in Tb:
            if related(s, sb):
                found = sb
                break
        if found is None:
            unmatched.append(s)
        else:
            witnesses[s] = found
    return (not unmatched, witnesses, unmatched)


def compose_relations(r1: TimedStateRelation, r2: TimedStateRelation):
    """Pointwise relational composition as a membership predicate.

    (r1 o r2)(t) relates s to s'' iff some intermediate state s'
    satisfies r1(t)(s, s') and r2(t)(s', s'').  The intermediate is
    supplied by the caller (a witness trajectory), so the result is a
    function of (t, s, mid, s'') rather than a clause list.
    """

    def member(t, s, mid, sbb):
        return state_related(r1, t, s, mid) and state_related(r2, t, mid, sbb)

    return member


def _typed(value, kind, where: str):
    """value, which must be a `kind`: dict, list, str or bool."""
    if not isinstance(value, kind):
        what = {dict: "an object", list: "a list", str: "a string", bool: "true or false"}[kind]
        raise ParseError(f"{where}: expected {what}, not {value!r}")
    return value


def _strings(value, where: str) -> list:
    return [_typed(v, str, where) for v in _typed(value, list, where)]


def _known_keys(doc, keys, where: str, required=()) -> dict:
    """doc, an object with no key outside keys and each key of required."""
    unknown = sorted(set(_typed(doc, dict, where)) - set(keys))
    if unknown:
        raise ParseError(f"{where}: unknown key(s) {', '.join(unknown)}")
    missing = [k for k in required if k not in doc]
    if missing:
        raise ParseError(f"{where}: missing key(s) {', '.join(missing)}")
    return doc


def _window_from_json(w, where: str) -> TimeInterval:
    hi = _known_keys(w, ("lo", "hi", "closed_hi"), where, ("lo",)).get("hi", "inf")
    lo, closed = read_rational(w["lo"], where), _typed(w.get("closed_hi", False), bool, where)
    window = TimeInterval(lo, INF if hi in ("inf", None) else read_rational(hi, where), closed)
    if closed and window.hi is INF:
        raise ParseError(f"{where}: an unbounded window has no closed end")
    if not window.contains(window.lo):
        raise ParseError(f"{where}: empty window")
    return window


def _guard(value, where: str) -> Optional[str]:
    """A mode guard: a mode name, or None (null) for every mode."""
    return None if value is None else _typed(value, str, where)


def relation_from_json(doc: dict) -> TimedStateRelation:
    """The relation of a relation file.  A key it does not know is a
    ParseError, since a misspelt guard would match every mode, and so is
    a missing required key, a value of the wrong JSON type, and an empty
    window or domain, which would let a check pass vacuously."""
    clauses = []
    doc = _known_keys(doc, ("clauses", "domain"), "relation", ("clauses",))
    for i, cl in enumerate(_typed(doc["clauses"], list, "relation clauses")):
        where = f"clause {i}"
        _known_keys(cl, ("constraints", "window", "concrete_mode", "abstract_mode"), where)
        constraints = _strings(cl.get("constraints", []), f"{where} constraints")
        clauses.append(
            Clause(
                tuple(parse_constraint(c) for c in constraints),
                _window_from_json(cl["window"], f"{where} window") if "window" in cl else None,
                _guard(cl.get("concrete_mode"), f"{where} concrete_mode"),
                _guard(cl.get("abstract_mode"), f"{where} abstract_mode"),
            )
        )
    domain = None
    if "domain" in doc:
        domain = tuple(_window_from_json(w, "domain window")
                       for w in _typed(doc["domain"], list, "relation domain"))
        if not domain:
            raise ParseError("relation: empty domain")
    return TimedStateRelation(tuple(clauses), domain)
