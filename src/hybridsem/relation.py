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

A state pair is related at time t iff some clause whose window contains
t and whose guards match has all constraints satisfied.

All for-all-over-an-interval verdicts are decided exactly: with affine
flows substituted, every constraint is affine in t, so the time axis is
refined at all constraint roots and window/piece boundaries; between
consecutive breakpoints every constraint has a constant truth value, so
checking each breakpoint and one interior rational point per cell is a
complete decision procedure.  The same points decide the existential
form ("related at some t in the window").  traj_related_rankwise decides
its for-all by an exact cover of solution spans instead, so that
comparing it with traj_related_timewise cross-checks this procedure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .affine import ENDPOINT_SYMBOLS, AffineConstraint, LinExpr, parse_constraint
from .errors import EndpointSymbolsUnbound, NonOverlappingPair
from .flow_config import Configuration, State, overlapping, pieces
from .time_core import INF, NEG_INF, Q, TimeInterval, interval_intersect, is_finite

__all__ = [
    "Clause",
    "TimedStateRelation",
    "ConfigRelation",
    "state_related",
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


@dataclass(frozen=True)
class Clause:
    constraints: tuple  # AffineConstraint
    window: Optional[TimeInterval] = None  # None = all of time
    concrete_mode: Optional[str] = None  # None = wildcard
    abstract_mode: Optional[str] = None
    # endpoint env -> extra constraints, or None when the clause cannot
    # apply for those endpoints (e.g. a coefficient would divide by zero)
    dynamic: Optional[Callable] = None

    def uses_endpoints(self) -> bool:
        if self.dynamic is not None:
            return True
        syms = set()
        for c in self.constraints:
            syms |= c.symbols()
        return any(s in syms for s in ENDPOINT_SYMBOLS)

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


@dataclass(frozen=True)
class TimedStateRelation:
    clauses: tuple
    domain: Optional[tuple] = None  # time windows; None = total

    def in_domain(self, t) -> bool:
        if self.domain is None:
            return True
        return any(w.contains(t) for w in self.domain)

    def domain_boundaries(self) -> list:
        if self.domain is None:
            return []
        out = []
        for w in self.domain:
            out.append(w.lo)
            if is_finite(w.hi):
                out.append(w.hi)
        return out


@dataclass(frozen=True)
class ConfigRelation:
    pairs: tuple  # (Configuration, Configuration), overlapping

    def __post_init__(self):
        for c, d in self.pairs:
            if interval_intersect(c.interval, d.interval) is None:
                raise NonOverlappingPair(f"{c!r} and {d!r} do not overlap")


def _state_env(t, s: State, sbar: State, endpoints: Optional[dict]) -> dict:
    env = {"t": Q(t)}
    for k, v in s.vars:
        env["c_" + k] = v
    for k, v in sbar.vars:
        env["a_" + k] = v
    if endpoints:
        env.update(endpoints)
    return env


def state_related(
    r: TimedStateRelation,
    t,
    s: State,
    sbar: State,
    endpoints: Optional[dict] = None,
    catalog: Optional[Iterable] = None,
) -> bool:
    """Membership of a state pair in r(t).

    Clauses with endpoint symbols need configuration context: either an
    explicit `endpoints` binding, or a `catalog` of configuration pairs
    from which any pair containing t with matching states may bind them
    (the existential reading).
    """
    if not r.in_domain(t):
        return False
    for clause in r.clauses:
        if clause.window is not None and not clause.window.contains(t):
            continue
        if not clause.guards_match(s.mode, sbar.mode):
            continue
        if clause.uses_endpoints() and endpoints is None:
            if catalog is None:
                raise EndpointSymbolsUnbound(
                    "clause uses B/E symbols; supply endpoints or a catalog"
                )
            for c, d in catalog:
                if not (c.interval.contains(t) and d.interval.contains(t)):
                    continue
                if c.state_at(t) != s or d.state_at(t) != sbar:
                    continue
                if not (is_finite(c.e) and is_finite(d.e)):
                    continue
                eps = _endpoint_env(c, d)
                cons = clause.effective_constraints(eps)
                if cons is None:
                    continue
                env = _state_env(t, s, sbar, eps)
                if all(con.holds(env) for con in cons):
                    return True
            continue
        cons = clause.effective_constraints(endpoints)
        if cons is None:
            continue
        env = _state_env(t, s, sbar, endpoints)
        try:
            if all(con.holds(env) for con in cons):
                return True
        except KeyError:
            continue  # clause mentions a symbol this pair cannot bind
    return False


def _endpoint_env(c, d) -> dict:
    """B/E symbols of the two configurations.  An infinite end stays
    unbound, so a constraint using it never holds."""
    env = {}
    for name, cfg in (("c", c), ("a", d)):
        env["B_" + name] = cfg.b
        if is_finite(cfg.e):
            env["E_" + name] = cfg.e
    return env


def _clause_holds_at(clause: Clause, t, cp: Configuration, dp: Configuration, endpoints) -> bool:
    if clause.window is not None and not clause.window.contains(t):
        return False
    s, sbar = cp.flow.state_at(t), dp.flow.state_at(t)
    if not clause.guards_match(s.mode, sbar.mode):
        return False
    cons = clause.effective_constraints(endpoints)
    if cons is None:
        return False
    env = _state_env(t, s, sbar, endpoints)
    try:
        return all(con.holds(env) for con in cons)
    except KeyError:
        return False


def _flow_exprs(cp: Configuration, prefix: str) -> dict:
    """Variable symbols of one side as affine expressions of t."""
    out = {}
    rates = dict(cp.flow.rate)
    for name, init in cp.flow.initial:
        rate = rates[name]
        out[prefix + name] = LinExpr.make({"t": rate}, init - rate * cp.flow.anchor)
    return out


def _constraint_roots(clause: Clause, cp, dp, endpoints, lo, hi) -> list:
    """Roots in (lo, hi) of the clause's constraints as functions of t."""
    subst = {}
    subst.update(_flow_exprs(cp, "c_"))
    subst.update(_flow_exprs(dp, "a_"))
    if endpoints:
        subst.update(endpoints)
    cons = clause.effective_constraints(endpoints)
    if cons is None:
        return []
    roots = []
    for con in cons:
        g = con.lhs.subst(subst)
        extra = g.symbols() - {"t"}
        if extra:
            continue  # unbound symbol; clause will fail pointwise anyway
        coef = dict(g.coefs).get("t", Q(0))
        if coef == 0:
            continue
        root = -g.const / coef
        if lo < root < hi:
            roots.append(root)
    return roots


def _window_points(r: TimedStateRelation, cp, dp, window: TimeInterval, endpoints) -> list:
    """The decision points of a window, in increasing order: the window
    ends, clause-window bounds, constraint roots and domain boundaries,
    one midpoint per cell between them, and a far point past every cut
    when the window is unbounded (beyond the last breakpoint all truth
    values are constant).  Only points inside the window are returned.

    cp and dp must be plain affine configurations whose intervals cover
    the window.
    """
    lo, hi = window.lo, window.hi
    cuts = {lo}
    if is_finite(hi):
        cuts.add(hi)
    for clause in r.clauses:
        if clause.window is not None:
            for bnd in (clause.window.lo, clause.window.hi):
                if is_finite(bnd) and lo < bnd < hi:
                    cuts.add(bnd)
        cuts.update(_constraint_roots(clause, cp, dp, endpoints, lo, hi))
    for bnd in r.domain_boundaries():
        if lo < bnd < hi:
            cuts.add(bnd)
    if not is_finite(hi):
        cuts.add(max(cuts) + 1)
    cuts = sorted(cuts)
    points = [cuts[0]]
    for a, b in zip(cuts, cuts[1:]):
        points += [(a + b) / 2, b]
    return [t for t in points if window.contains(t)]


def _related_at(r: TimedStateRelation, t, cp, dp, endpoints) -> bool:
    return any(_clause_holds_at(cl, t, cp, dp, endpoints) for cl in r.clauses)


def _forall_window_related(
    r: TimedStateRelation, cp, dp, window: TimeInterval, endpoints
) -> bool:
    """Exact decision of: for all t in window, states of cp/dp related by
    r (outside dom(r) nothing is required)."""
    return all(
        not r.in_domain(t) or _related_at(r, t, cp, dp, endpoints)
        for t in _window_points(r, cp, dp, window, endpoints)
    )


def _piece_windows(c, d, window: TimeInterval):
    """Piece pairs of c and d with their shared window cut to `window`."""
    for cp, dp, w in overlapping(pieces(c), pieces(d)):
        w = interval_intersect(w, window)
        if w is not None:
            yield cp, dp, w


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
        r.in_domain(t) and _related_at(r, t, cp, dp, endpoints)
        for cp, dp, w in _piece_windows(c, d, window)
        for t in _window_points(r, cp, dp, w, endpoints)
    )


def config_related(r: TimedStateRelation, c, d) -> bool:
    """Lift of r to configurations: overlapping intervals with related
    states throughout the overlap (intersected with dom(r))."""
    overlap = interval_intersect(c.interval, d.interval)
    return overlap is not None and forall_window_related(r, c, d, overlap)


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


def _min_duration(s, sb):
    a, b = s.duration, sb.duration
    return a if a <= b else b


def traj_related_timewise(r: TimedStateRelation, s, sb) -> bool:
    """(for all t below both durations, the states are related) decided
    exactly over the refinement of both timelines."""
    m = _min_duration(s, sb)
    if is_finite(m) and m == 0:
        return True
    bound = TimeInterval(Q(0), m, False) if is_finite(m) else TimeInterval(Q(0), INF, False)
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
    for con in cons:
        try:
            g0, g1 = (
                con.lhs.eval(_state_env(t, cp.flow.state_at(t), dp.flow.state_at(t), endpoints))
                for t in (Q(0), Q(1))
            )
        except KeyError:
            return []  # a symbol this pair cannot bind: the clause never holds
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
    holds, must be empty.  Endpoints that are infinite stay unbound, so
    a constraint using them never holds."""
    common = _span(Q(0), True, _min_duration(s, sb), False)
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

    def member(t, s, mid, sbb, endpoints1=None, endpoints2=None):
        return state_related(r1, t, s, mid, endpoints=endpoints1) and state_related(
            r2, t, mid, sbb, endpoints=endpoints2
        )

    return member


def relation_from_json(doc: dict) -> TimedStateRelation:
    clauses = []
    for cl in doc["clauses"]:
        window = None
        if "window" in cl:
            w = cl["window"]
            hi = w.get("hi", "inf")
            window = TimeInterval(
                Q(w["lo"]),
                INF if hi in ("inf", None) else Q(hi),
                bool(w.get("closed_hi", False)),
            )
        clauses.append(
            Clause(
                tuple(parse_constraint(c) for c in cl.get("constraints", [])),
                window,
                cl.get("concrete_mode"),
                cl.get("abstract_mode"),
            )
        )
    domain = None
    if "domain" in doc:
        domain = tuple(
            TimeInterval(
                Q(w["lo"]),
                INF if w.get("hi", "inf") in ("inf", None) else Q(w["hi"]),
                bool(w.get("closed_hi", False)),
            )
            for w in doc["domain"]
        )
    return TimedStateRelation(tuple(clauses), domain)
