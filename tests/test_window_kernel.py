"""The integer window kernel against the Fraction kernel it replaced.

The reference below is the earlier kernel, kept verbatim apart from its
names: each constraint compiled to a*t + b in Fractions, cuts and
midpoints as Fractions, and one Fraction multiply-add per constraint and
point.  The integer kernel must give the same decision points, the same
per-point decisions and the same verdicts on every seeded piece pair, and
build no Fraction while it decides."""

import fractions
import random
import sys
from fractions import Fraction as Q

from hybridsem import relation
from hybridsem.affine import AffineConstraint, LinExpr
from hybridsem.flow_config import make_config
from hybridsem.relation import (
    Clause,
    TimedStateRelation,
    _decisions,
    _endpoint_env,
    _window_points,
    config_related,
)
from hybridsem.time_core import INF, TimeInterval, is_finite

from conftest import compile_clauses


# --- the reference Fraction kernel ------------------------------------------


def _ref_compile(r, cp, dp, endpoints) -> list:
    table = None
    out = []
    for clause in r.clauses:
        if not clause.guards_match(cp.flow.mode, dp.flow.mode):
            continue
        cons = clause.effective_constraints(endpoints)
        if cons is None:
            continue
        if table is None:
            table = {"t": (1, 0)}
            table.update((k, (0, v)) for k, v in endpoints.items())
            table.update(("c_" + k, line) for k, line in cp.flow.lines)
            table.update(("a_" + k, line) for k, line in dp.flow.lines)
        try:
            out.append((clause.window, tuple((con, *_ref_in_t(con.lhs, table)) for con in cons)))
        except KeyError:
            continue
    return out


def _ref_in_t(lhs, table) -> tuple:
    a, b = 0, lhs.const
    for sym, coef in lhs.coefs:
        rate, offset = table[sym]
        a, b = a + coef * rate, b + coef * offset
    return a, b


def _ref_constraint_roots(clause, lo, hi) -> list:
    roots = (-b / a for _, a, b in clause[1] if a)
    return [t for t in roots if lo < t < hi]


def _ref_window_points(r, clauses, window) -> list:
    lo, hi = window.lo, window.hi
    cuts = {lo}
    if is_finite(hi):
        cuts.add(hi)
    for clause in clauses:
        if clause[0] is not None:
            for bnd in (clause[0].lo, clause[0].hi):
                if is_finite(bnd) and lo < bnd < hi:
                    cuts.add(bnd)
        cuts.update(_ref_constraint_roots(clause, lo, hi))
    for bnd in r.domain_boundaries():
        if lo < bnd < hi:
            cuts.add(bnd)
    if not is_finite(hi):
        cuts.add(max(cuts) + 1)
    cuts = sorted(cuts)
    points = [cuts[0]]
    for a, b in zip(cuts, cuts[1:]):
        points += [(a + b) / 2, b]
    if is_finite(hi) and not window.closed_hi:
        points.pop()
    return points


def _ref_decisions(r, cp, dp, window, endpoints):
    clauses = _ref_compile(r, cp, dp, endpoints)
    for t in _ref_window_points(r, clauses, window):
        if r.in_domain(t):
            yield any(
                (w is None or w.contains(t))
                and all(con.check_value(a * t + b) for con, a, b in cons)
                for w, cons in clauses
            )


# --- seeded piece pairs -----------------------------------------------------

# coprime denominators up to 1/97, so that one window's D mixes many primes
DENS = (1, 2, 3, 4, 5, 7, 11, 13, 16, 89, 97)


def _q(rng, lo=-3, hi=3):
    d = rng.choice(DENS)
    return Q(rng.randint(lo * d, hi * d), d)


def _piece(rng, unbounded):
    """A plain configuration in mode m or n with u, and w only sometimes,
    so that a clause naming w may find it missing on one side; rates may
    be negative."""
    lo = abs(_q(rng, 0, 3))
    hi = INF if unbounded else lo + abs(_q(rng, 0, 3)) + Q(1, rng.choice(DENS))
    names = ("u", "w") if rng.random() < 0.7 else ("u",)
    return make_config(
        rng.choice(("m", "n")), lo, hi,
        {v: _q(rng) for v in names}, {v: _q(rng, -2, 2) for v in names},
        closed_hi=not unbounded and rng.random() < 0.5,
    )


SYMBOLS = ("c_u", "c_w", "a_u", "a_w", "t", "B_c", "E_c", "B_a", "E_a")


def _constraint(rng):
    syms = rng.sample(SYMBOLS, rng.randint(1, 3))
    coefs = {s: _q(rng, -2, 2) or Q(1, rng.choice(DENS)) for s in syms}
    return AffineConstraint(LinExpr.make(coefs, _q(rng)), rng.choice(("=", "<=", ">=", "<", ">")))


def _shifted_start(k):
    """A `dynamic` part reading B_c: t >= B_c + k."""
    return lambda ep: (AffineConstraint(LinExpr.make({"t": 1}, -ep["B_c"] - k), ">="),)


def _below_end(k):
    """A `dynamic` part that declines an unbounded concrete side, as the
    tank relations do: t <= E_c - k, or None without E_c."""
    def extra(ep):
        if "E_c" not in ep:
            return None
        return (AffineConstraint(LinExpr.make({"t": 1}, k - ep["E_c"]), "<="),)
    return extra


def _window(rng, required=False):
    lo = abs(_q(rng, 0, 4))
    if not required and rng.random() < 0.2:
        return TimeInterval(lo, INF)
    hi = lo + abs(_q(rng, 0, 3))
    return TimeInterval(lo, hi, hi == lo or rng.random() < 0.5)


def _relation(rng):
    clauses = []
    for _ in range(rng.randint(1, 3)):
        dynamic = None
        roll = rng.random()
        if roll < 0.1:
            dynamic = (lambda ep: None)
        elif roll < 0.2:
            dynamic = _shifted_start(_q(rng, 0, 2))
        elif roll < 0.3:
            dynamic = _below_end(_q(rng, 0, 2))
        clauses.append(Clause(
            tuple(_constraint(rng) for _ in range(rng.randint(0, 2))),
            _window(rng, required=True) if rng.random() < 0.3 else None,
            rng.choice((None, None, "m", "n")),
            rng.choice((None, None, "m", "n")),
            dynamic,
        ))
    domain = None
    if rng.random() < 0.3:
        domain = tuple(_window(rng) for _ in range(rng.randint(1, 2)))
    return TimedStateRelation(tuple(clauses), domain)


def _query_window(rng, cp, dp, shape):
    lo = max(cp.b, dp.b) + abs(_q(rng, 0, 1))
    if shape == "unbounded":
        return TimeInterval(lo, INF)
    if shape == "point":
        return TimeInterval(lo, lo, True)
    return TimeInterval(lo, lo + abs(_q(rng, 0, 3)) + Q(1, 97), shape == "closed")


def test_integer_kernel_matches_fraction_kernel():
    """Over seeded piece pairs the integer kernel compiles each constraint
    to a positive multiple of the Fraction one, and gives the same
    decision points (compared as Fractions), the same decision at each
    point and the same verdicts.  Only when no clause compiles and r has
    no domain does it stop at the first point, with False."""
    rng = random.Random(1097)
    seen = {"early": 0, "declined": 0, "missing": 0, "unbounded E": 0, "domain": 0}
    shapes, verdicts = set(), []
    for _ in range(1500):
        r = _relation(rng)
        cp, dp = _piece(rng, rng.random() < 0.2), _piece(rng, rng.random() < 0.2)
        endpoints = _endpoint_env(cp, dp)
        shape = rng.choice(("open", "closed", "point", "unbounded"))
        window = _query_window(rng, cp, dp, shape)
        ref_clauses = _ref_compile(r, cp, dp, endpoints)
        clauses = compile_clauses(r, cp, dp, endpoints)
        assert len(clauses) == len(ref_clauses)
        for (w, cons), (ref_w, ref_cons) in zip(clauses, ref_clauses):
            assert w == ref_w
            for (cmp, A, B), (con, a, b) in zip(cons, ref_cons, strict=True):
                assert isinstance(A, int) and isinstance(B, int)
                assert A * b == B * a and (A > 0) == (a > 0) and (B > 0) == (b > 0)
                assert all(cmp(v, 0) == con.check_value(v) for v in (-1, 0, 1))
        D, points = _window_points(r, clauses, window)
        assert all(isinstance(P, int) for P in points)
        assert [Q(P, 2 * D) for P in points] == _ref_window_points(r, ref_clauses, window)
        want = list(_ref_decisions(r, cp, dp, window, endpoints))
        got = list(_decisions(r, cp, dp, window, endpoints))
        if not clauses and r.domain is None:
            assert got == [False] and not any(want)
            seen["early"] += 1
        else:
            assert got == want, (r, cp, dp, window)
        assert all(got) == all(want) and any(got) == any(want)
        shapes.add(shape)
        verdicts.append(all(want))
        seen["declined"] += any(cl.effective_constraints(endpoints) is None for cl in r.clauses)
        seen["missing"] += {v for v, _ in cp.flow.lines} != {v for v, _ in dp.flow.lines}
        seen["unbounded E"] += not is_finite(cp.e) or not is_finite(dp.e)
        seen["domain"] += r.domain is not None
    assert shapes == {"open", "closed", "point", "unbounded"}
    assert all(n > 20 for n in seen.values()), seen
    assert verdicts.count(True) > 50 and verdicts.count(False) > 50


# --- no Fraction inside the kernel -------------------------------------------


def _fractions_built_under(codes, fn) -> int:
    """Fraction constructions made while fn runs with a frame of one of
    the code objects `codes` on the stack."""
    built = 0

    def profile(frame, event, arg):
        nonlocal built
        code = frame.f_code
        if event != "call" or code.co_filename != fractions.__file__:
            return
        if code.co_name not in ("__new__", "_from_coprime_ints"):
            return
        f = frame.f_back
        while f is not None:
            if f.f_code in codes:
                built += 1
                return
            f = f.f_back

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return built


def _fixed_pair():
    """A non-`dynamic` relation with clause windows, a domain, endpoint
    symbols and coprime denominators, and fresh configurations (no
    per-flow cache filled yet) that it relates on part of the overlap."""
    c = make_config("m", Q(1, 3), Q(22, 7), {"u": Q(-5, 11), "w": Q(2, 97)},
                    {"u": Q(3, 4), "w": Q(-7, 5)}, closed_hi=True)
    d = make_config("m", Q(1, 2), Q(13, 4), {"u": Q(1, 13)}, {"u": Q(-2, 3)})
    r = TimedStateRelation(
        (
            Clause((AffineConstraint(LinExpr.make({"c_u": 1, "a_u": -1, "t": Q(-1, 3)},
                                                  Q(1, 89)), "<="),),
                   TimeInterval(Q(1, 2), Q(3), False)),
            Clause((AffineConstraint(LinExpr.make({"c_w": Q(2, 5), "E_a": 1, "B_c": -1}), ">"),
                    AffineConstraint(LinExpr.make({"a_u": 3, "t": 1}, Q(-7, 2)), "<"))),
        ),
        (TimeInterval(Q(1, 3), Q(5, 2), True), TimeInterval(Q(11, 4), INF)),
    )
    return r, c, d


def test_kernel_builds_no_fraction():
    """config_related on a fixed non-`dynamic` pair builds no Fraction in
    _resolve, _in_pair, _start, _normalized, _window_points or _decisions; the Fraction kernel on the same pair shows that the count
    sees constructions there."""
    r, c, d = _fixed_pair()
    kernel = {f.__code__ for f in (relation._resolve, relation._in_pair, relation._start,
                                   relation._normalized, relation._window_points,
                                   relation._decisions)}
    assert _fractions_built_under(kernel, lambda: config_related(r, c, d)) == 0
    r, c, d = _fixed_pair()
    reference = {f.__code__ for f in (_ref_compile, _ref_window_points, _ref_decisions)}
    window = TimeInterval(Q(1, 2), Q(22, 7), True)
    built = _fractions_built_under(
        reference, lambda: all(_ref_decisions(r, c, d, window, _endpoint_env(c, d))))
    assert built > 0
    assert config_related(r, c, d) == all(_ref_decisions(r, c, d, window, _endpoint_env(c, d)))
