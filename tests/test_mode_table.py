"""The window lifts through the per-mode-pair clause table against the
path they had before it.

The reference below is the earlier path, kept verbatim apart from its
names: _compile checks every clause's guards on every piece pair,
config_related builds the endpoint environment for every pair and sends
every window through the kernel, and the piece pairs of piecewise
configurations come from the earlier Fraction overlap sweep, and each
constraint is brought to lowest terms over one lcm (ref_in_t).  The
integer helpers the kernel shares with it (_window_points, _over) are
tested against a Fraction kernel in tests/test_window_kernel.py.

On seeded relations (wildcard and mode guards on either side, guards no
configuration meets, B/E symbols, `dynamic` parts, domains) and seeded
plain and piecewise configurations whose pieces change mode, the table
path must give the reference's compiled clauses and the reference's
verdicts for config_related, forall_window_related and
exists_window_related, on open, closed, unbounded and point windows
inside a domain, outside it and across its bounds."""

import random
from fractions import Fraction as Q
from math import gcd, lcm

import pytest

from hybridsem import relation
from hybridsem.affine import COMPARE, AffineConstraint, LinExpr
from hybridsem.flow_config import config_concat, make_config, pieces
from hybridsem.relation import (
    Clause,
    TimedStateRelation,
    _over,
    _plain,
    _window_points,
    config_related,
    exists_window_related,
    forall_window_related,
)
from hybridsem.time_core import INF, TimeInterval, interval_intersect, is_finite

from conftest import compile_clauses


# --- the reference path -------------------------------------------------------


def ref_overlapping(xs, ys) -> list:
    sides = (list(xs), list(ys))
    starts = sorted(
        (item.interval.lo, side, k)
        for side, items in enumerate(sides)
        for k, item in enumerate(items)
    )
    active = ([], [])  # indices per side whose interval may still meet a later start
    found = []
    for t, side, k in starts:
        other = sides[1 - side]
        waiting = active[1 - side]
        waiting[:] = [m for m in waiting if not other[m].interval.hi < t]
        for m in waiting:
            i, j = (k, m) if side == 0 else (m, k)
            w = interval_intersect(sides[0][i].interval, sides[1][j].interval)
            if w is not None:
                found.append((i, j, w))
        active[side].append(k)
    found.sort(key=lambda f: f[:2])
    return [(sides[0][i], sides[1][j], w) for i, j, w in found]


def ref_endpoint_env(c, d) -> dict:
    env = {}
    for name, cfg in (("c", c), ("a", d)):
        env["B_" + name] = cfg.b
        if is_finite(cfg.e):
            env["E_" + name] = cfg.e
    return env


def ref_in_t(lhs, table) -> tuple:
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


def ref_compile(r, cp, dp, endpoints) -> list:
    table = None
    out = []
    for clause in r.clauses:
        if not clause.guards_match(cp.flow.mode, dp.flow.mode):
            continue
        cons = clause.effective_constraints(endpoints)
        if cons is None:
            continue
        if table is None:
            table = {"t": (1, 0, 1)}
            table.update((k, (0, v.numerator, v.denominator)) for k, v in endpoints.items())
            table.update(("c_" + k, line) for k, line in cp.flow.int_lines)
            table.update(("a_" + k, line) for k, line in dp.flow.int_lines)
        try:
            out.append((clause.window, tuple(
                (COMPARE[con.op], *ref_in_t(con.lhs, table)) for con in cons
            )))
        except KeyError:
            continue
    return out


def ref_decisions(r, cp, dp, window, endpoints):
    clauses = ref_compile(r, cp, dp, endpoints)
    if not clauses and r.domain is None and window.contains(window.lo):
        yield False
        return
    D, points = _window_points(r, clauses, window)
    D2, last = 2 * D, points[-1] if points else 0
    checks = [
        (None if w is None else _over(w, D2, last),
         tuple((cmp, A, B * D2) for cmp, A, B in cons))
        for w, cons in clauses
    ]
    domain = None if r.domain is None else [_over(w, D2, last) for w in r.domain]
    for P in points:
        if domain is None or any(P in w for w in domain):
            yield any(
                (w is None or P in w) and all(cmp(A * P + B, 0) for cmp, A, B in cons)
                for w, cons in checks
            )


def ref_forall_window_related_pieces(r, cp, dp, window, endpoints) -> bool:
    return all(ref_decisions(r, cp, dp, window, endpoints))


def ref_piece_windows(c, d, window):
    if _plain(c, d):
        w = interval_intersect(c.interval, d.interval)
        if w is not None:
            w = interval_intersect(w, window)
        if w is not None:
            yield c, d, w
        return
    for cp, dp, w in ref_overlapping(pieces(c), pieces(d)):
        w = interval_intersect(w, window)
        if w is not None:
            yield cp, dp, w


def ref_forall_window_related(r, c, d, window) -> bool:
    endpoints = ref_endpoint_env(c, d)
    return all(
        ref_forall_window_related_pieces(r, cp, dp, w, endpoints)
        for cp, dp, w in ref_piece_windows(c, d, window)
    )


def ref_exists_window_related(r, c, d, window) -> bool:
    endpoints = ref_endpoint_env(c, d)
    return any(
        related
        for cp, dp, w in ref_piece_windows(c, d, window)
        for related in ref_decisions(r, cp, dp, w, endpoints)
    )


def ref_config_related(r, c, d, overlap=None) -> bool:
    if overlap is None:
        overlap = interval_intersect(c.interval, d.interval)
        if overlap is None:
            return False
    if _plain(c, d):
        return ref_forall_window_related_pieces(r, c, d, overlap, ref_endpoint_env(c, d))
    return ref_forall_window_related(r, c, d, overlap)


# --- seeded relations and configurations -------------------------------------

DENS = (1, 2, 3, 4, 7)
MODES = ("m", "n")
# "k" is a mode no configuration has, so a clause guarded by it is
# admitted for no pair
GUARDS = (None, None, "m", "n", "k")
SYMBOLS = ("c_u", "c_w", "a_u", "a_w", "t", "B_c", "E_c", "B_a", "E_a")


def _q(rng, lo=-2, hi=2):
    d = rng.choice(DENS)
    return Q(rng.randint(lo * d, hi * d), d)


def _plain_config(rng, lo, unbounded=False):
    hi = INF if unbounded else lo + Q(rng.randint(1, 6), rng.choice(DENS))
    names = ("u", "w") if rng.random() < 0.8 else ("u",)
    return make_config(
        rng.choice(MODES), lo, hi,
        {v: _q(rng) for v in names}, {v: _q(rng, -1, 1) for v in names},
        closed_hi=not unbounded and rng.random() < 0.3,
    )


def _config(rng):
    """A plain configuration, or a piecewise one of two or three pieces
    whose modes are drawn afresh, so that they often change."""
    lo = Q(rng.randint(0, 8), rng.choice((1, 2)))
    if rng.random() < 0.5:
        return _plain_config(rng, lo, unbounded=rng.random() < 0.15)
    c = _plain_config(rng, lo)
    for k in range(rng.randint(1, 2)):
        c = config_concat(c, _plain_config(rng, c.e, unbounded=k == 1 and rng.random() < 0.3))
        if not is_finite(c.e):
            break
    return c


def _constraint(rng):
    syms = rng.sample(SYMBOLS[:5] if rng.random() < 0.7 else SYMBOLS, rng.randint(1, 3))
    coefs = {s: _q(rng) or Q(1) for s in syms}
    return AffineConstraint(LinExpr.make(coefs, _q(rng)), rng.choice(("=", "<=", ">=", "<", ">")))


def _after_start(k):
    """A `dynamic` part reading B_c: t >= B_c + k."""
    return lambda ep: (AffineConstraint(LinExpr.make({"t": 1}, -ep["B_c"] - k), ">="),)


def _before_end(k):
    """A `dynamic` part that declines an unbounded abstract side."""
    def extra(ep):
        if "E_a" not in ep:
            return None
        return (AffineConstraint(LinExpr.make({"t": 1}, k - ep["E_a"]), "<="),)
    return extra


def _window(rng):
    lo = Q(rng.randint(0, 12), rng.choice((1, 2, 3)))
    if rng.random() < 0.2:
        return TimeInterval(lo, INF)
    hi = lo + Q(rng.randint(1, 8), rng.choice((1, 2)))
    return TimeInterval(lo, hi, rng.random() < 0.5)


def _relation(rng):
    clauses = []
    for _ in range(rng.randint(1, 3)):
        roll, dynamic = rng.random(), None
        if roll < 0.1:
            dynamic = _after_start(_q(rng, 0, 2))
        elif roll < 0.2:
            dynamic = _before_end(_q(rng, 0, 2))
        # a loose clause now and then, so that True verdicts are common
        cons = () if rng.random() < 0.15 else tuple(
            _constraint(rng) for _ in range(rng.randint(1, 2)))
        clauses.append(Clause(
            cons,
            _window(rng) if rng.random() < 0.2 else None,
            rng.choice(GUARDS),
            rng.choice(GUARDS),
            dynamic,
        ))
    domain = None
    if rng.random() < 0.35:
        domain = tuple(_window(rng) for _ in range(rng.randint(1, 2)))
    return TimedStateRelation(tuple(clauses), domain)


def _query_window(rng, c, d, shape):
    lo = max(c.b, d.b) + Q(rng.randint(-2, 6), rng.choice((1, 2, 3)))
    lo = max(lo, Q(0))
    if shape == "unbounded":
        return TimeInterval(lo, INF)
    if shape == "point":
        return TimeInterval(lo, lo, True)
    return TimeInterval(lo, lo + Q(rng.randint(1, 8), rng.choice((1, 2))), shape == "closed")


def _place(window, domain) -> str:
    """Where window lies against dom(r)."""
    if any(window.subset_of(w) for w in domain):
        return "inside"
    if all(interval_intersect(window, w) is None for w in domain):
        return "outside"
    return "across"


def test_lifts_match_the_guard_per_window_path():
    rng = random.Random(20261019)
    seen = dict.fromkeys((
        "no clause admitted", "no clause admitted, domain", "endpoints read",
        "endpoints unread", "dynamic", "mode change", "point", "inside", "outside",
        "across", "true", "false",
    ), 0)
    for _ in range(1200):
        r = _relation(rng)
        c, d = _config(rng), _config(rng)
        plain = _plain(c, d)
        for cp in pieces(c):
            for dp in pieces(d):
                clauses, ends = r.admitted(cp.flow.mode, dp.flow.mode)
                if not clauses:
                    seen["no clause admitted" if r.domain is None
                         else "no clause admitted, domain"] += 1
                seen["endpoints read" if ends else "endpoints unread"] += 1
                seen["dynamic"] += any(cl.dynamic is not None for cl in clauses)
                endpoints = ref_endpoint_env(cp, dp)
                assert compile_clauses(r, cp, dp, endpoints) == ref_compile(r, cp, dp, endpoints)
                if not ends:
                    assert compile_clauses(r, cp, dp, {}) == ref_compile(r, cp, dp, endpoints)
        seen["mode change"] += any(
            len({p.flow.mode for p in pieces(x)}) > 1 for x in (c, d))
        want = ref_config_related(r, c, d)
        assert config_related(r, c, d) == want, (r, c, d)
        overlap = interval_intersect(c.interval, d.interval)
        if overlap is not None and plain:
            assert config_related(r, c, d, overlap) == want
        seen["true" if want else "false"] += overlap is not None
        for shape in ("open", "closed", "point", "unbounded"):
            window = _query_window(rng, c, d, shape)
            assert forall_window_related(r, c, d, window) == \
                ref_forall_window_related(r, c, d, window), (r, c, d, window)
            assert exists_window_related(r, c, d, window) == \
                ref_exists_window_related(r, c, d, window), (r, c, d, window)
            seen["point"] += shape == "point"
            if r.domain is not None:
                seen[_place(window, r.domain)] += 1
    assert all(n > 30 for n in seen.values()), seen


def test_pair_no_clause_admits_is_decided_without_the_kernel(monkeypatch):
    """A plain pair whose modes r admits no clause for, with no domain,
    is unrelated on a nonempty overlap, point or longer, without entering
    the kernel; with a domain, the kernel decides, since a window
    outside dom(r) holds vacuously."""
    c = make_config("m", 0, 4, {"u": 0}, {"u": 1}, closed_hi=True)
    d = make_config("n", 1, 6, {"u": 0}, {"u": 1})
    point = make_config("n", 4, 4, {"u": 0}, {"u": 1}, closed_hi=True)
    clause = Clause((AffineConstraint(LinExpr.make({"c_u": 1, "a_u": -1}), "="),), None, "m", "m")
    r = TimedStateRelation((clause,))
    assert r.admitted("m", "n") == ((), False)
    assert r.admitted("m", "m") == ((clause,), False)

    def kernel(*args):
        raise AssertionError("entered the window kernel")

    with monkeypatch.context() as patched:
        patched.setattr(relation, "_forall_window_related", kernel)
        assert not config_related(r, c, d)
        assert not config_related(r, c, point)
    outside = TimedStateRelation((clause,), (TimeInterval(Q(10), INF),))
    assert config_related(outside, c, d)
    assert ref_config_related(outside, c, d)
    across = TimedStateRelation((clause,), (TimeInterval(Q(3), INF),))
    assert not config_related(across, c, d)
    assert not ref_config_related(across, c, d)


@pytest.mark.parametrize("guards", [("m", None), (None, "n"), (None, None)])
def test_wildcard_guards_admit_every_mode_on_their_side(guards):
    clause = Clause((), None, *guards)
    r = TimedStateRelation((clause,))
    for cmode in ("m", "n"):
        for amode in ("m", "n"):
            admitted = guards[0] in (None, cmode) and guards[1] in (None, amode)
            assert r.admitted(cmode, amode) == (((clause,) if admitted else ()), False)
