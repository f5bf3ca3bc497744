"""Flows stored as their lines against the anchored flows they replaced.

The reference below is the earlier flow form, kept verbatim apart from
its names: `AffineFlow` holding the values `initial` at `anchor` with
`rate`, anchored at its interval's start, so that `config_slice`
re-anchored every piece it kept, with the readers of that form
(`config_concat`, `canonical_key` with `normalize_config`,
`config_var_ranges` and `homomorphism._hom_flow`).  On seeded
configurations (open, closed and unbounded intervals; piecewise ones;
negative rates; denominators up to 97) both forms must give the same
states, slices, splices, integer lines, ranges and state-map images, and
split configurations into the same classes of equal keys."""

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Mapping, Optional

from hybridsem.affine import LinExpr
from hybridsem.errors import (
    DurationBelowZeta,
    EmptyIntersection,
    HybridSemError,
    NonConsecutive,
)
from hybridsem.flow_config import (
    EPSILON,
    State,
    config_concat,
    config_slice,
    is_empty,
    make_config,
    pieces,
)
from hybridsem.homomorphism import StateHom, _hom_flow
from hybridsem.simulation import canonical_key, splice
from hybridsem.time_core import INF, Q, TimeInterval, interval_intersect, is_finite, time_str
from hybridsem.trajectory import config_var_ranges


# --- the reference anchored form ----------------------------------------------


@dataclass(frozen=True)
class _RefFlow:
    mode: str
    anchor: Fraction
    initial: tuple  # ordered (name, Fraction)
    rate: tuple  # ordered (name, Fraction)

    @staticmethod
    def make(mode, anchor, initial: Mapping, rate: Mapping) -> "_RefFlow":
        names = set(initial)
        init = tuple(sorted((k, Q(v)) for k, v in initial.items()))
        rt = tuple(sorted((k, Q(rate.get(k, 0))) for k in names))
        return _RefFlow(mode, Q(anchor), init, rt)

    def state_at(self, t) -> State:
        rates = dict(self.rate)
        return State(
            self.mode,
            tuple((k, v + rates[k] * (t - self.anchor)) for k, v in self.initial),
        )

    @cached_property
    def lines(self) -> tuple:
        rates = dict(self.rate)
        return tuple(
            (k, (rates[k], v - rates[k] * self.anchor)) for k, v in self.initial
        )

    @cached_property
    def int_lines(self) -> tuple:
        rates = dict(self.rate)
        an, ad = self.anchor.numerator, self.anchor.denominator
        out = []
        for k, v in self.initial:
            rn, rd = rates[k].numerator, rates[k].denominator
            vn, vd = v.numerator, v.denominator
            R, O, L = rn * vd * ad, vn * rd * ad - rn * an * vd, rd * vd * ad
            g = gcd(R, O, L)
            out.append((k, (R // g, O // g, L // g)))
        return tuple(out)

    def reanchored(self, new_anchor) -> "_RefFlow":
        rates = dict(self.rate)
        shifted = tuple(
            (k, v + rates[k] * (new_anchor - self.anchor)) for k, v in self.initial
        )
        return _RefFlow(self.mode, Q(new_anchor), shifted, self.rate)


@dataclass(frozen=True)
class _RefConfiguration:
    flow: _RefFlow
    interval: TimeInterval

    def __post_init__(self):
        assert self.flow.anchor == self.interval.lo

    @property
    def b(self):
        return self.interval.lo

    @property
    def e(self):
        return self.interval.hi

    def state_at(self, t) -> Optional[State]:
        if not self.interval.contains(t):
            return None
        return self.flow.state_at(t)


@dataclass(frozen=True)
class _RefPiecewise:
    pieces: tuple

    @property
    def interval(self) -> TimeInterval:
        first, last = self.pieces[0], self.pieces[-1]
        return TimeInterval(first.b, last.e, last.interval.closed_hi)

    @property
    def b(self):
        return self.pieces[0].b

    @property
    def e(self):
        return self.pieces[-1].e

    def state_at(self, t) -> Optional[State]:
        for piece in self.pieces:
            if piece.interval.contains(t):
                return piece.flow.state_at(t)
        return None


def _ref_pieces(c) -> tuple:
    if isinstance(c, _RefPiecewise):
        return c.pieces
    return (c,)


def _ref_config_concat(c, d):
    if c is EPSILON:
        return d
    if d is EPSILON:
        return c
    if c.e != d.b:
        raise NonConsecutive(f"e({c!r}) = {time_str(c.e)} != b({d!r})")
    left = list(_ref_pieces(c))
    last = left[-1]
    if last.interval.closed_hi:
        if last.interval.d == 0:
            left.pop()
        else:
            left[-1] = _RefConfiguration(
                last.flow, TimeInterval(last.b, last.e, False)
            )
    return _RefPiecewise(tuple(left) + _ref_pieces(d))


def _ref_config_slice(c, t1, t2, closed=False, zeta=None):
    if c is EPSILON:
        return EPSILON
    t1 = Q(t1)
    window = TimeInterval(t1, Q(t2) if is_finite(t2) else INF, closed)
    inter = interval_intersect(c.interval, window)
    if inter is None:
        raise EmptyIntersection(f"{c!r} sliced at {window!r}")
    if zeta is not None and is_finite(inter.hi) and inter.d < zeta:
        raise DurationBelowZeta(f"slice {inter!r} shorter than {zeta}")
    kept = []
    for piece in _ref_pieces(c):
        sub = interval_intersect(piece.interval, inter)
        if sub is None or (is_finite(sub.hi) and sub.d == 0 and not sub.closed_hi):
            continue
        if sub.d == 0:
            if not (sub.closed_hi and sub.hi == inter.hi):
                continue
        kept.append(_RefConfiguration(piece.flow.reanchored(sub.lo), sub))
    if not kept:
        raise EmptyIntersection(f"{c!r} sliced at {window!r}")
    if len(kept) == 1:
        return kept[0]
    return _RefPiecewise(tuple(kept))


def _ref_splice(c, c_next, m1, m2):
    if m2 <= m1:
        return None
    cat = _ref_config_concat(c, c_next) if not is_empty(c_next) else c
    closed = cat.interval.closed_hi and cat.interval.hi == m2
    try:
        return _ref_config_slice(cat, m1, m2, closed=closed)
    except HybridSemError:
        return None


def _ref_canonical_key(c):
    pieces = _ref_normalize_config(c)
    out = []
    for p in pieces:
        out.append(
            (
                p.flow.mode,
                p.interval.lo,
                p.interval.hi,
                p.interval.closed_hi,
                p.flow.reanchored(p.interval.lo).initial,
                p.flow.rate,
            )
        )
    return tuple(out)


def _ref_normalize_config(c) -> tuple:
    ps = _ref_pieces(c)
    merged = [ps[0]]
    for p in ps[1:]:
        prev = merged[-1]
        same_flow = (
            prev.flow.mode == p.flow.mode
            and prev.flow.rate == p.flow.rate
            and prev.flow.state_at(p.b) == p.flow.state_at(p.b)
        )
        if same_flow and prev.e == p.b and not prev.interval.closed_hi:
            merged[-1] = _RefConfiguration(
                prev.flow, TimeInterval(prev.b, p.e, p.interval.closed_hi)
            )
        else:
            merged.append(p)
    return tuple(merged)


def _ref_config_var_ranges(c) -> dict:
    out = {}
    hi = c.e if is_finite(c.e) else None
    for name, init in c.flow.initial:
        rate = dict(c.flow.rate)[name]
        if rate == 0 or hi is None:
            if rate == 0:
                out[name] = (init, init)
            else:
                out[name] = (init, INF) if rate > 0 else (None, init)
            continue
        end = init + rate * (hi - c.b)
        out[name] = (min(init, end), max(init, end))
    return out


def _ref_hom_flow(h: StateHom, flow: _RefFlow) -> _RefFlow:
    init_env = dict(flow.initial)
    rate_env = dict(flow.rate)
    initial, rate = {}, {}
    for name, e in h.out_vars:
        initial[name] = e.eval(init_env)
        rate[name] = e.minus(LinExpr.constant(e.const)).eval(rate_env)
    return _RefFlow.make(h.mode(flow.mode), flow.anchor, initial, rate)


# --- seeded configurations in both forms --------------------------------------


def _q(rng, span=300):
    return Q(rng.randint(-span, span), rng.randint(1, 97))


def _time(rng):
    return Q(rng.randint(1, 40), rng.choice((1, 2, 3, 7, 97)))


def _random_pair(rng, lo=None):
    """(new, reference) forms of one configuration from lo: one to three
    pieces in modes a and b over u and w, a piece continuing the flow of
    the one before it at times, the last piece closed, open or
    unbounded; rates are negative, zero or positive, or left out."""
    lo = Q(rng.randint(0, 20), rng.choice((1, 2, 97))) if lo is None else lo
    n = rng.randint(1, 3)
    end = rng.choice(("closed", "open", "unbounded"))
    cuts = [lo]
    for _ in range(n):
        cuts.append(cuts[-1] + _time(rng))
    if end == "unbounded":
        cuts[-1] = INF
    new = ref = None
    prev = None
    for i in range(n):
        b, e = cuts[i], cuts[i + 1]
        closed = i == n - 1 and end == "closed"
        if prev is not None and rng.random() < 0.5:
            # the same flow, observed from b on
            mode, pb, init, rate = prev
            init = {v: x + rate.get(v, 0) * (b - pb) for v, x in init.items()}
        else:
            mode = rng.choice("ab")
            init = {"u": _q(rng), "w": _q(rng)}
            rate = {v: rng.choice((0, _q(rng, 40), -abs(_q(rng, 40)))) for v in "uw"}
            if rng.random() < 0.2:
                del rate["w"]
        prev = (mode, b, init, rate)
        pn = make_config(mode, b, e, init, rate, closed_hi=closed)
        pr = _RefConfiguration(_RefFlow.make(mode, b, init, rate), TimeInterval(b, e, closed))
        new = pn if new is None else config_concat(new, pn)
        ref = pr if ref is None else _ref_config_concat(ref, pr)
    return new, ref


def _points(c) -> list:
    """Every breakpoint of c, the midpoints between them, and points
    before its start and past its end."""
    ends = sorted({t for p in pieces(c) for t in (p.b, p.e) if is_finite(t)})
    mids = [(x + y) / 2 for x, y in zip(ends, ends[1:])]
    return ends + mids + [ends[0] - Q(1, 2), ends[-1] + 1, ends[-1] + 1000]


def _view(c, ps) -> tuple:
    """What a configuration is, in either form: per piece its mode,
    interval, lines and integer lines."""
    return tuple((p.flow.mode, p.interval, p.flow.lines, p.flow.int_lines) for p in ps(c))


def _assert_same(new, ref):
    assert _view(new, pieces) == _view(ref, _ref_pieces)
    for t in _points(new):
        assert new.state_at(t) == ref.state_at(t)
    for pn, pr in zip(pieces(new), _ref_pieces(ref)):
        assert config_var_ranges(pn) == _ref_config_var_ranges(pr)


def _outcome(f, *args, **kwargs):
    try:
        return f(*args, **kwargs)
    except HybridSemError as exc:
        return type(exc)


def _random_hom(rng) -> StateHom:
    out = {name: LinExpr.make({v: _q(rng, 20) for v in rng.sample("uw", rng.randint(1, 2))},
                              _q(rng)) for name in rng.sample("yz", rng.randint(1, 2))}
    return StateHom.make({"a": "b"} if rng.random() < 0.5 else {}, out)


def test_flow_lines_match_the_anchored_reference():
    """States at every breakpoint and midpoint, slices, splices, integer
    lines, variable ranges and state-map images agree with the reference
    on 300 seeded configurations."""
    rng = random.Random(1307)
    seen = dict.fromkeys(("piecewise", "unbounded", "closed", "negative", "slice",
                          "slice refused", "splice", "splice empty", "hom"), 0)
    for _ in range(300):
        new, ref = _random_pair(rng)
        _assert_same(new, ref)
        seen["piecewise"] += len(pieces(new)) > 1
        seen["unbounded"] += not is_finite(new.e)
        seen["closed"] += new.interval.closed_hi
        seen["negative"] += any(r < 0 for p in pieces(new) for _, (r, _) in p.flow.lines)
        points = _points(new)
        for _ in range(4):
            t1 = rng.choice(points)
            t2 = rng.choice((INF, t1 + _time(rng), rng.choice(points)))
            closed = is_finite(t2) and rng.random() < 0.5
            zeta = rng.choice((None, None, Q(1, 97), Q(3)))
            got = _outcome(config_slice, new, t1, t2, closed=closed, zeta=zeta)
            want = _outcome(_ref_config_slice, ref, t1, t2, closed=closed, zeta=zeta)
            if isinstance(want, type):
                assert got is want
                seen["slice refused"] += 1
            else:
                _assert_same(got, want)
                seen["slice"] += 1
        if is_finite(new.e):
            nxt, nxt_ref = _random_pair(rng, lo=new.e)
        else:
            nxt, nxt_ref = EPSILON, EPSILON
        for _ in range(4):
            m1, m2 = sorted(rng.sample(points, 2))
            m2 = rng.choice((m2, new.e if nxt is EPSILON else nxt.e))
            got, want = splice(new, nxt, m1, m2), _ref_splice(ref, nxt_ref, m1, m2)
            if want is None:
                assert got is None
                seen["splice empty"] += 1
            else:
                _assert_same(got, want)
                seen["splice"] += 1
        h = _random_hom(rng)
        for pn, pr in zip(pieces(new), _ref_pieces(ref)):
            hn, hr = _hom_flow(h, pn.flow), _ref_hom_flow(h, pr.flow)
            assert (hn.mode, hn.lines, hn.int_lines) == (hr.mode, hr.lines, hr.int_lines)
            for t in points:
                assert hn.state_at(t) == hr.state_at(t)
            seen["hom"] += 1
    assert all(seen.values()), seen


def _slice_both(pair, t1, t2, closed=False):
    return config_slice(pair[0], t1, t2, closed), _ref_config_slice(pair[1], t1, t2, closed)


def _concat_both(x, y):
    return config_concat(x[0], y[0]), _ref_config_concat(x[1], y[1])


def test_keys_split_configurations_as_the_reference():
    """Two configurations get equal canonical keys exactly when the
    reference gives them equal keys, on seeded configurations, their
    slices, their slices put back together (which merge back into the
    configuration they came from), and, for one piece, the same piece
    raised by 1 and the join of its left slice with that raised piece's
    right slice (which must not merge)."""
    rng = random.Random(2207)
    pool = []
    for _ in range(120):
        pair = _random_pair(rng)
        new = pair[0]
        pool.append(pair)
        inside = sorted(t for t in _points(new) if new.interval.contains(t) and t > new.b)
        if not inside or inside == [new.e]:
            continue
        m = rng.choice([t for t in inside if t != new.e])
        end, closed = new.e, new.interval.closed_hi
        left = _slice_both(pair, new.b, m)
        pool += [left, _concat_both(left, _slice_both(pair, m, end, closed))]
        if len(pieces(new)) == 1:
            init = {k: r * new.b + o + 1 for k, (r, o) in new.flow.lines}
            rate = dict(new.flow.rate)
            raised = (make_config(new.flow.mode, new.b, end, init, rate, closed),
                      _RefConfiguration(_RefFlow.make(new.flow.mode, new.b, init, rate),
                                        new.interval))
            pool += [raised, _concat_both(left, _slice_both(raised, m, end, closed))]
    by_new, by_ref = {}, {}
    for i, (new, ref) in enumerate(pool):
        by_new.setdefault(canonical_key(new), []).append(i)
        by_ref.setdefault(_ref_canonical_key(ref), []).append(i)
    assert sorted(by_new.values()) == sorted(by_ref.values())
    assert sum(len(group) > 1 for group in by_new.values()) > 20
