"""States, affine flows, configurations, and the configuration operators.

A configuration pairs an affine flow with a time interval.  The flow is
its lines: variable v has value rate[v]*t + offset[v] at every time t,
whatever interval it is observed on.  Concatenation of consecutive
configurations yields a piecewise configuration (used only as an
intermediate when splicing); slicing narrows the intervals and keeps
each piece's flow as it is.

The empty configuration EPSILON has b = +inf and e = -inf so that
min/max over mixed endpoint collections collapse the way the splice
conventions require.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Mapping, Optional

from .errors import DurationBelowZeta, EmptyIntersection, NonConsecutive
from .records import record
from .time_core import (
    INF,
    NEG_INF,
    Q,
    TimeInterval,
    exact,
    interval_intersect,
    is_finite,
    rank_range,
    time_str,
)

__all__ = [
    "State",
    "AffineFlow",
    "Configuration",
    "PiecewiseConfiguration",
    "EPSILON",
    "UNDEFINED",
    "is_empty",
    "cfg_b",
    "cfg_e",
    "config_concat",
    "config_slice",
    "make_config",
    "pieces",
    "overlapping",
    "overlap_ids",
]


@record(frozen=True)
class State:
    mode: str
    vars: tuple  # ordered (name, Fraction) pairs

    @staticmethod
    def make(mode: str, values: Mapping[str, Fraction]) -> "State":
        return State(mode, tuple(sorted((k, Q(v)) for k, v in values.items())))

    def var(self, name: str) -> Fraction:
        for k, v in self.vars:
            if k == name:
                return v
        raise KeyError(name)

    def as_dict(self) -> dict:
        return dict(self.vars)

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in self.vars)
        return f"<{self.mode}; {inner}>"


@record(frozen=True)
class AffineFlow:
    mode: str
    lines: tuple  # ordered (name, (rate, offset)), value rate*t + offset

    @staticmethod
    def make(mode, anchor, initial: Mapping, rate: Mapping) -> "AffineFlow":
        """The flow through `initial` at time `anchor`, with `rate` (0
        for a variable it leaves out)."""
        anchor = exact(anchor)
        lines = []
        for k in sorted(initial):
            r = exact(rate.get(k, 0))
            lines.append((k, (r, exact(initial[k]) - r * anchor)))
        return AffineFlow(mode, tuple(lines))

    @property
    def rate(self) -> tuple:
        return tuple((k, r) for k, (r, _) in self.lines)

    def value(self, name: str, t) -> Fraction:
        r, o = dict(self.lines)[name]
        return r * t + o

    def state_at(self, t) -> State:
        return State(self.mode, tuple((k, r * t + o) for k, (r, o) in self.lines))

    def var_names(self) -> tuple:
        return tuple(k for k, _ in self.lines)

    @cached_property
    def int_lines(self) -> tuple:
        """(name, (R, O, L)) per variable, integers in lowest terms with
        L > 0 and its value at t being (R*t + O)/L: `lines` over one
        denominator, computed once per flow without building a Fraction."""
        out = []
        for k, (r, o) in self.lines:
            rn, rd, on, od = r.numerator, r.denominator, o.numerator, o.denominator
            R, O, L = rn * od, on * rd, rd * od
            g = gcd(R, O, L)
            out.append((k, (R // g, O // g, L // g)))
        return tuple(out)


@record(frozen=True)
class Configuration:
    flow: AffineFlow
    interval: TimeInterval

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

    def __repr__(self):
        return f"Cfg({self.flow.mode}@{self.interval!r})"


class _Empty:
    """The empty configuration."""

    __slots__ = ()

    def __repr__(self):
        return "epsilon"


EPSILON = _Empty()


class _Undefined:
    __slots__ = ()

    def __repr__(self):
        return "undefined"


UNDEFINED = _Undefined()


def is_empty(c) -> bool:
    return c is EPSILON


def cfg_b(c):
    return INF if c is EPSILON else c.interval.lo


def cfg_e(c):
    return NEG_INF if c is EPSILON else c.interval.hi


@record(frozen=True)
class PiecewiseConfiguration:
    """A finite piecewise-affine flow over a single contiguous interval.

    Only produced by concatenation and consumed by slicing; trajectories
    store plain per-configuration affine flows.
    """

    pieces: tuple  # Configuration, contiguous, all but last right-open

    @cached_property
    def interval(self) -> TimeInterval:
        first, last = self.pieces[0], self.pieces[-1]
        return TimeInterval(first.b, last.e, last.interval.closed_hi)

    @cached_property
    def starts(self) -> tuple:
        """The start of each piece, in order."""
        return tuple(p.b for p in self.pieces)

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

    def __repr__(self):
        inner = " $ ".join(repr(p) for p in self.pieces)
        return f"Piecewise[{inner}]"


def make_config(mode, lo, hi, initial, rate, closed_hi=False) -> Configuration:
    lo = exact(lo)
    hi = exact(hi) if is_finite(hi) else INF
    flow = AffineFlow.make(mode, lo, initial, rate)
    return Configuration(flow, TimeInterval(lo, hi, closed_hi))


def pieces(c) -> tuple:
    """The affine pieces of c: its own pieces if piecewise, else (c,)."""
    if isinstance(c, PiecewiseConfiguration):
        return c.pieces
    return (c,)


def overlapping(xs, ys) -> list:
    """(x, y, window) for every x in xs and y in ys whose intervals meet,
    window being their intersection, in the order of the nested loop
    over xs and then ys."""
    xs, ys = list(xs), list(ys)
    return [(xs[i], ys[j], w) for i, j, w in overlap_ids(xs, ys)]


def overlap_ids(xs, ys) -> list:
    """overlapping(xs, ys) by position: (i, j, window) for xs[i], ys[j].

    One sweep over start times, in integers: over 2D (D the lcm of the
    finite ends' denominators) an interval's rank_range ends on an even
    tick if closed, an odd one if open, and past all others if unbounded,
    so two intervals meet where their ranges meet, and the earlier end
    closes the window when even.  Pairs are compared only when the later
    start is not past the earlier end; windows keep their inputs' ends.
    """
    n = len(xs)
    ivs = [item.interval for item in (*xs, *ys)]
    D2 = 2 * lcm(*(e.denominator for iv in ivs for e in (iv.lo, iv.hi) if e is not INF))
    spans = [rank_range(iv, 1, D2) for iv in ivs]
    top = 1 + 2 * max((e for span in spans for e in span if e is not INF), default=0)
    lo = [first for first, _ in spans]
    hi = [top if last is INF else last for _, last in spans]
    active = ([], [])  # indices per side whose interval may still meet a later start
    found = []
    # a stable sort: equal starts keep xs before ys, each in input order
    for g in sorted(range(len(ivs)), key=lo.__getitem__):
        t, side = lo[g], int(g >= n)
        waiting = active[1 - side]
        waiting[:] = [m for m in waiting if t <= hi[m]]
        for m in waiting:
            i, j = (g, m) if side == 0 else (m, g)
            h = min(hi[i], hi[j])
            if t <= h:
                found.append((i, j, TimeInterval(ivs[j].lo if lo[i] < lo[j] else ivs[i].lo,
                                                 ivs[i if hi[i] == h else j].hi, h % 2 == 0)))
        active[side].append(g)
    found.sort()  # by (i, j): no id pair repeats, so no window is compared
    return [(i, j - n, w) for i, j, w in found]


def config_concat(c, d):
    """Concatenation c $ d of consecutive configurations.

    At the junction time the second configuration's state wins
    (left-closed convention).  c $ epsilon = epsilon $ c = c.
    """
    if c is EPSILON:
        return d
    if d is EPSILON:
        return c
    if cfg_e(c) != cfg_b(d):
        raise NonConsecutive(f"e({c!r}) = {time_str(cfg_e(c))} != b({d!r})")
    left = list(pieces(c))
    # drop the closing bracket of c's last piece: d's state wins at the join
    last = left[-1]
    if last.interval.closed_hi:
        if last.e == last.b:
            left.pop()
        else:
            left[-1] = Configuration(
                last.flow, TimeInterval(last.b, last.e, False)
            )
    return PiecewiseConfiguration(tuple(left) + pieces(d))


def config_slice(c, t1, t2, closed=False, zeta=None):
    """Time slice c<t1,t2>: restrict to interval intersection [t1,t2) or [t1,t2].

    Returns EPSILON for an empty input.  Each kept piece keeps its flow,
    so evaluation is unchanged on the shared window.
    """
    if c is EPSILON:
        return EPSILON
    window = TimeInterval(t1, t2 if is_finite(t2) else INF, closed)
    inter = interval_intersect(c.interval, window)
    if inter is None:
        raise EmptyIntersection(f"{c!r} sliced at {window!r}")
    if zeta is not None and is_finite(inter.hi) and inter.d < zeta:
        raise DurationBelowZeta(f"slice {inter!r} shorter than {zeta}")
    kept = []
    for piece in pieces(c):
        sub = interval_intersect(piece.interval, inter)
        if sub is None:
            continue
        # a point piece (interval_intersect gives no empty [t,t)): keep it
        # only if it is the closing endpoint
        if sub.hi == sub.lo and sub.hi != inter.hi:
            continue
        kept.append(Configuration(piece.flow, sub))
    if not kept:
        raise EmptyIntersection(f"{c!r} sliced at {window!r}")
    if len(kept) == 1:
        return kept[0]
    return PiecewiseConfiguration(tuple(kept))
