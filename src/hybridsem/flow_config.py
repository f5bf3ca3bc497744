"""States, affine flows, configurations, and the configuration operators.

A configuration pairs an affine flow with a time interval.  The flow is
anchored at the interval start: variable v has value
initial[v] + rate[v]*(t - anchor).  Concatenation of consecutive
configurations yields a piecewise configuration (used only as an
intermediate when splicing); slicing re-anchors the flow so values are
unchanged.

The empty configuration EPSILON has b = +inf and e = -inf so that
min/max over mixed endpoint collections collapse the way the splice
conventions require.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .errors import DurationBelowZeta, EmptyIntersection, NonConsecutive
from .time_core import (
    INF,
    NEG_INF,
    Q,
    TimeInterval,
    interval_intersect,
    is_finite,
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
    "config_eval",
    "config_concat",
    "config_slice",
    "make_config",
    "pieces",
    "overlapping",
]


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class AffineFlow:
    mode: str
    anchor: Fraction
    initial: tuple  # ordered (name, Fraction)
    rate: tuple  # ordered (name, Fraction)

    @staticmethod
    def make(mode, anchor, initial: Mapping, rate: Mapping) -> "AffineFlow":
        names = set(initial)
        init = tuple(sorted((k, Q(v)) for k, v in initial.items()))
        rt = tuple(sorted((k, Q(rate.get(k, 0))) for k in names))
        return AffineFlow(mode, Q(anchor), init, rt)

    def value(self, name: str, t) -> Fraction:
        init = dict(self.initial)[name]
        rt = dict(self.rate)[name]
        return init + rt * (t - self.anchor)

    def state_at(self, t) -> State:
        rates = dict(self.rate)
        return State(
            self.mode,
            tuple((k, v + rates[k] * (t - self.anchor)) for k, v in self.initial),
        )

    def var_names(self) -> tuple:
        return tuple(k for k, _ in self.initial)

    def reanchored(self, new_anchor) -> "AffineFlow":
        rates = dict(self.rate)
        shifted = tuple(
            (k, v + rates[k] * (new_anchor - self.anchor)) for k, v in self.initial
        )
        return AffineFlow(self.mode, Q(new_anchor), shifted, self.rate)


@dataclass(frozen=True)
class Configuration:
    flow: AffineFlow
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


@dataclass(frozen=True)
class PiecewiseConfiguration:
    """A finite piecewise-affine flow over a single contiguous interval.

    Only produced by concatenation and consumed by slicing; trajectories
    store plain per-configuration affine flows.
    """

    pieces: tuple  # Configuration, contiguous, all but last right-open

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

    def __repr__(self):
        inner = " $ ".join(repr(p) for p in self.pieces)
        return f"Piecewise[{inner}]"


def make_config(mode, lo, hi, initial, rate, closed_hi=False) -> Configuration:
    lo = Q(lo)
    hi = Q(hi) if is_finite(hi) else INF
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
    over xs and then ys.

    One sweep over start times: a pair is compared only when the later
    start is not past the earlier end, so pairs that cannot meet are
    never compared.
    """
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


def config_eval(c, t):
    """State at time t, or UNDEFINED outside the interval."""
    if c is EPSILON:
        return UNDEFINED
    s = c.state_at(t)
    return UNDEFINED if s is None else s


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
        if last.interval.d == 0:
            left.pop()
        else:
            left[-1] = Configuration(
                last.flow, TimeInterval(last.b, last.e, False)
            )
    return PiecewiseConfiguration(tuple(left) + pieces(d))


def config_slice(c, t1, t2, closed=False, zeta=None):
    """Time slice c<t1,t2>: restrict to interval intersection [t1,t2) or [t1,t2].

    Returns EPSILON for an empty input.  The result is re-anchored so
    evaluation is unchanged on the shared window.
    """
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
    for piece in pieces(c):
        sub = interval_intersect(piece.interval, inter)
        if sub is None or (is_finite(sub.hi) and sub.d == 0 and not sub.closed_hi):
            continue
        if sub.d == 0:
            # degenerate point piece: keep only if it is the closing endpoint
            if not (sub.closed_hi and sub.hi == inter.hi):
                continue
        kept.append(Configuration(piece.flow.reanchored(sub.lo), sub))
    if not kept:
        raise EmptyIntersection(f"{c!r} sliced at {window!r}")
    if len(kept) == 1:
        return kept[0]
    return PiecewiseConfiguration(tuple(kept))
