"""The shared overlap enumerator against the naive nested loop."""

from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

from hybridsem.flow_config import overlapping
from hybridsem.time_core import INF, TimeInterval, interval_intersect


class Item:
    def __init__(self, interval):
        self.interval = interval


@st.composite
def items(draw):
    # a coarse grid makes shared ends, touching [a,b)/[b,c) pairs and
    # point intervals [t,t] common
    lo = Q(draw(st.integers(0, 8)), 2)
    kind = draw(st.sampled_from(("finite", "point", "unbounded")))
    if kind == "unbounded":
        return Item(TimeInterval(lo, INF, False))
    if kind == "point":
        return Item(TimeInterval(lo, lo, draw(st.booleans())))
    hi = lo + Q(draw(st.integers(1, 6)), 2)
    return Item(TimeInterval(lo, hi, draw(st.booleans())))


def naive(xs, ys):
    out = []
    for x in xs:
        for y in ys:
            w = interval_intersect(x.interval, y.interval)
            if w is not None:
                out.append((x, y, w))
    return out


@settings(max_examples=300, deadline=None)
@given(st.lists(items(), max_size=7), st.lists(items(), max_size=7))
def test_overlapping_matches_nested_loop_in_order(xs, ys):
    assert overlapping(xs, ys) == naive(xs, ys)


def test_touching_half_open_intervals_do_not_meet():
    a = Item(TimeInterval(Q(0), Q(1), False))
    b = Item(TimeInterval(Q(1), Q(2), True))
    point = Item(TimeInterval(Q(1), Q(1), True))
    assert overlapping([a], [b]) == []
    assert overlapping([a, b], [point]) == [(b, point, TimeInterval(Q(1), Q(1), True))]
