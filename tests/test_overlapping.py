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


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(items(), max_size=7), st.lists(items(), max_size=7))
def test_overlapping_matches_nested_loop_in_order(xs, ys):
    assert overlapping(xs, ys) == naive(xs, ys)


def test_touching_half_open_intervals_do_not_meet():
    a = Item(TimeInterval(Q(0), Q(1), False))
    b = Item(TimeInterval(Q(1), Q(2), True))
    point = Item(TimeInterval(Q(1), Q(1), True))
    assert overlapping([a], [b]) == []
    assert overlapping([a, b], [point]) == [(b, point, TimeInterval(Q(1), Q(1), True))]


# the integer sweep scales every end to one denominator: mix several
DENOMINATORS = (1, 2, 3, 5, 7, 16)


def _time(draw, top):
    d = draw(st.sampled_from(DENOMINATORS))
    return Q(draw(st.integers(0, top * d)), d)


@st.composite
def mixed_sides(draw):
    """Two lists of intervals with mixed denominators whose starts are
    often drawn from one shared pool, so that the sides start together;
    some intervals are points and some unbounded, closed or open (a
    hand-built unbounded interval may be marked closed)."""
    pool = [_time(draw, 4) for _ in range(draw(st.integers(1, 3)))]

    def item():
        lo = draw(st.sampled_from(pool)) if draw(st.booleans()) else _time(draw, 4)
        kind = draw(st.sampled_from(("finite", "point", "unbounded")))
        if kind == "unbounded":
            return Item(TimeInterval(lo, INF, draw(st.booleans())))
        if kind == "point":
            return Item(TimeInterval(lo, lo, draw(st.booleans())))
        d = draw(st.sampled_from(DENOMINATORS))
        hi = lo + Q(draw(st.integers(1, 3 * d)), d)
        return Item(TimeInterval(lo, hi, draw(st.booleans())))

    return ([item() for _ in range(draw(st.integers(0, 7)))],
            [item() for _ in range(draw(st.integers(0, 7)))])


@settings(derandomize=True, deadline=None, max_examples=400)
@given(mixed_sides())
def test_overlapping_with_mixed_denominators_matches_nested_loop(sides):
    xs, ys = sides
    assert overlapping(xs, ys) == naive(xs, ys)
